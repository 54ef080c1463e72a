"""Graph containers, file loaders, and sampling utilities.

A graph is undirected and simple: edges are stored once in canonical form
(smaller id first, rows sorted lexicographically) and every node carries a
dense float feature row. Node ids are the contiguous range [0, num_nodes).
"""

from __future__ import annotations

import json
import logging
import math

import numpy as np
import scipy.sparse as sp

from .errors import (
    AllNodesIsolated,
    DaneError,
    FeatureRowMissing,
    InconsistentFeatureWidth,
    MalformedLine,
    NodeIdOutOfRange,
)

logger = logging.getLogger(__name__)


def _canonical_edges(edges: np.ndarray) -> np.ndarray:
    """Sort each pair ascending, order rows lexicographically, drop duplicates."""
    if edges.size == 0:
        return np.zeros((0, 2), dtype=np.int64)
    swapped = np.sort(edges, axis=1)
    return np.unique(swapped, axis=0)


class Graph:
    """Undirected graph over nodes 0..num_nodes-1 with per-node features.

    Arrays are stored read-only; degrees are derived from the deduplicated
    edge list, so parallel input edges never inflate them.
    """

    __slots__ = ("num_nodes", "edges", "features", "degrees")

    def __init__(self, num_nodes: int, edges, features):
        if num_nodes < 1:
            raise ValueError("a graph needs at least one node")
        edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
        features = np.ascontiguousarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] != num_nodes:
            raise ValueError(
                f"features must be 2-D with {num_nodes} rows, got shape {features.shape}"
            )
        if edges.size:
            if edges.min() < 0 or edges.max() >= num_nodes:
                raise NodeIdOutOfRange(
                    f"edge endpoint outside [0, {num_nodes})"
                )
            if (edges[:, 0] == edges[:, 1]).any():
                raise ValueError("self loops are not representable")
        edges = _canonical_edges(edges)
        degrees = np.bincount(edges.ravel(), minlength=num_nodes).astype(np.int64)
        for arr in (edges, features, degrees):
            arr.setflags(write=False)
        self.num_nodes = int(num_nodes)
        self.edges = edges
        self.features = features
        self.degrees = degrees

    @property
    def num_edges(self) -> int:
        return self.edges.shape[0]

    @property
    def feature_dim(self) -> int:
        return self.features.shape[1]

    def __repr__(self):
        return (
            f"Graph(num_nodes={self.num_nodes}, num_edges={self.num_edges}, "
            f"feature_dim={self.feature_dim})"
        )


class GraphPair:
    """A source graph and a target graph with matching feature width.

    The two graphs share no edges; only the feature coordinate space and,
    downstream, the encoder weights are common to both.
    """

    __slots__ = ("source", "target")

    def __init__(self, source: Graph, target: Graph):
        if source.feature_dim != target.feature_dim:
            raise InconsistentFeatureWidth(
                f"source has {source.feature_dim} feature columns, "
                f"target has {target.feature_dim}"
            )
        self.source = source
        self.target = target

    def __repr__(self):
        return f"GraphPair(source={self.source!r}, target={self.target!r})"


class PropagationMatrix:
    """Symmetrically normalized adjacency with self loops, in CSR form.

    Entry (i, j) is 1/sqrt((deg(i)+1)(deg(j)+1)) wherever i == j or {i, j}
    is an edge, and zero elsewhere. Both orientations of an edge receive the
    identical computed value, so the stored matrix is exactly symmetric.
    """

    __slots__ = ("matrix",)

    def __init__(self, matrix: sp.csr_matrix):
        self.matrix = matrix

    @property
    def num_nodes(self) -> int:
        return self.matrix.shape[0]

    @property
    def nnz(self) -> int:
        return self.matrix.nnz


def build_propagation(g: Graph) -> PropagationMatrix:
    """Build the normalized propagation operator for one graph."""
    n = g.num_nodes
    d1 = g.degrees + 1.0
    u, v = g.edges[:, 0], g.edges[:, 1]
    # one rounding per entry: sqrt of the product, not a product of sqrts
    off = 1.0 / np.sqrt(d1[u] * d1[v])
    rows = np.concatenate([np.arange(n), u, v])
    cols = np.concatenate([np.arange(n), v, u])
    vals = np.concatenate([1.0 / d1, off, off])
    m = sp.coo_matrix((vals, (rows, cols)), shape=(n, n)).tocsr()
    return PropagationMatrix(m)


class NegativeSampler:
    """Draws node ids with probability proportional to degree**0.75.

    Holds its own generator so repeated calls advance one stream; two
    samplers built with the same degrees and seed replay identically.
    """

    def __init__(self, degrees, seed: int):
        degrees = np.asarray(degrees, dtype=np.float64)
        if (degrees < 0).any():
            raise ValueError("degrees must be non-negative")
        weights = degrees**0.75
        total = weights.sum()
        if total == 0.0:
            raise AllNodesIsolated("every node has degree zero")
        probabilities = weights / total
        probabilities.setflags(write=False)
        self.probabilities = probabilities
        # Only nodes of positive weight can be drawn. Over them, a draw u is
        # np.searchsorted(cumulative, u, side="right"), which a guide table
        # (Chen & Asau 1974) finds in O(1) expected steps: bucket
        # floor(u * m) starts at the number of cumulative values in lower
        # buckets. Rounding of the product is monotone, so that start never
        # passes the answer, even where u * m rounds up to a bucket edge.
        self._nodes = np.flatnonzero(weights)
        cumulative = np.cumsum(probabilities[self._nodes])
        cumulative[-1] = 1.0  # guard against rounding just below 1
        m = cumulative.size
        self._cumulative = cumulative
        self._guide = np.searchsorted(np.floor(cumulative * m), np.arange(m), side="left")
        self._rng = np.random.default_rng(seed)
        self.seed = seed

    def sample(self, count: int) -> np.ndarray:
        if count < 0:
            raise ValueError("count must be non-negative")
        return self._lookup(self._rng.random(count))

    def _lookup(self, u: np.ndarray) -> np.ndarray:
        """The node of each u in [0, 1); u * m < m there, so the bucket
        exists."""
        cumulative = self._cumulative
        idx = self._guide[(u * cumulative.size).astype(np.int64)]
        # advance while cumulative[idx] <= u; cumulative[-1] = 1 stops it
        behind = np.flatnonzero(cumulative[idx] <= u)
        while behind.size:
            idx[behind] += 1
            behind = behind[cumulative[idx[behind]] <= u[behind]]
        return self._nodes[idx]


def load_json(path, what: str):
    """The JSON document in a UTF-8 file, or a :class:`DaneError` naming the
    file (and the line, for invalid JSON); ``what`` says what it holds. An
    object that repeats a key is an error, not a silent last-one-wins."""

    def unique(pairs):
        doc = {}
        for key, value in pairs:
            if key in doc:
                raise DaneError(f"{path}: {what} repeats the key {key!r}")
            doc[key] = value
        return doc

    try:
        with open(path, encoding="utf-8") as fh:
            return json.load(fh, object_pairs_hook=unique)
    except json.JSONDecodeError as exc:
        raise DaneError(f"{path}:{exc.lineno}: {what} is not valid JSON: {exc.msg}") from None
    except UnicodeDecodeError:
        raise DaneError(f"{path}: {what} is not UTF-8 text") from None


def _data_lines(path):
    """Yield (line_number, stripped_text) skipping blanks and # comments;
    a line that is not UTF-8 raises :class:`MalformedLine`."""
    # an undecodable byte arrives as a lone surrogate, which encoding rejects
    with open(path, encoding="utf-8", errors="surrogateescape") as fh:
        for lineno, raw in enumerate(fh, start=1):
            try:
                raw.encode("utf-8")
            except UnicodeEncodeError:
                raise MalformedLine(f"{path}:{lineno}: not UTF-8 text") from None
            text = raw.strip()
            if not text or text.startswith("#"):
                continue
            yield lineno, text


def _load_features(path) -> np.ndarray:
    rows: dict[int, list[float]] = {}
    width = None
    for position, (lineno, text) in enumerate(_data_lines(path)):
        fields = text.split(",")
        try:
            node = int(fields[0])
        except ValueError:
            if position == 0:
                continue  # header row: the first line after blanks and comments
            raise MalformedLine(f"{path}:{lineno}: node id {fields[0]!r} is not an integer")
        if node < 0:
            raise MalformedLine(f"{path}:{lineno}: negative node id {node}")
        if node in rows:
            raise MalformedLine(f"{path}:{lineno}: duplicate feature row for node {node}")
        try:
            values = [float(f) for f in fields[1:]]
        except ValueError:
            raise MalformedLine(f"{path}:{lineno}: non-numeric feature value")
        if not all(math.isfinite(x) for x in values):
            raise MalformedLine(f"{path}:{lineno}: non-finite feature value")
        if not values:
            raise MalformedLine(f"{path}:{lineno}: node {node} has no feature values")
        if width is None:
            width = len(values)
        elif len(values) != width:
            raise InconsistentFeatureWidth(
                f"{path}:{lineno}: expected {width} feature columns, got {len(values)}"
            )
        rows[node] = values
    if not rows:
        raise MalformedLine(f"{path}: no feature rows")
    num_nodes = max(rows) + 1
    for node in range(num_nodes):
        if node not in rows:
            raise FeatureRowMissing(f"{path}: node {node} has no feature row")
    return np.array([rows[i] for i in range(num_nodes)], dtype=np.float64)


def _load_edges(path, num_nodes: int) -> np.ndarray:
    pairs = []
    self_loops = 0
    for lineno, text in _data_lines(path):
        fields = text.split("\t")
        if len(fields) != 2:
            raise MalformedLine(f"{path}:{lineno}: expected 'u<TAB>v', got {text!r}")
        try:
            u, v = int(fields[0]), int(fields[1])
        except ValueError:
            raise MalformedLine(f"{path}:{lineno}: non-integer node id in {text!r}")
        if not (0 <= u < num_nodes and 0 <= v < num_nodes):
            raise NodeIdOutOfRange(
                f"{path}:{lineno}: edge ({u}, {v}) references a node outside "
                f"[0, {num_nodes})"
            )
        if u == v:
            self_loops += 1
            continue
        pairs.append((u, v))
    if self_loops:
        logger.warning("%s: dropped %d self loop(s)", path, self_loops)
    return np.array(pairs, dtype=np.int64).reshape(-1, 2)


def load_graph(edge_path, feature_path) -> Graph:
    """Read one graph from an edge list file and a feature file.

    The feature file fixes the node count: ids must cover 0..N-1 exactly.
    Self loops in the edge file are dropped, duplicate and reversed
    duplicate edges merge into one undirected edge; both cases log a
    warning rather than failing.
    """
    features = _load_features(feature_path)
    edges = _load_edges(edge_path, features.shape[0])
    graph = Graph(features.shape[0], edges, features)
    dropped = edges.shape[0] - graph.num_edges
    if dropped:
        logger.warning("%s: removed %d duplicate edge(s)", edge_path, dropped)
    return graph


def load_labels(path, num_nodes: int | None = None) -> dict[int, tuple[str, ...]]:
    """Read node labels: one `id<TAB>label` line per node, comma-joined for
    multi-label data. Returns a sparse mapping; unlabeled nodes are absent.
    With ``num_nodes`` given, ids outside [0, num_nodes) are rejected."""
    out: dict[int, tuple[str, ...]] = {}
    for lineno, text in _data_lines(path):
        fields = text.split("\t")
        if len(fields) != 2:
            raise MalformedLine(f"{path}:{lineno}: expected 'id<TAB>labels', got {text!r}")
        try:
            node = int(fields[0])
        except ValueError:
            raise MalformedLine(f"{path}:{lineno}: node id {fields[0]!r} is not an integer")
        if node < 0:
            raise MalformedLine(f"{path}:{lineno}: negative node id {node}")
        if num_nodes is not None and node >= num_nodes:
            raise NodeIdOutOfRange(
                f"{path}:{lineno}: label for node {node} outside [0, {num_nodes})"
            )
        if node in out:
            raise MalformedLine(f"{path}:{lineno}: duplicate label line for node {node}")
        labels = tuple(part.strip() for part in fields[1].split(","))
        if any(not lab for lab in labels):
            raise MalformedLine(f"{path}:{lineno}: empty label for node {node}")
        out[node] = labels
    return out


def write_edge_file(path, g: Graph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for u, v in g.edges:
            fh.write(f"{u}\t{v}\n")


def write_feature_file(path, g: Graph) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for i in range(g.num_nodes):
            values = ",".join(repr(float(x)) for x in g.features[i])
            fh.write(f"{i},{values}\n")


def write_label_file(path, labels: dict[int, tuple[str, ...]]) -> None:
    with open(path, "w", encoding="utf-8") as fh:
        for node in sorted(labels):
            fh.write(f"{node}\t{','.join(labels[node])}\n")
