"""Transfer evaluation: classifier, F1 scores, distribution distance.

The protocol is fixed: fit a regularized logistic classifier on the source
graph's labeled embeddings, apply it unchanged to the target graph, and
report micro and macro F1 plus the gap between source and target log loss.
The classifier remembers a fingerprint of what it was fit on and refuses
to be "evaluated" on those same embeddings, so the source/target split
cannot be quietly lost somewhere in a pipeline.
"""

from __future__ import annotations

import functools
import hashlib
import json
import warnings
from dataclasses import asdict, dataclass

import numpy as np
from scipy.special import expit

from .compute import _softplus
from .errors import (
    EmptyInput,
    LabelVocabularyMismatch,
    NodeIdOutOfRange,
    NonFiniteValue,
    ShapeMismatch,
    SingleClassDegenerate,
    TransferProtocolError,
)


class LabelSet:
    """Node labels over one shared class vocabulary.

    ``assignments`` maps node id to a tuple of class indices (a 1-tuple in
    the single-label case). Both graphs of a transfer pair must be built
    over the same ``classes`` tuple, in the same order.
    """

    __slots__ = ("classes", "assignments", "multi_label")

    def __init__(
        self,
        classes: tuple[str, ...],
        assignments: dict[int, tuple[int, ...]],
        multi_label: bool,
    ):
        classes = tuple(classes)
        if len(set(classes)) != len(classes):
            raise ValueError("duplicate class names")
        for node, idx in assignments.items():
            if not idx:
                raise ValueError(f"node {node} has an empty label set")
            if any(i < 0 or i >= len(classes) for i in idx):
                raise ValueError(f"node {node} references an unknown class index")
            if not multi_label and len(idx) != 1:
                raise ValueError(f"node {node} has {len(idx)} labels in single-label data")
        self.classes = classes
        self.assignments = {int(k): tuple(sorted(v)) for k, v in assignments.items()}
        self.multi_label = multi_label

    @classmethod
    def from_mapping(
        cls,
        mapping: dict[int, tuple[str, ...]],
        classes: tuple[str, ...] | None = None,
        multi_label: bool | None = None,
    ) -> "LabelSet":
        """Build from node -> label names, e.g. the loader's output. The
        vocabulary defaults to the sorted union of names seen; pass
        ``classes`` explicitly when two graphs must agree on it."""
        if classes is None:
            classes = tuple(sorted({name for names in mapping.values() for name in names}))
        index = {name: i for i, name in enumerate(classes)}
        if multi_label is None:
            multi_label = any(len(names) > 1 for names in mapping.values())
        try:
            assignments = {
                node: tuple(sorted(index[name] for name in set(names)))
                for node, names in mapping.items()
            }
        except KeyError as exc:
            raise LabelVocabularyMismatch(f"label {exc.args[0]!r} not in vocabulary")
        return cls(classes, assignments, multi_label)

    @property
    def num_classes(self) -> int:
        return len(self.classes)

    def node_ids(self) -> np.ndarray:
        return np.array(sorted(self.assignments), dtype=np.int64)

    def target_matrix(self, node_ids: np.ndarray) -> np.ndarray:
        """(n, C) multi-hot rows for the given nodes."""
        y = np.zeros((len(node_ids), self.num_classes))
        for row, node in enumerate(node_ids):
            y[row, list(self.assignments[int(node)])] = 1.0
        return y

    def names_for(self, node: int) -> tuple[str, ...]:
        return tuple(self.classes[i] for i in self.assignments[node])


def align_label_sets(
    mapping_a: dict[int, tuple[str, ...]], mapping_b: dict[int, tuple[str, ...]]
) -> tuple[LabelSet, LabelSet]:
    """Two label sets over one vocabulary: the one :meth:`LabelSet.from_mapping`
    picks for both files' labels together, multi-label if either file is."""
    # the vocabulary and the multi-label flag depend only on the distinct
    # label tuples; an empty one is left to the per-file sets, whose error
    # names its node
    distinct = {tuple(names) for m in (mapping_a, mapping_b) for names in m.values() if names}
    pooled = LabelSet.from_mapping(dict(enumerate(distinct)))
    return tuple(
        LabelSet.from_mapping(m, classes=pooled.classes, multi_label=pooled.multi_label)
        for m in (mapping_a, mapping_b)
    )


def _finite(values, what: str):
    """``values`` unchanged when every entry is finite."""
    if not np.isfinite(values).all():
        raise NonFiniteValue(f"NaN or Inf in {what}")
    return values


def _labeled_rows(embeddings: np.ndarray, labels: LabelSet) -> tuple[np.ndarray, np.ndarray]:
    """The sorted ids of the labeled nodes and their embedding rows, which
    must exist and be finite."""
    node_ids = labels.node_ids()
    if node_ids.size == 0:
        raise EmptyInput("no labeled nodes")
    rows = embeddings.shape[0]
    # the ids are sorted, so their two ends bound the rest
    for node in (int(node_ids[0]), int(node_ids[-1])):
        if not 0 <= node < rows:
            raise NodeIdOutOfRange(
                f"label names node {node}, but the embeddings have {rows} rows"
            )
    return node_ids, _finite(embeddings[node_ids], "labeled embedding rows")


def _fingerprint(x: np.ndarray, node_ids: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(x.tobytes())
    h.update(node_ids.tobytes())
    return h.hexdigest()


def _cross_entropy(z: np.ndarray, y: np.ndarray, multi_label: bool):
    """Mean log loss of logits ``z`` against 0/1 targets ``y``, and its
    gradient in ``z``: softmax cross entropy averaged over rows or, for
    multi-label data, each sigmoid head's binary cross entropy averaged
    over all entries. Both work off the logits, so neither overflows."""
    if multi_label:
        # softplus(z) - z*y  ==  -y*log(s) - (1-y)*log(1-s)
        return (_softplus(z) - z * y).sum() / z.size, (expit(z) - y) / z.size
    zmax = z.max(axis=1, keepdims=True)
    lse = zmax + np.log(np.exp(z - zmax).sum(axis=1, keepdims=True))
    n = z.shape[0]
    return (lse - (z * y).sum(axis=1, keepdims=True)).sum() / n, (np.exp(z - lse) - y) / n


@dataclass
class Classifier:
    """Linear probe with the training-set fingerprint baked in."""

    weights: np.ndarray  # (d, C)
    bias: np.ndarray  # (1, C)
    classes: tuple[str, ...]
    multi_label: bool
    l2: float
    source_loss: float  # mean log loss on the labeled training nodes
    train_fingerprint: str

    def logits(self, embeddings: np.ndarray) -> np.ndarray:
        return embeddings @ self.weights + self.bias

    def predict(self, embeddings: np.ndarray) -> np.ndarray:
        """Single-label: (n,) class indices. Multi-label: (n, C) booleans,
        thresholding each sigmoid score at 0.5."""
        z = self.logits(embeddings)
        if self.multi_label:
            return z >= 0.0  # sigmoid(z) >= 0.5
        return z.argmax(axis=1)


def log_loss(clf: Classifier, embeddings: np.ndarray, labels: LabelSet) -> float:
    """Mean cross entropy of the classifier on the given labeled nodes."""
    node_ids, x = _labeled_rows(embeddings, labels)
    z = _finite(clf.logits(x), "classifier logits")
    loss, _ = _cross_entropy(z, labels.target_matrix(node_ids), clf.multi_label)
    return float(_finite(loss, "classifier log loss"))


def check_classifier_option(name: str, value) -> None:
    """Raise ``ValueError`` when the probe option ``name`` is out of range:
    ``l2`` and ``epochs`` must be non-negative and ``lr`` positive."""
    if name == "lr":
        if not value > 0:
            raise ValueError("lr must be positive")
    elif not value >= 0:
        raise ValueError(f"{name} must be non-negative")


def train_classifier(
    embeddings: np.ndarray,
    labels: LabelSet,
    l2: float = 1e-3,
    seed: int = 0,
    epochs: int = 200,
    lr: float = 0.1,
) -> Classifier:
    """Fit the probe on labeled rows of one graph's embeddings by
    full-batch gradient descent from zero weights, ``epochs`` steps at
    rate ``lr``: softmax regression for single-label data, an independent
    sigmoid head per class otherwise. The l2 penalty applies to the weight
    matrix, never the bias. Options are checked by
    :func:`check_classifier_option`. A non-finite labeled row, or a probe
    whose logits overflow, raises :class:`NonFiniteValue`."""
    embeddings = np.asarray(embeddings, dtype=np.float64)
    node_ids, x = _labeled_rows(embeddings, labels)
    if labels.num_classes < 2:
        raise SingleClassDegenerate("need at least two classes")
    if not labels.multi_label:
        seen = {idx[0] for idx in labels.assignments.values()}
        if len(seen) < 2:
            raise SingleClassDegenerate("training labels collapse to one class")
    for name, value in (("l2", l2), ("epochs", epochs), ("lr", lr)):
        check_classifier_option(name, value)
    y = labels.target_matrix(node_ids)
    d, c = x.shape[1], labels.num_classes
    weights, bias = np.zeros((d, c)), np.zeros((1, c))
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        rows = rng.permutation(x.shape[0])  # each epoch sums the rows in a fresh order
        x_rows = x[rows]
        z = _finite(x_rows @ weights + bias, "classifier logits")
        _, dz = _cross_entropy(z, y[rows], labels.multi_label)
        # the gradient of mean log loss + l2 * sum(W^2), summed before lr
        # scales it; another grouping rounds differently, and tests pin the bits
        weights = weights - lr * (2.0 * weights * l2 + x_rows.T @ dz)
        bias = bias - lr * dz.sum(axis=0, keepdims=True)

    clf = Classifier(
        weights=weights,
        bias=bias,
        classes=labels.classes,
        multi_label=labels.multi_label,
        l2=l2,
        source_loss=0.0,
        train_fingerprint=_fingerprint(x, node_ids),
    )
    clf.source_loss = log_loss(clf, embeddings, labels)
    return clf


def f1_scores(
    true: np.ndarray, predicted: np.ndarray, num_classes: int
) -> tuple[float, float, np.ndarray]:
    """Micro F1, macro F1, per-class F1 from (n, C) indicator matrices.

    A class absent from both truth and prediction scores 0 and still
    drags the macro average, which is the convention that keeps macro
    honest on rare classes.
    """
    true = np.asarray(true, dtype=bool)
    predicted = np.asarray(predicted, dtype=bool)
    if true.shape != predicted.shape or true.shape[1] != num_classes:
        raise ShapeMismatch(f"f1: {true.shape} vs {predicted.shape}")
    if true.shape[0] == 0:
        raise EmptyInput("no rows to score")
    tp = (true & predicted).sum(axis=0).astype(float)
    fp = (~true & predicted).sum(axis=0).astype(float)
    fn = (true & ~predicted).sum(axis=0).astype(float)
    denom = 2 * tp + fp + fn
    per_class = np.divide(
        2 * tp, denom, out=np.zeros(num_classes), where=denom > 0
    )
    micro_denom = 2 * tp.sum() + fp.sum() + fn.sum()
    micro = 0.0 if micro_denom == 0 else 2 * tp.sum() / micro_denom
    return float(micro), float(per_class.mean()), per_class


def _prediction_indicator(clf: Classifier, embeddings: np.ndarray) -> np.ndarray:
    pred = clf.predict(embeddings)
    if clf.multi_label:
        return pred
    out = np.zeros((len(pred), len(clf.classes)), dtype=bool)
    out[np.arange(len(pred)), pred] = True
    return out


@dataclass(frozen=True)
class TransferReport:
    """What transferring one classifier across the pair actually did."""

    direction: str
    micro_f1: float
    macro_f1: float
    per_class_f1: dict[str, float]
    l_src: float
    l_tgt: float
    gap: float  # always l_tgt - l_src

    def to_json(self) -> str:
        return json.dumps(asdict(self), sort_keys=True, indent=2)

    @classmethod
    def from_json(cls, text: str) -> "TransferReport":
        return cls(**json.loads(text))


def evaluate_transfer(
    clf: Classifier,
    embeddings_tgt: np.ndarray,
    labels_tgt: LabelSet,
    direction: str = "src->tgt",
) -> TransferReport:
    """Score a source-fit classifier on the target graph's labeled nodes."""
    if labels_tgt.classes != clf.classes:
        raise LabelVocabularyMismatch(
            f"classifier knows {clf.classes}, target labels use {labels_tgt.classes}"
        )
    embeddings_tgt = np.asarray(embeddings_tgt, dtype=np.float64)
    node_ids, x = _labeled_rows(embeddings_tgt, labels_tgt)
    if _fingerprint(x, node_ids) == clf.train_fingerprint:
        raise TransferProtocolError(
            "these are the embeddings the classifier was fit on; "
            "evaluate on the other graph"
        )
    true = labels_tgt.target_matrix(node_ids).astype(bool)
    predicted = _prediction_indicator(clf, x)
    micro, macro, per_class = f1_scores(true, predicted, labels_tgt.num_classes)
    l_tgt = log_loss(clf, embeddings_tgt, labels_tgt)
    return TransferReport(
        direction=direction,
        micro_f1=micro,
        macro_f1=macro,
        per_class_f1={name: float(v) for name, v in zip(clf.classes, per_class)},
        l_src=clf.source_loss,
        l_tgt=l_tgt,
        gap=l_tgt - clf.source_loss,
    )


# Cells of the pooled squared-distance matrix that distribution_distance
# forms at a time: 2^20 float64, 8 MiB, like synth._DRAW_ROWS bounds the edge
# draw. A call whose strict upper triangle has at most _KEPT_CELLS cells
# (64 MiB) keeps its blocks between passes instead of forming them again.
_BLOCK_CELLS = 1 << 20
_KEPT_CELLS = 1 << 23
_LAST_BITS = (1 << 63) - 1  # the largest int64: every positive double lies under it


def _upper_sq_distances(pooled: np.ndarray, na: int):
    """Squared distances sq_i + sq_j - 2 x_i.x_j, clipped at 0, over the
    strict upper triangle j > i of the pooled rows, as (region, cells)
    pieces: region 0 holds pairs within the first ``na`` rows, 1 pairs
    across the two clouds, 2 pairs within the rest. Rows are taken in blocks
    of at most _BLOCK_CELLS cells that never straddle the two clouds."""
    n = pooled.shape[0]
    sq = (pooled * pooled).sum(axis=1)
    for start, stop, own in ((0, na, 0), (na, n, 2)):
        r0 = start
        while r0 < stop:
            r1 = min(stop, r0 + max(1, _BLOCK_CELLS // (n - r0)))
            rows = r1 - r0
            gram = pooled[r0:r1] @ pooled[r0:].T
            gram *= 2.0
            d2 = sq[r0:r1, None] + sq[None, r0:]
            d2 -= gram
            del gram
            np.maximum(d2, 0.0, out=d2)
            yield own, d2[:, :rows][~np.tri(rows, dtype=bool)]
            yield own, d2[:, rows : stop - r0]
            if own == 0:
                yield 1, d2[:, stop - r0 :]
            r0 = r1


def _positive_bits(blocks, first: int, last: int):
    """Per piece of ``blocks()``, the int64 bit patterns of its positive
    cells that lie in [first, last]."""
    for _, cells in blocks():
        bits = cells[cells > 0].view(np.int64)
        yield bits if first == 0 and last == _LAST_BITS else bits[(bits >= first) & (bits <= last)]


def _median_of_positive(blocks) -> float:
    """``np.median`` of the positive cells of the pieces ``blocks()`` yields,
    or 1.0 when none is, without holding the cells.

    Positive doubles sort as their int64 bit patterns. A pass counts the
    patterns in 2^16 bins of their leading bits, which places the middle
    rank or ranks. Two middle ranks in different bins are the largest
    pattern of the first bin and the smallest of the second. A bin of at
    most _BLOCK_CELLS patterns is gathered and sorted; a larger one is
    counted again by its next 16 bits, until its bins hold one pattern."""
    first, last, below = 0, _LAST_BITS, 0  # `below` patterns lie under first
    shift, ranks = 47, None
    while True:
        bins = ((last - first) >> shift) + 1
        counts = np.zeros(bins, dtype=np.int64)
        for bits in _positive_bits(blocks, first, last):
            counts += np.bincount((bits - first) >> shift, minlength=bins)
        if ranks is None:
            total = int(counts.sum())
            if total == 0:
                return 1.0
            ranks = ((total - 1) // 2, total // 2)
        ends = below + np.cumsum(counts)
        lo, hi = (int(b) for b in np.searchsorted(ends, ranks, side="right"))
        below = int(ends[lo] - counts[lo])
        start, width = first + (lo << shift), 1 << shift
        if lo != hi:
            split = first + (hi << shift)
            low, high = -1, last
            for bits in _positive_bits(blocks, start, split + width - 1):
                in_lo = bits < split
                low = max(low, int(bits[in_lo].max(initial=-1)))
                high = min(high, int(bits[~in_lo].min(initial=last)))
            pair = [low, high]
        elif shift == 0:
            pair = [start, start]
        elif counts[lo] <= _BLOCK_CELLS:
            bits = np.sort(np.concatenate(list(_positive_bits(blocks, start, start + width - 1))))
            pair = [int(bits[r - below]) for r in ranks]
        else:
            first, last, shift = start, start + width - 1, max(shift - 16, 0)
            continue
        a, b = np.array(pair, dtype=np.int64).view(np.float64)
        return float(a) if ranks[0] == ranks[1] else float((a + b) / 2)


def distribution_distance(v_a: np.ndarray, v_b: np.ndarray) -> float:
    """Squared maximum mean discrepancy between two embedding clouds under
    an RBF kernel exp(-d²/m), m the median of the positive squared distances
    between distinct pooled rows. Biased V-statistic, so it never goes
    negative, and bitwise-equal clouds give 0.0 exactly.

    The pooled distances are formed in blocks of rows (see
    :func:`_upper_sq_distances`), so memory does not grow with the square
    of the row count: one pass finds the median's bins, a second the median,
    and a last one sums the kernel over the pairs within each cloud and
    across."""
    v_a = np.asarray(v_a, dtype=np.float64)
    v_b = np.asarray(v_b, dtype=np.float64)
    if v_a.ndim != 2 or v_b.ndim != 2 or v_a.shape[1] != v_b.shape[1]:
        raise ShapeMismatch(f"distribution_distance: {v_a.shape} vs {v_b.shape}")
    if v_a.shape[0] == 0 or v_b.shape[0] == 0:
        raise EmptyInput("both clouds need at least one row")
    # order the two clouds canonically so the result is exactly symmetric
    key_a = (v_a.shape, v_a.tobytes())
    key_b = (v_b.shape, v_b.tobytes())
    if key_a == key_b:
        return 0.0
    if key_b < key_a:
        v_a, v_b = v_b, v_a
    na, nb = v_a.shape[0], v_b.shape[0]
    pooled = np.vstack([v_a, v_b])
    n = na + nb
    if n * (n - 1) // 2 <= _KEPT_CELLS:
        blocks = list(_upper_sq_distances(pooled, na)).__iter__
    else:
        blocks = functools.partial(_upper_sq_distances, pooled, na)
    denom = _median_of_positive(blocks)
    # kernel sums over the pairs i < j of each region; the last pass, so it
    # may overwrite kept blocks. d2 / -denom is -d2 / denom exactly
    sums = [0.0, 0.0, 0.0]
    for region, cells in blocks():
        sums[region] += float(np.exp(np.divide(cells, -denom, out=cells), out=cells).sum())
    # the kernel is symmetric with a unit diagonal, so each cloud's sum is
    # its row count plus twice its pairs i < j
    s_aa, s_ab, s_bb = na + 2.0 * sums[0], sums[1], nb + 2.0 * sums[2]
    return max(s_aa / na**2 + s_bb / nb**2 - 2.0 * s_ab / (na * nb), 0.0)


def project_2d(pooled: np.ndarray) -> np.ndarray:
    """Top two principal components of a pooled embedding matrix, for
    plotting both clouds in one frame. Centered, eigen-decomposed, signs
    fixed so the largest-magnitude coordinate of each axis is positive;
    a rank-deficient cloud pads with zeros and warns instead of failing."""
    pooled = np.asarray(pooled, dtype=np.float64)
    if pooled.ndim != 2:
        raise ShapeMismatch(f"project_2d: expected 2-D, got {pooled.shape}")
    n, d = pooled.shape
    if n == 0:
        raise EmptyInput("nothing to project")
    if d < 2:
        raise ShapeMismatch("embeddings need at least two columns to project")
    centered = pooled - pooled.mean(axis=0, keepdims=True)
    cov = (centered.T @ centered) / max(n - 1, 1)
    eigenvalues, eigenvectors = np.linalg.eigh(cov)
    order = np.argsort(eigenvalues)[::-1]
    eigenvalues, eigenvectors = eigenvalues[order], eigenvectors[:, order]
    tol = max(n, d) * np.finfo(np.float64).eps * max(float(eigenvalues[0]), 0.0)
    rank = int((eigenvalues > tol).sum())
    axes = eigenvectors[:, :2].copy()
    for j in range(2):
        pivot = np.argmax(np.abs(axes[:, j]))
        if axes[pivot, j] < 0:
            axes[:, j] = -axes[:, j]
    out = centered @ axes
    if rank < 2:
        warnings.warn(
            f"embedding cloud has rank {rank}; second projection axis is zero",
            stacklevel=2,
        )
        out[:, rank:] = 0.0
    return out
