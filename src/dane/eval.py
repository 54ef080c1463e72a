"""Transfer evaluation: classifier, F1 scores, distribution distance.

The protocol is fixed: fit a regularized logistic classifier on the source
graph's labeled embeddings, apply it unchanged to the target graph, and
report micro and macro F1 plus the gap between source and target log loss.
The classifier remembers a fingerprint of what it was fit on and refuses
to be "evaluated" on those same embeddings, so the source/target split
cannot be quietly lost somewhere in a pipeline.
"""

from __future__ import annotations

import hashlib
import json
import warnings
from dataclasses import asdict, dataclass

import numpy as np

from . import compute
from .compute import GradTape, Tensor2, backward
from .errors import (
    EmptyInput,
    LabelVocabularyMismatch,
    NodeIdOutOfRange,
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


def _check_rows(node_ids: np.ndarray, embeddings: np.ndarray) -> None:
    """Every labeled node must address a row of the embeddings. ``node_ids``
    is the non-empty, sorted output of :meth:`LabelSet.node_ids`, so its
    two ends bound the rest."""
    rows = embeddings.shape[0]
    for node in (int(node_ids[0]), int(node_ids[-1])):
        if not 0 <= node < rows:
            raise NodeIdOutOfRange(
                f"label names node {node}, but the embeddings have {rows} rows"
            )


def _fingerprint(embeddings: np.ndarray, node_ids: np.ndarray) -> str:
    h = hashlib.sha256()
    h.update(embeddings[node_ids].tobytes())
    h.update(node_ids.tobytes())
    return h.hexdigest()


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
    node_ids = labels.node_ids()
    if node_ids.size == 0:
        raise EmptyInput("no labeled nodes")
    _check_rows(node_ids, embeddings)
    z = Tensor2(clf.logits(embeddings[node_ids]))
    y = labels.target_matrix(node_ids)
    if clf.multi_label:
        return compute.sigmoid_cross_entropy(z, y).item()
    return compute.softmax_cross_entropy(z, y).item()


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
    matrix, never the bias. Needs ``l2 >= 0``, ``epochs >= 0``, ``lr > 0``."""
    embeddings = embeddings.data if isinstance(embeddings, Tensor2) else np.asarray(embeddings, dtype=np.float64)
    node_ids = labels.node_ids()
    if node_ids.size == 0:
        raise EmptyInput("no labeled nodes to fit on")
    _check_rows(node_ids, embeddings)
    if labels.num_classes < 2:
        raise SingleClassDegenerate("need at least two classes")
    if not labels.multi_label:
        seen = {idx[0] for idx in labels.assignments.values()}
        if len(seen) < 2:
            raise SingleClassDegenerate("training labels collapse to one class")
    if l2 < 0:
        raise ValueError("l2 must be non-negative")
    if epochs < 0:
        raise ValueError("epochs must be non-negative")
    if lr <= 0:
        raise ValueError("lr must be positive")
    x = embeddings[node_ids]
    y = labels.target_matrix(node_ids)
    d, c = x.shape[1], labels.num_classes
    weights, bias = np.zeros((d, c)), np.zeros((1, c))
    data_loss = (
        compute.sigmoid_cross_entropy if labels.multi_label else compute.softmax_cross_entropy
    )
    rng = np.random.default_rng(seed)
    for _ in range(epochs):
        rows = rng.permutation(x.shape[0])  # each epoch sums the rows in a fresh order
        tape = GradTape()
        w_node, b_node = tape.parameter(weights), tape.parameter(bias)
        z = compute.add_bias(compute.matmul(Tensor2(x[rows]), w_node), b_node)
        loss = compute.add(
            data_loss(z, y[rows]),
            compute.scale(compute.sum_all(compute.square(w_node)), l2),
        )
        grads = backward(tape, loss)
        weights = weights - lr * grads[w_node]
        bias = bias - lr * grads[b_node]

    clf = Classifier(
        weights=weights,
        bias=bias,
        classes=labels.classes,
        multi_label=labels.multi_label,
        l2=l2,
        source_loss=0.0,
        train_fingerprint=_fingerprint(embeddings, node_ids),
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
    node_ids = labels_tgt.node_ids()
    if node_ids.size == 0:
        raise EmptyInput("target graph has no labeled nodes")
    _check_rows(node_ids, embeddings_tgt)
    if _fingerprint(embeddings_tgt, node_ids) == clf.train_fingerprint:
        raise TransferProtocolError(
            "these are the embeddings the classifier was fit on; "
            "evaluate on the other graph"
        )
    true = labels_tgt.target_matrix(node_ids).astype(bool)
    predicted = _prediction_indicator(clf, embeddings_tgt[node_ids])
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


def distribution_distance(v_a: np.ndarray, v_b: np.ndarray) -> float:
    """Squared maximum mean discrepancy between two embedding clouds under
    an RBF kernel, bandwidth set by the median heuristic over the pooled
    pairwise distances. Biased V-statistic, so identical clouds give 0.0
    exactly and the value never goes negative."""
    v_a = np.asarray(v_a, dtype=np.float64)
    v_b = np.asarray(v_b, dtype=np.float64)
    if v_a.ndim != 2 or v_b.ndim != 2 or v_a.shape[1] != v_b.shape[1]:
        raise ShapeMismatch(f"distribution_distance: {v_a.shape} vs {v_b.shape}")
    if v_a.shape[0] == 0 or v_b.shape[0] == 0:
        raise EmptyInput("both clouds need at least one row")
    # order the two clouds canonically so the result is exactly symmetric
    key_a = (v_a.shape, v_a.tobytes())
    key_b = (v_b.shape, v_b.tobytes())
    if key_b < key_a:
        v_a, v_b = v_b, v_a
    pooled = np.vstack([v_a, v_b])
    sq = (pooled * pooled).sum(axis=1)
    # sq_i + sq_j - 2 g_ij with one (2n)^2 temporary instead of three; the
    # in-place steps do the same arithmetic in the same order
    gram = pooled @ pooled.T
    gram *= 2.0
    d2 = sq[:, None] + sq[None, :]
    d2 -= gram
    del gram
    np.maximum(d2, 0.0, out=d2)
    # upper triangle through a boolean mask: no (2n)^2/2 index arrays
    off_diag = d2[~np.tri(d2.shape[0], dtype=bool)]
    positive = off_diag[off_diag > 0]
    denom = float(np.median(positive, overwrite_input=True)) if positive.size else 1.0
    del off_diag, positive
    # d2 / -denom is -d2 / denom exactly; the kernel overwrites d2
    k = np.exp(np.divide(d2, -denom, out=d2), out=d2)
    na, nb = v_a.shape[0], v_b.shape[0]
    k_aa = k[:na, :na].mean()
    k_bb = k[na:, na:].mean()
    k_ab = k[:na, na:].mean()
    return max(float(k_aa + k_bb - 2.0 * k_ab), 0.0)


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
