"""Dense float64 tensors with reverse-mode gradients on an explicit tape.

Every value is a 2-D array; scalars are 1x1. Operations validate shapes,
reject NaN/Inf at the boundary, and append a record to the tape of their
inputs when a gradient will be needed. ``backward`` replays the records in
reverse, summing contributions when a node feeds several consumers, so
weights shared across branches (or across two graphs) accumulate one
combined gradient.
"""

from __future__ import annotations

from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy import sparse
from scipy.special import expit

from .errors import (
    DisconnectedLoss,
    IndexOutOfRange,
    NonFiniteValue,
    ShapeMismatch,
)

if TYPE_CHECKING:
    from .graph import PropagationMatrix


class Tensor2:
    """A 2-D float64 value, optionally attached to a :class:`GradTape`."""

    __slots__ = ("data", "tape", "requires_grad")

    def __init__(self, data, tape: "GradTape | None" = None, requires_grad: bool = False):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeMismatch(f"expected a 2-D array, got shape {arr.shape}")
        if arr.size and not np.isfinite(arr).all():
            raise NonFiniteValue("tensor contains NaN or Inf")
        if requires_grad and tape is None:
            raise ValueError("a tensor cannot require gradients without a tape")
        self.data = arr
        self.tape = tape
        self.requires_grad = requires_grad

    @property
    def rows(self) -> int:
        return self.data.shape[0]

    @property
    def cols(self) -> int:
        return self.data.shape[1]

    @property
    def shape(self) -> tuple[int, int]:
        return self.data.shape

    def item(self) -> float:
        if self.data.shape != (1, 1):
            raise ShapeMismatch(f"item() needs a 1x1 tensor, got {self.data.shape}")
        return float(self.data[0, 0])

    def __repr__(self):
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor2(shape={self.data.shape}{grad})"


class _Record:
    __slots__ = ("out", "pulls")

    def __init__(self, out, pulls):
        self.out = out
        self.pulls = pulls  # [(input tensor, fn(upstream) -> contribution)]


class GradTape:
    """Ordered log of executed operations, replayed in reverse by ``backward``."""

    def __init__(self):
        self._records: list[_Record] = []
        self._parameters: list[Tensor2] = []
        self._produced: set[int] = set()

    def parameter(self, data) -> Tensor2:
        """Register a leaf tensor whose gradient ``backward`` will report."""
        node = Tensor2(data, tape=self, requires_grad=True)
        self._parameters.append(node)
        return node

    def _record(self, out: Tensor2, pulls) -> None:
        self._records.append(_Record(out, pulls))
        self._produced.add(id(out))


def _as_tensor(x) -> Tensor2:
    return x if isinstance(x, Tensor2) else Tensor2(x)


def _make(data, inputs: list[tuple[Tensor2, Callable]]) -> Tensor2:
    """Build the op result, recording it when any input tracks gradients."""
    tape = None
    for node, _ in inputs:
        if node.requires_grad:
            if tape is None:
                tape = node.tape
            elif tape is not node.tape:
                raise ValueError("operands belong to different tapes")
    out = Tensor2(data, tape=tape, requires_grad=tape is not None)
    if tape is not None:
        tape._record(out, [(n, fn) for n, fn in inputs if n.requires_grad])
    return out


def backward(tape: GradTape, loss: Tensor2) -> dict[Tensor2, np.ndarray]:
    """Gradient of a 1x1 loss with respect to every registered parameter.

    Parameters the loss never touched map to zero arrays rather than being
    skipped, so update code can iterate uniformly.
    """
    if not isinstance(loss, Tensor2) or id(loss) not in tape._produced:
        raise DisconnectedLoss("loss was not produced by an operation on this tape")
    if loss.data.shape != (1, 1):
        raise ShapeMismatch(f"loss must be 1x1, got {loss.data.shape}")
    grads: dict[int, np.ndarray] = {id(loss): np.ones((1, 1))}
    for rec in reversed(tape._records):
        g = grads.pop(id(rec.out), None)
        if g is None:
            continue
        for node, pull in rec.pulls:
            contribution = pull(g)
            held = grads.get(id(node))
            # never add in place: `held` may alias an upstream gradient
            grads[id(node)] = contribution if held is None else held + contribution
    return {p: grads.get(id(p), np.zeros_like(p.data)) for p in tape._parameters}


# ---------------------------------------------------------------------------
# operations


def matmul(a, b) -> Tensor2:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.cols != b.rows:
        raise ShapeMismatch(f"matmul: ({a.rows}, {a.cols}) @ ({b.rows}, {b.cols})")
    ad, bd = a.data, b.data
    return _make(ad @ bd, [(a, lambda g: g @ bd.T), (b, lambda g: ad.T @ g)])


def spmm(p: "PropagationMatrix", h) -> Tensor2:
    """Sparse propagation times dense features. The sparse operand is a
    constant; only the dense side receives a gradient."""
    h = _as_tensor(h)
    m = p.matrix
    if m.shape[1] != h.rows:
        raise ShapeMismatch(f"spmm: {m.shape} @ ({h.rows}, {h.cols})")
    return _make(m @ h.data, [(h, lambda g: m.T @ g)])


def add(a, b) -> Tensor2:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"add: {a.shape} vs {b.shape}")
    return _make(a.data + b.data, [(a, lambda g: g), (b, lambda g: g)])


def add_bias(a, b) -> Tensor2:
    """Add a (1, d) row vector to every row of a (n, d) tensor."""
    a, b = _as_tensor(a), _as_tensor(b)
    if b.rows != 1 or b.cols != a.cols:
        raise ShapeMismatch(f"add_bias: {a.shape} + {b.shape}")
    return _make(
        a.data + b.data,
        [(a, lambda g: g), (b, lambda g: g.sum(axis=0, keepdims=True))],
    )


def add_scalar(a, c: float) -> Tensor2:
    a = _as_tensor(a)
    return _make(a.data + float(c), [(a, lambda g: g)])


def scale(a, c: float) -> Tensor2:
    a = _as_tensor(a)
    c = float(c)
    return _make(a.data * c, [(a, lambda g: g * c)])


def square(a) -> Tensor2:
    a = _as_tensor(a)
    ad = a.data
    return _make(ad * ad, [(a, lambda g: 2.0 * ad * g)])


def relu(a) -> Tensor2:
    a = _as_tensor(a)
    ad = a.data
    # subgradient 0 at the kink
    return _make(np.maximum(ad, 0.0), [(a, lambda g: g * (ad > 0.0))])


def _softplus(z: np.ndarray) -> np.ndarray:
    # max(z, 0) + log1p(exp(-|z|)): exact for large |z|, no overflow
    return np.maximum(z, 0.0) + np.log1p(np.exp(-np.abs(z)))


def gather_rows(a, indices) -> Tensor2:
    """Select rows by index; repeated indices sum their gradients. The
    edge loss gathers its E anchor rows with it."""
    a = _as_tensor(a)
    idx = np.asarray(indices, dtype=np.int64).reshape(-1)
    if idx.size and (idx.min() < 0 or idx.max() >= a.rows):
        raise IndexOutOfRange(f"row index outside [0, {a.rows})")

    def pull(g, idx=idx, shape=a.data.shape):
        # one flat bincount over cell numbers: per cell, the same sums in
        # the same order as np.add.at, without its per-row dispatch. With
        # no indices bincount returns int64, hence the cast.
        n, d = shape
        cells = ((idx * d)[:, None] + np.arange(d)).reshape(-1)
        z = np.bincount(cells, weights=g.reshape(-1), minlength=n * d)
        return z.astype(np.float64, copy=False).reshape(shape)

    return _make(a.data[idx], [(a, pull)])


def negative_sampling_loss(anchors, v, candidates) -> Tensor2:
    """Sum over anchor rows a_i of -log sigmoid(a_i . v[c_i0]) plus, for
    each further candidate c_ik, -log sigmoid(-a_i . v[c_ik]).

    ``candidates`` is an (E, 1+Q) array of row ids of ``v``, one row per
    anchor: the linked partner first, then Q negatives (Q may be zero).
    The forward pass scores the (E, 1+Q) matrix and sums a softplus that
    never overflows (a score of -1000 on a partner costs exactly 1000).
    Only E x (1+Q) values reach the tape: the gradient is the sparse E x n
    matrix S of g * d loss / d score at (i, c_ik), and the two pulls are
    ``S @ v`` for the anchors and ``S.T @ anchors`` for ``v``.
    """
    anchors, v = _as_tensor(anchors), _as_tensor(v)
    cand = np.asarray(candidates, dtype=np.int64)
    e, d = anchors.shape
    if e == 0 or cand.ndim != 2 or cand.shape[0] != e or cand.shape[1] == 0 or v.cols != d:
        raise ShapeMismatch(
            f"negative_sampling_loss: anchors {anchors.shape}, v {v.shape}, candidates "
            f"{cand.shape}; need one row of at least one id per anchor, equal widths"
        )
    if cand.min() < 0 or cand.max() >= v.rows:
        raise IndexOutOfRange(f"candidate id outside [0, {v.rows})")
    a, vd = anchors.data, v.data
    # softplus argument: minus the partner's score, plus each negative's
    arg = np.einsum("ed,ekd->ek", a, vd[cand])
    arg[:, 0] *= -1.0
    out = np.array([[_softplus(arg).sum()]])
    if not (anchors.requires_grad or v.requires_grad):
        return Tensor2(out)
    # d loss / d score
    dscore = expit(arg)
    dscore[:, 0] *= -1.0
    k = cand.shape[1]
    held = [None, None]  # (upstream g, S): both pulls of one backward share S

    def weighted(g):
        # rows of S are already sorted by anchor, so no sort is needed
        if held[0] is not g:
            s = sparse.csr_matrix(
                ((g[0, 0] * dscore).ravel(), cand.ravel(), np.arange(0, e * k + 1, k)),
                shape=(e, v.rows),
            )
            held[:] = g, s
        return held[1]

    return _make(out, [(anchors, lambda g: weighted(g) @ vd), (v, lambda g: weighted(g).T @ a)])


def mean_all(a) -> Tensor2:
    a = _as_tensor(a)
    n = a.data.size
    if n == 0:
        raise ShapeMismatch("mean of an empty tensor")
    return _make(
        np.array([[a.data.sum() / n]]),
        [(a, lambda g, s=a.data.shape: np.full(s, g[0, 0] / n))],
    )
