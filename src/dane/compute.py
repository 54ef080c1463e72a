"""Dense float64 tensors with reverse-mode gradients on an explicit tape.

Every value is a 2-D array; scalars are 1x1. Operations validate shapes,
reject NaN/Inf at the boundary, and, when an input is on a tape, append an
``(out key, pulls)`` record to that tape and put their output on it. A
tensor is on a tape exactly when its ``tape`` is set; the tape numbers it
with an integer ``key``. ``backward`` replays the records in reverse,
summing contributions when a node feeds several consumers, so weights
shared across branches (or across two graphs) accumulate one combined
gradient. Records hold keys and pulls over arrays, never a tensor, so a
tape lives exactly as long as some tensor on it, and an op output that no
pull reads is freed with its tensor.
"""

from __future__ import annotations

import itertools
from typing import TYPE_CHECKING, Callable

import numpy as np
from scipy import sparse
from scipy.special import expit

from .errors import (
    DisconnectedLoss,
    EmptyInput,
    IndexOutOfRange,
    NonFiniteValue,
    ShapeMismatch,
)

if TYPE_CHECKING:
    from .graph import PropagationMatrix


class Tensor2:
    """A 2-D float64 value, optionally on a :class:`GradTape`."""

    __slots__ = ("data", "tape", "key")

    def __init__(self, data, tape: "GradTape | None" = None):
        arr = np.ascontiguousarray(data, dtype=np.float64)
        if arr.ndim != 2:
            raise ShapeMismatch(f"expected a 2-D array, got shape {arr.shape}")
        if arr.size and not np.isfinite(arr).all():
            raise NonFiniteValue("tensor contains NaN or Inf")
        self.data = arr
        self.tape = tape
        self.key = None if tape is None else next(tape._keys)

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
        grad = "" if self.tape is None else ", on a tape"
        return f"Tensor2(shape={self.data.shape}{grad})"


class GradTape:
    """Ordered log of executed operations, replayed in reverse by ``backward``."""

    def __init__(self):
        # (op output key, [(input key, fn(upstream) -> contribution)])
        self._records: list[tuple[int, list]] = []
        self._parameters: dict[int, tuple[int, int]] = {}  # key -> shape
        self._keys = itertools.count()

    def parameter(self, data) -> Tensor2:
        """Register a leaf tensor whose gradient ``backward`` will report."""
        node = Tensor2(data, tape=self)
        self._parameters[node.key] = node.shape
        return node


def _as_tensor(x) -> Tensor2:
    return x if isinstance(x, Tensor2) else Tensor2(x)


def _make(data, inputs: list[tuple[Tensor2, Callable]]) -> Tensor2:
    """Build the op result, recording it when any input is on a tape."""
    tape = None
    for node, _ in inputs:
        if node.tape is not None:
            if tape is None:
                tape = node.tape
            elif tape is not node.tape:
                raise ValueError("operands belong to different tapes")
    out = Tensor2(data, tape=tape)
    if tape is not None:
        tape._records.append((out.key, [(n.key, fn) for n, fn in inputs if n.tape is not None]))
    return out


def backward(loss: Tensor2) -> list[np.ndarray]:
    """Gradient of a 1x1 loss with respect to every parameter of its tape,
    in registration order.

    Parameters the loss never touched get zero arrays rather than being
    skipped, so update code can iterate uniformly.
    """
    tape = loss.tape if isinstance(loss, Tensor2) else None
    if tape is None or loss.key in tape._parameters:
        raise DisconnectedLoss("loss was not produced by an operation on a tape")
    if loss.data.shape != (1, 1):
        raise ShapeMismatch(f"loss must be 1x1, got {loss.data.shape}")
    grads: dict[int, np.ndarray] = {loss.key: np.ones((1, 1))}
    for out, pulls in reversed(tape._records):
        g = grads.pop(out, None)
        if g is None:
            continue
        for key, pull in pulls:
            contribution = pull(g)
            held = grads.get(key)
            # never add in place: `held` may alias an upstream gradient
            grads[key] = contribution if held is None else held + contribution
    return [grads.get(key, np.zeros(shape)) for key, shape in tape._parameters.items()]


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
    constant; only the dense side receives a gradient, ``P.T @ g``, which
    is ``P @ g`` since :class:`PropagationMatrix` is exactly symmetric."""
    h = _as_tensor(h)
    m = p.matrix
    if m.shape[1] != h.rows:
        raise ShapeMismatch(f"spmm: {m.shape} @ ({h.rows}, {h.cols})")
    return _make(m @ h.data, [(h, lambda g: m @ g)])


def add(a, b) -> Tensor2:
    a, b = _as_tensor(a), _as_tensor(b)
    if a.shape != b.shape:
        raise ShapeMismatch(f"add: {a.shape} vs {b.shape}")
    return _make(a.data + b.data, [(a, lambda g: g), (b, lambda g: g)])


def affine(h, w, b) -> Tensor2:
    """``h @ w + b``, with ``b`` a (1, d) row added to every row: one
    discriminator layer. A NaN or Inf in ``h @ w`` reaches the checked output."""
    h, w, b = _as_tensor(h), _as_tensor(w), _as_tensor(b)
    if h.cols != w.rows or b.shape != (1, w.cols):
        raise ShapeMismatch(f"affine: ({h.rows}, {h.cols}) @ {w.shape} + {b.shape}")
    hd, wd = h.data, w.data
    return _make(
        hd @ wd + b.data,
        [(h, lambda g: g @ wd.T), (w, lambda g: hd.T @ g),
         (b, lambda g: g.sum(axis=0, keepdims=True))],
    )


def scale(a, c: float) -> Tensor2:
    a = _as_tensor(a)
    c = float(c)
    return _make(a.data * c, [(a, lambda g: g * c)])


def relu(a) -> Tensor2:
    a = _as_tensor(a)
    ad = a.data
    # subgradient 0 at the kink
    return _make(np.maximum(ad, 0.0), [(a, lambda g: g * (ad > 0.0))])


def _softplus(z: np.ndarray, out: np.ndarray | None = None) -> np.ndarray:
    # max(z, 0) + log1p(exp(-|z|)): exact for large |z|, no overflow. The
    # same ufuncs in the same order with one temporary; out=z overwrites z.
    t = np.abs(z)
    np.negative(t, out=t)
    np.exp(t, out=t)
    np.log1p(t, out=t)
    out = np.maximum(z, 0.0, out=out)
    out += t
    return out


def gather_rows(a, indices) -> Tensor2:
    """Select rows by index; repeated indices sum their gradients. Nothing
    in the package calls it: the edge loss gathers its rows inside
    :func:`negative_sampling_loss`. It stays only because
    ``bench/spans.py`` and ``tests/test_bench_names.py`` name it, and goes
    with the benchmark's next maintenance change."""
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


# Cap on the gathered row values negative_sampling_loss scores at once: 2^14
# float64, 128 KiB (73 anchor rows at Q=5, d=32). That fits in L2, and it is
# no larger than glibc's default trim threshold, so freeing a block does not
# by itself hand pages back to the kernel for the next call to fault in
# again. Each score is one einsum reduction over d in any block, so the
# scores do not depend on this, while no E x d or (E, 1+Q, d) gather is
# formed.
_SCORE_CELLS = 1 << 14


def negative_sampling_loss(v, ids) -> Tensor2:
    """Sum over rows i of ``ids`` of -log sigmoid(v[a_i] . v[c_i0]) plus,
    for each further candidate c_ik, -log sigmoid(-v[a_i] . v[c_ik]).

    ``ids`` is an (E, 2+Q) array of row ids of ``v``: per row the anchor
    a_i, its linked partner c_i0, then Q negatives (Q may be zero). The
    forward pass gathers the anchor and candidate rows of a block of ids
    into one buffer of at most ``_SCORE_CELLS`` values and scores them, so
    no scratch array is larger than that or than one E x (1+Q) array. It
    sums a softplus, taken in place, that never overflows (a score of -1000
    on a partner costs exactly 1000).
    Only E x (1+Q) values reach the tape: the n x n sparse matrix W of
    d loss / d score at (a_i, c_ik), its rows grouped by anchor and repeated
    entries kept. A score a . c pulls c into row a and a into row c, so the
    gradient under upstream g is ``(g W) @ v + (g W).T @ v``; W itself
    serves when g is exactly 1, as it is in training.
    """
    v = _as_tensor(v)
    ids = np.asarray(ids, dtype=np.int64)
    n, d = v.shape
    if ids.ndim != 2 or ids.shape[0] == 0 or ids.shape[1] < 2:
        raise ShapeMismatch(
            f"negative_sampling_loss: ids {ids.shape}; need at least one row of an "
            "anchor, a partner and any negatives"
        )
    if ids.min() < 0 or ids.max() >= n:
        raise IndexOutOfRange(f"row id outside [0, {n})")
    vd = v.data
    e, k = ids.shape[0], ids.shape[1] - 1
    # softplus argument: minus the partner's score, plus each negative's
    arg = np.empty((e, k))
    rows = min(e, max(1, _SCORE_CELLS // max(1, (1 + k) * d)))  # d may be 0
    block = np.empty((rows, 1 + k, d))
    for i in range(0, e, rows):
        j = min(i + rows, e)
        # ids are checked above; mode="raise" would buffer into a new array
        vd.take(ids[i:j], axis=0, out=block[: j - i], mode="clip")
        np.einsum("ed,ekd->ek", block[: j - i, 0], block[: j - i, 1:], out=arg[i:j])
    arg[:, 0] *= -1.0
    taped = v.tape is not None
    # d loss / d score, read before the softplus overwrites arg
    dscore = expit(arg) if taped else None
    out = np.array([[_softplus(arg, out=arg).sum()]])
    if not taped:
        return Tensor2(out)
    del arg  # spent: free it before W's E x (1+Q) arrays are formed
    dscore[:, 0] *= -1.0
    anchors = ids[:, 0]
    order = np.argsort(anchors, kind="stable")
    indptr = np.zeros(n + 1, dtype=np.int64)
    np.cumsum(np.bincount(anchors, minlength=n) * k, out=indptr[1:])
    w = sparse.csr_matrix(
        (dscore[order].ravel(), ids[order, 1:].ravel(), indptr), shape=(n, n)
    )

    def pull(g):
        wg = w if g[0, 0] == 1.0 else g[0, 0] * w
        grad = wg @ vd
        grad += wg.T @ vd
        return grad

    return _make(out, [(v, pull)])


def least_squares(a, b, target_a: float, target_b: float) -> Tensor2:
    """mean((a - target_a)^2) + mean((b - target_b)^2) over all entries:
    the least-squares loss of scores from two graphs against one target
    each. Deviations are ``d = a + (-target_a)``; the pulls are ``(2 d)(g / n)``.
    A NaN or Inf in a deviation or a square reaches the checked output."""
    a, b = _as_tensor(a), _as_tensor(b)
    if a.data.size == 0 or b.data.size == 0:
        raise EmptyInput(f"least squares needs scores from both graphs, got {a.shape}, {b.shape}")
    da, db = a.data + float(-target_a), b.data + float(-target_b)
    out = np.array([[(da * da).sum() / da.size]]) + np.array([[(db * db).sum() / db.size]])
    return _make(out, [(a, lambda g: 2.0 * da * (g[0, 0] / da.size)),
                       (b, lambda g: 2.0 * db * (g[0, 0] / db.size))])
