import gc
import tracemalloc
import weakref

import numpy as np
import pytest
from scipy import sparse
from scipy.special import expit

from dane import compute
from dane.compute import GradTape, Tensor2, backward
from dane.errors import (
    DisconnectedLoss,
    IndexOutOfRange,
    NonFiniteValue,
    ShapeMismatch,
)
from dane.graph import Graph, build_propagation

from conftest import check_gradients, sum_squares, tape_grads, total


# --- tensor construction -----------------------------------------------------


def test_tensor_rejects_non_2d():
    with pytest.raises(ShapeMismatch):
        Tensor2(np.zeros(3))
    with pytest.raises(ShapeMismatch):
        Tensor2(np.zeros((2, 2, 2)))


def test_tensor_rejects_nan_and_inf():
    with pytest.raises(NonFiniteValue):
        Tensor2(np.array([[np.nan]]))
    with pytest.raises(NonFiniteValue):
        Tensor2(np.array([[1.0, np.inf]]))


def test_tensor_coerces_to_float64():
    t = Tensor2(np.array([[1, 2], [3, 4]], dtype=np.int32))
    assert t.data.dtype == np.float64
    assert t.data.flags["C_CONTIGUOUS"]
    assert t.shape == (2, 2)


def test_item_requires_scalar():
    with pytest.raises(ShapeMismatch):
        Tensor2(np.zeros((2, 1))).item()
    assert Tensor2(np.array([[7.5]])).item() == 7.5


def test_overflow_inside_op_is_caught():
    big = Tensor2(np.full((1, 1), 1e200))
    with np.errstate(over="ignore"), pytest.raises(NonFiniteValue):
        compute.matmul(big, big)


# --- frozen forward values ---------------------------------------------------


def _ns_loss(anchor_row, candidate_rows) -> float:
    # row 0 of v, the anchor, scored against every later row: the partner,
    # then negatives
    return compute.negative_sampling_loss(
        Tensor2([anchor_row] + candidate_rows), [list(range(1 + len(candidate_rows)))]
    ).item()


def test_negative_sampling_loss_at_zero_score_is_log2():
    assert _ns_loss([0.0], [[1.0]]) == pytest.approx(0.6931471805599453, rel=1e-15)
    # a partner and two negatives, all scored 0
    assert _ns_loss([0.0, 0.0], [[1.0, 2.0]] * 3) == pytest.approx(
        3 * 0.6931471805599453, rel=1e-15
    )


def test_negative_sampling_loss_large_positive():
    # -log(sigmoid(10)) = log(1 + e^-10), for a partner scored 10 and for a
    # negative scored -10
    assert _ns_loss([2.0], [[5.0]]) == pytest.approx(4.539889921686465e-05, rel=1e-12)
    assert _ns_loss([2.0], [[0.0], [-5.0]]) == pytest.approx(
        -np.log(0.5) + 4.539889921686465e-05, rel=1e-12
    )


def test_negative_sampling_loss_saturates_exactly_for_wrong_scores():
    # softplus(50) collapses to 50 at double precision; a naive
    # -log(1/(1+e^50)) would overflow or return inf instead
    assert _ns_loss([-50.0], [[1.0]]) == 50.0
    assert _ns_loss([-1000.0], [[1.0]]) == 1000.0
    # a negative scored +1000 costs as much as a partner scored -1000
    assert _ns_loss([1000.0], [[0.0], [1.0]]) == 1000.0 + 0.6931471805599453


def test_relu_forward():
    out = compute.relu(Tensor2([[-1.0, 0.0, 2.5]]))
    np.testing.assert_array_equal(out.data, [[0.0, 0.0, 2.5]])


# --- shape validation --------------------------------------------------------


def test_matmul_shape_mismatch():
    with pytest.raises(ShapeMismatch):
        compute.matmul(Tensor2(np.zeros((2, 3))), Tensor2(np.zeros((2, 3))))


def test_elementwise_shape_mismatch():
    a, b = Tensor2(np.zeros((2, 3))), Tensor2(np.zeros((3, 2)))
    with pytest.raises(ShapeMismatch):
        compute.add(a, b)


@pytest.mark.parametrize(
    "anchors, candidates",
    [
        ((2, 1), (2, 0)),  # no partner
        ((2, 0), (2, 0)),  # no ids at all
        ((0, 1), (0, 2)),  # no anchors
        ((1,), (3,)),  # ids not one row per anchor
        ((2, 1, 1), (2, 1, 2)),  # ids not a matrix
    ],
)
def test_negative_sampling_loss_rows_must_align(anchors, candidates):
    # ids are the anchor columns followed by the candidate columns
    ids = np.concatenate([np.zeros(anchors, dtype=int), np.zeros(candidates, dtype=int)], axis=-1)
    with pytest.raises(ShapeMismatch):
        compute.negative_sampling_loss(Tensor2(np.zeros((4, 3))), ids)


@pytest.mark.parametrize("bad", [4, -1])
def test_negative_sampling_loss_candidates_out_of_range(bad):
    for ids in ([[0, 1, 2], [1, 3, bad]], [[0, 1, 2], [bad, 3, 2]]):
        with pytest.raises(IndexOutOfRange):
            compute.negative_sampling_loss(Tensor2(np.zeros((4, 3))), ids)


def test_affine_requires_row_vector_bias():
    with pytest.raises(ShapeMismatch):
        compute.affine(np.zeros((2, 3)), np.eye(3), np.zeros((2, 3)))


def test_gather_rows_out_of_range():
    a = Tensor2(np.zeros((3, 2)))
    with pytest.raises(IndexOutOfRange):
        compute.gather_rows(a, [0, 3])
    with pytest.raises(IndexOutOfRange):
        compute.gather_rows(a, [-1])


# --- backward: correctness against finite differences ------------------------


def test_matmul_gradients():
    rng = np.random.default_rng(1)
    a, b = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))
    check_gradients(
        lambda n: total(compute.matmul(n[0], n[1])), [a, b]
    )


def test_elementwise_gradients():
    rng = np.random.default_rng(2)
    a, b = rng.normal(size=(3, 3)), rng.normal(size=(3, 3))
    check_gradients(lambda n: total(compute.add(n[0], n[1])), [a, b])
    check_gradients(lambda n: sum_squares(n[0]), [a])


def test_scalar_ops_gradients():
    rng = np.random.default_rng(3)
    a = rng.normal(size=(2, 5))
    check_gradients(lambda n: total(compute.scale(n[0], -2.5)), [a])
    # a scalar target shifts the least-squares deviations
    check_gradients(lambda n: compute.least_squares(n[0], n[0], 3.0, -1.5), [a])


def test_activation_gradients():
    rng = np.random.default_rng(4)
    # keep values away from the relu kink so finite differences are clean
    a = rng.normal(size=(4, 3))
    a[np.abs(a) < 0.05] = 0.1
    check_gradients(lambda n: total(compute.relu(n[0])), [a])


def test_relu_subgradient_at_zero_is_zero():
    _, grads = tape_grads(
        lambda n: total(compute.relu(n[0])), [np.zeros((1, 3))]
    )
    np.testing.assert_array_equal(grads[0], np.zeros((1, 3)))


def test_affine_gradients():
    rng = np.random.default_rng(5)
    h, w, b = rng.normal(size=(4, 3)), rng.normal(size=(3, 2)), rng.normal(size=(1, 2))
    check_gradients(lambda n: sum_squares(compute.affine(n[0], n[1], n[2])), [h, w, b])


@pytest.mark.parametrize("targets", [(0.0, 1.0), (1.0, 0.0), (0.25, -3.0)])
def test_least_squares_gradients(targets):
    rng = np.random.default_rng(15)
    a, b = rng.normal(size=(4, 1)), rng.normal(size=(3, 2))
    # scaled, so each pull must apply its upstream gradient
    check_gradients(
        lambda n: compute.scale(compute.least_squares(n[0], n[1], *targets), -2.5), [a, b]
    )


def _spread(rng, shape):
    # values of very different magnitudes make a changed summation order show
    return rng.normal(size=shape) * np.exp(4.0 * rng.normal(size=shape))


def test_affine_equals_matmul_then_bias_bitwise():
    # the forward h @ w, then + b; the pulls of a matmul and of a row bias
    rng = np.random.default_rng(16)
    h, w, b = _spread(rng, (9, 5)), _spread(rng, (5, 4)), _spread(rng, (1, 4))
    tape = GradTape()
    nodes = [tape.parameter(x) for x in (h, w, b)]
    out = compute.affine(*nodes)
    grads = backward(sum_squares(out))
    want = h @ w + b
    g = 2.0 * want * np.ones_like(want)
    assert out.data.tobytes() == want.tobytes()
    for got, expected in zip(grads, (g @ w.T, h.T @ g, g.sum(axis=0, keepdims=True))):
        assert got.tobytes() == expected.tobytes()


@pytest.mark.parametrize("targets", [(0.0, 1.0), (1.0, 0.0)])
def test_least_squares_equals_shift_square_mean_add_bitwise(targets):
    # per input: d = s + (-t), d * d, its sum / n; then the two means added.
    # Upstream c reaches each input as 2.0 * d * (an array of c / n).
    rng = np.random.default_rng(17)
    a, b = _spread(rng, (301, 1)), _spread(rng, (157, 1))
    c = -2.5
    tape = GradTape()
    na, nb = tape.parameter(a), tape.parameter(b)
    out = compute.least_squares(na, nb, *targets)
    grad_a, grad_b = backward(compute.scale(out, c))
    means, want = [], []
    for x, t in zip((a, b), targets):
        d = x + float(-t)
        sq = d * d
        means.append(np.array([[sq.sum() / sq.size]]))
        want.append(2.0 * d * np.full(x.shape, c / x.size))
    assert out.data.tobytes() == (means[0] + means[1]).tobytes()
    assert grad_a.tobytes() == want[0].tobytes()
    assert grad_b.tobytes() == want[1].tobytes()


def test_least_squares_overflow_is_caught():
    # a finite score whose square overflows makes the output non-finite
    with np.errstate(over="ignore"), pytest.raises(NonFiniteValue):
        compute.least_squares(Tensor2([[1e200]]), Tensor2([[0.0]]), 0.0, 1.0)


def test_gather_rows_gradients_with_repeats():
    rng = np.random.default_rng(6)
    a = rng.normal(size=(5, 3))
    idx = [0, 2, 2, 4, 0, 0]
    check_gradients(
        lambda n: sum_squares(compute.gather_rows(n[0], idx)),
        [a],
    )


@pytest.mark.parametrize("idx", [[0, 2, 2, 4, 0, 0, 2], []], ids=["repeats", "empty"])
def test_gather_rows_gradient_equals_add_at_bitwise(idx):
    # d/da sum(gather(a, idx)^2) is 2 a[idx] scattered onto rows idx; values
    # of very different magnitudes make a changed summation order show
    rng = np.random.default_rng(11)
    a = np.exp(8.0 * rng.normal(size=(5, 3)))
    _, (got,) = tape_grads(
        lambda n: sum_squares(compute.gather_rows(n[0], idx)), [a]
    )
    idx = np.asarray(idx, dtype=np.int64)
    want = np.zeros_like(a)
    np.add.at(want, idx, 2.0 * a[idx])
    assert got.dtype == np.float64
    assert got.tobytes() == want.tobytes()


@pytest.mark.parametrize("q", [0, 2])
def test_negative_sampling_loss_gradients(q):
    # candidate ids repeat within and across rows
    rng = np.random.default_rng(12)
    v = rng.normal(size=(4, 4))
    ids = rng.integers(0, 4, size=(3, 2 + q))
    ids[1, 1:] = 2
    # scaled, so the pull must apply its upstream gradient
    check_gradients(
        lambda n: compute.scale(compute.negative_sampling_loss(n[0], ids), -2.5), [v]
    )


@pytest.mark.parametrize("q", [0, 3])
def test_negative_sampling_loss_gradients_through_repeated_rows(q):
    # anchors repeat, a row can be partner and negative of one anchor, and
    # an anchor can be its own candidate
    rng = np.random.default_rng(13)
    v = rng.normal(size=(5, 3))
    ids = np.column_stack([[0, 0, 3, 1], rng.integers(0, 5, size=(4, 1 + q))])
    ids[0, 1:] = 2
    ids[2, -1] = 3
    check_gradients(lambda n: compute.negative_sampling_loss(n[0], ids), [v])


def _dscore(v, ids, g=1.0):
    """g times d loss / d score, (E, 1+Q), from the gathered rows."""
    arg = np.einsum("ed,ekd->ek", v[ids[:, 0]], v[ids[:, 1:]])
    arg[:, 0] *= -1.0
    dscore = expit(arg)
    dscore[:, 0] *= -1.0
    return dscore if g == 1.0 else g * dscore


def _negative_sampling_reference_grad(v, ids, g):
    """The gradient as two row scatters of per-score products, each in the
    order of a stable sort of the rows by anchor, added at the end: the
    anchor's pull c * dscore into its row, and the candidate's a * dscore."""
    ids = ids[np.argsort(ids[:, 0], kind="stable")]
    w = _dscore(v, ids, g)
    k, d = w.shape[1], v.shape[1]
    a, c = v[ids[:, 0]], v[ids[:, 1:]]
    into_anchors, into_candidates = np.zeros_like(v), np.zeros_like(v)
    np.add.at(into_anchors, np.repeat(ids[:, 0], k), (w[:, :, None] * c).reshape(-1, d))
    np.add.at(into_candidates, ids[:, 1:].ravel(), (w[:, :, None] * a[:, None, :]).reshape(-1, d))
    return into_anchors + into_candidates


@pytest.mark.parametrize("q", [0, 5])
def test_negative_sampling_loss_gradients_equal_gathered_reference_bitwise(q):
    # values of very different magnitudes make a changed summation order
    # show; ids repeat so rows of v collect many contributions
    rng = np.random.default_rng(14)
    v = _spread(rng, (7, 6))
    v /= np.abs(v).max()
    ids = rng.integers(0, 7, size=(40, 2 + q))
    _, (got,) = tape_grads(
        lambda n: compute.scale(compute.negative_sampling_loss(n[0], ids), -2.5), [v]
    )
    assert got.tobytes() == _negative_sampling_reference_grad(v, ids, -2.5).tobytes()


@pytest.mark.parametrize("g", [1.0, 0.37, -2.5])
def test_negative_sampling_loss_gradient_matches_a_scatter_in_id_order(g):
    # unsorted, repeated anchors, one of them drawn as its own negative,
    # against np.add.at over the ids as given, under each upstream
    rng = np.random.default_rng(20)
    n, d, e, q = 11, 5, 60, 4
    v = rng.normal(size=(n, d))
    ids = rng.integers(0, n, size=(e, 2 + q))
    ids[:, 0] = rng.permutation(np.arange(e) % 7)[::-1]
    ids[3, 4] = ids[3, 0]
    _, (got,) = tape_grads(
        lambda nodes: compute.scale(compute.negative_sampling_loss(nodes[0], ids), g), [v]
    )
    w = _dscore(v, ids, g)
    a, c = v[ids[:, 0]], v[ids[:, 1:]]
    want = np.zeros_like(v)
    np.add.at(want, ids[:, 0], np.einsum("ek,ekd->ed", w, c))
    np.add.at(want, ids[:, 1:].ravel(), (w[:, :, None] * a[:, None, :]).reshape(-1, d))
    np.testing.assert_allclose(got, want, rtol=1e-12, atol=0.0)


_SCORE_ROWS = compute._SCORE_CELLS // (7 * 4)  # anchor rows per block at Q=5, d=4


@pytest.mark.parametrize(
    "e", [_SCORE_ROWS, 2 * _SCORE_ROWS, 2 * _SCORE_ROWS + 7],
    ids=["one-block", "two-blocks", "two-blocks-and-7"],
)
def test_negative_sampling_loss_in_blocks_equals_one_einsum_bitwise(e):
    # the scores, formed block by block, give the loss and the pull of one
    # einsum over the whole gathered anchors and (E, 1+Q, d) candidates
    rng = np.random.default_rng(18)
    v = _spread(rng, (9, 4))
    v /= np.abs(v).max()
    ids = rng.integers(0, 9, size=(e, 7))
    tape = GradTape()
    nv = tape.parameter(v)
    loss = compute.negative_sampling_loss(nv, ids)
    (got,) = backward(compute.scale(loss, -2.5))
    arg = np.einsum("ed,ekd->ek", v[ids[:, 0]], v[ids[:, 1:]])
    arg[:, 0] *= -1.0
    softplus = np.maximum(arg, 0.0) + np.log1p(np.exp(-np.abs(arg)))
    assert loss.data.tobytes() == np.array([[softplus.sum()]]).tobytes()
    assert got.tobytes() == _negative_sampling_reference_grad(v, ids, -2.5).tobytes()


def _traced_peak(f):
    tracemalloc.start()
    try:
        out = f()
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    return out, peak


def test_negative_sampling_loss_forms_no_full_candidate_gather():
    # scratch stays within one gather block plus two (E, 1+Q) arrays: the
    # scores and one softplus temporary. At the large benchmark's size the
    # gathered (E, 1+Q, d) tensor alone would take 32 MB.
    e, q, d, n = 21_000, 5, 32, 3_000
    rng = np.random.default_rng(19)
    v = Tensor2(rng.normal(size=(n, d)))
    ids = rng.integers(0, n, size=(e, 2 + q))
    loss, peak = _traced_peak(lambda: compute.negative_sampling_loss(v, ids))
    assert loss.tape is None
    assert peak < 2 * e * (1 + q) * 8 + 256 * 2**10
    # a training batch on a tape: its (E, 1+Q, d) gather would take 393 KiB
    e, n = 256, 300
    tape = GradTape()
    v = tape.parameter(rng.normal(size=(n, d)))
    ids = rng.integers(0, n, size=(e, 2 + q))
    loss, peak = _traced_peak(lambda: compute.negative_sampling_loss(v, ids))
    assert loss.tape is tape
    assert peak < 256 * 2**10


def test_negative_sampling_loss_forward_and_backward_form_no_e_by_d_array():
    # at the large benchmark's size one E x d float64 array is 5.13 MiB
    # (the anchor gather, or its gradient); a taped forward and backward
    # must peak below that
    e, q, d, n = 21_000, 5, 32, 3_000
    rng = np.random.default_rng(21)
    tape = GradTape()
    v = tape.parameter(rng.normal(size=(n, d)))
    ids = rng.integers(0, n, size=(e, 2 + q))
    (grad,), peak = _traced_peak(lambda: backward(compute.negative_sampling_loss(v, ids)))
    assert grad.shape == (n, d)
    assert peak < e * d * 8


def test_negative_sampling_loss_pulls_scale_the_sparse_gradient_bitwise():
    # the pull equals W v + W.T v for the n x n sparse matrix W of g * dscore
    # at (anchor, candidate), rows grouped by anchor, bit for bit: W itself
    # under the upstream 1 that training passes, and a scaled copy
    # otherwise; anchors and candidates repeat
    rng = np.random.default_rng(15)
    v = _spread(rng, (6, 5))
    v /= np.abs(v).max()
    ids = rng.integers(0, 6, size=(30, 5))
    order = np.argsort(ids[:, 0], kind="stable")
    e, k = ids.shape[0], ids.shape[1] - 1
    for g in (1.0, 0.37, -2.5):
        _, (got,) = tape_grads(
            lambda n: compute.scale(compute.negative_sampling_loss(n[0], ids), g), [v]
        )
        indptr = np.concatenate([[0], np.cumsum(np.bincount(ids[:, 0], minlength=6) * k)])
        w = sparse.csr_matrix(
            (_dscore(v, ids, g)[order].ravel(), ids[order, 1:].ravel(), indptr), shape=(6, 6)
        )
        assert got.tobytes() == (w @ v + w.T @ v).tobytes()


def test_negative_sampling_loss_untaped_skips_the_gradient(monkeypatch):
    # a forward pass on constants (the epoch snapshot) builds no gradient
    # and no sparse matrix
    def unused(*args, **kwargs):
        raise AssertionError("only a recorded op needs the gradient")

    monkeypatch.setattr(compute, "expit", unused)
    monkeypatch.setattr(compute.sparse, "csr_matrix", unused)
    out = compute.negative_sampling_loss(Tensor2([[0.0], [1.0], [2.0]]), [[0, 1, 2]])
    assert out.tape is None
    assert out.item() == pytest.approx(2 * 0.6931471805599453, rel=1e-15)


def test_spmm_gradients():
    g = Graph(4, [(0, 1), (1, 2), (2, 3), (0, 3)], np.zeros((4, 2)))
    p = build_propagation(g)
    rng = np.random.default_rng(8)
    h = rng.normal(size=(4, 3))
    check_gradients(
        lambda n: sum_squares(compute.spmm(p, n[0])), [h]
    )


def test_composite_pipeline_gradients():
    # two layers with an activation, feeding the fused edge score: the
    # shape of everything the encoder loss builds
    g = Graph(5, [(0, 1), (1, 2), (2, 3), (3, 4), (0, 4)], np.zeros((5, 3)))
    p = build_propagation(g)
    rng = np.random.default_rng(9)
    x = rng.normal(size=(5, 3))
    w0, w1 = rng.normal(size=(3, 4)), rng.normal(size=(4, 2))

    def build(nodes):
        h = compute.relu(compute.matmul(compute.spmm(p, Tensor2(x)), nodes[0]))
        v = compute.matmul(compute.spmm(p, h), nodes[1])
        # per row an anchor, its partner, then one negative
        return compute.negative_sampling_loss(v, [[0, 1, 4], [1, 2, 0], [2, 3, 3]])

    check_gradients(build, [w0, w1], atol=1e-6)


# --- backward: tape semantics ------------------------------------------------


def test_shared_parameter_accumulates_across_branches():
    tape = GradTape()
    w = tape.parameter(np.ones((2, 2)))
    a = Tensor2(np.array([[1.0, 2.0], [3.0, 4.0]]))
    b = Tensor2(np.array([[5.0, 6.0], [7.0, 8.0]]))
    loss = compute.add(
        total(compute.matmul(a, w)), total(compute.matmul(b, w))
    )
    (grad,) = backward(loss)
    want = a.data.T @ np.ones((2, 2)) + b.data.T @ np.ones((2, 2))
    np.testing.assert_array_equal(grad, want)


def test_same_node_twice_in_one_op():
    tape = GradTape()
    x = tape.parameter(np.array([[3.0, -2.0], [0.5, 4.0]]))
    loss = total(compute.matmul(x, x))
    (grad,) = backward(loss)
    ones = np.ones((2, 2))
    np.testing.assert_array_equal(grad, ones @ x.data.T + x.data.T @ ones)


def test_fanout_diamond():
    # x feeds two paths that later merge; upstream gradients must sum
    tape = GradTape()
    x = tape.parameter(np.array([[2.0]]))
    y = compute.add(compute.matmul(x, x), compute.scale(x, 3.0))  # x^2 + 3x
    (grad,) = backward(total(y))
    assert grad[0, 0] == 2.0 * 2.0 + 3.0


def test_unused_parameter_gets_zero_gradient():
    tape = GradTape()
    used = tape.parameter(np.ones((1, 2)))
    unused = tape.parameter(np.ones((3, 3)))
    grad_used, grad_unused = backward(total(used))
    np.testing.assert_array_equal(grad_used, np.ones((1, 2)))
    np.testing.assert_array_equal(grad_unused, np.zeros((3, 3)))
    assert grad_unused.shape == unused.data.shape


def test_disconnected_loss_rejected():
    # a parameter leaf, a constant and a non-tensor: none is an op output
    # on a tape
    tape = GradTape()
    leaf = tape.parameter(np.ones((1, 1)))
    for loss in (leaf, Tensor2(np.ones((1, 1))), np.ones((1, 1)), 1.0):
        with pytest.raises(DisconnectedLoss):
            backward(loss)


def test_backward_requires_scalar_loss():
    tape = GradTape()
    w = tape.parameter(np.ones((2, 2)))
    out = compute.relu(w)
    with pytest.raises(ShapeMismatch):
        backward(out)


def test_mixing_tapes_raises():
    t1, t2 = GradTape(), GradTape()
    a = t1.parameter(np.ones((1, 1)))
    b = t2.parameter(np.ones((1, 1)))
    with pytest.raises(ValueError):
        compute.add(a, b)


def test_constants_are_not_recorded():
    tape = GradTape()
    w = tape.parameter(np.ones((2, 2)))
    c = Tensor2(np.ones((2, 2)))
    loss = total(compute.matmul(w, c))
    before = len(tape._records)
    (grad,) = backward(loss)
    np.testing.assert_array_equal(grad, np.full((2, 2), 2.0))
    assert len(tape._records) == before  # backward itself records nothing


def test_a_tape_lives_as_long_as_a_tensor_on_it():
    # a tensor refers to its tape and no record refers to a tensor, so with
    # the cyclic collector off the tape outlives every name bound to it but
    # not its last tensor
    enabled = gc.isenabled()
    gc.disable()
    try:
        tape = GradTape()
        w = tape.parameter(np.full((2, 2), 3.0))
        loss = sum_squares(w)
        tape_ref = weakref.ref(tape)
        del tape
        assert tape_ref() is not None and tape_ref() is loss.tape
        (grad,) = backward(loss)
        np.testing.assert_array_equal(grad, np.full((2, 2), 6.0))
        del w
        assert tape_ref() is not None
        del loss
        assert tape_ref() is None
    finally:
        if enabled:
            gc.enable()


def test_an_op_output_no_pull_reads_is_freed_with_its_tensor():
    # the least-squares pulls read the deviations, not the scores
    enabled = gc.isenabled()
    gc.disable()
    try:
        tape = GradTape()
        w = tape.parameter(np.ones((3, 1)))
        scores = compute.add(w, w)
        loss = compute.least_squares(scores, scores, 1.0, 0.0)
        scores_ref = weakref.ref(scores.data)
        del scores
        assert scores_ref() is None
        (grad,) = backward(loss)
        # the scores get 2 (1 + 2) / 3 from the two least-squares terms, and w
        # gets that twice through the add
        np.testing.assert_allclose(grad, np.full((3, 1), 4.0), rtol=1e-15)
    finally:
        if enabled:
            gc.enable()


def test_backward_is_deterministic():
    def run():
        rng = np.random.default_rng(10)
        tape = GradTape()
        w = tape.parameter(rng.normal(size=(4, 4)))
        x = Tensor2(rng.normal(size=(6, 4)))
        loss = compute.least_squares(
            compute.relu(compute.matmul(x, w)), np.zeros((1, 1)), 0.0, 0.0
        )
        return backward(loss)[0]

    a, b = run(), run()
    assert a.tobytes() == b.tobytes()
