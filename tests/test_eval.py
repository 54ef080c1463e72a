import hashlib
import tracemalloc

import numpy as np
import pytest

from dane import eval as ev
from dane.errors import (
    EmptyInput,
    LabelVocabularyMismatch,
    NodeIdOutOfRange,
    NonFiniteValue,
    ShapeMismatch,
    SingleClassDegenerate,
    TransferProtocolError,
)

from conftest import numeric_grad


def blob_embeddings(seed, n_per_class, centers, spread=0.4):
    """Well-separated Gaussian blobs plus their single-label mapping."""
    rng = np.random.default_rng(seed)
    rows, mapping = [], {}
    node = 0
    for ci, center in enumerate(centers):
        for _ in range(n_per_class):
            rows.append(center + spread * rng.normal(size=len(center)))
            mapping[node] = (f"c{ci}",)
            node += 1
    return np.array(rows), ev.LabelSet.from_mapping(mapping)


# --- label sets ------------------------------------------------------------------


def test_labelset_from_mapping_sorts_vocabulary():
    ls = ev.LabelSet.from_mapping({0: ("zebra",), 1: ("ant",), 2: ("ant",)})
    assert ls.classes == ("ant", "zebra")
    assert ls.assignments[0] == (1,)
    assert not ls.multi_label
    assert ls.num_classes == 2


def test_labelset_detects_multi_label():
    ls = ev.LabelSet.from_mapping({0: ("a", "b"), 1: ("a",)})
    assert ls.multi_label
    assert ls.assignments[0] == (0, 1)


def test_labelset_rejects_unknown_class():
    with pytest.raises(LabelVocabularyMismatch):
        ev.LabelSet.from_mapping({0: ("a",)}, classes=("b", "c"))


def test_labelset_rejects_empty_assignment():
    with pytest.raises(ValueError):
        ev.LabelSet(("a",), {0: ()}, multi_label=False)


def test_labelset_rejects_multiple_labels_in_single_label_mode():
    with pytest.raises(ValueError):
        ev.LabelSet(("a", "b"), {0: (0, 1)}, multi_label=False)


def test_target_matrix():
    ls = ev.LabelSet.from_mapping({0: ("a", "c"), 5: ("b",)})
    y = ls.target_matrix(np.array([0, 5]))
    np.testing.assert_array_equal(y, [[1, 0, 1], [0, 1, 0]])


def test_align_label_sets_shares_union_vocabulary():
    a, b = ev.align_label_sets({0: ("x",)}, {0: ("y",), 1: ("z",)})
    assert a.classes == b.classes == ("x", "y", "z")
    assert a.assignments[0] == (0,)
    assert b.assignments[1] == (2,)
    assert not a.multi_label
    a, b = ev.align_label_sets({0: ("x",)}, {0: ("y", "x")})
    assert a.multi_label and b.multi_label  # multi-label if either file is
    with pytest.raises(ValueError, match="node 5 has an empty label set"):
        ev.align_label_sets({0: ("x",)}, {0: ("y",), 5: ()})


# --- F1 ---------------------------------------------------------------------------


def indicator(rows, num_classes):
    out = np.zeros((len(rows), num_classes), dtype=bool)
    for i, labels in enumerate(rows):
        out[i, list(labels)] = True
    return out


def test_f1_single_label_worked_example():
    true = indicator([(0,), (0,), (1,), (2,)], 3)
    pred = indicator([(0,), (1,), (1,), (1,)], 3)
    micro, macro, per_class = ev.f1_scores(true, pred, 3)
    np.testing.assert_allclose(per_class, [2 / 3, 0.5, 0.0], rtol=1e-15)
    assert micro == pytest.approx(0.5, rel=1e-15)
    assert macro == pytest.approx((2 / 3 + 0.5 + 0.0) / 3, rel=1e-15)


def test_f1_multi_label_worked_example():
    true = indicator([(0, 1), (0,)], 2)
    pred = indicator([(0,), (0, 1)], 2)
    micro, macro, per_class = ev.f1_scores(true, pred, 2)
    np.testing.assert_allclose(per_class, [1.0, 0.0], rtol=1e-15)
    assert micro == pytest.approx(2 / 3, rel=1e-15)
    assert macro == pytest.approx(0.5, rel=1e-15)


def test_f1_micro_equals_accuracy_for_single_label():
    rng = np.random.default_rng(0)
    true_idx = rng.integers(0, 4, size=50)
    pred_idx = rng.integers(0, 4, size=50)
    micro, _, _ = ev.f1_scores(
        indicator([(i,) for i in true_idx], 4), indicator([(i,) for i in pred_idx], 4), 4
    )
    assert micro == pytest.approx((true_idx == pred_idx).mean(), rel=1e-12)


def test_f1_perfect_prediction():
    true = indicator([(0,), (1,), (2,)], 3)
    micro, macro, per_class = ev.f1_scores(true, true, 3)
    assert micro == macro == 1.0
    np.testing.assert_array_equal(per_class, [1.0, 1.0, 1.0])


def test_f1_empty_class_scores_zero_not_nan():
    true = indicator([(0,), (0,)], 3)
    pred = indicator([(0,), (0,)], 3)
    _, macro, per_class = ev.f1_scores(true, pred, 3)
    assert per_class[1] == per_class[2] == 0.0
    assert macro == pytest.approx(1 / 3, rel=1e-15)


def test_f1_rejects_empty_input():
    with pytest.raises(EmptyInput):
        ev.f1_scores(np.zeros((0, 2), dtype=bool), np.zeros((0, 2), dtype=bool), 2)


# --- classifier -------------------------------------------------------------------


def test_classifier_separates_blobs():
    x, labels = blob_embeddings(0, 30, [(3, 0), (-3, 0), (0, 3)])
    clf = ev.train_classifier(x, labels, seed=1)
    predictions = clf.predict(x)
    true = np.array([labels.assignments[i][0] for i in range(len(x))])
    assert (predictions == true).mean() >= 0.95
    assert clf.source_loss < np.log(3)  # better than the zero-weight start


def test_classifier_is_deterministic():
    x, labels = blob_embeddings(2, 20, [(2, 2), (-2, -2)])
    a = ev.train_classifier(x, labels, seed=3)
    b = ev.train_classifier(x, labels, seed=3)
    assert a.weights.tobytes() == b.weights.tobytes()
    assert a.bias.tobytes() == b.bias.tobytes()
    assert a.source_loss == b.source_loss


def test_classifier_l2_shrinks_weights():
    x, labels = blob_embeddings(4, 20, [(2, 0), (-2, 0)])
    loose = ev.train_classifier(x, labels, l2=0.0, seed=0)
    tight = ev.train_classifier(x, labels, l2=1.0, seed=0)
    assert np.linalg.norm(tight.weights) < np.linalg.norm(loose.weights)


def test_classifier_multi_label_thresholds_at_half():
    clf = ev.Classifier(
        weights=np.array([[1.0, -1.0]]),
        bias=np.zeros((1, 2)),
        classes=("a", "b"),
        multi_label=True,
        l2=0.0,
        source_loss=0.0,
        train_fingerprint="",
    )
    pred = clf.predict(np.array([[2.0], [-2.0]]))
    np.testing.assert_array_equal(pred, [[True, False], [False, True]])


def test_classifier_multi_label_training():
    # two overlapping concepts: sign of each coordinate
    rng = np.random.default_rng(5)
    x = rng.normal(size=(120, 2)) * 3
    mapping = {}
    for i, row in enumerate(x):
        names = []
        if row[0] > 0:
            names.append("right")
        if row[1] > 0:
            names.append("up")
        mapping[i] = tuple(names) or ("neither",)
    labels = ev.LabelSet.from_mapping(mapping, multi_label=True)
    clf = ev.train_classifier(x, labels, seed=6, epochs=300)
    pred = clf.predict(x)
    true = labels.target_matrix(np.arange(len(x))).astype(bool)
    agreement = (pred == true).mean()
    assert agreement >= 0.9


def test_classifier_rejects_single_class():
    x = np.ones((5, 2))
    labels = ev.LabelSet.from_mapping({i: ("only",) for i in range(5)})
    with pytest.raises(SingleClassDegenerate):
        ev.train_classifier(x, labels)


def test_classifier_rejects_no_labels():
    labels = ev.LabelSet(("a", "b"), {}, multi_label=False)
    with pytest.raises(EmptyInput):
        ev.train_classifier(np.ones((4, 2)), labels)


@pytest.mark.parametrize(
    "option, message",
    [
        (dict(epochs=-3), "epochs must be non-negative"),
        (dict(lr=0.0), "lr must be positive"),
        (dict(lr=-0.1), "lr must be positive"),
        (dict(l2=-1e-3), "l2 must be non-negative"),
    ],
)
def test_classifier_rejects_out_of_range_options(option, message):
    x, labels = blob_embeddings(7, 5, [(2, 0), (-2, 0)])
    with pytest.raises(ValueError, match=message):
        ev.train_classifier(x, labels, **option)


@pytest.mark.parametrize("epochs", [200, 0])
def test_classifier_rejects_a_non_finite_labeled_row(epochs):
    x, labels = blob_embeddings(7, 5, [(2, 0), (-2, 0)])
    x[3, 1] = np.nan
    with pytest.raises(NonFiniteValue):
        ev.train_classifier(x, labels, epochs=epochs)


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_classifier_rejects_a_probe_that_overflows():
    x, labels = blob_embeddings(7, 5, [(2, 0), (-2, 0)])
    with pytest.raises(NonFiniteValue):
        ev.train_classifier(x, labels, lr=1e300)


def test_classifier_random_labels_score_at_chance():
    # labels drawn independently of the embeddings: held-out macro F1 must
    # hover at 1/num_classes, averaged over reshuffles
    rng = np.random.default_rng(0)
    x = rng.normal(size=(120, 6))
    scores = []
    for seed in range(20):
        label_rng = np.random.default_rng(100 + seed)
        assign = label_rng.integers(0, 3, size=120)
        train_ids = np.arange(60)
        test_ids = np.arange(60, 120)
        labels = ev.LabelSet.from_mapping(
            {int(i): (f"c{assign[i]}",) for i in train_ids}
        )
        clf = ev.train_classifier(x[train_ids], labels, seed=seed)
        pred_idx = clf.predict(x[test_ids])
        # vocabulary sorts to c0 < c1 < c2, so class index == digit
        one_hot = np.eye(3, dtype=bool)
        _, macro, _ = ev.f1_scores(one_hot[assign[test_ids]], one_hot[pred_idx], 3)
        scores.append(macro)
    assert abs(float(np.mean(scores)) - 1.0 / 3.0) <= 0.1


# --- the probe's loss and its gradient ----------------------------------------------


def probe_data(multi_label):
    """A fixed source and target pair of embeddings with labels: three
    overlapping blobs, or points labeled by the signs of two coordinates."""
    if not multi_label:
        centers = [(1.5, 0.0, 0.5), (-1.5, 0.5, 0.0), (0.0, -1.5, 1.0)]
        return (*blob_embeddings(31, 12, centers, spread=1.0),
                *blob_embeddings(32, 12, centers, spread=1.2))
    rng = np.random.default_rng(33)
    clouds, mappings = [], []
    for n in (40, 35):
        x = rng.normal(size=(n, 3)) * 2.0
        clouds.append(x)
        mappings.append({
            i: tuple(name for name, on in (("right", row[0] > 0), ("up", row[1] > 0)) if on)
            or ("neither",)
            for i, row in enumerate(x)
        })
    labels_src, labels_tgt = ev.align_label_sets(*mappings)
    return clouds[0], labels_src, clouds[1], labels_tgt


def probe(weights, bias, labels):
    return ev.Classifier(
        weights=weights, bias=bias, classes=labels.classes, multi_label=labels.multi_label,
        l2=0.0, source_loss=0.0, train_fingerprint="",
    )


def test_probe_loss_at_uniform_logits_is_log_classes():
    labels = ev.LabelSet(("a", "b", "c"), {0: (0,)}, multi_label=False)
    clf = probe(np.zeros((2, 3)), np.zeros((1, 3)), labels)
    assert ev.log_loss(clf, np.array([[0.3, -1.0]]), labels) == pytest.approx(
        np.log(3.0), rel=1e-15
    )


def test_probe_multi_label_loss_matches_naive():
    rng = np.random.default_rng(0)
    z = rng.normal(size=(4, 3))
    t = (rng.random((4, 3)) < 0.5).astype(float)
    t[:, 0] = 1.0  # every node needs a label
    labels = ev.LabelSet(
        ("a", "b", "c"), {i: tuple(np.flatnonzero(row)) for i, row in enumerate(t)}, True
    )
    s = 1.0 / (1.0 + np.exp(-z))
    naive = -(t * np.log(s) + (1 - t) * np.log(1 - s)).mean()
    # identity weights make the embeddings the logits
    got = ev.log_loss(probe(np.eye(3), np.zeros((1, 3)), labels), z, labels)
    assert got == pytest.approx(naive, rel=1e-12)


def test_probe_loss_gradient_closed_form():
    # (softmax - y) / n for one row of zero logits
    _, dz = ev._cross_entropy(np.zeros((1, 3)), np.array([[0.0, 1.0, 0.0]]), False)
    np.testing.assert_allclose(dz, np.array([[1, -2, 1]]) / 3.0, atol=1e-15)
    # (sigmoid - y) / (n C), sigmoid(0) = 1/2
    _, dz = ev._cross_entropy(np.zeros((2, 2)), np.array([[1.0, 0.0], [0.0, 0.0]]), True)
    np.testing.assert_array_equal(dz, np.array([[-0.125, 0.125], [0.125, 0.125]]))


@pytest.mark.parametrize("multi_label", [False, True], ids=["single-label", "multi-label"])
def test_probe_loss_gradient_matches_central_differences(multi_label):
    # each step of the probe, from zero weights and then from the first
    # step's, moves by -lr times the numeric gradient of the l2-penalised
    # mean log loss
    x, labels, _, _ = probe_data(multi_label)
    l2, lr = 0.05, 0.5

    def penalised(arrays):
        w, b = arrays
        return ev.log_loss(probe(w, b, labels), x, labels) + l2 * (w * w).sum()

    w, b = np.zeros((x.shape[1], labels.num_classes)), np.zeros((1, labels.num_classes))
    for epochs in (1, 2):
        grad_w, grad_b = numeric_grad(penalised, [w.copy(), b.copy()])
        clf = ev.train_classifier(x, labels, l2=l2, seed=0, epochs=epochs, lr=lr)
        np.testing.assert_allclose(clf.weights, w - lr * grad_w, rtol=1e-6, atol=1e-9)
        np.testing.assert_allclose(clf.bias, b - lr * grad_b, rtol=1e-6, atol=1e-9)
        w, b = clf.weights, clf.bias


@pytest.mark.parametrize(
    "multi_label, weights_sha256, report_sha256",
    [
        (False, "2022b0dab232e8c08935bb1f3c027810a2ad84ebb4cdae654760295f9caa7707",
         "78936e44fd449efd545dc5f0f7c019c14dd0ea1171ebce9d504e142e5a17896d"),
        (True, "04c832053d27cf1f6e0163e06b1bdff6cfac0fac727a27c0dbbd9582951f1d13",
         "c930999b1cf94652d8fe85f9128ab8877ace0bf8f7a27d96ed6a71155e206f58"),
    ],
    ids=["single-label", "multi-label"],
)
def test_probe_output_is_pinned(multi_label, weights_sha256, report_sha256):
    # recorded when the probe was differentiated on the autodiff tape: a
    # change in the order of its arithmetic changes these bytes
    x_src, labels_src, x_tgt, labels_tgt = probe_data(multi_label)
    assert labels_src.multi_label == multi_label
    clf = ev.train_classifier(x_src, labels_src, l2=1e-2, seed=34, epochs=150, lr=0.3)
    report = ev.evaluate_transfer(clf, x_tgt, labels_tgt, direction="A->B")
    got = hashlib.sha256(clf.weights.tobytes() + clf.bias.tobytes()).hexdigest()
    assert got == weights_sha256
    assert hashlib.sha256(report.to_json().encode()).hexdigest() == report_sha256


# --- transfer evaluation ----------------------------------------------------------


def test_transfer_report_fields_and_gap_identity():
    x_src, labels_src = blob_embeddings(9, 25, [(3, 0), (-3, 0)])
    x_tgt, labels_tgt = blob_embeddings(10, 25, [(3, 0.5), (-3, -0.5)])
    labels_src = ev.LabelSet.from_mapping(
        {i: labels_src.names_for(i) for i in labels_src.assignments},
        classes=("c0", "c1"),
    )
    labels_tgt = ev.LabelSet.from_mapping(
        {i: labels_tgt.names_for(i) for i in labels_tgt.assignments},
        classes=("c0", "c1"),
    )
    clf = ev.train_classifier(x_src, labels_src, seed=11)
    report = ev.evaluate_transfer(clf, x_tgt, labels_tgt, direction="A->B")
    assert report.direction == "A->B"
    assert report.gap == report.l_tgt - report.l_src
    assert 0.0 <= report.micro_f1 <= 1.0
    assert set(report.per_class_f1) == {"c0", "c1"}
    assert report.micro_f1 > 0.9  # blobs barely moved


def test_transfer_refuses_training_embeddings():
    x, labels = blob_embeddings(12, 20, [(2, 0), (-2, 0)])
    clf = ev.train_classifier(x, labels, seed=13)
    with pytest.raises(TransferProtocolError):
        ev.evaluate_transfer(clf, x, labels)


def test_transfer_rejects_vocabulary_mismatch():
    x, labels = blob_embeddings(14, 20, [(2, 0), (-2, 0)])
    clf = ev.train_classifier(x, labels, seed=15)
    other = ev.LabelSet.from_mapping({0: ("dog",), 1: ("cat",)})
    with pytest.raises(LabelVocabularyMismatch):
        ev.evaluate_transfer(clf, x + 1.0, other)


def test_transfer_rejects_a_non_finite_target_row():
    x, labels = blob_embeddings(14, 20, [(2, 0), (-2, 0)])
    clf = ev.train_classifier(x, labels, seed=15)
    target = x + 1.0
    target[5, 0] = np.inf
    with pytest.raises(NonFiniteValue):
        ev.evaluate_transfer(clf, target, labels)


def test_labels_beyond_the_embeddings_are_rejected():
    labels_a, labels_b = ev.align_label_sets({0: ("x",), 1: ("y",)}, {0: ("x",), 999: ("y",)})
    v_a, v_b = np.array([[1.0, 0.0], [0.0, 1.0]]), np.zeros((3, 2))
    with pytest.raises(NodeIdOutOfRange, match="node 999, but the embeddings have 3 rows"):
        ev.train_classifier(v_b, labels_b)
    clf = ev.train_classifier(v_a, labels_a, seed=0)
    with pytest.raises(NodeIdOutOfRange, match="node 999, but the embeddings have 3 rows"):
        ev.evaluate_transfer(clf, v_b, labels_b)
    with pytest.raises(NodeIdOutOfRange, match="node 999, but the embeddings have 3 rows"):
        ev.log_loss(clf, v_b, labels_b)
    negative = ev.LabelSet(labels_a.classes, {-1: (0,), 1: (1,)}, multi_label=False)
    with pytest.raises(NodeIdOutOfRange, match="node -1"):
        ev.train_classifier(v_b, negative)


def test_transfer_report_json_round_trip():
    report = ev.TransferReport(
        direction="B->A",
        micro_f1=0.1 + 0.2,
        macro_f1=1 / 3,
        per_class_f1={"a": 0.5, "b": 1 / 7},
        l_src=0.123456789123456789,
        l_tgt=1.0,
        gap=1.0 - 0.123456789123456789,
    )
    text = report.to_json()
    assert text == (
        '{\n  "direction": "B->A",\n  "gap": 0.8765432108765432,\n'
        '  "l_src": 0.12345678912345678,\n  "l_tgt": 1.0,\n'
        '  "macro_f1": 0.3333333333333333,\n  "micro_f1": 0.30000000000000004,\n'
        '  "per_class_f1": {\n    "a": 0.5,\n    "b": 0.14285714285714285\n  }\n}'
    )
    back = ev.TransferReport.from_json(text)
    assert back == report
    assert back.to_json() == text  # byte-stable re-serialization


# --- distribution distance ---------------------------------------------------------


def test_mmd_identical_clouds_is_exactly_zero():
    rng = np.random.default_rng(16)
    v = rng.normal(size=(40, 8))
    assert ev.distribution_distance(v, v.copy()) == 0.0


def test_mmd_is_exactly_symmetric():
    rng = np.random.default_rng(17)
    a, b = rng.normal(size=(30, 5)), rng.normal(size=(25, 5)) + 0.7
    assert ev.distribution_distance(a, b) == ev.distribution_distance(b, a)


def test_mmd_grows_with_separation():
    rng = np.random.default_rng(18)
    base = rng.normal(size=(60, 4))
    near = rng.normal(size=(60, 4)) + 0.3
    far = rng.normal(size=(60, 4)) + 4.0
    d_near = ev.distribution_distance(base, near)
    d_far = ev.distribution_distance(base, far)
    assert 0.0 < d_near < d_far
    assert d_far <= 2.0  # RBF kernel caps the statistic


def test_mmd_translation_invariance():
    rng = np.random.default_rng(19)
    a, b = rng.normal(size=(30, 3)), rng.normal(size=(35, 3)) + 1.0
    shifted = ev.distribution_distance(a + 5.0, b + 5.0)
    assert shifted == pytest.approx(ev.distribution_distance(a, b), rel=1e-9)


def test_mmd_non_negative_on_near_identical_clouds():
    rng = np.random.default_rng(20)
    a = rng.normal(size=(50, 6))
    b = a + 1e-12 * rng.normal(size=(50, 6))
    assert ev.distribution_distance(a, b) >= 0.0


def _mmd_out_of_place(v_a, v_b):
    # the plain formula over the whole pooled (2n)^2 matrix, every step into
    # a fresh array; the library's blocked sums must agree with it to rounding
    key_a, key_b = (v_a.shape, v_a.tobytes()), (v_b.shape, v_b.tobytes())
    if key_b < key_a:
        v_a, v_b = v_b, v_a
    pooled = np.vstack([v_a, v_b])
    sq = (pooled * pooled).sum(axis=1)
    d2 = np.maximum(sq[:, None] + sq[None, :] - 2.0 * (pooled @ pooled.T), 0.0)
    off_diag = d2[np.triu_indices_from(d2, k=1)]
    k = np.exp(-d2 / np.median(off_diag[off_diag > 0]))
    na = v_a.shape[0]
    return max(float(k[:na, :na].mean() + k[na:, na:].mean() - 2.0 * k[:na, na:].mean()), 0.0)


# 1,100 + 900 rows: the first cloud's rows span three blocks of _BLOCK_CELLS
@pytest.mark.parametrize(
    "na, nb, d, scale, shift",
    [(5, 7, 3, 1.0, 0.0), (300, 300, 32, 1.0, 0.3), (50, 30, 8, 10.0, 1.0), (40, 40, 2, 1e-3, 0.0),
     (1100, 900, 8, 1.0, 0.5)],
)
def test_mmd_matches_out_of_place_formula(na, nb, d, scale, shift):
    rng = np.random.default_rng(22)
    a = scale * rng.normal(size=(na, d))
    b = scale * rng.normal(size=(nb, d)) + shift
    assert ev.distribution_distance(a, b) == pytest.approx(_mmd_out_of_place(a, b), rel=1e-12)


# blocks of one row, and of a few rows formed again on every pass
_SMALL_BLOCKS = pytest.mark.parametrize(
    "block_cells, kept_cells", [(1, 0), (97, 0), (97, 1 << 23)], ids=["rows", "small", "small-kept"]
)


@_SMALL_BLOCKS
@pytest.mark.parametrize("na, nb", [(1, 1), (1, 30), (23, 17), (64, 64)])
def test_mmd_does_not_depend_on_the_block_size(monkeypatch, block_cells, kept_cells, na, nb):
    rng = np.random.default_rng(na + nb)
    a, b = rng.normal(size=(na, 5)), rng.normal(size=(nb, 5)) + 0.4
    want = _mmd_out_of_place(a, b)
    monkeypatch.setattr(ev, "_BLOCK_CELLS", block_cells)
    monkeypatch.setattr(ev, "_KEPT_CELLS", kept_cells)
    assert ev.distribution_distance(a, b) == pytest.approx(want, rel=1e-12)


@pytest.mark.parametrize("n", [1, 2, 7, 31, 64, 1100])
def test_mmd_is_exact_on_equal_and_swapped_clouds_at_any_size(n):
    # 1,100 rows per cloud: blocks end inside each cloud
    rng = np.random.default_rng(n)
    v, w = rng.normal(size=(n, 6)), rng.normal(size=(n + 3, 6)) + 0.4
    assert ev.distribution_distance(v, v.copy()) == 0.0
    assert ev.distribution_distance(v, w) == ev.distribution_distance(w, v)


@_SMALL_BLOCKS
def test_mmd_is_exact_on_equal_and_swapped_clouds_in_small_blocks(monkeypatch, block_cells, kept_cells):
    monkeypatch.setattr(ev, "_BLOCK_CELLS", block_cells)
    monkeypatch.setattr(ev, "_KEPT_CELLS", kept_cells)
    rng = np.random.default_rng(24)
    for n in (2, 5, 19, 40):
        v, w = rng.normal(size=(n, 3)), rng.normal(size=(n + 1, 3))
        assert ev.distribution_distance(v, v.copy()) == 0.0
        assert ev.distribution_distance(v, w) == ev.distribution_distance(w, v)


def _as_pieces(values, parts=3):
    return [(0, part) for part in np.array_split(values, parts)].__iter__


# a cap of 4 patterns makes every middle bin too large to sort, so the
# search counts it again by its next bits, down to single patterns
@pytest.mark.parametrize("cap", [1 << 20, 4], ids=["default", "cap-4"])
@pytest.mark.parametrize("count", [1, 2, 9, 10, 301, 302])
def test_median_of_positive_equals_np_median(monkeypatch, cap, count):
    monkeypatch.setattr(ev, "_BLOCK_CELLS", cap)
    rng = np.random.default_rng(count)
    spread = 10.0 ** rng.uniform(-300, 250, size=count)
    # a few ulps apart, with ties: one bin of leading bits holds them all
    close = 1.5 * (1.0 + 1e-15 * rng.integers(0, 4, size=count))
    repeated = rng.choice(spread, size=count)
    # odd in its last bit, so a middle pair taken one pattern off does not
    # round back to it
    tied = np.full(count, np.nextafter(2.5, 3.0))
    for positive in (spread, close, repeated, tied):
        values = np.concatenate([positive, np.zeros(5)])
        rng.shuffle(values)
        assert ev._median_of_positive(_as_pieces(values)) == np.median(positive)


def test_median_of_no_positive_value_is_one():
    assert ev._median_of_positive(_as_pieces(np.zeros(6))) == 1.0
    assert ev._median_of_positive(_as_pieces(np.zeros(0))) == 1.0


def test_mmd_memory_does_not_grow_with_the_pooled_square():
    rng = np.random.default_rng(25)
    n = 3000
    a, b = rng.normal(size=(n, 32)), rng.normal(size=(n, 32)) + 0.1
    kernel = 8 * (2 * n) ** 2
    tracemalloc.start()
    try:
        ev.distribution_distance(a, b)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert peak < kernel / 4


def test_mmd_input_validation():
    with pytest.raises(ShapeMismatch):
        ev.distribution_distance(np.zeros((3, 2)), np.zeros((3, 4)))
    with pytest.raises(EmptyInput):
        ev.distribution_distance(np.zeros((0, 2)), np.zeros((3, 2)))


# --- 2-D projection -----------------------------------------------------------------


def test_projection_matches_pca_oracle():
    rng = np.random.default_rng(21)
    x = rng.normal(size=(80, 6)) @ np.diag([5, 3, 1, 0.5, 0.2, 0.1])
    out = ev.project_2d(x)
    assert out.shape == (80, 2)
    centered = x - x.mean(axis=0)
    eigenvalues = np.sort(np.linalg.eigvalsh(np.cov(centered.T)))[::-1]
    np.testing.assert_allclose(out.var(axis=0, ddof=1), eigenvalues[:2], rtol=1e-9)
    assert out.var(axis=0)[0] >= out.var(axis=0)[1]
    # the two axes are uncorrelated
    assert abs(np.corrcoef(out.T)[0, 1]) < 1e-8


def test_projection_is_deterministic_in_sign():
    rng = np.random.default_rng(22)
    x = rng.normal(size=(30, 4))
    a, b = ev.project_2d(x), ev.project_2d(x.copy())
    assert a.tobytes() == b.tobytes()


def test_projection_centers_output():
    rng = np.random.default_rng(23)
    x = rng.normal(size=(40, 3)) + 100.0
    out = ev.project_2d(x)
    np.testing.assert_allclose(out.mean(axis=0), [0.0, 0.0], atol=1e-10)


def test_projection_rank_deficient_pads_and_warns():
    t = np.linspace(0, 1, 20)[:, None]
    line = t @ np.array([[1.0, 2.0, -1.0]])  # rank 1
    with pytest.warns(UserWarning, match="rank"):
        out = ev.project_2d(line)
    np.testing.assert_array_equal(out[:, 1], np.zeros(20))
    assert out[:, 0].var() > 0


def test_projection_input_validation():
    with pytest.raises(ShapeMismatch):
        ev.project_2d(np.zeros((5, 1)))
    with pytest.raises(EmptyInput):
        ev.project_2d(np.zeros((0, 3)))
