import numpy as np
import pytest

from dane import eval as ev
from dane.errors import (
    EmptyInput,
    LabelVocabularyMismatch,
    NodeIdOutOfRange,
    ShapeMismatch,
    SingleClassDegenerate,
    TransferProtocolError,
)


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
    # the plain formula, every step into a fresh array; the library's
    # in-place version must give the same bits
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


@pytest.mark.parametrize(
    "na, nb, d, scale, shift",
    [(5, 7, 3, 1.0, 0.0), (300, 300, 32, 1.0, 0.3), (50, 30, 8, 10.0, 1.0), (40, 40, 2, 1e-3, 0.0)],
)
def test_mmd_equals_out_of_place_formula_bitwise(na, nb, d, scale, shift):
    rng = np.random.default_rng(22)
    a = scale * rng.normal(size=(na, d))
    b = scale * rng.normal(size=(nb, d)) + shift
    assert ev.distribution_distance(a, b) == _mmd_out_of_place(a, b)


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
