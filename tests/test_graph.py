import numpy as np
import pytest
import scipy.sparse
import scipy.stats

from dane.errors import (
    AllNodesIsolated,
    DaneError,
    FeatureRowMissing,
    InconsistentFeatureWidth,
    MalformedLine,
    NodeIdOutOfRange,
)
from dane.graph import (
    Graph,
    GraphPair,
    NegativeSampler,
    PropagationMatrix,
    build_propagation,
    load_graph,
    load_json,
    load_labels,
    write_edge_file,
    write_feature_file,
    write_label_file,
)
from dane.synth import SynthSpec, generate_pair


def path_graph(n, feature_dim=2):
    edges = [(i, i + 1) for i in range(n - 1)]
    return Graph(n, edges, np.arange(n * feature_dim, dtype=float).reshape(n, feature_dim))


def random_graph(n, p, seed, feature_dim=3):
    rng = np.random.default_rng(seed)
    mask = np.triu(rng.random((n, n)) < p, k=1)
    edges = np.argwhere(mask)
    return Graph(n, edges, rng.normal(size=(n, feature_dim)))


# --- Graph construction -------------------------------------------------------


def test_edges_are_canonicalized_and_deduplicated():
    g = Graph(3, [(1, 0), (0, 1), (2, 1), (0, 1)], np.zeros((3, 2)))
    np.testing.assert_array_equal(g.edges, [[0, 1], [1, 2]])
    np.testing.assert_array_equal(g.degrees, [1, 2, 1])


def test_degrees_on_path_graph():
    g = path_graph(4)
    np.testing.assert_array_equal(g.degrees, [1, 2, 2, 1])
    assert g.num_edges == 3


def test_self_loop_rejected_in_constructor():
    with pytest.raises(ValueError):
        Graph(2, [(0, 0)], np.zeros((2, 1)))


def test_edge_out_of_range_rejected():
    with pytest.raises(NodeIdOutOfRange):
        Graph(2, [(0, 5)], np.zeros((2, 1)))


def test_feature_row_count_must_match():
    with pytest.raises(ValueError):
        Graph(3, [(0, 1)], np.zeros((2, 4)))


def test_arrays_are_read_only():
    g = path_graph(3)
    with pytest.raises(ValueError):
        g.edges[0, 0] = 9
    with pytest.raises(ValueError):
        g.features[0, 0] = 9.0


def test_pair_requires_matching_feature_width():
    a = Graph(2, [(0, 1)], np.zeros((2, 3)))
    b = Graph(2, [(0, 1)], np.zeros((2, 4)))
    with pytest.raises(InconsistentFeatureWidth):
        GraphPair(a, b)
    pair = GraphPair(a, Graph(3, [(0, 2)], np.zeros((3, 3))))
    assert pair.source is a


# --- propagation matrix -------------------------------------------------------


def test_propagation_entries_on_path_graph():
    # nodes 0-1-2: degrees 1, 2, 1
    p = build_propagation(path_graph(3)).matrix.toarray()
    assert p[0, 1] == pytest.approx(0.4082482904638631, rel=1e-15)  # 1/sqrt(6)
    assert p[1, 1] == pytest.approx(1.0 / 3.0, rel=1e-15)
    assert p[0, 0] == pytest.approx(0.5, rel=1e-15)
    assert p[0, 2] == 0.0


def test_propagation_two_nodes_single_edge():
    g = Graph(2, [(0, 1)], np.zeros((2, 1)))
    p = build_propagation(g).matrix.toarray()
    np.testing.assert_allclose(p, np.full((2, 2), 0.5), rtol=0, atol=0)


def test_propagation_is_exactly_symmetric():
    # spmm pulls its gradient P.T @ g as P @ g: both must be the same bits
    shifted = generate_pair(SynthSpec(nodes_per_block=40, divergence=0.3, seed=5)).pair
    isolated = Graph(50, [(0, 1), (1, 2), (3, 4), (10, 30)], np.zeros((50, 1)))
    rng = np.random.default_rng(6)
    for g in (random_graph(40, 0.1, seed=0), shifted.source, shifted.target, isolated):
        m = build_propagation(g).matrix
        diff = (m - m.T).tocoo()
        assert diff.nnz == 0 or np.abs(diff.data).max() == 0.0
        upstream = rng.normal(size=(g.num_nodes, 9))
        assert (m @ upstream).tobytes() == (m.T @ upstream).tobytes()


@pytest.mark.parametrize(
    "dense",
    [[[1.0, 0.5], [0.25, 1.0]], [[1.0, 0.5]], [[1.0, np.nan], [np.nan, 1.0]]],
    ids=["asymmetric", "not-square", "nan"],
)
def test_propagation_matrix_rejects_a_matrix_that_is_not_exactly_symmetric(dense):
    with pytest.raises(ValueError, match="not exactly symmetric"):
        PropagationMatrix(scipy.sparse.csr_matrix(np.array(dense)))


def test_propagation_nnz_counts_diagonal_plus_both_orientations():
    g = random_graph(30, 0.15, seed=1)
    p = build_propagation(g)
    assert p.nnz == g.num_nodes + 2 * g.num_edges


def test_propagation_handles_isolated_nodes():
    g = Graph(3, [(0, 1)], np.zeros((3, 1)))
    p = build_propagation(g).matrix.toarray()
    assert p[2, 2] == 1.0  # degree 0: self weight 1/(0+1)
    assert p[2, 0] == p[2, 1] == 0.0


def test_propagation_spectrum_bounded_by_one():
    g = random_graph(25, 0.2, seed=2)
    m = build_propagation(g).matrix.toarray()
    eigenvalues = np.linalg.eigvalsh(m)
    assert np.abs(eigenvalues).max() <= 1.0 + 1e-12


# --- negative sampler ---------------------------------------------------------


def test_sampler_probabilities_three_quarter_power():
    # degrees 16 and 1: weights 8 and 1
    s = NegativeSampler([16, 1], seed=0)
    np.testing.assert_allclose(s.probabilities, [8.0 / 9.0, 1.0 / 9.0], rtol=1e-15)


def test_sampler_never_emits_isolated_nodes():
    s = NegativeSampler([4, 0, 1], seed=3)
    draws = s.sample(200_000)
    assert s.probabilities[1] == 0.0
    assert not (draws == 1).any()
    assert set(np.unique(draws)) <= {0, 2}


def test_sampler_matches_distribution():
    degrees = np.array([1, 2, 3, 4, 10])
    s = NegativeSampler(degrees, seed=4)
    draws = s.sample(200_000)
    counts = np.bincount(draws, minlength=5)
    expected = s.probabilities * draws.size
    _, pvalue = scipy.stats.chisquare(counts, expected)
    assert pvalue > 1e-3


def test_sampler_is_deterministic_per_seed():
    a = NegativeSampler([1, 2, 3], seed=7).sample(1000)
    b = NegativeSampler([1, 2, 3], seed=7).sample(1000)
    c = NegativeSampler([1, 2, 3], seed=8).sample(1000)
    np.testing.assert_array_equal(a, b)
    assert (a != c).any()


def _searchsorted_draws(probabilities, u):
    """Draws by one binary search over every node's cumulative probability,
    the last one that can be drawn and all after it guarded to exactly 1."""
    cumulative = np.cumsum(probabilities)
    cumulative[np.flatnonzero(probabilities)[-1]:] = 1.0
    return np.searchsorted(cumulative, u, side="right")


def _sampler_degree_vectors(seed):
    rng = np.random.default_rng(seed)
    yield from ([1.0], [0.0, 0.0, 5.0], [5.0, 0.0, 0.0], [0, 2, 0, 0, 3, 0])
    # equal weights put cumulative values within an ulp of bucket edges
    yield from ([1.0] * 13, [2.0] * 25 + [0.0])
    for n in (2, 9, 500):
        degrees = rng.integers(0, 40, size=n).astype(float)
        degrees[rng.random(n) < 0.3] = 0.0
        degrees[rng.integers(n)] = 3.0
        yield degrees


@pytest.mark.parametrize("seed", range(4))
def test_sampler_lookup_equals_searchsorted(seed):
    rng = np.random.default_rng(100 + seed)
    for degrees in _sampler_degree_vectors(seed):
        s = NegativeSampler(degrees, seed=seed)
        # bucket edges b/m, one ulp below them (where u*m can round up to
        # the edge), the cumulative values themselves and one ulp below
        m = s._cumulative.size
        edges = np.arange(m) / m
        u = np.concatenate([
            rng.random(2000), edges, np.nextafter(edges[1:], 0.0), [np.nextafter(1.0, 0.0)],
            s._cumulative, np.nextafter(s._cumulative, 0.0),
        ])
        u = u[u < 1.0]
        got = s._lookup(u)
        np.testing.assert_array_equal(got, _searchsorted_draws(s.probabilities, u))
        assert got.dtype == np.int64
        assert (np.asarray(degrees)[got] > 0).all()
        draws = s.sample(3000)
        again = NegativeSampler(degrees, seed=seed)._rng.random(3000)
        np.testing.assert_array_equal(draws, _searchsorted_draws(s.probabilities, again))


def test_sampler_rejects_fully_isolated_graph():
    with pytest.raises(AllNodesIsolated):
        NegativeSampler([0, 0, 0], seed=0)


# --- file round trips ---------------------------------------------------------


def test_graph_file_round_trip(tmp_path):
    g = random_graph(20, 0.2, seed=5)
    write_edge_file(tmp_path / "edges.tsv", g)
    write_feature_file(tmp_path / "features.csv", g)
    back = load_graph(tmp_path / "edges.tsv", tmp_path / "features.csv")
    assert back.edges.tobytes() == g.edges.tobytes()
    assert back.features.tobytes() == g.features.tobytes()


def test_feature_header_is_optional(tmp_path):
    g = random_graph(6, 0.3, seed=6)
    write_edge_file(tmp_path / "e.tsv", g)
    write_feature_file(tmp_path / "f.csv", g)
    body = (tmp_path / "f.csv").read_text()
    (tmp_path / "f.csv").write_text("node_id,f0,f1,f2\n" + body)
    back = load_graph(tmp_path / "e.tsv", tmp_path / "f.csv")
    assert back.features.tobytes() == g.features.tobytes()


def test_feature_header_after_comments_and_blanks(tmp_path):
    (tmp_path / "e.tsv").write_text("0\t1\n")
    (tmp_path / "f.csv").write_text("# note\n\nnode,f0,f1\n0,1.0,2.0\n1,3.0,4.0\n")
    g = load_graph(tmp_path / "e.tsv", tmp_path / "f.csv")
    np.testing.assert_array_equal(g.features, [[1.0, 2.0], [3.0, 4.0]])


@pytest.mark.parametrize(
    "text, line",
    [
        ("node,f0\nnode,f0\n0,1.0\n", 2),  # a second header
        ("# note\n0,1.0\nx,2.0\n", 3),  # a non-integer id after data
    ],
)
def test_feature_non_integer_id_after_first_data_line_rejected(tmp_path, text, line):
    (tmp_path / "e.tsv").write_text("")
    (tmp_path / "f.csv").write_text(text)
    with pytest.raises(MalformedLine, match=rf"f\.csv:{line}: node id"):
        load_graph(tmp_path / "e.tsv", tmp_path / "f.csv")


@pytest.mark.parametrize("kind", ["features", "edges", "labels"])
def test_line_that_is_not_utf8_is_named(tmp_path, kind):
    files = {
        "f.csv": b"0,1.0\n1,2.0\n",
        "e.tsv": b"0\t1\n",
        "l.tsv": "0\tcaf\u00e9\n1\tb\n".encode(),  # UTF-8 beyond ASCII is fine
    }
    bad = {"features": "f.csv", "edges": "e.tsv", "labels": "l.tsv"}[kind]
    line = files[bad].count(b"\n") + 2
    files[bad] += b"# comment\n\xff\n"
    for name, data in files.items():
        (tmp_path / name).write_bytes(data)
    with pytest.raises(MalformedLine, match=rf"{bad}:{line}: not UTF-8 text"):
        load_graph(tmp_path / "e.tsv", tmp_path / "f.csv")
        load_labels(tmp_path / "l.tsv")


def test_label_file_round_trip(tmp_path):
    labels = {0: ("red",), 2: ("blue", "red"), 1: ("blue",)}
    write_label_file(tmp_path / "labels.tsv", labels)
    assert load_labels(tmp_path / "labels.tsv") == labels


def test_edge_comments_and_blanks_are_skipped(tmp_path):
    (tmp_path / "e.tsv").write_text("# header\n\n0\t1\n")
    (tmp_path / "f.csv").write_text("0,1.0\n1,2.0\n")
    g = load_graph(tmp_path / "e.tsv", tmp_path / "f.csv")
    np.testing.assert_array_equal(g.edges, [[0, 1]])


def test_duplicate_and_reversed_edges_are_merged(tmp_path, caplog):
    (tmp_path / "e.tsv").write_text("0\t1\n1\t0\n0\t1\n")
    (tmp_path / "f.csv").write_text("0,1.0\n1,2.0\n")
    with caplog.at_level("WARNING", logger="dane.graph"):
        g = load_graph(tmp_path / "e.tsv", tmp_path / "f.csv")
    assert g.num_edges == 1
    np.testing.assert_array_equal(g.degrees, [1, 1])
    assert [r.getMessage() for r in caplog.records] == [
        f"{tmp_path / 'e.tsv'}: removed 2 duplicate edge(s)"
    ]


def test_self_loops_are_dropped_with_warning(tmp_path, caplog):
    (tmp_path / "e.tsv").write_text("0\t0\n0\t1\n")
    (tmp_path / "f.csv").write_text("0,1.0\n1,2.0\n")
    with caplog.at_level("WARNING", logger="dane.graph"):
        g = load_graph(tmp_path / "e.tsv", tmp_path / "f.csv")
    assert g.num_edges == 1
    assert any("self loop" in r.message for r in caplog.records)


def test_malformed_edge_line(tmp_path):
    (tmp_path / "e.tsv").write_text("0\tx\n")
    (tmp_path / "f.csv").write_text("0,1.0\n1,2.0\n")
    with pytest.raises(MalformedLine):
        load_graph(tmp_path / "e.tsv", tmp_path / "f.csv")


def test_edge_references_unknown_node(tmp_path):
    (tmp_path / "e.tsv").write_text("0\t5\n")
    (tmp_path / "f.csv").write_text("0,1.0\n1,2.0\n")
    with pytest.raises(NodeIdOutOfRange):
        load_graph(tmp_path / "e.tsv", tmp_path / "f.csv")


def test_feature_gap_detected(tmp_path):
    (tmp_path / "e.tsv").write_text("0\t1\n")
    (tmp_path / "f.csv").write_text("0,1.0\n2,2.0\n")
    with pytest.raises(FeatureRowMissing):
        load_graph(tmp_path / "e.tsv", tmp_path / "f.csv")


def test_ragged_feature_rows_rejected(tmp_path):
    (tmp_path / "e.tsv").write_text("0\t1\n")
    (tmp_path / "f.csv").write_text("0,1.0,2.0\n1,3.0\n")
    with pytest.raises(InconsistentFeatureWidth):
        load_graph(tmp_path / "e.tsv", tmp_path / "f.csv")


def test_duplicate_feature_row_rejected(tmp_path):
    (tmp_path / "f.csv").write_text("0,1.0\n0,2.0\n")
    (tmp_path / "e.tsv").write_text("")
    with pytest.raises(MalformedLine):
        load_graph(tmp_path / "e.tsv", tmp_path / "f.csv")


def test_duplicate_label_line_rejected(tmp_path):
    (tmp_path / "l.tsv").write_text("0\ta\n0\tb\n")
    with pytest.raises(MalformedLine):
        load_labels(tmp_path / "l.tsv")


def test_label_line_with_missing_field(tmp_path):
    (tmp_path / "l.tsv").write_text("0\n")
    with pytest.raises(MalformedLine):
        load_labels(tmp_path / "l.tsv")


@pytest.mark.parametrize("value", ["nan", "1e309", "-inf"])
def test_non_finite_feature_value_rejected_with_line(tmp_path, value):
    (tmp_path / "e.tsv").write_text("0\t1\n")
    (tmp_path / "f.csv").write_text(f"0,1.0\n1,{value}\n")
    with pytest.raises(MalformedLine, match=r"f\.csv:2: non-finite"):
        load_graph(tmp_path / "e.tsv", tmp_path / "f.csv")


def test_label_beyond_node_count_rejected_with_line(tmp_path):
    (tmp_path / "l.tsv").write_text("0\ta\n3\tb\n")
    assert load_labels(tmp_path / "l.tsv") == {0: ("a",), 3: ("b",)}
    with pytest.raises(NodeIdOutOfRange, match=r"l\.tsv:2: label for node 3"):
        load_labels(tmp_path / "l.tsv", num_nodes=3)


@pytest.mark.parametrize(
    "text, key",
    [('{"epochs": 3, "epochs": 4}', "epochs"), ('{"a": {"b": 1, "b": 1}, "c": 2}', "b")],
    ids=["top-level", "nested"],
)
def test_json_with_a_repeated_key_is_rejected(tmp_path, text, key):
    path = tmp_path / "doc.json"
    path.write_text(text)
    with pytest.raises(DaneError, match=f"doc.json: config repeats the key '{key}'"):
        load_json(path, "config")
