from typing import NamedTuple

import numpy as np
import pytest

from dane import synth
from dane.errors import EmptyBlock
from dane.eval import LabelSet, distribution_distance
from dane.graph import Graph
from dane.synth import SynthSpec, generate_pair


def small_spec(**overrides):
    base = dict(
        num_blocks=3,
        nodes_per_block=60,
        p_in=0.2,
        p_out=0.03,
        feature_dim=5,
        noise_sigma=1.0,
        seed=0,
    )
    base.update(overrides)
    return SynthSpec(**base)


# --- spec validation ---------------------------------------------------------


def test_spec_rejects_empty_blocks():
    with pytest.raises(EmptyBlock):
        small_spec(nodes_per_block=0)


def test_spec_rejects_bad_probabilities():
    with pytest.raises(ValueError):
        small_spec(p_in=0.1, p_out=0.1)
    with pytest.raises(ValueError):
        small_spec(p_in=1.5)
    with pytest.raises(ValueError):
        small_spec(p_out=-0.01)


def test_spec_rejects_degenerate_shapes():
    with pytest.raises(ValueError):
        small_spec(num_blocks=1)
    with pytest.raises(ValueError):
        small_spec(feature_dim=0)
    with pytest.raises(ValueError):
        small_spec(divergence=-1.0)


@pytest.mark.parametrize("key", ["noise_sigma", "divergence", "center_scale"])
@pytest.mark.parametrize("value", [np.nan, np.inf])
def test_spec_rejects_a_non_finite_float(key, value):
    with pytest.raises(ValueError, match=key):
        small_spec(**{key: value})


# --- generation --------------------------------------------------------------


def test_pair_shapes_and_labels():
    spec = small_spec()
    result = generate_pair(spec)
    for g in (result.pair.source, result.pair.target):
        assert g.num_nodes == 180
        assert g.feature_dim == 5
    assert result.labels_src.classes == ("block0", "block1", "block2")
    assert result.labels_src.assignments == result.labels_tgt.assignments
    counts = np.bincount(
        [idx[0] for idx in result.labels_src.assignments.values()], minlength=3
    )
    np.testing.assert_array_equal(counts, [60, 60, 60])
    # membership follows node order: first block first
    assert result.labels_src.assignments[0] == (0,)
    assert result.labels_src.assignments[179] == (2,)


def test_generation_is_deterministic():
    a, b = generate_pair(small_spec()), generate_pair(small_spec())
    assert a.pair.source.edges.tobytes() == b.pair.source.edges.tobytes()
    assert a.pair.source.features.tobytes() == b.pair.source.features.tobytes()
    assert a.pair.target.edges.tobytes() == b.pair.target.edges.tobytes()
    assert a.pair.target.features.tobytes() == b.pair.target.features.tobytes()
    c = generate_pair(small_spec(seed=1))
    assert a.pair.source.edges.tobytes() != c.pair.source.edges.tobytes()


def test_source_and_target_are_distinct_draws():
    result = generate_pair(small_spec())
    assert result.pair.source.edges.tobytes() != result.pair.target.edges.tobytes()
    assert result.pair.source.features.tobytes() != result.pair.target.features.tobytes()


def test_source_graph_unchanged_by_divergence_knob():
    plain = generate_pair(small_spec(divergence=0.0))
    shifted = generate_pair(small_spec(divergence=1.5))
    assert (
        plain.pair.source.edges.tobytes() == shifted.pair.source.edges.tobytes()
    )
    assert (
        plain.pair.source.features.tobytes() == shifted.pair.source.features.tobytes()
    )
    assert plain.pair.target.edges.tobytes() != shifted.pair.target.edges.tobytes()


def whole_matrix_draw(rng, spec, centers, p_in, p_out):
    """The edge draw as one n x n uniform matrix, then the features."""
    blocks = np.repeat(np.arange(spec.num_blocks), spec.nodes_per_block)
    n = spec.num_nodes
    prob = np.where(blocks[:, None] == blocks[None, :], p_in, p_out)
    edges = np.argwhere(np.triu(rng.random((n, n)) < prob, k=1))
    features = centers[blocks] + spec.noise_sigma * rng.normal(size=(n, spec.feature_dim))
    return edges, features


@pytest.mark.parametrize("draw_rows", [7, synth._DRAW_ROWS])
def test_block_edge_draw_equals_whole_matrix_draw(monkeypatch, draw_rows):
    monkeypatch.setattr(synth, "_DRAW_ROWS", draw_rows)
    spec = small_spec(nodes_per_block=100)
    assert spec.num_nodes % draw_rows  # a last, shorter block
    centers = np.random.default_rng(1).normal(size=(spec.num_blocks, spec.feature_dim))
    g = synth._sample_graph(np.random.default_rng(2), spec, centers, 0.2, 0.03)
    edges, features = whole_matrix_draw(np.random.default_rng(2), spec, centers, 0.2, 0.03)
    assert g.edges.tobytes() == edges.tobytes()
    assert g.features.tobytes() == features.tobytes()


def test_edge_densities_match_block_structure():
    spec = small_spec(nodes_per_block=80, seed=2)
    g = generate_pair(spec).pair.source
    blocks = np.repeat(np.arange(3), 80)
    same = blocks[g.edges[:, 0]] == blocks[g.edges[:, 1]]
    within_pairs = 3 * 80 * 79 // 2
    cross_pairs = 240 * 239 // 2 - within_pairs
    for observed, pairs, p in (
        (same.sum(), within_pairs, spec.p_in),
        ((~same).sum(), cross_pairs, spec.p_out),
    ):
        sigma = np.sqrt(pairs * p * (1 - p))
        assert abs(observed - pairs * p) < 5 * sigma


def test_block_centers_show_in_features():
    spec = small_spec(nodes_per_block=200, noise_sigma=0.5, seed=3)
    result = generate_pair(spec)
    g = result.pair.source
    blocks = np.repeat(np.arange(3), 200)
    means = np.array([g.features[blocks == b].mean(axis=0) for b in range(3)])
    # distinct blocks sit at distinct centers
    assert np.linalg.norm(means[0] - means[1]) > 0.5
    # within-block spread matches the configured noise
    spread = g.features[blocks == 0].std(axis=0).mean()
    assert 0.4 < spread < 0.6


def test_divergence_raises_target_edge_count():
    plain = generate_pair(small_spec(seed=4, divergence=0.0))
    dense = generate_pair(small_spec(seed=4, divergence=1.0))
    assert dense.pair.target.num_edges > 1.5 * plain.pair.target.num_edges


def test_divergence_moves_target_features():
    plain = generate_pair(small_spec(seed=5, divergence=0.0))
    far = generate_pair(small_spec(seed=5, divergence=3.0))
    d_plain = distribution_distance(
        plain.pair.source.features, plain.pair.target.features
    )
    d_far = distribution_distance(far.pair.source.features, far.pair.target.features)
    assert d_far > d_plain


def test_probabilities_stay_capped():
    result = generate_pair(small_spec(p_in=0.6, p_out=0.05, divergence=5.0, seed=6))
    g = result.pair.target
    max_edges = g.num_nodes * (g.num_nodes - 1) // 2
    assert g.num_edges <= max_edges  # p_in capped at 1 keeps the model valid


# --- node id shuffling ---------------------------------------------------------


class ShuffleResult(NamedTuple):
    graph: Graph
    labels: LabelSet
    permutation: np.ndarray  # permutation[old_id] = new_id


def shuffle_node_ids(g: Graph, labels: LabelSet, seed: int) -> ShuffleResult:
    """Relabel nodes by a random permutation, keeping edges, features, and
    labels consistent. Applying the inverse permutation restores the
    original graph bit for bit, which makes this the cheap way to check
    that nothing downstream depends on node order."""
    perm = np.random.default_rng(seed).permutation(g.num_nodes)
    features = np.empty_like(g.features)
    features[perm] = g.features
    relabeled = Graph(g.num_nodes, perm[g.edges], features)
    new_labels = LabelSet(
        labels.classes,
        {int(perm[node]): idx for node, idx in labels.assignments.items()},
        labels.multi_label,
    )
    return ShuffleResult(relabeled, new_labels, perm)


def test_shuffle_permutation_is_valid():
    result = generate_pair(small_spec())
    shuffled = shuffle_node_ids(result.pair.source, result.labels_src, seed=7)
    np.testing.assert_array_equal(np.sort(shuffled.permutation), np.arange(180))


def test_shuffle_preserves_structure():
    result = generate_pair(small_spec())
    g, labels = result.pair.source, result.labels_src
    shuffled = shuffle_node_ids(g, labels, seed=8)
    perm = shuffled.permutation
    assert shuffled.graph.features[perm].tobytes() == g.features.tobytes()
    np.testing.assert_array_equal(shuffled.graph.degrees[perm], g.degrees)
    for node, idx in labels.assignments.items():
        assert shuffled.labels.assignments[int(perm[node])] == idx


def test_shuffle_round_trip_is_bitwise():
    result = generate_pair(small_spec())
    g = result.pair.source
    shuffled = shuffle_node_ids(g, result.labels_src, seed=9)
    perm = shuffled.permutation
    inverse = np.argsort(perm)
    restored = Graph(
        g.num_nodes, inverse[shuffled.graph.edges], shuffled.graph.features[perm]
    )
    assert restored.edges.tobytes() == g.edges.tobytes()
    assert restored.features.tobytes() == g.features.tobytes()


def test_shuffle_actually_moves_nodes():
    result = generate_pair(small_spec())
    shuffled = shuffle_node_ids(result.pair.source, result.labels_src, seed=10)
    assert (shuffled.permutation != np.arange(180)).any()
    assert (
        shuffled.graph.features.tobytes() != result.pair.source.features.tobytes()
    )
