import json

import numpy as np
import pytest

from dane import compute, model
from dane.compute import GradTape, Tensor2, backward
from dane.errors import DaneError, EmptyInput, IndexOutOfRange, ShapeMismatch
from dane.graph import Graph, NegativeSampler, build_propagation

from conftest import check_gradients, sum_squares


def tiny_graph(seed=0, n=6, feature_dim=3):
    rng = np.random.default_rng(seed)
    edges = [(0, 1), (1, 2), (2, 3), (3, 4), (4, 5), (0, 5), (1, 4), (2, 5)]
    return Graph(n, edges, rng.normal(size=(n, feature_dim)))


# --- encoder -------------------------------------------------------------------


def test_encoder_init_shapes_and_bounds():
    enc = model.EncoderParams.init([3, 8, 4], seed=0)
    assert enc.layer_dims == [3, 8, 4]
    assert enc.output_dim == 4
    for w, (fi, fo) in zip(enc.weights, [(3, 8), (8, 4)]):
        limit = np.sqrt(6.0 / (fi + fo))
        assert np.abs(w).max() <= limit


def test_encoder_init_is_deterministic():
    a = model.EncoderParams.init([3, 8, 4], seed=5)
    b = model.EncoderParams.init([3, 8, 4], seed=5)
    c = model.EncoderParams.init([3, 8, 4], seed=6)
    for wa, wb in zip(a.weights, b.weights):
        assert wa.tobytes() == wb.tobytes()
    assert any(wa.tobytes() != wc.tobytes() for wa, wc in zip(a.weights, c.weights))


def test_encoder_rejects_mismatched_layers():
    with pytest.raises(ShapeMismatch):
        model.EncoderParams([np.zeros((3, 8)), np.zeros((7, 4))])


def test_encode_matches_manual_composition():
    g = tiny_graph()
    p = build_propagation(g)
    enc = model.EncoderParams.init([3, 5, 2], seed=1)
    got = model.encode(enc, p, g.features)
    m = p.matrix.toarray()
    h = np.maximum(m @ g.features @ enc.weights[0], 0.0)
    want = m @ h @ enc.weights[1]
    np.testing.assert_allclose(got.data, want, rtol=1e-12)
    assert got.shape == (6, 2)
    assert got.tape is None


def test_encode_final_layer_is_linear():
    # a single-layer encoder must be able to produce negative coordinates
    g = tiny_graph(seed=2)
    enc = model.EncoderParams.init([3, 4], seed=3)
    out = model.encode(enc, build_propagation(g), g.features)
    assert (out.data < 0).any()


def test_encode_with_tape_shares_weights_across_graphs():
    g_a, g_b = tiny_graph(seed=3), tiny_graph(seed=4)
    p_a, p_b = build_propagation(g_a), build_propagation(g_b)
    enc = model.EncoderParams.init([3, 4, 2], seed=5)

    def grad_of(graphs):
        tape = GradTape()
        nodes = [tape.parameter(w) for w in enc.arrays()]
        loss = None
        for g, p in graphs:
            v = model.encode(nodes, p, g.features)
            term = sum_squares(v)
            loss = term if loss is None else compute.add(loss, term)
        return backward(loss)[0]

    both = grad_of([(g_a, p_a), (g_b, p_b)])
    separate = grad_of([(g_a, p_a)]) + grad_of([(g_b, p_b)])
    np.testing.assert_allclose(both, separate, rtol=1e-12)
    assert np.abs(both).max() > 0


# --- edge batches --------------------------------------------------------------


def test_sample_edge_batch_shapes_and_anchor_column():
    g = tiny_graph()
    sampler = NegativeSampler(g.degrees, seed=0)
    batch = model.sample_edge_batch(g.edges, sampler, 5)
    assert batch.pairs.shape == (8, 2)
    assert batch.negatives.shape == (8, 5)
    np.testing.assert_array_equal(batch.pairs, g.edges)
    assert batch.size == 8


def test_sample_edge_batch_zero_negatives():
    g = tiny_graph()
    sampler = NegativeSampler(g.degrees, seed=0)
    batch = model.sample_edge_batch(g.edges, sampler, 0)
    assert batch.negatives.shape == (8, 0)


def test_edge_batch_alignment_checked():
    with pytest.raises(ShapeMismatch):
        model.EdgeBatch(np.zeros((3, 2)), np.zeros((2, 5)))


# --- structural loss -----------------------------------------------------------


def test_edge_loss_frozen_value():
    # one positive pair with dot product 10, one negative with dot 0:
    # -log sigmoid(10) - log sigmoid(-0) = 4.539889921686465e-05 + log 2
    v = Tensor2(np.array([[2.0], [5.0], [0.0]]))
    batch = model.EdgeBatch(np.array([[0, 1]]), np.array([[2]]))
    loss = model.edge_loss(v, batch)
    assert loss.item() == pytest.approx(0.6931925794591621, rel=1e-14)


def test_edge_loss_empty_batch_is_zero():
    v = Tensor2(np.ones((3, 2)))
    batch = model.EdgeBatch(np.zeros((0, 2)), np.zeros((0, 4)))
    loss = model.edge_loss(v, batch)
    assert loss.item() == 0.0


def test_edge_loss_positive_term_is_symmetric_in_pair_order():
    rng = np.random.default_rng(6)
    v = Tensor2(rng.normal(size=(5, 3)))
    fwd = model.EdgeBatch(np.array([[0, 1], [2, 4]]), np.zeros((2, 0)))
    rev = model.EdgeBatch(np.array([[1, 0], [4, 2]]), np.zeros((2, 0)))
    assert model.edge_loss(v, fwd).item() == model.edge_loss(v, rev).item()


def test_edge_loss_sums_over_batches():
    rng = np.random.default_rng(7)
    v = Tensor2(rng.normal(size=(6, 2)))
    pairs = np.array([[0, 1], [2, 3], [4, 5]])
    negs = rng.integers(0, 6, size=(3, 4))
    whole = model.edge_loss(v, model.EdgeBatch(pairs, negs)).item()
    parts = sum(
        model.edge_loss(v, model.EdgeBatch(pairs[i : i + 1], negs[i : i + 1])).item()
        for i in range(3)
    )
    assert whole == pytest.approx(parts, rel=1e-12)


def test_edge_loss_is_positive_and_decreases_when_pairs_align():
    # pull the linked pair together, push the negative away: loss must drop
    far = Tensor2(np.array([[1.0, 0.0], [-1.0, 0.0], [1.0, 0.0]]))
    near = Tensor2(np.array([[1.0, 0.0], [1.0, 0.0], [-1.0, 0.0]]))
    batch = model.EdgeBatch(np.array([[0, 1]]), np.array([[2]]))
    assert model.edge_loss(near, batch).item() < model.edge_loss(far, batch).item()
    assert model.edge_loss(near, batch).item() > 0.0


def test_edge_loss_rejects_bad_indices():
    v = Tensor2(np.ones((3, 2)))
    with pytest.raises(IndexOutOfRange):
        model.edge_loss(v, model.EdgeBatch(np.array([[0, 7]]), np.zeros((1, 0))))
    with pytest.raises(IndexOutOfRange):
        model.edge_loss(v, model.EdgeBatch(np.array([[0, 1]]), np.array([[9]])))
    with pytest.raises(IndexOutOfRange):
        model.edge_loss(v, model.EdgeBatch(np.array([[0, 1]]), np.array([[-1]])))


def test_edge_loss_gradients():
    rng = np.random.default_rng(8)
    v = rng.normal(size=(5, 3))
    batch = model.EdgeBatch(
        np.array([[0, 1], [1, 2], [3, 4]]), np.array([[2, 0], [4, 4], [0, 1]])
    )
    check_gradients(lambda n: model.edge_loss(n[0], batch), [v])


@pytest.mark.parametrize("q", [0, 4])
def test_edge_loss_records_two_tape_ops(q):
    # an anchor gather and one sampled score of partners and negatives
    rng = np.random.default_rng(10)
    tape = GradTape()
    v = tape.parameter(rng.normal(size=(6, 2)))
    batch = model.EdgeBatch(np.array([[0, 1], [2, 3], [4, 5]]), rng.integers(0, 6, size=(3, q)))
    model.edge_loss(v, batch)
    assert len(tape._records) == 2


def test_gcn_loss_adds_both_graphs():
    rng = np.random.default_rng(9)
    v_a, v_b = Tensor2(rng.normal(size=(4, 2))), Tensor2(rng.normal(size=(4, 2)))
    batch_a = model.EdgeBatch(np.array([[0, 1]]), np.array([[2]]))
    batch_b = model.EdgeBatch(np.array([[2, 3]]), np.array([[0]]))
    got = model.gcn_loss(v_a, v_b, batch_a, batch_b).item()
    want = model.edge_loss(v_a, batch_a).item() + model.edge_loss(v_b, batch_b).item()
    assert got == pytest.approx(want, rel=1e-15)


# --- discriminator and adversarial losses --------------------------------------


def test_discriminator_forward_shape_and_zero_point():
    d = model.DiscriminatorParams.init(4, seed=0)
    scores = model.discriminator_forward(d, np.zeros((7, 4)))
    assert scores.shape == (7, 1)
    # zero input through zero biases scores exactly zero
    np.testing.assert_array_equal(scores.data, np.zeros((7, 1)))


def test_discriminator_default_depth():
    d = model.DiscriminatorParams.init(8, seed=0)
    assert d.layer_dims == [8, 8, 8, 1]
    shallow = model.DiscriminatorParams.init(8, hidden_layers=1, seed=0)
    assert shallow.layer_dims == [8, 8, 1]


def test_discriminator_loss_frozen_points():
    perfect_src, perfect_tgt = Tensor2([[0.0]]), Tensor2([[1.0]])
    assert model.discriminator_loss(perfect_src, perfect_tgt).item() == 0.0
    assert model.adversarial_loss(perfect_src, perfect_tgt).item() == 2.0
    confused = Tensor2([[0.5]])
    assert model.discriminator_loss(confused, confused).item() == 0.5
    assert model.adversarial_loss(confused, confused).item() == 0.5


def test_losses_reject_empty_scores():
    empty, some = Tensor2(np.zeros((0, 1))), Tensor2(np.zeros((2, 1)))
    with pytest.raises(EmptyInput):
        model.discriminator_loss(empty, some)
    with pytest.raises(EmptyInput):
        model.adversarial_loss(some, empty)


def test_discriminator_gradients():
    rng = np.random.default_rng(10)
    d = model.DiscriminatorParams.init(3, hidden_layers=2, seed=11)
    v_src, v_tgt = rng.normal(size=(5, 3)), rng.normal(size=(6, 3))

    def build(nodes):
        s = model.discriminator_forward(nodes, Tensor2(v_src))
        t = model.discriminator_forward(nodes, Tensor2(v_tgt))
        return model.discriminator_loss(s, t)

    check_gradients(build, d.arrays())


def test_adversarial_gradients_flow_to_encoder():
    g = tiny_graph(seed=12)
    p = build_propagation(g)
    enc = model.EncoderParams.init([3, 4, 2], seed=13)
    disc = model.DiscriminatorParams.init(2, seed=14)

    def build(nodes):
        v = model.encode(nodes, p, g.features)
        scores = model.discriminator_forward(disc, v)
        return model.adversarial_loss(scores, compute.add(scores, np.full(scores.shape, 0.1)))

    check_gradients(build, enc.arrays(), atol=1e-6)


def test_total_loss_weight_zero_is_gradient_inert():
    g = tiny_graph(seed=15)
    p = build_propagation(g)
    enc = model.EncoderParams.init([3, 4, 2], seed=16)
    disc = model.DiscriminatorParams.init(2, seed=17)
    batch = model.EdgeBatch(g.edges, np.zeros((g.num_edges, 0)))

    def grads_for(weight, include_adv):
        tape = GradTape()
        nodes = [tape.parameter(w) for w in enc.arrays()]
        v = model.encode(nodes, p, g.features)
        loss = model.gcn_loss(v, v, batch, batch)
        if include_adv:
            scores = model.discriminator_forward(disc, v)
            adv = model.adversarial_loss(scores, scores)
            loss = model.total_loss(loss, adv, weight)
        return backward(loss)

    with_zero = grads_for(0.0, include_adv=True)
    without = grads_for(0.0, include_adv=False)
    for a, b in zip(with_zero, without):
        assert a.tobytes() == b.tobytes()


def test_total_loss_weight_scales_linearly():
    l_gcn, l_adv = Tensor2([[3.0]]), Tensor2([[0.5]])
    assert model.total_loss(l_gcn, l_adv, 1.0).item() == 3.5
    assert model.total_loss(l_gcn, l_adv, 2.0).item() == 4.0
    assert model.total_loss(l_gcn, l_adv, 0.0).item() == 3.0


# --- checkpoints ---------------------------------------------------------------


def test_checkpoint_round_trip(tmp_path):
    enc = model.EncoderParams.init([3, 5, 2], seed=18)
    disc = model.DiscriminatorParams.init(2, seed=19)
    path = tmp_path / "ckpt.json"
    model.save_checkpoint(path, enc, disc, adv_weight=0.5, seed=42, extra={"epoch": 7})
    back = model.load_checkpoint(path)
    for a, b in zip(back.encoder.weights, enc.weights):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(back.discriminator.weights, disc.weights):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(back.discriminator.biases, disc.biases):
        assert a.tobytes() == b.tobytes()
    assert back.adv_weight == 0.5
    assert back.seed == 42
    assert back.extra == {"epoch": 7}


def test_checkpoint_rejects_unknown_version(tmp_path):
    enc = model.EncoderParams.init([2, 2], seed=0)
    disc = model.DiscriminatorParams.init(2, seed=0)
    path = tmp_path / "ckpt.json"
    model.save_checkpoint(path, enc, disc, adv_weight=1.0, seed=0)
    doc = json.loads(path.read_text())
    doc["format_version"] = 99
    path.write_text(json.dumps(doc))
    with pytest.raises(DaneError, match="ckpt.json: unsupported checkpoint format_version 99"):
        model.load_checkpoint(path)


def test_checkpoint_with_a_repeated_key_is_rejected(tmp_path):
    enc = model.EncoderParams.init([2, 2], seed=0)
    disc = model.DiscriminatorParams.init(2, seed=0)
    path = tmp_path / "ckpt.json"
    model.save_checkpoint(path, enc, disc, adv_weight=1.0, seed=0)
    text = path.read_text()
    assert text.startswith("{")
    path.write_text('{"seed": 5, ' + text[1:])
    with pytest.raises(DaneError, match="ckpt.json: checkpoint repeats the key 'seed'"):
        model.load_checkpoint(path)


def test_checkpoint_leaves_no_temp_files(tmp_path):
    enc = model.EncoderParams.init([2, 2], seed=0)
    disc = model.DiscriminatorParams.init(2, seed=0)
    model.save_checkpoint(tmp_path / "ckpt.json", enc, disc, adv_weight=1.0, seed=0)
    assert sorted(p.name for p in tmp_path.iterdir()) == ["ckpt.json"]
