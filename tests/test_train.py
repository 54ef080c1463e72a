import csv
import gc
import hashlib
import math
import weakref

import numpy as np
import pytest

from dane import compute, model, train
from dane.compute import Tensor2
from dane.errors import NonFiniteLoss, NonFiniteValue, ShapeMismatch
from dane.graph import Graph, GraphPair, NegativeSampler
from dane.model import load_checkpoint
from dane.train import (
    AdamState,
    EpochRecord,
    TrainConfig,
    TrainLog,
    TrainState,
    apply_update,
    derive_seeds,
    encode_pair,
    fit,
)


def small_pair(seed=0, n=20, p=0.25, feature_dim=4):
    rng = np.random.default_rng(seed)
    graphs = []
    for _ in range(2):
        mask = np.triu(rng.random((n, n)) < p, k=1)
        edges = np.argwhere(mask)
        # keep every node attached so the sampler always has mass
        for i in range(n):
            if not (edges == i).any():
                edges = np.vstack([edges, [i, (i + 1) % n]])
        graphs.append(Graph(n, edges, rng.normal(size=(n, feature_dim))))
    return GraphPair(*graphs)


def quick_config(**overrides):
    base = dict(
        seed=0,
        embedding_dim=8,
        num_layers=2,
        negative_samples=2,
        epochs=5,
        encoder_lr=1e-2,
        disc_lr=1e-2,
    )
    base.update(overrides)
    return TrainConfig(**base)


# --- config --------------------------------------------------------------------


def test_config_validation():
    with pytest.raises(ValueError):
        quick_config(embedding_dim=0)
    with pytest.raises(ValueError):
        quick_config(disc_steps=0)
    with pytest.raises(ValueError):
        quick_config(adv_weight=-0.1)
    with pytest.raises(ValueError):
        quick_config(epochs=-1)
    with pytest.raises(ValueError):
        quick_config(encoder_lr=0.0)


@pytest.mark.parametrize("key", ["adv_weight", "encoder_lr", "disc_lr"])
@pytest.mark.parametrize("value", [math.nan, math.inf])
def test_config_rejects_a_non_finite_float(key, value):
    with pytest.raises(ValueError, match=key):
        quick_config(**{key: value})


def test_encoder_dims_layout():
    assert quick_config(embedding_dim=16, num_layers=3).encoder_dims(10) == [10, 16, 16, 16]
    assert quick_config(num_layers=1).encoder_dims(10) == [10, 8]
    assert quick_config().encoder_dims(10) == [10, 8, 8]


def test_derive_seeds_deterministic_and_distinct():
    s1, s2 = derive_seeds(123), derive_seeds(123)
    assert s1 == s2
    fields = [s1.encoder_init, s1.disc_init, s1.sampler_src, s1.sampler_tgt,
              s1.batching, s1.classifier, s1.synthesis, s1.subsample,
              s1.snapshot_src, s1.snapshot_tgt]
    assert len(set(fields)) == len(fields)
    assert derive_seeds(124) != s1
    # streams are appended, never reordered: the first eight predate the rest
    first = [int(c.generate_state(1)[0]) for c in np.random.SeedSequence(123).spawn(8)]
    assert fields[:8] == first


# --- optimizer -----------------------------------------------------------------


def test_adam_matches_reference_implementation():
    rng = np.random.default_rng(0)
    params = [rng.normal(size=(3, 2))]
    state = AdamState(params)
    ref_p = params[0].copy()
    ref_m = np.zeros_like(ref_p)
    ref_v = np.zeros_like(ref_p)
    b1, b2, eps, lr = 0.9, 0.999, 1e-8, 0.01
    cur = params
    for t in range(1, 6):
        g = rng.normal(size=(3, 2))
        cur = apply_update(cur, [g], state, rate=lr)
        ref_m = b1 * ref_m + (1 - b1) * g
        ref_v = b2 * ref_v + (1 - b2) * g * g
        mhat = ref_m / (1 - b1**t)
        vhat = ref_v / (1 - b2**t)
        ref_p = ref_p - lr * mhat / (np.sqrt(vhat) + eps)
    np.testing.assert_allclose(cur[0], ref_p, rtol=1e-9)


def test_adam_first_step_has_unit_scale():
    # bias correction makes the first step lr * g/(|g| + eps), whatever g's size
    for magnitude in (1e-3, 1.0, 1e6):
        state = AdamState([np.zeros((1, 1))])
        out = apply_update([np.zeros((1, 1))], [np.full((1, 1), magnitude)], state, 0.5)
        assert out[0][0, 0] == pytest.approx(-0.5, rel=1e-4)


def test_apply_update_shape_checks():
    state = AdamState([np.zeros((2, 2))])
    with pytest.raises(ShapeMismatch):
        apply_update([np.zeros((2, 2))], [np.zeros((2, 3))], state, 0.1)
    with pytest.raises(ShapeMismatch):
        apply_update([np.zeros((2, 2))], [], state, 0.1)


# --- adversarial phases are isolated --------------------------------------------


def make_state(pair, cfg):
    seeds = derive_seeds(cfg.seed)
    enc, disc = train.init_models(pair, cfg, seeds)
    return TrainState(pair, seeds, enc, disc), enc, disc


def test_discriminator_round_never_sees_encoder():
    pair = small_pair()
    cfg = quick_config()
    state, enc, disc = make_state(pair, cfg)
    enc_bytes = [w.tobytes() for w in enc.weights]
    disc_before = [a.copy() for a in disc.arrays()]
    rng = np.random.default_rng(1)
    v_src, v_tgt = rng.normal(size=(20, 8)), rng.normal(size=(20, 8))
    for _ in range(4):
        train.discriminator_round(v_src, v_tgt, disc, cfg, state)
    assert [w.tobytes() for w in enc.weights] == enc_bytes
    assert any(
        a.tobytes() != b.tobytes() for a, b in zip(disc.arrays(), disc_before)
    )


def test_encoder_round_treats_discriminator_as_constant():
    pair = small_pair()
    cfg = quick_config()
    state, enc, disc = make_state(pair, cfg)
    disc_bytes = [a.tobytes() for a in disc.arrays()]
    enc_before = [w.copy() for w in enc.weights]
    b_src = model.sample_edge_batch(pair.source.edges, state.sampler_src, 2)
    b_tgt = model.sample_edge_batch(pair.target.edges, state.sampler_tgt, 2)
    fwd = train.encoder_forward(enc, state)
    train.encoder_round(fwd, enc, disc, cfg, state, b_src, b_tgt)
    assert [a.tobytes() for a in disc.arrays()] == disc_bytes
    assert any(w.tobytes() != b.tobytes() for w, b in zip(enc.weights, enc_before))


def test_each_layer_and_each_least_squares_loss_is_one_tape_op(monkeypatch):
    # Discriminator round: per graph affine, relu, affine, then one loss: 7.
    # Encoder forward and round, on one tape: per graph matmul (of the
    # cached P·X, which is not recorded), relu, spmm, matmul, a gather and a
    # score for the edge loss, affine, relu, affine; then the structural add,
    # the adversarial loss, and the weighting's scale and add: 22.
    tapes = []

    class CountedTape(train.GradTape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(train, "GradTape", CountedTape)
    pair = small_pair()
    cfg = quick_config(num_layers=2, disc_hidden_layers=1)
    state, enc, disc = make_state(pair, cfg)
    v_src, v_tgt = train.encode_pair(enc, pair)
    train.discriminator_round(v_src, v_tgt, disc, cfg, state)
    b_src = model.sample_edge_batch(pair.source.edges, state.sampler_src, 2)
    b_tgt = model.sample_edge_batch(pair.target.edges, state.sampler_tgt, 2)
    train.encoder_round(train.encoder_forward(enc, state), enc, disc, cfg, state, b_src, b_tgt)
    assert [len(t._records) for t in tapes] == [7, 22]


def test_no_tape_record_holds_a_tensor(monkeypatch):
    # every record of the encoder's tape keys its output and inputs with
    # integers, and its pulls close over arrays, never over a tensor
    tapes = []

    class KeptTape(train.GradTape):
        def __init__(self):
            super().__init__()
            tapes.append(self)

    monkeypatch.setattr(train, "GradTape", KeptTape)
    pair = small_pair()
    cfg = quick_config(num_layers=2, disc_hidden_layers=1)
    state, enc, disc = make_state(pair, cfg)
    b_src = model.sample_edge_batch(pair.source.edges, state.sampler_src, 2)
    b_tgt = model.sample_edge_batch(pair.target.edges, state.sampler_tgt, 2)
    train.encoder_round(train.encoder_forward(enc, state), enc, disc, cfg, state, b_src, b_tgt)
    (tape,) = tapes
    assert len(tape._records) == 22
    for out, pulls in tape._records:
        assert isinstance(out, int) and all(isinstance(key, int) for key, _ in pulls)
        for _, pull in pulls:
            held = [c.cell_contents for c in pull.__closure__ or ()]
            held += list(pull.__defaults__ or ())
            assert not any(isinstance(x, Tensor2) for x in held)


# --- one epoch ------------------------------------------------------------------


def test_one_epoch_fit_updates_both_players_and_logs_its_losses():
    pair = small_pair()
    cfg = quick_config(disc_steps=2, epochs=1)
    enc0, disc0 = train.init_models(pair, cfg)
    result = fit(pair, cfg)
    assert any(
        w.tobytes() != b.tobytes() for w, b in zip(result.encoder.weights, enc0.weights)
    )
    assert any(
        a.tobytes() != b.tobytes()
        for a, b in zip(result.discriminator.arrays(), disc0.arrays())
    )
    (record,) = result.log.records
    assert record.epoch == 0
    assert record.l_total == pytest.approx(
        record.l_gcn + cfg.adv_weight * record.l_adv, rel=1e-15
    )
    for value in (record.l_gcn, record.l_d, record.l_adv):
        assert math.isfinite(value)
    assert record.l_gcn > 0


def test_one_epoch_fit_is_deterministic():
    pair = small_pair()
    cfg = quick_config(epochs=1)
    r1, r2 = fit(pair, cfg), fit(pair, cfg)
    for a, b in zip(r1.encoder.weights, r2.encoder.weights):
        assert a.tobytes() == b.tobytes()
    for a, b in zip(r1.discriminator.arrays(), r2.discriminator.arrays()):
        assert a.tobytes() == b.tobytes()
    (a,), (b,) = r1.log.records, r2.log.records
    assert (a.l_gcn, a.l_d, a.l_adv) == (b.l_gcn, b.l_d, b.l_adv)


def test_evaluate_losses_has_no_side_effects():
    pair = small_pair()
    cfg = quick_config()
    state, enc, disc = make_state(pair, cfg)
    b_src = model.sample_edge_batch(pair.source.edges, state.sampler_src, 2)
    b_tgt = model.sample_edge_batch(pair.target.edges, state.sampler_tgt, 2)
    v_src, v_tgt = encode_pair(enc, pair)
    v_bytes = (v_src.tobytes(), v_tgt.tobytes())
    disc_bytes = [a.tobytes() for a in disc.arrays()]
    r1 = train.evaluate_losses(v_src, v_tgt, disc, cfg, b_src, b_tgt)
    r2 = train.evaluate_losses(v_src, v_tgt, disc, cfg, b_src, b_tgt)
    assert (v_src.tobytes(), v_tgt.tobytes()) == v_bytes
    assert [a.tobytes() for a in disc.arrays()] == disc_bytes
    assert (r1.l_gcn, r1.l_d, r1.l_adv) == (r2.l_gcn, r2.l_d, r2.l_adv)


# --- fit -----------------------------------------------------------------------


def test_fit_zero_epochs_returns_initial_encoder():
    pair = small_pair()
    cfg = quick_config(epochs=0)
    result = fit(pair, cfg)
    assert len(result.log) == 0
    seeds = derive_seeds(cfg.seed)
    enc0, _ = train.init_models(pair, cfg, seeds)
    for a, b in zip(result.encoder.weights, enc0.weights):
        assert a.tobytes() == b.tobytes()


def test_fit_is_bitwise_reproducible():
    pair = small_pair()
    cfg = quick_config(epochs=4)
    r1, r2 = fit(pair, cfg), fit(pair, cfg)
    assert r1.embeddings_src.tobytes() == r2.embeddings_src.tobytes()
    assert r1.embeddings_tgt.tobytes() == r2.embeddings_tgt.tobytes()
    for a, b in zip(r1.log.records, r2.log.records):
        assert (a.l_gcn, a.l_d, a.l_adv, a.l_total) == (b.l_gcn, b.l_d, b.l_adv, b.l_total)
        assert (a.mean_score_src, a.mean_score_tgt) == (b.mean_score_src, b.mean_score_tgt)


def test_fit_seed_changes_output():
    pair = small_pair()
    r1 = fit(pair, quick_config(seed=1, epochs=2))
    r2 = fit(pair, quick_config(seed=2, epochs=2))
    assert r1.embeddings_src.tobytes() != r2.embeddings_src.tobytes()


def test_fit_structural_loss_decreases():
    pair = small_pair()
    cfg = quick_config(epochs=40, adv_weight=0.0)
    result = fit(pair, cfg)
    first = result.log.records[0].l_gcn
    last = result.log.records[-1].l_gcn
    assert last < first


def test_fit_epoch_hook_sees_every_epoch():
    pair = small_pair()
    seen = []

    def hook(epoch, record, enc, v_src, v_tgt):
        assert v_src.shape == (20, 8) and v_tgt.shape == (20, 8)
        fresh_src, fresh_tgt = encode_pair(enc, pair)
        assert v_src.tobytes() == fresh_src.tobytes()
        assert v_tgt.tobytes() == fresh_tgt.tobytes()
        seen.append(epoch)

    fit(pair, quick_config(epochs=3), epoch_hook=hook)
    assert seen == [0, 1, 2]


@pytest.mark.parametrize("epochs", [0, 2])
def test_fit_hands_out_read_only_embeddings(epochs):
    seen = []
    result = fit(
        small_pair(), quick_config(epochs=epochs),
        epoch_hook=lambda epoch, record, enc, v_src, v_tgt: seen.extend((v_src, v_tgt)),
    )
    assert len(seen) == 2 * epochs
    for v in [result.embeddings_src, result.embeddings_tgt, *seen]:
        assert v.flags.writeable is False
        with pytest.raises(ValueError):
            v[0, 0] = 0.0


def test_fit_minibatch_mode_runs_deterministically():
    pair = small_pair()
    cfg = quick_config(epochs=3, edge_batch_size=7)
    r1, r2 = fit(pair, cfg), fit(pair, cfg)
    assert len(r1.log) == 3
    assert r1.embeddings_src.tobytes() == r2.embeddings_src.tobytes()


def test_minibatch_fit_draws_only_training_negatives_from_training_streams(monkeypatch):
    pair = small_pair()
    cfg = quick_config(epochs=3, edge_batch_size=7)
    batches = []

    def recording_round(fwd, enc, disc, cfg, state, batch_src, batch_tgt):
        batches.append((batch_src.negatives.ravel(), batch_tgt.negatives.ravel()))
        return encoder_round(fwd, enc, disc, cfg, state, batch_src, batch_tgt)

    encoder_round = train.encoder_round
    monkeypatch.setattr(train, "encoder_round", recording_round)
    fit(pair, cfg)
    seeds = derive_seeds(cfg.seed)
    for side, (g, seed) in enumerate(
        ((pair.source, seeds.sampler_src), (pair.target, seeds.sampler_tgt))
    ):
        drawn = np.concatenate([b[side] for b in batches])
        replay = NegativeSampler(g.degrees, seed).sample(drawn.size)
        np.testing.assert_array_equal(drawn, replay)


def _minibatch_steps(pair, cfg) -> int:
    per_epoch = max(-(-len(g.edges) // cfg.edge_batch_size) for g in (pair.source, pair.target))
    return cfg.epochs * per_epoch


def test_fit_encodes_each_encoder_state_once(monkeypatch):
    pair = small_pair()
    cfg = quick_config(epochs=3, edge_batch_size=7, num_layers=3)
    calls = []
    spmm = compute.spmm

    def counted(prop, h):
        calls.append(prop)
        return spmm(prop, h)

    monkeypatch.setattr(compute, "spmm", counted)
    fit(pair, cfg)
    steps = _minibatch_steps(pair, cfg)
    assert steps > cfg.epochs
    # P·X once per graph; then per forward, one per graph for each later
    # layer; one forward before the first step and one after each update
    assert len(calls) == 2 + 2 * (cfg.num_layers - 1) * (steps + 1)


def test_no_tape_outlives_its_step(monkeypatch):
    # With the cyclic collector off, reference counting alone frees every
    # tape, encoder and discriminator alike, once its step is done. Only
    # weakrefs are held here: at each epoch's end the one live tape is the
    # forward the next step will use, the first forward's tape and both its
    # embeddings are gone, and after the fit no tape is left.
    pair = small_pair()
    cfg = quick_config(epochs=2, edge_batch_size=7)
    tapes, forwards, first, epoch_ends = [], [], [], []

    class TrackedTape(train.GradTape):
        def __init__(self):
            super().__init__()
            tapes.append(weakref.ref(self))

    encoder_forward = train.encoder_forward

    def tracked(enc, state):
        fwd = encoder_forward(enc, state)
        forwards.append(weakref.ref(fwd[0].tape))
        if not first:
            first.extend([forwards[0], weakref.ref(fwd[0].data), weakref.ref(fwd[1].data)])
        return fwd

    def hook(epoch, record, enc, v_src, v_tgt):
        live = [t() for t in tapes if t() is not None]
        epoch_ends.append((live == [forwards[-1]()], [ref() is None for ref in first]))

    monkeypatch.setattr(train, "GradTape", TrackedTape)
    monkeypatch.setattr(train, "encoder_forward", tracked)
    enabled = gc.isenabled()
    gc.disable()
    try:
        fit(pair, cfg, epoch_hook=hook)
        steps = _minibatch_steps(pair, cfg)
        assert len(forwards) == steps + 1
        assert len(tapes) == (steps + 1) + steps * cfg.disc_steps
        assert epoch_ends == [(True, [True] * 3)] * cfg.epochs
        assert all(t() is None for t in tapes)
    finally:
        if enabled:
            gc.enable()


def _fit_digest(result) -> str:
    h = hashlib.sha256()
    h.update(result.embeddings_src.tobytes())
    h.update(result.embeddings_tgt.tobytes())
    for r in result.log.records:
        h.update((",".join(repr(getattr(r, c)) for c in TrainLog.COLUMNS) + "\n").encode())
    return h.hexdigest()


@pytest.mark.parametrize("overrides, digest", [
    (dict(epochs=4), "e342e759c2fb9fdf83a50660f5235282fa4759bdc3f2c1c4ee0268bd570e61b9"),
    (dict(epochs=3, edge_batch_size=7, disc_steps=2, num_layers=3),
     "fb634a304b495f9309d29328bbeaa555cbe192ba79c54a6a9b9028080d5528a9"),
])
def test_fit_output_is_pinned(overrides, digest):
    # both embeddings and every log row, bit for bit: a change that claims no
    # behaviour change keeps these; one that alters numbers re-records them
    assert _fit_digest(fit(small_pair(), quick_config(**overrides))) == digest


def test_fit_rejects_non_finite_features_as_bad_input(tmp_path):
    pair = small_pair()
    features = pair.source.features.copy()
    features[3, 1] = np.nan
    bad = GraphPair(Graph(20, pair.source.edges, features), pair.target)
    dump = tmp_path / "diverged.json"
    with pytest.raises(NonFiniteValue):
        fit(bad, quick_config(), diagnostics_path=dump)
    assert not dump.exists()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_diverged_run_raises_and_dumps_last_good(tmp_path):
    pair = small_pair()
    cfg = quick_config(encoder_lr=1e50, disc_lr=1e50, epochs=50)
    dump = tmp_path / "diverged.json"
    with pytest.raises(NonFiniteLoss) as info:
        fit(pair, cfg, diagnostics_path=dump)
    assert info.value.epoch >= 0
    assert dump.exists()
    ckpt = load_checkpoint(dump)
    assert ckpt.extra["failed_epoch"] == info.value.epoch
    assert ckpt.extra["last_finite_epoch"] < info.value.epoch
    for w in ckpt.encoder.weights:
        assert np.isfinite(w).all()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_divergence_after_finite_epochs_dumps_the_last_finite_model(tmp_path):
    # the hook blows the live encoder up after epoch 1, so epoch 2's
    # encoder round overflows; the dump holds epoch 1's trained weights
    pair = small_pair()
    kept = {}

    def blow_up(epoch, record, enc, v_src, v_tgt):
        kept[epoch] = [w.copy() for w in enc.weights]
        if epoch == 1:
            enc.set_arrays([w * 1e200 for w in enc.arrays()])

    dump = tmp_path / "diverged.json"
    with pytest.raises(NonFiniteLoss) as info:
        fit(pair, quick_config(epochs=5), epoch_hook=blow_up, diagnostics_path=dump)
    assert info.value.epoch == 2
    assert sorted(kept) == [0, 1]
    ckpt = load_checkpoint(dump)
    assert ckpt.extra == {"failed_epoch": 2, "last_finite_epoch": 1}
    for got, want in zip(ckpt.encoder.weights, kept[1]):
        assert got.tobytes() == want.tobytes()


@pytest.mark.filterwarnings("ignore::RuntimeWarning")
def test_an_overflowing_epoch_total_of_finite_losses_is_divergence(tmp_path, monkeypatch):
    # from epoch 1 on, the snapshot's structural and adversarial losses are
    # each finite, but l_gcn + adv_weight * l_adv overflows
    calls = {"gcn": 0, "adv": 0}
    gcn_loss, adversarial_loss = model.gcn_loss, model.adversarial_loss

    def huge_after_first_snapshot(name, original):
        def loss(a, b, *rest):
            if a.tape is not None:
                return original(a, b, *rest)
            calls[name] += 1
            return original(a, b, *rest) if calls[name] == 1 else Tensor2([[1e308]])
        return loss

    monkeypatch.setattr(model, "gcn_loss", huge_after_first_snapshot("gcn", gcn_loss))
    monkeypatch.setattr(
        model, "adversarial_loss", huge_after_first_snapshot("adv", adversarial_loss)
    )
    dump = tmp_path / "diverged.json"
    with pytest.raises(NonFiniteLoss) as info:
        fit(small_pair(), quick_config(epochs=4), diagnostics_path=dump)
    assert info.value.epoch == 1
    assert load_checkpoint(dump).extra == {"failed_epoch": 1, "last_finite_epoch": 0}


# --- train log -----------------------------------------------------------------


def test_train_log_csv_schema_and_round_trip(tmp_path):
    log = TrainLog()
    log.append(EpochRecord(0, 1.5, 0.25, 0.75, 2.25, 0.1, 0.9))
    log.append(EpochRecord(1, 1.25, 0.3, 0.7, 1.95, 0.2, 0.8))
    path = tmp_path / "log.csv"
    log.to_csv(path)
    assert path.read_text() == (
        "epoch,l_gcn,l_d,l_adv,l_total,mean_score_src,mean_score_tgt\n"
        "0,1.5,0.25,0.75,2.25,0.1,0.9\n"
        "1,1.25,0.3,0.7,1.95,0.2,0.8\n"
    )
    with open(path) as fh:
        rows = list(csv.DictReader(fh))
    assert list(rows[0].keys()) == list(TrainLog.COLUMNS)
    assert len(rows) == 2
    assert float(rows[0]["l_gcn"]) == 1.5
    assert float(rows[1]["l_total"]) == 1.95
    assert int(rows[1]["epoch"]) == 1


def test_train_log_floats_survive_round_trip(tmp_path):
    value = 0.1 + 0.2  # 0.30000000000000004; repr must preserve it
    log = TrainLog()
    log.append(EpochRecord(0, value, value, value, value, value, value))
    path = tmp_path / "log.csv"
    log.to_csv(path)
    with open(path) as fh:
        row = list(csv.DictReader(fh))[0]
    assert float(row["l_gcn"]) == value
