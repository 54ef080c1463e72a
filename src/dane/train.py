"""Alternating optimization of the discriminator and the shared encoder.

Each step runs a fixed number of discriminator updates against the current
(held constant) embeddings, then one encoder update against the current
(held constant) discriminator. The two players never update inside the
same backward pass, so neither can leak gradient into the other's weights.

All randomness flows from one seed through a fixed fan-out of named
streams; two runs with equal configuration are bitwise identical.
"""

from __future__ import annotations

import logging
import math
import time
from dataclasses import dataclass, fields

import numpy as np

from . import model
from .compute import GradTape, Tensor2, backward
from .errors import NonFiniteLoss, NonFiniteValue, ShapeMismatch
from .graph import GraphPair, NegativeSampler, build_propagation
from .model import DiscriminatorParams, EncoderParams

logger = logging.getLogger(__name__)


@dataclass(frozen=True)
class TrainConfig:
    """Knobs for one training run. Defaults fit a few-hundred-node graph;
    only the seed has no default because silent seed reuse is the classic
    way to fake reproducibility."""

    seed: int
    embedding_dim: int = 128
    num_layers: int = 2
    negative_samples: int = 5
    adv_weight: float = 1.0
    disc_steps: int = 1
    epochs: int = 200
    encoder_lr: float = 1e-3
    disc_lr: float = 1e-3
    edge_batch_size: int | None = None  # None: all edges every step
    disc_hidden_layers: int = 2

    def __post_init__(self):
        # each message names the fields its rule reads: the CLI names the
        # config key or flag that set them from it
        if self.embedding_dim < 1:
            raise ValueError("embedding_dim must be positive")
        if self.num_layers < 1:
            raise ValueError("num_layers must be positive")
        if self.negative_samples < 1:
            raise ValueError("negative_samples must be at least 1")
        if not 0 <= self.adv_weight < math.inf:
            raise ValueError("adv_weight must be finite and non-negative")
        if self.disc_steps < 1:
            raise ValueError("disc_steps must be at least 1")
        if self.epochs < 0:
            raise ValueError("epochs must be non-negative")
        if not 0 < self.encoder_lr < math.inf:
            raise ValueError("encoder_lr must be finite and positive")
        if not 0 < self.disc_lr < math.inf:
            raise ValueError("disc_lr must be finite and positive")
        if self.edge_batch_size is not None and self.edge_batch_size < 1:
            raise ValueError("edge_batch_size must be positive when set")
        if self.disc_hidden_layers < 0:
            raise ValueError("disc_hidden_layers must be non-negative")

    def encoder_dims(self, feature_dim: int) -> list[int]:
        return [feature_dim] + [self.embedding_dim] * self.num_layers


@dataclass(frozen=True)
class RunSeeds:
    """Named child seeds fanned out from the run seed. The fan-out order is
    part of the on-disk reproducibility contract: adding a stream means
    appending, never reordering."""

    encoder_init: int
    disc_init: int
    sampler_src: int
    sampler_tgt: int
    batching: int
    classifier: int
    synthesis: int
    subsample: int
    snapshot_src: int
    snapshot_tgt: int


def derive_seeds(seed: int) -> RunSeeds:
    children = np.random.SeedSequence(seed).spawn(10)
    return RunSeeds(*(int(c.generate_state(1)[0]) for c in children))


class AdamState:
    """First and second moment estimates for one parameter list."""

    __slots__ = ("m", "v", "step")

    def __init__(self, arrays: list[np.ndarray]):
        self.m = [np.zeros_like(a) for a in arrays]
        self.v = [np.zeros_like(a) for a in arrays]
        self.step = 0


def apply_update(
    arrays: list[np.ndarray],
    grads: list[np.ndarray],
    state: AdamState,
    rate: float,
) -> list[np.ndarray]:
    """One Adam step, with Kingma & Ba's default decay rates and guard.
    ``state`` is advanced in place; the inputs are never mutated, and fresh
    arrays come back."""
    if len(arrays) != len(grads):
        raise ShapeMismatch("parameter and gradient counts differ")
    for a, g in zip(arrays, grads):
        if a.shape != g.shape:
            raise ShapeMismatch(f"update: parameter {a.shape} vs gradient {g.shape}")
    state.step += 1
    t = state.step
    beta1, beta2, eps = 0.9, 0.999, 1e-8
    out = []
    for i, (a, g) in enumerate(zip(arrays, grads)):
        state.m[i] = beta1 * state.m[i] + (1.0 - beta1) * g
        state.v[i] = beta2 * state.v[i] + (1.0 - beta2) * (g * g)
        m_hat = state.m[i] / (1.0 - beta1**t)
        v_hat = state.v[i] / (1.0 - beta2**t)
        out.append(a - rate * m_hat / (np.sqrt(v_hat) + eps))
    return out


@dataclass
class EpochRecord:
    epoch: int
    l_gcn: float
    l_d: float
    l_adv: float
    l_total: float
    mean_score_src: float
    mean_score_tgt: float
    seconds: float  # wall-clock diagnostic; never serialized, so logs of
    # identical runs stay byte-identical


class TrainLog:
    """Per-epoch loss history with a fixed CSV schema: the
    :class:`EpochRecord` fields but ``seconds``, in declaration order."""

    COLUMNS = tuple(f.name for f in fields(EpochRecord) if f.name != "seconds")

    def __init__(self):
        self.records: list[EpochRecord] = []

    def append(self, record: EpochRecord) -> None:
        self.records.append(record)

    def __len__(self):
        return len(self.records)

    def to_csv(self, path) -> None:
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(",".join(self.COLUMNS) + "\n")
            for r in self.records:
                fh.write(",".join(repr(getattr(r, c)) for c in self.COLUMNS) + "\n")


class TrainState:
    """Everything a training step needs besides the parameters themselves."""

    def __init__(
        self,
        pair: GraphPair,
        seeds: RunSeeds,
        enc: EncoderParams,
        disc: DiscriminatorParams,
    ):
        self.prop_src = build_propagation(pair.source)
        self.prop_tgt = build_propagation(pair.target)
        self.sampler_src = NegativeSampler(pair.source.degrees, seeds.sampler_src)
        self.sampler_tgt = NegativeSampler(pair.target.degrees, seeds.sampler_tgt)
        self.batch_rng = np.random.default_rng(seeds.batching)
        self.enc_state = AdamState(enc.arrays())
        self.disc_state = AdamState(disc.arrays())


def init_models(
    pair: GraphPair, cfg: TrainConfig, seeds: RunSeeds | None = None
) -> tuple[EncoderParams, DiscriminatorParams]:
    seeds = derive_seeds(cfg.seed) if seeds is None else seeds
    enc = EncoderParams.init(cfg.encoder_dims(pair.source.feature_dim), seeds.encoder_init)
    disc = DiscriminatorParams.init(
        cfg.embedding_dim, hidden_layers=cfg.disc_hidden_layers, seed=seeds.disc_init
    )
    return enc, disc


def _encode_pair(enc, pair, state) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings of both graphs, read-only, since ``fit`` hands the same
    arrays to the next discriminator round, the snapshot and the hook."""
    v_src = model.encode(enc, state.prop_src, pair.source.features).data
    v_tgt = model.encode(enc, state.prop_tgt, pair.target.features).data
    v_src.setflags(write=False)
    v_tgt.setflags(write=False)
    return v_src, v_tgt


def discriminator_round(
    v_src: np.ndarray,
    v_tgt: np.ndarray,
    disc: DiscriminatorParams,
    cfg: TrainConfig,
    state: TrainState,
) -> float:
    """One discriminator update against fixed embeddings. Takes plain
    arrays, not the encoder: there is structurally nothing here a gradient
    could flow back into. Returns the pre-update loss."""
    tape = GradTape()
    nodes = disc.as_nodes(tape)
    s_src = model.discriminator_forward(nodes, v_src)
    s_tgt = model.discriminator_forward(nodes, v_tgt)
    l_d = model.discriminator_loss(s_src, s_tgt)
    grads = backward(tape, l_d)
    disc.set_arrays(
        apply_update(
            disc.arrays(), [grads[n] for n in nodes], state.disc_state, cfg.disc_lr
        )
    )
    return l_d.item()


def encoder_round(
    pair: GraphPair,
    enc: EncoderParams,
    disc: DiscriminatorParams,
    cfg: TrainConfig,
    state: TrainState,
    batch_src: model.EdgeBatch,
    batch_tgt: model.EdgeBatch,
) -> float:
    """One encoder update. The discriminator participates as a constant:
    its weights stay off the tape, so they receive no update and the
    adversarial gradient lands entirely on the shared encoder weights.
    Returns the pre-update total loss."""
    tape = GradTape()
    nodes = enc.as_nodes(tape)
    v_src = model.encode(nodes, state.prop_src, pair.source.features)
    v_tgt = model.encode(nodes, state.prop_tgt, pair.target.features)
    l_gcn = model.gcn_loss(v_src, v_tgt, batch_src, batch_tgt)
    s_src = model.discriminator_forward(disc, v_src)
    s_tgt = model.discriminator_forward(disc, v_tgt)
    l_adv = model.adversarial_loss(s_src, s_tgt)
    loss = model.total_loss(l_gcn, l_adv, cfg.adv_weight)
    grads = backward(tape, loss)
    enc.set_arrays(
        apply_update(
            enc.arrays(), [grads[n] for n in nodes], state.enc_state, cfg.encoder_lr
        )
    )
    return loss.item()


def evaluate_losses(
    v_src: np.ndarray,
    v_tgt: np.ndarray,
    disc: DiscriminatorParams,
    cfg: TrainConfig,
    batch_src: model.EdgeBatch,
    batch_tgt: model.EdgeBatch,
    epoch: int = -1,
) -> EpochRecord:
    """Loss snapshot of given embeddings: no tape, no parameter update. Every
    loss, the total too, comes from an op, so a NaN or Inf in any of them
    raises :class:`NonFiniteValue`."""
    v_src, v_tgt = Tensor2(v_src), Tensor2(v_tgt)
    l_gcn = model.gcn_loss(v_src, v_tgt, batch_src, batch_tgt)
    s_src = model.discriminator_forward(disc, v_src)
    s_tgt = model.discriminator_forward(disc, v_tgt)
    l_d = model.discriminator_loss(s_src, s_tgt).item()
    l_adv = model.adversarial_loss(s_src, s_tgt)
    return EpochRecord(
        epoch=epoch,
        l_gcn=l_gcn.item(),
        l_d=l_d,
        l_adv=l_adv.item(),
        l_total=model.total_loss(l_gcn, l_adv, cfg.adv_weight).item(),
        mean_score_src=float(s_src.data.mean()),
        mean_score_tgt=float(s_tgt.data.mean()),
        seconds=0.0,
    )


@dataclass
class FitResult:
    """The model ``fit`` trained: both players as they stand after the last
    epoch, that encoder's read-only embeddings of both graphs, and the
    per-epoch log."""

    encoder: EncoderParams
    discriminator: DiscriminatorParams
    embeddings_src: np.ndarray
    embeddings_tgt: np.ndarray
    log: TrainLog


def _edge_slices(edges: np.ndarray, batch_size: int | None, rng) -> list[np.ndarray]:
    if batch_size is None or edges.shape[0] <= batch_size:
        return [edges]
    order = rng.permutation(edges.shape[0])
    shuffled = edges[order]
    return [shuffled[i : i + batch_size] for i in range(0, len(shuffled), batch_size)]


def fit(
    pair: GraphPair,
    cfg: TrainConfig,
    epoch_hook=None,
    diagnostics_path=None,
) -> FitResult:
    """Train on a graph pair from scratch.

    An epoch walks one slice of edges per step (all edges when
    ``cfg.edge_batch_size`` is None): ``cfg.disc_steps`` discriminator
    updates on the current embeddings, one encoder update with freshly
    sampled negatives, then one re-encode, which is the next step's
    discriminator input. The epoch's record scores the final embeddings on
    the full edge sets against one negative batch per graph, drawn once per
    fit from streams training never reads.

    ``epoch_hook(epoch, record, enc, v_src, v_tgt)``, when given, observes
    each finished epoch; ``enc`` is the live encoder, so hooks must copy it
    to keep it, and the embeddings are read-only. On a NaN/Inf loss the
    last finite-loss parameters are dumped to ``diagnostics_path`` (if
    given) and :class:`NonFiniteLoss` is raised with the failing epoch.
    Non-finite input features raise :class:`NonFiniteValue` before
    training starts.
    """
    seeds = derive_seeds(cfg.seed)
    enc, disc = init_models(pair, cfg, seeds)
    state = TrainState(pair, seeds, enc, disc)
    snap_src, snap_tgt = (
        model.sample_edge_batch(
            g.edges, NegativeSampler(g.degrees, seed), cfg.negative_samples
        )
        for g, seed in ((pair.source, seeds.snapshot_src), (pair.target, seeds.snapshot_tgt))
    )
    log = TrainLog()
    last_good = (enc.copy(), disc.copy(), -1)
    v_src, v_tgt = _encode_pair(enc, pair, state)

    for epoch in range(cfg.epochs):
        started = time.perf_counter()
        try:
            src_parts = _edge_slices(pair.source.edges, cfg.edge_batch_size, state.batch_rng)
            tgt_parts = _edge_slices(pair.target.edges, cfg.edge_batch_size, state.batch_rng)
            for i in range(max(len(src_parts), len(tgt_parts))):
                for _ in range(cfg.disc_steps):
                    discriminator_round(v_src, v_tgt, disc, cfg, state)
                batch_src = model.sample_edge_batch(
                    src_parts[i % len(src_parts)], state.sampler_src, cfg.negative_samples
                )
                batch_tgt = model.sample_edge_batch(
                    tgt_parts[i % len(tgt_parts)], state.sampler_tgt, cfg.negative_samples
                )
                encoder_round(pair, enc, disc, cfg, state, batch_src, batch_tgt)
                v_src, v_tgt = _encode_pair(enc, pair, state)
            record = evaluate_losses(v_src, v_tgt, disc, cfg, snap_src, snap_tgt, epoch)
        except NonFiniteValue as exc:
            if diagnostics_path is not None:
                good_enc, good_disc, good_epoch = last_good
                model.save_checkpoint(
                    diagnostics_path, good_enc, good_disc,
                    adv_weight=cfg.adv_weight, seed=cfg.seed,
                    extra={"last_finite_epoch": good_epoch, "failed_epoch": epoch},
                )
                logger.error("diverged at epoch %d; dumped %s", epoch, diagnostics_path)
            raise NonFiniteLoss(epoch, f"{exc} (epoch {epoch})") from exc

        record.seconds = time.perf_counter() - started
        log.append(record)
        last_good = (enc.copy(), disc.copy(), epoch)
        if epoch_hook is not None:
            epoch_hook(epoch, record, enc, v_src, v_tgt)
        if epoch % 50 == 0 or epoch == cfg.epochs - 1:
            logger.info(
                "epoch %d: l_total=%.4f l_gcn=%.4f l_adv=%.4f", epoch,
                record.l_total, record.l_gcn, record.l_adv,
            )

    return FitResult(
        encoder=enc, discriminator=disc, embeddings_src=v_src, embeddings_tgt=v_tgt, log=log
    )


def encode_pair(enc: EncoderParams, pair: GraphPair) -> tuple[np.ndarray, np.ndarray]:
    """Embeddings for both graphs from stored parameters, no training state."""
    v_src = model.encode(enc, build_propagation(pair.source), pair.source.features)
    v_tgt = model.encode(enc, build_propagation(pair.target), pair.target.features)
    return v_src.data, v_tgt.data
