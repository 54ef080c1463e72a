"""Shared-weight graph encoder, discriminator, and training losses.

One stack of convolution weights encodes both graphs, which is what makes
their embedding spaces comparable at all. The structural loss keeps linked
nodes close (scored against degree-biased negatives); the least-squares
adversarial pair of losses then pushes the two embedding clouds toward a
common distribution: the discriminator learns to score source near 0 and
target near 1, the encoder is rewarded for making it score both wrong.
"""

from __future__ import annotations

import json
import os
import tempfile
from typing import NamedTuple

import numpy as np

from . import compute
from .compute import Tensor2
from .errors import DaneError, ShapeMismatch
from .graph import NegativeSampler, PropagationMatrix, load_json


def _glorot(rng: np.random.Generator, fan_in: int, fan_out: int) -> np.ndarray:
    limit = np.sqrt(6.0 / (fan_in + fan_out))
    return rng.uniform(-limit, limit, size=(fan_in, fan_out))


def _check_consecutive(weights) -> None:
    for a, b in zip(weights, weights[1:]):
        if a.shape[1] != b.shape[0]:
            raise ShapeMismatch(f"consecutive layers disagree: {a.shape} then {b.shape}")


class EncoderParams:
    """Weight matrices of the convolution stack. No biases: the propagation
    step already mixes a self term into every row."""

    __slots__ = ("weights",)

    def __init__(self, weights: list[np.ndarray]):
        if not weights:
            raise ValueError("encoder needs at least one layer")
        _check_consecutive(weights)
        self.weights = [np.ascontiguousarray(w, dtype=np.float64) for w in weights]

    @classmethod
    def init(cls, layer_dims: list[int], seed: int) -> "EncoderParams":
        """Glorot-uniform weights for the given [input, hidden..., output] widths."""
        if len(layer_dims) < 2:
            raise ValueError("layer_dims needs an input and an output width")
        rng = np.random.default_rng(seed)
        return cls([_glorot(rng, a, b) for a, b in zip(layer_dims, layer_dims[1:])])

    @property
    def layer_dims(self) -> list[int]:
        return [w.shape[0] for w in self.weights] + [self.weights[-1].shape[1]]

    @property
    def output_dim(self) -> int:
        return self.weights[-1].shape[1]

    def copy(self) -> "EncoderParams":
        return EncoderParams([w.copy() for w in self.weights])

    def arrays(self) -> list[np.ndarray]:
        return list(self.weights)

    def set_arrays(self, arrays: list[np.ndarray]) -> None:
        self.weights = [np.ascontiguousarray(a, dtype=np.float64) for a in arrays]


class DiscriminatorParams:
    """An MLP scoring each embedding row with one real number.

    Hidden layers use relu; the last layer stays affine so scores can sit
    anywhere near the 0/1 targets of the least-squares objective.
    """

    __slots__ = ("weights", "biases")

    def __init__(self, weights: list[np.ndarray], biases: list[np.ndarray]):
        if len(weights) != len(biases):
            raise ValueError("one bias row per weight matrix")
        _check_consecutive(weights)
        for w, b in zip(weights, biases):
            if np.shape(b) != (1, w.shape[1]):
                raise ShapeMismatch(f"bias {np.shape(b)} does not fit weights {w.shape}")
        self.weights = [np.ascontiguousarray(w, dtype=np.float64) for w in weights]
        self.biases = [np.ascontiguousarray(b, dtype=np.float64) for b in biases]

    @classmethod
    def init(
        cls,
        input_dim: int,
        hidden_layers: int = 2,
        seed: int = 0,
    ) -> "DiscriminatorParams":
        if hidden_layers < 0:
            raise ValueError("hidden_layers must be non-negative")
        dims = [input_dim] * (hidden_layers + 1) + [1]
        rng = np.random.default_rng(seed)
        weights = [_glorot(rng, a, b) for a, b in zip(dims, dims[1:])]
        biases = [np.zeros((1, b)) for b in dims[1:]]
        return cls(weights, biases)

    @property
    def layer_dims(self) -> list[int]:
        return [w.shape[0] for w in self.weights] + [1]

    def copy(self) -> "DiscriminatorParams":
        return DiscriminatorParams(
            [w.copy() for w in self.weights], [b.copy() for b in self.biases]
        )

    def arrays(self) -> list[np.ndarray]:
        """Flat parameter list, weights interleaved with their biases."""
        return [a for layer in zip(self.weights, self.biases) for a in layer]

    def set_arrays(self, arrays: list[np.ndarray]) -> None:
        if len(arrays) != 2 * len(self.weights):
            raise ValueError("array count does not match layer count")
        self.weights = [np.ascontiguousarray(a, dtype=np.float64) for a in arrays[0::2]]
        self.biases = [np.ascontiguousarray(a, dtype=np.float64) for a in arrays[1::2]]


def encode(params, prop: PropagationMatrix, features, *, propagated: bool = False) -> Tensor2:
    """Run the convolution stack over one graph.

    ``params`` is either :class:`EncoderParams` or its ``arrays()`` as tape
    parameters when gradients are wanted. Hidden layers apply relu; the
    final layer is linear so the output space is not boxed into one orthant.
    With ``propagated``, ``features`` is already P·X, the first layer's
    propagation, which no weight changes, so training computes it once per
    graph.
    """
    weights = params.weights if isinstance(params, EncoderParams) else list(params)
    h = compute.matmul(features if propagated else compute.spmm(prop, features), weights[0])
    for w in weights[1:]:
        h = compute.matmul(compute.spmm(prop, compute.relu(h)), w)
    return h


class EdgeBatch:
    """Positive pairs plus per-pair negatives, in one (E, 2+Q) id array.

    Each row of ``ids`` holds the anchor whose dot products are scored, its
    linked partner, then Q sampled negatives (Q may be zero). ``pairs``
    (E, 2) and ``negatives`` (E, Q) are views of it, so the array the edge
    loss reads is built once per batch.
    """

    __slots__ = ("ids",)

    def __init__(self, pairs, negatives):
        pairs = np.asarray(pairs).reshape(-1, 2)
        negatives = np.asarray(negatives)
        if negatives.ndim != 2 or negatives.shape[0] != pairs.shape[0]:
            raise ShapeMismatch(
                f"negatives {negatives.shape} do not align with pairs {pairs.shape}"
            )
        self.ids = np.empty((pairs.shape[0], 2 + negatives.shape[1]), dtype=np.int64)
        self.ids[:, :2] = pairs
        self.ids[:, 2:] = negatives

    @property
    def pairs(self) -> np.ndarray:
        return self.ids[:, :2]

    @property
    def negatives(self) -> np.ndarray:
        return self.ids[:, 2:]

    @property
    def size(self) -> int:
        return self.ids.shape[0]


def sample_edge_batch(
    edges: np.ndarray, sampler: NegativeSampler, num_negatives: int
) -> EdgeBatch:
    """Pair every edge with ``num_negatives`` freshly sampled nodes."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    if num_negatives < 0:
        raise ValueError("num_negatives must be non-negative")
    draws = sampler.sample(edges.shape[0] * num_negatives)
    return EdgeBatch(edges, draws.reshape(edges.shape[0], num_negatives))


def edge_loss(v: Tensor2, batch: EdgeBatch) -> Tensor2:
    """Negative log likelihood of observed edges against sampled negatives.

    Sum over pairs of -log sigmoid(v_i . v_j), plus for each negative k of
    pair anchor i, -log sigmoid(-v_i . v_k). Sum reduction: every edge
    contributes the same weight regardless of batch size. One tape op, which
    scores each anchor against its partner and negatives straight from the
    batch's ids, forms no E x d array, and pulls its gradient through one
    n x n sparse matrix (see :func:`compute.negative_sampling_loss`).
    """
    if batch.size == 0:
        return Tensor2(np.zeros((1, 1)))
    return compute.negative_sampling_loss(v, batch.ids)


def gcn_loss(
    v_src: Tensor2, v_tgt: Tensor2, batch_src: EdgeBatch, batch_tgt: EdgeBatch
) -> Tensor2:
    """Structural loss summed over both graphs."""
    return compute.add(edge_loss(v_src, batch_src), edge_loss(v_tgt, batch_tgt))


def discriminator_forward(params, v) -> Tensor2:
    """Score each row of ``v``; returns (n, 1). ``params`` is either
    :class:`DiscriminatorParams` or its ``arrays()`` as tape parameters."""
    arrays = params.arrays() if isinstance(params, DiscriminatorParams) else params
    layers = list(zip(arrays[0::2], arrays[1::2]))
    h = v if isinstance(v, Tensor2) else Tensor2(v)
    last = len(layers) - 1
    for i, (w, b) in enumerate(layers):
        h = compute.affine(h, w, b)
        if i < last:
            h = compute.relu(h)
    return h


def discriminator_loss(scores_src: Tensor2, scores_tgt: Tensor2) -> Tensor2:
    """Least squares toward the true domain labels: source 0, target 1."""
    return compute.least_squares(scores_src, scores_tgt, 0.0, 1.0)


def adversarial_loss(scores_src: Tensor2, scores_tgt: Tensor2) -> Tensor2:
    """Least squares toward the flipped labels, rewarding embeddings the
    discriminator mistakes for the other graph."""
    return compute.least_squares(scores_src, scores_tgt, 1.0, 0.0)


def total_loss(l_gcn: Tensor2, l_adv: Tensor2, weight: float) -> Tensor2:
    """Structural plus ``weight`` times adversarial. With weight 0 the
    adversarial branch contributes exactly zero gradient, not merely a
    small one."""
    return compute.add(l_gcn, compute.scale(l_adv, weight))


# --- checkpoints ---------------------------------------------------------------


CHECKPOINT_VERSION = 1


def _atomic_write_text(path, text: str) -> None:
    directory = os.path.dirname(os.path.abspath(path))
    os.makedirs(directory, exist_ok=True)
    fd, tmp = tempfile.mkstemp(dir=directory, suffix=".tmp")
    try:
        with os.fdopen(fd, "w", encoding="utf-8") as fh:
            fh.write(text)
        os.replace(tmp, path)
    except BaseException:
        if os.path.exists(tmp):
            os.unlink(tmp)
        raise


def save_checkpoint(
    path,
    encoder: EncoderParams,
    discriminator: DiscriminatorParams,
    *,
    adv_weight: float,
    seed: int,
    extra: dict | None = None,
) -> None:
    """Write everything needed to re-encode and resume: weights, the
    adversarial weight, and the run seed. Atomic so a crash never leaves a
    half-written file at the target path."""
    doc = {
        "format_version": CHECKPOINT_VERSION,
        "adv_weight": float(adv_weight),
        "seed": int(seed),
        "encoder": {
            "layer_dims": encoder.layer_dims,
            "weights": [w.tolist() for w in encoder.weights],
        },
        "discriminator": {
            "layer_dims": discriminator.layer_dims,
            "weights": [w.tolist() for w in discriminator.weights],
            "biases": [b.tolist() for b in discriminator.biases],
        },
        "extra": extra or {},
    }
    _atomic_write_text(path, json.dumps(doc, sort_keys=True))


class Checkpoint(NamedTuple):
    encoder: EncoderParams
    discriminator: DiscriminatorParams
    adv_weight: float
    seed: int
    extra: dict


def _checkpoint_fields(doc, path, *keys: str) -> list:
    """``doc[a][b]...`` for each key "a.b...", or a :class:`DaneError` that
    names the file and the whole missing key."""
    values = []
    for key in keys:
        node = doc
        for part in key.split("."):
            if not isinstance(node, dict) or part not in node:
                raise DaneError(f"{path}: checkpoint has no {key!r}")
            node = node[part]
        values.append(node)
    return values


def _checkpoint_matrix(value, path, key: str) -> np.ndarray:
    """A non-empty finite 2-D float64 array from a JSON list of lists, or a
    :class:`DaneError` naming the file and the key."""
    try:
        m = np.array(value) if isinstance(value, list) else None
    except ValueError:  # ragged rows
        m = None
    if m is None or m.dtype.kind not in "iuf" or m.ndim != 2 or m.size == 0:
        raise DaneError(f"{path}: checkpoint {key} is not a rectangular list of numbers")
    m = m.astype(np.float64)
    if not np.isfinite(m).all():
        raise DaneError(f"{path}: checkpoint {key} holds a non-finite value")
    return m


def _checkpoint_matrices(values, path, key: str) -> list[np.ndarray]:
    if not isinstance(values, list) or not values:
        raise DaneError(f"{path}: checkpoint {key} is not a non-empty list")
    return [_checkpoint_matrix(v, path, f"{key}[{i}]") for i, v in enumerate(values)]


def load_checkpoint(path) -> Checkpoint:
    """Read a checkpoint written by :func:`save_checkpoint`. Anything that
    could not have been written by it raises a :class:`DaneError` that
    names the file."""
    doc = load_json(path, "checkpoint")
    (version,) = _checkpoint_fields(doc, path, "format_version")
    if version != CHECKPOINT_VERSION:
        raise DaneError(f"{path}: unsupported checkpoint format_version {version!r}")
    enc_weights, enc_dims, disc_weights, disc_biases, adv_weight, seed = _checkpoint_fields(
        doc, path, "encoder.weights", "encoder.layer_dims", "discriminator.weights",
        "discriminator.biases", "adv_weight", "seed",
    )
    try:
        encoder = EncoderParams(_checkpoint_matrices(enc_weights, path, "encoder.weights"))
    except ShapeMismatch as exc:
        raise DaneError(f"{path}: checkpoint encoder: {exc}") from None
    if encoder.layer_dims != enc_dims:
        raise DaneError(
            f"{path}: checkpoint encoder.layer_dims {enc_dims!r} do not match its "
            f"weights, which give {encoder.layer_dims}"
        )
    try:
        disc = DiscriminatorParams(
            _checkpoint_matrices(disc_weights, path, "discriminator.weights"),
            _checkpoint_matrices(disc_biases, path, "discriminator.biases"),
        )
    except (ShapeMismatch, ValueError) as exc:
        raise DaneError(f"{path}: checkpoint discriminator: {exc}") from None
    if disc.layer_dims[0] != encoder.output_dim:
        raise DaneError(
            f"{path}: checkpoint discriminator takes {disc.layer_dims[0]} inputs, "
            f"but the encoder gives {encoder.output_dim}"
        )
    if isinstance(adv_weight, bool) or not isinstance(adv_weight, (int, float)):
        raise DaneError(f"{path}: checkpoint adv_weight {adv_weight!r} is not a number")
    if isinstance(seed, bool) or not isinstance(seed, int):
        raise DaneError(f"{path}: checkpoint seed {seed!r} is not an integer")
    if seed < 0:
        raise DaneError(f"{path}: checkpoint seed {seed} is negative")
    extra = doc.get("extra", {})
    if not isinstance(extra, dict):
        raise DaneError(f"{path}: checkpoint 'extra' is not a JSON object")
    return Checkpoint(encoder, disc, float(adv_weight), seed, extra)
