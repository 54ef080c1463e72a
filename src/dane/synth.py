"""Synthetic graph pairs with a controllable domain shift.

Both graphs come from the same stochastic block model: shared block count,
shared feature-space block centers, block membership as the node label. A
single divergence knob then perturbs the second graph's edge densities and
centers, so callers can dial the pair from "same distribution" to
"clearly shifted" and watch how alignment degrades.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import NamedTuple

import numpy as np

from .errors import EmptyBlock
from .eval import LabelSet
from .graph import Graph, GraphPair


@dataclass(frozen=True)
class SynthSpec:
    """Parameters for one graph pair draw."""

    num_blocks: int = 3
    nodes_per_block: int = 100
    p_in: float = 0.15
    p_out: float = 0.02
    feature_dim: int = 16
    noise_sigma: float = 1.0
    divergence: float = 0.0  # how far the second graph drifts
    seed: int = 0
    center_scale: float = 1.0

    def __post_init__(self):
        # each message names the fields its rule reads: the CLI names the
        # config key or flag that set them from it
        if self.num_blocks < 2:
            raise ValueError("num_blocks must be at least 2 for labels to mean anything")
        if self.nodes_per_block < 1:
            raise EmptyBlock(f"nodes_per_block={self.nodes_per_block} leaves blocks empty")
        if not (0.0 <= self.p_out < self.p_in <= 1.0):
            raise ValueError("need 0 <= p_out < p_in <= 1")
        if self.feature_dim < 1:
            raise ValueError("feature_dim must be positive")
        if not 0 <= self.noise_sigma < np.inf:
            raise ValueError("noise_sigma must be finite and non-negative")
        if not 0 <= self.divergence < np.inf:
            raise ValueError("divergence must be finite and non-negative")
        if not 0 < self.center_scale < np.inf:
            raise ValueError("center_scale must be finite and positive")

    @property
    def num_nodes(self) -> int:
        return self.num_blocks * self.nodes_per_block


class SynthPair(NamedTuple):
    pair: GraphPair
    labels_src: LabelSet
    labels_tgt: LabelSet
    spec: SynthSpec


def _block_memberships(spec: SynthSpec) -> np.ndarray:
    return np.repeat(np.arange(spec.num_blocks), spec.nodes_per_block)


# Rows of the n x n edge draw taken at a time. rng.random((n, n)) equals the
# stacked draws of its row blocks bit for bit, so the pair does not depend
# on this, while the draw's arrays hold _DRAW_ROWS * n entries, not n^2.
_DRAW_ROWS = 256


def _sample_graph(
    rng: np.random.Generator,
    spec: SynthSpec,
    centers: np.ndarray,
    p_in: float,
    p_out: float,
) -> Graph:
    blocks = _block_memberships(spec)
    n = spec.num_nodes
    # edges first, features second: fixed stream order is part of the contract
    parts = []
    for start in range(0, n, _DRAW_ROWS):
        prob = np.where(blocks[start : start + _DRAW_ROWS, None] == blocks, p_in, p_out)
        # pairs i < j only: column j > global row start + i
        mask = np.triu(rng.random(prob.shape) < prob, k=start + 1)
        parts.append(np.argwhere(mask) + (start, 0))
    edges = np.concatenate(parts)
    features = centers[blocks] + spec.noise_sigma * rng.normal(size=(n, spec.feature_dim))
    return Graph(n, edges, features)


def _labels(spec: SynthSpec) -> LabelSet:
    blocks = _block_memberships(spec)
    classes = tuple(f"block{b}" for b in range(spec.num_blocks))
    return LabelSet(
        classes, {i: (int(b),) for i, b in enumerate(blocks)}, multi_label=False
    )


# Fraction of the chosen block axis travelled per unit divergence. All
# centers move together, so relative block geometry survives and the pair
# stays alignable in principle; past divergence ~0.31 (half the axis) the
# nearest source cluster flips and that stops holding.
_SHIFT_GAIN = 1.6


def generate_pair(spec: SynthSpec) -> SynthPair:
    """Draw one pair. At divergence 0 the two graphs are independent draws
    from the identical model; raising it multiplies the second graph's edge
    probabilities by (1 + divergence) and translates every block center
    along the axis joining two seed-chosen blocks."""
    root = np.random.SeedSequence(spec.seed)
    ss_centers, ss_src, ss_tgt = root.spawn(3)
    rng_centers = np.random.default_rng(ss_centers)

    centers = spec.center_scale * rng_centers.normal(
        size=(spec.num_blocks, spec.feature_dim)
    )
    # The shift axis joins two block centers, so the drift lies inside the
    # subspace the blocks span: an encoder cannot discard the shifted
    # directions without also losing the blocks themselves. Drawn
    # unconditionally so the source graph is byte-identical across
    # divergence settings of the same seed.
    pick = rng_centers.permutation(spec.num_blocks)[:2]
    axis = centers[pick[1]] - centers[pick[0]]

    src = _sample_graph(np.random.default_rng(ss_src), spec, centers, spec.p_in, spec.p_out)

    d = spec.divergence
    p_in_tgt = min(spec.p_in * (1.0 + d), 1.0)
    p_out_tgt = min(spec.p_out * (1.0 + d), p_in_tgt)
    centers_tgt = centers + (_SHIFT_GAIN * d) * axis
    tgt = _sample_graph(np.random.default_rng(ss_tgt), spec, centers_tgt, p_in_tgt, p_out_tgt)

    labels = _labels(spec)
    return SynthPair(GraphPair(src, tgt), labels, labels, spec)


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
