"""Reference computations the benchmark checks the program against.

Everything here uses numpy alone and none of the program's code: the
propagation is accumulated edge by edge instead of through a sparse matrix,
MMD² is taken from explicit coordinate differences instead of the Gram
expansion, and F1 is counted from integer labels instead of indicator
matrices. A check that compares the program with its own code would pass
whatever the code did.
"""

from __future__ import annotations

import hashlib
import math

import numpy as np

# Relative tolerance between a program value and its reference. The two sum
# in different orders, so they agree to rounding, not bit for bit.
RTOL = 1e-9


def propagate(edges: np.ndarray, num_nodes: int, h: np.ndarray) -> np.ndarray:
    """P·h with P = D^-1/2 (A + I) D^-1/2 and D the degree plus one,
    accumulated over the undirected edge list."""
    edges = np.asarray(edges, dtype=np.int64).reshape(-1, 2)
    u, v = edges[:, 0], edges[:, 1]
    d1 = np.bincount(edges.ravel(), minlength=num_nodes) + 1.0
    w = 1.0 / np.sqrt(d1[u] * d1[v])
    out = h / d1[:, None]
    np.add.at(out, u, w[:, None] * h[v])
    np.add.at(out, v, w[:, None] * h[u])
    return out


def encode(weights, edges, num_nodes: int, features: np.ndarray) -> np.ndarray:
    """Shared-weight graph convolution stack: relu between layers, the last
    layer linear."""
    h = np.asarray(features, dtype=np.float64)
    for i, w in enumerate(weights):
        h = propagate(edges, num_nodes, h) @ np.asarray(w, dtype=np.float64)
        if i < len(weights) - 1:
            h = np.maximum(h, 0.0)
    return h


def _upper_sq_distances(x: np.ndarray, rows: int = 64) -> list[np.ndarray]:
    """Row i of the result holds |x_i - x_j|² for every j > i, summed from
    coordinate differences."""
    out = []
    for start in range(0, x.shape[0], rows):
        diff = x[start : start + rows, None, :] - x[None, start:, :]
        block = np.einsum("ijk,ijk->ij", diff, diff)
        out.extend(block[r, r + 1 :] for r in range(block.shape[0]))
    return out


def mmd2(v_a: np.ndarray, v_b: np.ndarray) -> float:
    """Biased MMD² under an RBF kernel exp(-d²/m), m the median of the
    positive squared distances between distinct pooled rows."""
    pooled = np.vstack([v_a, v_b]).astype(np.float64)
    na, n = v_a.shape[0], pooled.shape[0]
    nb = n - na
    upper = _upper_sq_distances(pooled)
    flat = np.concatenate(upper)
    positive = flat[flat > 0]
    m = float(np.median(positive)) if positive.size else 1.0
    del flat, positive
    # the kernel is symmetric with a unit diagonal, so each block sum is
    # its diagonal plus twice its strict upper triangle
    s_aa, s_bb, s_ab = float(na), float(nb), 0.0
    for i, d2 in enumerate(upper):
        k = np.exp(-d2 / m)
        if i < na:
            s_aa += 2.0 * k[: na - i - 1].sum()
            s_ab += k[na - i - 1 :].sum()
        else:
            s_bb += 2.0 * k.sum()
    return max(s_aa / na**2 + s_bb / nb**2 - 2.0 * s_ab / (na * nb), 0.0)


def macro_f1(truth: np.ndarray, predicted: np.ndarray, num_classes: int) -> float:
    """Mean over classes of 2·tp / (2·tp + fp + fn); a class with no true
    and no predicted member scores 0."""
    truth = np.asarray(truth, dtype=np.int64)
    predicted = np.asarray(predicted, dtype=np.int64)
    total = 0.0
    for c in range(num_classes):
        tp = int(np.sum((truth == c) & (predicted == c)))
        fp = int(np.sum((truth != c) & (predicted == c)))
        fn = int(np.sum((truth == c) & (predicted != c)))
        denom = 2 * tp + fp + fn
        total += 2 * tp / denom if denom else 0.0
    return total / num_classes


def loss_log_faults(rows, adv_weight: float) -> list[str]:
    """Properties every logged epoch of a run must have. ``rows`` holds
    (l_gcn, l_d, l_adv, l_total) per epoch. The two least-squares losses
    sum to at least 1 for any scores, since s² + (1-s)² >= 1/2."""
    faults = []
    if not rows:
        return ["the run logged no epoch"]
    for epoch, (l_gcn, l_d, l_adv, l_total) in enumerate(rows):
        if not all(math.isfinite(x) for x in (l_gcn, l_d, l_adv, l_total)):
            faults.append(f"epoch {epoch}: non-finite loss")
            continue
        if l_d + l_adv < 1.0 - 1e-12:
            faults.append(f"epoch {epoch}: l_d + l_adv = {l_d + l_adv!r} < 1")
        expected = l_gcn + adv_weight * l_adv
        if abs(l_total - expected) > 1e-12 * max(1.0, abs(expected)):
            faults.append(f"epoch {epoch}: l_total {l_total!r} != l_gcn + w*l_adv {expected!r}")
    if not rows[-1][0] < rows[0][0]:
        faults.append(f"final l_gcn {rows[-1][0]!r} not below epoch-0 {rows[0][0]!r}")
    return faults


def close(got: np.ndarray, want: np.ndarray) -> bool:
    """Equal to rounding, relative to the largest magnitude in ``want``."""
    got, want = np.asarray(got, dtype=np.float64), np.asarray(want, dtype=np.float64)
    if got.shape != want.shape:
        return False
    scale = max(1.0, float(np.abs(want).max(initial=0.0)))
    return bool(np.abs(got - want).max(initial=0.0) <= RTOL * scale)


def output_sha256(embeddings, log_rows) -> str:
    """Fingerprint of a run's result: the float64 bytes of the final
    embeddings, then of every logged loss value, in order."""
    h = hashlib.sha256()
    for v in embeddings:
        h.update(np.ascontiguousarray(v, dtype=np.float64).tobytes())
    h.update(np.asarray(log_rows, dtype=np.float64).tobytes())
    return h.hexdigest()
