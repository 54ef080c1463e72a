"""Shared test helpers."""

from __future__ import annotations

import numpy as np

from dane import compute
from dane.compute import GradTape, backward


def numeric_grad(f, arrays, eps=1e-6):
    """Central-difference gradient of a scalar function of several arrays.

    ``f`` is called as ``f(arrays)`` and must read the (mutated in place)
    array values on every call.
    """
    grads = []
    for a in arrays:
        g = np.zeros_like(a)
        flat, gflat = a.ravel(), g.ravel()
        for i in range(flat.size):
            orig = flat[i]
            flat[i] = orig + eps
            hi = f(arrays)
            flat[i] = orig - eps
            lo = f(arrays)
            flat[i] = orig
            gflat[i] = (hi - lo) / (2.0 * eps)
        grads.append(g)
    return grads


def total(a):
    """Sum of every entry of a tensor, as two tape matmuls with vectors of
    ones, so the gradient is exactly one per entry; an empty tensor sums
    to zero."""
    rows, cols = a.data.shape
    return compute.matmul(compute.matmul(np.ones((1, rows)), a), np.ones((cols, 1)))


def tape_grads(build, arrays):
    """Run ``build(nodes) -> loss`` on a fresh tape; return (loss, grads list)."""
    tape = GradTape()
    nodes = [tape.parameter(a) for a in arrays]
    loss = build(nodes)
    grads = backward(tape, loss)
    return loss.item(), [grads[n] for n in nodes]


def check_gradients(build, arrays, atol=1e-7, rtol=1e-5):
    """Compare tape gradients against central differences for every array."""
    _, analytic = tape_grads(build, arrays)

    def scalar(arrs):
        tape = GradTape()
        nodes = [tape.parameter(a) for a in arrs]
        return build(nodes).item()

    numeric = numeric_grad(scalar, arrays)
    for got, want in zip(analytic, numeric):
        np.testing.assert_allclose(got, want, atol=atol, rtol=rtol)
