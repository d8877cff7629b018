"""Fused fair loss vs the loop oracle — the Eq. 12 hot-path benchmark.

The sampled fine-tune's wall-time was dominated by the ``I × K`` python loop
of gather/sub/power chains in the fair loss.  The fused implementation
(one CSR gather-sum over all counterfactual pairs + the
``n_v + n_cf − 2 h_v·h_cf`` expansion) must be **at least 5x faster** at the
acceptance operating point I=8, K=10, N=5000 — forward *and* backward, since
both run every optimizer step.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import record_output
from oracles import fair_representation_loss_reference

from repro.core.counterfactual import CounterfactualIndex
from repro.core.fairloss import fair_representation_loss
from repro.tensor import Tensor

NUM_ATTRS, TOP_K, NUM_NODES, DIM = 8, 10, 5000, 16
ROUNDS = 5


def _problem():
    rng = np.random.default_rng(0)
    representations = rng.normal(size=(NUM_NODES, DIM))
    index = CounterfactualIndex(
        indices=rng.integers(0, NUM_NODES, size=(NUM_ATTRS, NUM_NODES, TOP_K)),
        valid=rng.random((NUM_ATTRS, NUM_NODES)) < 0.9,
    )
    weights = np.full(NUM_ATTRS, 1.0 / NUM_ATTRS)
    return representations, index, weights


def _run(fn, representations, index, weights):
    tensor = Tensor(representations, requires_grad=True)
    loss, disparities = fn(tensor, index, weights)
    loss.backward()
    return float(loss.data), disparities, tensor.grad


def _time(fn, *args) -> float:
    _run(fn, *args)  # warm-up
    start = time.perf_counter()
    for _ in range(ROUNDS):
        _run(fn, *args)
    return (time.perf_counter() - start) / ROUNDS


def test_fused_fairloss_speedup(benchmark):
    representations, index, weights = _problem()

    loop_seconds = _time(fair_representation_loss_reference, representations, index, weights)
    fused_seconds = _time(fair_representation_loss, representations, index, weights)
    benchmark.pedantic(
        lambda: _run(fair_representation_loss, representations, index, weights),
        rounds=ROUNDS,
        iterations=1,
    )
    speedup = loop_seconds / fused_seconds

    fused = _run(fair_representation_loss, representations, index, weights)
    loop = _run(fair_representation_loss_reference, representations, index, weights)

    lines = [
        f"fair loss forward+backward, I={NUM_ATTRS} K={TOP_K} N={NUM_NODES} d={DIM}",
        "",
        f"{'impl':<12}{'ms/step':>10}",
        f"{'loop':<12}{loop_seconds * 1e3:>10.1f}",
        f"{'fused':<12}{fused_seconds * 1e3:>10.1f}",
        f"speedup: {speedup:.1f}x",
    ]
    record_output("fairloss_fused", "\n".join(lines))

    # Parity first (a fast wrong answer is no optimisation) ...
    np.testing.assert_allclose(fused[0], loop[0], rtol=1e-9)
    np.testing.assert_allclose(fused[1], loop[1], rtol=1e-9, atol=1e-9)
    np.testing.assert_allclose(fused[2], loop[2], rtol=1e-9, atol=1e-9)
    # ... then the acceptance bar.
    assert speedup >= 5.0, f"fused fair loss only {speedup:.1f}x faster"
