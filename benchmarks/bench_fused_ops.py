"""Fused autograd kernels vs their composed-graph forms — the PR 8 hot paths.

Three chains were collapsed into single graph nodes with analytic adjoints:
BCE-with-logits (7 op nodes → 1), the fair-loss pair-disparity kernel
(13 nodes + a gather/scatter round-trip → 1),
and the Adam update (a chain of full-size temporaries → one in-place
kernel).  All three are bit-identical to the composed forms (pinned by
``tests/test_fused_ops.py``); this bench pins the *speed* side: the fused
BCE forward+backward must be **at least 1.5x faster** than the composed
graph at quick scale, and the other two kernels' timings are recorded into
``BENCH_fused_ops.json`` for the CI regression gate.

Composed and fused forms are timed in interleaved rounds, alternating which
goes first, so a slow phase of a shared machine hits both alike.  The gates
assert on the median per-round speedup; its quartiles are recorded in
``BENCH_fused_ops.json`` to show how noisy the run was.
"""

from __future__ import annotations

import time

import numpy as np
from conftest import record_json, record_output
from oracles import (
    _composed_pair_disparities,
    binary_cross_entropy_with_logits_reference,
)

from repro.core.fairloss import _fused_pair_disparities
from repro.nn.losses import binary_cross_entropy_with_logits
from repro.nn.module import Parameter
from repro.optim import Adam
from repro.tensor import Tensor

NUM_ELEMENTS = 200_000  # BCE operating point: logits over a large batch
ROUNDS = 20  # interleaved composed/fused rounds per kernel (at least 15)


def _time(fn, rounds=ROUNDS) -> float:
    fn()  # warm-up
    start = time.perf_counter()
    for _ in range(rounds):
        fn()
    return (time.perf_counter() - start) / rounds


def _interleaved(composed, fused, rounds=ROUNDS) -> dict:
    """Time one call of each form per round, alternating which goes first.

    Returns each form's median milliseconds per call, and the median and
    quartiles of the per-round speedup ``composed / fused``.
    """
    composed(), fused()  # warm-up
    times = np.empty((rounds, 2))
    for round_ in range(rounds):
        for side in (0, 1) if round_ % 2 == 0 else (1, 0):
            fn = (composed, fused)[side]
            start = time.perf_counter()
            fn()
            times[round_, side] = time.perf_counter() - start
    q1, median, q3 = np.percentile(times[:, 0] / times[:, 1], [25, 50, 75])
    return {
        "composed_ms": float(np.median(times[:, 0])) * 1e3,
        "fused_ms": float(np.median(times[:, 1])) * 1e3,
        "speedup": float(median),
        "speedup_quartiles": [float(q1), float(q3)],
        "rounds": rounds,
    }


def _bce_step(loss_fn, logits, targets, weights):
    tensor = Tensor(logits, requires_grad=True)
    loss_fn(tensor, targets, weights).backward()
    return tensor.grad


def _fair_step(disparity_fn, representations, indices, anchors, scale):
    tensor = Tensor(representations, requires_grad=True)
    disparity_fn(tensor, indices, anchors, scale).backward(
        np.ones(indices.shape[0])
    )
    return tensor.grad


def test_fused_kernel_speedups(benchmark):
    rng = np.random.default_rng(0)

    # --- BCE: the acceptance kernel -------------------------------------- #
    logits = rng.standard_normal(NUM_ELEMENTS) * 3.0
    targets = (rng.random(NUM_ELEMENTS) > 0.4).astype(float)
    weights = rng.random(NUM_ELEMENTS)
    bce = _interleaved(
        lambda: _bce_step(
            binary_cross_entropy_with_logits_reference, logits, targets, weights
        ),
        lambda: _bce_step(
            binary_cross_entropy_with_logits, logits, targets, weights
        ),
    )
    benchmark.pedantic(
        lambda: _bce_step(
            binary_cross_entropy_with_logits, logits, targets, weights
        ),
        rounds=ROUNDS,
        iterations=1,
    )

    # --- fair-loss pair disparities -------------------------------------- #
    num_pairs, num_nodes, top_k, dim = 8, 5000, 10, 16
    representations = rng.standard_normal((num_nodes, dim))
    indices = rng.integers(0, num_nodes, size=(num_pairs, num_nodes, top_k))
    anchors = np.arange(num_nodes, dtype=np.int64)
    scale = rng.random((num_pairs, num_nodes))
    fair = _interleaved(
        lambda: _fair_step(
            _composed_pair_disparities, representations, indices, anchors, scale
        ),
        lambda: _fair_step(
            _fused_pair_disparities, representations, indices, anchors, scale
        ),
    )

    # --- Adam ------------------------------------------------------------- #
    param = Parameter(rng.standard_normal((512, 256)))
    optimizer = Adam([param], lr=1e-3, weight_decay=1e-4)
    param.grad = rng.standard_normal((512, 256))
    adam_step = _time(optimizer.step)

    def row(name, kernel):
        q1, q3 = kernel["speedup_quartiles"]
        return (
            f"{name:<16}{kernel['composed_ms']:>12.2f}{kernel['fused_ms']:>10.2f}"
            f"{kernel['speedup']:>8.2f}x  [{q1:.2f}, {q3:.2f}]"
        )

    lines = [
        f"fused kernels, forward+backward per call (quick operating points): "
        f"medians of {ROUNDS} interleaved rounds, speedup quartiles in brackets",
        "",
        f"{'kernel':<16}{'composed ms':>12}{'fused ms':>10}{'speedup':>9}",
        row("bce_logits", bce),
        row("fair_pairs", fair),
        f"{'adam_step':<16}{'—':>12}{adam_step * 1e3:>10.2f}{'':>9}",
    ]
    record_output("fused_ops", "\n".join(lines))
    record_json(
        "fused_ops",
        {"bce": bce, "fair": fair, "adam": {"step_ms": adam_step * 1e3}},
    )

    # Parity first (a fast wrong answer is no optimisation) ...
    g_fused = _bce_step(binary_cross_entropy_with_logits, logits, targets, weights)
    g_composed = _bce_step(
        binary_cross_entropy_with_logits_reference, logits, targets, weights
    )
    np.testing.assert_array_equal(g_fused, g_composed)
    # ... then the acceptance bar, on the median per-round speedup.
    assert bce["speedup"] >= 1.5, (
        f"fused BCE only {bce['speedup']:.2f}x faster (median of {ROUNDS} "
        f"rounds, quartiles {bce['speedup_quartiles']})"
    )
    assert fair["speedup"] >= 1.0, "fused fair kernel slower than composed"
