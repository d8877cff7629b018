"""Scale benchmark: full-batch vs minibatch training on a scale-free graph.

``test_scale_minibatch`` trains the same SAGE backbone twice on a generated
scale-free graph — once full-batch (``fit_binary_classifier``) and once with
neighbour-sampled minibatches (``fit_minibatch``) — and reports wall-time,
peak traced allocation (tracemalloc, which numpy reports into), and test
accuracy.

``test_scale_fairwos_end_to_end`` runs the *whole* Fairwos pipeline
(encoder pre-train → classifier pre-train → counterfactual fine-tune) with
every phase sampled and the ANN counterfactual backend — the configuration
that takes Fairwos past the ~10k-node ceiling of the exact O(N²) search —
and reports per-phase wall-time plus peak memory.

``test_scale_fairwos_fullstack`` is the 1M-node acceptance run: the same
pipeline with ``dtype="float32"``, the graph saved via ``save_graph_mmap``
and memory-mapped back, and incremental ANN index maintenance — trained in
a child process whose peak RSS (the OS-level number, which tracemalloc
cannot see mmap paging in) is recorded into the bench JSON.

Graph size follows REPRO_BENCH_SCALE: smoke ≈ 2k nodes, quick ≈ 20k
(Fairwos: 50k), paper ≈ 200k (Fairwos: 100k), full = 1M for the
full-stack run.  The minibatch engine's peak memory is bounded by the
batch receptive field rather than N, so its advantage grows with scale;
the ordering is only asserted at paper scale where the gap is structural.
"""

from __future__ import annotations

import json
import subprocess
import sys
import time
import tracemalloc

import numpy as np
import pytest
from conftest import bench_scale, bench_scale_name, record_json, record_output

from repro.core import ExecutionConfig, FairwosConfig, FairwosTrainer
from repro.datasets import generate_scale_free_graph
from repro.experiments import run_method
from repro.fairness.metrics import accuracy
from repro.gnnzoo import make_backbone
from repro.io import save_graph_mmap
from repro.tensor import Tensor
from repro.training import (
    fit_binary_classifier,
    fit_minibatch,
    predict_logits,
    predict_logits_batched,
)

SCALE = bench_scale()
SCALE_NAME = bench_scale_name()
# Node counts key off the scale *name*: "full" reuses smoke's epoch/seed
# budgets (one sampled epoch at 1M is already ~1000 optimizer steps), so
# keying off SCALE.seeds would collide it with smoke.
NODES = {"smoke": 2_000, "quick": 20_000, "paper": 200_000, "full": 200_000}[
    SCALE_NAME
]
FAIRWOS_NODES = {
    "smoke": 2_000,
    "quick": 50_000,
    "paper": 100_000,
    "full": 100_000,
}[SCALE_NAME]
FULLSTACK_NODES = {
    "smoke": 2_000,
    "quick": 50_000,
    "paper": 200_000,
    "full": 1_000_000,
}[SCALE_NAME]
EPOCHS = max(3, min(SCALE.epochs // 15, 10))
FANOUTS = (10, 5)
BATCH_SIZE = 512


def _traced(fn):
    """Run ``fn`` and return (result, seconds, peak_traced_bytes)."""
    tracemalloc.start()
    start = time.perf_counter()
    result = fn()
    seconds = time.perf_counter() - start
    _, peak = tracemalloc.get_traced_memory()
    tracemalloc.stop()
    return result, seconds, peak


def test_scale_minibatch(benchmark):
    graph = generate_scale_free_graph(
        NODES, num_features=12, average_degree=8, seed=0
    ).standardized()
    test_labels = graph.labels[graph.test_mask]

    def train_full():
        model = make_backbone(
            "sage", graph.num_features, 16, np.random.default_rng(0), num_layers=2
        )
        fit_binary_classifier(
            model,
            Tensor(graph.features),
            graph.adjacency,
            graph.labels,
            graph.train_mask,
            graph.val_mask,
            epochs=EPOCHS,
        )
        logits = predict_logits(model, Tensor(graph.features), graph.adjacency)
        return accuracy((logits[graph.test_mask] > 0).astype(np.int64), test_labels)

    def train_minibatch():
        model = make_backbone(
            "sage", graph.num_features, 16, np.random.default_rng(0), num_layers=2
        )
        fit_minibatch(
            model,
            graph.features,
            graph.adjacency,
            graph.labels,
            graph.train_mask,
            graph.val_mask,
            epochs=EPOCHS,
            fanouts=FANOUTS,
            batch_size=BATCH_SIZE,
            rng=0,
        )
        logits = predict_logits_batched(
            model, graph.features, graph.adjacency, batch_size=1024
        )
        return accuracy((logits[graph.test_mask] > 0).astype(np.int64), test_labels)

    full_acc, full_s, full_peak = _traced(train_full)
    mini_acc, mini_s, mini_peak = benchmark.pedantic(
        lambda: _traced(train_minibatch), rounds=1, iterations=1
    )

    lines = [
        f"scale-free graph: {graph.summary()}",
        f"epochs={EPOCHS} fanouts={FANOUTS} batch_size={BATCH_SIZE}",
        "",
        f"{'mode':<12}{'seconds':>10}{'peak MiB':>12}{'test acc':>10}",
        f"{'full-batch':<12}{full_s:>10.2f}{full_peak / 2**20:>12.1f}{full_acc:>10.3f}",
        f"{'minibatch':<12}{mini_s:>10.2f}{mini_peak / 2**20:>12.1f}{mini_acc:>10.3f}",
    ]
    record_output("scale_minibatch", "\n".join(lines))
    record_json(
        "scale_minibatch",
        {
            "nodes": NODES,
            "epochs": EPOCHS,
            "full_batch": {
                "wall_seconds": full_s,
                "peak_mib": full_peak / 2**20,
                "test_accuracy": full_acc,
            },
            "minibatch": {
                "wall_seconds": mini_s,
                "peak_mib": mini_peak / 2**20,
                "test_accuracy": mini_acc,
            },
        },
    )

    # Utility parity: the sampled estimator must stay competitive.
    assert mini_acc >= full_acc - 0.05
    # The memory bound is structural (independent of N) only once the graph
    # dwarfs the batch receptive field; assert it at paper scale.
    if NODES >= 100_000:
        assert mini_peak < full_peak


@pytest.mark.slow
def test_scale_all_baselines_minibatch(benchmark):
    """Every Table II method end-to-end on the large scale-free graph.

    The acceptance run for the baseline-minibatch wiring:
    ``repro --method ksmote|fairrf|fairgkd --minibatch --dataset scalefree
    --nodes 50000`` must complete for all three (plus vanilla/remover, wired
    in PR 1/2) — this bench runs exactly that through ``run_method`` with
    bench-sized epoch budgets and reports per-method wall-time and metrics.
    """
    graph = generate_scale_free_graph(
        FAIRWOS_NODES, num_features=12, average_degree=8, seed=0
    ).standardized()
    methods = ["vanilla", "remover", "ksmote", "fairrf", "fairgkd"]
    # Optimizer steps per epoch shrink with the graph (ceil(N / batch)), so
    # small smoke graphs need more epochs for a comparable budget.
    epochs = max(EPOCHS, 60_000 // FAIRWOS_NODES)

    def run_all():
        results = {}
        for method in methods:
            results[method] = run_method(
                method,
                graph,
                seed=0,
                epochs=epochs,
                patience=None,
                execution=ExecutionConfig(
                    minibatch=True,
                    fanouts=FANOUTS,
                    batch_size=BATCH_SIZE,
                ),
            )
        return results

    results, seconds, peak = benchmark.pedantic(
        lambda: _traced(run_all), rounds=1, iterations=1
    )

    lines = [
        f"scale-free graph: {graph.summary()}",
        f"epochs={epochs} fanouts={FANOUTS} batch_size={BATCH_SIZE}",
        "",
        f"{'method':<12}{'seconds':>10}{'test acc':>10}{'ΔSP':>8}",
        *(
            f"{name:<12}{r.seconds:>10.2f}{r.test.accuracy:>10.3f}"
            f"{r.test.delta_sp:>8.3f}"
            for name, r in results.items()
        ),
        f"total {seconds:.1f}s  peak {peak / 2**20:.1f} MiB",
    ]
    record_output("scale_all_baselines", "\n".join(lines))
    record_json(
        "scale_all_baselines",
        {
            "nodes": FAIRWOS_NODES,
            "epochs": epochs,
            "wall_seconds": seconds,
            "peak_mib": peak / 2**20,
            "methods": {
                name: {
                    "wall_seconds": r.seconds,
                    "test_accuracy": r.test.accuracy,
                    "delta_sp": r.test.delta_sp,
                }
                for name, r in results.items()
            },
        },
    )

    assert set(results) == set(methods)
    # At quick/paper scale every method must learn something real — the
    # wiring contract is not "completes" but "completes and trains".  The
    # smoke graph's budget is too small for FairGKD's three models, so the
    # smoke run only checks structure (matching the other scale benches).
    if FAIRWOS_NODES >= 20_000:
        for name, result in results.items():
            assert result.test.accuracy > 0.55, f"{name} failed to train"


def test_scale_sampled_epochs(benchmark):
    """Sampled-epoch wall-time on the 50k-node graph.

    Times ``FitHistory.epoch_train_seconds`` — the batch loops only,
    validation excluded, which is where per-batch neighbour sampling and
    block construction cost shows — for SAGE (10, 5), batch 512, with
    fresh blocks every epoch.  The absolute time is gated in
    bench_baseline.json (``fresh_epoch_seconds``).
    """
    graph = generate_scale_free_graph(
        FAIRWOS_NODES, num_features=12, average_degree=8, seed=0
    ).standardized()
    epochs = max(8, min(SCALE.epochs // 15, 16))
    test_labels = graph.labels[graph.test_mask]

    def train():
        model = make_backbone(
            "sage", graph.num_features, 16, np.random.default_rng(0), num_layers=2
        )
        history = fit_minibatch(
            model,
            graph.features,
            graph.adjacency,
            graph.labels,
            graph.train_mask,
            graph.val_mask,
            epochs=epochs,
            fanouts=FANOUTS,
            batch_size=BATCH_SIZE,
            patience=None,
            rng=0,
        )
        logits = predict_logits_batched(
            model, graph.features, graph.adjacency, batch_size=1024
        )
        acc = accuracy(
            (logits[graph.test_mask] > 0).astype(np.int64), test_labels
        )
        return sum(history.epoch_train_seconds), acc

    epoch_s, acc = benchmark.pedantic(train, rounds=1, iterations=1)

    lines = [
        f"scale-free graph: {graph.summary()}",
        f"epochs={epochs} fanouts={FANOUTS} batch_size={BATCH_SIZE}",
        f"sampled-epoch seconds {epoch_s:.2f}  test acc {acc:.3f}",
    ]
    record_output("scale_sampled_epochs", "\n".join(lines))
    record_json(
        "scale_sampled_epochs",
        {
            "nodes": FAIRWOS_NODES,
            "epochs": epochs,
            "fresh_epoch_seconds": epoch_s,
            "fresh_accuracy": acc,
        },
    )


def test_scale_fairwos_end_to_end(benchmark):
    """End-to-end Fairwos (all three phases sampled, ANN counterfactuals).

    This is the acceptance run for the large-graph fine-tune path:
    ``repro --method fairwos --dataset scalefree --nodes 50000 --minibatch
    --cf-backend ann`` with bench-sized epoch budgets.  The exact backend's
    O(N²) distance matrix alone would need ~20 GiB at 50k nodes; the ANN
    run must finish with peak traced memory bounded by the batch receptive
    field and the O(N·d) index, far below that.
    """
    graph = generate_scale_free_graph(
        FAIRWOS_NODES, num_features=12, average_degree=8, seed=0
    ).standardized()
    config = FairwosConfig(
        minibatch=True,
        cf_backend="ann",
        batch_size=1024,
        # Optimizer steps per epoch shrink with the graph (ceil(N / batch)),
        # so small smoke graphs need more epochs for a comparable budget.
        encoder_epochs=max(EPOCHS, 60_000 // FAIRWOS_NODES),
        classifier_epochs=max(EPOCHS, 60_000 // FAIRWOS_NODES),
        finetune_epochs=3,
        cf_refresh_epochs=3,
        cf_attrs_per_step=4,
        max_pseudo_attributes=8,
        patience=None,
    )

    def run():
        trainer = FairwosTrainer(config)
        return trainer.fit(graph, seed=0)

    result, seconds, peak = benchmark.pedantic(
        lambda: _traced(run), rounds=1, iterations=1
    )

    phases = "  ".join(
        f"{name}={sec:.1f}s" for name, sec in result.timings.items()
    )
    lines = [
        f"scale-free graph: {graph.summary()}",
        "fairwos minibatch+ann: batch=1024 fanout=10 cf_refresh=3 "
        "cf_attrs_per_step=4 I=8 K=5",
        "",
        f"phases: {phases}",
        f"total {seconds:.1f}s  peak {peak / 2**20:.1f} MiB",
        f"test: {result.test}",
        f"counterfactual coverage: {result.counterfactual_coverage:.3f}",
    ]
    record_output("scale_fairwos_end_to_end", "\n".join(lines))
    record_json(
        "scale_fairwos_end_to_end",
        {
            "nodes": FAIRWOS_NODES,
            "wall_seconds": seconds,
            "peak_mib": peak / 2**20,
            "phase_seconds": dict(result.timings),
            "test_accuracy": result.test.accuracy,
            "delta_sp": result.test.delta_sp,
            "counterfactual_coverage": result.counterfactual_coverage,
        },
    )

    # All three phases actually ran.
    assert set(result.timings) == {"encoder", "classifier_pretrain", "finetune"}
    assert all(sec > 0 for sec in result.timings.values())
    # The ANN search found counterfactuals for essentially every node.
    assert result.counterfactual_coverage > 0.9
    # The classifier learned something (scale-free labels are learnable well
    # above chance; vanilla lands ~0.65+ at these budgets).
    assert result.test.accuracy > 0.55
    # Peak memory must be nowhere near the exact backend's O(N²) distance
    # matrix (~8·N²/4 bytes for the largest label/side bucket).
    if FAIRWOS_NODES >= 50_000:
        exact_bucket_bytes = 8 * (FAIRWOS_NODES / 2) ** 2
        assert peak < exact_bucket_bytes / 10


# The whole Fairwos fit runs in a child process so the parent's graph
# generation (which materialises the full float64 dataset) cannot inflate
# the measured high-water mark: ru_maxrss is per-process and monotone.
_FULLSTACK_CHILD = """
import json, resource, sys, time

from repro.core import FairwosConfig, FairwosTrainer
from repro.io import load_graph

graph = load_graph(sys.argv[1], mmap=True)
config = FairwosConfig(
    minibatch=True,
    cf_backend="ann",
    cf_update="incremental",
    dtype="float32",
    batch_size=1024,
    encoder_epochs=int(sys.argv[2]),
    classifier_epochs=int(sys.argv[2]),
    finetune_epochs=3,
    cf_refresh_epochs=3,
    cf_attrs_per_step=4,
    max_pseudo_attributes=8,
    patience=None,
)
start = time.perf_counter()
result = FairwosTrainer(config).fit(graph, seed=0)
wall = time.perf_counter() - start
# Linux reports ru_maxrss in KiB; resident mmap pages are included, which
# is the point — tracemalloc never sees them.
peak_kib = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
print(json.dumps({
    "wall_seconds": wall,
    "peak_rss_mib": peak_kib / 1024,
    "phase_seconds": dict(result.timings),
    "test_accuracy": result.test.accuracy,
    "delta_sp": result.test.delta_sp,
    "counterfactual_coverage": result.counterfactual_coverage,
    "pseudo_dtype": str(result.pseudo_attributes.dtype),
}))
"""


def test_scale_fairwos_fullstack(benchmark, tmp_path):
    """The 1M-node tier, end to end: float32 + mmap + ANN + incremental.

    The acceptance run this bench file exists for: a scale-free graph at
    FULLSTACK_NODES is standardised, downcast to float32, written with
    ``save_graph_mmap`` and trained *from the memory-mapped copy* in a
    fresh process — sampled minibatches everywhere, the ANN counterfactual
    backend, and incremental index maintenance across refreshes.  The
    child's peak RSS is the honest memory number for the run (mmap paging
    is invisible to tracemalloc) and is gated both structurally (far below
    the exact backend's O(N²) bucket) and linearly (a per-node budget that
    a revert to float64 or eager feature loading blows through).
    """
    nodes = FULLSTACK_NODES
    graph = generate_scale_free_graph(
        nodes, num_features=12, average_degree=8, seed=0
    ).standardized()
    graph = graph.with_features(
        graph.features.astype(np.float32),
        related=graph.related_feature_indices,
    )
    summary = graph.summary()
    graph_dir = save_graph_mmap(graph, tmp_path / "graph")
    del graph
    # Optimizer steps per epoch scale with ceil(N / batch); small smoke
    # graphs need more epochs for a comparable budget (same rule as above).
    epochs = max(EPOCHS, 60_000 // nodes)

    def run():
        proc = subprocess.run(
            [sys.executable, "-c", _FULLSTACK_CHILD, str(graph_dir), str(epochs)],
            capture_output=True,
            text=True,
            check=True,
        )
        return json.loads(proc.stdout.strip().splitlines()[-1])

    stats = benchmark.pedantic(run, rounds=1, iterations=1)

    phases = "  ".join(
        f"{name}={sec:.1f}s" for name, sec in stats["phase_seconds"].items()
    )
    lines = [
        f"scale-free graph: {summary}",
        "fairwos fullstack: float32 + mmap + ann + incremental "
        "batch=1024 cf_refresh=3 cf_attrs_per_step=4 I=8 K=5",
        "",
        f"phases: {phases}",
        f"total {stats['wall_seconds']:.1f}s  "
        f"peak RSS {stats['peak_rss_mib']:.0f} MiB",
        f"test acc {stats['test_accuracy']:.3f}  ΔSP {stats['delta_sp']:.3f}",
        f"counterfactual coverage: {stats['counterfactual_coverage']:.3f}",
    ]
    record_output("scale_fairwos_fullstack", "\n".join(lines))
    record_json(
        "scale_fairwos_fullstack",
        {
            "nodes": nodes,
            "dtype": "float32",
            "mmap": True,
            "cf_update": "incremental",
            "epochs": epochs,
            **stats,
        },
    )

    # All three phases ran, in float32, with near-total CF coverage.
    assert set(stats["phase_seconds"]) == {
        "encoder",
        "classifier_pretrain",
        "finetune",
    }
    assert stats["pseudo_dtype"] == "float32"
    assert stats["counterfactual_coverage"] > 0.9
    # The smoke graph's budget is too small to assert learning (matching
    # the other scale benches).
    if nodes >= 20_000:
        assert stats["test_accuracy"] > 0.55
    peak_rss_bytes = stats["peak_rss_mib"] * 2**20
    if nodes >= 50_000:
        # Structural: nowhere near the exact backend's O(N²) bucket.
        exact_bucket_bytes = 8 * (nodes / 2) ** 2
        assert peak_rss_bytes < exact_bucket_bytes / 10
        # Linear: RSS is O(N) state — the I·K CF pair index and its fused
        # loss CSR, the ANN forest, resident adjacency pages — measured
        # ~3.7 KB/node at 1M; budget 4.5 KB/node so a float64 revert or an
        # eagerly materialised feature matrix trips, runner variance not.
        assert peak_rss_bytes < 4_500 * nodes + 600 * 2**20
