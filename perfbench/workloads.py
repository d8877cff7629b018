"""The benchmark's three workloads.

Each workload has three parts, driven by ``run.py``:

* ``setup(seed, workdir)`` builds the inputs from the workload seed.  It is
  timed (``setup_s``) and repeated, and its last result is used.
* ``unit(state)`` is one unit of the timed window: one Fairwos fit, one
  18-cell Table II sweep, or one serving session.  ``run.py`` repeats it for
  the run's ``--seconds``.
* ``finish(state, outcomes, rng)`` runs after the window: the output
  checks, the recall measurement, and, where the window trained a model, a
  serving probe of that model, so every workload reports the serving
  metrics.

Everything here calls the library's public entry points only.
"""

from __future__ import annotations

import json
import math
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path

import numpy as np

from repro.core import FairwosConfig, FairwosTrainer
from repro.core.ann import EXHAUSTIVE
from repro.datasets import generate_sbm_graph, generate_scale_free_graph, load_dataset
from repro.experiments import run_method
from repro.experiments.methods import METHOD_ORDER
from repro.io import load_artifact, load_graph, save_artifact, save_graph_mmap

PINS = Path(__file__).with_name("pins.json")

TRAIN_NODES = 10_000
SERVE_NODES = 5_000
TABLE2_DATASETS = ("pokec_z", "credit", "nba")
PROBE_DATASET = "pokec_z"
SCORE_NODES = 256
CF_NODES = 16
# One serving session: reload the artifact, then 10 cycles of 10 score
# requests and 1 counterfactual request (the fixed 10:1 interleave).
SESSION_CYCLES = 10
SCORES_PER_CYCLE = 10
# Ten sessions give 1000 score and 100 counterfactual latencies, so a p99
# of the first and the p90 of the second each keep ten samples beyond them.
MIN_SESSIONS = 10
RECALL_SAMPLE = 1000
PIN_TOLERANCE = 1e-9


def yardstick_config(dtype: str, num_nodes: int) -> FairwosConfig:
    """The quick-scale full-stack config: every phase sampled, ANN search
    with incremental maintenance, 3 fine-tune epochs with one index refresh.

    Optimizer steps per epoch shrink with the graph (``ceil(N / 1024)``), so
    the two pre-training phases get ``max(3, round(150000 / N))`` epochs:
    about the 150 steps that 3 epochs take at the 50k-node yardstick size.
    """
    pretrain_epochs = max(3, round(150_000 / num_nodes))
    return FairwosConfig(
        minibatch=True,
        cf_backend="ann",
        cf_update="incremental",
        dtype=dtype,
        batch_size=1024,
        encoder_epochs=pretrain_epochs,
        classifier_epochs=pretrain_epochs,
        finetune_epochs=3,
        cf_refresh_epochs=3,
        cf_attrs_per_step=4,
        max_pseudo_attributes=8,
        top_k=5,
        patience=None,
        num_workers=0,
    )


# --------------------------------------------------------------------- #
# Serving
# --------------------------------------------------------------------- #
@dataclass
class ServeLog:
    """Latencies and outcomes of every serving request of a run."""

    score_ms: list[float] = field(default_factory=list)
    cf_ms: list[float] = field(default_factory=list)
    load_ms: list[float] = field(default_factory=list)
    session_s: list[float] = field(default_factory=list)
    failed: int = 0

    @property
    def requests(self) -> int:
        return len(self.score_ms) + len(self.cf_ms)

    def metrics(self) -> dict[str, float]:
        """The gated serving metrics."""
        return {
            "score_p90_ms": percentile(self.score_ms, 0.90),
            "cf_p90_ms": percentile(self.cf_ms, 0.90),
        }

    def ungated(self) -> dict[str, float]:
        """Serving metrics that are printed but too noisy to gate."""
        return {
            "score_p50_ms": percentile(self.score_ms, 0.50),
            "score_p99_ms": percentile(self.score_ms, 0.99),
            "cf_p50_ms": percentile(self.cf_ms, 0.50),
            "requests_per_s": self.requests / sum(self.session_s),
            "artifact_load_ms": float(np.median(self.load_ms)),
        }

    def samples(self) -> dict[str, int]:
        return {
            "score_requests": len(self.score_ms),
            "cf_requests": len(self.cf_ms),
            "artifact_loads": len(self.load_ms),
        }


def percentile(values: list[float], q: float) -> float:
    """Nearest-rank percentile: ``ceil(q·n)`` samples at or below it."""
    ordered = sorted(values)
    return float(ordered[max(math.ceil(q * len(ordered)) - 1, 0)])


def _timed_request(log: ServeLog, latencies: list[float], call, check) -> None:
    """Send one request; a raised error or a malformed response counts as a
    failed request and is reported on stderr."""
    start = time.perf_counter()
    try:
        response = call()
    except Exception:  # the serving loop must keep running to count failures
        traceback.print_exc()
        log.failed += 1
        return
    latencies.append((time.perf_counter() - start) * 1e3)
    if not check(response):
        print("malformed serving response", file=sys.stderr, flush=True)
        log.failed += 1


def serve_session(path: Path, graph, rng: np.random.Generator, log: ServeLog) -> None:
    """One closed-loop client session against a saved artifact.

    Reloads the artifact (and its bundled graph when ``graph`` is None),
    then sends the fixed interleave of score and counterfactual requests
    over random node sets drawn from ``rng``.
    """
    start = time.perf_counter()
    artifact = load_artifact(path)
    if graph is None:
        graph = artifact.graph
    log.load_ms.append((time.perf_counter() - start) * 1e3)
    n = graph.num_nodes
    for _ in range(SESSION_CYCLES):
        for _ in range(SCORES_PER_CYCLE):
            nodes = rng.choice(n, size=SCORE_NODES, replace=False)
            _timed_request(
                log,
                log.score_ms,
                lambda: artifact.score(graph, nodes=nodes),
                lambda logits: logits.shape == (SCORE_NODES,)
                and bool(np.isfinite(logits).all()),
            )
        nodes = rng.choice(n, size=CF_NODES, replace=False)

        def check_cf(index, nodes=nodes):
            rows = index.indices[:, nodes]
            return (
                rows.shape == (index.num_attributes, CF_NODES, index.top_k)
                and bool(((rows >= 0) & (rows < n)).all())
            )

        _timed_request(
            log, log.cf_ms, lambda: artifact.counterfactuals(nodes=nodes), check_cf
        )
    log.session_s.append(time.perf_counter() - start)


def recall_at_k(path: Path, num_nodes: int, rng: np.random.Generator) -> float:
    """Counterfactual recall@K of the served index on a seeded node sample.

    Compares default-probe retrieval with ``probes="exhaustive"`` (the
    exact answer) through the public artifact API: the mean, over every
    (attribute, node) row the exact search fills, of the share of its K
    exact twins the default probes also return.
    """
    artifact = load_artifact(path)
    nodes = np.sort(rng.choice(num_nodes, size=min(RECALL_SAMPLE, num_nodes), replace=False))
    approx = artifact.counterfactuals(nodes=nodes)
    exact = artifact.counterfactuals(nodes=nodes, probes=EXHAUSTIVE)
    overlaps = []
    for attr in range(exact.num_attributes):
        for node in nodes:
            if not exact.valid[attr, node]:
                continue
            truth = set(exact.indices[attr, node].tolist())
            found = set(approx.indices[attr, node].tolist()) if approx.valid[attr, node] else set()
            overlaps.append(len(truth & found) / len(truth))
    return float(np.mean(overlaps))


# --------------------------------------------------------------------- #
# Workloads
# --------------------------------------------------------------------- #
@dataclass
class Finished:
    """What ``finish`` hands back to the driver."""

    metrics: dict[str, float]
    signature: dict
    failures: list[str]
    log: ServeLog
    details: dict = field(default_factory=dict)


def _fit_summary(result) -> dict:
    return {
        "test_accuracy": result.test.accuracy,
        "delta_sp": result.test.delta_sp,
        "delta_eo": result.test.delta_eo,
        "cf_coverage": result.counterfactual_coverage,
        "lambda_weights": [float(x) for x in result.lambda_weights],
    }


class TrainSampledAnn:
    """Sampled Fairwos fit with ANN counterfactuals on a float32 mmap graph."""

    name = "train_sampled_ann"
    setup_repeats = 3
    min_units = 1

    def setup(self, seed: int, workdir: Path) -> dict:
        graph = generate_scale_free_graph(
            TRAIN_NODES, num_features=12, average_degree=8, seed=seed
        ).standardized()
        graph = graph.with_features(
            graph.features.astype(np.float32), related=graph.related_feature_indices
        )
        graph = load_graph(save_graph_mmap(graph, workdir / "graph"), mmap=True)
        return {"seed": seed, "graph": graph, "workdir": workdir}

    def unit(self, state: dict) -> dict:
        trainer = FairwosTrainer(yardstick_config("float32", TRAIN_NODES))
        result = trainer.fit(state["graph"], seed=state["seed"])
        # Only the last fit's trainer is kept, so peak RSS does not grow
        # with the number of fits the window holds.
        state["trainer"] = trainer
        return {"result": result, "summary": _fit_summary(result)}

    def finish(self, state, outcomes, rng) -> Finished:
        last = outcomes[-1]
        result, summary = last["result"], last["summary"]
        failures = []
        if set(result.timings) != {"encoder", "classifier_pretrain", "finetune"} or not all(
            seconds > 0 for seconds in result.timings.values()
        ):
            failures.append(f"not every phase ran: {result.timings}")
        if result.pseudo_attributes.dtype != np.float32:
            failures.append(f"pseudo-attributes are {result.pseudo_attributes.dtype}")
        if not summary["cf_coverage"] > 0.9:
            failures.append(f"coverage {summary['cf_coverage']} <= 0.9")
        if not summary["test_accuracy"] > 0.55:
            failures.append(f"accuracy {summary['test_accuracy']} <= 0.55")
        if any(outcome["summary"] != summary for outcome in outcomes):
            failures.append("repeated fits of one input disagree")

        graph = state["graph"]
        path = save_artifact(
            state["trainer"], graph, state["workdir"] / "artifact", include_graph=False
        )
        recall = recall_at_k(path, graph.num_nodes, rng)
        log = ServeLog()
        for _ in range(MIN_SESSIONS):
            serve_session(path, graph, rng, log)
        return Finished(
            metrics={
                "test_accuracy": summary["test_accuracy"],
                "cf_coverage": summary["cf_coverage"],
                "cf_recall_at_k": recall,
            },
            signature={**summary, "cf_recall_at_k": recall},
            failures=failures,
            log=log,
            details={"delta_sp": summary["delta_sp"], "timings": result.timings},
        )


class Table2FullBatch:
    """All six methods, full batch, exact counterfactuals, three Table I graphs."""

    name = "table2_fullbatch"
    setup_repeats = 3
    min_units = 1

    def setup(self, seed: int, workdir: Path) -> dict:
        graphs = {name: load_dataset(name, seed=seed) for name in TABLE2_DATASETS}
        return {"seed": seed, "graphs": graphs, "workdir": workdir}

    def unit(self, state: dict) -> dict:
        cells, coverage, probe = {}, {}, None
        for dataset, graph in state["graphs"].items():
            for method in METHOD_ORDER:
                # The default protocol with early stopping off, so every
                # seed trains the same number of epochs.
                result = run_method(
                    method,
                    graph,
                    backbone="gcn",
                    seed=state["seed"],
                    patience=None,
                    keep_model=(dataset, method) == (PROBE_DATASET, "fairwos"),
                )
                cells[f"{dataset}/{method}"] = [
                    result.test.accuracy,
                    result.test.delta_sp,
                    result.test.delta_eo,
                ]
                if method == "fairwos":
                    coverage[dataset] = result.extra["counterfactual_coverage"]
                    probe = result.extra.get("model", probe)
        return {"cells": cells, "coverage": coverage, "probe": probe}

    def finish(self, state, outcomes, rng) -> Finished:
        cells, coverage = outcomes[-1]["cells"], outcomes[-1]["coverage"]
        failures = []
        if len(cells) != len(TABLE2_DATASETS) * len(METHOD_ORDER):
            failures.append(f"expected 18 cells, got {len(cells)}")
        if not all(np.isfinite(values).all() for values in cells.values()):
            failures.append("a cell has a non-finite result")
        if any(outcome["cells"] != cells for outcome in outcomes):
            failures.append("repeated sweeps of one input disagree")
        if state["seed"] == 0:
            pinned = json.loads(PINS.read_text())["table2_fullbatch_seed0"]
            for key, expected in pinned.items():
                got = cells.get(key, [math.nan] * 3)
                if not np.allclose(got, expected, rtol=0.0, atol=PIN_TOLERANCE):
                    failures.append(f"{key}: {got} differs from pinned {expected}")

        fairwos = [cells[f"{dataset}/fairwos"] for dataset in TABLE2_DATASETS]
        # The probe serves one model: a mix of three graphs of different
        # sizes puts the latency percentiles between modes of the mix.
        graph = state["graphs"][PROBE_DATASET]
        path = save_artifact(
            outcomes[-1]["probe"],
            graph,
            state["workdir"] / "artifact",
            include_graph=False,
        )
        recall = recall_at_k(path, graph.num_nodes, rng)
        log = ServeLog()
        for _ in range(MIN_SESSIONS):
            serve_session(path, graph, rng, log)
        return Finished(
            metrics={
                "test_accuracy": float(np.mean([cell[0] for cell in fairwos])),
                "cf_coverage": float(np.mean(list(coverage.values()))),
                "cf_recall_at_k": recall,
            },
            signature={"cells": cells, "coverage": coverage, "recall": recall},
            failures=failures,
            log=log,
            details={
                "delta_sp": float(np.mean([cell[1] for cell in fairwos])),
                "cells": cells,
            },
        )


class ServeArtifact:
    """Closed-loop serving of a saved float64 Fairwos artifact."""

    name = "serve_artifact"
    setup_repeats = 3
    min_units = MIN_SESSIONS

    def setup(self, seed: int, workdir: Path) -> dict:
        graph = generate_sbm_graph(
            SERVE_NODES, num_features=12, average_degree=8, seed=seed
        ).standardized()
        trainer = FairwosTrainer(yardstick_config("float64", SERVE_NODES))
        result = trainer.fit(graph, seed=seed)
        path = save_artifact(trainer, graph, workdir / "artifact")
        return {
            "seed": seed,
            "graph": graph,
            "trainer": trainer,
            "result": result,
            "path": path,
            "rng": np.random.default_rng([seed, 2]),
            "log": ServeLog(),
        }

    def unit(self, state: dict) -> ServeLog:
        serve_session(state["path"], None, state["rng"], state["log"])
        return state["log"]

    def finish(self, state, outcomes, rng) -> Finished:
        failures = []
        live = state["trainer"].predict(state["graph"])
        served = load_artifact(state["path"]).score()
        if not (served.dtype == live.dtype and np.array_equal(served, live)):
            failures.append("reloaded full-graph score differs from the live model")
        summary = _fit_summary(state["result"])
        recall = recall_at_k(state["path"], state["graph"].num_nodes, rng)
        return Finished(
            metrics={
                "test_accuracy": summary["test_accuracy"],
                "cf_coverage": summary["cf_coverage"],
                "cf_recall_at_k": recall,
            },
            signature={**summary, "cf_recall_at_k": recall},
            failures=failures,
            log=state["log"],
            details={"delta_sp": summary["delta_sp"]},
        )


WORKLOADS = {
    workload.name: workload
    for workload in (TrainSampledAnn(), Table2FullBatch(), ServeArtifact())
}
