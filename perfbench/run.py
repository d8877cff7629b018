"""Run one benchmark workload and print its metrics.

Usage, from the root of a source checkout::

    python3 perfbench/run.py --workload train_sampled_ann --seed 0 --seconds 20 --trace 0

Workloads: ``train_sampled_ann``, ``table2_fullbatch``, ``serve_artifact``
(see ``perfbench/README.md``).  The run imports the library from the
checkout's ``src/``, builds its inputs from ``--seed``, times set-up
several times, repeats the workload's unit of work for ``--seconds``, checks
the outputs, and prints a report whose last line is one JSON object::

    {"correct": true, "attempted": 1102, "failed": 0, "metrics": {...}}

``--trace 0`` reports the end-to-end metrics.  ``--trace 1`` runs one
untraced and one traced pass instead, checks that they compute the same
bits, writes the span tree, and reports the per-layer metrics plus the
tracing overhead.  Scratch files and reports go to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from contextlib import nullcontext
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
OUT = ROOT / ".perfbench_out"

END_TO_END = {
    "setup_s": "s",
    "wall_s": "s",
    "peak_rss_mib": "MiB",
    "test_accuracy": "fraction",
    "cf_coverage": "fraction",
    "cf_recall_at_k": "fraction",
    "score_p90_ms": "ms",
    "cf_p90_ms": "ms",
}
# Printed with the report but not gated in BENCHMARK.json: the first is 0
# whenever the program works, the others moved more between runs or seeds
# than a bound can allow (see README.md).
UNGATED = {
    "failed_ops_frac": "fraction",
    "delta_sp": "fraction",
    "score_p50_ms": "ms",
    "score_p99_ms": "ms",
    "cf_p50_ms": "ms",
    "requests_per_s": "1/s",
    "artifact_load_ms": "ms",
}
BLAS_ENV = (
    "OMP_NUM_THREADS",
    "OPENBLAS_NUM_THREADS",
    "MKL_NUM_THREADS",
    "BLIS_NUM_THREADS",
    "VECLIB_MAXIMUM_THREADS",
    "NUMEXPR_NUM_THREADS",
)


def import_library() -> None:
    """Put the checkout's ``src/`` first on the path; fail without it."""
    src = ROOT / "src"
    if not (src / "repro" / "__init__.py").is_file():
        sys.exit(f"perfbench: no library source under {src}")
    sys.path.insert(0, str(src))


def stamp(args) -> dict:
    """The machine and environment the numbers were measured on."""
    import numpy
    import scipy

    return {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_env": {name: os.environ.get(name) for name in BLAS_ENV},
        "num_workers": 0,
        "processes": 1,
    }


def run_pass(workload, seed, seconds, workdir, repeats, min_units, tracer=None):
    """Set up ``repeats`` times, repeat the unit for ``seconds``, finish.

    A new unit starts only while the window's elapsed time plus the mean
    unit time stays within ``seconds``; at least ``min_units`` run.
    """
    import numpy as np

    phase = tracer.span if tracer is not None else (lambda name: nullcontext())
    setup_times = []
    for repeat in range(repeats):
        directory = workdir / f"setup-{repeat}"
        directory.mkdir(parents=True)
        start = time.perf_counter()
        with phase("bench.setup"):
            state = workload.setup(seed, directory)
        setup_times.append(time.perf_counter() - start)
    durations, outcomes = [], []
    window = time.perf_counter()
    while True:
        start = time.perf_counter()
        with phase("bench.unit"):
            outcomes.append(workload.unit(state))
        durations.append(time.perf_counter() - start)
        elapsed = time.perf_counter() - window
        if len(durations) >= min_units and elapsed + statistics.fmean(durations) > seconds:
            break
    with phase("bench.finish"):
        finished = workload.finish(state, outcomes, np.random.default_rng([seed, 1]))
    return setup_times, durations, finished


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # One BLAS thread, set before numpy loads: the load is this one
    # single-threaded process.  With two threads on the 2-vCPU reference
    # machine the quartile spread of the serving latencies between runs was
    # 0.11-0.23 of the median; with one it was 0.05-0.08, same results.
    for name in BLAS_ENV:
        os.environ[name] = "1"
    import_library()
    sys.path.insert(0, str(Path(__file__).resolve().parent))
    from tracing import PER_LAYER_METRICS, Tracer, layer_metrics
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error(f"unknown workload {args.workload!r}; choose from {sorted(WORKLOADS)}")
    workload = WORKLOADS[args.workload]
    env = stamp(args)
    label = f"{workload.name}-seed{args.seed}-trace{args.trace}"
    workdir = OUT / f"work-{label}"
    shutil.rmtree(workdir, ignore_errors=True)
    try:
        if args.trace:
            _, base_units, base = run_pass(
                workload, args.seed, 0.0, workdir / "untraced", 1, 1
            )
            tracer = Tracer(label)
            tracer.install()
            try:
                _, traced_units, finished = run_pass(
                    workload, args.seed, 0.0, workdir / "traced", 1, 1, tracer
                )
            finally:
                tracer.uninstall()
            failures = list(finished.failures)
            if finished.signature != base.signature:
                failures.append("the traced run computed different results")
            metrics = layer_metrics(tracer.spans)
            metrics["trace.overhead_frac"] = traced_units[0] / base_units[0] - 1.0
            units = PER_LAYER_METRICS
            ungated = {}
            tracer.write(OUT / f"{label}-spans.json")
            attempted = 2 + base.log.requests + base.log.failed
            attempted += finished.log.requests + finished.log.failed
            failed = base.log.failed + finished.log.failed
        else:
            setup_times, durations, finished = run_pass(
                workload,
                args.seed,
                args.seconds,
                workdir,
                workload.setup_repeats,
                workload.min_units,
            )
            failures = list(finished.failures)
            metrics = {
                "setup_s": statistics.median(setup_times),
                "wall_s": statistics.median(durations),
                "peak_rss_mib": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
                **finished.metrics,
                **finished.log.metrics(),
            }
            units = END_TO_END
            attempted = len(durations) + finished.log.requests + finished.log.failed
            failed = finished.log.failed
            env["samples"] = {
                "setups": len(setup_times),
                "units": len(durations),
                **finished.log.samples(),
            }
            ungated = {
                "failed_ops_frac": failed / attempted,
                "delta_sp": finished.details["delta_sp"],
                **finished.log.ungated(),
            }
            finished.details["raw"] = {
                "setup_s": setup_times,
                "unit_s": durations,
                **vars(finished.log),
            }
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    report = {
        "correct": not failures and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    OUT.mkdir(exist_ok=True)
    (OUT / f"{label}.json").write_text(
        json.dumps(
            {
                "environment": env,
                "failures": failures,
                "ungated": ungated,
                "details": finished.details,
                **report,
            },
            indent=2,
        )
        + "\n"
    )
    print(json.dumps(env, sort_keys=True))
    for name, entry in report["metrics"].items():
        print(f"  {name:<40} {entry['value']:>14.6g} {entry['unit']}")
    for name, value in ungated.items():
        print(f"  {name:<40} {value:>14.6g} {UNGATED[name]} (not gated)")
    summary = {key: value for key, value in finished.details.items() if key != "raw"}
    print(json.dumps({"samples": env.get("samples"), **summary}, sort_keys=True))
    for failure in failures:
        print(f"CHECK FAILED: {failure}")
    print(json.dumps(report))
    return 0


if __name__ == "__main__":
    sys.exit(main())
