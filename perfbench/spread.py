"""Run-to-run spread of the end-to-end metrics across seeds.

Usage, from the root of a source checkout::

    python3 perfbench/spread.py --workload serve_artifact --seeds 0-9

Runs ``perfbench/run.py`` once per seed (each in a fresh process, one
after another, with ``BENCHMARK.json``'s ``run_seconds``), then prints for
every end-to-end metric the median and the distance between the first and
third quartiles (``statistics.quantiles(values, n=4)``) as a share of the
median, next to the metric's bound.  A spread under a third of the bound is
steady.  Every run's result is kept in ``.perfbench_out/spread-*.json``.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        first, last = (int(part) for part in text.split("-"))
        return list(range(first, last + 1))
    return [int(part) for part in text.split(",")]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", action="append", required=True)
    parser.add_argument("--seeds", default="0-9")
    args = parser.parse_args(argv)
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {metric["name"]: metric["bound"] for metric in spec["end_to_end"]}
    out = ROOT / ".perfbench_out"
    out.mkdir(exist_ok=True)
    steady = True
    for workload in args.workload:
        runs = []
        for seed in parse_seeds(args.seeds):
            command = [
                *spec["command"],
                "--workload", workload,
                "--seed", str(seed),
                "--seconds", str(spec["run_seconds"]),
                "--trace", "0",
            ]
            start = time.perf_counter()
            proc = subprocess.run(command, cwd=ROOT, capture_output=True, text=True, check=True)
            result = json.loads(proc.stdout.strip().splitlines()[-1])
            result["process_s"] = time.perf_counter() - start
            result["seed"] = seed
            runs.append(result)
            print(
                f"{workload} seed {seed}: correct={result['correct']} "
                f"failed={result['failed']}/{result['attempted']} "
                f"{result['process_s']:.1f}s",
                flush=True,
            )
        (out / f"spread-{workload}.json").write_text(json.dumps(runs, indent=2) + "\n")
        print(f"{'metric':<20}{'median':>12}{'q1':>12}{'q3':>12}{'spread':>9}{'bound':>7}")
        for name, bound in bounds.items():
            values = [run["metrics"][name]["value"] for run in runs]
            q1, median, q3 = statistics.quantiles(values, n=4)
            spread = (q3 - q1) / median
            flag = "" if spread < bound / 3 or name == "setup_s" else "  <- wide"
            steady = steady and (flag == "")
            print(f"{name:<20}{median:>12.5g}{q1:>12.5g}{q3:>12.5g}{spread:>9.3f}{bound:>7}{flag}")
        seconds = [run["process_s"] for run in runs]
        print(f"process seconds: median {statistics.median(seconds):.1f}, max {max(seconds):.1f}")
    return 0 if steady else 1


if __name__ == "__main__":
    sys.exit(main())
