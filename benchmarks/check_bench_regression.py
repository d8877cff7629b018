#!/usr/bin/env python
"""Gate the CI bench step on the checked-in wall-time baseline.

Reads every ``benchmarks/output/BENCH_<name>.json`` produced by the bench
run, looks each one up in ``benchmarks/bench_baseline.json``, and exits
non-zero when any gated wall-time exceeds its reference by more than the
baseline's ``max_regression`` factor (1.5x) — so the wins the benches
assert relatively (8x fused fair loss) are also guarded absolutely between
runs.

Reference values are dotted paths into the bench payload
(``"minibatch.wall_seconds"``).  Benches that did not run, metrics missing
from the baseline, and runs at a different ``REPRO_BENCH_SCALE`` than the
baseline was recorded at are skipped with a note, never failed — the gate
must not turn a partial bench invocation into a false alarm.

Usage::

    python benchmarks/check_bench_regression.py \
        [--output-dir benchmarks/output] [--baseline benchmarks/bench_baseline.json]
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path


def _lookup(payload: dict, dotted: str):
    value = payload
    for part in dotted.split("."):
        if not isinstance(value, dict) or part not in value:
            return None
        value = value[part]
    return value


def check(output_dir: Path, baseline_path: Path) -> int:
    baseline = json.loads(baseline_path.read_text())
    max_regression = float(baseline["max_regression"])
    failures: list[str] = []
    compared = 0

    for name, reference in baseline["reference"].items():
        bench_path = output_dir / f"BENCH_{name}.json"
        if not bench_path.exists():
            print(f"skip {name}: {bench_path} not produced by this run")
            continue
        payload = json.loads(bench_path.read_text())
        if payload.get("scale") != baseline["scale"]:
            print(
                f"skip {name}: ran at scale {payload.get('scale')!r}, baseline "
                f"recorded at {baseline['scale']!r}"
            )
            continue
        for metric, allowed in reference.items():
            actual = _lookup(payload, metric)
            if actual is None:
                print(f"skip {name}.{metric}: not present in bench payload")
                continue
            compared += 1
            limit = allowed * max_regression
            verdict = "ok" if actual <= limit else "REGRESSION"
            print(
                f"{verdict:>10}  {name}.{metric}: {actual:.2f}s "
                f"(baseline {allowed:.2f}s, limit {limit:.2f}s)"
            )
            if actual > limit:
                failures.append(
                    f"{name}.{metric} regressed: {actual:.2f}s > "
                    f"{max_regression}x baseline {allowed:.2f}s"
                )

    if failures:
        print("\nbench regression gate FAILED:")
        for failure in failures:
            print(f"  - {failure}")
        return 1
    if compared == 0:
        # Every reference skipped (benches not run, scale mismatch, or a
        # rename desynchronising record_json names from the baseline) means
        # the gate guarded nothing — that must not read as a pass, or a
        # later refactor could silently disarm it while the step stays
        # green.
        print(
            "\nbench regression gate FAILED: zero metrics compared — "
            "benches missing, scale mismatch, or baseline out of sync"
        )
        return 1
    print(f"\nbench regression gate passed ({compared} metrics compared)")
    return 0


def main(argv: list[str] | None = None) -> int:
    here = Path(__file__).parent
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--output-dir", type=Path, default=here / "output")
    parser.add_argument(
        "--baseline", type=Path, default=here / "bench_baseline.json"
    )
    args = parser.parse_args(argv)
    return check(args.output_dir, args.baseline)


if __name__ == "__main__":
    sys.exit(main())
