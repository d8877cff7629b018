"""Golden seed-0 pins for the scenario matrix.

``golden_scenarios.json`` pins test accuracy / ΔSP / ΔEO for all six
methods on the new matrix cells — Erdős–Rényi × node classification,
SBM × node classification, SBM × link prediction — plus the vanilla joint
(intersectional) gaps on a scale-free graph with an extra planted sensitive
attribute.  Together with ``golden_baselines.json`` (which pins the
original scale-free node-classification path) this makes every cell of the
matrix a claim: a refactor of the generators, the link-prediction engine
wiring or the audit layer cannot silently shift the numbers.

Regenerate after a deliberate behaviour change with::

    PYTHONPATH=src python tests/test_scenarios_golden.py

All stochasticity flows through ``numpy.random.Generator`` seeded per run,
so the pins are exact and the comparison is tight (1e-9).
"""

from __future__ import annotations

import json
from pathlib import Path

import numpy as np
import pytest

from repro.experiments import Scale, Scenario
from repro.experiments.methods import METHOD_ORDER
from repro.experiments.scenario import run_scenario_method
from repro.fairness import audit_intersectional

GOLDEN_PATH = Path(__file__).parent / "golden_scenarios.json"
SCALE = Scale(seeds=1, epochs=30, finetune_epochs=4, patience=10)

CELLS = {
    "er_nc": Scenario("erdos_renyi", dataset_params={"num_nodes": 250}),
    "sbm_nc": Scenario("sbm", dataset_params={"num_nodes": 250}),
    "sbm_lp": Scenario(
        "sbm", task="link_prediction", dataset_params={"num_nodes": 250}
    ),
}
INTERSECTIONAL = Scenario(
    "scalefree",
    sensitive_attrs=("sensitive", "attr1"),
    dataset_params={"num_nodes": 250, "extra_sensitive_attrs": 1},
)


def _compute() -> dict:
    out: dict = {}
    for key, scenario in CELLS.items():
        graph = scenario.load(seed=0)
        out[key] = {}
        for method in METHOD_ORDER:
            result = run_scenario_method(
                scenario, method, graph, seed=0, scale=SCALE
            )
            out[key][method] = {
                "accuracy": float(result.test.accuracy),
                "delta_sp": float(result.test.delta_sp),
                "delta_eo": float(result.test.delta_eo),
            }
    graph = INTERSECTIONAL.load(seed=0)
    result = run_scenario_method(
        INTERSECTIONAL, "vanilla", graph, seed=0, scale=SCALE, keep_logits=True
    )
    test = graph.test_mask
    audit = audit_intersectional(
        result.extra["logits"][test],
        graph.labels[test],
        {k: v[test] for k, v in INTERSECTIONAL.attributes(graph).items()},
    )
    out["sf_intersectional"] = {
        "vanilla": {
            "accuracy": float(result.test.accuracy),
            "joint_delta_sp": float(audit.delta_sp),
            "joint_delta_eo": float(audit.delta_eo),
            "num_cells": audit.num_cells,
        }
    }
    return out


@pytest.fixture(scope="module")
def golden() -> dict:
    assert GOLDEN_PATH.exists(), (
        f"{GOLDEN_PATH} missing — regenerate with "
        f"`PYTHONPATH=src python {Path(__file__).name}`"
    )
    return json.loads(GOLDEN_PATH.read_text())


@pytest.fixture(scope="module")
def current() -> dict:
    return _compute()


class TestGoldenScenarios:
    def test_every_cell_pinned(self, golden):
        assert set(golden) == set(CELLS) | {"sf_intersectional"}
        for key in CELLS:
            assert set(golden[key]) == set(METHOD_ORDER)

    @pytest.mark.parametrize("cell", sorted(CELLS) + ["sf_intersectional"])
    def test_cell_matches_golden(self, cell, golden, current):
        for method, pinned_metrics in golden[cell].items():
            for metric, pinned in pinned_metrics.items():
                actual = current[cell][method][metric]
                assert actual == pytest.approx(pinned, abs=1e-9, nan_ok=True), (
                    f"{cell}.{method}.{metric} drifted: golden {pinned!r} vs "
                    f"current {actual!r}.  If intentional, regenerate "
                    f"tests/golden_scenarios.json (see module docstring)."
                )

    def test_intersectional_cell_count(self, current):
        # Two binary attributes → the full 2×2 product is enumerated.
        assert current["sf_intersectional"]["vanilla"]["num_cells"] == 4


if __name__ == "__main__":
    metrics = _compute()
    GOLDEN_PATH.write_text(json.dumps(metrics, indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
    for cell, methods in metrics.items():
        print(f"  {cell}:")
        for name, values in methods.items():
            print(f"    {name:8s} {values}")
