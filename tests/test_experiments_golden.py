"""Golden seed-0 pins for the figure and extension experiments.

``golden_experiments.json`` pins, at ``Scale.smoke()``:

* the ``MetricSummary`` fields of every Fig. 4 ablation cell on NBA (GCN
  and GIN, all five variants);
* the Fig. 5 encoder-dimension sweep (d ∈ {4, 8}, GCN) and the Fig. 6
  α × K grid (α ∈ {0, 1}, K ∈ {1, 2}) on NBA;
* the backbone extension (GCN, GraphSAGE) and all four entries of the
  oracle extension on NBA;
* Fig. 7's silhouette, 1-NN leakage and embedding sum at 50 t-SNE
  iterations;
* every field of the counterfactual-fairness extension;
* the full text of ``repro audit --dataset nba``.

The experiment tests in ``test_experiments.py`` check shapes only; these
pins make a refactor of how the experiments build their configs and train
their methods a claim that every reported number stays put.

Regenerate after a deliberate behaviour change with::

    PYTHONPATH=src python tests/test_experiments_golden.py

All stochasticity flows through ``numpy.random.Generator`` seeded per run,
so floats are compared at 1e-9; counts and text must match exactly.
"""

from __future__ import annotations

import contextlib
import io
import json
from dataclasses import asdict, fields
from pathlib import Path

import numpy as np
import pytest

from repro.cli import main
from repro.experiments import (
    Scale,
    run_ext_backbones,
    run_ext_cf_fairness,
    run_ext_oracle,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
)

GOLDEN_PATH = Path(__file__).parent / "golden_experiments.json"
SCALE = Scale.smoke()


def _cells(cells: dict) -> dict:
    """``MetricSummary`` cells keyed by their tuple keys joined with '/'."""
    return {
        "/".join(str(part) for part in key): asdict(summary)
        for key, summary in cells.items()
    }


def _compute() -> dict:
    fig4 = run_fig4(["nba"], ["gcn", "gin"], scale=SCALE)
    fig5 = run_fig5("nba", dims=[4, 8], backbones=["gcn"], scale=SCALE)
    fig6 = run_fig6("nba", alphas=[0.0, 1.0], ks=[1, 2], scale=SCALE)
    backbones = run_ext_backbones("nba", ["gcn", "sage"], scale=SCALE)
    oracle = run_ext_oracle("nba", scale=SCALE)
    fig7 = run_fig7("nba", scale=SCALE, tsne_iterations=50)
    cf_fairness = run_ext_cf_fairness("nba", scale=SCALE)
    with contextlib.redirect_stdout(io.StringIO()):
        audit_text = main(["audit", "--dataset", "nba"])
    return {
        "fig4": _cells(fig4.cells),
        "fig5": _cells(fig5.cells),
        "fig6": _cells(fig6.cells),
        "ext_backbones": _cells(backbones.cells),
        "ext_oracle": _cells(oracle.cells),
        "fig7": {
            "silhouette": float(fig7.silhouette_score),
            "leakage": float(fig7.leakage),
            "embedding_sum": float(np.sum(fig7.embedding)),
        },
        "ext_cf_fairness": {
            f.name: getattr(cf_fairness, f.name)
            for f in fields(cf_fairness)
            if f.name != "dataset"
        },
        "audit_text": audit_text,
    }


def _assert_matches(pinned, actual, where: str) -> None:
    if isinstance(pinned, dict):
        assert set(actual) == set(pinned), f"{where}: keys differ"
        for key in pinned:
            _assert_matches(pinned[key], actual[key], f"{where}.{key}")
    elif isinstance(pinned, float):
        assert actual == pytest.approx(pinned, abs=1e-9, nan_ok=True), (
            f"{where} drifted: golden {pinned!r} vs current {actual!r}.  If "
            f"intentional, regenerate tests/golden_experiments.json (see "
            f"module docstring)."
        )
    else:
        assert actual == pinned, f"{where}: golden {pinned!r} vs current {actual!r}"


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


EXPERIMENTS = [
    "fig4",
    "fig5",
    "fig6",
    "ext_backbones",
    "ext_oracle",
    "fig7",
    "ext_cf_fairness",
    "audit_text",
]


class TestGoldenExperiments:
    def test_every_experiment_pinned(self, golden):
        assert set(golden) == set(EXPERIMENTS)
        assert len(golden["fig4"]) == 10
        assert len(golden["ext_oracle"]) == 4

    @pytest.mark.parametrize("experiment", EXPERIMENTS)
    def test_experiment_matches_golden(self, experiment, golden, current):
        _assert_matches(golden[experiment], current[experiment], experiment)


if __name__ == "__main__":
    GOLDEN_PATH.write_text(json.dumps(_compute(), indent=2, sort_keys=True) + "\n")
    print(f"wrote {GOLDEN_PATH}")
