"""Extra ablation: the λ-update direction (the paper inconsistency
documented in ``repro.core.weights``).

Eq. (24)'s math puts *small* weight on high-disparity attributes; the
surrounding text argues for *large* weight.  This bench runs Fairwos both
ways on the two strong-bias datasets so the repository documents, with
numbers, which reading actually promotes fairness on this substrate.
"""

from __future__ import annotations

import numpy as np
from conftest import bench_scale, record_output

from repro.core import FairwosConfig, FairwosTrainer
from repro.datasets import load_dataset
from repro.experiments.methods import FAIRWOS_OVERRIDES

SCALE = bench_scale()


def _run(dataset: str, prefer_high: bool) -> tuple[float, float]:
    accs, dsps = [], []
    overrides = FAIRWOS_OVERRIDES.get(dataset, FAIRWOS_OVERRIDES["default"])
    for seed in range(SCALE.seeds):
        graph = load_dataset(dataset, seed=seed)
        config = FairwosConfig(
            encoder_epochs=SCALE.epochs,
            classifier_epochs=SCALE.epochs,
            finetune_epochs=SCALE.finetune_epochs,
            patience=SCALE.patience,
            prefer_high_disparity=prefer_high,
            **overrides,
        )
        result = FairwosTrainer(config).fit(graph, seed=seed)
        accs.append(100 * result.test.accuracy)
        dsps.append(100 * result.test.delta_sp)
    return float(np.mean(accs)), float(np.mean(dsps))


def test_lambda_direction_ablation(benchmark):
    datasets = ["nba", "occupation"] if SCALE.epochs >= 100 else ["nba"]

    def run_all():
        rows = {}
        for dataset in datasets:
            for prefer in (True, False):
                rows[(dataset, prefer)] = _run(dataset, prefer)
        return rows

    rows = benchmark.pedantic(run_all, rounds=1, iterations=1)
    lines = [
        "λ-direction ablation (paper text vs Eq. 24 math) — ACC / ΔSP (%)",
        "  prefer_high_disparity=True  : text's intent (large D → large λ)",
        "  prefer_high_disparity=False : Eq. 24 as derived (large D → small λ)",
    ]
    for (dataset, prefer), (acc, dsp) in rows.items():
        label = "text (True) " if prefer else "math (False)"
        lines.append(f"  {dataset:12s} {label}: ACC {acc:5.1f}  ΔSP {dsp:5.1f}")
    record_output("ablation_lambda_direction", "\n".join(lines))
