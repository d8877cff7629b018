"""Extension experiment: counterfactual + individual fairness metrics.

The paper evaluates Fairwos with group metrics (ΔSP/ΔEO); this extension
checks the *counterfactual* notion it actually optimises, plus NIFTY-style
individual consistency:

* **flip rate** — fraction of test nodes whose decision differs from their
  nearest real counterfactual twin (per pseudo-sensitive attribute);
* **consistency** — agreement of each node's decision with its k nearest
  feature-space neighbours.

Expected shape: Fairwos's fine-tuning lowers the flip rate relative to the
same pipeline without the fairness loss, at comparable consistency.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core import FairwosTrainer, evaluate_counterfactual_fairness
from repro.datasets import load_dataset
from repro.experiments.methods import fairwos_recipe
from repro.experiments.scale import Scale
from repro.fairness import consistency_score
from repro.tensor import Tensor, no_grad

__all__ = ["CfFairnessResult", "run_ext_cf_fairness", "format_ext_cf_fairness"]


@dataclass
class CfFairnessResult:
    """Counterfactual/individual fairness of Fairwos vs its no-F ablation."""

    dataset: str
    flip_rate_fairwos: float
    flip_rate_no_fairness: float
    consistency_fairwos: float
    consistency_no_fairness: float
    group_dsp_fairwos: float
    group_dsp_no_fairness: float


def _run_one(dataset: str, use_fairness: bool, seed: int, scale: Scale):
    graph = load_dataset(dataset, seed=seed)
    trainer = FairwosTrainer(
        fairwos_recipe(
            graph.name,
            "gcn",
            scale.epochs,
            scale.finetune_epochs,
            scale.patience,
            use_fairness=use_fairness,
        )
    )
    fit = trainer.fit(graph, seed=seed)
    logits = trainer.predict(graph)
    with no_grad():
        reps = trainer.classifier.embed(
            Tensor(fit.pseudo_attributes), graph.adjacency
        ).data
    report = evaluate_counterfactual_fairness(
        logits, reps, fit.pseudo_attributes, graph.labels, mask=graph.test_mask
    )
    consistency = consistency_score(
        logits[graph.test_mask], graph.features[graph.test_mask]
    )
    return report.overall, consistency, fit.test.delta_sp


def run_ext_cf_fairness(
    dataset: str = "nba", scale: Scale | None = None
) -> CfFairnessResult:
    """Compare flip rate / consistency with and without the fairness loss."""
    scale = scale or Scale.quick()
    flips_f, cons_f, dsp_f = [], [], []
    flips_n, cons_n, dsp_n = [], [], []
    for seed in range(scale.seeds):
        flip, cons, dsp = _run_one(dataset, True, seed, scale)
        flips_f.append(flip), cons_f.append(cons), dsp_f.append(dsp)
        flip, cons, dsp = _run_one(dataset, False, seed, scale)
        flips_n.append(flip), cons_n.append(cons), dsp_n.append(dsp)
    return CfFairnessResult(
        dataset=dataset,
        flip_rate_fairwos=float(np.nanmean(flips_f)),
        flip_rate_no_fairness=float(np.nanmean(flips_n)),
        consistency_fairwos=float(np.mean(cons_f)),
        consistency_no_fairness=float(np.mean(cons_n)),
        group_dsp_fairwos=float(np.mean(dsp_f)),
        group_dsp_no_fairness=float(np.mean(dsp_n)),
    )


def format_ext_cf_fairness(result: CfFairnessResult) -> str:
    """Render the comparison."""
    return "\n".join(
        [
            f"Extension: counterfactual & individual fairness on {result.dataset}",
            "                       Fairwos    w/o fairness loss",
            f"  CF flip rate        {result.flip_rate_fairwos:8.3f}   "
            f"{result.flip_rate_no_fairness:8.3f}   (lower = counterfactually fairer)",
            f"  consistency (k-NN)  {result.consistency_fairwos:8.3f}   "
            f"{result.consistency_no_fairness:8.3f}   (higher = individually fairer)",
            f"  group ΔSP           {result.group_dsp_fairwos:8.3f}   "
            f"{result.group_dsp_no_fairness:8.3f}",
        ]
    )
