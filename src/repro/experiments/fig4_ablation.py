"""Fig. 4 — ablation study on NBA and Bail.

Compares the backbone GNN, full Fairwos, and the three module ablations:
``Fwos w/o E`` (no encoder), ``Fwos w/o F`` (no fairness promotion) and
``Fwos w/o W`` (no weight updating), on GCN and GIN backbones.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.base import MethodResult
from repro.datasets import load_dataset
from repro.experiments.aggregate import MetricSummary, summarize
from repro.experiments.methods import fairwos_recipe, run_method
from repro.experiments.scale import Scale

__all__ = ["Fig4Result", "run_fig4", "format_fig4", "VARIANTS"]

VARIANTS = ["gnn", "fwos_wo_e", "fwos_wo_f", "fwos_wo_w", "fairwos"]

VARIANT_NAMES = {
    "gnn": "GNN",
    "fwos_wo_e": "Fwos w/o E",
    "fwos_wo_f": "Fwos w/o F",
    "fwos_wo_w": "Fwos w/o W",
    "fairwos": "Fairwos",
}

# The Fairwos config fields each variant changes; "gnn" is the Vanilla
# baseline.
VARIANT_CHANGES: dict[str, dict] = {
    # Raw attributes can be many; cap the pseudo-attribute count so the
    # counterfactual search stays tractable (documented deviation).
    "fwos_wo_e": {"use_encoder": False, "max_pseudo_attributes": 64},
    "fwos_wo_f": {"use_fairness": False},
    "fwos_wo_w": {"use_weight_update": False},
    "fairwos": {},
}


@dataclass
class Fig4Result:
    """Summaries keyed by ``(dataset, backbone, variant)``."""

    datasets: list[str]
    backbones: list[str]
    cells: dict[tuple[str, str, str], MetricSummary] = field(default_factory=dict)
    runtimes: dict[tuple[str, str, str], float] = field(default_factory=dict)


def run_variant(
    variant: str,
    dataset: str,
    backbone: str,
    seed: int,
    scale: Scale,
    **changes,
) -> MethodResult:
    """Train one ablation variant; ``gnn`` maps to the Vanilla baseline.

    ``changes`` set further Fairwos config fields on top of the variant's
    own, as the sweeps of Figs. 5 and 6 do.
    """
    graph = load_dataset(dataset, seed=seed)
    if variant == "gnn":
        return run_method(
            "vanilla",
            graph,
            backbone=backbone,
            seed=seed,
            epochs=scale.epochs,
            patience=scale.patience,
        )
    if variant not in VARIANT_CHANGES:
        raise ValueError(f"unknown variant {variant!r}")
    config = fairwos_recipe(
        graph.name,
        backbone,
        scale.epochs,
        scale.finetune_epochs,
        scale.patience,
        **VARIANT_CHANGES[variant],
        **changes,
    )
    return run_method("fairwos", graph, seed=seed, fairwos_config=config)


def run_fig4(
    datasets: list[str] | None = None,
    backbones: list[str] | None = None,
    variants: list[str] | None = None,
    scale: Scale | None = None,
) -> Fig4Result:
    """Run the ablation grid of Fig. 4."""
    datasets = datasets or ["nba", "bail"]
    backbones = backbones or ["gcn", "gin"]
    variants = variants or list(VARIANTS)
    scale = scale or Scale.quick()
    result = Fig4Result(datasets=datasets, backbones=backbones)
    for dataset in datasets:
        for backbone in backbones:
            for variant in variants:
                runs = [
                    run_variant(variant, dataset, backbone, seed, scale)
                    for seed in range(scale.seeds)
                ]
                key = (dataset, backbone, variant)
                result.cells[key] = summarize(runs)
                result.runtimes[key] = sum(r.seconds for r in runs) / len(runs)
    return result


def format_fig4(result: Fig4Result) -> str:
    """Render the ablation bars as rows of ACC / ΔSP / ΔEO."""
    lines = ["Fig. 4: ablation — ACC(↑)  ΔSP(↓)  ΔEO(↓), % mean±std"]
    for dataset in result.datasets:
        for backbone in result.backbones:
            lines.append(f"\n=== {dataset} / {backbone.upper()} ===")
            for variant in VARIANTS:
                key = (dataset, backbone, variant)
                if key not in result.cells:
                    continue
                lines.append(f"  {VARIANT_NAMES[variant]:12s} {result.cells[key].row()}")
    return "\n".join(lines)
