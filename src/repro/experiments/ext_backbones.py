"""Extension experiment: Fairwos across all four backbones.

The paper states "our proposed Fairwos is flexible for various backbones
such as GCN and GIN" and evaluates those two; this extension additionally
runs GAT and GraphSAGE (both named in the related work) to substantiate the
flexibility claim.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.aggregate import MetricSummary, summarize
from repro.experiments.fig4_ablation import run_variant
from repro.experiments.scale import Scale

__all__ = ["BackbonesResult", "run_ext_backbones", "format_ext_backbones"]

ALL_BACKBONES = ["gcn", "gin", "gat", "sage"]


@dataclass
class BackbonesResult:
    """Summaries keyed by ``(backbone, series)`` with series ∈ {gnn, fairwos}."""

    dataset: str
    backbones: list[str]
    cells: dict[tuple[str, str], MetricSummary] = field(default_factory=dict)


def run_ext_backbones(
    dataset: str = "nba",
    backbones: list[str] | None = None,
    scale: Scale | None = None,
) -> BackbonesResult:
    """Vanilla vs Fairwos for every backbone."""
    backbones = backbones or list(ALL_BACKBONES)
    scale = scale or Scale.quick()
    result = BackbonesResult(dataset=dataset, backbones=backbones)
    for backbone in backbones:
        for series in ("gnn", "fairwos"):
            runs = [
                run_variant(series, dataset, backbone, seed, scale)
                for seed in range(scale.seeds)
            ]
            result.cells[(backbone, series)] = summarize(runs)
    return result


def format_ext_backbones(result: BackbonesResult) -> str:
    """Render vanilla → Fairwos rows per backbone."""
    lines = [
        f"Extension: backbone flexibility on {result.dataset} — "
        "ACC(↑)  ΔSP(↓)  ΔEO(↓), % mean±std"
    ]
    for backbone in result.backbones:
        lines.append(f"\n=== {backbone.upper()} ===")
        lines.append(f"  {'GNN':8s} {result.cells[(backbone, 'gnn')].row()}")
        lines.append(f"  {'Fairwos':8s} {result.cells[(backbone, 'fairwos')].row()}")
    return "\n".join(lines)
