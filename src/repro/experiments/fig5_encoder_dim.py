"""Fig. 5 — sensitivity to the encoder dimension (RQ3).

Sweeps the pseudo-sensitive attribute dimensionality over {2, 8, 16, 32} for
GCN and GIN backbones, comparing the backbone GNN, full Fairwos, and Fairwos
w/o F.  Expected shape: shrinking the dimension first keeps accuracy above
the backbone (denoising) and reduces bias, then collapses accuracy once too
much information is compressed.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.aggregate import MetricSummary, summarize
from repro.experiments.fig4_ablation import VARIANT_NAMES, run_variant
from repro.experiments.scale import Scale

__all__ = ["Fig5Result", "run_fig5", "format_fig5"]

SERIES = ["gnn", "fairwos", "fwos_wo_f"]


@dataclass
class Fig5Result:
    """Summaries keyed by ``(backbone, series, dim)``; gnn ignores dim."""

    dataset: str
    dims: list[int]
    backbones: list[str]
    cells: dict[tuple[str, str, int], MetricSummary] = field(default_factory=dict)


def run_fig5(
    dataset: str = "nba",
    dims: list[int] | None = None,
    backbones: list[str] | None = None,
    scale: Scale | None = None,
) -> Fig5Result:
    """Sweep the encoder dimension."""
    dims = dims or [2, 8, 16, 32]
    backbones = backbones or ["gcn", "gin"]
    scale = scale or Scale.quick()
    result = Fig5Result(dataset=dataset, dims=dims, backbones=backbones)
    for backbone in backbones:
        runs = [
            run_variant("gnn", dataset, backbone, seed, scale)
            for seed in range(scale.seeds)
        ]
        result.cells[(backbone, "gnn", 0)] = summarize(runs)
        for dim in dims:
            for series in ("fairwos", "fwos_wo_f"):
                runs = [
                    run_variant(series, dataset, backbone, seed, scale, encoder_dim=dim)
                    for seed in range(scale.seeds)
                ]
                result.cells[(backbone, series, dim)] = summarize(runs)
    return result


def format_fig5(result: Fig5Result) -> str:
    """Render the dimension sweep as one row per (backbone, series, dim)."""
    lines = [
        f"Fig. 5: encoder-dimension sweep on {result.dataset} — "
        "ACC(↑)  ΔSP(↓)  ΔEO(↓), % mean±std"
    ]
    for backbone in result.backbones:
        lines.append(f"\n=== {backbone.upper()} ===")
        summary = result.cells[(backbone, "gnn", 0)]
        lines.append(f"  {'GNN (any dim)':16s} {summary.row()}")
        for series in ("fairwos", "fwos_wo_f"):
            for dim in result.dims:
                summary = result.cells[(backbone, series, dim)]
                label = f"{VARIANT_NAMES[series]} d={dim}"
                lines.append(f"  {label:16s} {summary.row()}")
    return "\n".join(lines)
