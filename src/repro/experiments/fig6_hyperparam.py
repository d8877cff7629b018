"""Fig. 6 — hyper-parameter sensitivity (RQ4): α × K grid on Bail.

The paper varies α over {0.01, 0.02, 0.04, 0.08} and K over {1, 2, 3, 4}
around its selected operating point and reports ACC / ΔEO / ΔSP surfaces.
Expected shape: both fairness metrics improve as α and K grow; too-large
values start to cost utility.

Because our substrate's effective α scale differs (see the comment on
``repro.experiments.methods.FAIRWOS_OVERRIDES`` and the docstring of
``repro.core.FairwosConfig``), the default grid is expressed as multipliers
of the dataset's selected α.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.experiments.aggregate import MetricSummary, summarize
from repro.experiments.fig4_ablation import run_variant
from repro.experiments.methods import FAIRWOS_OVERRIDES
from repro.experiments.scale import Scale

__all__ = ["Fig6Result", "run_fig6", "format_fig6"]


@dataclass
class Fig6Result:
    """Summaries keyed by ``(alpha, k)``."""

    dataset: str
    alphas: list[float]
    ks: list[int]
    cells: dict[tuple[float, int], MetricSummary] = field(default_factory=dict)


def run_fig6(
    dataset: str = "bail",
    alphas: list[float] | None = None,
    ks: list[int] | None = None,
    scale: Scale | None = None,
) -> Fig6Result:
    """Run the α × K sensitivity grid."""
    base = FAIRWOS_OVERRIDES.get(dataset, FAIRWOS_OVERRIDES["default"])
    alphas = alphas or [0.0, 0.5 * base["alpha"], base["alpha"], 2.0 * base["alpha"]]
    ks = ks or [1, 2, 3, 4]
    scale = scale or Scale.quick()
    result = Fig6Result(dataset=dataset, alphas=alphas, ks=ks)
    for alpha in alphas:
        for k in ks:
            runs = [
                run_variant(
                    "fairwos",
                    dataset,
                    "gcn",
                    seed,
                    scale,
                    alpha=alpha,
                    top_k=k,
                    use_fairness=alpha > 0,
                )
                for seed in range(scale.seeds)
            ]
            result.cells[(alpha, k)] = summarize(runs)
    return result


def format_fig6(result: Fig6Result) -> str:
    """Render the three surfaces (ACC, ΔEO, ΔSP) as grids."""
    lines = [f"Fig. 6: hyper-parameter study on {result.dataset} (%, mean)"]
    for metric, attr in (("ACC", "acc_mean"), ("ΔEO", "deo_mean"), ("ΔSP", "dsp_mean")):
        lines.append(f"\n{metric}:")
        header = "  alpha\\K " + "".join(f"{k:>8d}" for k in result.ks)
        lines.append(header)
        for alpha in result.alphas:
            row = f"  {alpha:7.3f} "
            for k in result.ks:
                row += f"{getattr(result.cells[(alpha, k)], attr):8.2f}"
            lines.append(row)
    return "\n".join(lines)
