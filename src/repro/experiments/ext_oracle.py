"""Extension experiment: Fairwos vs sensitive-attribute-using oracles.

Places Fairwos (no sensitive attributes) next to NIFTY and FairGNN (full
sensitive-attribute access) plus the vanilla backbone.  The interesting
questions: how close does Fairwos get to — or how far does it surpass —
methods that see the protected attribute, and does NIFTY's bit-flip
counterfactual reproduce the paper's non-realistic-counterfactual critique?
"""

from __future__ import annotations

from dataclasses import dataclass, field

from repro.baselines.oracle import FairGNN, NIFTY
from repro.datasets import load_dataset
from repro.experiments.aggregate import MetricSummary, summarize
from repro.experiments.methods import run_method
from repro.experiments.scale import Scale

__all__ = ["OracleResult", "run_ext_oracle", "format_ext_oracle"]

ENTRIES = ["vanilla", "nifty", "fairgnn", "fairwos"]
_DISPLAY = {
    "vanilla": "Vanilla\\S",
    "nifty": "NIFTY (oracle)",
    "fairgnn": "FairGNN (oracle)",
    "fairwos": "Fairwos (no s)",
}
_ORACLES = {"nifty": NIFTY, "fairgnn": FairGNN}


@dataclass
class OracleResult:
    """Summaries keyed by entry name."""

    dataset: str
    backbone: str
    cells: dict[str, MetricSummary] = field(default_factory=dict)


def run_ext_oracle(
    dataset: str = "nba",
    backbone: str = "gcn",
    scale: Scale | None = None,
    entries: list[str] | None = None,
) -> OracleResult:
    """Run the oracle-vs-Fairwos comparison."""
    scale = scale or Scale.quick()
    entries = entries or list(ENTRIES)
    result = OracleResult(dataset=dataset, backbone=backbone)
    for entry in entries:
        if entry not in _DISPLAY:
            raise ValueError(f"unknown entry {entry!r}")
        runs = []
        for seed in range(scale.seeds):
            graph = load_dataset(dataset, seed=seed)
            if entry in _ORACLES:
                oracle = _ORACLES[entry](
                    backbone=backbone, epochs=scale.epochs, patience=scale.patience
                )
                runs.append(oracle.fit(graph, seed=seed))
            else:
                runs.append(
                    run_method(
                        entry,
                        graph,
                        backbone=backbone,
                        seed=seed,
                        epochs=scale.epochs,
                        finetune_epochs=scale.finetune_epochs,
                        patience=scale.patience,
                    )
                )
        result.cells[entry] = summarize(runs)
    return result


def format_ext_oracle(result: OracleResult) -> str:
    """Render the oracle comparison."""
    lines = [
        f"Extension: oracle comparison on {result.dataset} "
        f"({result.backbone.upper()}) — ACC(↑)  ΔSP(↓)  ΔEO(↓), % mean±std",
        "  (oracles see the sensitive attribute; Fairwos does not)",
    ]
    for entry, summary in result.cells.items():
        lines.append(f"  {_DISPLAY[entry]:18s} {summary.row()}")
    return "\n".join(lines)
