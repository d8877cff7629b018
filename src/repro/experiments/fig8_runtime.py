"""Fig. 8 — runtime comparison (RQ6) on the NBA dataset.

Measures mean wall-clock training time of every baseline, Fairwos, and the
three Fairwos ablation variants, over repeated runs.  Expected shape per the
paper: RemoveR fastest; KSMOTE/FairRF comparable to Fairwos; FairGKD slower
(two extra teachers); ``Fwos w/o E`` slower than full Fairwos (fairness is
promoted on every raw attribute); ``w/o F`` and ``w/o W`` faster than full
Fairwos.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.datasets import load_dataset
from repro.experiments.fig4_ablation import (
    VARIANT_CHANGES,
    VARIANT_NAMES,
    run_variant,
)
from repro.experiments.methods import display_name, run_method
from repro.experiments.scale import Scale

__all__ = ["Fig8Result", "run_fig8", "format_fig8", "RUNTIME_ENTRIES"]

RUNTIME_ENTRIES = [
    "vanilla",
    "remover",
    "ksmote",
    "fairrf",
    "fairgkd",
    "fwos_wo_w",
    "fwos_wo_e",
    "fwos_wo_f",
    "fairwos",
]


@dataclass
class Fig8Result:
    """Mean ± std seconds per entry."""

    dataset: str
    backbone: str
    seconds_mean: dict[str, float] = field(default_factory=dict)
    seconds_std: dict[str, float] = field(default_factory=dict)


def run_fig8(
    dataset: str = "nba",
    backbone: str = "gcn",
    scale: Scale | None = None,
    entries: list[str] | None = None,
) -> Fig8Result:
    """Time every method/variant over ``scale.seeds`` runs.

    The runs are interleaved seed by seed (every entry at seed 0, then
    every entry at seed 1, ...), so a slow phase of the host is spread
    over all entries instead of landing on one.
    """
    scale = scale or Scale.quick()
    entries = entries or list(RUNTIME_ENTRIES)
    result = Fig8Result(dataset=dataset, backbone=backbone)
    times: dict[str, list[float]] = {entry: [] for entry in entries}
    for seed in range(scale.seeds):
        for entry in entries:
            if entry in VARIANT_CHANGES:
                run = run_variant(entry, dataset, backbone, seed, scale)
            else:
                graph = load_dataset(dataset, seed=seed)
                run = run_method(
                    entry,
                    graph,
                    backbone=backbone,
                    seed=seed,
                    epochs=scale.epochs,
                    finetune_epochs=scale.finetune_epochs,
                    patience=scale.patience,
                )
            times[entry].append(run.seconds)
    for entry in entries:
        result.seconds_mean[entry] = float(np.mean(times[entry]))
        result.seconds_std[entry] = float(np.std(times[entry]))
    return result


def format_fig8(result: Fig8Result) -> str:
    """Render the runtime bars."""
    lines = [
        f"Fig. 8: mean training time on {result.dataset} "
        f"({result.backbone.upper()}), seconds"
    ]
    for entry, mean in result.seconds_mean.items():
        label = (
            VARIANT_NAMES[entry] if entry in VARIANT_CHANGES else display_name(entry)
        )
        std = result.seconds_std[entry]
        lines.append(f"  {label:12s} {mean:7.2f} ± {std:5.2f}")
    return "\n".join(lines)
