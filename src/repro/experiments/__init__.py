"""Experiment harness — one module per table / figure of the paper.

Every experiment exposes a ``run_*`` function returning plain data
structures and a ``format_*`` function rendering the same rows/series the
paper reports.  The benchmarks under ``benchmarks/`` call these with a
reduced :class:`Scale`; pass ``Scale.paper()`` for full-fidelity runs.
"""

from repro.experiments.scale import Scale
from repro.experiments.methods import (
    FAIRWOS_OVERRIDES,
    available_methods,
    run_method,
)
from repro.experiments.table1_datasets import format_table1, run_table1
from repro.experiments.table2 import format_table2, run_table2
from repro.experiments.linkpred import make_link_split, run_linkpred_method
from repro.experiments.scenario import (
    Scenario,
    ScenarioCellResult,
    run_scenario_cell,
    run_scenario_method,
)
from repro.experiments.fig4_ablation import format_fig4, run_fig4
from repro.experiments.fig5_encoder_dim import format_fig5, run_fig5
from repro.experiments.fig6_hyperparam import format_fig6, run_fig6
from repro.experiments.fig7_tsne import format_fig7, run_fig7
from repro.experiments.fig8_runtime import format_fig8, run_fig8
from repro.experiments.ext_backbones import format_ext_backbones, run_ext_backbones
from repro.experiments.ext_oracle import format_ext_oracle, run_ext_oracle
from repro.experiments.ext_cf_fairness import (
    format_ext_cf_fairness,
    run_ext_cf_fairness,
)

__all__ = [
    "Scale",
    "FAIRWOS_OVERRIDES",
    "available_methods",
    "run_method",
    "run_table1",
    "format_table1",
    "run_table2",
    "format_table2",
    "make_link_split",
    "run_linkpred_method",
    "Scenario",
    "ScenarioCellResult",
    "run_scenario_method",
    "run_scenario_cell",
    "run_fig4",
    "format_fig4",
    "run_fig5",
    "format_fig5",
    "run_fig6",
    "format_fig6",
    "run_fig7",
    "format_fig7",
    "run_fig8",
    "format_fig8",
    "run_ext_backbones",
    "format_ext_backbones",
    "run_ext_oracle",
    "format_ext_oracle",
    "run_ext_cf_fairness",
    "format_ext_cf_fairness",
]
