"""Scenario protocol and the task-generic experiment runner.

A :class:`Scenario` names one cell of the (graph family × fairness task)
matrix: which dataset reference to load (any spelling
:func:`repro.datasets.load_dataset` accepts — benchmark name, graph family,
saved path), which task to run (node classification or link prediction),
which sensitive attributes the audit covers, and the generator parameters.

The runner layer is task-generic where :mod:`repro.experiments.table2` was
node-classification-specific: :func:`run_scenario_method` dispatches one
(method, seed) run by task kind, and :func:`run_scenario_cell` repeats it
over methods × seeds exactly like a Table-II cell (same loop order, so
existing Table-II numbers are unchanged).  Node-classification scenarios
naming more than one sensitive attribute additionally get a seed-0
intersectional audit per method (:func:`repro.fairness.audit_intersectional`
over the test split), with extra attributes resolved from
``graph.meta["extra_sensitive"]``.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from repro.baselines.base import MethodResult
from repro.core import ExecutionConfig
from repro.datasets import load_dataset
from repro.experiments.aggregate import MetricSummary, summarize
from repro.experiments.linkpred import run_linkpred_method
from repro.experiments.methods import METHOD_ORDER, run_method
from repro.experiments.scale import Scale
from repro.fairness import IntersectionalAudit, audit_intersectional
from repro.graph import Graph

__all__ = [
    "TASKS",
    "Scenario",
    "ScenarioCellResult",
    "run_scenario_method",
    "run_scenario_cell",
]

TASKS = ("node_classification", "link_prediction")


@dataclass
class Scenario:
    """One cell recipe of the scenario matrix.

    Attributes
    ----------
    dataset:
        Any :func:`repro.datasets.load_dataset` reference — a benchmark
        name ("nba"), a graph family ("sbm"), or a saved-graph path.
    task:
        One of :data:`TASKS`.
    sensitive_attrs:
        Attribute names the fairness audit covers.  ``"sensitive"`` is the
        graph's primary attribute; any other name must exist in
        ``graph.meta["extra_sensitive"]`` (planted extra attributes, the
        SBM's ``"community"``).  More than one name turns on the
        intersectional audit (node classification only).
    dataset_params:
        Generator keyword arguments forwarded to ``load_dataset`` (family
        references only — e.g. ``{"num_nodes": 400, "mixing": 0.3}``).
    """

    dataset: str
    task: str = "node_classification"
    sensitive_attrs: tuple[str, ...] = ("sensitive",)
    dataset_params: dict = field(default_factory=dict)

    def validate(self) -> None:
        if self.task not in TASKS:
            raise ValueError(f"unknown task {self.task!r}; choose from {TASKS}")
        if not self.sensitive_attrs:
            raise ValueError("sensitive_attrs must name at least one attribute")
        if len(self.sensitive_attrs) > 1 and self.task != "node_classification":
            raise ValueError(
                "intersectional auditing (multiple sensitive_attrs) is only "
                "wired for node classification"
            )

    def load(self, seed: int = 0) -> Graph:
        """Materialise the scenario's graph for one seed."""
        return load_dataset(self.dataset, seed=seed, **self.dataset_params)

    def attributes(self, graph: Graph) -> dict[str, np.ndarray]:
        """Resolve ``sensitive_attrs`` to aligned node arrays."""
        extra = graph.meta.get("extra_sensitive", {})
        out: dict[str, np.ndarray] = {}
        for name in self.sensitive_attrs:
            if name == "sensitive":
                out[name] = graph.sensitive
            elif name in extra:
                out[name] = np.asarray(extra[name])
            else:
                raise KeyError(
                    f"scenario attribute {name!r} not found; graph "
                    f"{graph.name!r} offers 'sensitive' plus {sorted(extra)}"
                )
        return out


def run_scenario_method(
    scenario: Scenario,
    method: str,
    graph: Graph,
    backbone: str = "gcn",
    seed: int = 0,
    scale: Scale | None = None,
    execution: ExecutionConfig | None = None,
    keep_logits: bool = False,
) -> MethodResult:
    """Run one (method, seed) cell entry, dispatching on the scenario task.

    Node classification funnels through the existing
    :func:`~repro.experiments.methods.run_method` with the scale's budgets;
    link prediction through
    :func:`~repro.experiments.linkpred.run_linkpred_method`
    (``keep_logits`` has no meaning there — LP audits score edges directly).
    """
    scenario.validate()
    scale = scale or Scale.quick()
    if scenario.task == "node_classification":
        return run_method(
            method,
            graph,
            backbone=backbone,
            seed=seed,
            epochs=scale.epochs,
            finetune_epochs=scale.finetune_epochs,
            patience=scale.patience,
            execution=execution,
            keep_logits=keep_logits,
        )
    return run_linkpred_method(
        method,
        graph,
        backbone=backbone,
        seed=seed,
        epochs=scale.epochs,
        execution=execution,
    )


@dataclass
class ScenarioCellResult:
    """Aggregated outcome of one scenario × backbone cell.

    ``summaries`` maps method key → seed-aggregated
    :class:`~repro.experiments.aggregate.MetricSummary`;
    ``intersectional`` (multi-attribute node-classification scenarios only)
    maps method key → the seed-0 test-split
    :class:`~repro.fairness.IntersectionalAudit`.
    """

    scenario: Scenario
    backbone: str
    methods: list[str]
    summaries: dict[str, MetricSummary] = field(default_factory=dict)
    intersectional: dict[str, IntersectionalAudit] = field(default_factory=dict)


def run_scenario_cell(
    scenario: Scenario,
    methods: list[str] | None = None,
    backbone: str = "gcn",
    scale: Scale | None = None,
    execution: ExecutionConfig | None = None,
) -> ScenarioCellResult:
    """Run the method comparison on one scenario cell.

    The loop order (method outer, seed inner, graph re-loaded per run)
    matches the historical Table-II harness exactly, so node-classification
    cells reproduce its numbers bit-for-bit.
    """
    scenario.validate()
    methods = methods or list(METHOD_ORDER)
    scale = scale or Scale.quick()
    intersectional = (
        scenario.task == "node_classification" and len(scenario.sensitive_attrs) > 1
    )
    result = ScenarioCellResult(
        scenario=scenario, backbone=backbone, methods=methods
    )
    for method in methods:
        runs = []
        for seed in range(scale.seeds):
            graph = scenario.load(seed=seed)
            keep = intersectional and seed == 0
            run = run_scenario_method(
                scenario,
                method,
                graph,
                backbone=backbone,
                seed=seed,
                scale=scale,
                execution=execution,
                keep_logits=keep,
            )
            if keep:
                test = graph.test_mask
                attrs = {
                    name: values[test]
                    for name, values in scenario.attributes(graph).items()
                }
                result.intersectional[method] = audit_intersectional(
                    run.extra.pop("logits")[test], graph.labels[test], attrs
                )
            runs.append(run)
        result.summaries[method] = summarize(runs)
    return result
