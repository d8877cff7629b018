"""Uniform method registry used by all experiments.

``run_method(name, graph, ...)`` trains any of the six Table II methods and
returns a :class:`~repro.baselines.base.MethodResult`, so the experiment
code never special-cases Fairwos vs the baselines.

``FAIRWOS_OVERRIDES`` records the per-dataset (α, fine-tune lr) pairs picked
from the paper's hyper-parameter grid (α ∈ {0.01, 0.05, 1, 2, 5}, selected
on validation, Section V-A-4); datasets with severe vanilla bias get the
strong end of the grid.  :func:`fairwos_recipe` is the one place that
turns them, the training budgets and an execution value into a
:class:`~repro.core.config.FairwosConfig`; the ablations and sweeps pass
the fields they change.
"""

from __future__ import annotations

import time

from repro.baselines import BASELINES
from repro.baselines.base import MethodResult
from repro.core import ExecutionConfig, FairwosConfig, FairwosTrainer
from repro.graph import Graph
from repro.tensor import dtype_scope

__all__ = [
    "available_methods",
    "fairwos_recipe",
    "run_method",
    "FAIRWOS_OVERRIDES",
    "METHOD_ORDER",
]

METHOD_ORDER = [*BASELINES, "fairwos"]

# Per-dataset Fairwos settings from the paper's α grid; "default" covers any
# dataset not listed (including user-generated graphs).
FAIRWOS_OVERRIDES: dict[str, dict[str, float]] = {
    "default": {"alpha": 2.0, "finetune_learning_rate": 0.005},
    "bail": {"alpha": 2.0, "finetune_learning_rate": 0.005},
    "credit": {"alpha": 2.0, "finetune_learning_rate": 0.005},
    "pokec_z": {"alpha": 5.0, "finetune_learning_rate": 0.01},
    "pokec_n": {"alpha": 2.0, "finetune_learning_rate": 0.005},
    "nba": {"alpha": 5.0, "finetune_learning_rate": 0.01},
    "occupation": {"alpha": 5.0, "finetune_learning_rate": 0.01},
}


def available_methods() -> list[str]:
    """Method keys accepted by :func:`run_method`, in Table II order."""
    return list(METHOD_ORDER)


def display_name(method: str) -> str:
    """Paper-style display name of a method key."""
    return "Fairwos" if method == "fairwos" else BASELINES[method].name


def _depth(execution: ExecutionConfig) -> int:
    """Backbone layer count: one per fanout entry, else one."""
    return len(execution.fanouts) if execution.fanouts else 1


def fairwos_recipe(
    dataset: str,
    backbone: str,
    epochs: int,
    finetune_epochs: int,
    patience: int | None,
    execution: ExecutionConfig | None = None,
    **changes,
) -> FairwosConfig:
    """The Fairwos config the experiments train, with ``changes`` applied.

    Starts from ``dataset``'s :data:`FAIRWOS_OVERRIDES` entry, ``epochs``
    for both pre-training phases, the fine-tune budget, ``patience`` and
    the fields of ``execution`` (default: full-batch, exact, float64; the
    backbone depth follows its ``fanouts``), then sets every field named
    in ``changes`` — e.g. ``use_fairness=False`` for "Fwos w/o F".
    """
    if execution is None:
        execution = ExecutionConfig()
    settings = {
        name: getattr(execution, name) for name in ExecutionConfig.field_names()
    }
    settings.update(
        backbone=backbone,
        num_layers=_depth(execution),
        encoder_epochs=epochs,
        classifier_epochs=epochs,
        finetune_epochs=finetune_epochs,
        patience=patience,
        **FAIRWOS_OVERRIDES.get(dataset, FAIRWOS_OVERRIDES["default"]),
    )
    settings.update(changes)
    return FairwosConfig(**settings)


def run_method(
    method: str,
    graph: Graph,
    backbone: str = "gcn",
    seed: int = 0,
    epochs: int = 150,
    finetune_epochs: int = 15,
    patience: int | None = 30,
    fairwos_config: FairwosConfig | None = None,
    execution: ExecutionConfig | None = None,
    keep_model: bool = False,
    keep_logits: bool = False,
) -> MethodResult:
    """Train one method and return its evaluation.

    This is the single entry point every experiment, benchmark and CLI
    command funnels through, so the experiment code never special-cases
    Fairwos vs the baselines.  The returned
    :class:`~repro.baselines.base.MethodResult` carries the evaluation
    triple; with ``keep_model=True`` it additionally carries the fitted
    runner, ready for :func:`repro.io.save_artifact`.

    Parameters
    ----------
    method:
        One of :func:`available_methods`.
    graph:
        Dataset to train on (sensitive attribute used only for evaluation).
    backbone:
        GNN backbone for the method ("gcn" or "gin" in the paper).
    seed:
        Weight-init / stochasticity seed.
    epochs, finetune_epochs, patience:
        Budgets (see :class:`~repro.experiments.scale.Scale`).
    fairwos_config:
        Full config for the Fairwos run; when None,
        :func:`fairwos_recipe` builds it from the dataset's
        :data:`FAIRWOS_OVERRIDES` entry, the budgets and ``execution``.
        Execution settings that disagree with an explicit config are
        rejected — set them on the config itself.
    execution:
        How the method executes, as one
        :class:`~repro.core.config.ExecutionConfig` value: sampled vs
        full-batch training (``minibatch``/``fanouts``/``batch_size``),
        the Fairwos fine-tune scaling knobs
        (``finetune_minibatch``/``cf_backend``/``cf_refresh_epochs``/
        ``cf_update`` — ignored by baselines), and precision (``dtype``).
        Every method honours the shared fields: "vanilla"/"remover" train
        through the shared
        :func:`~repro.training.fit_minibatch` engine, "ksmote" adds a
        minibatch-k-means cluster step, "fairrf"/"fairgkd" evaluate their
        fairness terms on sampled batches, and "fairwos" runs all three
        phases sampled.  With ``fanouts`` set, the backbone depth follows
        its length.  ``None`` means the defaults (full-batch, exact,
        float64).
    keep_model:
        Attach the fitted runner (the :class:`~repro.core.FairwosTrainer`
        or baseline instance) to ``result.extra["model"]`` so callers can
        persist it with :func:`repro.io.save_artifact` (the CLI's
        ``run --save``).  Off by default: sweep-style callers run many
        methods and must not pin every model in memory.
    keep_logits:
        Attach the full-graph test-time logits as ``result.extra["logits"]``
        (the intersectional audit slices them per joint subgroup).  Off by
        default for the same memory reason as ``keep_model``.
    """
    if execution is None:
        execution = ExecutionConfig()
    execution.validate()

    key = method.lower()
    if key in BASELINES:
        runner = BASELINES[key](
            backbone=backbone,
            epochs=epochs,
            patience=patience,
            minibatch=execution.minibatch,
            fanouts=execution.fanouts,
            batch_size=execution.batch_size,
            num_layers=_depth(execution),
        )
        with dtype_scope(execution.dtype):
            result = runner.fit(graph, seed=seed, keep_logits=keep_logits)
        if keep_model:
            result.extra["model"] = runner
        return result
    if key != "fairwos":
        raise ValueError(f"unknown method {method!r}; choose from {METHOD_ORDER}")

    if fairwos_config is None:
        fairwos_config = fairwos_recipe(
            graph.name, backbone, epochs, finetune_epochs, patience, execution
        )
    else:
        # Every execution field set away from its default must agree with
        # the explicit config — a silent winner would make runs depend on
        # which spelling the caller happened to use.
        conflicts = [
            name
            for name, value in sorted(execution.non_default_items().items())
            if getattr(fairwos_config, name) != value
        ]
        if conflicts:
            raise ValueError(
                f"execution settings ({', '.join(conflicts)}) disagree with "
                "the explicit fairwos_config; when supplying a full config, "
                "set its execution fields (minibatch/fanouts/batch_size/"
                "cf_backend/cf_refresh_epochs/finetune_minibatch/cf_update/"
                "dtype) directly"
            )
    start = time.perf_counter()
    trainer = FairwosTrainer(fairwos_config)
    result = trainer.fit(graph, seed=seed)
    seconds = time.perf_counter() - start
    extra = {
        "lambda_weights": result.lambda_weights,
        "counterfactual_coverage": result.counterfactual_coverage,
        "timings": result.timings,
    }
    if keep_model:
        extra["model"] = trainer
    if keep_logits:
        # predict() re-enters the config's dtype scope itself.
        extra["logits"] = trainer.predict(graph)
    return MethodResult(
        method="Fairwos",
        test=result.test,
        validation=result.validation,
        seconds=seconds,
        extra=extra,
    )
