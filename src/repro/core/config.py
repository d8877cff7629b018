"""Configuration for the Fairwos trainer and the shared execution knobs."""

from __future__ import annotations

from dataclasses import dataclass, fields

__all__ = ["ExecutionConfig", "FairwosConfig"]


# ``repro run`` flag table: (field name, argparse kwargs).  One declarative
# row per CLI-exposed ExecutionConfig field instead of hand-kept
# ``add_argument`` calls — the CLI derives flags, ``run_method`` receives
# the same names, and adding an execution knob means adding a row here.
# ``"type": "fanouts"`` is a sentinel the CLI replaces with its
# comma-separated-fanout parser.  ``finetune_minibatch`` has no row: it is
# a tri-state resolved at fit time (``None`` → follow ``minibatch``) with
# no natural boolean flag.
_EXECUTION_CLI_FLAGS: tuple = (
    (
        "minibatch",
        {
            "flag": "--minibatch",
            "action": "store_true",
            "help": "train with neighbour-sampled minibatches (large graphs)",
        },
    ),
    (
        "fanouts",
        {
            "flag": "--fanout",
            "type": "fanouts",
            "metavar": "F1,F2,...",
            "help": "per-layer neighbour fanouts, e.g. '10,5' "
            "(sets backbone depth)",
        },
    ),
    ("batch_size", {"flag": "--batch-size", "type": int}),
    (
        "cf_backend",
        {
            "flag": "--cf-backend",
            "choices": ("exact", "ann"),
            "help": "fairwos counterfactual search backend "
            "(ann = random-projection forest for large graphs)",
        },
    ),
    (
        "cf_refresh_epochs",
        {
            "flag": "--cf-refresh",
            "type": int,
            "metavar": "R",
            "help": "refresh the counterfactual index every R fine-tune "
            "epochs",
        },
    ),
    (
        "cf_update",
        {
            "flag": "--cf-update",
            "choices": ("rebuild", "incremental"),
            "help": "how an ANN refresh maintains the forest: rebuild from "
            "scratch or incrementally re-route only drifted points",
        },
    ),
    (
        "dtype",
        {
            "flag": "--dtype",
            "choices": ("float64", "float32"),
            "help": "floating precision of the training stack (float32 "
            "halves resident memory on large graphs; float64 is the exact "
            "baseline)",
        },
    ),
)


@dataclass(frozen=True)
class ExecutionConfig:
    """How a method executes — sampling, search, precision — as one value.

    Every field here is a *how*, not a *what*: none of them changes the
    optimisation problem, only the substrate it runs on (sampled vs
    full-batch epochs, exact vs ANN counterfactual search, float64 vs
    float32).  The same value can be handed to every method via
    :func:`repro.experiments.methods.run_method`'s ``execution=`` keyword:
    the baselines read the shared fields, and :class:`FairwosConfig`, a
    subclass, carries all eight.

    ``minibatch=True`` switches the Fairwos encoder and classifier
    pre-training phases (and every inference pass) to the neighbour-sampled
    engine of :mod:`repro.training.minibatch`, bounding memory by
    ``batch_size`` and ``fanouts`` instead of the graph size; the baselines
    train sampled too.  ``fanouts`` has one entry per backbone layer
    (default: 10 per layer).  Every sampled epoch draws fresh batches and
    blocks.

    The Fairwos fine-tuning phase scales through four further knobs, which
    the baselines ignore.  ``finetune_minibatch`` runs the fairness
    fine-tune itself on sampled seed batches (utility loss on the batch's
    labelled members, fair loss on the batch's counterfactual pairs);
    ``None`` (the default) follows ``minibatch`` so ``minibatch=True``
    makes all three phases sampled.  ``cf_backend`` selects the
    counterfactual search backend — ``"exact"`` (the O(N²) oracle) or
    ``"ann"`` (random-projection forest).  ``cf_refresh_epochs`` refreshes
    the counterfactual index (and the ANN forest) every R fine-tune epochs
    (default 1: every epoch).  ``cf_update`` selects how an ANN refresh
    maintains the forest: ``"rebuild"`` (default) reconstructs it from
    scratch every refresh; ``"incremental"`` re-routes only points whose
    embedding moved more than 1e-2 (L2) since the last refresh, escaping to
    a full rebuild when more than half of them moved or a leaf overflows —
    the distance ranking always uses the fresh embeddings either way, only
    the tree routing is maintained lazily (see
    :meth:`repro.core.ann.RPForestIndex.update`).  It requires the
    ``"ann"`` backend.

    ``dtype`` selects the floating precision of the whole training stack —
    model parameters, activations, gradients and optimiser state.  The
    default ``"float64"`` is bit-identical to the historical behaviour;
    ``"float32"`` halves resident memory (the 1M-node operating point) at
    the cost of bounded numerical divergence from the float64 oracle.  The
    Fairwos trainer applies it via :func:`repro.tensor.dtype_scope` around
    every phase, so concurrent float64 work outside the fit is unaffected.

    Frozen: a value can be shared across ``run_method`` calls, threads and
    result manifests without defensive copying.
    """

    minibatch: bool = False
    fanouts: tuple[int, ...] | None = None
    batch_size: int = 512
    finetune_minibatch: bool | None = None
    cf_backend: str = "exact"
    cf_refresh_epochs: int = 1
    cf_update: str = "rebuild"
    dtype: str = "float64"

    def validate(self) -> None:
        """Raise ``ValueError`` for inconsistent settings.

        The fanouts-vs-layer-count coupling needs the backbone depth, so
        :meth:`FairwosConfig.validate` checks it, not this method.
        """
        from repro.tensor.dtype import resolve_dtype

        resolve_dtype(self.dtype)  # raises on anything but float32/float64
        if self.batch_size < 1:
            raise ValueError(f"batch_size must be >= 1, got {self.batch_size}")
        if str(self.cf_backend).lower() not in ("exact", "ann"):
            raise ValueError(
                f"cf_backend must be 'exact' or 'ann', got {self.cf_backend!r}"
            )
        if self.cf_refresh_epochs is None or self.cf_refresh_epochs < 1:
            raise ValueError(
                f"cf_refresh_epochs must be >= 1, got {self.cf_refresh_epochs}"
            )
        if self.cf_update not in ("rebuild", "incremental"):
            raise ValueError(
                f"cf_update must be 'rebuild' or 'incremental', got "
                f"{self.cf_update!r}"
            )
        if self.cf_update == "incremental" and self.cf_backend.lower() != "ann":
            raise ValueError(
                "cf_update='incremental' maintains the ANN forest in place; "
                "it requires cf_backend='ann' (the exact backend has no "
                "index to maintain)"
            )
        if self.fanouts is not None:
            if len(self.fanouts) == 0:
                raise ValueError("fanouts must be non-empty or None")
            if any(f is not None and f < 1 for f in self.fanouts):
                raise ValueError(
                    f"fanouts entries must be >= 1, got {self.fanouts}"
                )

    @classmethod
    def field_names(cls) -> tuple[str, ...]:
        """Every execution field name, in declaration order."""
        return tuple(f.name for f in fields(ExecutionConfig))

    @classmethod
    def cli_flags(cls) -> tuple:
        """The ``(field, argparse spec)`` table behind ``repro run``."""
        return _EXECUTION_CLI_FLAGS

    def non_default_items(self) -> dict:
        """Fields whose value differs from the class default."""
        out = {}
        for f in fields(self):
            value = getattr(self, f.name)
            if value != f.default:
                out[f.name] = value
        return out


@dataclass(frozen=True)
class FairwosConfig(ExecutionConfig):
    """All Fairwos hyper-parameters with the paper's defaults.

    Paper settings (Section V-A-4): backbone layer count 1, hidden units 16,
    Adam lr 0.001, pre-training phase of 1000 epochs, fine-tuning phase of
    15 epochs, α swept over {0.01, 0.05, 1, 2, 5} and K over
    {1, 2, 5, 10, 20}.  Defaults here: α = 5 and K = 5 (the strong end of
    the paper's grid — the severe-bias datasets' operating point; see
    ``repro.experiments.methods.FAIRWOS_OVERRIDES`` for per-dataset values),
    a faster fine-tune learning rate (0.01 — at the paper's 0.001 the
    15-epoch fine-tune barely moves this substrate's parameters), and
    shorter pre-training (the synthetic graphs converge far earlier; early
    stopping makes longer budgets equivalent).

    Ablation flags map to the Fig. 4 variants: ``use_encoder=False`` is
    "Fwos w/o E", ``use_fairness=False`` is "Fwos w/o F" and
    ``use_weight_update=False`` is "Fwos w/o W".

    The eight execution fields (``minibatch``, ``fanouts``, ``batch_size``,
    ``finetune_minibatch``, ``cf_backend``, ``cf_refresh_epochs``,
    ``cf_update``, ``dtype``) are inherited from :class:`ExecutionConfig`,
    which documents and checks them.  ``cf_attrs_per_step`` bounds the
    sampled fine-tune's per-step receptive field: each optimizer step draws
    that many pseudo-sensitive attributes uniformly and rescales the fair
    loss by I/M (an unbiased per-step estimator of ``Σ_i λ_i D_i``), so the
    batch's counterfactual-target union stays O(batch · M · K) instead of
    O(batch · I · K).  ``None`` keeps every attribute every step (the
    full-batch semantics).

    ``num_workers`` only accepts ``0``: sampling and the ANN forest run
    in the training process.  The field is kept so configs that spell out
    ``num_workers=0`` stay valid; any other value raises ``ValueError``.
    """

    backbone: str = "gcn"
    hidden_dim: int = 16
    num_layers: int = 1
    encoder_backbone: str = "gcn"
    encoder_dim: int = 16
    alpha: float = 5.0
    top_k: int = 5
    learning_rate: float = 1e-3
    finetune_learning_rate: float | None = 0.01
    weight_decay: float = 0.0
    finetune_val_tolerance: float | None = 0.05
    dropout: float = 0.0
    encoder_epochs: int = 200
    classifier_epochs: int = 200
    finetune_epochs: int = 15
    patience: int | None = 40
    binarize_quantile: float = 0.5
    prefer_high_disparity: bool = True
    use_encoder: bool = True
    use_fairness: bool = True
    use_weight_update: bool = True
    max_pseudo_attributes: int | None = None
    cf_attrs_per_step: int | None = None
    num_workers: int = 0

    def validate(self) -> None:
        """Raise ``ValueError`` for inconsistent settings.

        Checks the execution fields first, then the Fairwos-only fields and
        the fanouts-vs-``num_layers`` coupling.
        """
        super().validate()
        if self.hidden_dim < 1 or self.encoder_dim < 1:
            raise ValueError("hidden_dim and encoder_dim must be positive")
        if self.alpha < 0:
            raise ValueError(f"alpha must be non-negative, got {self.alpha}")
        if self.learning_rate <= 0:
            raise ValueError(
                f"learning_rate must be positive, got {self.learning_rate}"
            )
        if (
            self.finetune_learning_rate is not None
            and self.finetune_learning_rate <= 0
        ):
            # An explicit 0.0 must be rejected, not silently collapsed into
            # "follow learning_rate" (the falsy-zero bug class).
            raise ValueError(
                "finetune_learning_rate must be positive or None, got "
                f"{self.finetune_learning_rate}"
            )
        if self.top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {self.top_k}")
        if not 0.0 < self.binarize_quantile < 1.0:
            raise ValueError(
                f"binarize_quantile must be in (0, 1), got {self.binarize_quantile}"
            )
        for name in ("encoder_epochs", "classifier_epochs", "finetune_epochs"):
            if getattr(self, name) < 1:
                raise ValueError(f"{name} must be >= 1")
        if self.patience is not None and self.patience < 0:
            raise ValueError(f"patience must be >= 0 or None, got {self.patience}")
        if self.finetune_val_tolerance is not None and self.finetune_val_tolerance < 0:
            raise ValueError(
                "finetune_val_tolerance must be >= 0 or None, got "
                f"{self.finetune_val_tolerance}"
            )
        if self.max_pseudo_attributes is not None and self.max_pseudo_attributes < 1:
            raise ValueError("max_pseudo_attributes must be >= 1 or None")
        if self.cf_attrs_per_step is not None and self.cf_attrs_per_step < 1:
            raise ValueError("cf_attrs_per_step must be >= 1 or None")
        if self.num_workers != 0:
            raise ValueError(
                f"num_workers must be 0 (training runs in one process), "
                f"got {self.num_workers}"
            )
        if self.fanouts is not None and len(self.fanouts) != self.num_layers:
            raise ValueError(
                f"fanouts has {len(self.fanouts)} entries but the backbone "
                f"has {self.num_layers} layers"
            )

    def resolved_fanouts(self) -> tuple[int, ...]:
        """Per-layer fanouts for minibatch phases (engine default per layer)."""
        from repro.training.minibatch import DEFAULT_FANOUT

        if self.fanouts is not None:
            return tuple(self.fanouts)
        return (DEFAULT_FANOUT,) * self.num_layers

    def resolved_finetune_minibatch(self) -> bool:
        """Whether the fine-tune phase runs sampled (None → follow ``minibatch``)."""
        if self.finetune_minibatch is None:
            return self.minibatch
        return self.finetune_minibatch

    def resolved_finetune_lr(self) -> float:
        """Fine-tune learning rate (``None`` → follow ``learning_rate``).

        An explicit ``is None`` check, not an ``or`` fallback: a (rejected
        by :meth:`validate`, but still) zero fine-tune rate must never
        silently fall back to the pre-training rate.
        """
        if self.finetune_learning_rate is None:
            return self.learning_rate
        return self.finetune_learning_rate
