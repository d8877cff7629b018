"""Common interface and result type for all comparison methods."""

from __future__ import annotations

import time
from dataclasses import dataclass, field

import numpy as np

from repro.fairness import EvalResult, evaluate_predictions
from repro.graph import Graph
from repro.training import fit_minibatch, predict_logits_batched

__all__ = ["MethodResult", "BaselineMethod"]


@dataclass
class MethodResult:
    """Outcome of one method run on one graph/seed.

    ``seconds`` is total wall-clock training time (the quantity plotted in
    the paper's Fig. 8); ``extra`` carries method-specific diagnostics.
    """

    method: str
    test: EvalResult
    validation: EvalResult
    seconds: float
    extra: dict = field(default_factory=dict)


class BaselineMethod:
    """Base class: subclasses implement :meth:`_train_logits`.

    Parameters
    ----------
    backbone:
        GNN backbone name ("gcn", "gin", "gat", "sage").
    hidden_dim, num_layers, epochs, lr, patience:
        Shared training recipe (paper defaults: 16 hidden units, 1 layer,
        Adam lr 0.001, early stopping on validation accuracy).
    minibatch, fanouts, batch_size:
        Neighbour-sampled training: with ``minibatch=True`` every step
        samples ``fanouts`` per layer (default ``DEFAULT_FANOUT``) around a
        seed batch of ``batch_size``, and evaluation folds exact
        neighbourhoods in batches of ``batch_size``, so reported metrics
        are sampling-free.  Otherwise training and evaluation are
        full-batch.  A method that trains full-batch only sets
        ``supports_minibatch = False`` and rejects ``minibatch=True``.
    """

    name = "baseline"
    supports_minibatch = True

    def __init__(
        self,
        backbone: str = "gcn",
        hidden_dim: int = 16,
        num_layers: int = 1,
        epochs: int = 200,
        lr: float = 1e-3,
        patience: int | None = 40,
        minibatch: bool = False,
        fanouts: tuple[int, ...] | None = None,
        batch_size: int = 512,
    ) -> None:
        if minibatch and not self.supports_minibatch:
            raise ValueError(
                f"{type(self).__name__} trains full-batch only; minibatch=True "
                f"is not supported"
            )
        self.backbone = backbone
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.epochs = epochs
        self.lr = lr
        self.patience = patience
        self.minibatch = minibatch
        self.fanouts = fanouts
        self.batch_size = batch_size
        # Trained model (None until fit), which repro.io.artifact persists:
        # _fit_and_predict sets it, and FairRF and FairGKD, which drive
        # their own engine, set it themselves.
        self.model_ = None
        # Column subset the model was trained on (None = all columns);
        # RemoveR sets this so scoring new features drops the same columns.
        self.feature_columns_: np.ndarray | None = None

    # ------------------------------------------------------------------ #
    def fit(
        self, graph: Graph, seed: int = 0, keep_logits: bool = False
    ) -> MethodResult:
        """Train on ``graph`` and evaluate on its validation/test splits.

        ``keep_logits=True`` attaches the full-graph logits as
        ``extra["logits"]`` — consumers like the intersectional audit slice
        them per joint subgroup.  Off by default so sweep-style callers do
        not pin an ``(N,)`` array per retained result.
        """
        start = time.perf_counter()
        logits, extra = self._train_logits(graph, np.random.default_rng(seed))
        seconds = time.perf_counter() - start
        if keep_logits:
            extra["logits"] = logits
        return MethodResult(
            method=self.name,
            test=evaluate_predictions(
                logits, graph.labels, graph.sensitive, graph.test_mask
            ),
            validation=evaluate_predictions(
                logits, graph.labels, graph.sensitive, graph.val_mask
            ),
            seconds=seconds,
            extra=extra,
        )

    def _train_logits(
        self, graph: Graph, rng: np.random.Generator
    ) -> tuple[np.ndarray, dict]:
        """Train and return full-graph logits plus diagnostics."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    def _sampling_config(self) -> tuple[tuple[int, ...] | None, int | None]:
        """The engine's ``(fanouts, batch_size)``: the sampling knobs with
        ``minibatch=True``, else ``(None, None)`` (full-batch)."""
        if not self.minibatch:
            return None, None
        return self.fanouts, self.batch_size

    def _fit_and_predict(
        self,
        model,
        features,
        adjacency,
        labels: np.ndarray,
        train_mask: np.ndarray,
        val_mask: np.ndarray,
        rng: np.random.Generator,
        extra_loss=None,
    ):
        """Train a plain supervised baseline and score every node.

        Trains through :func:`~repro.training.fit_minibatch`, sampled or
        full-batch per :meth:`_sampling_config`, and scores with exact
        inference in the same mode.  The arrays may describe a modified
        graph (KSMOTE's oversampled one).  ``extra_loss`` is
        ``(logits, nodes) -> Tensor``, as in ``fit_minibatch``.  Returns
        ``(history, logits)``.
        """
        fanouts, batch_size = self._sampling_config()
        history = fit_minibatch(
            model,
            features,
            adjacency,
            labels,
            train_mask,
            val_mask,
            epochs=self.epochs,
            fanouts=fanouts,
            batch_size=batch_size,
            lr=self.lr,
            patience=self.patience,
            rng=rng,
            extra_loss=extra_loss,
        )
        logits = predict_logits_batched(
            model, features, adjacency, batch_size=batch_size
        )
        self.model_ = model
        return history, logits
