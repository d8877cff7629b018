"""FairRF — fairness via related features (Zhao et al., WSDM 2022).

The method assumes a set of *related features* — non-sensitive columns known
to correlate with the hidden sensitive attribute — and minimises the squared
Pearson correlation between the model's predicted probability and each
related feature.  Per-feature weights live on a simplex and are re-solved in
closed form each epoch, emphasising the currently most-correlated features
(the same machinery as Fairwos's λ update, with the "prefer high" sign).

The related features come from ``graph.related_feature_indices``.

Training runs on the shared :class:`~repro.training.MinibatchEngine`:
full-batch by default, or with ``minibatch=True`` on neighbour-sampled
batches drawn over *all* nodes (cross-entropy on the batch's labelled
members, correlations on the whole batch).  The sampled per-epoch
feature-weight update uses a streaming running-moment (Welford/Chan)
estimator pooled across the epoch's batches
(:class:`~repro.analysis.StreamingCorrelation`) rather than the mean of
per-batch squared correlations — the latter is biased upward at small
batches (``E[corr²_batch] > corr²_full``), which made the weight update
chase sampling noise.  A single covering batch with exhaustive fanout
computes exactly the full-batch objective, which the differential tests pin
to float precision; genuinely sampled runs stay within the usual two points
of the full-batch metrics.
"""

from __future__ import annotations

import numpy as np

from repro.analysis import StreamingCorrelation
from repro.baselines.base import BaselineMethod
from repro.core.weights import WeightUpdater
from repro.graph import Graph
from repro.gnnzoo import make_backbone
from repro.nn import binary_cross_entropy_with_logits
from repro.tensor import Tensor
from repro.tensor import ops
from repro.training import MinibatchEngine, TrainStep

__all__ = ["FairRF"]


def _differentiable_correlation(prediction, feature_column: np.ndarray):
    """Squared Pearson correlation between a prediction tensor and a column."""
    column = feature_column - feature_column.mean()
    denom_col = float(np.sqrt((column**2).sum()))
    if denom_col == 0:
        return None
    centered = ops.sub(prediction, ops.mean(prediction))
    cov = ops.sum(ops.mul(centered, Tensor(column)))
    var = ops.add(ops.sum(ops.power(centered, 2.0)), 1e-12)
    corr = ops.div(cov, ops.mul(ops.sqrt(var), denom_col))
    return ops.power(corr, 2.0)


class FairRF(BaselineMethod):
    """Correlation-to-related-features regularisation with learned weights.

    Parameters
    ----------
    beta:
        Regularisation strength on the weighted correlation term.
    minibatch, fanouts, batch_size:
        Neighbour-sampled training (see the module docstring).
    """

    name = "FairRF"

    def __init__(
        self,
        beta: float = 1.0,
        minibatch: bool = False,
        fanouts: tuple[int, ...] | None = None,
        batch_size: int = 512,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if beta < 0:
            raise ValueError(f"beta must be non-negative, got {beta}")
        self.beta = beta
        self.minibatch = minibatch
        self.fanouts = fanouts
        self.batch_size = batch_size

    def _train_logits(self, graph: Graph, rng: np.random.Generator):
        related = graph.related_feature_indices
        if related.size == 0:
            raise ValueError(
                "FairRF needs graph.related_feature_indices (candidate "
                "related features)"
            )
        model = make_backbone(
            self.backbone, graph.num_features, self.hidden_dim, rng,
            num_layers=self.num_layers,
        )
        columns = [graph.features[:, j].copy() for j in related]
        updater = WeightUpdater(
            len(columns), alpha=self.beta, prefer_high_disparity=True
        )
        fanouts, batch_size = self._sampling_config()
        engine = MinibatchEngine(
            model,
            graph.features,
            graph.adjacency,
            fanouts=fanouts,
            batch_size=batch_size,
            lr=self.lr,
        )
        train_mask = np.asarray(graph.train_mask, dtype=bool)
        val_indices = np.where(graph.val_mask)[0]
        column_matrix = np.stack(columns, axis=1)
        moments = StreamingCorrelation(len(columns))
        correlations = np.zeros(len(columns))

        def on_epoch_start(epoch: int) -> None:
            nonlocal moments, correlations
            moments = StreamingCorrelation(len(columns))
            correlations = np.zeros(len(columns))

        def loss_fn(step: TrainStep) -> Tensor:
            batch, logits = step.batch, step.output
            batch_train = train_mask[batch]
            if batch_train.any():
                loss = binary_cross_entropy_with_logits(
                    logits[batch_train],
                    graph.labels[batch[batch_train]].astype(np.float64),
                )
            else:
                loss = Tensor(np.zeros(()))
            probs = ops.sigmoid(logits)
            reg = None
            for j, column in enumerate(columns):
                corr_sq = _differentiable_correlation(probs, column[batch])
                if corr_sq is None:
                    continue
                correlations[j] = float(corr_sq.data)
                term = ops.mul(corr_sq, float(updater.weights[j]))
                reg = term if reg is None else ops.add(reg, term)
            if reg is not None:
                loss = ops.add(loss, ops.mul(reg, self.beta))
            if batch_size is not None:
                moments.update(probs.data, column_matrix[batch])
            return loss

        def on_epoch_end(epoch: int) -> None:
            # The full-batch step's correlations are the epoch's; sampled
            # epochs pool running moments over their batches instead.
            updater.update(
                correlations
                if batch_size is None
                else moments.squared_correlations()
            )

        engine.run(
            np.arange(graph.num_nodes, dtype=np.int64),
            self.epochs,
            loss_fn,
            rng,
            val_nodes=val_indices,
            val_labels=graph.labels[val_indices],
            checkpoint="best",
            patience=self.patience,
            # Sorted batches give a deterministic within-batch summation
            # order (epoch randomness lives in the batch composition), so
            # a covering batch reproduces the full-batch epoch exactly.
            sort_batches=True,
            on_epoch_start=on_epoch_start,
            on_epoch_end=on_epoch_end,
        )
        return engine.predict(), {
            "related_features": int(related.size),
            "final_weights": updater.weights.copy(),
        }
