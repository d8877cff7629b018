"""FairRF — fairness via related features (Zhao et al., WSDM 2022).

The method assumes a set of *related features* — non-sensitive columns known
to correlate with the hidden sensitive attribute — and minimises the squared
Pearson correlation between the model's predicted probability and each
related feature.  Per-feature weights live on a simplex and are re-solved in
closed form each epoch, emphasising the currently most-correlated features
(the same machinery as Fairwos's λ update, with the "prefer high" sign).

The related features come from ``graph.related_feature_indices``.  Each
step computes the weighted penalty over all of them as one autograd node
(:func:`_correlation_penalty`), which also yields the per-feature ``corr²``
the full-batch weight update reads.

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


def _correlation_penalty(
    probs: Tensor, columns: np.ndarray, weights: np.ndarray
) -> tuple[Tensor, np.ndarray]:
    """FairRF's penalty ``Σ_j w_j · corr(p, x_j)²`` over all R columns as one node.

    ``probs`` is the batch's ``(B,)`` prediction tensor, ``columns`` its
    ``(B, R)`` related-feature rows and ``weights`` the ``(R,)`` feature
    weights.  Returns the penalty, a scalar in ``probs``' dtype, and the
    per-column ``corr²`` as float64, 0 for a column that is constant over
    the batch.  Such a column is skipped; if every column is, the penalty
    is a constant zero.

    With ``c`` the centred predictions, ``x_j`` the centred columns and
    ``v = c·c + 1e-12`` (the per-column chain's variance guard),
    ``corr_j = c·x_j / (√v ‖x_j‖)``: one product gives every covariance.
    The adjoint is ``X·a − (2P / v)·c`` with ``a_j = 2 w_j corr_j / (√v ‖x_j‖)``;
    it already sums to zero, so the centring of ``p`` adds nothing to it.
    The one difference from composing the chain column by column is
    summation order, so value and gradient match it to rounding
    (``tests/oracles.py::correlation_penalty_reference``), not bit for bit.
    """
    dtype = probs.data.dtype
    squares = np.zeros(columns.shape[1])
    centred_columns = columns - columns.mean(axis=0)
    column_norms = np.sqrt((centred_columns**2).sum(axis=0))
    varying = column_norms != 0
    if not varying.any():
        return Tensor._wrap(np.zeros((), dtype=dtype)), squares
    x = centred_columns[:, varying].astype(dtype, copy=False)
    w = np.asarray(weights, dtype=dtype)[varying]
    centred = probs.data - probs.data.mean()
    var = centred @ centred + dtype.type(1e-12)
    scale = np.sqrt(var) * column_norms[varying].astype(dtype, copy=False)
    corr = (centred @ x) / scale
    corr_sq = corr * corr
    value = corr_sq @ w
    squares[varying] = corr_sq

    def backward(grad):
        return (grad * (x @ (2.0 * w * corr / scale) - (2.0 * value / var) * centred),)

    return Tensor.from_op(value, (probs,), backward), squares


class FairRF(BaselineMethod):
    """Correlation-to-related-features regularisation with learned weights.

    Parameters
    ----------
    beta:
        Regularisation strength on the weighted correlation term.
    """

    name = "FairRF"

    def __init__(self, beta: float = 1.0, **kwargs) -> None:
        super().__init__(**kwargs)
        if beta < 0:
            raise ValueError(f"beta must be non-negative, got {beta}")
        self.beta = beta

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
        column_matrix = np.stack([graph.features[:, j] for j in related], axis=1)
        updater = WeightUpdater(
            related.size, alpha=self.beta, prefer_high_disparity=True
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
        moments = StreamingCorrelation(related.size)
        correlations = np.zeros(related.size)

        def on_epoch_start(epoch: int) -> None:
            nonlocal moments
            moments = StreamingCorrelation(related.size)

        def loss_fn(step: TrainStep) -> Tensor:
            nonlocal correlations
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
            # The full-batch step's batch is every node in order.
            columns = column_matrix if batch_size is None else column_matrix[batch]
            penalty, correlations = _correlation_penalty(
                probs, columns, updater.weights
            )
            loss = ops.add(loss, ops.mul(penalty, self.beta))
            if batch_size is not None:
                moments.update(probs.data, columns)
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
        self.model_ = model
        return engine.predict(), {
            "related_features": int(related.size),
            "final_weights": updater.weights.copy(),
        }
