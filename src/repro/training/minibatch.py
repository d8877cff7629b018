"""Supervised node classification on the shared engine, sampled or full-batch.

:func:`fit_minibatch` is the plain supervised instantiation of
:class:`repro.training.engine.MinibatchEngine`: BCE on the training nodes
plus an optional extra loss, best-validation checkpointing with optional
early stopping, and a :class:`~repro.training.engine.FitHistory` record.
With an integer ``batch_size`` each epoch runs GraphSAGE-style sampled
minibatches: every step touches only the fanout-bounded computation graph
of one seed batch, so peak memory is independent of the number of nodes —
no dense ``(N, N)`` operator and no full-graph ``(N, hidden)`` activation
is ever materialised during training.  ``batch_size=None`` is the paper's
full-batch recipe (one full-graph step per epoch), which
:func:`~repro.training.loop.fit_binary_classifier` names.  Every sampled
epoch draws fresh blocks, so training holds one batch's structure at a
time.

:func:`predict_logits_batched` is the matching memory-bounded inference path:
it folds the *full* (un-sampled) L-hop neighbourhood of each batch, so its
outputs equal :func:`~repro.training.loop.predict_logits` exactly while only
holding one batch's computation graph at a time.
"""

from __future__ import annotations

from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.nn import binary_cross_entropy_with_logits
from repro.nn.module import Module
from repro.training.engine import (
    DEFAULT_FANOUT,
    FitHistory,
    MinibatchEngine,
    TrainStep,
    embed_batched,
    iter_minibatches,
    predict_logits_batched,
)

__all__ = [
    "DEFAULT_FANOUT",
    "embed_batched",
    "fit_minibatch",
    "predict_logits_batched",
    "iter_minibatches",
]


def fit_minibatch(
    model: Module,
    features,
    adjacency: sp.spmatrix,
    labels: np.ndarray,
    train_mask: np.ndarray,
    val_mask: np.ndarray,
    epochs: int,
    fanouts: Sequence[int | None] | None = None,
    batch_size: int | None = 512,
    lr: float = 1e-3,
    weight_decay: float = 0.0,
    patience: int | None = None,
    rng: np.random.Generator | int | None = None,
    extra_loss=None,
) -> FitHistory:
    """Train ``model`` on the engine; restore its best-validation weights.

    BCE-with-logits on the train nodes, per-epoch validation accuracy,
    best-model checkpointing and optional early stopping; an epoch is
    ``ceil(|train| / batch_size)`` sampled steps, or one full-graph step
    with ``batch_size=None``.

    Parameters
    ----------
    model:
        A :class:`~repro.gnnzoo.base.GNNBackbone` (any ``model(features,
        adjacency)`` module full-batch; block-capable when sampled).
    features:
        ``(N, F)`` numpy array or Tensor; rows are gathered per batch.
    adjacency, labels:
        Full-graph CSR adjacency and 0/1 integer labels.
    train_mask, val_mask:
        Boolean node masks; loss is computed on train, selection on val.
    epochs:
        Maximum epoch count.
    fanouts:
        Per-layer neighbour fanouts, input layer first (default:
        ``DEFAULT_FANOUT`` per layer).  Entries may be ``None`` to keep
        full neighbourhoods.
    batch_size:
        Seed nodes per training step and per exact validation batch;
        ``None`` trains full-batch (``fanouts`` is then unused).
    lr, weight_decay:
        Adam hyper-parameters (paper defaults: 0.001, 0).
    patience:
        Stop after this many epochs without a validation improvement
        (None disables early stopping).
    rng:
        Generator (or seed) driving shuffling and neighbour sampling.
    extra_loss:
        Optional callable ``(logits, nodes) -> Tensor`` added to the BCE
        objective, where ``logits[i]`` belongs to node ``nodes[i]``: the
        step's batch when sampled, every node in full-batch mode.
    """
    labels = np.asarray(labels)
    train_mask = np.asarray(train_mask, dtype=bool)
    val_mask = np.asarray(val_mask, dtype=bool)
    if not train_mask.any() or not val_mask.any():
        raise ValueError("train and validation masks must be non-empty")

    engine = MinibatchEngine(
        model,
        features,
        adjacency,
        fanouts=fanouts,
        batch_size=batch_size,
        lr=lr,
        weight_decay=weight_decay,
    )
    val_indices = np.where(val_mask)[0]

    def loss_fn(step: TrainStep):
        # A sampled step scores exactly its batch; the full-batch step
        # scores every node, so the batch's rows are gathered.
        logits = step.output
        if step.seeds is not step.batch:
            logits = logits[step.local_index(step.batch)]
        loss = binary_cross_entropy_with_logits(
            logits, labels[step.batch].astype(np.float64)
        )
        if extra_loss is not None:
            loss = loss + extra_loss(step.output, step.seeds)
        return loss

    return engine.run(
        np.where(train_mask)[0],
        epochs,
        loss_fn,
        rng,
        val_nodes=val_indices,
        val_labels=labels[val_indices],
        checkpoint="best",
        patience=patience,
    )
