"""The paper's full-batch training recipe, run on the shared engine.

Implements the paper's shared recipe: Adam (lr 0.001), full-batch epochs,
best-model selection by validation accuracy with optional early stopping
("we use early stop operation to preserve competitive utility performance").
:func:`fit_binary_classifier` is :func:`~repro.training.minibatch.fit_minibatch`
with ``batch_size=None``: one full-graph step per epoch on
:class:`~repro.training.engine.MinibatchEngine`, the loop every other fit
uses too.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.nn.module import Module
from repro.tensor import Tensor, no_grad
from repro.training.engine import FitHistory
from repro.training.minibatch import fit_minibatch

__all__ = ["FitHistory", "fit_binary_classifier", "predict_logits"]


def predict_logits(model: Module, features: Tensor, adjacency: sp.spmatrix) -> np.ndarray:
    """Inference-mode logits as a numpy array."""
    was_training = model.training
    model.eval()
    with no_grad():
        logits = model(features, adjacency).data.copy()
    model.train(was_training)
    return logits


def fit_binary_classifier(
    model: Module,
    features: Tensor,
    adjacency: sp.spmatrix,
    labels: np.ndarray,
    train_mask: np.ndarray,
    val_mask: np.ndarray,
    epochs: int,
    lr: float = 1e-3,
    weight_decay: float = 0.0,
    patience: int | None = None,
    extra_loss=None,
) -> FitHistory:
    """Train ``model`` full-batch and restore its best-validation weights.

    Parameters
    ----------
    model:
        Any module with signature ``model(features, adjacency) -> logits``.
    features, adjacency, labels:
        Full-graph inputs; ``labels`` are 0/1 integers.
    train_mask, val_mask:
        Boolean node masks; loss is computed on train, selection on val.
    epochs:
        Maximum epoch count.
    lr, weight_decay:
        Adam hyper-parameters (paper defaults: 0.001, 0).
    patience:
        Stop after this many epochs without a validation improvement
        (None disables early stopping).
    extra_loss:
        Optional callable ``(logits, nodes) -> Tensor`` added to the BCE
        objective — the hook baselines use for their fairness regularisers.
        Here ``logits`` covers every node and ``nodes`` is ``arange(N)``.
    """
    return fit_minibatch(
        model,
        features,
        adjacency,
        labels,
        train_mask,
        val_mask,
        epochs,
        batch_size=None,
        lr=lr,
        weight_decay=weight_decay,
        patience=patience,
        extra_loss=extra_loss,
    )
