"""Vanilla\\S — the plain backbone trained without sensitive attributes."""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineMethod
from repro.graph import Graph
from repro.gnnzoo import make_backbone
from repro.tensor import Tensor

__all__ = ["Vanilla"]


class Vanilla(BaselineMethod):
    """Backbone GNN with plain cross-entropy training (no fairness).

    ``minibatch=True`` trains with neighbour-sampled batches
    (:func:`repro.training.fit_minibatch`), which is the recommended path on
    graphs beyond a few thousand nodes; evaluation then uses exact batched
    inference, so the reported metrics are sampling-free.
    """

    name = "Vanilla\\S"

    def _train_logits(self, graph: Graph, rng: np.random.Generator):
        model = make_backbone(
            self.backbone, graph.num_features, self.hidden_dim, rng,
            num_layers=self.num_layers,
        )
        history, logits = self._fit_and_predict(
            model, Tensor(graph.features), graph.adjacency, graph.labels,
            graph.train_mask, graph.val_mask, rng,
        )
        return logits, {"best_epoch": history.best_epoch}
