"""RemoveR — drop the candidate related attributes, then train vanilla.

The pre-processing baseline of Section V-A-3: all features suspected of
proxying the sensitive attribute are deleted before training.  Which columns
count as "candidate related" is supplied by ``graph.related_feature_indices``
(the synthetic generators expose the ground-truth proxy columns; on real
data a practitioner would provide the list, as in the FairRF setting).
"""

from __future__ import annotations

import numpy as np

from repro.baselines.base import BaselineMethod
from repro.graph import Graph
from repro.gnnzoo import make_backbone
from repro.tensor import Tensor

__all__ = ["RemoveR"]


class RemoveR(BaselineMethod):
    """Pre-processing baseline: train on the graph minus proxy columns.

    ``minibatch=True`` trains on the reduced graph with neighbour-sampled
    batches (:func:`repro.training.fit_minibatch`) — column removal is a
    pre-processing step, so it composes with sampled training exactly like
    Vanilla; evaluation uses exact batched inference.
    """

    name = "RemoveR"

    def _train_logits(self, graph: Graph, rng: np.random.Generator):
        if graph.related_feature_indices.size == 0:
            raise ValueError(
                "RemoveR needs graph.related_feature_indices (candidate proxy "
                "columns) to know what to remove"
            )
        if graph.related_feature_indices.size >= graph.num_features:
            raise ValueError("cannot remove every feature column")
        reduced = graph.without_columns(graph.related_feature_indices)
        model = make_backbone(
            self.backbone, reduced.num_features, self.hidden_dim, rng,
            num_layers=self.num_layers,
        )
        _, logits = self._fit_and_predict(
            model, Tensor(reduced.features), reduced.adjacency, reduced.labels,
            reduced.train_mask, reduced.val_mask, rng,
        )
        self.feature_columns_ = np.setdiff1d(
            np.arange(graph.num_features), graph.related_feature_indices
        ).astype(np.int64)
        return logits, {"removed_columns": int(graph.related_feature_indices.size)}
