"""NIFTY — unified fair and stable representation learning (oracle).

Agarwal, Lakkaraju & Zitnik (UAI 2021): augment each node with

* a **counterfactual view** — flip the sensitive attribute column, and
* a **noisy/stability view** — feature noise plus random edge dropping,

then maximise the agreement (cosine similarity) between the anchor
representation and both views alongside the classification loss.  This is
the style of method the paper critiques for producing *non-realistic*
counterfactuals (a flipped sensitive bit with all proxies unchanged) — kept
here as the classic sensitive-attribute-using reference point.

Because the benchmark graphs exclude the sensitive attribute from ``X`` by
construction, this oracle appends it as an extra feature column first.
Training runs full-batch on the shared engine; the two extra views are
built inside the loss closure.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.baselines.base import BaselineMethod
from repro.graph import Graph
from repro.graph.utils import adjacency_from_edges, edges_from_adjacency
from repro.gnnzoo import make_backbone
from repro.nn import binary_cross_entropy_with_logits
from repro.tensor import Tensor
from repro.tensor import ops
from repro.training import MinibatchEngine, TrainStep

__all__ = ["NIFTY"]


def _cosine_disagreement(a, b):
    """Mean ``1 − cos(a_i, b_i)`` over rows (differentiable)."""
    dot = ops.sum(ops.mul(a, b), axis=1)
    norm_a = ops.sqrt(ops.add(ops.sum(ops.power(a, 2.0), axis=1), 1e-12))
    norm_b = ops.sqrt(ops.add(ops.sum(ops.power(b, 2.0), axis=1), 1e-12))
    cosine = ops.div(dot, ops.mul(norm_a, norm_b))
    return ops.mean(ops.sub(1.0, cosine))


class NIFTY(BaselineMethod):
    """Counterfactual + stability regularisation using the true sensitive attr.

    Parameters
    ----------
    sim_weight:
        Weight of the two agreement terms.
    edge_drop_rate:
        Fraction of edges removed in the stability view.
    noise_scale:
        Std of the feature noise in the stability view.
    """

    name = "NIFTY (oracle)"
    supports_minibatch = False

    def __init__(
        self,
        sim_weight: float = 0.5,
        edge_drop_rate: float = 0.1,
        noise_scale: float = 0.1,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if not 0.0 <= edge_drop_rate < 1.0:
            raise ValueError(f"edge_drop_rate must be in [0, 1), got {edge_drop_rate}")
        if sim_weight < 0 or noise_scale < 0:
            raise ValueError("sim_weight and noise_scale must be non-negative")
        self.sim_weight = sim_weight
        self.edge_drop_rate = edge_drop_rate
        self.noise_scale = noise_scale

    # ------------------------------------------------------------------ #
    def _train_logits(self, graph: Graph, rng: np.random.Generator):
        # Oracle access: the sensitive attribute becomes a feature column.
        sens_column = graph.sensitive.astype(np.float64).reshape(-1, 1)
        base = np.hstack([graph.features, sens_column])
        counterfactual = base.copy()
        counterfactual[:, -1] = 1.0 - counterfactual[:, -1]

        model = make_backbone(
            self.backbone, base.shape[1], self.hidden_dim, rng,
            num_layers=self.num_layers,
        )
        cf_view = Tensor(counterfactual)
        engine = MinibatchEngine(
            model, base, graph.adjacency, batch_size=None, lr=self.lr
        )
        val_idx = np.where(graph.val_mask)[0]

        def loss_fn(step: TrainStep) -> Tensor:
            h_anchor = step.output
            logits = model.head(h_anchor).reshape(-1)
            loss = binary_cross_entropy_with_logits(
                logits[step.batch], graph.labels[step.batch].astype(np.float64)
            )
            h_cf = model.embed(cf_view, graph.adjacency)
            noisy = Tensor(
                base + rng.normal(scale=self.noise_scale, size=base.shape)
            )
            dropped = self._drop_edges(graph.adjacency, rng)
            h_noisy = model.embed(noisy, dropped)
            agreement = ops.add(
                _cosine_disagreement(h_anchor, h_cf),
                _cosine_disagreement(h_anchor, h_noisy),
            )
            return ops.add(loss, ops.mul(agreement, self.sim_weight))

        engine.run(
            np.where(graph.train_mask)[0],
            self.epochs,
            loss_fn,
            val_nodes=val_idx,
            val_labels=graph.labels[val_idx],
            patience=self.patience,
            forward="embed",
        )
        return engine.predict(), {"uses_sensitive": True}

    def _drop_edges(
        self, adjacency: sp.csr_matrix, rng: np.random.Generator
    ) -> sp.csr_matrix:
        """Randomly remove a fraction of undirected edges."""
        if self.edge_drop_rate == 0.0:
            return adjacency
        edges = edges_from_adjacency(adjacency)
        keep = rng.random(len(edges)) >= self.edge_drop_rate
        return adjacency_from_edges(edges[keep], adjacency.shape[0])
