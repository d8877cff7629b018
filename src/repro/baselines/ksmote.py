"""KSMOTE — fair class balancing with clustered pseudo-groups.

Re-implementation of Yan, Kao & Ferrara, "Fair Class Balancing: Enhancing
Model Fairness without Observing Sensitive Attributes" (CIKM 2020), applied
to a GNN backbone as the paper does:

1. k-means clusters the node features into pseudo-groups (stand-ins for the
   unobserved demographic groups);
2. inside each pseudo-group the minority class is oversampled SMOTE-style —
   synthetic nodes interpolate two same-class, same-cluster parents and are
   wired to a parent's neighbours, so training sees balanced classes in
   every pseudo-group;
3. optionally a pseudo-group statistical-parity regulariser penalises
   differences in mean predicted probability across clusters.

Evaluation uses the original nodes only; synthetic nodes are appended after
them and never enter any mask.

``minibatch=True`` is the large-graph formulation: the cluster step runs
:func:`~repro.analysis.minibatch_kmeans` (sampled centroid updates — no
``(N, k)`` distance matrix), training runs neighbour-sampled through
:func:`~repro.training.fit_minibatch` on the oversampled graph, and the
parity regulariser is evaluated per batch (mean predicted probability of the
batch's cluster members vs the batch mean — a sampled estimate of the
full-graph penalty).  A covering batch with exhaustive fanout and
``parity_weight=0`` reproduces the full-batch result to float precision
(the cluster step delegates to exact k-means when the batch covers the
data); the differential tests pin both contracts.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.analysis import kmeans, minibatch_kmeans
from repro.baselines.base import BaselineMethod
from repro.graph import Graph
from repro.gnnzoo import make_backbone
from repro.tensor import Tensor
from repro.tensor import ops

__all__ = ["KSMOTE"]


class KSMOTE(BaselineMethod):
    """k-means pseudo-groups + SMOTE balancing + parity regulariser.

    Parameters
    ----------
    num_clusters:
        Number of pseudo-groups k.
    parity_weight:
        Strength of the pseudo-group parity regulariser (0 disables it).
    oversample:
        Whether to add SMOTE-interpolated synthetic minority nodes.
    max_synthetic_fraction:
        Cap on synthetic nodes as a fraction of N (guards degenerate
        clusterings from exploding the graph).
    kmeans_batch_size:
        Batch size of the sampled cluster step (``None`` follows
        ``batch_size``).  Cluster fidelity and training memory are separate
        budgets: a larger k-means batch sharpens the pseudo-groups at
        O(batch · k · F) cost per iteration without touching the training
        engine's receptive field.
    """

    name = "KSMOTE"

    def __init__(
        self,
        num_clusters: int = 4,
        parity_weight: float = 1.0,
        oversample: bool = True,
        max_synthetic_fraction: float = 0.5,
        kmeans_batch_size: int | None = None,
        **kwargs,
    ) -> None:
        super().__init__(**kwargs)
        if num_clusters < 2:
            raise ValueError(f"need at least 2 clusters, got {num_clusters}")
        if kmeans_batch_size is not None and kmeans_batch_size < 1:
            # Reject rather than letting a falsy 0 fall back to batch_size.
            raise ValueError(
                f"kmeans_batch_size must be >= 1 or None, got {kmeans_batch_size}"
            )
        self.num_clusters = num_clusters
        self.parity_weight = parity_weight
        self.oversample = oversample
        self.max_synthetic_fraction = max_synthetic_fraction
        self.kmeans_batch_size = kmeans_batch_size

    # ------------------------------------------------------------------ #
    def _train_logits(self, graph: Graph, rng: np.random.Generator):
        if self.minibatch:
            clusters, _, _ = minibatch_kmeans(
                graph.features,
                self.num_clusters,
                rng,
                batch_size=(
                    self.batch_size
                    if self.kmeans_batch_size is None
                    else self.kmeans_batch_size
                ),
            )
        else:
            clusters, _, _ = kmeans(graph.features, self.num_clusters, rng)
        if self.oversample:
            features, adjacency, labels, train_mask, n_synth = self._balance(
                graph, clusters, rng
            )
        else:
            features, adjacency = graph.features, graph.adjacency
            labels, train_mask, n_synth = graph.labels, graph.train_mask, 0
        num_total = features.shape[0]
        val_mask = np.zeros(num_total, dtype=bool)
        val_mask[: graph.num_nodes] = graph.val_mask

        model = make_backbone(
            self.backbone, graph.num_features, self.hidden_dim, rng,
            num_layers=self.num_layers,
        )
        features_tensor = Tensor(features)
        extra_loss = None
        if self.parity_weight > 0:
            extra_loss = self._parity_regulariser(clusters, graph.num_nodes)
        _, logits = self._fit_and_predict(
            model,
            features_tensor,
            adjacency,
            labels,
            train_mask,
            val_mask,
            rng,
            extra_loss=extra_loss,
        )
        return logits[: graph.num_nodes], {
            "num_clusters": self.num_clusters,
            "synthetic_nodes": int(n_synth),
        }

    # ------------------------------------------------------------------ #
    def _parity_regulariser(self, clusters: np.ndarray, num_real: int):
        """Pseudo-group parity penalty ``(logits, nodes) -> Tensor``.

        Squared deviation of each cluster's mean predicted probability (over
        the cluster's members among ``nodes``) from the mean over ``nodes``.
        The full-batch step passes every node, making this the full-graph
        penalty; a sampled step passes its batch, making it the batch-local
        estimate.  Synthetic nodes (ids >= ``num_real``) carry no cluster
        and are excluded.
        """
        weight = self.parity_weight
        num_clusters = self.num_clusters

        def regulariser(logits, nodes):
            nodes = np.asarray(nodes)
            real = nodes < num_real
            real_count = int(real.sum())
            if real_count == 0:
                return Tensor(np.zeros(()))
            node_clusters = np.where(real, clusters[np.minimum(nodes, num_real - 1)], -1)
            probs = ops.sigmoid(logits)
            overall = np.where(real, 1.0 / real_count, 0.0)
            mean_all = ops.sum(ops.mul(probs, Tensor(overall)))
            penalty = None
            for cluster in range(num_clusters):
                members = node_clusters == cluster
                member_count = int(members.sum())
                if member_count == 0:
                    continue
                mask = np.where(members, 1.0 / member_count, 0.0)
                gap = ops.sub(ops.sum(ops.mul(probs, Tensor(mask))), mean_all)
                term = ops.power(gap, 2.0)
                penalty = term if penalty is None else ops.add(penalty, term)
            if penalty is None:
                return Tensor(np.zeros(()))
            return ops.mul(penalty, weight)

        return regulariser

    # ------------------------------------------------------------------ #
    def _balance(self, graph: Graph, clusters: np.ndarray, rng: np.random.Generator):
        """SMOTE oversampling of minority classes inside each pseudo-group.

        Vectorized per cluster: all of a cluster's synthetic parents and
        interpolation weights are drawn in one batch, so balancing a
        100k-node graph is a handful of numpy calls per pseudo-group.
        """
        synth_features: list[np.ndarray] = []
        synth_labels: list[np.ndarray] = []
        synth_parents: list[np.ndarray] = []
        train = graph.train_mask
        budget = int(self.max_synthetic_fraction * graph.num_nodes)
        drawn = 0

        for cluster in range(self.num_clusters):
            members = np.where((clusters == cluster) & train)[0]
            if members.size < 4:
                continue
            member_labels = graph.labels[members]
            counts = np.bincount(member_labels, minlength=2)
            if counts.min() < 2 or counts[0] == counts[1]:
                continue
            minority = int(counts.argmin())
            pool = members[member_labels == minority]
            deficit = min(int(counts.max() - counts.min()), budget - drawn)
            if deficit <= 0:
                continue
            first = rng.integers(0, pool.size, size=deficit)
            # Offset by a nonzero amount mod pool size: a uniform same-class
            # partner distinct from the first parent (pool.size >= 2 here).
            second = (first + rng.integers(1, pool.size, size=deficit)) % pool.size
            mix = rng.random(size=(deficit, 1))
            parents_a, parents_b = pool[first], pool[second]
            synth_features.append(
                mix * graph.features[parents_a]
                + (1.0 - mix) * graph.features[parents_b]
            )
            synth_labels.append(np.full(deficit, minority, dtype=np.int64))
            synth_parents.append(parents_a.astype(np.int64))
            drawn += deficit

        if drawn == 0:
            return (
                graph.features,
                graph.adjacency,
                graph.labels,
                graph.train_mask,
                0,
            )
        features = np.vstack([graph.features, *synth_features])
        labels = np.concatenate([graph.labels, *synth_labels])
        train_mask = np.concatenate([graph.train_mask, np.ones(drawn, dtype=bool)])
        adjacency = self._extend_adjacency(
            graph.adjacency, np.concatenate(synth_parents)
        )
        return features, adjacency, labels, train_mask, drawn

    @staticmethod
    def _extend_adjacency(
        adjacency: sp.csr_matrix, parents: np.ndarray
    ) -> sp.csr_matrix:
        """Wire each synthetic node to its parent's neighbourhood + parent.

        Fully vectorized over the parent array (one ``np.repeat`` edge
        expansion), so extending a large graph is O(new edges) numpy work.
        """
        parents = np.asarray(parents, dtype=np.int64)
        num_real = adjacency.shape[0]
        num_synth = parents.size
        num_total = num_real + num_synth
        degrees = np.diff(adjacency.indptr)[parents]
        total = int(degrees.sum())
        # Every parent's neighbour list, expanded in one shot.
        row_starts = np.concatenate(([0], np.cumsum(degrees)))[:-1]
        within = np.arange(total) - np.repeat(row_starts, degrees)
        neighbors = adjacency.indices[np.repeat(adjacency.indptr[parents], degrees) + within]
        # Append-only: the (N, N) block is the standing CSR, untouched; only
        # the synthetic rows/columns are materialised as COO.  The previous
        # implementation round-tripped the whole (N+S)² matrix through COO —
        # an O(nnz) re-sort and triple-array allocation per oversampling
        # call that dominated covering-mode setup at the 1M tier.
        synth_ids = np.arange(num_synth, dtype=np.int64)
        synth_of_edge = np.repeat(synth_ids, degrees)
        new_rows = np.concatenate([synth_of_edge, synth_ids])
        new_cols = np.concatenate([neighbors, parents])
        ones = np.ones(new_rows.size)
        bottom = sp.csr_matrix(
            (ones, (new_rows, new_cols)), shape=(num_synth, num_total)
        )
        bottom.sum_duplicates()
        bottom.data = np.ones_like(bottom.data)
        top_right = sp.csr_matrix(
            (ones, (new_cols, new_rows)), shape=(num_real, num_synth)
        )
        top_right.sum_duplicates()
        top_right.data = np.ones_like(top_right.data)
        base = adjacency.tocsr().copy()
        base.sum_duplicates()
        base.data = np.ones_like(base.data)
        out = sp.vstack(
            [sp.hstack([base, top_right], format="csr"), bottom], format="csr"
        )
        out.sort_indices()
        return out
