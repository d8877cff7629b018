"""Build graphs from tabular data via feature-similarity kNN.

The paper's semi-synthetic benchmarks were constructed exactly this way:
Bail "connects defendants based on similarity of past criminal records and
demographics", Credit "connects clients with similar spending and payment
patterns".  This module provides that constructor for user-supplied tables,
so the library can be applied to plain tabular fairness problems: build the
similarity graph, hide the sensitive column, run Fairwos.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.datasets.splits import random_split_masks
from repro.graph import Graph

__all__ = ["knn_adjacency", "graph_from_table"]


def knn_adjacency(
    features: np.ndarray, num_neighbors: int, metric: str = "euclidean"
) -> sp.csr_matrix:
    """Symmetric kNN graph over feature rows.

    An undirected edge joins ``u`` and ``v`` when either is among the
    other's ``num_neighbors`` nearest rows (union symmetrisation), so every
    node has degree ≥ ``num_neighbors``.

    Parameters
    ----------
    features:
        ``(N, F)`` matrix.
    num_neighbors:
        Neighbours per node (k).
    metric:
        "euclidean" or "cosine".
    """
    features = np.asarray(features, dtype=np.float64)
    n = features.shape[0]
    if not 1 <= num_neighbors < n:
        raise ValueError(f"num_neighbors must be in [1, {n - 1}], got {num_neighbors}")
    if metric == "euclidean":
        norms = (features**2).sum(axis=1)
        distances = norms[:, None] + norms[None, :] - 2.0 * features @ features.T
    elif metric == "cosine":
        row_norms = np.sqrt((features**2).sum(axis=1, keepdims=True))
        row_norms[row_norms == 0] = 1.0
        unit = features / row_norms
        distances = 1.0 - unit @ unit.T
    else:
        raise ValueError(f"metric must be 'euclidean' or 'cosine', got {metric!r}")
    np.fill_diagonal(distances, np.inf)
    neighbor_ids = np.argpartition(distances, num_neighbors - 1, axis=1)[
        :, :num_neighbors
    ]
    rows = np.repeat(np.arange(n), num_neighbors)
    cols = neighbor_ids.reshape(-1)
    data = np.ones(rows.size)
    directed = sp.csr_matrix((data, (rows, cols)), shape=(n, n))
    symmetric = directed.maximum(directed.T)
    symmetric.setdiag(0)
    symmetric.eliminate_zeros()
    symmetric.data = np.ones_like(symmetric.data)
    return symmetric.tocsr()


def graph_from_table(
    features: np.ndarray,
    labels: np.ndarray,
    sensitive: np.ndarray,
    num_neighbors: int = 10,
    metric: str = "euclidean",
    sensitive_column: int | None = None,
    related_feature_indices: np.ndarray | None = None,
    seed: int = 0,
    name: str = "tabular",
) -> Graph:
    """Turn a fairness-annotated table into a :class:`~repro.graph.Graph`.

    Parameters
    ----------
    features:
        ``(N, F)`` table.  If ``sensitive_column`` is given, that column is
        **removed** from the features (the paper's ``S ∉ F`` requirement) —
        but note the kNN construction still uses the remaining columns only.
    labels, sensitive:
        ``(N,)`` binary outcome and protected-group arrays.
    num_neighbors, metric:
        kNN-graph parameters (Bail/Credit use similarity graphs like this).
    related_feature_indices:
        Optional candidate-proxy columns (indices *after* sensitive-column
        removal) for the RemoveR / FairRF baselines.
    seed:
        Seed of the paper's random 50/25/25 split; a table of fewer than 4
        rows leaves a split empty and raises ``ValueError``.
    """
    features = np.asarray(features, dtype=np.float64)
    if sensitive_column is not None:
        keep = np.setdiff1d(np.arange(features.shape[1]), [sensitive_column])
        features = features[:, keep]
    adjacency = knn_adjacency(features, num_neighbors, metric)
    rng = np.random.default_rng(seed)
    train_mask, val_mask, test_mask = random_split_masks(features.shape[0], rng)
    return Graph(
        adjacency=adjacency,
        features=features,
        labels=np.asarray(labels),
        sensitive=np.asarray(sensitive),
        train_mask=train_mask,
        val_mask=val_mask,
        test_mask=test_mask,
        related_feature_indices=(
            related_feature_indices
            if related_feature_indices is not None
            else np.array([], dtype=np.int64)
        ),
        name=name,
        meta={"construction": f"knn(k={num_neighbors}, metric={metric})"},
    )
