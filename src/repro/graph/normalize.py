"""Adjacency normalisation used by the GNN backbones.

``gcn_normalize`` implements the symmetric renormalisation trick of Kipf &
Welling: ``Â = D̃^{-1/2} (A + I) D̃^{-1/2}``.  ``row_normalize`` gives the
mean aggregator ``D^{-1} A`` used by GraphSAGE, and GIN uses the raw ``A``
(sum aggregation) — all consumers receive CSR matrices ready for
:func:`repro.tensor.spmm`.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["add_self_loops", "gcn_normalize", "row_normalize", "to_symmetric"]


def add_self_loops(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Return ``A + I`` (existing diagonal entries are overwritten to 1).

    Duplicate entries are summed first and off-diagonal explicit zeros
    are kept; the result has sorted indices and the input is not modified.
    Built in one vectorised COO pass: drop the diagonal, append
    ``(i, i, 1)``, convert.
    """
    matrix = sp.csr_matrix(adjacency, copy=True)
    matrix.sum_duplicates()
    entries = matrix.tocoo(copy=False)
    off = entries.row != entries.col
    diagonal = np.arange(min(matrix.shape), dtype=entries.row.dtype)
    looped = sp.csr_matrix(
        (
            np.concatenate([entries.data[off], np.ones(diagonal.size, matrix.dtype)]),
            (
                np.concatenate([entries.row[off], diagonal]),
                np.concatenate([entries.col[off], diagonal]),
            ),
        ),
        shape=matrix.shape,
    )
    looped.sort_indices()
    return looped


def gcn_normalize(adjacency: sp.spmatrix, add_loops: bool = True) -> sp.csr_matrix:
    """Symmetric GCN normalisation ``D̃^{-1/2} (A + I) D̃^{-1/2}``."""
    matrix = add_self_loops(adjacency) if add_loops else sp.csr_matrix(adjacency)
    degrees = np.asarray(matrix.sum(axis=1)).reshape(-1)
    inv_sqrt = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv_sqrt[nonzero] = 1.0 / np.sqrt(degrees[nonzero])
    scale = sp.diags(inv_sqrt)
    return (scale @ matrix @ scale).tocsr()


def row_normalize(adjacency: sp.spmatrix, add_loops: bool = False) -> sp.csr_matrix:
    """Row-stochastic normalisation ``D^{-1} A`` (mean aggregation)."""
    matrix = add_self_loops(adjacency) if add_loops else sp.csr_matrix(adjacency)
    degrees = np.asarray(matrix.sum(axis=1)).reshape(-1)
    inv = np.zeros_like(degrees)
    nonzero = degrees > 0
    inv[nonzero] = 1.0 / degrees[nonzero]
    return (sp.diags(inv) @ matrix).tocsr()


def to_symmetric(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """Symmetrise: keep an edge if it exists in either direction, binary."""
    matrix = sp.csr_matrix(adjacency)
    symmetric = matrix.maximum(matrix.T)
    symmetric.data = np.ones_like(symmetric.data)
    return symmetric.tocsr()
