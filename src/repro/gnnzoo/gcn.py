"""Graph Convolutional Network (Kipf & Welling, 2017)."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.normalize import gcn_normalize
from repro.graph.sampling import Block, block_gcn_matrix
from repro.gnnzoo.base import GNNBackbone
from repro.nn import Dropout, Linear, ModuleList
from repro.tensor import Tensor
from repro.tensor import ops

__all__ = ["GCN"]


class GCN(GNNBackbone):
    """Stack of GCN layers: ``H^{l+1} = ReLU(Â H^l W^l)``.

    ``Â`` is the symmetrically normalised adjacency with self-loops; the
    paper's configuration is one layer with 16 hidden units.
    """

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        num_layers: int = 1,
        dropout: float = 0.0,
    ) -> None:
        super().__init__(hidden_dim, rng)
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        dims = [in_dim] + [hidden_dim] * num_layers
        self.num_layers = num_layers
        self.layers = ModuleList(
            [Linear(dims[i], dims[i + 1], rng) for i in range(num_layers)]
        )
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None

    def _propagation_matrix(self, adjacency: sp.spmatrix) -> sp.csr_matrix:
        return gcn_normalize(adjacency)

    def embed(self, features: Tensor, adjacency: sp.spmatrix) -> Tensor:
        a_hat = self._cached_propagation(adjacency)
        h = features
        for layer in self.layers:
            if self.dropout is not None:
                h = self.dropout(h)
            h = ops.relu(layer(self._propagate(a_hat, h)))
        return h

    def embed_blocks(self, features: Tensor, blocks: list[Block]) -> Tensor:
        self._check_blocks(features, blocks)
        h = features
        for layer, block in zip(self.layers, blocks):
            if self.dropout is not None:
                h = self.dropout(h)
            h = ops.relu(layer(ops.spmm(block_gcn_matrix(block), h)))
        return h
