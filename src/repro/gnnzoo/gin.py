"""Graph Isomorphism Network (Xu et al., 2019)."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.gnnzoo.base import GNNBackbone
from repro.graph.normalize import to_symmetric
from repro.graph.sampling import Block, block_sum_matrix
from repro.nn import MLP, Dropout, ModuleList, Parameter
from repro.tensor import Tensor
from repro.tensor import ops

__all__ = ["GIN"]


class GIN(GNNBackbone):
    """GIN layers: ``H^{l+1} = MLP((1 + ε) H^l + A H^l)`` with learnable ε.

    Sum aggregation over the raw adjacency (no normalisation), as in the
    original paper; each layer's MLP has one hidden layer of ``hidden_dim``.
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
        self.mlps = ModuleList(
            [
                MLP([dims[i], hidden_dim, dims[i + 1]], rng)
                for i in range(num_layers)
            ]
        )
        self.epsilons = [Parameter(np.zeros(1), name=f"eps{i}") for i in range(num_layers)]
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None

    def _propagation_matrix(self, adjacency: sp.spmatrix) -> sp.csr_matrix:
        return to_symmetric(adjacency)

    def embed(self, features: Tensor, adjacency: sp.spmatrix) -> Tensor:
        matrix = self._cached_propagation(adjacency)
        h = features
        for mlp, eps in zip(self.mlps, self.epsilons):
            if self.dropout is not None:
                h = self.dropout(h)
            self_term = ops.mul(h, ops.add(1.0, eps))
            neighbor_term = self._propagate(matrix, h)
            h = ops.relu(mlp(ops.add(self_term, neighbor_term)))
        return h

    def embed_blocks(self, features: Tensor, blocks: list[Block]) -> Tensor:
        self._check_blocks(features, blocks)
        h = features
        for mlp, eps, block in zip(self.mlps, self.epsilons, blocks):
            if self.dropout is not None:
                h = self.dropout(h)
            h_dst = ops.index(h, slice(0, block.num_dst))
            self_term = ops.mul(h_dst, ops.add(1.0, eps))
            neighbor_term = ops.spmm(block_sum_matrix(block), h)
            h = ops.relu(mlp(ops.add(self_term, neighbor_term)))
        return h
