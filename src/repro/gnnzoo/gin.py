"""Graph Isomorphism Network (Xu et al., 2019)."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.gnnzoo.base import GNNBackbone
from repro.graph.normalize import to_symmetric
from repro.graph.sampling import Block, block_sum_matrix
from repro.nn import MLP, ModuleList, Parameter
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
        super().__init__(hidden_dim, rng, num_layers, dropout)
        dims = [in_dim] + [hidden_dim] * num_layers
        self.mlps = ModuleList(
            [
                MLP([dims[i], hidden_dim, dims[i + 1]], rng)
                for i in range(num_layers)
            ]
        )
        self.epsilons = [Parameter(np.zeros(1), name=f"eps{i}") for i in range(num_layers)]

    def _propagation_matrix(self, adjacency: sp.spmatrix) -> sp.csr_matrix:
        return to_symmetric(adjacency)

    def _block_operator(self, block: Block) -> sp.csr_matrix:
        return block_sum_matrix(block)

    def _layer(self, index: int, h: Tensor, operator, num_dst: int | None) -> Tensor:
        self_term = ops.mul(
            self._destinations(h, num_dst), ops.add(1.0, self.epsilons[index])
        )
        neighbor_term = self._aggregate(operator, h, num_dst)
        return ops.relu(self.mlps[index](ops.add(self_term, neighbor_term)))
