"""GraphSAGE with mean aggregation (Hamilton et al., 2017)."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.normalize import row_normalize
from repro.graph.sampling import Block, block_mean_matrix
from repro.gnnzoo.base import GNNBackbone
from repro.nn import Linear, ModuleList
from repro.tensor import Tensor
from repro.tensor import ops

__all__ = ["GraphSAGE"]


class GraphSAGE(GNNBackbone):
    """SAGE-mean layers: ``H^{l+1} = ReLU(H^l W_self + (D^{-1} A) H^l W_nb)``."""

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
        self.self_layers = ModuleList(
            [Linear(dims[i], dims[i + 1], rng) for i in range(num_layers)]
        )
        self.neighbor_layers = ModuleList(
            [Linear(dims[i], dims[i + 1], rng, bias=False) for i in range(num_layers)]
        )

    def _propagation_matrix(self, adjacency: sp.spmatrix) -> sp.csr_matrix:
        return row_normalize(adjacency)

    def _block_operator(self, block: Block) -> sp.csr_matrix:
        return block_mean_matrix(block)

    def _layer(self, index: int, h: Tensor, operator, num_dst: int | None) -> Tensor:
        return ops.relu(
            ops.add(
                self.self_layers[index](self._destinations(h, num_dst)),
                self.neighbor_layers[index](self._aggregate(operator, h, num_dst)),
            )
        )
