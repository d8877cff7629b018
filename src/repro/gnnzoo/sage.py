"""GraphSAGE with mean aggregation (Hamilton et al., 2017)."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.normalize import row_normalize
from repro.graph.sampling import Block, block_mean_matrix
from repro.gnnzoo.base import GNNBackbone
from repro.nn import Dropout, Linear, ModuleList
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
        super().__init__(hidden_dim, rng)
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        dims = [in_dim] + [hidden_dim] * num_layers
        self.num_layers = num_layers
        self.self_layers = ModuleList(
            [Linear(dims[i], dims[i + 1], rng) for i in range(num_layers)]
        )
        self.neighbor_layers = ModuleList(
            [Linear(dims[i], dims[i + 1], rng, bias=False) for i in range(num_layers)]
        )
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None

    def _propagation_matrix(self, adjacency: sp.spmatrix) -> sp.csr_matrix:
        return row_normalize(adjacency)

    def embed(self, features: Tensor, adjacency: sp.spmatrix) -> Tensor:
        mean_op = self._cached_propagation(adjacency)
        h = features
        for self_layer, neighbor_layer in zip(self.self_layers, self.neighbor_layers):
            if self.dropout is not None:
                h = self.dropout(h)
            h = ops.relu(
                ops.add(self_layer(h), neighbor_layer(self._propagate(mean_op, h)))
            )
        return h

    def embed_blocks(self, features: Tensor, blocks: list[Block]) -> Tensor:
        self._check_blocks(features, blocks)
        h = features
        for self_layer, neighbor_layer, block in zip(
            self.self_layers, self.neighbor_layers, blocks
        ):
            if self.dropout is not None:
                h = self.dropout(h)
            h_dst = ops.index(h, slice(0, block.num_dst))
            h = ops.relu(
                ops.add(
                    self_layer(h_dst),
                    neighbor_layer(ops.spmm(block_mean_matrix(block), h)),
                )
            )
        return h
