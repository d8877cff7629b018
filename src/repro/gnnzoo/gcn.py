"""Graph Convolutional Network (Kipf & Welling, 2017)."""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.normalize import gcn_normalize
from repro.graph.sampling import Block, block_gcn_matrix
from repro.gnnzoo.base import GNNBackbone
from repro.nn import Linear, ModuleList
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
        super().__init__(hidden_dim, rng, num_layers, dropout)
        dims = [in_dim] + [hidden_dim] * num_layers
        self.layers = ModuleList(
            [Linear(dims[i], dims[i + 1], rng) for i in range(num_layers)]
        )

    def _propagation_matrix(self, adjacency: sp.spmatrix) -> sp.csr_matrix:
        return gcn_normalize(adjacency)

    def _block_operator(self, block: Block) -> sp.csr_matrix:
        return block_gcn_matrix(block)

    def _layer(self, index: int, h: Tensor, operator, num_dst: int | None) -> Tensor:
        return ops.relu(self.layers[index](self._aggregate(operator, h, num_dst)))
