"""Graph Attention Network (Velickovic et al., 2018), single-head layers.

Attention is computed on the edge list (including self-loops) with a
numerically stabilised segment softmax built from the differentiable
``gather`` / ``scatter_add`` primitives.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.graph.normalize import add_self_loops
from repro.graph.sampling import Block
from repro.gnnzoo.base import GNNBackbone
from repro.nn import Linear, ModuleList, Parameter, init
from repro.tensor import Tensor
from repro.tensor import ops

__all__ = ["GAT"]

# A GAT layer's operator: the (source, destination) ids of every edge.
Edges = tuple[np.ndarray, np.ndarray]


class GAT(GNNBackbone):
    """Stack of single-head GAT layers with ELU-free ReLU output activations."""

    def __init__(
        self,
        in_dim: int,
        hidden_dim: int,
        rng: np.random.Generator,
        num_layers: int = 1,
        dropout: float = 0.0,
        negative_slope: float = 0.2,
    ) -> None:
        super().__init__(hidden_dim, rng, num_layers, dropout)
        dims = [in_dim] + [hidden_dim] * num_layers
        self.linears = ModuleList([])
        self.attn_src_params: list[Parameter] = []
        self.attn_dst_params: list[Parameter] = []
        for i in range(num_layers):
            self.linears.append(Linear(dims[i], dims[i + 1], rng, bias=False))
            self.attn_src_params.append(
                Parameter(init.xavier_uniform((dims[i + 1], 1), rng), name="attn_src")
            )
            self.attn_dst_params.append(
                Parameter(init.xavier_uniform((dims[i + 1], 1), rng), name="attn_dst")
            )
        self.negative_slope = negative_slope

    def _propagation_matrix(self, adjacency: sp.spmatrix) -> Edges:
        """The edge list of the adjacency with self-loops."""
        coo = sp.coo_matrix(add_self_loops(adjacency))
        return coo.row.astype(np.int64), coo.col.astype(np.int64)

    def _block_operator(self, block: Block) -> Edges:
        """A block's edges plus one self-loop per destination.

        Block edges flow column (source) → row (destination); each
        destination's self-loop source is its own index in the shared
        dst/src prefix.  Edge multiplicities in a hand-built block are
        ignored — attention re-weights edges anyway.
        """
        coo = block.adjacency.tocoo()
        eye = np.arange(block.num_dst)
        return (
            np.concatenate([coo.col.astype(np.int64), eye]),
            np.concatenate([coo.row.astype(np.int64), eye]),
        )

    def _layer(self, index: int, h: Tensor, operator: Edges, num_dst: int | None) -> Tensor:
        """One attention pass over edges ``src → dst``, scattered over the
        destinations (the leading rows of ``h`` on a block)."""
        src, dst = operator
        num_dst = h.shape[0] if num_dst is None else num_dst
        wh = self.linears[index](h)
        score_src = ops.matmul(wh, self.attn_src_params[index]).reshape(-1)
        score_dst = ops.matmul(wh, self.attn_dst_params[index]).reshape(-1)
        edge_score = ops.leaky_relu(
            ops.add(ops.gather(score_src, src), ops.gather(score_dst, dst)),
            self.negative_slope,
        )
        # Segment softmax over incoming edges of each destination node.
        # Subtracting the per-destination max (a constant w.r.t. autodiff,
        # like the max-shift in ordinary softmax) keeps exp() bounded.
        shift = np.full(num_dst, -np.inf)
        np.maximum.at(shift, dst, edge_score.data)
        shift[~np.isfinite(shift)] = 0.0
        exp_score = ops.exp(ops.sub(edge_score, Tensor(shift[dst])))
        denom = ops.scatter_add(exp_score.reshape(-1, 1), dst, num_dst)
        alpha = ops.div(
            exp_score, ops.add(ops.gather(denom.reshape(-1), dst), 1e-16)
        )
        messages = ops.mul(ops.gather(wh, src), alpha.reshape(-1, 1))
        return ops.relu(ops.scatter_add(messages, dst, num_dst))
