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
from repro.gnnzoo.base import GNNBackbone, identity_cached
from repro.nn import Dropout, Linear, ModuleList, Parameter, init
from repro.tensor import Tensor
from repro.tensor import ops

__all__ = ["GAT"]


class _GATLayer:
    """One single-head attention layer's parameters (managed by GAT)."""

    def __init__(self, in_dim: int, out_dim: int, rng: np.random.Generator) -> None:
        self.linear = Linear(in_dim, out_dim, rng, bias=False)
        self.attn_src = Parameter(init.xavier_uniform((out_dim, 1), rng), name="attn_src")
        self.attn_dst = Parameter(init.xavier_uniform((out_dim, 1), rng), name="attn_dst")


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
        super().__init__(hidden_dim, rng)
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        dims = [in_dim] + [hidden_dim] * num_layers
        self.num_layers = num_layers
        self.linears = ModuleList([])
        self._attn_params: list[_GATLayer] = []
        self.attn_src_params: list[Parameter] = []
        self.attn_dst_params: list[Parameter] = []
        for i in range(num_layers):
            layer = _GATLayer(dims[i], dims[i + 1], rng)
            self.linears.append(layer.linear)
            self.attn_src_params.append(layer.attn_src)
            self.attn_dst_params.append(layer.attn_dst)
        self.negative_slope = negative_slope
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None
        self._edge_cache: dict[int, tuple] = {}

    def _propagation_matrix(self, adjacency: sp.spmatrix) -> sp.csr_matrix:
        return add_self_loops(adjacency)

    def _edges(self, adjacency: sp.spmatrix) -> tuple[np.ndarray, np.ndarray]:
        def build(adjacency):
            coo = sp.coo_matrix(self._cached_propagation(adjacency))
            return coo.row.astype(np.int64), coo.col.astype(np.int64)

        return identity_cached(self._edge_cache, adjacency, build)

    def _attention_layer(
        self,
        wh: Tensor,
        attn_src,
        attn_dst,
        src: np.ndarray,
        dst: np.ndarray,
        num_dst: int,
    ) -> Tensor:
        """One attention pass over edges ``src → dst`` (scatter over num_dst).

        ``wh`` holds the projected representations of every node either
        endpoint index refers to; destination indices must also be valid rows
        of ``wh`` (in block mode the destinations are the ``wh`` prefix).
        """
        score_src = ops.matmul(wh, attn_src).reshape(-1)
        score_dst = ops.matmul(wh, attn_dst).reshape(-1)
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

    def embed(self, features: Tensor, adjacency: sp.spmatrix) -> Tensor:
        src, dst = self._edges(adjacency)
        num_nodes = features.shape[0]
        h = features
        for linear, attn_src, attn_dst in zip(
            self.linears, self.attn_src_params, self.attn_dst_params
        ):
            if self.dropout is not None:
                h = self.dropout(h)
            wh = linear(h)
            h = self._attention_layer(wh, attn_src, attn_dst, src, dst, num_nodes)
        return h

    def embed_blocks(self, features: Tensor, blocks: list[Block]) -> Tensor:
        self._check_blocks(features, blocks)
        h = features
        for linear, attn_src, attn_dst, block in zip(
            self.linears, self.attn_src_params, self.attn_dst_params, blocks
        ):
            if self.dropout is not None:
                h = self.dropout(h)
            wh = linear(h)
            # Block edges flow column (source) → row (destination); append
            # one self-loop per destination (its source index is the shared
            # dst/src prefix).  Multiplicities from with-replacement sampling
            # are intentionally ignored — attention re-weights edges anyway.
            coo = block.adjacency.tocoo()
            eye = np.arange(block.num_dst)
            src = np.concatenate([coo.col.astype(np.int64), eye])
            dst = np.concatenate([coo.row.astype(np.int64), eye])
            h = self._attention_layer(
                wh, attn_src, attn_dst, src, dst, block.num_dst
            )
        return h
