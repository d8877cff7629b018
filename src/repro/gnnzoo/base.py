"""Shared backbone interface and factory."""

from __future__ import annotations

import weakref
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.graph.sampling import Block, is_block_sequence
from repro.nn import Dropout, Linear, Module
from repro.tensor import Tensor
from repro.tensor import ops

__all__ = ["GNNBackbone", "make_backbone"]


def identity_cached(cache: dict, key, build: Callable):
    """``build(key)``, memoised in ``cache`` per object identity of ``key``.

    Each entry holds a weak reference to its key and only hits while that
    very object is alive: an ``id`` is recycled once its object is freed,
    so a bare id key would hand a fresh matrix (NIFTY's per-epoch
    edge-dropped adjacency) the operator cached for a dead one.  The cache
    is cleared once it exceeds 8 entries (experiments touch a few graphs).
    """
    entry = cache.get(id(key))
    if entry is not None and entry[0]() is key:
        return entry[1]
    value = build(key)
    if len(cache) > 8:
        cache.clear()
    cache[id(key)] = (weakref.ref(key), value)
    return value


class GNNBackbone(Module):
    """Base class: conv stack → representation ``h`` → linear head → logit.

    :meth:`embed` owns the one layer loop for every backbone, over either
    support a caller passes: a square full-graph adjacency, or a chain of
    sampled bipartite :class:`~repro.graph.sampling.Block`\\ s, input layer
    first (full-batch is the covering case of sampling).  Each layer applies
    dropout, then the subclass's :meth:`_layer` on that layer's operator:
    :meth:`_propagation_matrix` of the adjacency, or
    :meth:`_block_operator` of the layer's block.  The classification head
    (Eq. 9, ``ŷ_v = σ(h_v · w)``) lives here so every backbone exposes
    identical logits semantics.  Full-graph operators are cached per input
    matrix (graphs are static within an experiment) by object identity (see
    :func:`identity_cached`); a block's operator is kept on the block, per
    backbone class (:meth:`~repro.graph.sampling.Block.cached_operator`).
    The full-graph aggregation of a constant input is memoised too (see
    :meth:`_propagate`).  Both caches assume that no input array is mutated
    in place while a model uses it.
    """

    def __init__(
        self,
        hidden_dim: int,
        rng: np.random.Generator,
        num_layers: int = 1,
        dropout: float = 0.0,
    ) -> None:
        super().__init__()
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        self.hidden_dim = hidden_dim
        self.num_layers = num_layers
        self.head = Linear(hidden_dim, 1, rng)
        self.dropout = Dropout(dropout, rng) if dropout > 0 else None
        self._prop_cache: dict[int, tuple] = {}
        self._propagated: tuple | None = None

    # -- subclass API ---------------------------------------------------- #
    def _propagation_matrix(self, adjacency: sp.spmatrix):
        """Backbone-specific message-passing operator for a raw adjacency."""
        raise NotImplementedError

    def _block_operator(self, block: Block):
        """The same operator for one sampled block."""
        raise NotImplementedError

    def _layer(self, index: int, h: Tensor, operator, num_dst: int | None) -> Tensor:
        """Layer ``index`` on input rows ``h`` through ``operator``.

        ``num_dst`` is the block's destination count, whose rows lead ``h``
        (the block convention), or ``None`` on the full graph, where every
        row of ``h`` is a destination.
        """
        raise NotImplementedError

    # -- shared ----------------------------------------------------------- #
    def embed(self, features: Tensor, support) -> Tensor:
        """Node representations ``h``: ``(N, hidden_dim)`` on a full-graph
        adjacency, one row per ``blocks[-1].dst_nodes`` seed on a block
        chain (``features`` then holds the rows of ``blocks[0].src_nodes``).
        """
        if is_block_sequence(support):
            blocks = list(support)
            self._check_blocks(features, blocks)
            operators = [
                (block.cached_operator(type(self), self._block_operator), block.num_dst)
                for block in blocks
            ]
        else:
            operators = [(self._cached_propagation(support), None)] * self.num_layers
        h = features
        for index, (operator, num_dst) in enumerate(operators):
            if self.dropout is not None:
                h = self.dropout(h)
            h = self._layer(index, h, operator, num_dst)
        return h

    def forward(self, features: Tensor, support) -> Tensor:
        """Binary classification logits, ``(N,)`` full-batch or ``(B,)``
        when ``support`` is a list of sampled blocks."""
        return self.head(self.embed(features, support)).reshape(-1)

    def _check_blocks(self, features: Tensor, blocks: list[Block]) -> None:
        """Validate the block chain against this model's layer stack."""
        if len(blocks) != self.num_layers:
            raise ValueError(
                f"{type(self).__name__} has {self.num_layers} layers but got "
                f"{len(blocks)} blocks"
            )
        if features.shape[0] != blocks[0].num_src:
            raise ValueError(
                f"features have {features.shape[0]} rows but the input block "
                f"expects {blocks[0].num_src}"
            )
        for earlier, later in zip(blocks[:-1], blocks[1:]):
            if not np.array_equal(earlier.dst_nodes, later.src_nodes):
                raise ValueError("block chain broken: dst/src node mismatch")

    def _cached_propagation(self, adjacency: sp.spmatrix):
        return identity_cached(self._prop_cache, adjacency, self._propagation_matrix)

    def _aggregate(self, operator: sp.spmatrix, h: Tensor, num_dst: int | None) -> Tensor:
        """``operator · h``: through :meth:`_propagate` on the full graph,
        one plain product on a block."""
        if num_dst is None:
            return self._propagate(operator, h)
        return ops.spmm(operator, h)

    @staticmethod
    def _destinations(h: Tensor, num_dst: int | None) -> Tensor:
        """The destination rows of ``h``: all of it on the full graph, the
        leading ``num_dst`` rows on a block."""
        return h if num_dst is None else ops.index(h, slice(0, num_dst))

    def _propagate(self, matrix: sp.spmatrix, h: Tensor) -> Tensor:
        """``ops.spmm(matrix, h)``, memoised in one slot for a constant ``h``.

        A full-batch fit feeds the same feature array through the same
        operator on every training step and every validation pass, so the
        first layer's product is a constant of the fit.  The slot holds weak
        references to ``matrix`` and ``h.data`` (a recycled ``id`` can never
        hit) and the product itself.  An ``h`` that requires gradients
        bypasses it.  Only a training-mode forward stores; an eval-mode one
        reuses a matching entry but never stores, so one-shot inference
        leaves nothing behind.
        """
        if h.requires_grad:
            return ops.spmm(matrix, h)
        entry = self._propagated
        if entry is not None and entry[0]() is matrix and entry[1]() is h.data:
            return entry[2]
        out = ops.spmm(matrix, h)
        if self.training:
            self._propagated = (weakref.ref(matrix), weakref.ref(h.data), out)
        return out


def make_backbone(
    name: str,
    in_dim: int,
    hidden_dim: int,
    rng: np.random.Generator,
    num_layers: int = 1,
    dropout: float = 0.0,
) -> GNNBackbone:
    """Instantiate a backbone by name ("gcn", "gin", "gat", "sage")."""
    from repro.gnnzoo.gat import GAT
    from repro.gnnzoo.gcn import GCN
    from repro.gnnzoo.gin import GIN
    from repro.gnnzoo.sage import GraphSAGE

    registry = {"gcn": GCN, "gin": GIN, "gat": GAT, "sage": GraphSAGE}
    key = name.lower()
    if key not in registry:
        raise ValueError(f"unknown backbone {name!r}; choose from {sorted(registry)}")
    return registry[key](
        in_dim=in_dim,
        hidden_dim=hidden_dim,
        rng=rng,
        num_layers=num_layers,
        dropout=dropout,
    )
