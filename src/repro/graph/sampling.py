"""Neighbour sampling for minibatch training.

GraphSAGE-style neighbour sampling into layered bipartite **blocks**
(:class:`NeighborSampler`), drawn from a ``numpy.random.Generator``.

Minibatch blocks
----------------
A :class:`Block` is one hop of a sampled computation graph: a bipartite
sub-adjacency from ``num_src`` input nodes to ``num_dst`` output nodes,
with the invariant ``src_nodes[:num_dst] == dst_nodes`` so every output
node can read its own input-layer representation at the same local index
(the DGL "block" convention).  :meth:`NeighborSampler.sample_blocks` builds
one block per GNN layer, outermost seeds first in *reverse*, and returns
them input-layer-first so a model can fold them left to right.

All sampling is vectorized over CSR ``indptr``/``indices`` — there are no
Python-per-node loops, so sampling a batch is O(edges touched) numpy work.
Building a block is too: each sampler owns an N-entry position map from
global to local ids (DGL's ``to_block`` relabelling), so local columns are
one gather, the new source nodes are one sort of the unmatched neighbours,
and the CSR is assembled directly from the row counts — no sort of the
edge list and no COO round trip.  Every sampled training epoch draws fresh
blocks; a block memoises its normalised operators, so a block chain folded
repeatedly (the engine's per-fit validation blocks) normalises once.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Sequence

import numpy as np
import scipy.sparse as sp

from repro.graph.utils import sorted_unique

__all__ = [
    "Block",
    "NeighborSampler",
    "is_block_sequence",
    "block_gcn_matrix",
    "block_mean_matrix",
    "block_sum_matrix",
]


@dataclass
class Block:
    """One sampled bipartite message-passing layer.

    Attributes
    ----------
    adjacency:
        ``(num_dst, num_src)`` CSR matrix of sampled edges.  Entry ``(i, j)``
        means local source ``j`` is a sampled neighbour of local destination
        ``i`` (its value is the multiplicity, > 1 only when sampling with
        replacement).  Self-loops are *not* included; consumers add them.
    src_nodes:
        Global ids of the input nodes, ``(num_src,)``.  The first ``num_dst``
        entries are exactly ``dst_nodes`` (in order).
    dst_nodes:
        Global ids of the output nodes, ``(num_dst,)``.
    src_degrees / dst_degrees:
        Full-graph degrees of the source/destination nodes — sampled
        aggregators use these to keep normalisation consistent with the
        full-batch operators (and therefore exact under exhaustive fanout).
    """

    adjacency: sp.csr_matrix
    src_nodes: np.ndarray
    dst_nodes: np.ndarray
    src_degrees: np.ndarray
    dst_degrees: np.ndarray

    def __post_init__(self) -> None:
        # Float data keeps the block operators' reciprocal/ratio scaling
        # exact even when callers hand in an integer 0/1 adjacency; a
        # sampler-built float64 CSR is kept as it is, without a re-wrap.
        if not (
            isinstance(self.adjacency, sp.csr_matrix)
            and self.adjacency.dtype == np.float64
        ):
            self.adjacency = sp.csr_matrix(self.adjacency).astype(
                np.float64, copy=False
            )
        self.src_nodes = np.asarray(self.src_nodes, dtype=np.int64)
        self.dst_nodes = np.asarray(self.dst_nodes, dtype=np.int64)
        self.src_degrees = np.asarray(self.src_degrees, dtype=np.float64)
        self.dst_degrees = np.asarray(self.dst_degrees, dtype=np.float64)
        if self.adjacency.shape != (self.num_dst, self.num_src):
            raise ValueError(
                f"block adjacency shape {self.adjacency.shape} does not match "
                f"({self.num_dst}, {self.num_src})"
            )
        if not np.array_equal(self.src_nodes[: self.num_dst], self.dst_nodes):
            raise ValueError("src_nodes must start with dst_nodes")
        # Lazily filled by the block operators below.  A block used once (a
        # sampled training step) pays one dict lookup; the engine's exact
        # validation blocks, built once per fit and folded every epoch,
        # build each normalised operator once instead of once per epoch.
        self._operator_cache: dict[str, sp.csr_matrix] = {}

    @property
    def num_src(self) -> int:
        """Number of input nodes."""
        return int(self.src_nodes.shape[0])

    @property
    def num_dst(self) -> int:
        """Number of output nodes."""
        return int(self.dst_nodes.shape[0])

    def sampled_in_degrees(self) -> np.ndarray:
        """Per-destination count (with multiplicity) of sampled neighbours."""
        return np.asarray(self.adjacency.sum(axis=1)).reshape(-1)

    def __repr__(self) -> str:  # pragma: no cover - debugging aid
        return (
            f"Block(num_dst={self.num_dst}, num_src={self.num_src}, "
            f"edges={self.adjacency.nnz})"
        )


def is_block_sequence(value) -> bool:
    """True when ``value`` is a non-empty list/tuple of :class:`Block`."""
    return (
        isinstance(value, (list, tuple))
        and len(value) > 0
        and all(isinstance(item, Block) for item in value)
    )


class NeighborSampler:
    """Layered GraphSAGE-style neighbour sampler producing :class:`Block`\\ s.

    Parameters
    ----------
    adjacency:
        ``(N, N)`` sparse adjacency (converted to CSR once).  Assumed
        unweighted — every stored edge is sampled with equal probability.
    fanouts:
        One entry per GNN layer, **input layer first** (matching the layer
        order models fold blocks in).  Each entry is either a positive int
        (sample up to that many neighbours per node) or ``None`` (keep the
        full neighbourhood — used for exact minibatched inference).
    replace:
        Sample with replacement (GraphSAGE's original behaviour).  Repeated
        draws accumulate multiplicity in the block adjacency, which the mean
        aggregator weights correctly.

    A sampler owns an ``(N,)`` int64 position map (8 bytes per node) that
    relabels each block's global ids; every call leaves it all ``-1``.  Do
    not share one sampler across threads — give each its own.

    Examples
    --------
    >>> sampler = NeighborSampler(graph.adjacency, fanouts=(10, 5))
    >>> blocks = sampler.sample_blocks(seed_nodes, rng)
    >>> logits = model(Tensor(graph.features[blocks[0].src_nodes]), blocks)
    """

    def __init__(
        self,
        adjacency: sp.spmatrix,
        fanouts: Sequence[int | None],
        replace: bool = False,
    ) -> None:
        matrix = sp.csr_matrix(adjacency)
        if matrix.shape[0] != matrix.shape[1]:
            raise ValueError(f"adjacency must be square, got {matrix.shape}")
        if matrix.diagonal().any():
            # Stored self-loops would be sampled as ordinary edges while the
            # block operators (and the full-batch GCN/GAT normalisations)
            # manage self-loops themselves — the double-count would silently
            # break the exactness contract.  The Graph container guarantees a
            # zero diagonal; enforce the same here.
            raise ValueError(
                "adjacency must have a zero diagonal (no stored self-loops); "
                "block operators add self-loops themselves"
            )
        fanouts = tuple(fanouts)
        if not fanouts:
            raise ValueError("fanouts must have at least one entry")
        for fanout in fanouts:
            if fanout is not None and fanout < 1:
                raise ValueError(f"fanouts must be >= 1 or None, got {fanout}")
        self._indptr = matrix.indptr
        self._indices = matrix.indices.astype(np.int64, copy=False)
        self._degrees = np.diff(matrix.indptr).astype(np.int64)
        self.num_nodes = matrix.shape[0]
        # Global id -> local source id of the block being built, -1 when
        # unset.  Every call resets the entries it wrote before returning.
        self._position = np.full(self.num_nodes, -1, dtype=np.int64)
        self.fanouts = fanouts
        self.replace = replace

    @classmethod
    def full_neighborhood(
        cls, adjacency: sp.spmatrix, num_layers: int
    ) -> "NeighborSampler":
        """Sampler that keeps every neighbour (exact minibatched inference)."""
        if num_layers < 1:
            raise ValueError(f"num_layers must be >= 1, got {num_layers}")
        return cls(adjacency, fanouts=(None,) * num_layers)

    @property
    def num_layers(self) -> int:
        """Number of blocks produced per call (== ``len(fanouts)``)."""
        return len(self.fanouts)

    # ------------------------------------------------------------------ #
    def sample_blocks(
        self, seeds: np.ndarray, rng: np.random.Generator | None = None
    ) -> list[Block]:
        """Sample one block per fanout for the given seed (output) nodes.

        ``seeds`` must be unique, in-range node ids.  Returns the blocks
        input-layer first: ``blocks[-1].dst_nodes == seeds`` and
        ``blocks[i].dst_nodes == blocks[i + 1].src_nodes``.
        """
        seeds = np.asarray(seeds, dtype=np.int64).reshape(-1)
        if seeds.size == 0:
            raise ValueError("seeds must be non-empty")
        if seeds.min() < 0 or seeds.max() >= self.num_nodes:
            raise ValueError("seed ids out of range")
        local = np.arange(seeds.size)
        try:
            self._position[seeds] = local
            # A repeated id holds only one of its positions.
            duplicated = (self._position[seeds] != local).any()
        finally:
            self._position[seeds] = -1
        if duplicated:
            raise ValueError("seeds must be unique")
        if rng is None:
            rng = np.random.default_rng()
        blocks: list[Block] = []
        dst = seeds
        for fanout in reversed(self.fanouts):
            block = self._sample_block(dst, fanout, rng)
            blocks.append(block)
            dst = block.src_nodes
        return blocks[::-1]

    # ------------------------------------------------------------------ #
    def _select_edges(
        self, dst: np.ndarray, fanout: int | None, rng: np.random.Generator
    ) -> tuple[np.ndarray, np.ndarray]:
        """Vectorized per-row edge selection.

        Returns ``(rows, neighbors)`` where ``rows`` are local indices into
        ``dst``, in ascending order (the block's CSR row pointer counts
        them), and ``neighbors`` are global neighbour ids.  Each call makes
        at most one generator draw: ``fanout`` uniform picks per
        non-isolated row with replacement, otherwise one random key per
        candidate edge (skipped when the layer keeps full neighbourhoods or
        touches no edge).
        """
        starts = self._indptr[dst]
        counts = self._degrees[dst]

        if self.replace and fanout is not None:
            # Each non-isolated row draws exactly ``fanout`` times uniformly.
            nonzero = np.flatnonzero(counts > 0)
            rows = np.repeat(nonzero, fanout)
            starts_rep = np.repeat(starts[nonzero], fanout)
            picks = rng.integers(0, np.repeat(counts[nonzero], fanout))
            return rows, self._indices[starts_rep + picks]

        # Expand all incident edges of the batch: rows[k] is the local dst of
        # the k-th candidate edge, offsets give its position within its row.
        total = int(counts.sum())
        rows = np.repeat(np.arange(dst.size), counts)
        row_starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
        within = np.arange(total) - np.repeat(row_starts, counts)
        neighbors = self._indices[np.repeat(starts, counts) + within]
        if fanout is None or total == 0:
            return rows, neighbors

        # Uniform sampling without replacement, all rows at once: every
        # candidate edge carries a random key and each row keeps its
        # ``fanout`` smallest keys.  Selection runs as a bucketed two-pass
        # counting sort instead of a full O(E log E) lexsort over the
        # batch's incident edges: histogram each row's keys into
        # ~average-degree key-prefix buckets, keep whole buckets below the
        # row's threshold bucket, and sort only the threshold bucket's edges
        # (expected O(rows) of them) to fill the remaining quota.  The kept
        # edge *set* is identical to the full sort's — buckets partition the
        # key range monotonically, and the stable within-bucket sort breaks
        # duplicate keys by edge position exactly like the stable full
        # lexsort did.  The keys are drawn before the early return so the
        # generator advances by one draw per layer whether or not any row
        # needs trimming.
        keys = rng.random(total)
        need = counts > fanout
        if not need.any():
            return rows, neighbors
        num_rows = dst.size
        buckets = int(min(256, max(2, total // num_rows + 1)))
        edge_bucket = np.minimum((keys * buckets).astype(np.int64), buckets - 1)
        hist = np.bincount(
            rows * buckets + edge_bucket, minlength=num_rows * buckets
        ).reshape(num_rows, buckets)
        cum = np.cumsum(hist, axis=1)
        threshold = np.argmax(cum >= fanout, axis=1)
        below = np.where(
            threshold > 0, cum[np.arange(num_rows), threshold - 1], 0
        )
        quota = fanout - below
        in_need = need[rows]
        edge_threshold = threshold[rows]
        keep_mask = np.ones(total, dtype=bool)
        keep_mask[in_need & (edge_bucket > edge_threshold)] = False
        border = np.flatnonzero(in_need & (edge_bucket == edge_threshold))
        border = border[np.lexsort((keys[border], rows[border]))]
        border_rows = rows[border]
        border_starts = np.concatenate(
            ([0], np.cumsum(np.bincount(border_rows, minlength=num_rows)))
        )[:-1]
        rank = np.arange(border.size) - border_starts[border_rows]
        keep_mask[border[rank >= quota[border_rows]]] = False
        keep = np.flatnonzero(keep_mask)
        return rows[keep], neighbors[keep]

    def _sample_block(
        self, dst: np.ndarray, fanout: int | None, rng: np.random.Generator
    ) -> Block:
        rows, neighbors = self._select_edges(dst, fanout, rng)
        # Source set: destinations first (local id i == dst i), then the
        # newly reached neighbours in sorted order (deterministic).  Local
        # column ids are read through the position map, so relabelling is
        # O(edges) with no sort of the edge list.
        position = self._position
        src_nodes = dst
        try:
            position[dst] = np.arange(dst.size)
            cols = position[neighbors]
            new = cols < 0
            extra = sorted_unique(neighbors[new])
            src_nodes = np.concatenate([dst, extra])
            position[extra] = np.arange(dst.size, src_nodes.size)
            cols[new] = position[neighbors[new]]
        finally:
            position[src_nodes] = -1
        # Rows arrive ascending, so the CSR row pointer is a running count;
        # sum_duplicates sorts each row and merges replace=True repeats.
        indptr = np.zeros(dst.size + 1, dtype=np.int64)
        np.cumsum(np.bincount(rows, minlength=dst.size), out=indptr[1:])
        adjacency = sp.csr_matrix(
            (np.ones(cols.size), cols, indptr),
            shape=(dst.size, src_nodes.size),
        )
        adjacency.sum_duplicates()
        return Block(
            adjacency=adjacency,
            src_nodes=src_nodes,
            dst_nodes=dst,
            src_degrees=self._degrees[src_nodes],
            dst_degrees=self._degrees[dst],
        )


# --------------------------------------------------------------------- #
# block-level aggregation operators (mirror repro.graph.normalize)
# --------------------------------------------------------------------- #
def _self_loops(block: Block) -> sp.csr_matrix:
    """Identity-like ``(num_dst, num_src)`` matrix on the shared prefix."""
    return sp.csr_matrix(
        (
            np.ones(block.num_dst),
            np.arange(block.num_dst),
            np.arange(block.num_dst + 1),
        ),
        shape=(block.num_dst, block.num_src),
    )


def _memoized_operator(block: Block, key: str, build) -> sp.csr_matrix:
    """Build a block's normalised operator once; a reused block keeps it."""
    cached = block._operator_cache.get(key)
    if cached is None:
        cached = build(block)
        block._operator_cache[key] = cached
    return cached


def block_gcn_matrix(block: Block) -> sp.csr_matrix:
    """Bipartite GCN operator ``D̃^{-1/2} (A + I) D̃^{-1/2}`` for one block.

    Degrees are the *full-graph* degrees carried by the block, so under
    exhaustive fanout this is exactly the corresponding row/column slice of
    :func:`repro.graph.normalize.gcn_normalize`'s output.  Memoised on the
    block: the engine's validation blocks, folded every epoch of a fit, pay
    the normalisation once.
    """

    def build(block: Block) -> sp.csr_matrix:
        matrix = block.adjacency + _self_loops(block)
        rows = np.repeat(np.arange(block.num_dst), np.diff(matrix.indptr))
        row_scale = 1.0 / np.sqrt(block.dst_degrees + 1.0)
        col_scale = 1.0 / np.sqrt(block.src_degrees + 1.0)
        # The values and entry order of diags(row) @ (A + I) @ diags(col):
        # each scipy product reverses every row, so the two cancel.
        data = (row_scale[rows] * matrix.data) * col_scale[matrix.indices]
        return sp.csr_matrix(
            (data, matrix.indices, matrix.indptr), shape=matrix.shape
        )

    return _memoized_operator(block, "gcn", build)


def block_mean_matrix(block: Block) -> sp.csr_matrix:
    """Mean aggregator over the *sampled* neighbours (SAGE's ``D^{-1} A``).

    Rows are normalised by the sampled (multiplicity-weighted) neighbour
    count, which equals the true degree under exhaustive fanout and is the
    standard unbiased mean estimator under sampling.  Memoised on the block.
    """

    def build(block: Block) -> sp.csr_matrix:
        sampled = block.sampled_in_degrees()
        inv = np.zeros_like(sampled)
        nonzero = sampled > 0
        inv[nonzero] = 1.0 / sampled[nonzero]
        return (sp.diags(inv) @ block.adjacency).tocsr()

    return _memoized_operator(block, "mean", build)


def block_sum_matrix(block: Block) -> sp.csr_matrix:
    """Sum aggregator (GIN) with Horvitz–Thompson degree rescaling.

    Each row is scaled by ``true_degree / sampled_count`` so the sampled sum
    is an unbiased estimate of the full neighbourhood sum, and reduces to
    the plain sum (scale 1) under exhaustive fanout.  Memoised on the block.
    """

    def build(block: Block) -> sp.csr_matrix:
        sampled = block.sampled_in_degrees()
        scale = np.zeros_like(sampled)
        nonzero = sampled > 0
        scale[nonzero] = block.dst_degrees[nonzero] / sampled[nonzero]
        return (sp.diags(scale) @ block.adjacency).tocsr()

    return _memoized_operator(block, "sum", build)
