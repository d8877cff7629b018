"""Tests for the minibatch neighbour sampler.

``TestBlockConstructionOracle`` checks the sampler's block construction
(position-map relabel, direct CSR assembly, one-expression GCN operator)
against the sort-based reference it replaced, kept below verbatim.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    Block,
    NeighborSampler,
    block_gcn_matrix,
    block_mean_matrix,
    block_sum_matrix,
)


# --------------------------------------------------------------------- #
# Block construction against the sort-based reference
# --------------------------------------------------------------------- #
def _reference_block(sampler, dst, fanout, rng):
    """The sort-based relabel, kept verbatim as the oracle: ``setdiff1d``
    for the new sources, ``argsort`` + ``searchsorted`` for the local
    columns, and a COO build of the adjacency."""
    rows, neighbors = sampler._select_edges(dst, fanout, rng)
    extra = np.setdiff1d(neighbors, dst)
    src_nodes = np.concatenate([dst, extra])
    src_order = np.argsort(src_nodes, kind="stable")
    cols = src_order[np.searchsorted(src_nodes[src_order], neighbors)]
    adjacency = sp.csr_matrix(
        (np.ones(neighbors.size), (rows, cols)),
        shape=(dst.size, src_nodes.size),
    )
    return Block(
        adjacency=adjacency,
        src_nodes=src_nodes,
        dst_nodes=dst,
        src_degrees=sampler._degrees[src_nodes],
        dst_degrees=sampler._degrees[dst],
    )


def _reference_blocks(sampler, seeds, rng):
    """``sample_blocks`` over :func:`_reference_block`."""
    seeds = np.asarray(seeds, dtype=np.int64)
    if np.unique(seeds).size != seeds.size:
        raise ValueError("seeds must be unique")
    blocks = []
    dst = seeds
    for fanout in reversed(sampler.fanouts):
        block = _reference_block(sampler, dst, fanout, rng)
        blocks.append(block)
        dst = block.src_nodes
    return blocks[::-1]


def _reference_gcn(block):
    """The ``sp.diags`` GCN build, kept verbatim as the oracle."""
    eye = np.arange(block.num_dst)
    loops = sp.csr_matrix(
        (np.ones(block.num_dst), (eye, eye)),
        shape=(block.num_dst, block.num_src),
    )
    matrix = block.adjacency + loops
    row_scale = 1.0 / np.sqrt(block.dst_degrees + 1.0)
    col_scale = 1.0 / np.sqrt(block.src_degrees + 1.0)
    return (sp.diags(row_scale) @ matrix @ sp.diags(col_scale)).tocsr()


def _assert_same_csr(actual, expected):
    assert actual.shape == expected.shape
    for name in ("indptr", "indices", "data"):
        got, want = getattr(actual, name), getattr(expected, name)
        assert got.dtype == want.dtype, name
        np.testing.assert_array_equal(got, want, err_msg=name)


@st.composite
def _graphs(draw):
    """Symmetric zero-diagonal adjacencies with hubs and isolated nodes."""
    n = draw(st.integers(2, 40))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    dense = rng.random((n, n)) < draw(st.floats(0.0, 0.4))
    dense[: draw(st.integers(0, 2))] = True  # hubs: adjacent to everything
    dense = np.triu(dense, 1)
    dense = dense | dense.T
    isolated = rng.choice(n, size=draw(st.integers(0, n // 3)), replace=False)
    dense[isolated] = False
    dense[:, isolated] = False
    return sp.csr_matrix(dense.astype(np.float64))


@st.composite
def _samplers(draw):
    """A sampler over :func:`_graphs` plus an unsorted seed set."""
    adjacency = draw(_graphs())
    fanouts = draw(
        st.lists(st.one_of(st.none(), st.integers(1, 6)), min_size=1, max_size=3)
    )
    sampler = NeighborSampler(adjacency, fanouts, replace=draw(st.booleans()))
    n = adjacency.shape[0]
    seeds = draw(st.permutations(range(n)))[: draw(st.integers(1, n))]
    return sampler, np.array(seeds, dtype=np.int64)


class TestBlockConstructionOracle:
    @settings(deadline=None)
    @given(case=_samplers(), seed=st.integers(0, 2**32 - 1))
    def test_blocks_and_operators_match_reference(self, case, seed):
        sampler, seeds = case
        blocks = sampler.sample_blocks(seeds, np.random.default_rng(seed))
        assert (sampler._position == -1).all()
        expected = _reference_blocks(sampler, seeds, np.random.default_rng(seed))
        assert len(blocks) == len(expected)
        for block, reference in zip(blocks, expected):
            assert block.src_nodes.dtype == reference.src_nodes.dtype
            np.testing.assert_array_equal(block.src_nodes, reference.src_nodes)
            np.testing.assert_array_equal(block.dst_nodes, reference.dst_nodes)
            _assert_same_csr(block.adjacency, reference.adjacency)
            _assert_same_csr(block_gcn_matrix(block), _reference_gcn(reference))
            for operator in (block_mean_matrix, block_sum_matrix):
                _assert_same_csr(operator(block), operator(reference))

    @settings(deadline=None)
    @given(case=_samplers(), data=st.data())
    def test_duplicate_seeds_rejected_and_map_reset(self, case, data):
        sampler, seeds = case
        repeat = seeds[data.draw(st.integers(0, seeds.size - 1))]
        duplicated = np.insert(seeds, data.draw(st.integers(0, seeds.size)), repeat)
        with pytest.raises(ValueError, match="seeds must be unique"):
            sampler.sample_blocks(duplicated, np.random.default_rng(0))
        assert (sampler._position == -1).all()
        # The rejected call leaves the sampler as good as new.
        blocks = sampler.sample_blocks(seeds, np.random.default_rng(1))
        expected = _reference_blocks(sampler, seeds, np.random.default_rng(1))
        for block, reference in zip(blocks, expected):
            np.testing.assert_array_equal(block.src_nodes, reference.src_nodes)
            _assert_same_csr(block.adjacency, reference.adjacency)

    def test_failed_relabel_resets_position_map(self, tiny_adjacency):
        class _OutOfRange(NeighborSampler):
            def _select_edges(self, dst, fanout, rng):
                rows, neighbors = super()._select_edges(dst, fanout, rng)
                return np.append(rows, dst.size - 1), np.append(neighbors, 99)

        sampler = _OutOfRange(tiny_adjacency, fanouts=(None,))
        with pytest.raises(IndexError):
            sampler.sample_blocks(np.array([3, 0]), np.random.default_rng(0))
        assert (sampler._position == -1).all()

    def test_hand_built_diagonal_entry_sums_to_two(self):
        adjacency = sp.csr_matrix(np.array([[1.0, 1.0, 0.0], [0.0, 0.0, 1.0]]))
        block = Block(
            adjacency=adjacency,
            src_nodes=[4, 7, 9],
            dst_nodes=[4, 7],
            src_degrees=[2.0, 1.0, 3.0],
            dst_degrees=[2.0, 1.0],
        )
        operator = block_gcn_matrix(block)
        _assert_same_csr(operator, _reference_gcn(block))
        scale = 1.0 / np.sqrt(3.0)
        assert operator[0, 0] == (scale * 2.0) * scale

    def test_hand_built_non_canonical_block_matches_reference(self):
        # Unsorted columns and a duplicate entry in row 0.
        adjacency = sp.csr_matrix(
            (np.ones(4), np.array([2, 0, 2, 1]), np.array([0, 3, 4])), shape=(2, 3)
        )
        block = Block(
            adjacency=adjacency,
            src_nodes=[0, 1, 2],
            dst_nodes=[0, 1],
            src_degrees=[3.0, 1.0, 2.0],
            dst_degrees=[3.0, 1.0],
        )
        assert not block.adjacency.has_canonical_format
        _assert_same_csr(block_gcn_matrix(block), _reference_gcn(block))


class TestBlockAdjacency:
    def test_float64_csr_is_kept_as_given(self):
        adjacency = sp.csr_matrix(np.array([[0.0, 1.0]]))
        block = Block(adjacency, [0, 1], [0], [1.0, 1.0], [1.0])
        assert block.adjacency is adjacency

    @pytest.mark.parametrize(
        "adjacency",
        [
            sp.csr_matrix(np.array([[0, 1]])),
            sp.coo_matrix(np.array([[0.0, 1.0]])),
            np.array([[0.0, 1.0]]),
        ],
        ids=["int-csr", "coo", "dense"],
    )
    def test_other_inputs_become_float64_csr(self, adjacency):
        block = Block(adjacency, [0, 1], [0], [1.0, 1.0], [1.0])
        assert isinstance(block.adjacency, sp.csr_matrix)
        assert block.adjacency.dtype == np.float64
        np.testing.assert_array_equal(block.adjacency.toarray(), [[0.0, 1.0]])

    def test_checks_still_run_on_a_float64_csr(self):
        adjacency = sp.csr_matrix(np.array([[0.0, 1.0]]))
        with pytest.raises(ValueError, match="does not match"):
            Block(adjacency, [0, 1, 2], [0], [1.0] * 3, [1.0])
        with pytest.raises(ValueError, match="must start with dst_nodes"):
            Block(adjacency, [1, 0], [0], [1.0, 1.0], [1.0])
