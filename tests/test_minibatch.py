"""Tests for the minibatch engine: NeighborSampler blocks, block-mode
backbones, fit_minibatch, and batched inference.

The full-batch-vs-minibatch agreement tests double as an end-to-end
correctness check of the sampler: with exhaustive fanout every block
operator must reproduce the full-graph operator exactly.
"""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.fairness.metrics import accuracy
from repro.graph import (
    Block,
    NeighborSampler,
    block_gcn_matrix,
    block_mean_matrix,
    block_sum_matrix,
    gcn_normalize,
    is_block_sequence,
)
from repro.gnnzoo import make_backbone
from repro.tensor import Tensor
from repro.training import (
    embed_batched,
    fit_binary_classifier,
    fit_minibatch,
    iter_minibatches,
    predict_logits,
    predict_logits_batched,
)

BACKBONES = ("gcn", "sage", "gin", "gat")


def random_adjacency(num_nodes: int, density: float, seed: int) -> sp.csr_matrix:
    rng = np.random.default_rng(seed)
    dense = (rng.random((num_nodes, num_nodes)) < density).astype(float)
    dense = np.triu(dense, 1)
    return sp.csr_matrix(dense + dense.T)


class _LexsortSampler(NeighborSampler):
    """Reference sampler: the pre-counting-sort full-lexsort selection.

    Kept verbatim as the parity oracle — both implementations consume the
    same ``rng.random(total)`` draw, so for any shared rng stream the
    bucketed two-pass selection must keep the identical edge set.  ``calls``
    counts oracle selections, so a parity test can assert that
    ``sample_blocks`` really went through the oracle."""

    calls = 0

    def _select_edges(self, dst, fanout, rng):
        self.calls += 1
        starts = self._indptr[dst]
        counts = self._degrees[dst]
        if self.replace and fanout is not None:
            return super()._select_edges(dst, fanout, rng)
        total = int(counts.sum())
        rows = np.repeat(np.arange(dst.size), counts)
        row_starts = np.concatenate(([0], np.cumsum(counts)))[:-1]
        within = np.arange(total) - np.repeat(row_starts, counts)
        neighbors = self._indices[np.repeat(starts, counts) + within]
        if fanout is None or total == 0:
            return rows, neighbors
        keys = rng.random(total)
        order = np.lexsort((keys, rows))
        keep = order[within < fanout]
        return rows[keep], neighbors[keep]


class TestCountingSortSelectionParity:
    @settings(max_examples=40, deadline=None)
    @given(
        seed=st.integers(0, 2000),
        fanout=st.integers(1, 8),
        num_layers=st.integers(1, 3),
    )
    def test_blocks_bit_identical_to_lexsort(self, seed, fanout, num_layers):
        adjacency = random_adjacency(60, 0.05 + 0.3 * (seed % 4) / 3, seed % 7)
        fanouts = (fanout,) * num_layers
        fast = NeighborSampler(adjacency, fanouts=fanouts)
        slow = _LexsortSampler(adjacency, fanouts=fanouts)
        seeds = np.random.default_rng(seed).choice(60, size=12, replace=False)
        blocks_fast = fast.sample_blocks(seeds, np.random.default_rng(seed))
        blocks_slow = slow.sample_blocks(seeds, np.random.default_rng(seed))
        assert slow.calls == num_layers
        assert len(blocks_fast) == len(blocks_slow)
        for a, b in zip(blocks_fast, blocks_slow):
            np.testing.assert_array_equal(a.src_nodes, b.src_nodes)
            np.testing.assert_array_equal(a.dst_nodes, b.dst_nodes)
            np.testing.assert_array_equal(a.adjacency.indptr, b.adjacency.indptr)
            np.testing.assert_array_equal(a.adjacency.indices, b.adjacency.indices)
            np.testing.assert_array_equal(a.adjacency.data, b.adjacency.data)

    def test_hub_graph_parity(self):
        """Skewed degrees exercise the threshold-bucket path hard: one hub
        adjacent to everything, plus a sparse background."""
        n = 300
        rng = np.random.default_rng(0)
        dense = (rng.random((n, n)) < 0.02).astype(float)
        dense[0, 1:] = 1.0  # hub row
        dense = np.triu(dense, 1)
        adjacency = sp.csr_matrix(dense + dense.T)
        for fanout in (1, 3, 7, 50, 299):
            fast = NeighborSampler(adjacency, fanouts=(fanout,))
            slow = _LexsortSampler(adjacency, fanouts=(fanout,))
            seeds = np.arange(0, n, 3)
            (a,) = fast.sample_blocks(seeds, np.random.default_rng(fanout))
            (b,) = slow.sample_blocks(seeds, np.random.default_rng(fanout))
            assert slow.calls == 1
            np.testing.assert_array_equal(a.src_nodes, b.src_nodes)
            np.testing.assert_array_equal(a.adjacency.indptr, b.adjacency.indptr)
            np.testing.assert_array_equal(a.adjacency.indices, b.adjacency.indices)


# --------------------------------------------------------------------- #
# Block / NeighborSampler properties
# --------------------------------------------------------------------- #
class TestNeighborSamplerProperties:
    @settings(max_examples=25, deadline=None)
    @given(
        seed=st.integers(0, 1000),
        fanout=st.integers(1, 6),
        num_layers=st.integers(1, 3),
    )
    def test_block_invariants(self, seed, fanout, num_layers):
        adjacency = random_adjacency(30, 0.2, seed % 7)
        sampler = NeighborSampler(adjacency, fanouts=(fanout,) * num_layers)
        rng = np.random.default_rng(seed)
        seeds = np.random.default_rng(seed + 1).choice(30, size=8, replace=False)
        blocks = sampler.sample_blocks(seeds, rng)

        assert len(blocks) == num_layers
        # Outermost block outputs exactly the seeds.
        np.testing.assert_array_equal(blocks[-1].dst_nodes, seeds)
        for block in blocks:
            # Shared prefix: every dst is src at the same local index.
            np.testing.assert_array_equal(
                block.src_nodes[: block.num_dst], block.dst_nodes
            )
            assert block.adjacency.shape == (block.num_dst, block.num_src)
            # All ids in range, all unique within src.
            assert block.src_nodes.min() >= 0
            assert block.src_nodes.max() < 30
            assert np.unique(block.src_nodes).size == block.num_src
            # No out-of-range local column indices.
            if block.adjacency.nnz:
                assert block.adjacency.indices.max() < block.num_src
            # Fanout respected per destination.
            assert block.sampled_in_degrees().max(initial=0) <= fanout
        # Chain invariant: each layer's outputs are the next layer's inputs.
        for earlier, later in zip(blocks[:-1], blocks[1:]):
            np.testing.assert_array_equal(earlier.dst_nodes, later.src_nodes)

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 1000), fanout=st.integers(1, 5))
    def test_sampled_edges_are_real_edges(self, seed, fanout):
        adjacency = random_adjacency(25, 0.25, seed % 5)
        sampler = NeighborSampler(adjacency, fanouts=(fanout,))
        seeds = np.random.default_rng(seed).choice(25, size=6, replace=False)
        (block,) = sampler.sample_blocks(seeds, np.random.default_rng(seed))
        dense = adjacency.toarray()
        coo = block.adjacency.tocoo()
        for row, col in zip(coo.row, coo.col):
            assert dense[block.dst_nodes[row], block.src_nodes[col]] == 1

    def test_deterministic_under_fixed_seed(self):
        adjacency = random_adjacency(40, 0.2, 3)
        sampler = NeighborSampler(adjacency, fanouts=(3, 2))
        seeds = np.arange(0, 40, 5)
        first = sampler.sample_blocks(seeds, np.random.default_rng(99))
        second = sampler.sample_blocks(seeds, np.random.default_rng(99))
        for a, b in zip(first, second):
            np.testing.assert_array_equal(a.src_nodes, b.src_nodes)
            assert (a.adjacency != b.adjacency).nnz == 0

    def test_full_fanout_keeps_every_neighbor(self, tiny_adjacency):
        sampler = NeighborSampler.full_neighborhood(tiny_adjacency, 1)
        (block,) = sampler.sample_blocks(np.arange(6), np.random.default_rng(0))
        np.testing.assert_array_equal(
            block.sampled_in_degrees(), np.diff(tiny_adjacency.indptr)
        )

    def test_with_replacement_multiplicity(self, tiny_adjacency):
        sampler = NeighborSampler(tiny_adjacency, fanouts=(5,), replace=True)
        (block,) = sampler.sample_blocks(np.array([0]), np.random.default_rng(0))
        # Node 0 has two neighbours; five draws with replacement must repeat.
        assert block.sampled_in_degrees()[0] == 5
        assert block.adjacency.data.max() > 1

    def test_isolated_seed_gets_empty_row(self):
        adjacency = sp.csr_matrix((4, 4))
        sampler = NeighborSampler(adjacency, fanouts=(3,))
        (block,) = sampler.sample_blocks(np.array([2]), np.random.default_rng(0))
        assert block.adjacency.nnz == 0
        assert block.num_src == 1  # just the seed itself

    def test_rejects_self_loop_adjacency(self, tiny_adjacency):
        # Stored diagonals would be double-counted against the block
        # operators' own self-loop handling (exactness contract).
        looped = tiny_adjacency.tolil(copy=True)
        looped.setdiag(1.0)
        with pytest.raises(ValueError, match="zero diagonal"):
            NeighborSampler(looped.tocsr(), fanouts=(2,))

    def test_rejects_bad_inputs(self, tiny_adjacency):
        with pytest.raises(ValueError):
            NeighborSampler(tiny_adjacency, fanouts=())
        with pytest.raises(ValueError):
            NeighborSampler(tiny_adjacency, fanouts=(0,))
        sampler = NeighborSampler(tiny_adjacency, fanouts=(2,))
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            sampler.sample_blocks(np.array([], dtype=np.int64), rng)
        with pytest.raises(ValueError):
            sampler.sample_blocks(np.array([0, 0]), rng)
        with pytest.raises(ValueError):
            sampler.sample_blocks(np.array([17]), rng)

    def test_rejects_non_square_adjacency(self):
        with pytest.raises(ValueError, match="square"):
            NeighborSampler(sp.csr_matrix((4, 5)), fanouts=(2,))

    def test_full_neighborhood_needs_a_layer(self, tiny_adjacency):
        with pytest.raises(ValueError, match="num_layers"):
            NeighborSampler.full_neighborhood(tiny_adjacency, 0)

    def test_sample_blocks_without_rng(self, tiny_adjacency):
        sampler = NeighborSampler.full_neighborhood(tiny_adjacency, 2)
        seeds = np.array([4, 1])
        blocks = sampler.sample_blocks(seeds)
        np.testing.assert_array_equal(blocks[-1].dst_nodes, seeds)
        # A full fanout draws nothing, so fresh entropy changes no block.
        seeded = sampler.sample_blocks(seeds, np.random.default_rng(0))
        for block, expected in zip(blocks, seeded):
            np.testing.assert_array_equal(block.src_nodes, expected.src_nodes)
            assert (block.adjacency != expected.adjacency).nnz == 0

    def test_block_validates_prefix(self):
        with pytest.raises(ValueError):
            Block(
                adjacency=sp.csr_matrix((2, 3)),
                src_nodes=np.array([5, 1, 2]),
                dst_nodes=np.array([0, 1]),
                src_degrees=np.ones(3),
                dst_degrees=np.ones(2),
            )

    def test_is_block_sequence(self, tiny_adjacency):
        sampler = NeighborSampler(tiny_adjacency, fanouts=(2,))
        blocks = sampler.sample_blocks(np.array([0, 3]), np.random.default_rng(0))
        assert is_block_sequence(blocks)
        assert not is_block_sequence(tiny_adjacency)
        assert not is_block_sequence([])


# --------------------------------------------------------------------- #
# block operators
# --------------------------------------------------------------------- #
class TestBlockOperators:
    def test_gcn_matrix_matches_full_normalisation(self):
        adjacency = random_adjacency(20, 0.3, 0)
        sampler = NeighborSampler.full_neighborhood(adjacency, 1)
        seeds = np.array([0, 7, 13])
        (block,) = sampler.sample_blocks(seeds, np.random.default_rng(0))
        full = gcn_normalize(adjacency).toarray()
        sliced = full[np.ix_(block.dst_nodes, block.src_nodes)]
        np.testing.assert_allclose(
            block_gcn_matrix(block).toarray(), sliced, atol=1e-12
        )

    def test_mean_matrix_rows_sum_to_one(self):
        adjacency = random_adjacency(20, 0.3, 1)
        sampler = NeighborSampler(adjacency, fanouts=(3,))
        (block,) = sampler.sample_blocks(
            np.arange(10), np.random.default_rng(0)
        )
        sums = np.asarray(block_mean_matrix(block).sum(axis=1)).reshape(-1)
        degrees = np.diff(adjacency.indptr)[:10]
        np.testing.assert_allclose(sums[degrees > 0], 1.0)
        np.testing.assert_allclose(sums[degrees == 0], 0.0)

    def test_integer_adjacency_block_is_coerced_to_float(self):
        # A user-built block from an int 0/1 adjacency must not truncate the
        # reciprocal/ratio scaling of the mean/sum operators to zero.
        block = Block(
            adjacency=sp.csr_matrix(np.array([[1, 1, 1]], dtype=np.int64)),
            src_nodes=np.array([0, 1, 2]),
            dst_nodes=np.array([0]),
            src_degrees=np.array([3.0, 1.0, 1.0]),
            dst_degrees=np.array([3.0]),
        )
        np.testing.assert_allclose(
            block_mean_matrix(block).toarray(), [[1 / 3, 1 / 3, 1 / 3]]
        )
        np.testing.assert_allclose(block_sum_matrix(block).toarray(), [[1, 1, 1]])

    def test_sum_matrix_unbiased_scaling(self):
        adjacency = random_adjacency(20, 0.5, 2)
        sampler = NeighborSampler(adjacency, fanouts=(2,))
        (block,) = sampler.sample_blocks(np.arange(8), np.random.default_rng(0))
        sums = np.asarray(block_sum_matrix(block).sum(axis=1)).reshape(-1)
        # Each row's scaled sampled-count equals the true degree.
        np.testing.assert_allclose(sums, np.diff(adjacency.indptr)[:8])


# --------------------------------------------------------------------- #
# full-batch vs minibatch agreement
# --------------------------------------------------------------------- #
class TestFullBatchAgreement:
    @pytest.mark.parametrize("backbone", BACKBONES)
    @pytest.mark.parametrize("num_layers", [1, 2])
    def test_exact_logits_under_full_fanout(self, backbone, num_layers):
        adjacency = random_adjacency(35, 0.15, 4)
        rng = np.random.default_rng(5)
        features = rng.normal(size=(35, 6))
        model = make_backbone(
            backbone, 6, 8, np.random.default_rng(8), num_layers=num_layers
        )
        model.eval()
        full = model(Tensor(features), adjacency).data
        sampler = NeighborSampler.full_neighborhood(adjacency, num_layers)
        seeds = np.array([0, 9, 17, 34])
        blocks = sampler.sample_blocks(seeds, np.random.default_rng(0))
        mini = model(Tensor(features[blocks[0].src_nodes]), blocks).data
        np.testing.assert_allclose(mini, full[seeds], atol=1e-10)

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_block_dropout_only_in_training(self, backbone):
        adjacency = random_adjacency(30, 0.2, 2)
        features = np.random.default_rng(3).normal(size=(30, 6))
        model = make_backbone(
            backbone, 6, 8, np.random.default_rng(4), dropout=0.5
        )
        sampler = NeighborSampler.full_neighborhood(adjacency, model.num_layers)
        blocks = sampler.sample_blocks(np.arange(10), np.random.default_rng(0))
        inputs = Tensor(features[blocks[0].src_nodes])
        model.eval()
        first = model(inputs, blocks).data
        np.testing.assert_array_equal(model(inputs, blocks).data, first)
        model.train()
        assert not np.array_equal(model(inputs, blocks).data, first)

    @pytest.mark.parametrize("backbone", BACKBONES)
    def test_block_chain_is_validated(self, backbone):
        adjacency = random_adjacency(30, 0.2, 2)
        features = np.random.default_rng(3).normal(size=(30, 6))
        model = make_backbone(
            backbone, 6, 8, np.random.default_rng(4), num_layers=2
        )
        sampler = NeighborSampler.full_neighborhood(adjacency, 2)
        blocks = sampler.sample_blocks(np.arange(5), np.random.default_rng(0))
        inputs = Tensor(features[blocks[0].src_nodes])
        with pytest.raises(ValueError, match="2 layers but got 1 blocks"):
            model(Tensor(features[blocks[1].src_nodes]), blocks[1:])
        with pytest.raises(ValueError, match="rows"):
            model(Tensor(features), blocks)
        other = sampler.sample_blocks(np.arange(20, 25), np.random.default_rng(0))
        with pytest.raises(ValueError, match="block chain broken"):
            model(inputs, [blocks[0], other[1]])

    def test_predict_logits_batched_matches_full(self, small_graph):
        model = make_backbone(
            "sage", small_graph.num_features, 16, np.random.default_rng(0)
        )
        full = predict_logits(model, Tensor(small_graph.features), small_graph.adjacency)
        batched = predict_logits_batched(
            model, small_graph.features, small_graph.adjacency, batch_size=37
        )
        np.testing.assert_allclose(batched, full, atol=1e-10)

    def test_gradients_flow_through_blocks(self):
        adjacency = random_adjacency(20, 0.3, 6)
        features = np.random.default_rng(0).normal(size=(20, 5))
        model = make_backbone("sage", 5, 8, np.random.default_rng(1))
        sampler = NeighborSampler(adjacency, fanouts=(4,))
        blocks = sampler.sample_blocks(np.arange(6), np.random.default_rng(2))
        logits = model(Tensor(features[blocks[0].src_nodes]), blocks)
        logits.sum().backward()
        grads = [p.grad for p in model.parameters()]
        assert all(g is not None for g in grads)
        assert any(np.abs(g).max() > 0 for g in grads)


class TestNodeIds:
    """Both inference helpers read node ids the same way in both modes."""

    HELPERS = pytest.mark.parametrize(
        "helper", [predict_logits_batched, embed_batched], ids=["logits", "embed"]
    )
    MODES = pytest.mark.parametrize("batch_size", [None, 7], ids=["fullbatch", "sampled"])

    @staticmethod
    def _args(graph):
        model = make_backbone("gcn", graph.num_features, 8, np.random.default_rng(0))
        return model, graph.features, graph.adjacency

    @HELPERS
    @MODES
    def test_repeated_ids_answered_row_for_row(self, small_graph, helper, batch_size):
        args = self._args(small_graph)
        nodes = np.array([2, 2, 5, 2, 0, 5])
        out = helper(*args, nodes=nodes, batch_size=batch_size)
        # Each distinct id is computed once, in first-occurrence order.
        once = helper(*args, nodes=np.array([2, 5, 0]), batch_size=batch_size)
        np.testing.assert_array_equal(out, once[[0, 0, 1, 0, 2, 1]])
        every = helper(*args, batch_size=batch_size)
        np.testing.assert_allclose(out, every[nodes], atol=1e-10)

    def test_empty_embedding_request_raises(self, small_graph):
        args = self._args(small_graph)
        with pytest.raises(ValueError, match="non-empty"):
            embed_batched(*args, nodes=np.array([], dtype=np.int64), batch_size=7)

    def test_integer_features_are_promoted(self, small_graph):
        model, _, adjacency = self._args(small_graph)
        counts = np.random.default_rng(0).integers(
            0, 4, size=small_graph.features.shape
        )
        from_ints = predict_logits_batched(model, counts, adjacency, batch_size=64)
        from_floats = predict_logits_batched(
            model, counts.astype(np.float64), adjacency, batch_size=64
        )
        np.testing.assert_array_equal(from_ints, from_floats)

    def test_model_without_num_layers_needs_an_explicit_count(self, small_graph):
        from repro.nn import Linear

        model = Linear(small_graph.num_features, 1, np.random.default_rng(0))
        with pytest.raises(ValueError, match="num_layers"):
            predict_logits_batched(
                model, small_graph.features, small_graph.adjacency, batch_size=8
            )

    @HELPERS
    @MODES
    def test_ids_outside_the_graph_raise(self, small_graph, helper, batch_size):
        args = self._args(small_graph)
        n = small_graph.num_nodes
        for bad in (-1, n):
            with pytest.raises(ValueError, match=rf"node ids must be in \[0, {n}\)"):
                helper(*args, nodes=np.array([0, bad]), batch_size=batch_size)


# --------------------------------------------------------------------- #
# fit_minibatch
# --------------------------------------------------------------------- #
class TestFitMinibatch:
    def test_iter_minibatches_partitions(self):
        batches = list(iter_minibatches(np.arange(10), 4))
        assert [b.size for b in batches] == [4, 4, 2]
        np.testing.assert_array_equal(np.concatenate(batches), np.arange(10))

    def test_iter_minibatches_shuffles_with_rng(self):
        batches = list(iter_minibatches(np.arange(10), 10, np.random.default_rng(0)))
        assert sorted(batches[0].tolist()) == list(range(10))

    def test_history_contract(self, small_graph):
        model = make_backbone(
            "gcn", small_graph.num_features, 8, np.random.default_rng(0)
        )
        history = fit_minibatch(
            model,
            small_graph.features,
            small_graph.adjacency,
            small_graph.labels,
            small_graph.train_mask,
            small_graph.val_mask,
            epochs=5,
            fanouts=(5,),
            batch_size=64,
            rng=0,
        )
        assert history.epochs_run == 5
        assert len(history.val_accuracy) == 5
        assert 0 <= history.best_epoch < 5
        assert history.best_val_accuracy == max(history.val_accuracy)

    def test_early_stopping(self, small_graph):
        model = make_backbone(
            "gcn", small_graph.num_features, 8, np.random.default_rng(0)
        )
        history = fit_minibatch(
            model,
            small_graph.features,
            small_graph.adjacency,
            small_graph.labels,
            small_graph.train_mask,
            small_graph.val_mask,
            epochs=200,
            fanouts=(5,),
            batch_size=64,
            patience=3,
            rng=0,
        )
        assert history.stopped_early
        assert history.epochs_run < 200

    def test_rejects_mismatched_fanouts(self, small_graph):
        model = make_backbone(
            "gcn", small_graph.num_features, 8, np.random.default_rng(0)
        )
        with pytest.raises(ValueError):
            fit_minibatch(
                model,
                small_graph.features,
                small_graph.adjacency,
                small_graph.labels,
                small_graph.train_mask,
                small_graph.val_mask,
                epochs=1,
                fanouts=(5, 5),
            )

    @pytest.mark.parametrize("backbone", ["gcn", "sage"])
    def test_accuracy_within_two_points_of_full_batch(self, small_graph, backbone):
        """The ISSUE acceptance criterion, on the shared small graph."""
        test_labels = small_graph.labels[small_graph.test_mask]

        full_model = make_backbone(
            backbone, small_graph.num_features, 16, np.random.default_rng(0)
        )
        fit_binary_classifier(
            full_model,
            Tensor(small_graph.features),
            small_graph.adjacency,
            small_graph.labels,
            small_graph.train_mask,
            small_graph.val_mask,
            epochs=100,
            patience=30,
        )
        full_logits = predict_logits(
            full_model, Tensor(small_graph.features), small_graph.adjacency
        )
        full_acc = accuracy(
            (full_logits[small_graph.test_mask] > 0).astype(np.int64), test_labels
        )

        mini_model = make_backbone(
            backbone, small_graph.num_features, 16, np.random.default_rng(0)
        )
        fit_minibatch(
            mini_model,
            small_graph.features,
            small_graph.adjacency,
            small_graph.labels,
            small_graph.train_mask,
            small_graph.val_mask,
            epochs=100,
            fanouts=(10,),
            batch_size=64,
            patience=30,
            rng=0,
        )
        mini_logits = predict_logits_batched(
            mini_model, small_graph.features, small_graph.adjacency
        )
        mini_acc = accuracy(
            (mini_logits[small_graph.test_mask] > 0).astype(np.int64), test_labels
        )
        assert mini_acc >= full_acc - 0.02  # within 2 accuracy points


@pytest.mark.slow
def test_minibatch_sage_on_100k_node_graph():
    """Acceptance criterion: a full fit_minibatch run on a >=100k-node graph.

    Memory stays bounded by construction (only block-sized activations are
    created); this test checks the engine actually completes at scale.
    """
    from repro.datasets import generate_scale_free_graph

    graph = generate_scale_free_graph(
        100_000, num_features=12, average_degree=8, seed=0
    )
    model = make_backbone(
        "sage", graph.num_features, 16, np.random.default_rng(0), num_layers=2
    )
    history = fit_minibatch(
        model,
        graph.features,
        graph.adjacency,
        graph.labels,
        graph.train_mask,
        graph.val_mask,
        epochs=2,
        fanouts=(10, 5),
        batch_size=1024,
        rng=0,
    )
    assert history.epochs_run == 2
    assert history.best_val_accuracy > 0.5
