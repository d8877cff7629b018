"""Tests for the GNN backbones."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnnzoo import GAT, GCN, GIN, GraphSAGE, make_backbone
from repro.tensor import Tensor
from repro.tensor import ops

BACKBONES = ["gcn", "gin", "gat", "sage"]


@pytest.fixture
def features(tiny_graph):
    return Tensor(tiny_graph.features)


class TestFactory:
    def test_registry(self):
        assert isinstance(make_backbone("gcn", 4, 8, np.random.default_rng(0)), GCN)
        assert isinstance(make_backbone("GIN", 4, 8, np.random.default_rng(0)), GIN)
        assert isinstance(make_backbone("gat", 4, 8, np.random.default_rng(0)), GAT)
        assert isinstance(
            make_backbone("sage", 4, 8, np.random.default_rng(0)), GraphSAGE
        )

    def test_unknown_name(self):
        with pytest.raises(ValueError, match="unknown backbone"):
            make_backbone("transformer", 4, 8, np.random.default_rng(0))


@pytest.mark.parametrize("name", BACKBONES)
class TestBackboneContract:
    def test_logit_shape(self, name, tiny_graph, features):
        model = make_backbone(name, 4, 8, np.random.default_rng(0))
        assert model(features, tiny_graph.adjacency).shape == (6,)

    def test_embed_shape(self, name, tiny_graph, features):
        model = make_backbone(name, 4, 8, np.random.default_rng(0))
        assert model.embed(features, tiny_graph.adjacency).shape == (6, 8)

    def test_all_parameters_receive_gradients(self, name, tiny_graph, features):
        model = make_backbone(name, 4, 8, np.random.default_rng(0))
        loss = ops.mean(ops.power(model(features, tiny_graph.adjacency), 2.0))
        loss.backward()
        missing = [
            pname for pname, p in model.named_parameters() if p.grad is None
        ]
        assert not missing, f"no gradient for {missing}"

    def test_deterministic_given_seed(self, name, tiny_graph, features):
        out1 = make_backbone(name, 4, 8, np.random.default_rng(7))(
            features, tiny_graph.adjacency
        )
        out2 = make_backbone(name, 4, 8, np.random.default_rng(7))(
            features, tiny_graph.adjacency
        )
        np.testing.assert_allclose(out1.data, out2.data)

    def test_two_layers(self, name, tiny_graph, features):
        model = make_backbone(name, 4, 8, np.random.default_rng(0), num_layers=2)
        assert model(features, tiny_graph.adjacency).shape == (6,)

    def test_rejects_zero_layers(self, name):
        with pytest.raises(ValueError):
            make_backbone(name, 4, 8, np.random.default_rng(0), num_layers=0)

    def test_dropout_only_in_training(self, name, tiny_graph, features):
        model = make_backbone(name, 4, 8, np.random.default_rng(0), dropout=0.5)
        model.eval()
        out1 = model(features, tiny_graph.adjacency)
        out2 = model(features, tiny_graph.adjacency)
        np.testing.assert_allclose(out1.data, out2.data)


class TestMessagePassingSemantics:
    def test_gcn_isolated_node_keeps_self_signal(self, tiny_graph):
        # With self-loops an isolated node's embedding depends only on itself.
        import scipy.sparse as sp

        adj = sp.csr_matrix((3, 3))
        model = GCN(2, 4, np.random.default_rng(0))
        feats = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 0.0]])
        out = model.embed(Tensor(feats), adj)
        np.testing.assert_allclose(out.data[2], np.maximum(model.layers[0].bias.data, 0.0))

    def test_gin_sum_aggregation(self):
        # Star graph: centre sees the sum of leaves (+ (1+eps)*self).
        import scipy.sparse as sp

        adj = sp.csr_matrix(
            (np.ones(6), ([0, 0, 0, 1, 2, 3], [1, 2, 3, 0, 0, 0])), shape=(4, 4)
        )
        model = GIN(1, 4, np.random.default_rng(0))
        feats = np.array([[0.0], [1.0], [2.0], [3.0]])
        # Pre-MLP aggregation for the centre node is (1+0)*0 + (1+2+3) = 6.
        matrix = model._propagation_matrix(adj)
        agg = matrix @ feats
        assert agg[0, 0] == pytest.approx(6.0)

    def test_gat_attention_rows_normalised(self, tiny_graph):
        model = GAT(4, 8, np.random.default_rng(0))
        feats = Tensor(np.random.default_rng(1).normal(size=(6, 4)))
        src, dst = model._edges(tiny_graph.adjacency)
        # With self-loops every node has at least one incoming edge.
        assert set(dst) == set(range(6))
        out = model.embed(feats, tiny_graph.adjacency)
        assert np.isfinite(out.data).all()

    def test_sage_separate_self_and_neighbor_weights(self, tiny_graph):
        model = GraphSAGE(4, 8, np.random.default_rng(0))
        assert len(model.self_layers) == 1
        assert len(model.neighbor_layers) == 1
        assert model.neighbor_layers[0].bias is None

    def test_propagation_cache_reused(self, tiny_graph):
        model = GCN(4, 8, np.random.default_rng(0))
        feats = Tensor(np.zeros((6, 4)))
        model.embed(feats, tiny_graph.adjacency)
        cached = model._prop_cache[id(tiny_graph.adjacency)]
        model.embed(feats, tiny_graph.adjacency)
        assert model._prop_cache[id(tiny_graph.adjacency)] is cached

    def test_propagation_cache_ignores_recycled_ids(self, tiny_graph):
        """An id-only key would serve a freed matrix's operator to a new
        matrix that happens to reuse its id (NIFTY's per-epoch edge-dropped
        adjacency did, making its runs irreproducible)."""
        model = GCN(4, 8, np.random.default_rng(0))
        stale = tiny_graph.adjacency.copy()
        fresh = tiny_graph.adjacency.copy()
        fresh.data[:] = 2.0
        # Plant the stale entry under the fresh matrix's id, as if ``stale``
        # had been freed and its id handed to ``fresh``.
        model._cached_propagation(stale)
        model._prop_cache[id(fresh)] = model._prop_cache.pop(id(stale))
        got = model._cached_propagation(fresh)
        expected = GCN(4, 8, np.random.default_rng(0))._propagation_matrix(fresh)
        assert (got != expected).nnz == 0

    def test_head_maps_hidden_to_logit(self, tiny_graph):
        model = GCN(4, 8, np.random.default_rng(0))
        feats = Tensor(np.random.default_rng(2).normal(size=(6, 4)))
        h = model.embed(feats, tiny_graph.adjacency)
        logits = model.head(h).reshape(-1)
        np.testing.assert_allclose(
            logits.data, model(feats, tiny_graph.adjacency).data
        )
