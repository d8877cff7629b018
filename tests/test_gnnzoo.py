"""Tests for the GNN backbones."""

from __future__ import annotations

import weakref

import numpy as np
import pytest

from repro.core import EncoderModule, FairwosConfig, FairwosTrainer
from repro.gnnzoo import GAT, GCN, GIN, GraphSAGE, make_backbone
from repro.gnnzoo.base import GNNBackbone
from repro.tensor import Tensor, dtype_scope
from repro.tensor import ops
from repro.training import embed_batched, fit_minibatch, predict_logits_batched

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

    def test_base_class_leaves_message_passing_abstract(self, tiny_graph, features):
        model = GNNBackbone(8, np.random.default_rng(0))
        with pytest.raises(NotImplementedError):
            model(features, tiny_graph.adjacency)
        with pytest.raises(NotImplementedError):
            model.embed_blocks(features, [])
        with pytest.raises(NotImplementedError):
            model._propagation_matrix(tiny_graph.adjacency)


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


def _spmm_every_call(self, matrix, h):
    """The un-memoised aggregation: a fresh ``ops.spmm`` on every call."""
    return ops.spmm(matrix, h)


@pytest.fixture
def count_spmm(monkeypatch):
    """Count every ``ops.spmm`` call made after the fixture is requested."""
    calls = []
    spmm = ops.spmm

    def counting(matrix, dense):
        calls.append(None)
        return spmm(matrix, dense)

    monkeypatch.setattr(ops, "spmm", counting)
    return calls


def _fit_fullbatch(name, dtype, graph, epochs=6):
    """A multi-epoch full-batch fit; returns everything it produced."""
    with dtype_scope(dtype):
        model = make_backbone(name, graph.num_features, 8, np.random.default_rng(0))
        history = fit_minibatch(
            model,
            graph.features,
            graph.adjacency,
            graph.labels,
            graph.train_mask,
            graph.val_mask,
            epochs=epochs,
            batch_size=None,
            lr=0.05,
            rng=0,
        )
        logits = predict_logits_batched(
            model, graph.features, graph.adjacency, batch_size=None
        )
    return model.state_dict(), history, logits


class TestPropagationMemo:
    """The one-slot memo of the first layer's full-graph aggregation."""

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("name", ["gcn", "sage", "gin"])
    def test_fullbatch_fit_bit_identical_to_fresh_products(
        self, name, dtype, small_graph, monkeypatch
    ):
        memo_state, memo_history, memo_logits = _fit_fullbatch(name, dtype, small_graph)
        monkeypatch.setattr(GNNBackbone, "_propagate", _spmm_every_call)
        state, history, logits = _fit_fullbatch(name, dtype, small_graph)
        assert memo_state.keys() == state.keys()
        for key, value in state.items():
            assert memo_state[key].dtype == value.dtype == np.dtype(dtype)
            np.testing.assert_array_equal(memo_state[key], value, err_msg=key)
        assert memo_history.train_loss == history.train_loss
        assert memo_history.val_accuracy == history.val_accuracy
        assert memo_logits.dtype == logits.dtype
        np.testing.assert_array_equal(memo_logits, logits)

    def test_fullbatch_fairwos_fit_bit_identical(self, small_graph, monkeypatch):
        config = FairwosConfig(
            encoder_epochs=8,
            classifier_epochs=8,
            finetune_epochs=3,
            patience=None,
            top_k=2,
            encoder_dim=4,
        )

        def fit():
            trainer = FairwosTrainer(config)
            result = trainer.fit(small_graph, seed=0)
            return result, trainer.classifier.state_dict(), trainer.predict(small_graph)

        memo_result, memo_state, memo_logits = fit()
        monkeypatch.setattr(GNNBackbone, "_propagate", _spmm_every_call)
        result, state, logits = fit()
        np.testing.assert_array_equal(memo_logits, logits)
        for key, value in state.items():
            np.testing.assert_array_equal(memo_state[key], value, err_msg=key)
        np.testing.assert_array_equal(
            memo_result.pseudo_attributes, result.pseudo_attributes
        )
        np.testing.assert_array_equal(
            memo_result.lambda_weights, result.lambda_weights
        )
        assert memo_result.history == result.history
        assert memo_result.counterfactual_coverage == result.counterfactual_coverage

    def test_fullbatch_fit_aggregates_input_at_most_twice(
        self, small_graph, count_spmm
    ):
        """Ten training steps and ten validation passes share one product."""
        model = GCN(small_graph.num_features, 8, np.random.default_rng(0))
        fit_minibatch(
            model,
            small_graph.features,
            small_graph.adjacency,
            small_graph.labels,
            small_graph.train_mask,
            small_graph.val_mask,
            epochs=10,
            batch_size=None,
            rng=0,
        )
        assert 1 <= len(count_spmm) <= 2

    def test_grad_input_gets_fresh_product_every_step(self, tiny_graph, count_spmm):
        model = GCN(4, 8, np.random.default_rng(0))
        features = Tensor(tiny_graph.features, requires_grad=True)
        for _ in range(3):
            model(features, tiny_graph.adjacency)
        assert len(count_spmm) == 3
        assert model._propagated is None

    def test_dropout_step_gets_fresh_product_every_step(self, tiny_graph, count_spmm):
        model = GCN(4, 8, np.random.default_rng(0), dropout=0.5)
        features = Tensor(tiny_graph.features)
        outputs = [model(features, tiny_graph.adjacency).data for _ in range(3)]
        assert len(count_spmm) == 3
        # Each step aggregated its own dropped-out input.
        assert not np.array_equal(outputs[0], outputs[1])

    @pytest.mark.parametrize("infer", [predict_logits_batched, embed_batched])
    def test_one_shot_inference_leaves_memo_empty(self, small_graph, infer):
        model = GCN(small_graph.num_features, 8, np.random.default_rng(0))
        infer(model, small_graph.features, small_graph.adjacency, batch_size=None)
        assert model._propagated is None

    def test_sampled_pretrain_and_extract_leave_memo_empty(self, small_graph):
        encoder = EncoderModule(small_graph.num_features, 4, np.random.default_rng(0))
        features = Tensor(small_graph.features)
        encoder.pretrain(
            features,
            small_graph.adjacency,
            small_graph.labels,
            small_graph.train_mask,
            small_graph.val_mask,
            epochs=2,
            minibatch=True,
            batch_size=64,
            rng=np.random.default_rng(0),
        )
        assert encoder.network._propagated is None
        encoder.extract(features, small_graph.adjacency)
        assert encoder.network._propagated is None

    def test_memo_ignores_recycled_arrays(self, tiny_graph):
        """A new input array must never be served a dead array's product,
        even if it reuses the dead array's ``id``."""
        model = GCN(4, 8, np.random.default_rng(0))
        a_hat = model._cached_propagation(tiny_graph.adjacency)
        stale = np.ones((6, 4))
        stale_product = ops.spmm(a_hat, Tensor(stale))
        # Plant the stale entry, then free its array, as if ``fresh`` were
        # about to be allocated where ``stale`` lived.
        model._propagated = (weakref.ref(a_hat), weakref.ref(stale), stale_product)
        del stale
        assert model._propagated[1]() is None
        fresh = Tensor(np.full((6, 4), 2.0))
        got = model._propagate(a_hat, fresh)
        assert got is not stale_product
        np.testing.assert_array_equal(got.data, ops.spmm(a_hat, fresh).data)
        assert model._propagated[1]() is fresh.data
