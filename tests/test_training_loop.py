"""Tests for the full-batch training recipe on the shared engine.

Besides the behavioural contract of :func:`fit_binary_classifier`, this file
keeps a test-local copy of the hand-written full-batch loop it replaced
(:func:`_reference_fit`) as a bitwise oracle: the engine-backed fit must
leave the same weights and the same :class:`FitHistory`, bit for bit.
"""

from __future__ import annotations

import copy
import dataclasses

import numpy as np
import pytest

from repro.baselines import KSMOTE
from repro.fairness.metrics import accuracy
from repro.gnnzoo import make_backbone
from repro.graph.sampling import NeighborSampler
from repro.nn import binary_cross_entropy_with_logits
from repro.optim import Adam
from repro.tensor import Tensor
from repro.tensor import ops
from repro.training import (
    FitHistory,
    MinibatchEngine,
    fit_binary_classifier,
    predict_logits,
)


@pytest.fixture
def setup(small_graph):
    model = make_backbone(
        "gcn", small_graph.num_features, 16, np.random.default_rng(0)
    )
    return model, Tensor(small_graph.features), small_graph


class TestFitBinaryClassifier:
    def test_training_improves_over_initial(self, setup):
        model, features, graph = setup
        initial = predict_logits(model, features, graph.adjacency)
        initial_acc = (
            ((initial[graph.val_mask] > 0).astype(int) == graph.labels[graph.val_mask])
            .mean()
        )
        history = fit_binary_classifier(
            model, features, graph.adjacency, graph.labels,
            graph.train_mask, graph.val_mask, epochs=60,
        )
        assert history.best_val_accuracy >= initial_acc

    def test_loss_decreases(self, setup):
        model, features, graph = setup
        history = fit_binary_classifier(
            model, features, graph.adjacency, graph.labels,
            graph.train_mask, graph.val_mask, epochs=50,
        )
        assert history.train_loss[-1] < history.train_loss[0]

    def test_best_state_restored(self, setup):
        model, features, graph = setup
        history = fit_binary_classifier(
            model, features, graph.adjacency, graph.labels,
            graph.train_mask, graph.val_mask, epochs=40,
        )
        logits = predict_logits(model, features, graph.adjacency)
        val_acc = (
            ((logits[graph.val_mask] > 0).astype(int) == graph.labels[graph.val_mask])
            .mean()
        )
        assert val_acc == pytest.approx(history.best_val_accuracy)

    def test_early_stopping_stops(self, setup):
        model, features, graph = setup
        history = fit_binary_classifier(
            model, features, graph.adjacency, graph.labels,
            graph.train_mask, graph.val_mask, epochs=500, patience=3,
        )
        assert history.epochs_run < 500
        assert history.stopped_early

    def test_no_patience_runs_all_epochs(self, setup):
        model, features, graph = setup
        history = fit_binary_classifier(
            model, features, graph.adjacency, graph.labels,
            graph.train_mask, graph.val_mask, epochs=15, patience=None,
        )
        assert history.epochs_run == 15
        assert not history.stopped_early

    def test_extra_loss_hook_called(self, setup):
        model, features, graph = setup
        calls = []

        def hook(logits, nodes):
            calls.append(1)
            # Full-batch: the hook sees every node's logit.
            np.testing.assert_array_equal(nodes, np.arange(graph.num_nodes))
            assert logits.shape == (graph.num_nodes,)
            return ops.mul(ops.mean(ops.power(logits, 2.0)), 0.01)

        fit_binary_classifier(
            model, features, graph.adjacency, graph.labels,
            graph.train_mask, graph.val_mask, epochs=5, extra_loss=hook,
        )
        assert len(calls) == 5

    def test_rejects_empty_masks(self, setup):
        model, features, graph = setup
        with pytest.raises(ValueError):
            fit_binary_classifier(
                model, features, graph.adjacency, graph.labels,
                np.zeros(graph.num_nodes, dtype=bool), graph.val_mask, epochs=5,
            )

    def test_rejects_zero_epochs(self, setup):
        model, features, graph = setup
        with pytest.raises(ValueError):
            fit_binary_classifier(
                model, features, graph.adjacency, graph.labels,
                graph.train_mask, graph.val_mask, epochs=0,
            )

    def test_predict_logits_mode_restoration(self, setup):
        model, features, graph = setup
        model.train()
        predict_logits(model, features, graph.adjacency)
        assert model.training
        model.eval()
        predict_logits(model, features, graph.adjacency)
        assert not model.training


# --------------------------------------------------------------------- #
# bitwise oracle
# --------------------------------------------------------------------- #
def _reference_fit(
    model, features, adjacency, labels, train_mask, val_mask, epochs,
    lr=1e-3, weight_decay=0.0, patience=None, extra_loss=None,
) -> FitHistory:
    """The hand-written full-batch loop ``fit_binary_classifier`` ran before
    it moved onto the engine (``extra_loss`` then took the logits only)."""
    labels = np.asarray(labels)
    optimizer = Adam(model.parameters(), lr=lr, weight_decay=weight_decay)
    history = FitHistory()
    best_state = model.state_dict()
    train_indices = np.where(train_mask)[0]
    train_labels = labels[train_indices].astype(np.float64)
    since_best = 0
    for epoch in range(epochs):
        model.train()
        optimizer.zero_grad()
        logits = model(features, adjacency)
        loss = binary_cross_entropy_with_logits(logits[train_indices], train_labels)
        if extra_loss is not None:
            loss = loss + extra_loss(logits)
        loss.backward()
        optimizer.step()

        val_logits = predict_logits(model, features, adjacency)[val_mask]
        val_acc = accuracy((val_logits > 0).astype(np.int64), labels[val_mask])
        history.train_loss.append(float(loss.data))
        history.val_accuracy.append(val_acc)
        if val_acc > history.best_val_accuracy:
            history.best_val_accuracy = val_acc
            history.best_epoch = epoch
            best_state = model.state_dict()
            since_best = 0
        else:
            since_best += 1
            if patience is not None and since_best > patience:
                history.stopped_early = True
                break
    model.load_state_dict(best_state)
    return history


def _reference_parity(clusters: np.ndarray, num_clusters: int, weight: float):
    """KSMOTE's full-batch parity penalty as it stood next to the reference
    loop: per-cluster masks precomputed over every node, ``(logits) -> Tensor``."""
    num_nodes = clusters.size
    masks = []
    for cluster in range(num_clusters):
        mask = np.zeros(num_nodes)
        members = np.where(clusters == cluster)[0]
        if members.size:
            mask[members] = 1.0 / members.size
        masks.append(mask)
    overall = np.full(num_nodes, 1.0 / num_nodes)

    def regulariser(logits):
        probs = ops.sigmoid(logits)
        mean_all = ops.sum(ops.mul(probs, Tensor(overall)))
        penalty = None
        for mask in masks:
            if mask.sum() == 0:
                continue
            gap = ops.sub(ops.sum(ops.mul(probs, Tensor(mask))), mean_all)
            term = ops.power(gap, 2.0)
            penalty = term if penalty is None else ops.add(penalty, term)
        return ops.mul(penalty, weight)

    return regulariser


class TestEngineMatchesReferenceLoop:
    @pytest.mark.parametrize("penalty", [False, True], ids=["bce", "parity"])
    @pytest.mark.parametrize("patience", [None, 5])
    @pytest.mark.parametrize("backbone", ["gcn", "sage", "gin", "gat"])
    def test_bit_identical(self, small_graph, backbone, patience, penalty):
        graph = small_graph
        clusters = np.arange(graph.num_nodes) % 3

        def train(fit, extra_loss):
            model = make_backbone(
                backbone, graph.num_features, 8, np.random.default_rng(0)
            )
            history = fit(
                model, Tensor(graph.features), graph.adjacency, graph.labels,
                graph.train_mask, graph.val_mask, epochs=40, patience=patience,
                extra_loss=extra_loss,
            )
            return model.state_dict(), history

        reference_weights, reference = train(
            _reference_fit,
            _reference_parity(clusters, 3, 1.0) if penalty else None,
        )
        weights, history = train(
            fit_binary_classifier,
            KSMOTE(num_clusters=3)._parity_regulariser(clusters, graph.num_nodes)
            if penalty
            else None,
        )
        assert weights.keys() == reference_weights.keys()
        for name, value in reference_weights.items():
            assert np.array_equal(weights[name], value), name
        assert len(history.epoch_train_seconds) == history.epochs_run
        assert dataclasses.replace(history, epoch_train_seconds=[]) == reference

    def test_early_stop_is_exercised(self, small_graph):
        """The patience=5 cells above must really stop early."""
        graph = small_graph
        model = make_backbone("gcn", graph.num_features, 8, np.random.default_rng(0))
        history = _reference_fit(
            model, Tensor(graph.features), graph.adjacency, graph.labels,
            graph.train_mask, graph.val_mask, epochs=40, patience=5,
        )
        assert history.stopped_early


class TestFullBatchStep:
    def test_draws_nothing_builds_no_sampler_keeps_node_order(
        self, small_graph, monkeypatch
    ):
        graph = small_graph
        built = []
        original_init = NeighborSampler.__init__

        def counting_init(sampler, *args, **kwargs):
            built.append(1)
            original_init(sampler, *args, **kwargs)

        monkeypatch.setattr(NeighborSampler, "__init__", counting_init)
        rng = np.random.default_rng(0)
        state = copy.deepcopy(rng.bit_generator.state)
        model = make_backbone("gcn", graph.num_features, 8, np.random.default_rng(0))
        engine = MinibatchEngine(
            model, graph.features, graph.adjacency, batch_size=None
        )
        train = np.where(graph.train_mask)[0][::-1].copy()  # not sorted
        val = np.where(graph.val_mask)[0]
        batches = []

        def loss_fn(step):
            batches.append(step.batch)
            assert step.blocks is None
            np.testing.assert_array_equal(step.seeds, np.arange(graph.num_nodes))
            return binary_cross_entropy_with_logits(
                step.output[step.batch], graph.labels[step.batch].astype(np.float64)
            )

        history = engine.run(
            train, 3, loss_fn, rng, val_nodes=val, val_labels=graph.labels[val]
        )
        logits = engine.predict()
        reps = engine.embed()
        assert built == []
        assert rng.bit_generator.state == state
        assert len(batches) == history.epochs_run == 3
        for batch in batches:
            np.testing.assert_array_equal(batch, train)
        assert logits.shape == (graph.num_nodes,)
        assert reps.shape == (graph.num_nodes, 8)
