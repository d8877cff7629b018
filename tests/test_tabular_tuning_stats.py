"""Tests for tabular graph construction and grid search."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import FairwosConfig, grid_search_fairwos
from repro.datasets import graph_from_table, knn_adjacency


class TestKnnAdjacency:
    def test_symmetric_binary_no_loops(self):
        rng = np.random.default_rng(0)
        adj = knn_adjacency(rng.normal(size=(30, 4)), num_neighbors=3)
        assert (adj != adj.T).nnz == 0
        assert adj.diagonal().sum() == 0
        assert set(np.unique(adj.data)) == {1.0}

    def test_minimum_degree(self):
        rng = np.random.default_rng(1)
        adj = knn_adjacency(rng.normal(size=(25, 3)), num_neighbors=4)
        degrees = np.asarray(adj.sum(axis=1)).reshape(-1)
        assert degrees.min() >= 4

    def test_nearest_points_connected(self):
        # Three tight pairs: each point's 1-NN is its partner.
        features = np.array(
            [[0.0, 0], [0.1, 0], [10, 0], [10.1, 0], [20, 0], [20.1, 0]]
        )
        adj = knn_adjacency(features, num_neighbors=1)
        assert adj[0, 1] == 1 and adj[2, 3] == 1 and adj[4, 5] == 1
        assert adj[0, 2] == 0

    def test_cosine_metric(self):
        # Same direction, different magnitude: cosine joins, euclidean may not.
        features = np.array([[1.0, 0], [100.0, 0], [0, 1.0], [0, 100.0]])
        adj = knn_adjacency(features, num_neighbors=1, metric="cosine")
        assert adj[0, 1] == 1
        assert adj[2, 3] == 1

    def test_rejects_bad_params(self):
        rng = np.random.default_rng(0)
        with pytest.raises(ValueError):
            knn_adjacency(rng.normal(size=(10, 2)), num_neighbors=0)
        with pytest.raises(ValueError):
            knn_adjacency(rng.normal(size=(10, 2)), num_neighbors=10)
        with pytest.raises(ValueError):
            knn_adjacency(rng.normal(size=(10, 2)), 2, metric="manhattan")

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 100), k=st.integers(1, 5))
    def test_property_valid_graph(self, seed, k):
        rng = np.random.default_rng(seed)
        adj = knn_adjacency(rng.normal(size=(15, 3)), num_neighbors=k)
        assert (adj != adj.T).nnz == 0
        assert adj.diagonal().sum() == 0


class TestGraphFromTable:
    def _table(self, n=60, f=5, seed=0):
        rng = np.random.default_rng(seed)
        features = rng.normal(size=(n, f))
        sensitive = (rng.random(n) < 0.5).astype(np.int64)
        labels = (features[:, 0] + 0.3 * sensitive > 0).astype(np.int64)
        return features, labels, sensitive

    def test_basic_construction(self):
        features, labels, sensitive = self._table()
        graph = graph_from_table(features, labels, sensitive, num_neighbors=5)
        graph.validate()
        assert graph.num_nodes == 60
        assert graph.meta["construction"].startswith("knn")

    def test_sensitive_column_removed(self):
        features, labels, sensitive = self._table()
        table = np.hstack([features, sensitive[:, None].astype(float)])
        graph = graph_from_table(
            table, labels, sensitive, num_neighbors=5, sensitive_column=5
        )
        assert graph.num_features == 5
        # No column may equal the sensitive attribute.
        for j in range(graph.num_features):
            assert not np.array_equal(graph.features[:, j], sensitive.astype(float))

    def test_related_indices_passthrough(self):
        features, labels, sensitive = self._table()
        graph = graph_from_table(
            features, labels, sensitive,
            related_feature_indices=np.array([0, 1]),
        )
        np.testing.assert_array_equal(graph.related_feature_indices, [0, 1])

    def test_fairwos_runs_on_tabular_graph(self):
        from repro.core import FairwosTrainer

        features, labels, sensitive = self._table(n=120)
        graph = graph_from_table(features, labels, sensitive, num_neighbors=6)
        config = FairwosConfig(
            encoder_epochs=20, classifier_epochs=20, finetune_epochs=2,
            encoder_dim=4, patience=5,
        )
        result = FairwosTrainer(config).fit(graph, seed=0)
        assert 0.0 <= result.test.accuracy <= 1.0


class TestGridSearch:
    def test_small_grid_selects_best(self, small_graph):
        base = FairwosConfig(
            encoder_epochs=25, classifier_epochs=25, finetune_epochs=2,
            encoder_dim=6, patience=8,
        )
        result = grid_search_fairwos(
            small_graph, base, alphas=(0.05, 2.0), ks=(1, 2), seed=0
        )
        assert len(result.points) == 4
        assert result.best in result.points
        assert result.best_result is not None
        best_val = max(p.val_accuracy for p in result.points)
        assert result.best.val_accuracy >= best_val - 0.005 - 1e-12

    def test_tiebreak_prefers_lower_proxy(self, small_graph):
        base = FairwosConfig(
            encoder_epochs=25, classifier_epochs=25, finetune_epochs=2,
            encoder_dim=6, patience=8,
        )
        result = grid_search_fairwos(
            small_graph, base, alphas=(0.05, 2.0), ks=(1,), seed=0,
            accuracy_tolerance=1.0,  # everything tied → pure proxy selection
        )
        assert result.best.fair_proxy == min(p.fair_proxy for p in result.points)

    def test_render(self, small_graph):
        base = FairwosConfig(
            encoder_epochs=20, classifier_epochs=20, finetune_epochs=2,
            encoder_dim=4, patience=5,
        )
        result = grid_search_fairwos(small_graph, base, alphas=(1.0,), ks=(1,))
        text = result.render()
        assert "grid search" in text
        assert "◀" in text
