"""Tests for the causal generator, registry and splits."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import correlation_with_vector
from repro.datasets import (
    BiasSpec,
    available_datasets,
    dataset_statistics_rows,
    generate_biased_graph,
    graph_from_table,
    load_dataset,
    random_split_masks,
)
from repro.graph.utils import edge_homophily


class TestSplits:
    def test_partition(self):
        rng = np.random.default_rng(0)
        train, val, test = random_split_masks(100, rng)
        combined = train.astype(int) + val.astype(int) + test.astype(int)
        np.testing.assert_array_equal(combined, 1)

    def test_fractions(self):
        rng = np.random.default_rng(0)
        train, val, test = random_split_masks(1000, rng)
        assert train.sum() == 500
        assert val.sum() == 250
        assert test.sum() == 250

    @pytest.mark.parametrize("n", [1, 2, 3])
    def test_rejects_an_empty_split(self, n):
        with pytest.raises(ValueError, match="empty split"):
            random_split_masks(n, np.random.default_rng(0))

    def test_four_nodes_fill_every_split(self):
        train, val, test = random_split_masks(4, np.random.default_rng(0))
        assert (train.sum(), val.sum(), test.sum()) == (2, 1, 1)

    def test_tiny_table_fails_at_the_split(self):
        # Three rows split 2/1/0: the error names the split, not the empty
        # evaluation set a model would later meet.
        features = np.random.default_rng(0).normal(size=(3, 2))
        with pytest.raises(ValueError, match="empty split"):
            graph_from_table(features, [0, 1, 0], [1, 0, 1], num_neighbors=1)

    @settings(max_examples=20, deadline=None)
    @given(n=st.integers(10, 500), seed=st.integers(0, 100))
    def test_property_always_partitions(self, n, seed):
        rng = np.random.default_rng(seed)
        train, val, test = random_split_masks(n, rng)
        assert (train | val | test).all()
        assert not (train & val).any()
        assert not (train & test).any()
        assert not (val & test).any()


class TestBiasSpec:
    def test_defaults_valid(self):
        BiasSpec().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"group_balance": 0.0},
            {"group_balance": 1.0},
            {"proxy_fraction": 1.5},
            {"latent_dim": 0},
            {"proxy_strength": -1.0},
            {"group_homophily": -0.5},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            BiasSpec(**kwargs).validate()


class TestGenerator:
    def test_shapes_and_types(self):
        graph = generate_biased_graph(100, 10, 8.0, seed=0)
        assert graph.num_nodes == 100
        assert graph.num_features == 10
        assert set(np.unique(graph.labels)) <= {0, 1}
        assert set(np.unique(graph.sensitive)) <= {0, 1}

    def test_sensitive_not_a_feature_column(self):
        # No feature column may equal the sensitive attribute exactly.
        graph = generate_biased_graph(200, 10, 8.0, seed=1)
        for j in range(graph.num_features):
            assert not np.array_equal(
                (graph.features[:, j] > 0).astype(int), graph.sensitive
            )

    def test_deterministic_given_seed(self):
        g1 = generate_biased_graph(80, 6, 6.0, seed=5)
        g2 = generate_biased_graph(80, 6, 6.0, seed=5)
        np.testing.assert_allclose(g1.features, g2.features)
        np.testing.assert_array_equal(g1.labels, g2.labels)
        assert (g1.adjacency != g2.adjacency).nnz == 0

    def test_different_seeds_differ(self):
        g1 = generate_biased_graph(80, 6, 6.0, seed=5)
        g2 = generate_biased_graph(80, 6, 6.0, seed=6)
        assert not np.allclose(g1.features, g2.features)

    def test_average_degree_calibration(self):
        graph = generate_biased_graph(600, 8, 20.0, seed=2)
        assert graph.average_degree == pytest.approx(20.0, rel=0.15)

    def test_adjacency_symmetric_no_loops(self):
        graph = generate_biased_graph(150, 6, 10.0, seed=3)
        adj = graph.adjacency
        assert (adj != adj.T).nnz == 0
        assert adj.diagonal().sum() == 0.0

    @pytest.mark.slow
    def test_label_bias_increases_base_rate_gap(self):
        gaps = []
        for bias in (0.0, 1.5):
            spec = BiasSpec(label_bias=bias)
            graph = generate_biased_graph(3000, 6, 8.0, spec, seed=4)
            rate1 = graph.labels[graph.sensitive == 1].mean()
            rate0 = graph.labels[graph.sensitive == 0].mean()
            gaps.append(abs(rate1 - rate0))
        assert gaps[1] > gaps[0] + 0.1

    def test_proxy_columns_correlate_with_sensitive(self):
        spec = BiasSpec(proxy_strength=2.0, proxy_fraction=0.25, feature_noise=0.3)
        graph = generate_biased_graph(1000, 12, 8.0, spec, seed=5)
        corr = np.abs(correlation_with_vector(graph.features, graph.sensitive))
        proxies = graph.related_feature_indices
        others = np.setdiff1d(np.arange(12), proxies)
        assert corr[proxies].mean() > corr[others].mean() + 0.2

    def test_group_homophily_raises_edge_homophily(self):
        values = []
        for homophily in (0.0, 8.0):
            spec = BiasSpec(group_homophily=homophily)
            graph = generate_biased_graph(800, 6, 10.0, spec, seed=6)
            values.append(edge_homophily(graph.adjacency, graph.sensitive))
        assert values[1] > values[0] + 0.1

    @pytest.mark.slow
    def test_group_balance(self):
        spec = BiasSpec(group_balance=0.2)
        graph = generate_biased_graph(4000, 6, 6.0, spec, seed=7)
        assert graph.sensitive.mean() == pytest.approx(0.2, abs=0.03)

    def test_rejects_tiny_inputs(self):
        with pytest.raises(ValueError):
            generate_biased_graph(5, 10, 3.0)
        with pytest.raises(ValueError):
            generate_biased_graph(100, 1, 3.0)

    @pytest.mark.parametrize("degree", [0.0, -3.0])
    def test_rejects_non_positive_degree(self, degree):
        # The same dimension rule as the family generators: no edgeless graphs.
        with pytest.raises(ValueError, match="average_degree"):
            generate_biased_graph(100, 5, degree)

    @settings(max_examples=10, deadline=None)
    @given(
        n=st.integers(50, 200),
        f=st.integers(3, 20),
        degree=st.floats(2.0, 15.0),
        seed=st.integers(0, 50),
    )
    def test_property_valid_graph_for_any_config(self, n, f, degree, seed):
        graph = generate_biased_graph(n, f, degree, seed=seed)
        graph.validate()
        assert graph.related_feature_indices.size >= 1
        assert graph.related_feature_indices.max() < f


class TestRegistry:
    def test_all_six_datasets_present(self):
        assert available_datasets() == sorted(
            ["bail", "credit", "pokec_z", "pokec_n", "nba", "occupation"]
        )

    def test_load_dataset_aliases(self):
        graph = load_dataset("Pokec-Z", seed=0)
        assert graph.name == "pokec_z"

    def test_unknown_dataset(self):
        with pytest.raises(KeyError):
            load_dataset("cora")

    def test_nba_kept_at_true_size(self):
        assert load_dataset("nba", seed=0).num_nodes == 403

    def test_feature_dims_match_paper(self):
        expected = {
            "bail": 18,
            "credit": 13,
            "pokec_z": 277,
            "pokec_n": 266,
            "nba": 39,
            "occupation": 768,
        }
        for name, dims in expected.items():
            assert load_dataset(name, seed=0).num_features == dims

    def test_average_degree_matches_paper(self):
        rows = {r["dataset"]: r for r in dataset_statistics_rows()}
        for name in ("bail", "nba"):
            graph = load_dataset(name, seed=0)
            assert graph.average_degree == pytest.approx(
                rows[name]["paper_avg_degree"], rel=0.1
            )

    def test_standardize_flag(self):
        raw = load_dataset("bail", seed=0, standardize=False)
        std = load_dataset("bail", seed=0)
        assert not np.allclose(raw.features.mean(axis=0), 0.0, atol=1e-6)
        np.testing.assert_allclose(std.features.mean(axis=0), 0.0, atol=1e-9)

    def test_meta_provenance(self):
        graph = load_dataset("credit", seed=3)
        assert graph.meta["sensitive_name"] == "age"
        assert graph.meta["seed"] == 3

    def test_statistics_rows_complete(self):
        rows = dataset_statistics_rows()
        assert len(rows) == 6
        for row in rows:
            assert row["paper_nodes"] > 0
            assert row["sensitive"]
