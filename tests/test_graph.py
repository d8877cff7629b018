"""Tests for the Graph container, normalisation and graph utilities."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.graph import (
    Graph,
    add_self_loops,
    adjacency_from_edges,
    degree_vector,
    edge_homophily,
    edges_from_adjacency,
    gcn_normalize,
    row_normalize,
    to_symmetric,
)
from repro.graph.utils import sorted_unique


class TestGraphContainer:
    def test_basic_stats(self, tiny_graph):
        assert tiny_graph.num_nodes == 6
        assert tiny_graph.num_features == 4
        assert tiny_graph.num_edges == 7
        assert tiny_graph.average_degree == pytest.approx(14 / 6)
        assert tiny_graph.num_classes == 2

    def test_split_sizes(self, tiny_graph):
        assert tiny_graph.split_sizes() == {"train": 3, "val": 2, "test": 1}

    def test_rejects_overlapping_masks(self, tiny_graph):
        with pytest.raises(ValueError, match="overlap"):
            Graph(
                adjacency=tiny_graph.adjacency,
                features=tiny_graph.features,
                labels=tiny_graph.labels,
                sensitive=tiny_graph.sensitive,
                train_mask=tiny_graph.train_mask,
                val_mask=tiny_graph.train_mask,
                test_mask=tiny_graph.test_mask,
            )

    def test_rejects_shape_mismatch(self, tiny_graph):
        with pytest.raises(ValueError):
            Graph(
                adjacency=sp.eye(5).tocsr(),
                features=tiny_graph.features,
                labels=tiny_graph.labels,
                sensitive=tiny_graph.sensitive,
                train_mask=tiny_graph.train_mask,
                val_mask=tiny_graph.val_mask,
                test_mask=tiny_graph.test_mask,
            )

    @pytest.mark.parametrize(
        "attr", ["labels", "sensitive", "train_mask", "val_mask", "test_mask"]
    )
    def test_rejects_node_array_of_wrong_length(self, tiny_graph, attr):
        arrays = {
            name: getattr(tiny_graph, name)
            for name in ("labels", "sensitive", "train_mask", "val_mask", "test_mask")
        }
        arrays[attr] = arrays[attr][:-1]
        with pytest.raises(ValueError, match=rf"{attr} must have shape \(6,\)"):
            Graph(
                adjacency=tiny_graph.adjacency,
                features=tiny_graph.features,
                **arrays,
            )

    def test_integer_features_become_float64(self, tiny_graph):
        graph = tiny_graph.with_features(np.arange(12).reshape(6, 2))
        assert graph.features.dtype == np.float64
        np.testing.assert_array_equal(graph.features, np.arange(12.0).reshape(6, 2))

    def test_float32_features_kept_without_copy(self, tiny_graph):
        features = tiny_graph.features.astype(np.float32)
        graph = tiny_graph.with_features(features)
        assert graph.features is features

    def test_empty_graph_statistics(self):
        graph = Graph(
            adjacency=sp.csr_matrix((0, 0)),
            features=np.zeros((0, 3)),
            labels=np.zeros(0),
            sensitive=np.zeros(0),
            train_mask=np.zeros(0),
            val_mask=np.zeros(0),
            test_mask=np.zeros(0),
        )
        assert graph.num_nodes == 0 and graph.num_edges == 0
        assert graph.average_degree == 0.0
        assert graph.num_classes == 0

    def test_rejects_out_of_range_related(self, tiny_graph):
        with pytest.raises(ValueError, match="related"):
            Graph(
                adjacency=tiny_graph.adjacency,
                features=tiny_graph.features,
                labels=tiny_graph.labels,
                sensitive=tiny_graph.sensitive,
                train_mask=tiny_graph.train_mask,
                val_mask=tiny_graph.val_mask,
                test_mask=tiny_graph.test_mask,
                related_feature_indices=np.array([10]),
            )

    def test_with_features(self, tiny_graph):
        new = tiny_graph.with_features(np.zeros((6, 2)))
        assert new.num_features == 2
        assert tiny_graph.num_features == 4  # original untouched

    def test_without_columns(self, tiny_graph):
        reduced = tiny_graph.without_columns(np.array([0, 2]))
        assert reduced.num_features == 2
        np.testing.assert_allclose(reduced.features, tiny_graph.features[:, [1, 3]])
        assert reduced.related_feature_indices.size == 0

    def test_without_columns_remaps_related(self, tiny_graph):
        # Remove column 1 (not related): related {0, 2} shift to {0, 1}.
        reduced = tiny_graph.without_columns(np.array([1]))
        np.testing.assert_array_equal(reduced.related_feature_indices, [0, 1])

    def test_standardized(self, tiny_graph):
        standard = tiny_graph.standardized()
        np.testing.assert_allclose(standard.features.mean(axis=0), 0.0, atol=1e-12)
        np.testing.assert_allclose(standard.features.std(axis=0), 1.0, atol=1e-12)

    def test_standardized_constant_column(self, tiny_graph):
        features = tiny_graph.features.copy()
        features[:, 0] = 7.0
        graph = tiny_graph.with_features(features)
        np.testing.assert_allclose(graph.standardized().features[:, 0], 0.0)

    def test_subgraph(self, tiny_graph):
        sub = tiny_graph.subgraph(np.array([0, 1, 2]))
        assert sub.num_nodes == 3
        assert sub.num_edges == 3  # the first triangle
        np.testing.assert_array_equal(sub.labels, [0, 0, 1])

    def test_summary_mentions_name(self, tiny_graph):
        assert "tiny" in tiny_graph.summary()


def _add_self_loops_lil(adjacency: sp.spmatrix) -> sp.csr_matrix:
    """The LIL oracle: ``setdiag`` on a list-of-lists copy, one row at a time."""
    adjacency = adjacency.tolil(copy=True)
    adjacency.setdiag(1.0)
    return adjacency.tocsr()


@st.composite
def _raw_csr(draw):
    """A square CSR as stored, not canonicalised: rows may be empty,
    unsorted, repeat a column or hold an explicit zero, and the diagonal
    may already be present."""
    n = draw(st.integers(0, 8))
    counts = draw(st.lists(st.integers(0, 4), min_size=n, max_size=n))
    nnz = int(sum(counts))
    indices = draw(
        st.lists(st.integers(0, max(n - 1, 0)), min_size=nnz, max_size=nnz)
    )
    data = draw(
        st.lists(st.sampled_from([0.0, 1.0, 2.5, -1.0]), min_size=nnz, max_size=nnz)
    )
    indptr = np.concatenate([[0], np.cumsum(counts, dtype=np.int64)])
    dtype = draw(st.sampled_from([np.float64, np.float32]))
    return sp.csr_matrix(
        (np.asarray(data, dtype=dtype), np.asarray(indices, dtype=np.int32), indptr),
        shape=(n, n),
    )


class TestNormalization:
    def test_add_self_loops(self, tiny_adjacency):
        looped = add_self_loops(tiny_adjacency)
        np.testing.assert_allclose(looped.diagonal(), 1.0)
        assert looped.nnz == tiny_adjacency.nnz + 6

    @settings(deadline=None)
    @given(adjacency=_raw_csr())
    def test_add_self_loops_matches_lil_oracle(self, adjacency):
        """Byte-identical to the LIL build: sorted indices, the input's
        dtype, duplicates summed, off-diagonal explicit zeros kept and every
        diagonal entry (present, zero or duplicated) set to exactly 1."""
        expected = _add_self_loops_lil(adjacency.copy())
        got = add_self_loops(adjacency.copy())
        assert type(got) is type(expected)
        assert got.shape == expected.shape
        assert got.has_sorted_indices
        for name in ("indptr", "indices", "data"):
            got_array, expected_array = getattr(got, name), getattr(expected, name)
            assert got_array.dtype == expected_array.dtype, name
            np.testing.assert_array_equal(got_array, expected_array, err_msg=name)

    def test_add_self_loops_leaves_input_untouched(self):
        adjacency = sp.csr_matrix(
            (np.array([1.0, 2.0, 3.0]), np.array([2, 0, 2]), np.array([0, 3, 3, 3])),
            shape=(3, 3),
        )
        stored = [adjacency.indptr.copy(), adjacency.indices.copy(), adjacency.data.copy()]
        add_self_loops(adjacency)
        for before, after in zip(
            stored, (adjacency.indptr, adjacency.indices, adjacency.data)
        ):
            np.testing.assert_array_equal(before, after)

    def test_gcn_normalize_symmetric(self, tiny_adjacency):
        norm = gcn_normalize(tiny_adjacency)
        np.testing.assert_allclose(norm.toarray(), norm.toarray().T, atol=1e-12)

    def test_gcn_normalize_spectrum_bounded(self, tiny_adjacency):
        norm = gcn_normalize(tiny_adjacency).toarray()
        eigenvalues = np.linalg.eigvalsh(norm)
        assert eigenvalues.max() <= 1.0 + 1e-9

    def test_gcn_normalize_isolated_node(self):
        adj = sp.csr_matrix((3, 3))
        norm = gcn_normalize(adj)
        # Only self-loops survive, each normalised to 1.
        np.testing.assert_allclose(norm.toarray(), np.eye(3))

    def test_row_normalize_rows_sum_to_one(self, tiny_adjacency):
        norm = row_normalize(tiny_adjacency)
        np.testing.assert_allclose(np.asarray(norm.sum(axis=1)).ravel(), 1.0)

    def test_row_normalize_isolated_node_zero_row(self):
        adj = sp.csr_matrix(np.array([[0, 1, 0], [1, 0, 0], [0, 0, 0]], dtype=float))
        norm = row_normalize(adj)
        np.testing.assert_allclose(np.asarray(norm.sum(axis=1)).ravel(), [1, 1, 0])

    def test_to_symmetric(self):
        adj = sp.csr_matrix(np.array([[0, 1], [0, 0]], dtype=float))
        sym = to_symmetric(adj).toarray()
        np.testing.assert_allclose(sym, [[0, 1], [1, 0]])


class TestGraphUtils:
    def test_edges_round_trip(self, tiny_adjacency):
        edges = edges_from_adjacency(tiny_adjacency)
        rebuilt = adjacency_from_edges(edges, 6)
        np.testing.assert_allclose(rebuilt.toarray(), tiny_adjacency.toarray())

    def test_edges_directed_count(self, tiny_adjacency):
        assert len(edges_from_adjacency(tiny_adjacency, directed=True)) == 14

    def test_adjacency_from_edges_drops_self_loops(self):
        adj = adjacency_from_edges(np.array([[0, 0], [0, 1]]), 3)
        assert adj[0, 0] == 0
        assert adj[0, 1] == 1

    def test_adjacency_from_edges_deduplicates(self):
        adj = adjacency_from_edges(np.array([[0, 1], [1, 0], [0, 1]]), 2)
        assert adj[0, 1] == 1.0
        assert adj.nnz == 2

    def test_adjacency_from_empty_edges(self):
        assert adjacency_from_edges(np.zeros((0, 2)), 4).nnz == 0

    @settings(deadline=None)
    @given(
        ids=st.lists(st.integers(-(2**40), 2**40), max_size=60),
        dtype=st.sampled_from([np.int64, np.int32]),
    )
    def test_sorted_unique_matches_np_unique(self, ids, dtype):
        values = np.array(ids, dtype=np.int64).astype(dtype)
        got, want = sorted_unique(values), np.unique(values)
        assert got.dtype == want.dtype
        np.testing.assert_array_equal(got, want)

    def test_degree_vector(self, tiny_adjacency):
        np.testing.assert_allclose(
            degree_vector(tiny_adjacency), [2, 2, 3, 3, 2, 2]
        )

    def test_edge_homophily_extremes(self, tiny_adjacency):
        all_same = np.zeros(6, dtype=int)
        assert edge_homophily(tiny_adjacency, all_same) == 1.0
        # Triangle membership: {0,1,2} vs {3,4,5} — only the bridge crosses.
        groups = np.array([0, 0, 0, 1, 1, 1])
        assert edge_homophily(tiny_adjacency, groups) == pytest.approx(6 / 7)

    def test_edge_homophily_empty_graph(self):
        assert edge_homophily(sp.csr_matrix((3, 3)), np.zeros(3)) == 0.0

    @settings(max_examples=20, deadline=None)
    @given(seed=st.integers(0, 1000), n=st.integers(4, 12))
    def test_property_round_trip_random_graphs(self, seed, n):
        rng = np.random.default_rng(seed)
        dense = (rng.random((n, n)) < 0.3).astype(float)
        dense = np.triu(dense, k=1)
        adj = sp.csr_matrix(dense + dense.T)
        edges = edges_from_adjacency(adj)
        rebuilt = adjacency_from_edges(edges, n)
        np.testing.assert_allclose(rebuilt.toarray(), adj.toarray())
