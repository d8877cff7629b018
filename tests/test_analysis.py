"""Tests for PCA, k-means, t-SNE and correlation utilities."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import (
    assign_to_centers,
    correlation_with_vector,
    kmeans,
    minibatch_kmeans,
    pca,
    tsne,
)


@pytest.fixture
def rng():
    return np.random.default_rng(11)


class TestPCA:
    def test_variance_ordering(self, rng):
        data = rng.normal(size=(200, 5)) * np.array([10.0, 5.0, 1.0, 0.5, 0.1])
        _, ratios = pca(data, 5)
        assert (np.diff(ratios) <= 1e-12).all()

    def test_ratio_sums_to_one_with_all_components(self, rng):
        data = rng.normal(size=(50, 4))
        _, ratios = pca(data, 4)
        assert ratios.sum() == pytest.approx(1.0)

    def test_projection_shape(self, rng):
        scores, _ = pca(rng.normal(size=(30, 6)), 2)
        assert scores.shape == (30, 2)

    def test_scores_are_centered(self, rng):
        scores, _ = pca(rng.normal(size=(40, 3)) + 5.0, 2)
        np.testing.assert_allclose(scores.mean(axis=0), 0.0, atol=1e-10)

    def test_recovers_dominant_direction(self, rng):
        direction = np.array([1.0, 1.0]) / np.sqrt(2)
        data = rng.normal(size=(500, 1)) * 5.0 @ direction[None, :]
        data += rng.normal(size=(500, 2)) * 0.1
        scores, ratios = pca(data, 1)
        assert ratios[0] > 0.95

    def test_invalid_components(self, rng):
        with pytest.raises(ValueError):
            pca(rng.normal(size=(10, 3)), 4)
        with pytest.raises(ValueError):
            pca(rng.normal(size=(10, 3)), 0)

    def test_rejects_1d(self, rng):
        with pytest.raises(ValueError):
            pca(rng.normal(size=10), 1)

    def test_integer_input_matches_float(self, rng):
        counts = rng.integers(0, 5, size=(40, 4))
        scores, ratios = pca(counts, 2)
        expected_scores, expected_ratios = pca(counts.astype(np.float64), 2)
        assert scores.dtype == np.float64
        np.testing.assert_array_equal(scores, expected_scores)
        np.testing.assert_array_equal(ratios, expected_ratios)


class TestKMeans:
    def test_separates_obvious_clusters(self, rng):
        a = rng.normal(size=(50, 2)) + np.array([10.0, 0.0])
        b = rng.normal(size=(50, 2)) - np.array([10.0, 0.0])
        data = np.vstack([a, b])
        assignments, centers, inertia = kmeans(data, 2, rng)
        assert len(np.unique(assignments[:50])) == 1
        assert len(np.unique(assignments[50:])) == 1
        assert assignments[0] != assignments[50]

    def test_k_equals_n(self, rng):
        data = rng.normal(size=(5, 2))
        assignments, _, inertia = kmeans(data, 5, rng)
        assert len(np.unique(assignments)) == 5
        assert inertia == pytest.approx(0.0, abs=1e-18)

    def test_single_cluster(self, rng):
        data = rng.normal(size=(20, 3))
        assignments, centers, _ = kmeans(data, 1, rng)
        np.testing.assert_array_equal(assignments, 0)
        np.testing.assert_allclose(centers[0], data.mean(axis=0))

    def test_invalid_k(self, rng):
        with pytest.raises(ValueError):
            kmeans(rng.normal(size=(5, 2)), 6, rng)
        with pytest.raises(ValueError):
            kmeans(rng.normal(size=(5, 2)), 0, rng)

    def test_rejects_1d(self, rng):
        with pytest.raises(ValueError, match="2-D"):
            kmeans(rng.normal(size=10), 2, rng)

    def test_more_clusters_than_distinct_points(self, rng):
        # Three distinct points, k = 5: k-means++ runs out of spread and
        # seeds the remaining centers on existing points.
        data = np.repeat(np.array([[0.0, 0.0], [5.0, 0.0], [0.0, 5.0]]), 4, axis=0)
        assignments, centers, inertia = kmeans(data, 5, rng)
        assert assignments.min() >= 0 and assignments.max() < 5
        assert centers.shape == (5, 2)
        assert inertia == pytest.approx(0.0, abs=1e-12)

    def test_inertia_nonincreasing_in_k(self, rng):
        data = rng.normal(size=(100, 3))
        inertias = [kmeans(data, k, np.random.default_rng(0))[2] for k in (1, 2, 4, 8)]
        for small, large in zip(inertias, inertias[1:]):
            assert large <= small + 1e-9

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 200), k=st.integers(1, 5))
    def test_property_assignments_in_range(self, seed, k):
        rng = np.random.default_rng(seed)
        data = rng.normal(size=(30, 2))
        assignments, centers, _ = kmeans(data, k, rng)
        assert assignments.min() >= 0
        assert assignments.max() < k
        assert centers.shape == (k, 2)


class TestMinibatchKMeans:
    """Sampled-centroid k-means (KSMOTE's large-graph cluster step)."""

    def _blobs(self, rng, per_cluster=120):
        offsets = np.array([[12.0, 0.0], [-12.0, 0.0], [0.0, 12.0]])
        return np.vstack(
            [rng.normal(size=(per_cluster, 2)) + off for off in offsets]
        )

    def test_covering_batch_delegates_to_exact(self, rng):
        data = rng.normal(size=(40, 3))
        exact = kmeans(data, 3, np.random.default_rng(5))
        sampled = minibatch_kmeans(data, 3, np.random.default_rng(5), batch_size=40)
        np.testing.assert_array_equal(exact[0], sampled[0])
        np.testing.assert_allclose(exact[1], sampled[1])
        assert exact[2] == sampled[2]

    def test_separates_obvious_clusters_sampled(self, rng):
        data = self._blobs(rng)
        assignments, _, _ = minibatch_kmeans(
            data, 3, np.random.default_rng(0), batch_size=64
        )
        for start in (0, 120, 240):
            block = assignments[start : start + 120]
            assert len(np.unique(block)) == 1
        assert len(np.unique(assignments)) == 3

    def test_inertia_close_to_exact_on_separable_data(self, rng):
        data = self._blobs(rng)
        exact_inertia = kmeans(data, 3, np.random.default_rng(1))[2]
        sampled_inertia = minibatch_kmeans(
            data, 3, np.random.default_rng(1), batch_size=64
        )[2]
        assert sampled_inertia <= exact_inertia * 1.10

    def test_deterministic_given_rng(self, rng):
        data = rng.normal(size=(200, 4))
        a = minibatch_kmeans(data, 4, np.random.default_rng(9), batch_size=32)
        b = minibatch_kmeans(data, 4, np.random.default_rng(9), batch_size=32)
        np.testing.assert_array_equal(a[0], b[0])
        np.testing.assert_allclose(a[1], b[1])

    def test_validation(self, rng):
        data = rng.normal(size=(20, 2))
        with pytest.raises(ValueError):
            minibatch_kmeans(data, 0, rng)
        with pytest.raises(ValueError):
            minibatch_kmeans(data, 2, rng, batch_size=0)
        with pytest.raises(ValueError):
            minibatch_kmeans(data, 8, rng, batch_size=4)
        with pytest.raises(ValueError):
            minibatch_kmeans(rng.normal(size=10), 2, rng)

    def test_loose_tolerance_stops_after_one_batch(self, rng):
        data = rng.normal(size=(300, 3))
        stopped = minibatch_kmeans(
            data, 4, np.random.default_rng(2), batch_size=32, tolerance=1e9
        )
        one_step = minibatch_kmeans(
            data, 4, np.random.default_rng(2), batch_size=32, max_iterations=1
        )
        np.testing.assert_array_equal(stopped[1], one_step[1])
        np.testing.assert_array_equal(stopped[0], one_step[0])

    def test_assign_to_centers_matches_direct_argmin(self, rng):
        data = rng.normal(size=(100, 3))
        centers = rng.normal(size=(5, 3))
        assignments, inertia = assign_to_centers(data, centers, chunk_size=7)
        distances = ((data[:, None, :] - centers[None, :, :]) ** 2).sum(axis=2)
        np.testing.assert_array_equal(assignments, distances.argmin(axis=1))
        assert inertia == pytest.approx(distances.min(axis=1).sum())


class TestTSNE:
    def test_output_shape(self, rng):
        data = rng.normal(size=(40, 8))
        out = tsne(data, rng, iterations=60)
        assert out.shape == (40, 2)
        assert np.isfinite(out).all()

    def test_separates_distant_clusters(self, rng):
        a = rng.normal(size=(25, 6)) + 20.0
        b = rng.normal(size=(25, 6)) - 20.0
        out = tsne(np.vstack([a, b]), rng, iterations=250, perplexity=10)
        centroid_a = out[:25].mean(axis=0)
        centroid_b = out[25:].mean(axis=0)
        spread = max(out[:25].std(), out[25:].std())
        assert np.linalg.norm(centroid_a - centroid_b) > 2 * spread

    def test_needs_min_points(self, rng):
        with pytest.raises(ValueError):
            tsne(rng.normal(size=(3, 4)), rng)

    def test_embedding_centered(self, rng):
        out = tsne(rng.normal(size=(20, 5)), rng, iterations=30)
        np.testing.assert_allclose(out.mean(axis=0), 0.0, atol=1e-9)

    def test_integer_input_matches_float(self, rng):
        counts = rng.integers(0, 6, size=(15, 4))
        out = tsne(counts, np.random.default_rng(1), iterations=30)
        expected = tsne(counts.astype(np.float64), np.random.default_rng(1), iterations=30)
        np.testing.assert_array_equal(out, expected)

    def test_more_components_than_features(self, rng):
        out = tsne(rng.normal(size=(20, 2)), rng, num_components=3, iterations=30)
        assert out.shape == (20, 3)
        assert np.isfinite(out).all()


class TestCorrelation:
    def test_columnwise(self, rng):
        v = rng.normal(size=30)
        matrix = np.stack([v, -v, rng.normal(size=30), np.ones(30)], axis=1)
        corr = correlation_with_vector(matrix, v)
        assert corr[0] == pytest.approx(1.0)
        assert corr[1] == pytest.approx(-1.0)
        assert abs(corr[2]) < 0.5
        assert corr[3] == 0.0  # constant column

    def test_float32_matrix_matches_float64(self, rng):
        # 300 columns: the non-float64 path accumulates two column blocks.
        v = rng.normal(size=50)
        matrix = rng.normal(size=(50, 300)) + 0.5 * v[:, None]
        low = matrix.astype(np.float32)
        np.testing.assert_allclose(
            correlation_with_vector(low, v),
            correlation_with_vector(low.astype(np.float64), v),
            atol=1e-12,
        )

    def test_columnwise_row_mismatch(self, rng):
        with pytest.raises(ValueError):
            correlation_with_vector(rng.normal(size=(5, 2)), rng.normal(size=6))

    @settings(max_examples=25, deadline=None)
    @given(seed=st.integers(0, 300))
    def test_property_bounded(self, seed):
        rng = np.random.default_rng(seed)
        corr = correlation_with_vector(rng.normal(size=(20, 4)), rng.normal(size=20))
        assert (np.abs(corr) <= 1.0).all()
