"""Tests for the λ weight-update machinery (Eq. 17–24)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import WeightUpdater, project_to_simplex
from oracles import solve_kkt_eq24


def _disparity_arrays(min_size=1, max_size=12):
    return st.lists(
        st.floats(0.0, 10.0, allow_nan=False), min_size=min_size, max_size=max_size
    ).map(np.array)


class TestSimplexProjection:
    def test_already_on_simplex(self):
        v = np.array([0.2, 0.3, 0.5])
        np.testing.assert_allclose(project_to_simplex(v), v)

    def test_uniform_from_equal_values(self):
        np.testing.assert_allclose(project_to_simplex(np.zeros(4)), 0.25)

    def test_dominant_coordinate(self):
        out = project_to_simplex(np.array([100.0, 0.0, 0.0]))
        np.testing.assert_allclose(out, [1.0, 0.0, 0.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError):
            project_to_simplex(np.array([]))

    @settings(max_examples=60, deadline=None)
    @given(values=st.lists(st.floats(-50, 50), min_size=1, max_size=15).map(np.array))
    def test_property_valid_simplex_point(self, values):
        out = project_to_simplex(values)
        assert (out >= 0).all()
        assert out.sum() == pytest.approx(1.0)

    @settings(max_examples=40, deadline=None)
    @given(values=st.lists(st.floats(-10, 10), min_size=2, max_size=10).map(np.array))
    def test_property_order_preserving(self, values):
        out = project_to_simplex(values)
        order = np.argsort(values)
        assert (np.diff(out[order]) >= -1e-12).all()

    @settings(max_examples=40, deadline=None)
    @given(
        values=st.lists(st.floats(-5, 5), min_size=2, max_size=8).map(np.array),
        seed=st.integers(0, 100),
    )
    def test_property_is_nearest_simplex_point(self, values, seed):
        # The projection must beat random simplex points in L2 distance.
        projected = project_to_simplex(values)
        rng = np.random.default_rng(seed)
        for _ in range(5):
            other = rng.dirichlet(np.ones(values.size))
            assert np.linalg.norm(values - projected) <= np.linalg.norm(
                values - other
            ) + 1e-9


class TestEq24Solver:
    def test_single_attribute(self):
        np.testing.assert_allclose(solve_kkt_eq24(np.array([3.0])), [1.0])

    def test_empty_raises(self):
        with pytest.raises(ValueError, match="at least one"):
            solve_kkt_eq24(np.array([]))

    def test_equal_disparities_give_uniform(self):
        out = solve_kkt_eq24(np.array([2.0, 2.0, 2.0]))
        np.testing.assert_allclose(out, 1 / 3)

    def test_small_disparity_gets_large_weight(self):
        out = solve_kkt_eq24(np.array([5.0, 0.1]), alpha=1.0)
        assert out[1] > out[0]

    @settings(max_examples=60, deadline=None)
    @given(disparities=_disparity_arrays(), alpha=st.floats(0.01, 10.0))
    def test_property_matches_simplex_projection(self, disparities, alpha):
        """Eq. 24's sorting procedure == projection of −α·D/2 (the math)."""
        expected = project_to_simplex(-alpha * disparities / 2.0)
        actual = solve_kkt_eq24(disparities, alpha=alpha)
        np.testing.assert_allclose(actual, expected, atol=1e-9)

    @settings(max_examples=40, deadline=None)
    @given(disparities=_disparity_arrays(min_size=2), alpha=st.floats(0.01, 5.0))
    def test_property_kkt_optimality(self, disparities, alpha):
        """The solution must minimise α·λ·D + ||λ||² over random feasible λ."""
        lam = solve_kkt_eq24(disparities, alpha=alpha)

        def objective(weights):
            return alpha * weights @ disparities + (weights**2).sum()

        rng = np.random.default_rng(0)
        best = objective(lam)
        for _ in range(10):
            other = rng.dirichlet(np.ones(disparities.size))
            assert best <= objective(other) + 1e-9


class TestWeightUpdater:
    def test_initial_uniform(self):
        updater = WeightUpdater(5, alpha=1.0)
        np.testing.assert_allclose(updater.weights, 0.2)

    def test_math_direction_prefers_small_disparity(self):
        updater = WeightUpdater(3, alpha=2.0, prefer_high_disparity=False)
        weights = updater.update(np.array([5.0, 1.0, 3.0]))
        assert weights[1] == weights.max()

    def test_text_direction_prefers_large_disparity(self):
        updater = WeightUpdater(3, alpha=2.0, prefer_high_disparity=True)
        weights = updater.update(np.array([5.0, 1.0, 3.0]))
        assert weights[0] == weights.max()

    def test_weights_always_simplex(self):
        updater = WeightUpdater(4, alpha=3.0, prefer_high_disparity=True)
        for seed in range(5):
            rng = np.random.default_rng(seed)
            weights = updater.update(rng.uniform(0, 4, size=4))
            assert weights.sum() == pytest.approx(1.0)
            assert (weights >= 0).all()

    def test_zero_alpha_keeps_uniform(self):
        updater = WeightUpdater(4, alpha=0.0)
        weights = updater.update(np.array([9.0, 1.0, 2.0, 3.0]))
        np.testing.assert_allclose(weights, 0.25)

    def test_rejects_wrong_length(self):
        with pytest.raises(ValueError):
            WeightUpdater(3, alpha=1.0).update(np.array([1.0, 2.0]))

    def test_rejects_bad_construction(self):
        with pytest.raises(ValueError):
            WeightUpdater(0, alpha=1.0)
        with pytest.raises(ValueError):
            WeightUpdater(3, alpha=-1.0)

    def test_larger_alpha_concentrates_weights(self):
        disparities = np.array([4.0, 3.0, 1.0, 0.5])
        gentle = WeightUpdater(4, alpha=0.1, prefer_high_disparity=True)
        sharp = WeightUpdater(4, alpha=10.0, prefer_high_disparity=True)
        w_gentle = gentle.update(disparities)
        w_sharp = sharp.update(disparities)
        assert w_sharp.max() > w_gentle.max()
