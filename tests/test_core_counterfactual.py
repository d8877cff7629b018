"""Tests for the counterfactual search (Section III-D, Eq. 12)."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CounterfactualSearch, ExactBackend, RPForestIndex
from repro.core.ann import EXHAUSTIVE
from test_cf_single_pass import _reference_exact_search


class TestSearchBasics:
    def test_finds_nearest_opposite_attribute(self):
        # 1-D representations, one attribute, all same label.
        reps = np.array([[0.0], [1.0], [10.0], [11.0]])
        labels = np.zeros(4, dtype=int)
        attrs = np.array([[0], [1], [0], [1]])
        index = CounterfactualSearch(top_k=1).search(reps, labels, attrs)
        # node 0 (attr 0) → nearest attr-1 node is node 1.
        assert index.indices[0, 0, 0] == 1
        # node 2 (attr 0) → nearest attr-1 node is node 3.
        assert index.indices[0, 2, 0] == 3
        assert index.valid.all()

    def test_counterfactuals_have_same_label(self):
        rng = np.random.default_rng(0)
        reps = rng.normal(size=(40, 4))
        labels = rng.integers(0, 2, size=40)
        attrs = rng.integers(0, 2, size=(40, 3))
        index = CounterfactualSearch(top_k=2).search(reps, labels, attrs)
        for attr in range(3):
            for node in range(40):
                if not index.valid[attr, node]:
                    continue
                for k in range(2):
                    assert labels[index.indices[attr, node, k]] == labels[node]

    def test_counterfactuals_have_different_attribute(self):
        rng = np.random.default_rng(1)
        reps = rng.normal(size=(30, 4))
        labels = rng.integers(0, 2, size=30)
        attrs = rng.integers(0, 2, size=(30, 2))
        index = CounterfactualSearch(top_k=2).search(reps, labels, attrs)
        for attr in range(2):
            for node in range(30):
                if not index.valid[attr, node]:
                    continue
                for cf in index.indices[attr, node]:
                    assert attrs[cf, attr] != attrs[node, attr]

    def test_top_k_ordered_by_distance(self):
        reps = np.array([[0.0], [1.0], [2.0], [5.0]])
        labels = np.zeros(4, dtype=int)
        attrs = np.array([[0], [1], [1], [1]])
        index = CounterfactualSearch(top_k=3).search(reps, labels, attrs)
        np.testing.assert_array_equal(index.indices[0, 0], [1, 2, 3])

    def test_invalid_when_no_opposite_side(self):
        reps = np.random.default_rng(2).normal(size=(5, 2))
        labels = np.zeros(5, dtype=int)
        attrs = np.zeros((5, 1), dtype=int)  # everyone on the same side
        index = CounterfactualSearch(top_k=1).search(reps, labels, attrs)
        assert not index.valid.any()
        # Invalid entries self-point so downstream gathers stay in range.
        np.testing.assert_array_equal(index.indices[0, :, 0], np.arange(5))

    def test_cycles_when_fewer_candidates_than_k(self):
        reps = np.array([[0.0], [1.0], [2.0]])
        labels = np.zeros(3, dtype=int)
        attrs = np.array([[0], [0], [1]])  # single attr-1 candidate
        index = CounterfactualSearch(top_k=3).search(reps, labels, attrs)
        np.testing.assert_array_equal(index.indices[0, 0], [2, 2, 2])
        assert index.valid[0, 0]

    def test_labels_partition_search(self):
        # Nearest opposite-attr node overall has a different label and must
        # NOT be selected.
        reps = np.array([[0.0], [0.1], [5.0]])
        labels = np.array([0, 1, 0])
        attrs = np.array([[0], [1], [1]])
        index = CounterfactualSearch(top_k=1).search(reps, labels, attrs)
        assert index.indices[0, 0, 0] == 2  # node 1 excluded by label

    def test_coverage_statistic(self):
        reps = np.random.default_rng(3).normal(size=(10, 2))
        labels = np.zeros(10, dtype=int)
        attrs = np.zeros((10, 2), dtype=int)
        attrs[:5, 0] = 1  # attr 0 has both sides, attr 1 does not
        index = CounterfactualSearch(top_k=1).search(reps, labels, attrs)
        assert index.coverage() == pytest.approx(0.5)

    def test_result_shape_properties(self):
        reps = np.random.default_rng(4).normal(size=(12, 3))
        labels = np.random.default_rng(5).integers(0, 2, size=12)
        attrs = np.random.default_rng(6).integers(0, 2, size=(12, 4))
        index = CounterfactualSearch(top_k=2).search(reps, labels, attrs)
        assert index.num_attributes == 4
        assert index.top_k == 2
        assert index.indices.shape == (4, 12, 2)
        assert index.valid.shape == (4, 12)


class TestValidationAndOptions:
    def test_rejects_bad_top_k(self):
        with pytest.raises(ValueError):
            CounterfactualSearch(top_k=0)

    def test_shape_mismatches(self):
        search = CounterfactualSearch(top_k=1)
        reps = np.zeros((5, 2))
        with pytest.raises(ValueError):
            search.search(reps, np.zeros(4, dtype=int), np.zeros((5, 1), dtype=int))
        with pytest.raises(ValueError):
            search.search(reps, np.zeros(5, dtype=int), np.zeros((4, 1), dtype=int))

    @settings(max_examples=15, deadline=None)
    @given(seed=st.integers(0, 200), k=st.integers(1, 4))
    def test_property_indices_always_in_range(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(6, 30))
        reps = rng.normal(size=(n, 3))
        labels = rng.integers(0, 2, size=n)
        attrs = rng.integers(0, 2, size=(n, 2))
        index = CounterfactualSearch(top_k=k).search(reps, labels, attrs)
        assert index.indices.min() >= 0
        assert index.indices.max() < n

    def test_deterministic(self):
        rng = np.random.default_rng(8)
        reps = rng.normal(size=(25, 4))
        labels = rng.integers(0, 2, size=25)
        attrs = rng.integers(0, 2, size=(25, 3))
        a = CounterfactualSearch(top_k=2).search(reps, labels, attrs)
        b = CounterfactualSearch(top_k=2).search(reps, labels, attrs)
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.valid, b.valid)


class TestBackends:
    """The exact path stays the oracle; the ANN path must never violate the
    counterfactual constraints, and its forest reproduces the exact answer
    under exhaustive probing."""

    @staticmethod
    def _data(seed, n=120, dim=5, num_attrs=3):
        rng = np.random.default_rng(seed)
        return (
            rng.normal(size=(n, dim)),
            rng.integers(0, 2, size=n),
            rng.integers(0, 2, size=(n, num_attrs)),
        )

    @settings(deadline=None)
    @given(seed=st.integers(0, 5000), k=st.integers(1, 6))
    def test_ann_exhaustive_bit_for_bit(self, seed, k):
        """The per-bucket oracle with every bucket answered by exhaustive
        probing of a forest gives the exact backend's indices, bit for
        bit."""
        reps, labels, attrs = self._data(seed)
        exact = CounterfactualSearch(top_k=k).search(reps, labels, attrs)
        index = RPForestIndex(seed=seed).build(reps)

        def probe(points, queries, candidate_ids, k):
            mask = np.zeros(index.num_points, dtype=bool)
            mask[candidate_ids] = True
            return index.query(queries, k, mask=mask, probes=EXHAUSTIVE)

        ann = _reference_exact_search(reps, labels, attrs, k, topk=probe)
        np.testing.assert_array_equal(exact.indices, ann[0])
        np.testing.assert_array_equal(exact.valid, ann[1])

    @settings(deadline=None)
    @given(seed=st.integers(0, 5000))
    def test_ann_respects_label_and_attribute_constraints(self, seed):
        reps, labels, attrs = self._data(seed)
        index = CounterfactualSearch(
            top_k=3, backend="ann",
            backend_options={"num_trees": 10, "probes": 3, "seed": seed},
        ).search(reps, labels, attrs)
        for attr in range(attrs.shape[1]):
            for node in np.flatnonzero(index.valid[attr]):
                for cf in index.indices[attr, node]:
                    assert labels[cf] == labels[node]
                    assert attrs[cf, attr] != attrs[node, attr]

    def test_ann_deterministic_given_seed(self):
        reps, labels, attrs = self._data(11)
        make = lambda: CounterfactualSearch(  # noqa: E731
            top_k=2, backend="ann", backend_options={"seed": 5}
        ).search(reps, labels, attrs)
        a, b = make(), make()
        np.testing.assert_array_equal(a.indices, b.indices)
        np.testing.assert_array_equal(a.valid, b.valid)

    def test_ann_high_agreement_with_exact(self):
        reps, labels, attrs = self._data(13, n=300)
        exact = CounterfactualSearch(top_k=3).search(reps, labels, attrs)
        ann = CounterfactualSearch(
            top_k=3, backend="ann",
            backend_options={"num_trees": 10, "probes": 3, "seed": 0},
        ).search(reps, labels, attrs)
        both = exact.valid & ann.valid
        agreement = (exact.indices == ann.indices)[both].mean()
        assert agreement >= 0.9
        assert ann.coverage() >= exact.coverage() - 0.05

    def test_ann_misses_marked_invalid_not_wrong(self):
        # A deliberately weak forest may miss candidates; the contract is
        # that misses surface as invalid self-pointers, never as nodes that
        # break the constraints.
        reps, labels, attrs = self._data(17, n=200)
        index = CounterfactualSearch(
            top_k=2, backend="ann",
            backend_options={"num_trees": 1, "leaf_size": 4, "probes": 1, "seed": 0},
        ).search(reps, labels, attrs)
        n = reps.shape[0]
        for attr in range(attrs.shape[1]):
            invalid = ~index.valid[attr]
            np.testing.assert_array_equal(
                index.indices[attr, invalid, 0], np.arange(n)[invalid]
            )
            for node in np.flatnonzero(index.valid[attr]):
                for cf in index.indices[attr, node]:
                    assert attrs[cf, attr] != attrs[node, attr]

    def test_backend_object_passthrough(self):
        reps, labels, attrs = self._data(19, n=60)
        via_str = CounterfactualSearch(top_k=2).search(reps, labels, attrs)
        via_obj = CounterfactualSearch(top_k=2, backend=ExactBackend()).search(
            reps, labels, attrs
        )
        np.testing.assert_array_equal(via_str.indices, via_obj.indices)


class TestQueryNodeSubset:
    """search(nodes=...) restricts queries, not candidates."""

    def _data(self, seed=0, n=60):
        rng = np.random.default_rng(seed)
        reps = rng.normal(size=(n, 4))
        labels = rng.integers(0, 2, size=n)
        attrs = rng.integers(0, 2, size=(n, 3))
        return reps, labels, attrs

    def test_subset_rows_match_full_search(self):
        reps, labels, attrs = self._data()
        search = CounterfactualSearch(top_k=2)
        nodes = np.array([0, 7, 31, 59])
        full = search.search(reps, labels, attrs)
        subset = search.search(reps, labels, attrs, nodes=nodes)
        np.testing.assert_array_equal(
            subset.indices[:, nodes], full.indices[:, nodes]
        )
        np.testing.assert_array_equal(subset.valid[:, nodes], full.valid[:, nodes])

    def test_unqueried_rows_invalid_and_self_pointing(self):
        reps, labels, attrs = self._data(seed=1)
        nodes = np.array([2, 3])
        search = CounterfactualSearch(top_k=2)
        result = search.search(reps, labels, attrs, nodes=nodes)
        others = np.setdiff1d(np.arange(reps.shape[0]), nodes)
        assert not result.valid[:, others].any()
        # unqueried rows keep the self-pointing convention, in the global
        # (I, N, K) layout
        assert result.indices.shape == (3, reps.shape[0], 2)
        assert result.indices.dtype == np.int64
        np.testing.assert_array_equal(
            result.indices[:, others],
            np.broadcast_to(others[None, :, None], (3, others.size, 2)),
        )
        # narrower integer and bool inputs give the same result
        narrow = search.search(
            reps, labels.astype(np.int32), attrs.astype(bool), nodes=nodes
        )
        np.testing.assert_array_equal(narrow.indices, result.indices)
        np.testing.assert_array_equal(narrow.valid, result.valid)

    def test_candidates_stay_full_set(self):
        # A queried node's counterfactual may be an *unqueried* node.
        reps = np.array([[0.0], [1.0], [10.0], [11.0]])
        labels = np.zeros(4, dtype=int)
        attrs = np.array([[0], [1], [0], [1]])
        result = CounterfactualSearch(top_k=1).search(
            reps, labels, attrs, nodes=np.array([0])
        )
        assert result.indices[0, 0, 0] == 1  # node 1 was not queried
        assert result.valid[0, 0]

    def test_node_validation(self):
        reps, labels, attrs = self._data()
        search = CounterfactualSearch(top_k=1)
        with pytest.raises(ValueError):
            search.search(reps, labels, attrs, nodes=np.array([-1]))
        with pytest.raises(ValueError):
            search.search(reps, labels, attrs, nodes=np.array([reps.shape[0]]))
