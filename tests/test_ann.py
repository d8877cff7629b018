"""Property tests for the ANN subsystem (repro.core.ann).

The contract under test: "approximate" must never silently mean "wrong".

* recall@K of the random-projection forest stays ≥ 0.9 against the exact
  oracle on both clustered and uniform point sets;
* masked queries never return a candidate the mask forbids (this is the
  invariant the counterfactual search's label/attribute constraints ride
  on);
* building twice with the same seed gives identical indexes (determinism);
* exhaustive probing reproduces the exact oracle bit-for-bit;
* incremental maintenance (``update``) preserves all of the above: updates
  are deterministic, exhaustive probing stays bit-identical to the oracle
  over the *new* matrix, recall survives repeated small drifts, and both
  escape hatches (too many drifted points, an overflowing leaf) produce
  exactly a fresh build.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.ann import (
    EXHAUSTIVE,
    AnnBackend,
    ExactBackend,
    RPForestIndex,
    exact_topk,
    make_backend,
)

# Forest sized for high recall on the small point sets hypothesis explores;
# the recall property is asserted against these settings.
FOREST = dict(num_trees=10, leaf_size=24, probes=3)


def _recall(index: RPForestIndex, X: np.ndarray, queries: np.ndarray, k: int) -> float:
    approx = index.query(queries, k)
    exact = exact_topk(X, queries, np.arange(X.shape[0]), k)
    hits = sum(
        len(set(a[a >= 0]) & set(e)) for a, e in zip(approx, exact)
    )
    return hits / (queries.shape[0] * exact.shape[1])


class TestRecall:
    @settings(deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(2, 8), k=st.integers(1, 10))
    def test_recall_uniform(self, seed, dim, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 400))
        X = rng.normal(size=(n, dim))
        index = RPForestIndex(**FOREST, seed=seed).build(X)
        assert _recall(index, X, X[: min(n, 64)], k) >= 0.9

    @settings(deadline=None)
    @given(seed=st.integers(0, 10_000), dim=st.integers(2, 8), k=st.integers(1, 10))
    def test_recall_clustered(self, seed, dim, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(60, 400))
        centers = rng.normal(scale=8.0, size=(5, dim))
        X = centers[rng.integers(0, 5, size=n)] + rng.normal(size=(n, dim))
        index = RPForestIndex(**FOREST, seed=seed).build(X)
        assert _recall(index, X, X[: min(n, 64)], k) >= 0.9


class TestMasking:
    @settings(deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 8))
    def test_masked_queries_never_violate_mask(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 300))
        X = rng.normal(size=(n, 4))
        mask = rng.random(n) < rng.uniform(0.05, 0.9)
        index = RPForestIndex(**FOREST, seed=seed).build(X)
        for probes in (1, FOREST["probes"], EXHAUSTIVE):
            out = index.query(X[:32], k, mask=mask, probes=probes)
            returned = out[out >= 0]
            assert mask[returned].all()

    @settings(deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_counterfactual_constraint_masks(self, seed):
        """Through the backend: hits share the label and flip the attribute."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 200))
        X = rng.normal(size=(n, 4))
        labels = rng.integers(0, 2, size=n)
        attrs = rng.integers(0, 2, size=(n, 1))
        backend = AnnBackend(**FOREST, seed=seed)
        backend.prepare(X)
        found = backend.topk_counterfactuals(np.arange(n), labels, attrs, 3)[0]
        for node, row in enumerate(found):
            hits = row[row >= 0]
            assert (labels[hits] == labels[node]).all()
            assert (attrs[hits, 0] != attrs[node, 0]).all()

    def test_empty_mask_returns_all_padding(self):
        X = np.random.default_rng(0).normal(size=(50, 3))
        index = RPForestIndex(**FOREST, seed=0).build(X)
        out = index.query(X[:5], 4, mask=np.zeros(50, dtype=bool))
        assert (out == -1).all()

    def test_fewer_candidates_than_k_pads_right(self):
        X = np.random.default_rng(1).normal(size=(40, 3))
        mask = np.zeros(40, dtype=bool)
        mask[[3, 17]] = True
        index = RPForestIndex(**FOREST, seed=0).build(X)
        out = index.query(X[:6], 5, mask=mask)
        for row in out:
            found = row[row >= 0]
            assert set(found) <= {3, 17}
            # padding is trailing, never interleaved
            assert (row[len(found):] == -1).all()


class TestDuplicateDistanceTies:
    def test_full_sort_branch_breaks_ties_by_candidate_position(self):
        """k >= num candidates takes the full-sort branch; duplicate
        distances must resolve by candidate order, like every other path."""
        X = np.array([[0.0], [1.0], [-1.0], [2.0], [-2.0]])
        query = np.zeros((1, 1))
        out = exact_topk(X, query, np.arange(5), k=5)
        np.testing.assert_array_equal(out[0], [0, 1, 2, 3, 4])
        # A custom candidate order is the tie-break, not ascending id.
        out = exact_topk(X, query, np.array([2, 1, 4, 3]), k=4)
        np.testing.assert_array_equal(out[0], [2, 1, 4, 3])

    def test_partial_pick_breaks_ties_by_candidate_position(self):
        """``k`` below the candidate count cuts through tied distances: the
        earliest candidates of the tie are kept, in candidate order."""
        X = np.array(
            [[9, 9], [-1, -1], [-1, -1], [-1, -1], [1, 0], [1, 0], [0, 1],
             [1, 0], [0, 0], [1, -1]],
            dtype=np.float64,
        )
        out = exact_topk(X, np.zeros((1, 2)), np.arange(1, 10), k=7)
        np.testing.assert_array_equal(out[0], [8, 4, 5, 6, 7, 1, 2])

    @settings(deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 12))
    def test_grid_ties_follow_stable_argsort(self, seed, k):
        """Integer-grid points make distances exact and often equal; any
        candidate order is the tie-break."""
        rng = np.random.default_rng(seed)
        X = rng.integers(-2, 3, size=(40, 2)).astype(np.float64)
        candidates = rng.permutation(40)[: int(rng.integers(1, 40))]
        queries = X[rng.integers(0, 40, size=5)]
        dist = ((queries[:, None, :] - X[candidates][None, :, :]) ** 2).sum(axis=2)
        expected = candidates[np.argsort(dist, axis=1, kind="stable")[:, :k]]
        np.testing.assert_array_equal(
            exact_topk(X, queries, candidates, k), expected
        )

    def test_rejects_k_below_one(self):
        X = np.random.default_rng(2).normal(size=(5, 2))
        with pytest.raises(ValueError, match="k must be"):
            exact_topk(X, X[:1], np.arange(5), 0)

    def test_many_duplicate_distances_stay_deterministic(self):
        rng = np.random.default_rng(0)
        base = rng.normal(size=(8, 3))
        X = np.repeat(base, 16, axis=0)  # 16 exact copies of each point
        queries = X[:10]
        first = exact_topk(X, queries, np.arange(X.shape[0]), k=X.shape[0])
        for _ in range(3):
            np.testing.assert_array_equal(
                first, exact_topk(X, queries, np.arange(X.shape[0]), k=X.shape[0])
            )
        # Equal-distance blocks list candidates in ascending id order.
        assert (np.diff(first[:, :16].astype(np.int64)) > 0).all()


class TestDeterminism:
    @settings(deadline=None)
    @given(seed=st.integers(0, 10_000), build_seed=st.integers(0, 100))
    def test_same_seed_same_index(self, seed, build_seed):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(int(rng.integers(30, 250)), 5))
        a = RPForestIndex(**FOREST, seed=build_seed).build(X)
        b = RPForestIndex(**FOREST, seed=build_seed).build(X)
        queries = X[:32]
        np.testing.assert_array_equal(a.query(queries, 5), b.query(queries, 5))

    def test_different_seed_may_differ_but_stays_valid(self):
        rng = np.random.default_rng(3)
        X = rng.normal(size=(200, 5))
        a = RPForestIndex(**FOREST, seed=0).build(X)
        out = a.query(X[:16], 5)
        assert out.shape == (16, 5)
        assert (out < 200).all()

    def test_rebuild_resets_state(self):
        rng = np.random.default_rng(4)
        X1 = rng.normal(size=(100, 4))
        X2 = rng.normal(size=(120, 4))
        index = RPForestIndex(**FOREST, seed=7)
        index.build(X1)
        first = index.query(X1[:8], 3)
        index.build(X2)
        assert index.num_points == 120
        index.build(X1)
        np.testing.assert_array_equal(index.query(X1[:8], 3), first)


def _bucket_query(index, query_ids, candidate_ids, k):
    """Exhaustive probing of indexed points, masked to one bucket."""
    mask = np.zeros(index.num_points, dtype=bool)
    mask[candidate_ids] = True
    return index.query(
        index.points[query_ids], k, mask=mask, probes=EXHAUSTIVE
    )


class TestExhaustiveOracle:
    @settings(deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 8))
    def test_exhaustive_probing_equals_exact(self, seed, k):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(20, 250))
        X = rng.normal(size=(n, 4))
        index = RPForestIndex(**FOREST, seed=seed).build(X)
        out = index.query(X[:32], k, probes=EXHAUSTIVE)
        expected = exact_topk(X, X[:32], np.arange(n), k)
        np.testing.assert_array_equal(out[:, : expected.shape[1]], expected)
        assert (out[:, expected.shape[1]:] == -1).all()

    def test_exhaustive_backend_matches_exact_backend(self):
        """One bucket as a mask, ranked by exhaustive probing, is the exact
        backend's answer for that bucket."""
        rng = np.random.default_rng(5)
        X = rng.normal(size=(150, 6))
        queries = np.arange(0, 150, 3)
        candidates = np.arange(1, 150, 2)
        exact = ExactBackend()
        exact.prepare(X)
        index = RPForestIndex(**FOREST, seed=0).build(X)
        np.testing.assert_array_equal(
            exact.topk(queries, candidates, 4),
            _bucket_query(index, queries, candidates, 4),
        )


def _drift(X, rng, fraction=0.2, scale=0.1):
    """Move a random ``fraction`` of points by a small gaussian step."""
    moved = rng.choice(
        X.shape[0], size=max(1, int(fraction * X.shape[0])), replace=False
    )
    X = X.copy()
    X[moved] += scale * rng.normal(size=(moved.size, X.shape[1]))
    return X


class TestIncrementalUpdate:
    @settings(deadline=None)
    @given(seed=st.integers(0, 10_000), rounds=st.integers(1, 4))
    def test_update_is_deterministic(self, seed, rounds):
        """Twin indexes fed the same drift sequence stay identical."""
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(int(rng.integers(40, 250)), 5))
        make = lambda: RPForestIndex(  # noqa: E731
            num_trees=4, leaf_size=8, probes=2, seed=7, rebuild_frac=1.0,
            overflow_factor=2.0,
        ).build(X)
        a, b = make(), make()
        current = X
        for _ in range(rounds):
            current = _drift(current, rng, fraction=0.3, scale=0.5)
            ra = a.update(current)
            rb = b.update(current)
            assert ra == rb
        np.testing.assert_array_equal(
            a.query(current[:32], 5), b.query(current[:32], 5)
        )

    @settings(deadline=None)
    @given(seed=st.integers(0, 10_000), k=st.integers(1, 8))
    def test_exhaustive_stays_exact_after_updates(self, seed, k):
        """Exhaustive probing over an updated index equals the oracle over
        the *new* matrix bit-for-bit (points/norms refresh plumbing)."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 200))
        X = rng.normal(size=(n, 4))
        index = RPForestIndex(**FOREST, seed=seed, rebuild_frac=1.0).build(X)
        for _ in range(3):
            X = _drift(X, rng, fraction=0.25, scale=0.3)
            index.update(X)
        out = index.query(X[:32], k, probes=EXHAUSTIVE)
        expected = exact_topk(X, X[:32], np.arange(n), k)
        np.testing.assert_array_equal(out[:, : expected.shape[1]], expected)
        assert (out[:, expected.shape[1]:] == -1).all()

    @settings(deadline=None)
    @given(seed=st.integers(0, 10_000))
    def test_masked_queries_stay_sound_after_updates(self, seed):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 200))
        X = rng.normal(size=(n, 4))
        mask = rng.random(n) < rng.uniform(0.1, 0.9)
        index = RPForestIndex(**FOREST, seed=seed, rebuild_frac=1.0).build(X)
        X = _drift(X, rng, fraction=0.4, scale=0.5)
        index.update(X)
        for probes in (1, FOREST["probes"], EXHAUSTIVE):
            out = index.query(X[:24], 4, mask=mask, probes=probes)
            returned = out[out >= 0]
            assert mask[returned].all()

    @settings(deadline=None)
    @given(seed=st.integers(0, 2_000))
    def test_recall_survives_repeated_small_drifts(self, seed):
        """Re-routing through stale split planes must keep recall@K >= 0.9
        over several refresh cycles of realistic (small) embedding drift."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(100, 400))
        centers = rng.normal(scale=8.0, size=(5, 4))
        X = centers[rng.integers(0, 5, size=n)] + rng.normal(size=(n, 4))
        index = RPForestIndex(**FOREST, seed=seed, rebuild_frac=1.0).build(X)
        for _ in range(4):
            X = _drift(X, rng, fraction=0.2, scale=0.1)
            report = index.update(X)
            assert not report.rebuilt
        assert _recall(index, X, X[: min(n, 64)], 5) >= 0.9

    @settings(deadline=None)
    @given(seed=st.integers(0, 10_000), rounds=st.integers(1, 4))
    def test_rerouted_leaves_hold_exactly_their_points(self, seed, rounds):
        """After re-routing, each leaf's CSR segment is exactly the set of
        ids whose ``point_leaf`` is that leaf, and ``max_leaf`` is the
        largest segment."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(30, 300))
        X = rng.normal(size=(n, 4))
        index = RPForestIndex(
            **FOREST, seed=seed, rebuild_frac=1.0, overflow_factor=1e9
        ).build(X)
        for _ in range(rounds):
            X = _drift(X, rng, fraction=0.3, scale=1.0)
            assert not index.update(X).rebuilt
        forest = index._forest
        assert forest.leaf_items.shape == forest.point_leaf.shape == (FOREST["num_trees"], n)
        for t in range(FOREST["num_trees"]):
            indptr, items = forest.leaf_indptr[t], forest.leaf_items[t]
            sizes = np.diff(indptr)
            assert forest.max_leaf[t] == sizes.max()
            for leaf in range(sizes.size):
                np.testing.assert_array_equal(
                    np.sort(items[indptr[leaf] : indptr[leaf + 1]]),
                    np.flatnonzero(forest.point_leaf[t] == leaf),
                )

    def test_unmoved_points_are_not_rerouted_but_refreshed(self):
        """An infinite drift threshold skips all re-routing, yet the
        coordinates still refresh (exhaustive ranking sees the new
        matrix)."""
        rng = np.random.default_rng(0)
        X = rng.normal(size=(80, 4))
        index = RPForestIndex(**FOREST, seed=0, drift_threshold=np.inf).build(X)
        X2 = X + 0.5 * rng.normal(size=X.shape)
        report = index.update(X2)
        assert report.num_moved == 0 and not report.rebuilt
        out = index.query(X2[:16], 3, probes=EXHAUSTIVE)
        np.testing.assert_array_equal(
            out, exact_topk(X2, X2[:16], np.arange(80), 3)
        )

    def test_drift_threshold_gates_rerouting(self):
        """Points moving under the threshold are not counted as drifted."""
        rng = np.random.default_rng(2)
        X = rng.normal(size=(100, 4))
        index = RPForestIndex(**FOREST, seed=0, drift_threshold=1.0).build(X)
        X2 = X + 0.01  # L2 delta 0.02 per point, far below the threshold
        report = index.update(X2)
        assert report.num_moved == 0
        np.testing.assert_array_equal(index.points, X2)

    def test_rebuild_escape_hatch_equals_fresh_build(self):
        """Past rebuild_frac, update() is exactly a fresh seeded build."""
        rng = np.random.default_rng(4)
        X = rng.normal(size=(150, 4))
        index = RPForestIndex(**FOREST, seed=9, rebuild_frac=0.1).build(X)
        X2 = X + 1.0  # everything drifts
        report = index.update(X2)
        assert report.rebuilt and report.moved_fraction == 1.0
        fresh = RPForestIndex(**FOREST, seed=9).build(X2)
        np.testing.assert_array_equal(
            index.query(X2[:32], 5), fresh.query(X2[:32], 5)
        )

    def test_overflow_escapes_to_full_rebuild(self):
        """Cramming many points into one region overflows the leaves they
        re-route to; the update must then rebuild the whole forest, exactly
        as a fresh build over the new matrix would."""
        rng = np.random.default_rng(5)
        X = rng.normal(size=(400, 4))
        params = dict(
            num_trees=3, leaf_size=8, probes=2, seed=0, overflow_factor=2.0
        )
        index = RPForestIndex(**params, rebuild_frac=1.0).build(X)
        X2 = X.copy()
        X2[100:250] = X[0] + 0.01 * rng.normal(size=(150, 4))
        report = index.update(X2)
        assert report.rebuilt and report.num_moved == 150
        fresh = RPForestIndex(**params, rebuild_frac=1.0).build(X2).to_arrays()
        arrays = index.to_arrays()
        assert arrays.keys() == fresh.keys()
        for name, array in arrays.items():
            np.testing.assert_array_equal(array, fresh[name], err_msg=name)

    def test_update_validation(self):
        index = RPForestIndex(**FOREST, seed=0)
        with pytest.raises(RuntimeError):
            index.update(np.zeros((4, 2)))
        index.build(np.random.default_rng(0).normal(size=(50, 3)))
        with pytest.raises(ValueError, match="built shape"):
            index.update(np.zeros((60, 3)))
        with pytest.raises(ValueError, match="built shape"):
            index.update(np.zeros((50, 4)))
        with pytest.raises(ValueError, match="drift_threshold"):
            RPForestIndex(drift_threshold=-0.5)
        with pytest.raises(ValueError, match="rebuild_frac"):
            RPForestIndex(rebuild_frac=1.5)
        with pytest.raises(ValueError, match="rebuild_frac"):
            RPForestIndex(rebuild_frac=0.0)
        with pytest.raises(ValueError, match="overflow_factor"):
            RPForestIndex(overflow_factor=0.5)


class TestIncrementalBackend:
    def test_prepare_updates_in_place(self):
        rng = np.random.default_rng(0)
        X = rng.normal(size=(100, 6))
        backend = AnnBackend(
            **FOREST, seed=0, update="incremental", rebuild_frac=1.0
        )
        backend.prepare(X)
        assert backend.last_report is None  # first prepare builds
        X2 = X + 0.05 * rng.normal(size=X.shape)
        backend.prepare(X2)
        assert backend.last_report is not None
        assert not backend.last_report.rebuilt
        # A changed point-set shape falls back to a build.
        backend.prepare(rng.normal(size=(40, 6)))
        assert backend.last_report is None

    def test_incremental_exhaustive_equals_exact_backend(self):
        """After an in-place refresh, exhaustive incremental == oracle."""
        rng = np.random.default_rng(1)
        X = rng.normal(size=(120, 5))
        exact = ExactBackend()
        ann = AnnBackend(**FOREST, seed=0, update="incremental", rebuild_frac=1.0)
        ann.prepare(X)
        queries = np.arange(0, 120, 3)
        candidates = np.arange(1, 120, 2)
        for _ in range(3):
            X = _drift(X, rng, fraction=0.3, scale=0.2)
            exact.prepare(X)
            ann.prepare(X)
            assert not ann.last_report.rebuilt
            np.testing.assert_array_equal(
                exact.topk(queries, candidates, 4),
                _bucket_query(ann.index, queries, candidates, 4),
            )

    def test_bad_update_mode_rejected(self):
        with pytest.raises(ValueError, match="update"):
            AnnBackend(update="bogus")
        with pytest.raises(ValueError, match="update"):
            make_backend("ann", update="sometimes")


class TestValidationAndFactory:
    def test_query_before_build(self):
        with pytest.raises(RuntimeError):
            RPForestIndex().query(np.zeros((1, 3)), 1)

    def test_bad_params(self):
        with pytest.raises(ValueError):
            RPForestIndex(num_trees=0)
        with pytest.raises(ValueError):
            RPForestIndex(leaf_size=0)
        with pytest.raises(ValueError):
            RPForestIndex(probes=0)
        index = RPForestIndex().build(np.zeros((4, 2)))
        with pytest.raises(ValueError):
            index.query(np.zeros((1, 2)), 0)
        with pytest.raises(ValueError):
            index.query(np.zeros((1, 3)), 1)  # wrong dim
        with pytest.raises(ValueError):
            index.query(np.zeros((1, 2)), 1, mask=np.ones(5, dtype=bool))

    def test_make_backend(self):
        assert isinstance(make_backend("exact"), ExactBackend)
        assert isinstance(make_backend("ann", num_trees=3), AnnBackend)
        custom = ExactBackend()
        assert make_backend(custom) is custom
        with pytest.raises(ValueError):
            make_backend("exact", num_trees=3)
        with pytest.raises(ValueError):
            make_backend("bogus")
        with pytest.raises(TypeError):
            make_backend(42)

    def test_single_point_and_tiny_sets(self):
        X = np.array([[1.0, 2.0]])
        index = RPForestIndex(**FOREST, seed=0).build(X)
        out = index.query(X, 3)
        assert out[0, 0] == 0
        assert (out[0, 1:] == -1).all()

    def test_rejects_bad_chunk_size(self):
        with pytest.raises(ValueError, match="chunk_size"):
            RPForestIndex(chunk_size=0)

    def test_points_before_build(self):
        index = RPForestIndex()
        assert index.num_points == 0
        with pytest.raises(RuntimeError, match="build"):
            index.points

    @pytest.mark.parametrize(
        "X", [np.zeros((0, 3)), np.zeros(5)], ids=["empty", "one-dimensional"]
    )
    def test_build_rejects_degenerate_input(self, X):
        with pytest.raises(ValueError, match="non-empty"):
            RPForestIndex().build(X)

    def test_one_dimensional_query_is_one_row(self):
        X = np.random.default_rng(0).normal(size=(60, 4))
        index = RPForestIndex(**FOREST, seed=0).build(X)
        np.testing.assert_array_equal(index.query(X[7], 3), index.query(X[7:8], 3))

    def test_query_rejects_probes_below_one(self):
        index = RPForestIndex().build(np.zeros((4, 2)))
        with pytest.raises(ValueError, match="probes"):
            index.query(np.zeros((1, 2)), 1, probes=0)

    def test_query_counterfactuals_rejects_probes_below_one(self):
        X = np.random.default_rng(0).normal(size=(20, 3))
        labels = np.zeros(20, dtype=np.int64)
        attrs = (np.arange(20) % 2)[:, None]
        index = RPForestIndex(num_trees=2, leaf_size=4).build(X)
        with pytest.raises(ValueError, match="probes"):
            index.query_counterfactuals(np.arange(3), 2, labels, attrs, probes=0)

    def test_chunked_queries_match_one_chunk(self):
        rng = np.random.default_rng(4)
        X = rng.normal(size=(150, 5))
        whole = RPForestIndex(**FOREST, seed=4).build(X)
        chunked = RPForestIndex(**FOREST, seed=4, chunk_size=7).build(X)
        mask = rng.random(150) < 0.6
        np.testing.assert_array_equal(chunked.query(X, 4), whole.query(X, 4))
        np.testing.assert_array_equal(
            chunked.query(X, 4, mask=mask), whole.query(X, 4, mask=mask)
        )

    def test_counterfactual_rows_pad_small_buckets(self):
        rng = np.random.default_rng(2)
        X = rng.normal(size=(12, 3))
        labels = np.repeat([0, 1], 6)
        attrs = (np.arange(12) % 2)[:, None]
        index = RPForestIndex(num_trees=3, leaf_size=4, probes=2, seed=0).build(X)
        k = 5  # every bucket holds 3 points
        out = index.query_counterfactuals(np.arange(12), k, labels, attrs)
        assert out.shape == (1, 12, k)
        for node in range(12):
            bucket = (labels == labels[node]) & (attrs[:, 0] != attrs[node, 0])
            expected = index.query(X[node], k, mask=bucket)[0]
            np.testing.assert_array_equal(out[0, node], expected)
            assert (out[0, node, 3:] == -1).all()

    def test_exact_backend_requires_prepare(self):
        backend = ExactBackend()
        with pytest.raises(RuntimeError, match="prepare"):
            backend.topk(np.arange(2), np.arange(4), 1)
        with pytest.raises(RuntimeError, match="prepare"):
            backend.topk_counterfactuals(
                np.arange(2), np.zeros(4, dtype=np.int64), np.zeros((4, 1)), 1
            )

    def test_make_backend_rejects_options_for_an_instance(self):
        with pytest.raises(ValueError, match="string specs"):
            make_backend(AnnBackend(), num_trees=3)


class TestSerialization:
    """to_arrays / from_arrays round-trip the forest bit-for-bit."""

    def _build(self, seed=3, n=120, d=8):
        rng = np.random.default_rng(seed)
        X = rng.normal(size=(n, d))
        return X, RPForestIndex(**FOREST, seed=seed).build(X)

    def test_round_trip_queries_identical(self):
        X, index = self._build()
        restored = RPForestIndex.from_arrays(index.to_arrays())
        queries = X[:20]
        np.testing.assert_array_equal(
            restored.query(queries, 4), index.query(queries, 4)
        )

    def test_round_trip_exhaustive_identical(self):
        X, index = self._build()
        restored = RPForestIndex.from_arrays(index.to_arrays())
        out = restored.query(X[:10], 3, probes=EXHAUSTIVE)
        np.testing.assert_array_equal(out, index.query(X[:10], 3, probes=EXHAUSTIVE))
        np.testing.assert_array_equal(
            out, exact_topk(X, X[:10], np.arange(X.shape[0]), 3)
        )

    def test_round_trip_masked_queries(self):
        X, index = self._build()
        restored = RPForestIndex.from_arrays(index.to_arrays())
        mask = np.zeros(X.shape[0], dtype=bool)
        mask[::3] = True
        np.testing.assert_array_equal(
            restored.query(X[:8], 2, mask=mask), index.query(X[:8], 2, mask=mask)
        )

    def test_restored_index_updates_like_the_live_one(self):
        rng = np.random.default_rng(5)
        X, index = self._build(seed=5)
        moved = X.copy()
        moved[:10] += 0.5 * rng.normal(size=(10, X.shape[1]))
        assert not index.update(moved).rebuilt
        restored = RPForestIndex.from_arrays(index.to_arrays())
        moved2 = moved.copy()
        moved2[:5] += 0.5 * rng.normal(size=(5, X.shape[1]))
        assert index.update(moved2) == restored.update(moved2)
        for name, array in index.to_arrays().items():
            np.testing.assert_array_equal(
                restored.to_arrays()[name], array, err_msg=name
            )

    def test_from_arrays_accepts_npz_handle(self, tmp_path):
        X, index = self._build()
        np.savez(tmp_path / "idx.npz", **index.to_arrays())
        with np.load(tmp_path / "idx.npz") as data:
            restored = RPForestIndex.from_arrays(data)
        np.testing.assert_array_equal(
            restored.query(X[:5], 2), index.query(X[:5], 2)
        )

    def test_from_arrays_validates(self):
        X, index = self._build()
        arrays = index.to_arrays()
        del arrays["directions"]
        with pytest.raises(ValueError, match="missing"):
            RPForestIndex.from_arrays(arrays)
        with pytest.raises(ValueError, match="missing"):
            RPForestIndex.from_arrays({"params": np.zeros(5, dtype=np.int64)})

    @pytest.mark.parametrize("name", ["leaf_items", "point_leaf"])
    def test_from_arrays_rejects_misshapen_routing_tables(self, name):
        """A routing table must hold one row of N entries per tree."""
        X, index = self._build()
        arrays = index.to_arrays()
        table = arrays[name]
        for bad in (table[:-1], table[:, :-1], table.reshape(-1)):
            with pytest.raises(ValueError, match=name):
                RPForestIndex.from_arrays({**arrays, name: bad})

    def test_to_arrays_names_do_not_depend_on_the_tree_count(self):
        """One tree or eight: the same 12 arrays, each per-tree one with
        the trees on its leading axis."""
        X = np.random.default_rng(0).normal(size=(300, 4))
        layouts = [
            RPForestIndex(num_trees=trees, leaf_size=16).build(X).to_arrays()
            for trees in (1, 8)
        ]
        assert layouts[0].keys() == layouts[1].keys()
        assert len(layouts[0]) == 12
        for name in ("roots", "max_leaf", "leaf_indptr", "leaf_items", "point_leaf"):
            assert [arrays[name].shape[0] for arrays in layouts] == [1, 8], name

    def test_to_arrays_before_build(self):
        with pytest.raises(RuntimeError, match="build"):
            RPForestIndex().to_arrays()

    def test_from_arrays_rejects_empty_points(self):
        _, index = self._build()
        arrays = index.to_arrays()
        arrays["points"] = np.zeros((0, 8))
        with pytest.raises(ValueError, match="non-empty"):
            RPForestIndex.from_arrays(arrays)
