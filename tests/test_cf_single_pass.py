"""Parity harness for the single-pass counterfactual searches.

The ANN backend answers a whole search in one forest pass: each query node
gets one candidate row (descent, leaf gather, dedupe, distances), blanked
to its label; each attribute then blanks the node's own side and picks the
top K with ``argpartition`` plus a tie repair.  The references below are
the per-bucket search this must reproduce, written out independently: one
masked forest query per (label, attribute, side) bucket, each ranked by a
full stable argsort.  ``indices`` and ``valid`` must be equal — ties at the
K-th distance included — on duplicated points, for 1–3 probes, for
``nodes=`` subsets, after incremental updates, and through a saved and
reloaded artifact.

The references build their candidate rows from a per-tree recorded
descent, each tree walked on its own over its rows of the forest's arrays
(``_trees_of``); the index descends every tree at once over the stacked
split planes, and its candidate rows must match the per-tree ones
exactly.

The exact backend answers a search in one pass per label: one distance
block per label, each row's nearest members ranked once, each attribute
filtering that prefix, and a per-bucket pick only where the prefix cannot
settle a (row, attribute) pair.  Its oracle, ``_reference_exact_search``,
is the per-bucket search: one ``exact_topk`` per bucket.
"""

from __future__ import annotations

from types import SimpleNamespace

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core import CounterfactualSearch, ExecutionConfig
from repro.core import ann
from repro.core.ann import RPForestIndex, _select_topk, exact_topk
from repro.experiments.methods import run_method
from repro.io import load_artifact, save_artifact


# --------------------------------------------------------------------- #
# References
# --------------------------------------------------------------------- #
_INACTIVE = np.iinfo(np.int64).min


def _trees_of(index):
    """Each tree of ``index``'s forest on its own: its rows of the split
    planes, with child and root refs local to the tree, and its row of each
    routing table."""
    forest = index._forest
    splits = forest.leaf_indptr.shape[1] - 2
    trees = []
    for t, root in enumerate(forest.roots):
        base = t * splits
        rows = slice(base, base + splits)
        children = forest.children[rows]
        trees.append(
            SimpleNamespace(
                directions=forest.directions[rows],
                thresholds=forest.thresholds[rows],
                children=np.where(children >= 0, children - base, children),
                root=int(root - base if root >= 0 else root),
                depth=forest.depth,
                leaf_indptr=forest.leaf_indptr[t],
                leaf_items=forest.leaf_items[t],
                max_leaf=int(forest.max_leaf[t]),
            )
        )
    return trees


def _reference_greedy_descent(tree, Q, start):
    """Follow one tree's splits greedily from ``start`` nodes; returns leaf
    ids (-1 where ``start`` is ``_INACTIVE``)."""
    cur = start.copy()
    active = cur >= 0
    while active.any():
        nodes = cur[active]
        proj = np.einsum("qd,qd->q", Q[active], tree.directions[nodes])
        side = (proj >= tree.thresholds[nodes]).astype(np.int64)
        cur[active] = tree.children[nodes, side]
        active = cur >= 0
    leaves = -(cur + 1)
    leaves[start == _INACTIVE] = -1
    return leaves


def _reference_tree_leaves(tree, Q, probes):
    """Leaf id per (query, probe) of one tree, descended on its own; -1
    where a probe is unavailable."""
    m = Q.shape[0]
    out = np.full((m, probes), -1, dtype=np.int64)
    if tree.root < 0:  # single-leaf tree
        out[:, 0] = -(tree.root + 1)
        return out
    # Recorded descent: path nodes, margins and the side taken per level.
    path_nodes = np.full((m, tree.depth), -1, dtype=np.int64)
    margins = np.full((m, tree.depth), np.inf)
    sides = np.zeros((m, tree.depth), dtype=np.int64)
    cur = np.full(m, tree.root, dtype=np.int64)
    level = 0
    active = cur >= 0
    while active.any():
        nodes = cur[active]
        proj = np.einsum("qd,qd->q", Q[active], tree.directions[nodes])
        thr = tree.thresholds[nodes]
        side = (proj >= thr).astype(np.int64)
        path_nodes[active, level] = nodes
        margins[active, level] = np.abs(proj - thr)
        sides[active, level] = side
        cur[active] = tree.children[nodes, side]
        active = cur >= 0
        level += 1
    out[:, 0] = -(cur + 1)
    # Probe p flips the p-th smallest-margin decision of the root path and
    # descends greedily below the flip.
    margin_order = np.argsort(margins, axis=1, kind="stable")
    rows = np.arange(m)
    for probe in range(1, min(probes, tree.depth + 1)):
        pos = margin_order[:, probe - 1]
        nodes = path_nodes[rows, pos]
        usable = nodes >= 0
        start = np.full(m, _INACTIVE, dtype=np.int64)
        start[usable] = tree.children[
            nodes[usable], 1 - sides[rows[usable], pos[usable]]
        ]
        out[:, probe] = _reference_greedy_descent(tree, Q, start)
    return out


def _reference_candidates(index, Q, probes):
    """``RPForestIndex._candidates`` from per-tree descents, one
    (tree, probe) block of ``max_leaf`` columns at a time."""
    trees = _trees_of(index)
    width = sum(tree.max_leaf for tree in trees) * probes
    cands = np.full((Q.shape[0], width), -1, dtype=np.int64)
    col = 0
    for tree in trees:
        leaves = _reference_tree_leaves(tree, Q, probes)
        for probe in range(probes):
            for row, leaf in enumerate(leaves[:, probe]):
                if leaf >= 0:
                    lo, hi = tree.leaf_indptr[leaf], tree.leaf_indptr[leaf + 1]
                    cands[row, col : col + hi - lo] = tree.leaf_items[lo:hi]
            col += tree.max_leaf
    cands.sort(axis=1)
    cands[:, 1:][cands[:, 1:] == cands[:, :-1]] = -1
    return cands


def _reference_query(index, Q, k, mask=None, probes=None):
    """``RPForestIndex.query`` ranked by a full stable argsort per row."""
    probes = index.probes if probes is None else probes
    Q = np.asarray(Q, dtype=np.float64)
    out = np.full((Q.shape[0], k), -1, dtype=np.int64)
    for start in range(0, Q.shape[0], index.chunk_size):
        chunk = Q[start : start + index.chunk_size]
        cands = _reference_candidates(index, chunk, probes)
        safe = np.maximum(cands, 0)
        dots = np.einsum("qd,qwd->qw", chunk, index._points[safe])
        dist = (chunk**2).sum(axis=1)[:, None] - 2.0 * dots + index._norms[safe]
        invalid = cands < 0
        if mask is not None:
            invalid |= ~mask[safe]
        dist[invalid] = np.inf
        order = np.argsort(dist, axis=1, kind="stable")[:, :k]
        picked = np.take_along_axis(cands, order, axis=1)
        picked[~np.isfinite(np.take_along_axis(dist, order, axis=1))] = -1
        out[start : start + chunk.shape[0], : picked.shape[1]] = picked
    return out


def _bucket_search(labels, attrs, k, answer, nodes=None):
    """The search one (label, attribute, side) bucket at a time.

    ``answer(queries, candidates)`` ranks a bucket's candidates (ascending
    ids) for its queried members: hits left-aligned, ``-1``-padded or cut
    short.  Returns ``(indices, valid)`` laid out as a
    :class:`~repro.core.CounterfactualIndex`: short rows cycle, empty and
    unqueried rows self-point.
    """
    n, num_attrs = attrs.shape
    indices = np.tile(np.arange(n)[:, None], (num_attrs, 1, k))
    valid = np.zeros((num_attrs, n), dtype=bool)
    queried = np.ones(n, dtype=bool)
    if nodes is not None:
        queried[:] = False
        queried[nodes] = True
    for label in np.unique(labels):
        members = np.flatnonzero(labels == label)
        for attr in range(num_attrs):
            side1 = attrs[members, attr] == 1
            group_a, group_b = members[~side1], members[side1]
            if group_a.size == 0 or group_b.size == 0:
                continue
            for queries, candidates in ((group_a, group_b), (group_b, group_a)):
                queries = queries[queried[queries]]
                if queries.size == 0:
                    continue
                found = answer(queries, candidates)
                counts = (found >= 0).sum(axis=1)
                rows = np.flatnonzero(counts)
                cols = np.arange(k)[None, :] % counts[rows][:, None]
                indices[attr, queries[rows]] = found[rows[:, None], cols]
                valid[attr, queries[rows]] = True
    return indices, valid


def _reference_search(index, labels, attrs, k, nodes=None, probes=None):
    """One masked reference query per (label, attribute, side) bucket."""

    def answer(queries, candidates):
        mask = np.zeros(index.num_points, dtype=bool)
        mask[candidates] = True
        return _reference_query(
            index, index.points[queries], k, mask=mask, probes=probes
        )

    return _bucket_search(labels, attrs, k, answer, nodes)


def _reference_exact_search(points, labels, attrs, k, nodes=None, topk=exact_topk):
    """The exact search one bucket at a time: one
    ``topk(points, queries, candidate_ids, k)`` per (label, attribute, side)
    bucket, its candidates in ascending id (:func:`exact_topk` by
    default)."""
    points = np.asarray(points, dtype=np.float64)
    return _bucket_search(
        labels,
        attrs,
        k,
        lambda queries, candidates: topk(points, points[queries], candidates, k),
        nodes,
    )


def _tied_data(seed, n, dim=3, num_attrs=3):
    """Points on a coarse grid, many of them exact copies: plenty of equal
    distances, so the K-th distance is often tied."""
    rng = np.random.default_rng(seed)
    base = np.round(rng.normal(size=(max(2, n // 3), dim)))
    reps = base[rng.integers(0, base.shape[0], size=n)]
    return reps, rng.integers(0, 2, size=n), rng.integers(0, 2, size=(n, num_attrs))


def _leaf_paths(tree):
    """Root-to-leaf node paths of one tree."""
    paths, stack = [], [(tree.root, [])]
    while stack:
        node, path = stack.pop()
        if node < 0:
            paths.append(path)
        else:
            stack += [(child, path + [node]) for child in tree.children[node]]
    return paths


def _assert_same(index, reference):
    np.testing.assert_array_equal(index.indices, reference[0])
    np.testing.assert_array_equal(index.valid, reference[1])


# --------------------------------------------------------------------- #
# The selection
# --------------------------------------------------------------------- #
class TestSelection:
    @settings(deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 12),
        levels=st.integers(1, 6),
    )
    def test_select_topk_is_stable_argsort_prefix(self, seed, k, levels):
        """Few distinct values plus ``inf`` padding: most rows tie at the
        K-th distance.  Finite entries come exactly as a stable argsort
        lists them; infinite ones only have to come after."""
        rng = np.random.default_rng(seed)
        dist = rng.integers(0, levels, size=(40, int(rng.integers(1, 30))))
        dist = dist.astype(np.float64)
        dist[rng.random(dist.shape) < 0.3] = np.inf
        expected = np.argsort(dist, axis=1, kind="stable")[:, :k]
        got = _select_topk(dist, k)
        finite = np.isfinite(np.take_along_axis(dist, expected, axis=1))
        np.testing.assert_array_equal(
            np.isfinite(np.take_along_axis(dist, got, axis=1)), finite
        )
        np.testing.assert_array_equal(got[finite], expected[finite])

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 8),
        probes=st.integers(1, 3),
    )
    def test_query_matches_full_argsort(self, seed, k, probes):
        rng = np.random.default_rng(seed)
        reps, _, _ = _tied_data(seed, int(rng.integers(20, 150)))
        index = RPForestIndex(num_trees=4, leaf_size=8, seed=seed).build(reps)
        mask = rng.random(reps.shape[0]) < 0.6
        for query_mask in (None, mask):
            np.testing.assert_array_equal(
                index.query(reps, k, mask=query_mask, probes=probes),
                _reference_query(index, reps, k, mask=query_mask, probes=probes),
            )


# --------------------------------------------------------------------- #
# The descent
# --------------------------------------------------------------------- #
def _nudge(reps, rng, fraction=0.2, scale=0.3):
    """Move a random share of the points a little: the next update
    re-routes them through the standing split planes."""
    moved = rng.random(reps.shape[0]) < fraction
    reps = reps.copy()
    reps[moved] += scale * rng.normal(size=(int(moved.sum()), reps.shape[1]))
    return reps


class TestDescentOracle:
    """``_candidates`` descends every tree at once over the stacked planes;
    the oracle descends each tree on its own.  Rows must match exactly."""

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        num_trees=st.integers(1, 5),
        probes=st.integers(1, 8),
        updates=st.integers(0, 3),
        single_leaf=st.booleans(),
        round_trip=st.booleans(),
    )
    def test_candidates_match_per_tree_descent(
        self, seed, num_trees, probes, updates, single_leaf, round_trip
    ):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(60, 240))
        reps, _, _ = _tied_data(seed, n)
        index = RPForestIndex(
            num_trees=num_trees,
            leaf_size=n if single_leaf else int(rng.integers(3, 12)),
            seed=seed,
            rebuild_frac=1.0,
        ).build(reps)
        for _ in range(updates):
            reps = _nudge(reps, rng)
            index.update(reps)
        if round_trip:
            index = RPForestIndex.from_arrays(index.to_arrays())
        queries = np.concatenate(
            [reps[rng.integers(0, n, size=20)], rng.normal(size=(5, 3))]
        )
        np.testing.assert_array_equal(
            index._candidates(queries, probes),
            _reference_candidates(index, queries, probes),
        )

    def test_mixed_depths_single_leaves_and_deep_probes(self):
        """Leaves at two depths, single-leaf trees and more probes than
        levels, live and restored."""
        rng = np.random.default_rng(1)
        reps = rng.normal(size=(400, 4))
        # 400 points halve to blocks of 25, which split into a 12-point
        # leaf and a 13-point node: root paths of two lengths in each tree.
        index = RPForestIndex(num_trees=3, leaf_size=12, seed=0).build(reps)
        leaf_levels = {len(path) for path in _leaf_paths(_trees_of(index)[0])}
        assert leaf_levels == {5, 6}
        single = RPForestIndex(num_trees=2, leaf_size=400, seed=0).build(reps)
        assert all(tree.root < 0 for tree in _trees_of(single))
        restored = RPForestIndex.from_arrays(index.to_arrays())
        for forest in (index, single, restored):
            probes = forest._forest.depth + 2
            np.testing.assert_array_equal(
                forest._candidates(reps, probes),
                _reference_candidates(forest, reps, probes),
            )

    def test_updates_and_restores_leave_the_planes_alone(self):
        """Tree ``t``'s rows depend on ``(seed, t)`` alone, and neither an
        update (which only re-routes points) nor a restore changes a
        plane."""
        rng = np.random.default_rng(2)
        reps = rng.normal(size=(300, 4))
        index = RPForestIndex(num_trees=3, leaf_size=8, seed=4).build(reps)
        forest = index._forest
        fewer = RPForestIndex(num_trees=2, leaf_size=8, seed=4).build(reps)._forest
        splits = forest.leaf_indptr.shape[1] - 2
        for name in ("directions", "thresholds", "children"):
            np.testing.assert_array_equal(
                getattr(forest, name)[: 2 * splits], getattr(fewer, name), name
            )
        for name in ("roots", "leaf_indptr", "leaf_items", "point_leaf", "max_leaf"):
            np.testing.assert_array_equal(
                getattr(forest, name)[:2], getattr(fewer, name), name
            )
        planes = ("directions", "thresholds", "children", "roots")
        before = {name: getattr(forest, name).copy() for name in planes}
        routing = forest.point_leaf.copy()
        assert not index.update(_nudge(reps, rng)).rebuilt
        assert (forest.point_leaf != routing).any()
        restored = RPForestIndex.from_arrays(index.to_arrays())._forest
        for after in (forest, restored):
            assert after.depth == fewer.depth
            for name in planes:
                np.testing.assert_array_equal(getattr(after, name), before[name], name)


# --------------------------------------------------------------------- #
# The search
# --------------------------------------------------------------------- #
class TestSearchParity:
    @settings(deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 6),
        probes=st.integers(1, 3),
        subset=st.booleans(),
    )
    def test_matches_bucket_search(self, seed, k, probes, subset):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(10, 160))
        reps, labels, attrs = _tied_data(seed, n)
        nodes = rng.integers(0, n, size=int(rng.integers(0, n))) if subset else None
        search = CounterfactualSearch(
            top_k=k,
            backend="ann",
            backend_options={
                "num_trees": 4, "leaf_size": 8, "probes": probes, "seed": seed,
                "chunk_size": 16,
            },
        )
        result = search.search(reps, labels, attrs, nodes=nodes)
        _assert_same(
            result, _reference_search(search.backend.index, labels, attrs, k, nodes)
        )

    def test_query_counterfactuals_validates(self):
        reps, labels, attrs = _tied_data(0, 40)
        index = RPForestIndex(num_trees=2, leaf_size=8, seed=0)
        with pytest.raises(RuntimeError, match="build"):
            index.query_counterfactuals(np.arange(3), 2, labels, attrs)
        index.build(reps)
        with pytest.raises(ValueError, match="exhaustive"):
            index.query_counterfactuals(
                np.arange(3), 2, labels, attrs, probes="exhaustive"
            )
        with pytest.raises(ValueError, match="out of range"):
            index.query_counterfactuals(np.array([40]), 2, labels, attrs)
        with pytest.raises(ValueError, match="rows"):
            index.query_counterfactuals(np.arange(3), 2, labels[:-1], attrs)
        with pytest.raises(ValueError, match="k must be"):
            index.query_counterfactuals(np.arange(3), 0, labels, attrs)

    def test_data_ties_at_the_kth_distance(self):
        """Most rows of the generated data tie at the K-th distance beyond
        the cut — the case argpartition alone gets wrong."""
        reps, _, _ = _tied_data(3, 150)
        dist = ((reps[:, None, :] - reps[None, :, :]) ** 2).sum(axis=2)
        kth = np.sort(dist, axis=1)[:, 2:3]
        assert ((dist <= kth).sum(axis=1) > 3).mean() > 0.5

    @settings(deadline=None)
    @given(seed=st.integers(0, 10_000), probes=st.integers(1, 3))
    def test_matches_after_incremental_updates(self, seed, probes):
        rng = np.random.default_rng(seed)
        n = int(rng.integers(120, 300))
        reps, labels, attrs = _tied_data(seed, n)
        search = CounterfactualSearch(
            top_k=4,
            backend="ann",
            backend_options={
                "num_trees": 3, "leaf_size": 8, "probes": probes, "seed": seed,
                "update": "incremental", "rebuild_frac": 1.0,
            },
        )
        search.search(reps, labels, attrs)
        for _ in range(2):
            reps = _nudge(reps, rng)
            result = search.search(reps, labels, attrs)
            assert search.backend.last_report.num_moved > 0
            _assert_same(
                result, _reference_search(search.backend.index, labels, attrs, 4)
            )


# --------------------------------------------------------------------- #
# The exact search
# --------------------------------------------------------------------- #
def _exact_case(seed, n, num_attrs, tied, num_labels):
    """Integer-grid copies (``_tied_data``) or normal floats, with about a
    fifth of the attribute columns one-sided: their buckets are empty."""
    rng = np.random.default_rng(seed)
    if tied:
        reps, _, attrs = _tied_data(seed, n, num_attrs=num_attrs)
    else:
        reps = rng.normal(size=(n, 4))
        attrs = rng.integers(0, 2, size=(n, num_attrs))
    one_sided = rng.random(num_attrs) < 0.2
    attrs[:, one_sided] = rng.integers(0, 2, size=int(one_sided.sum()))
    return reps, rng.integers(0, num_labels, size=n), attrs


class TestExactSearchParity:
    """The exact backend ranks each node's nearest same-label members once
    and filters that ranking per attribute; the oracle runs one
    ``exact_topk`` per bucket.  ``indices`` and ``valid`` must be equal.
    On ``_tied_data`` every distance is a small integer, exact in any GEMM
    order, so ties are compared bit for bit."""

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 12),
        num_attrs=st.integers(1, 70),
        num_labels=st.integers(1, 3),
        tied=st.booleans(),
        subset=st.booleans(),
        float32=st.booleans(),
    )
    def test_matches_bucket_search(
        self, seed, k, num_attrs, num_labels, tied, subset, float32
    ):
        """Small buckets (K often exceeds them), empty sides, one to three
        labels, unsorted ``nodes=`` with repeats and float32 inputs."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(2, 160))
        reps, labels, attrs = _exact_case(seed, n, num_attrs, tied, num_labels)
        if float32:
            reps = reps.astype(np.float32)
        nodes = rng.integers(0, n, size=int(rng.integers(0, 2 * n))) if subset else None
        result = CounterfactualSearch(top_k=k).search(reps, labels, attrs, nodes=nodes)
        _assert_same(result, _reference_exact_search(reps, labels, attrs, k, nodes))

    @settings(deadline=None)
    @given(
        seed=st.integers(0, 10_000),
        k=st.integers(1, 6),
        budget=st.sampled_from([1, 2_000, 4 << 20]),
        whole_label=st.booleans(),
        tied=st.booleans(),
    )
    def test_forced_paths(self, seed, k, budget, whole_label, tied):
        """A prefix of K members, one of them the node itself, leaves nearly
        every pair to the fallback pick; a prefix as long as the label
        leaves none.  The small row budgets split each label into several
        chunks."""
        rng = np.random.default_rng(seed)
        n = int(rng.integers(40, 160))
        reps, labels, attrs = _exact_case(seed, n, int(rng.integers(1, 8)), tied, 2)
        picked = []
        pick = ann._pick

        def spy(cands, dist, k):
            picked.append(dist.shape[0])
            return pick(cands, dist, k)

        with pytest.MonkeyPatch.context() as patch:
            patch.setattr(ann, "_GATHER_BYTES", budget)
            patch.setattr(ann, "_EXACT_PREFIX", n if whole_label else 1)
            patch.setattr(ann, "_pick", spy)
            result = CounterfactualSearch(top_k=k).search(reps, labels, attrs)
        _assert_same(result, _reference_exact_search(reps, labels, attrs, k))
        if whole_label:
            assert not picked
        else:
            assert sum(picked) >= result.valid.sum() / 2


# --------------------------------------------------------------------- #
# Through a saved artifact
# --------------------------------------------------------------------- #
@pytest.fixture(scope="module")
def artifact(small_graph, tmp_path_factory):
    result = run_method(
        "fairwos",
        small_graph,
        epochs=4,
        finetune_epochs=2,
        execution=ExecutionConfig(cf_backend="ann"),
        keep_model=True,
    )
    trainer = result.extra["model"]
    path = save_artifact(trainer, small_graph, tmp_path_factory.mktemp("cf") / "a")
    return trainer, load_artifact(path)


class TestArtifactParity:
    @pytest.mark.parametrize("probes", [None, 1, 2, 3])
    @pytest.mark.parametrize("nodes", [None, np.array([0, 5, 5, 17, 99, 249])])
    def test_reloaded_search_matches_live_buckets(self, artifact, probes, nodes):
        trainer, art = artifact
        top_k = trainer.config.top_k
        served = art.counterfactuals(nodes=nodes, probes=probes)
        live_index = trainer._search.backend.index
        _assert_same(
            served,
            _reference_search(
                live_index,
                trainer._pseudo_labels,
                trainer._binary_attrs,
                top_k,
                nodes,
                probes,
            ),
        )
