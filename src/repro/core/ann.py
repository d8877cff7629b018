"""Approximate nearest-neighbour search for the counterfactual index.

The exact counterfactual search (Eq. 12) is an O(N²·I) distance scan — fine
up to ~10k nodes, prohibitive beyond.  This module provides its two
backends:

* :func:`exact_topk` — brute-force top-``k`` over one candidate list, ranked
  by (distance, candidate position); exhaustive-probe forest queries and
  :meth:`ExactBackend.topk` rank through it;
* :class:`RPForestIndex` — a numpy random-projection-tree forest (Dasgupta
  & Freund, "Random projection trees and low dimensional manifolds", STOC
  2008) with ``build(X)`` / ``query(Q, k, mask=...)``, where the boolean
  ``mask`` restricts candidates, and
  ``query_counterfactuals(ids, k, labels, attributes)``, which answers the
  counterfactual search's every label-consistent, opposite-attribute
  bucket in one pass;
* :class:`ExactBackend` / :class:`AnnBackend` — the two backends
  :class:`~repro.core.counterfactual.CounterfactualSearch` calls through
  ``prepare(points)`` and ``topk_counterfactuals(...)``: the exact one
  ranks each query node's nearest same-label members once and filters
  that ranking per attribute, the ANN one makes one
  ``query_counterfactuals`` pass.

Every ranking path breaks distance ties the same way: a bucket's hits are
the first ``k`` of a stable argsort by (squared L2 distance, ascending id).

Design notes
------------
Each tree splits its points on a random unit direction at the projection
median (split by rank, so trees are exactly balanced and build is
O(N log N) per tree).  A split by rank gives every tree of a build the
same shape, so the whole forest is one fixed-shape set of arrays whose
leading axis is the tree (``_Forest``): the split planes of all trees in
one stack, the routing tables as ``(trees, N)`` arrays.  A chunk of
queries descends every tree at once: each (tree, query) pair is one row of
a single recorded descent, so a chunk takes about two numpy passes per
level, however many trees there are.  ``probes > 1`` additionally flips
the lowest-margin split decisions along each root path (multi-probe, as
in Annoy/LSH multi-probe) and descends the alternative subtrees greedily
over the same arrays, trading work for recall.  Candidates from all (tree,
probe) leaves are gathered into one row per query, deduplicated, and
ranked by true L2 distance, with ties broken by ascending point id for
determinism.
The top ``k`` come from ``argpartition`` plus a tie repair: rows where
entries tied at the ``k``-th distance straddle the cut are re-ranked by a
full stable sort, so the result is exactly the first ``k`` of a stable
argsort.

The counterfactual search builds each query's candidate row once — the
descent, gather, dedupe and distances do not depend on the attribute — and
blanks candidates with another label.  Per attribute it then blanks the
query's own side and picks the top ``k``.  Row for row this equals one
masked :meth:`~RPForestIndex.query` per bucket, without descending and
ranking every node once per attribute.

``query(..., probes="exhaustive")`` bypasses the trees and ranks *every*
masked candidate through :func:`exact_topk` — the property tests use this
to prove the forest's plumbing (masking, padding, refreshed coordinates)
reproduces the exact answer.  It equals the exact backend's search by
ranking, not by distance bits: the two compute their distances in GEMMs
of different shapes, which may round the last bit differently.  A search
that wants exact answers runs the exact backend over the index's points.

The exact search
----------------
:meth:`ExactBackend.topk_counterfactuals` answers a whole search in one
pass per label.  It computes one distance block between the label's query
rows and all of its members (``‖q‖² − 2·q·mᵀ + ‖m‖²``, a few rows at a
time within :data:`_GATHER_BYTES`).  Each row's :data:`_EXACT_PREFIX`
nearest members are ranked once by (distance, id), and each attribute
keeps the first ``k`` opposite-side members of that prefix.  The prefix
cannot settle a (row, attribute) pair that holds fewer than ``k`` of them
while its bucket has more; only those pairs pick over the bucket's columns
of the same block.

Incremental maintenance
-----------------------
Fine-tune embeddings drift slowly between adjacent refreshes, so rebuilding
the whole forest every ``cf_refresh_epochs`` wastes most of its work.
:meth:`RPForestIndex.update` amortises it: *every* point's coordinates are
refreshed (distance ranking is always exact over the new matrix), but only
points whose embedding moved more than ``drift_threshold`` are re-routed
through the unchanged split planes (leaf-level removal + greedy
re-descent).  The update escapes to a full :meth:`~RPForestIndex.build`
when more than ``rebuild_frac`` of the points drifted — re-routing most of
the index through stale split planes would cost nearly as much and erode
recall — or when a re-route leaves a leaf with more than
``leaf_size * overflow_factor`` points, which would inflate every query's
candidate row.
:class:`AnnBackend` exposes the policy as ``update="rebuild"|"incremental"``;
each :meth:`~AnnBackend.prepare` then either rebuilds the forest or applies
an in-place update (falling back to a build when the point-set shape
changed).
"""

from __future__ import annotations

from dataclasses import dataclass, fields

import numpy as np

from repro.graph.utils import sorted_unique

__all__ = [
    "EXHAUSTIVE",
    "RPForestIndex",
    "UpdateReport",
    "exact_topk",
    "ExactBackend",
    "AnnBackend",
    "make_backend",
]

#: Sentinel for :meth:`RPForestIndex.query`'s ``probes`` — rank every masked
#: candidate by brute force (the exact answer, like :class:`ExactBackend`).
EXHAUSTIVE = "exhaustive"


def exact_topk(
    points: np.ndarray,
    queries: np.ndarray,
    candidate_ids: np.ndarray,
    k: int,
) -> np.ndarray:
    """Brute-force top-``k`` of ``candidate_ids`` for each query row.

    Parameters
    ----------
    points:
        ``(N, d)`` base point matrix.
    queries:
        ``(Q, d)`` query vectors (rows need not be base points).
    candidate_ids:
        Ids into ``points`` eligible as neighbours (any order; the order is
        the tie-break when ``k`` cuts through equal distances).
    k:
        Neighbours requested.

    Returns
    -------
    ``(Q, min(k, len(candidate_ids)))`` int64 array of candidate ids: the
    first ``k`` of a stable argsort of each row by squared L2 distance.
    """
    if k < 1:
        raise ValueError(f"k must be >= 1, got {k}")
    queries = np.asarray(queries, dtype=np.float64)
    candidate_ids = np.asarray(candidate_ids, dtype=np.int64).reshape(-1)
    candidate_reprs = points[candidate_ids]
    # Squared L2 distances; monotone in L2 so the ranking matches Eq. 12.
    distances = (
        (queries**2).sum(axis=1)[:, None]
        - 2.0 * queries @ candidate_reprs.T
        + (candidate_reprs**2).sum(axis=1)[None, :]
    )
    return candidate_ids[_select_topk(distances, k)]


@dataclass(frozen=True)
class UpdateReport:
    """What one :meth:`RPForestIndex.update` call did.

    ``num_moved`` counts points whose drift exceeded the threshold;
    ``rebuilt`` is True when the update escaped to a full rebuild: the
    drifted fraction exceeded ``rebuild_frac``, or a re-route overflowed a
    leaf.
    """

    num_points: int
    num_moved: int
    moved_fraction: float
    rebuilt: bool


@dataclass
class _Forest:
    """Every tree of a forest in one set of arrays whose leading axis is
    the tree.

    Splits are by rank, so every tree of a build has the same number ``S``
    of splits, ``S + 1`` leaves, the same depth and the same leaf sizes;
    an update re-routes points but never adds a leaf or moves a plane.

    Tree ``t``'s split planes are rows ``t·S`` to ``(t + 1)·S − 1`` of
    ``directions``, ``thresholds`` and ``children``.  ``children`` entries
    ``>= 0`` are such forest-wide rows; negative entries encode a leaf of
    the row's own tree as ``-(leaf_id + 1)``, since a descent row knows its
    tree.  ``roots`` holds each tree's root in the same encoding (a tree
    small enough to be a single leaf has no rows).  ``depth`` is the
    longest root-to-leaf path; it sets the width of the recorded descent
    and how many probe flips a query can make.

    ``point_leaf[t]`` maps each indexed point to its current leaf in tree
    ``t`` — the routing table incremental updates edit in place;
    ``leaf_indptr[t]`` / ``leaf_items[t]`` are its CSR view, repacked after
    every update, and ``max_leaf[t]`` is its largest leaf.
    """

    directions: np.ndarray  # (T·S, d)
    thresholds: np.ndarray  # (T·S,)
    children: np.ndarray  # (T·S, 2)
    roots: np.ndarray  # (T,)
    depth: int
    leaf_indptr: np.ndarray  # (T, S + 2)
    leaf_items: np.ndarray  # (T, N)
    point_leaf: np.ndarray  # (T, N)
    max_leaf: np.ndarray  # (T,)


class RPForestIndex:
    """Random-projection-tree forest over a fixed point set.

    Parameters
    ----------
    num_trees:
        Independent trees; recall grows with the union of their leaves.
    leaf_size:
        Stop splitting below this many points.
    probes:
        Default leaves visited per tree per query (>= 1).  Probe ``p`` flips
        the ``p``-th smallest-margin split decision of the original descent.
    seed:
        Forest construction seed; two builds with the same seed over the
        same data are identical.
    chunk_size:
        Queries processed per vectorized block (candidate rows of
        ``num_trees × probes × leaf_size`` ids each; their coordinates are
        gathered in sub-blocks of about 4 MiB).
    drift_threshold:
        Drift detector of :meth:`update`: a point is re-routed when its
        embedding moved more than this L2 distance since the last
        build/update (0 = any movement counts).
    rebuild_frac:
        Escape hatch of :meth:`update`: when more than this fraction of
        points drifted, rebuild the forest instead.
    overflow_factor:
        Second escape hatch of :meth:`update`: when a re-route leaves a leaf
        with more than ``leaf_size * overflow_factor`` points, rebuild the
        forest instead.
    """

    def __init__(
        self,
        num_trees: int = 8,
        leaf_size: int = 32,
        probes: int = 2,
        seed: int = 0,
        chunk_size: int = 512,
        drift_threshold: float = 0.0,
        rebuild_frac: float = 0.5,
        overflow_factor: float = 4.0,
    ) -> None:
        if num_trees < 1:
            raise ValueError(f"num_trees must be >= 1, got {num_trees}")
        if leaf_size < 1:
            raise ValueError(f"leaf_size must be >= 1, got {leaf_size}")
        if probes < 1:
            raise ValueError(f"probes must be >= 1, got {probes}")
        if chunk_size < 1:
            raise ValueError(f"chunk_size must be >= 1, got {chunk_size}")
        if drift_threshold < 0:
            raise ValueError(
                f"drift_threshold must be non-negative, got {drift_threshold}"
            )
        if not 0.0 < rebuild_frac <= 1.0:
            raise ValueError(f"rebuild_frac must be in (0, 1], got {rebuild_frac}")
        if overflow_factor < 1.0:
            raise ValueError(
                f"overflow_factor must be >= 1, got {overflow_factor}"
            )
        self.num_trees = num_trees
        self.leaf_size = leaf_size
        self.probes = probes
        self.seed = seed
        self.chunk_size = chunk_size
        self.drift_threshold = drift_threshold
        self.rebuild_frac = rebuild_frac
        self.overflow_factor = overflow_factor
        self._points: np.ndarray | None = None
        self._norms: np.ndarray | None = None
        self._forest: _Forest | None = None

    # ------------------------------------------------------------------ #
    @property
    def num_points(self) -> int:
        """Number of indexed points (0 before :meth:`build`)."""
        return 0 if self._points is None else self._points.shape[0]

    @property
    def points(self) -> np.ndarray:
        """The indexed point matrix (raises before :meth:`build`)."""
        if self._points is None:
            raise RuntimeError("call build() before reading points")
        return self._points

    def build(self, X: np.ndarray) -> "RPForestIndex":
        """(Re)build the forest over ``X``; returns ``self``.

        Each tree draws from its own generator, seeded by
        ``(seed, tree_id)``.  Every tree of a build has the same number of
        splits, so each writes its planes and routing tables straight into
        its rows of the forest's arrays.
        """
        X = np.array(X, dtype=np.float64, copy=True)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError(f"expected a non-empty (N, d) matrix, got {X.shape}")
        self._points = X
        self._norms = (X**2).sum(axis=1)
        (n, dim), trees = X.shape, self.num_trees
        splits = _num_splits(n, self.leaf_size)
        self._forest = _Forest(
            directions=np.empty((trees * splits, dim)),
            thresholds=np.empty(trees * splits),
            children=np.empty((trees * splits, 2), dtype=np.int64),
            roots=np.empty(trees, dtype=np.int64),
            depth=0,
            leaf_indptr=np.zeros((trees, splits + 2), dtype=np.int64),
            leaf_items=np.empty((trees, n), dtype=np.int64),
            point_leaf=np.empty((trees, n), dtype=np.int64),
            max_leaf=np.empty(trees, dtype=np.int64),
        )
        for t in range(trees):
            self._build_tree(X, t)
        return self

    # ------------------------------------------------------------------ #
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flatten the whole forest into named numpy arrays.

        The mapping is ``np.savez``-compatible and captures *all* state
        needed to answer queries and continue incremental maintenance:
        constructor parameters, the point matrix, and the forest's split
        planes and routing tables — the same 12 names at any tree count.
        :meth:`from_arrays` inverts it bit-identically — a restored forest
        answers every ``query`` (including ``probes="exhaustive"``) exactly
        like the live one.
        """
        if self._points is None:
            raise RuntimeError("call build() before to_arrays()")
        return {
            "params": np.array(
                [
                    self.num_trees,
                    self.leaf_size,
                    self.probes,
                    self.seed,
                    self.chunk_size,
                ],
                dtype=np.int64,
            ),
            "float_params": np.array(
                [self.drift_threshold, self.rebuild_frac, self.overflow_factor],
                dtype=np.float64,
            ),
            "points": self._points,
            **{
                field.name: np.asarray(getattr(self._forest, field.name))
                for field in fields(_Forest)
            },
        }

    @classmethod
    def from_arrays(cls, arrays) -> "RPForestIndex":
        """Reconstruct a forest from a :meth:`to_arrays` mapping.

        Accepts any mapping of name → array (a dict or an open
        ``np.load`` handle).  The restored index is bit-identical to the
        saved one: same points, same split planes and same routing tables,
        so both queries and subsequent :meth:`update` calls reproduce the
        live index exactly.  A missing array, or routing tables that are
        not ``(num_trees, N)``, raise ``ValueError``.
        """
        names = ("params", "float_params", "points") + tuple(
            field.name for field in fields(_Forest)
        )
        try:
            raw = {name: arrays[name] for name in names}
        except KeyError as exc:
            raise ValueError(
                f"serialized forest is missing required array {exc}"
            ) from exc
        params = np.asarray(raw["params"], dtype=np.int64)
        floats = np.asarray(raw["float_params"], dtype=np.float64)
        index = cls(
            num_trees=int(params[0]),
            leaf_size=int(params[1]),
            probes=int(params[2]),
            seed=int(params[3]),
            chunk_size=int(params[4]),
            drift_threshold=float(floats[0]),
            rebuild_frac=float(floats[1]),
            overflow_factor=float(floats[2]),
        )
        points = np.array(raw["points"], dtype=np.float64, copy=True)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError(
                f"serialized points must be a non-empty (N, d) matrix, "
                f"got {points.shape}"
            )
        index._points = points
        index._norms = (points**2).sum(axis=1)
        # Updates edit the routing tables in place, so those are copied.
        forest = _Forest(
            directions=np.asarray(raw["directions"], dtype=np.float64),
            thresholds=np.asarray(raw["thresholds"], dtype=np.float64),
            children=np.asarray(raw["children"], dtype=np.int64),
            roots=np.asarray(raw["roots"], dtype=np.int64),
            depth=int(raw["depth"]),
            leaf_indptr=np.array(raw["leaf_indptr"], dtype=np.int64),
            leaf_items=np.array(raw["leaf_items"], dtype=np.int64),
            point_leaf=np.array(raw["point_leaf"], dtype=np.int64),
            max_leaf=np.array(raw["max_leaf"], dtype=np.int64),
        )
        expected = (index.num_trees, points.shape[0])
        for name in ("leaf_items", "point_leaf"):
            shape = getattr(forest, name).shape
            if shape != expected:
                raise ValueError(
                    f"serialized {name} must be {expected} (trees, points), "
                    f"got {shape}"
                )
        index._forest = forest
        return index

    # ------------------------------------------------------------------ #
    def _build_tree(self, X: np.ndarray, t: int) -> None:
        """Build tree ``t`` over every row of ``X`` into its rows of the
        forest.

        The tree draws from its own generator, seeded by ``(seed, t)``; its
        ``S`` split planes fill rows ``t·S`` onwards in the order the
        splits are made.
        """
        forest = self._forest
        n, dim = X.shape
        rng = np.random.default_rng([self.seed, t])
        node = t * (forest.leaf_indptr.shape[1] - 2)  # the tree's first row
        leaves: list[np.ndarray] = []
        # Stack entries: (members, parent row, side, level).  LIFO order is
        # deterministic, so rng consumption (one direction per split) is too.
        stack: list[tuple[np.ndarray, int, int, int]] = [
            (np.arange(n, dtype=np.int64), -1, 0, 0)
        ]
        while stack:
            members, parent, side, level = stack.pop()
            forest.depth = max(forest.depth, level)
            if members.size <= self.leaf_size:
                leaves.append(members)
                ref = -len(leaves)  # leaf_id = len(leaves) - 1 → -(leaf_id + 1)
            else:
                direction = rng.normal(size=dim)
                norm = float(np.linalg.norm(direction))
                if norm == 0.0:  # pragma: no cover - probability zero
                    direction[0] = 1.0
                    norm = 1.0
                direction /= norm
                proj = X[members] @ direction
                order = np.argsort(proj, kind="stable")
                half = members.size // 2
                ref, node = node, node + 1
                forest.directions[ref] = direction
                forest.thresholds[ref] = 0.5 * (
                    proj[order[half - 1]] + proj[order[half]]
                )
                stack.append((members[order[half:]], ref, 1, level + 1))
                stack.append((members[order[:half]], ref, 0, level + 1))
            if parent >= 0:
                forest.children[parent, side] = ref
            else:
                forest.roots[t] = ref
        leaf_sizes = np.array([leaf.size for leaf in leaves], dtype=np.int64)
        np.cumsum(leaf_sizes, out=forest.leaf_indptr[t, 1:])
        np.concatenate(leaves, out=forest.leaf_items[t])
        forest.point_leaf[t][forest.leaf_items[t]] = np.repeat(
            np.arange(leaf_sizes.size, dtype=np.int64), leaf_sizes
        )
        forest.max_leaf[t] = leaf_sizes.max()

    # ------------------------------------------------------------------ #
    def update(self, X: np.ndarray) -> UpdateReport:
        """In-place maintenance over a drifted point matrix; returns a report.

        Every point's coordinates (and norms) are refreshed, so distance
        ranking — and therefore ``probes="exhaustive"`` — is always exact
        over the new matrix.  Only points that moved more than
        ``drift_threshold`` since the last build/update are re-routed:
        removed from their current leaf and greedily re-descended through
        every tree's unchanged split planes.  The forest is rebuilt instead
        (``report.rebuilt``), identical to a fresh :meth:`build` over
        ``X``, when more than ``rebuild_frac`` of the points drifted or
        when a re-route leaves a leaf with more than
        ``leaf_size * overflow_factor`` points.

        ``X`` must match the built shape: a changed point *set* needs a
        rebuild, not an update.
        """
        if self._points is None:
            raise RuntimeError("call build() before update()")
        X = np.asarray(X, dtype=np.float64)
        if X.shape != self._points.shape:
            raise ValueError(
                f"update() requires the built shape {self._points.shape}, got "
                f"{X.shape}; use build() when the point set changes"
            )
        deltas = np.sqrt(((X - self._points) ** 2).sum(axis=1))
        moved = np.flatnonzero(deltas > self.drift_threshold)
        fraction = moved.size / self.num_points
        rebuilt = fraction > self.rebuild_frac
        if not rebuilt:
            self._points = np.array(X, copy=True)
            self._norms = (self._points**2).sum(axis=1)
            queries = self._points[moved]
            rebuilt = any(
                self._reroute(t, moved, queries) for t in range(self.num_trees)
            )
        if rebuilt:
            self.build(X)
        return UpdateReport(
            num_points=self.num_points,
            num_moved=int(moved.size),
            moved_fraction=fraction,
            rebuilt=rebuilt,
        )

    def _reroute(self, t: int, moved: np.ndarray, queries: np.ndarray) -> bool:
        """Re-descend ``moved`` points in tree ``t`` and repack its leaves;
        returns whether a leaf now overflows."""
        forest = self._forest
        start = np.full(moved.size, forest.roots[t], dtype=np.int64)
        new_leaf = _greedy_descent(
            forest.directions, forest.thresholds, forest.children, queries, start
        )
        point_leaf = forest.point_leaf[t]
        changed = new_leaf != point_leaf[moved]
        if not changed.any():
            return False
        old_point_leaf = point_leaf.copy()
        point_leaf[moved[changed]] = new_leaf[changed]
        self._repack_leaves_delta(forest, t, old_point_leaf)
        return forest.max_leaf[t] > self.leaf_size * self.overflow_factor

    @staticmethod
    def _repack_leaves_delta(
        forest: _Forest, t: int, old_point_leaf: np.ndarray
    ) -> None:
        """Delta-edit tree ``t``'s CSR leaf view after re-routing (no full
        sort), rewriting its rows in place.

        ``forest.point_leaf[t]`` holds the new assignment; ``old_point_leaf``
        is the one the standing ``leaf_indptr[t]``/``leaf_items[t]`` packing
        reflects.  Surviving points keep their relative order — their
        segments shift as a whole — while the ``M`` re-routed points are
        deleted from their old segment and appended to their new one in
        ascending-id order.  O(N + M log M) total, replacing the previous
        full ``argsort(point_leaf)`` repack whose O(N log N) dominated every
        incremental refresh at the 1M tier.
        """
        point_leaf = forest.point_leaf[t]
        items, indptr = forest.leaf_items[t], forest.leaf_indptr[t]
        num_leaves = indptr.shape[0] - 1
        changed = np.flatnonzero(point_leaf != old_point_leaf)
        old_counts = np.diff(indptr)
        removed = np.bincount(old_point_leaf[changed], minlength=num_leaves)
        added_leaves = point_leaf[changed]
        added = np.bincount(added_leaves, minlength=num_leaves)
        kept = old_counts - removed
        new_counts = kept + added
        stale = np.zeros(point_leaf.shape[0], dtype=bool)
        stale[changed] = True
        kept_items = items[~stale[items]]
        np.cumsum(new_counts, out=indptr[1:])
        kept_starts = np.concatenate(([0], np.cumsum(kept)))[:-1]
        within = np.arange(kept_items.size) - np.repeat(kept_starts, kept)
        items[np.repeat(indptr[:-1], kept) + within] = kept_items
        order = np.argsort(added_leaves, kind="stable")
        grouped = changed[order]
        add_base = np.concatenate(([0], np.cumsum(added)))
        leaf_of = added_leaves[order]
        items[
            indptr[leaf_of]
            + kept[leaf_of]
            + (np.arange(grouped.size) - add_base[leaf_of])
        ] = grouped
        forest.max_leaf[t] = new_counts.max()

    # ------------------------------------------------------------------ #
    def _forest_leaves(self, Q: np.ndarray, probes: int) -> np.ndarray:
        """Leaf id per (tree, query, probe); -1 where a probe is unavailable.

        One recorded descent over the forest's planes, in which row
        ``t * len(Q) + q`` walks tree ``t`` for query ``q`` and records the
        node, margin and side of every decision.  Probe ``p`` flips the
        ``p``-th smallest-margin decision of a row's root path and descends
        greedily below the flip.  Levels past a row's leaf keep an infinite
        margin, so a row whose leaf sits above the deepest level orders its
        decisions as its own descent would, and its flips past its leaf
        find no node.
        """
        forest = self._forest
        num_trees, m = forest.roots.size, Q.shape[0]
        num_rows = num_trees * m
        out = np.full((num_rows, probes), -1, dtype=np.int64)
        Q = np.tile(Q, (num_trees, 1))
        cur = np.repeat(forest.roots, m)
        path_nodes = np.full((num_rows, forest.depth), -1, dtype=np.int64)
        margins = np.full((num_rows, forest.depth), np.inf)
        sides = np.zeros((num_rows, forest.depth), dtype=np.int8)
        rows = np.flatnonzero(cur >= 0)
        level = 0
        while rows.size:
            nodes = cur[rows]
            proj = np.einsum("qd,qd->q", Q[rows], forest.directions[nodes])
            thr = forest.thresholds[nodes]
            side = (proj >= thr).view(np.int8)
            path_nodes[rows, level] = nodes
            margins[rows, level] = np.abs(proj - thr)
            sides[rows, level] = side
            nxt = forest.children[nodes, side]
            cur[rows] = nxt
            rows = rows[nxt >= 0]
            level += 1
        out[:, 0] = -(cur + 1)
        flips = min(probes - 1, forest.depth)
        if flips:
            margin_order = np.argsort(margins, axis=1, kind="stable")
            every = np.arange(num_rows)
            for probe in range(1, flips + 1):
                pos = margin_order[:, probe - 1]
                nodes = path_nodes[every, pos]
                usable = nodes >= 0
                start = np.full(num_rows, _INACTIVE, dtype=np.int64)
                start[usable] = forest.children[
                    nodes[usable], 1 - sides[every[usable], pos[usable]]
                ]
                out[:, probe] = _greedy_descent(
                    forest.directions, forest.thresholds, forest.children, Q, start
                )
        return out.reshape(num_trees, m, probes)

    # ------------------------------------------------------------------ #
    def query(
        self,
        Q: np.ndarray,
        k: int,
        mask: np.ndarray | None = None,
        probes: int | str | None = None,
    ) -> np.ndarray:
        """Top-``k`` indexed neighbours of each query row.

        Parameters
        ----------
        Q:
            ``(Q, d)`` query vectors (``(d,)`` is promoted to one row).
        k:
            Neighbours requested per query.
        mask:
            Optional ``(N,)`` boolean; only points with ``mask[id]`` True may
            be returned.  :meth:`query_counterfactuals` serves every
            counterfactual bucket's mask in one pass.
        probes:
            Override the index default; ``"exhaustive"`` ranks every masked
            candidate by brute force (bit-identical to :func:`exact_topk`).

        Returns
        -------
        ``(Q, k)`` int64 ids into the built matrix, ordered by ascending
        distance (ties → ascending id), right-padded with ``-1`` when fewer
        than ``k`` candidates were found.
        """
        if self._points is None:
            raise RuntimeError("call build() before query()")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        Q = np.asarray(Q, dtype=np.float64)
        if Q.ndim == 1:
            Q = Q[None, :]
        if Q.ndim != 2 or Q.shape[1] != self._points.shape[1]:
            raise ValueError(
                f"queries must be (Q, {self._points.shape[1]}), got {Q.shape}"
            )
        if mask is not None:
            mask = np.asarray(mask, dtype=bool).reshape(-1)
            if mask.shape[0] != self.num_points:
                raise ValueError(
                    f"mask must have {self.num_points} entries, got {mask.shape[0]}"
                )
        if probes is None:
            probes = self.probes
        if probes == EXHAUSTIVE:
            return self._query_exhaustive(Q, k, mask)
        probes = int(probes)
        if probes < 1:
            raise ValueError(f"probes must be >= 1 or 'exhaustive', got {probes}")

        out = np.full((Q.shape[0], k), -1, dtype=np.int64)
        for start in range(0, Q.shape[0], self.chunk_size):
            chunk = slice(start, start + self.chunk_size)
            out[chunk] = self._query_chunk(Q[chunk], k, mask, probes)
        return out

    def _query_exhaustive(
        self, Q: np.ndarray, k: int, mask: np.ndarray | None
    ) -> np.ndarray:
        candidate_ids = (
            np.flatnonzero(mask) if mask is not None
            else np.arange(self.num_points, dtype=np.int64)
        )
        out = np.full((Q.shape[0], k), -1, dtype=np.int64)
        if candidate_ids.size == 0:
            return out
        found = exact_topk(self._points, Q, candidate_ids, k)
        out[:, : found.shape[1]] = found
        return out

    def query_counterfactuals(
        self,
        ids: np.ndarray,
        k: int,
        labels: np.ndarray,
        attributes: np.ndarray,
        probes: int | None = None,
    ) -> np.ndarray:
        """Top-``k`` counterfactual neighbours of indexed points, for every
        attribute in one pass.

        Row ``[i, j]`` answers ``query(points[ids[j]], k, mask=bucket)``
        where ``bucket`` holds the points that share ``labels[ids[j]]`` and
        sit on the other side of ``attributes[:, i] == 1`` — bit for bit,
        ties and ``-1`` padding included.  Each query's candidate row
        (descent, leaf gather, dedupe, distances) is built once and blanked
        to its label; only the side blanking and the top-``k`` pick repeat
        per attribute.

        Parameters
        ----------
        ids:
            Indexed point ids acting as queries.
        k:
            Neighbours requested per (attribute, query).
        labels:
            ``(N,)`` label per indexed point.
        attributes:
            ``(N, I)`` attribute matrix; a point's side of attribute ``i``
            is ``attributes[:, i] == 1``.
        probes:
            Override the index default (an int: exact answers are the
            exact backend's search).

        Returns
        -------
        ``(I, len(ids), k)`` int64 ids, each row ordered by ascending
        distance (ties → ascending id), right-padded with ``-1``.
        """
        if self._points is None:
            raise RuntimeError("call build() before query_counterfactuals()")
        if k < 1:
            raise ValueError(f"k must be >= 1, got {k}")
        probes = self.probes if probes is None else int(probes)
        if probes < 1:
            raise ValueError(f"probes must be >= 1, got {probes}")
        n = self.num_points
        ids = np.asarray(ids, dtype=np.int64).reshape(-1)
        if ids.size and (ids.min() < 0 or ids.max() >= n):
            raise ValueError("ids out of range")
        labels = np.asarray(labels).reshape(-1)
        # (I, N) so each attribute's sides gather from one contiguous row.
        sides = np.ascontiguousarray((np.asarray(attributes) == 1).T)
        if labels.shape[0] != n or sides.shape[1] != n:
            raise ValueError(
                f"labels and attributes must have {n} rows, got "
                f"{labels.shape[0]} and {sides.shape[1]}"
            )
        out = np.full((sides.shape[0], ids.size, k), -1, dtype=np.int64)
        for start in range(0, ids.size, self.chunk_size):
            chunk = ids[start : start + self.chunk_size]
            rows = slice(start, start + chunk.size)
            Q = self._points[chunk]
            cands = self._candidates(Q, probes)
            dist = self._distances(Q, cands)
            safe = np.maximum(cands, 0)
            dist[labels[safe] != labels[chunk][:, None]] = np.inf
            for attr, side in enumerate(sides):
                own_side = side[safe] == side[chunk][:, None]
                out[attr, rows] = _pick(cands, np.where(own_side, np.inf, dist), k)
        return out

    def _query_chunk(
        self, Q: np.ndarray, k: int, mask: np.ndarray | None, probes: int
    ) -> np.ndarray:
        cands = self._candidates(Q, probes)
        dist = self._distances(Q, cands)
        if mask is not None:
            dist[~mask[np.maximum(cands, 0)]] = np.inf
        return _pick(cands, dist, k)

    def _candidates(self, Q: np.ndarray, probes: int) -> np.ndarray:
        """Every point in each query's (tree, probe) leaves, one row per query.

        Rows are sorted by ascending id with repeats blanked to ``-1``, so a
        point enters the ranking once and the column order of the surviving
        ids is ascending — the tie-break :func:`_pick` relies on.
        """
        forest = self._forest
        m = Q.shape[0]
        width = int(forest.max_leaf.sum()) * probes
        cands = np.full((m, width), -1, dtype=np.int64)
        flat = cands.reshape(-1)
        row_base = np.arange(m, dtype=np.int64) * width
        col = 0
        for t, leaves in enumerate(self._forest_leaves(Q, probes)):
            # A row's probe leaves fill its block of the tree's
            # ``probes * max_leaf`` columns back to back.
            indptr = forest.leaf_indptr[t]
            ok = leaves >= 0
            leaf = np.where(ok, leaves, 0)
            starts = indptr[leaf]
            lengths = np.where(ok, indptr[leaf + 1] - starts, 0)
            counts = lengths.reshape(-1)
            total = int(counts.sum())
            if total:
                first = np.cumsum(counts) - counts
                pos = np.arange(total)
                src = pos + np.repeat(starts.reshape(-1) - first, counts)
                dst = pos + np.repeat(
                    row_base + col - first[::probes], lengths.sum(axis=1)
                )
                flat[dst] = forest.leaf_items[t][src]
            col += int(forest.max_leaf[t]) * probes
        # Dedupe across trees/probes: sort ids per row (pads sort first) and
        # blank repeats so a point can enter the ranking only once.
        cands.sort(axis=1)
        cands[:, 1:][cands[:, 1:] == cands[:, :-1]] = -1
        return cands

    def _distances(self, Q: np.ndarray, cands: np.ndarray) -> np.ndarray:
        """Squared L2 distance from each query to its candidates (``inf`` on
        padding).

        The candidate coordinates are gathered a few rows at a time, so the
        ``(rows, width, d)`` gather stays near :data:`_GATHER_BYTES` rather
        than growing with the chunk; each row's arithmetic is the same in
        any block.
        """
        safe = np.maximum(cands, 0)
        rows = max(1, _GATHER_BYTES // (8 * safe.shape[1] * Q.shape[1]))
        dots = np.empty(safe.shape)
        for start in range(0, Q.shape[0], rows):
            block = slice(start, start + rows)
            np.einsum("qd,qwd->qw", Q[block], self._points[safe[block]], out=dots[block])
        dist = (Q**2).sum(axis=1)[:, None] - 2.0 * dots + self._norms[safe]
        dist[cands < 0] = np.inf
        return dist


_INACTIVE = np.iinfo(np.int64).min  # "no start node" marker for greedy descent
# Per-block budget of _distances' candidate-coordinate gather and of the
# exact search's distance block, which bounds peak memory however many rows
# a search queries.
_GATHER_BYTES = 4 << 20
# Nearest same-label members the exact search ranks per row before its
# per-attribute filter (raised to K when K is larger).  64 ran fastest of
# 32/64/128/256 on the Table I graphs; at 256 the search is slower than one
# scan per bucket.
_EXACT_PREFIX = 64


def _num_splits(size: int, leaf_size: int) -> int:
    """Internal nodes of a tree over ``size`` points.

    A split halves its members by rank, whatever their coordinates, so the
    count depends on ``size`` alone.
    """
    if size <= leaf_size:
        return 0
    half = size // 2
    return 1 + _num_splits(half, leaf_size) + _num_splits(size - half, leaf_size)


def _greedy_descent(
    directions: np.ndarray,
    thresholds: np.ndarray,
    children: np.ndarray,
    Q: np.ndarray,
    start: np.ndarray,
) -> np.ndarray:
    """Follow the forest's split planes greedily from ``start`` nodes, one
    per row of ``Q``; returns the leaf ids reached (-1 where ``start`` is
    ``_INACTIVE``).

    Internal refs are forest-wide rows and leaf refs stay per tree, so each
    row's leaf id is in the tree its start node belongs to — a root when
    an update re-routes points, a flipped child when a probe descends.
    """
    cur = start.copy()
    rows = np.flatnonzero(cur >= 0)
    while rows.size:
        nodes = cur[rows]
        proj = np.einsum("qd,qd->q", Q[rows], directions[nodes])
        side = (proj >= thresholds[nodes]).view(np.int8)
        nxt = children[nodes, side]
        cur[rows] = nxt
        rows = rows[nxt >= 0]
    leaves = -(cur + 1)
    leaves[start == _INACTIVE] = -1
    return leaves


def _select_topk(dist: np.ndarray, k: int) -> np.ndarray:
    """Columns of each row's ``k`` smallest entries, in (distance, column)
    order: the first ``k`` columns of a stable argsort, except that
    infinite entries (padding and blanked candidates, which every caller
    drops) may follow the finite ones in any order.

    ``argpartition`` finds the ``k`` smallest in linear time but keeps an
    arbitrary subset of the entries tied at the ``k``-th distance; rows
    where such a tie crosses the cut are re-ranked by the full stable sort.
    """
    if k >= dist.shape[1]:
        return np.argsort(dist, axis=1, kind="stable")
    rows = np.arange(dist.shape[0])[:, None]
    top = np.argpartition(dist, k - 1, axis=1)[:, :k]
    top.sort(axis=1)
    top = top[rows, np.argsort(dist[rows, top], axis=1, kind="stable")]
    kth = dist[rows, top[:, -1:]]
    crossed = np.isfinite(kth[:, 0]) & ((dist <= kth).sum(axis=1) > k)
    if crossed.any():
        top[crossed] = np.argsort(dist[crossed], axis=1, kind="stable")[:, :k]
    return top


def _pick(cands: np.ndarray, dist: np.ndarray, k: int) -> np.ndarray:
    """The ``k`` nearest finite-distance candidates per row, ``-1``-padded.

    Candidate rows list ids in ascending order (see
    :meth:`RPForestIndex._candidates`), so breaking distance ties by column
    breaks them by ascending id — deterministic output.
    """
    top = _select_topk(dist, k)
    rows = np.arange(dist.shape[0])[:, None]
    picked = cands[rows, top]
    picked[~np.isfinite(dist[rows, top])] = -1
    missing = k - picked.shape[1]
    if missing > 0:
        padding = np.full((picked.shape[0], missing), -1, dtype=np.int64)
        picked = np.concatenate([picked, padding], axis=1)
    return picked


# --------------------------------------------------------------------- #
# Counterfactual-search backends
# --------------------------------------------------------------------- #
class ExactBackend:
    """Exact backend: brute-force distances, ranked by (distance, id).

    :meth:`topk_counterfactuals` answers a whole counterfactual search in
    one pass per label (see the module notes); :meth:`topk` ranks one
    candidate list through :func:`exact_topk`.
    """

    name = "exact"

    def __init__(self) -> None:
        self._points: np.ndarray | None = None

    def prepare(self, points: np.ndarray) -> None:
        """Stash the representation matrix for this search pass."""
        self._points = np.asarray(points, dtype=np.float64)

    def topk(
        self, query_ids: np.ndarray, candidate_ids: np.ndarray, k: int
    ) -> np.ndarray:
        """Exact top-``k`` candidate ids per query node (no padding)."""
        if self._points is None:
            raise RuntimeError("call prepare() before topk()")
        return exact_topk(
            self._points, self._points[query_ids], candidate_ids, k
        )

    def topk_counterfactuals(
        self,
        query_ids: np.ndarray,
        labels: np.ndarray,
        attributes: np.ndarray,
        k: int,
    ) -> np.ndarray:
        """Counterfactual top-``k`` of every query node for every attribute,
        in one pass per label.

        Row ``[i, j]`` holds the first ``k`` of node ``query_ids[j]``'s
        bucket for attribute ``i`` — the members of its label on the other
        side of ``attributes[:, i] == 1`` — in a stable argsort by (squared
        L2 distance, ascending id).  A row whose bucket is smaller than
        ``k`` keeps what the bucket has.

        Returns ``(I, len(query_ids), k)`` int64 hits, ``-1``-padded.
        """
        if self._points is None:
            raise RuntimeError("call prepare() before topk_counterfactuals()")
        points = self._points
        num_attrs = attributes.shape[1]
        found = np.full((num_attrs, query_ids.size, k), -1, dtype=np.int64)
        norms = (points**2).sum(axis=1)
        sides = attributes == 1
        query_labels = labels[query_ids]
        width = max(_EXACT_PREFIX, k)
        for label in sorted_unique(query_labels):
            members = np.flatnonzero(labels == label)
            member_points, member_norms = points[members], norms[members]
            member_sides = np.ascontiguousarray(sides[members].T)  # (I, M)
            ones = member_sides.sum(axis=1)[:, None]
            positions = np.flatnonzero(query_labels == label)
            # The (rows, M) distance block and the (I, rows, width) ranks
            # both stay within the budget.
            rows = max(
                1, _GATHER_BYTES // (8 * max(members.size, num_attrs * width))
            )
            for start in range(0, positions.size, rows):
                pos = positions[start : start + rows]
                ids = query_ids[pos]
                # ‖q‖² − 2·q·mᵀ + ‖m‖² as exact_topk computes it,
                # assembled in place.
                dist = points[ids] @ member_points.T
                dist *= -2.0
                dist += norms[ids][:, None]
                dist += member_norms
                prefix = _select_topk(dist, width)
                row_sides = sides[ids].T  # (I, rows)
                opposite = member_sides[:, prefix] != row_sides[:, :, None]
                # Per (attribute, row): the prefix positions of the first k
                # opposite-side members, in prefix order.
                first = np.argsort(~opposite, axis=2, kind="stable")[:, :, :k]
                hits = np.take_along_axis(members[prefix][None], first, axis=2)
                count = opposite.sum(axis=2)
                hits[np.arange(hits.shape[2]) >= count[:, :, None]] = -1
                found[:, pos, : hits.shape[2]] = hits
                # The prefix settles a pair once it holds k opposite-side
                # members or the whole bucket; the rest rank the bucket's
                # columns of the block.
                bucket = np.where(row_sides, members.size - ones, ones)
                unsettled = count < np.minimum(bucket, k)
                for attr in np.flatnonzero(unsettled.any(axis=1)):
                    for side in (False, True):
                        rest = np.flatnonzero(
                            unsettled[attr] & (row_sides[attr] == side)
                        )
                        if rest.size:
                            cols = np.flatnonzero(member_sides[attr] != side)
                            block = dist[rest[:, None], cols]
                            found[attr, pos[rest]] = _pick(
                                np.broadcast_to(members[cols], block.shape),
                                block,
                                k,
                            )
        return found


class AnnBackend:
    """Approximate backend over a :class:`RPForestIndex`.

    :meth:`topk_counterfactuals` answers a whole counterfactual search with
    one :meth:`RPForestIndex.query_counterfactuals` pass.

    ``forest_options`` are :class:`RPForestIndex`'s parameters.  ``update``
    selects the refresh policy of :meth:`prepare`:
    ``"rebuild"`` (default) reconstructs the forest from scratch every
    call; ``"incremental"`` applies :meth:`RPForestIndex.update` instead —
    re-routing only drifted points per ``drift_threshold``, escaping to a
    full rebuild past ``rebuild_frac`` or on an overflowing leaf — whenever
    a forest over the same point-set shape is already standing.
    ``last_report`` carries the most recent :class:`UpdateReport` (None
    after a from-scratch build).
    """

    name = "ann"

    def __init__(self, update: str = "rebuild", **forest_options) -> None:
        if update not in ("rebuild", "incremental"):
            raise ValueError(
                f"update must be 'rebuild' or 'incremental', got {update!r}"
            )
        self._index = RPForestIndex(**forest_options)
        self.update_mode = update
        self.last_report: UpdateReport | None = None

    @property
    def index(self) -> RPForestIndex:
        """The underlying forest (refreshed on every :meth:`prepare`)."""
        return self._index

    def prepare(self, points: np.ndarray) -> None:
        """Refresh the forest over the current representations."""
        points = np.asarray(points, dtype=np.float64)
        if (
            self.update_mode == "incremental"
            and self._index.num_points
            and self._index.points.shape == points.shape
        ):
            self.last_report = self._index.update(points)
        else:
            self._index.build(points)
            self.last_report = None

    def topk_counterfactuals(
        self,
        query_ids: np.ndarray,
        labels: np.ndarray,
        attributes: np.ndarray,
        k: int,
    ) -> np.ndarray:
        """Counterfactual top-``k`` of every query node for every attribute,
        in one forest pass at the forest's default probes.  Returns
        ``(I, len(query_ids), k)`` int64 hits, ``-1``-padded."""
        return self._index.query_counterfactuals(query_ids, k, labels, attributes)


def make_backend(spec, **options):
    """Resolve a backend spec: ``"exact"``, ``"ann"`` or an instance of
    :class:`ExactBackend` / :class:`AnnBackend`."""
    if isinstance(spec, (ExactBackend, AnnBackend)):
        if options:
            raise ValueError("backend options only apply to string specs")
        return spec
    if not isinstance(spec, str):
        raise TypeError(
            f"backend must be 'exact', 'ann' or a backend instance, got {spec!r}"
        )
    key = spec.lower()
    if key == "exact":
        if options:
            raise ValueError(
                f"the exact backend takes no options, got {sorted(options)}"
            )
        return ExactBackend()
    if key == "ann":
        return AnnBackend(**options)
    raise ValueError(f"unknown backend {spec!r}; choose 'exact' or 'ann'")
