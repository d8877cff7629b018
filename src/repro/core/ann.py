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
O(N log N) per tree).  The split planes of all trees are stacked into one
set of arrays, and a chunk of queries descends every tree at once: each
(tree, query) pair is one row of a single recorded descent, so a chunk
takes about two numpy passes per level of the deepest tree, however many
trees there are.  ``probes > 1`` additionally flips the lowest-margin
split decisions along each root path (multi-probe, as in Annoy/LSH
multi-probe) and descends the alternative subtrees greedily over the same
stacked arrays, trading work for recall.  Candidates from all (tree,
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

from dataclasses import dataclass

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
class _Tree:
    """One random-projection tree in array form.

    ``children`` entries ``>= 0`` are internal-node indices; negative entries
    encode leaves as ``-(leaf_id + 1)``.  ``root`` follows the same encoding
    (a tree small enough to be a single leaf has no internal nodes).

    ``point_leaf`` maps each indexed point to its current leaf id — the
    routing table incremental updates edit in place; ``leaf_indptr`` /
    ``leaf_items`` are its CSR view, repacked after every update.  ``depth``
    is the longest root-to-leaf path; the forest's deepest tree sets the
    width of the stacked recorded descent and how many probe flips a query
    can make.

    Once a build or restore has finished, ``directions`` and ``thresholds``
    are views into the forest's stacked :class:`_Planes`; updates never
    change them.
    """

    directions: np.ndarray  # (num_internal, d)
    thresholds: np.ndarray  # (num_internal,)
    children: np.ndarray  # (num_internal, 2)
    leaf_indptr: np.ndarray  # (num_leaves + 1,)
    leaf_items: np.ndarray  # (N,)
    point_leaf: np.ndarray  # (N,)
    root: int
    depth: int
    max_leaf: int

    @property
    def num_leaves(self) -> int:
        return self.leaf_indptr.shape[0] - 1


@dataclass
class _Planes:
    """Every tree's split planes stacked for the forest-wide descent.

    The trees' internal nodes follow one another in tree order, and
    ``children`` shifts each tree's internal refs by the internal-node
    count of the trees before it.  Leaf refs keep their per-tree encoding
    ``-(leaf_id + 1)``, since a descent row knows its tree.  ``roots``
    holds each tree's root in the same encoding, and ``depth`` is the
    deepest tree's.
    """

    directions: np.ndarray  # (total_internal, d)
    thresholds: np.ndarray  # (total_internal,)
    children: np.ndarray  # (total_internal, 2)
    roots: np.ndarray  # (num_trees,)
    depth: int


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
        self._trees: list[_Tree] = []
        self._planes: _Planes | None = None

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
        ``(seed, tree_id)``.
        """
        X = np.array(X, dtype=np.float64, copy=True)
        if X.ndim != 2 or X.shape[0] == 0:
            raise ValueError(f"expected a non-empty (N, d) matrix, got {X.shape}")
        self._points = X
        self._norms = (X**2).sum(axis=1)
        # Every tree of a build has the same number of splits, so each writes
        # its directions straight into its rows of the stacked planes.
        # Per-tree arrays copied into the stack and freed stayed resident:
        # about 4 MiB more max RSS on a 100k-point, 8-tree, 16-d search.
        splits = _num_splits(X.shape[0], self.leaf_size)
        directions = np.empty((self.num_trees * splits, X.shape[1]))
        self._trees = [
            self._build_tree(
                X,
                np.random.default_rng([self.seed, t]),
                out=directions[t * splits : (t + 1) * splits],
            )
            for t in range(self.num_trees)
        ]
        self._stack_planes(directions)
        return self

    # ------------------------------------------------------------------ #
    def to_arrays(self) -> dict[str, np.ndarray]:
        """Flatten the whole forest into named numpy arrays.

        The mapping is ``np.savez``-compatible and captures *all* state
        needed to answer queries and continue incremental maintenance:
        constructor parameters, the point matrix, and the per-tree split
        planes and routing tables.  :meth:`from_arrays` inverts it
        bit-identically — a restored forest answers every ``query``
        (including ``probes="exhaustive"``) exactly like the live one.
        """
        if self._points is None:
            raise RuntimeError("call build() before to_arrays()")
        out: dict[str, np.ndarray] = {
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
        }
        for t, tree in enumerate(self._trees):
            prefix = f"tree{t}_"
            out[prefix + "directions"] = tree.directions
            out[prefix + "thresholds"] = tree.thresholds
            out[prefix + "children"] = tree.children
            out[prefix + "leaf_indptr"] = tree.leaf_indptr
            out[prefix + "leaf_items"] = tree.leaf_items
            out[prefix + "point_leaf"] = tree.point_leaf
            out[prefix + "meta"] = np.array(
                [tree.root, tree.depth, tree.max_leaf], dtype=np.int64
            )
        return out

    @classmethod
    def from_arrays(cls, arrays) -> "RPForestIndex":
        """Reconstruct a forest from a :meth:`to_arrays` mapping.

        Accepts any mapping of name → array (a dict or an open
        ``np.load`` handle).  The restored index is bit-identical to the
        saved one: same points, same split planes and same routing tables,
        so both queries and subsequent :meth:`update` calls reproduce the
        live index exactly.
        """
        try:
            params = np.asarray(arrays["params"], dtype=np.int64)
            floats = np.asarray(arrays["float_params"], dtype=np.float64)
            points_raw = arrays["points"]
        except KeyError as exc:
            raise ValueError(
                f"serialized forest is missing required array {exc}"
            ) from exc
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
        points = np.array(points_raw, dtype=np.float64, copy=True)
        if points.ndim != 2 or points.shape[0] == 0:
            raise ValueError(
                f"serialized points must be a non-empty (N, d) matrix, "
                f"got {points.shape}"
            )
        index._points = points
        index._norms = (points**2).sum(axis=1)
        trees: list[_Tree] = []
        for t in range(index.num_trees):
            prefix = f"tree{t}_"
            try:
                meta = np.asarray(arrays[prefix + "meta"], dtype=np.int64)
                trees.append(
                    _Tree(
                        # Copied into the stacked planes by _stack_planes.
                        directions=np.asarray(
                            arrays[prefix + "directions"], dtype=np.float64
                        ),
                        thresholds=np.asarray(
                            arrays[prefix + "thresholds"], dtype=np.float64
                        ),
                        children=np.array(
                            arrays[prefix + "children"], dtype=np.int64
                        ),
                        leaf_indptr=np.array(
                            arrays[prefix + "leaf_indptr"], dtype=np.int64
                        ),
                        leaf_items=np.array(
                            arrays[prefix + "leaf_items"], dtype=np.int64
                        ),
                        point_leaf=np.array(
                            arrays[prefix + "point_leaf"], dtype=np.int64
                        ),
                        root=int(meta[0]),
                        depth=int(meta[1]),
                        max_leaf=int(meta[2]),
                    )
                )
            except KeyError as exc:
                raise ValueError(
                    f"serialized forest is missing arrays for tree {t} "
                    f"(expected {index.num_trees} trees)"
                ) from exc
        index._trees = trees
        index._stack_planes()
        return index

    # ------------------------------------------------------------------ #
    def _build_tree(
        self, X: np.ndarray, rng: np.random.Generator, out: np.ndarray
    ) -> _Tree:
        """Build one tree over every row of ``X``.

        ``out`` receives the split directions: ``(_num_splits(N,
        leaf_size), d)`` rows of the forest's stacked planes.
        """
        n, dim = X.shape
        directions: list[np.ndarray] = []
        thresholds: list[float] = []
        children: list[list[int]] = []
        leaves: list[np.ndarray] = []
        depth = 0
        # Stack entries: (members, parent node, side, level).  LIFO order is
        # deterministic, so rng consumption (one direction per split) is too.
        stack: list[tuple[np.ndarray, int, int, int]] = [
            (np.arange(n, dtype=np.int64), -1, 0, 0)
        ]
        root = 0
        while stack:
            members, parent, side, level = stack.pop()
            depth = max(depth, level)
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
                threshold = 0.5 * (proj[order[half - 1]] + proj[order[half]])
                ref = len(directions)
                directions.append(direction)
                thresholds.append(float(threshold))
                children.append([0, 0])
                stack.append((members[order[half:]], ref, 1, level + 1))
                stack.append((members[order[:half]], ref, 0, level + 1))
            if parent >= 0:
                children[parent][side] = ref
            else:
                root = ref
        leaf_sizes = np.array([leaf.size for leaf in leaves], dtype=np.int64)
        leaf_items = np.concatenate(leaves)
        point_leaf = np.empty(n, dtype=np.int64)
        point_leaf[leaf_items] = np.repeat(
            np.arange(leaf_sizes.size, dtype=np.int64), leaf_sizes
        )
        if directions:
            np.stack(directions, out=out)
        return _Tree(
            directions=out,
            thresholds=np.array(thresholds, dtype=np.float64),
            children=(
                np.array(children, dtype=np.int64)
                if children
                else np.empty((0, 2), dtype=np.int64)
            ),
            leaf_indptr=np.concatenate(([0], np.cumsum(leaf_sizes))),
            leaf_items=leaf_items,
            point_leaf=point_leaf,
            root=root,
            depth=depth,
            max_leaf=int(leaf_sizes.max()),
        )

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
                self._reroute(tree, moved, queries) for tree in self._trees
            )
        if rebuilt:
            self.build(X)
        return UpdateReport(
            num_points=self.num_points,
            num_moved=int(moved.size),
            moved_fraction=fraction,
            rebuilt=rebuilt,
        )

    def _reroute(
        self, tree: _Tree, moved: np.ndarray, queries: np.ndarray
    ) -> bool:
        """Re-descend ``moved`` points in one tree and repack its leaves;
        returns whether a leaf now overflows."""
        start = np.full(moved.size, tree.root, dtype=np.int64)
        new_leaf = _greedy_descent(
            tree.directions, tree.thresholds, tree.children, queries, start
        )
        changed = new_leaf != tree.point_leaf[moved]
        if not changed.any():
            return False
        old_point_leaf = tree.point_leaf.copy()
        tree.point_leaf[moved[changed]] = new_leaf[changed]
        self._repack_leaves_delta(tree, old_point_leaf)
        return tree.max_leaf > self.leaf_size * self.overflow_factor

    @staticmethod
    def _repack_leaves_delta(tree: _Tree, old_point_leaf: np.ndarray) -> None:
        """Delta-edit the CSR leaf view after re-routing (no full sort).

        ``tree.point_leaf`` holds the new assignment; ``old_point_leaf`` is
        the one the standing ``leaf_indptr``/``leaf_items`` packing
        reflects.  Surviving points keep their relative order — their
        segments shift as a whole — while the ``M`` re-routed points are
        deleted from their old segment and appended to their new one in
        ascending-id order.  O(N + M log M) total, replacing the previous
        full ``argsort(point_leaf)`` repack whose O(N log N) dominated every
        incremental refresh at the 1M tier.
        """
        num_leaves = tree.num_leaves
        changed = np.flatnonzero(tree.point_leaf != old_point_leaf)
        old_counts = np.diff(tree.leaf_indptr)
        removed = np.bincount(old_point_leaf[changed], minlength=num_leaves)
        added_leaves = tree.point_leaf[changed]
        added = np.bincount(added_leaves, minlength=num_leaves)
        kept = old_counts - removed
        new_counts = kept + added
        new_indptr = np.concatenate(([0], np.cumsum(new_counts))).astype(np.int64)
        new_items = np.empty(tree.leaf_items.shape[0], dtype=np.int64)
        stale = np.zeros(tree.point_leaf.shape[0], dtype=bool)
        stale[changed] = True
        kept_items = tree.leaf_items[~stale[tree.leaf_items]]
        kept_starts = np.concatenate(([0], np.cumsum(kept)))[:-1]
        within = np.arange(kept_items.size) - np.repeat(kept_starts, kept)
        new_items[np.repeat(new_indptr[:-1], kept) + within] = kept_items
        order = np.argsort(added_leaves, kind="stable")
        grouped = changed[order]
        add_base = np.concatenate(([0], np.cumsum(added)))
        leaf_of = added_leaves[order]
        new_items[
            new_indptr[leaf_of]
            + kept[leaf_of]
            + (np.arange(grouped.size) - add_base[leaf_of])
        ] = grouped
        tree.leaf_items = new_items
        tree.leaf_indptr = new_indptr
        tree.max_leaf = int(new_counts.max())

    # ------------------------------------------------------------------ #
    def _stack_planes(self, directions: np.ndarray | None = None) -> None:
        """Stack every tree's split planes into :class:`_Planes`.

        Runs whenever the trees are made (at the end of :meth:`build` and
        :meth:`from_arrays`); an update re-routes points but never changes
        a plane.  Each tree's ``directions`` and ``thresholds`` become
        views into the stacked arrays, so the planes are stored once; the
        routing tables stay per tree.  ``directions`` is the stack a build
        wrote the trees' directions into; otherwise they are copied into a
        new one.
        """
        trees = self._trees
        offsets = np.cumsum([0] + [tree.thresholds.shape[0] for tree in trees])
        if directions is None:
            directions = np.concatenate([tree.directions for tree in trees])
        thresholds = np.concatenate([tree.thresholds for tree in trees])
        children = np.concatenate(
            [
                np.where(tree.children >= 0, tree.children + offset, tree.children)
                for tree, offset in zip(trees, offsets)
            ]
        )
        roots = np.array(
            [
                tree.root + offset if tree.root >= 0 else tree.root
                for tree, offset in zip(trees, offsets)
            ],
            dtype=np.int64,
        )
        for tree, lo, hi in zip(trees, offsets[:-1], offsets[1:]):
            tree.directions = directions[lo:hi]
            tree.thresholds = thresholds[lo:hi]
        self._planes = _Planes(
            directions=directions,
            thresholds=thresholds,
            children=children,
            roots=roots,
            depth=max(tree.depth for tree in trees),
        )

    def _forest_leaves(self, Q: np.ndarray, probes: int) -> np.ndarray:
        """Leaf id per (tree, query, probe); -1 where a probe is unavailable.

        One recorded descent over the stacked planes, in which row
        ``t * len(Q) + q`` walks tree ``t`` for query ``q`` and records the
        node, margin and side of every decision.  Probe ``p`` flips the
        ``p``-th smallest-margin decision of a row's root path and descends
        greedily below the flip.  Levels past a row's leaf keep an infinite
        margin, so a row whose leaf sits above the deepest level orders its
        decisions as its own descent would, and its flips past its leaf
        find no node.
        """
        planes = self._planes
        num_trees, m = len(self._trees), Q.shape[0]
        num_rows = num_trees * m
        out = np.full((num_rows, probes), -1, dtype=np.int64)
        Q = np.tile(Q, (num_trees, 1))
        cur = np.repeat(planes.roots, m)
        path_nodes = np.full((num_rows, planes.depth), -1, dtype=np.int64)
        margins = np.full((num_rows, planes.depth), np.inf)
        sides = np.zeros((num_rows, planes.depth), dtype=np.int8)
        rows = np.flatnonzero(cur >= 0)
        level = 0
        while rows.size:
            nodes = cur[rows]
            proj = np.einsum("qd,qd->q", Q[rows], planes.directions[nodes])
            thr = planes.thresholds[nodes]
            side = (proj >= thr).view(np.int8)
            path_nodes[rows, level] = nodes
            margins[rows, level] = np.abs(proj - thr)
            sides[rows, level] = side
            nxt = planes.children[nodes, side]
            cur[rows] = nxt
            rows = rows[nxt >= 0]
            level += 1
        out[:, 0] = -(cur + 1)
        flips = min(probes - 1, planes.depth)
        if flips:
            margin_order = np.argsort(margins, axis=1, kind="stable")
            every = np.arange(num_rows)
            for probe in range(1, flips + 1):
                pos = margin_order[:, probe - 1]
                nodes = path_nodes[every, pos]
                usable = nodes >= 0
                start = np.full(num_rows, _INACTIVE, dtype=np.int64)
                start[usable] = planes.children[
                    nodes[usable], 1 - sides[every[usable], pos[usable]]
                ]
                out[:, probe] = _greedy_descent(
                    planes.directions, planes.thresholds, planes.children, Q, start
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
        m = Q.shape[0]
        width = sum(tree.max_leaf for tree in self._trees) * probes
        cands = np.full((m, width), -1, dtype=np.int64)
        flat = cands.reshape(-1)
        row_base = np.arange(m, dtype=np.int64) * width
        col = 0
        for tree, leaves in zip(self._trees, self._forest_leaves(Q, probes)):
            # A row's probe leaves fill its block of the tree's
            # ``probes * max_leaf`` columns back to back.
            ok = leaves >= 0
            leaf = np.where(ok, leaves, 0)
            starts = tree.leaf_indptr[leaf]
            lengths = np.where(ok, tree.leaf_indptr[leaf + 1] - starts, 0)
            counts = lengths.reshape(-1)
            total = int(counts.sum())
            if total:
                first = np.cumsum(counts) - counts
                pos = np.arange(total)
                src = pos + np.repeat(starts.reshape(-1) - first, counts)
                dst = pos + np.repeat(
                    row_base + col - first[::probes], lengths.sum(axis=1)
                )
                flat[dst] = tree.leaf_items[src]
            col += tree.max_leaf * probes
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
    """Follow split planes greedily from ``start`` nodes, one per row of
    ``Q``; returns the leaf ids reached (-1 where ``start`` is
    ``_INACTIVE``).

    The planes are one tree's (re-routing an update) or the stacked
    forest's (probe descents), whose leaf refs stay per tree.
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

    ``update`` selects the refresh policy of :meth:`prepare`:
    ``"rebuild"`` (default) reconstructs the forest from scratch every
    call; ``"incremental"`` applies :meth:`RPForestIndex.update` instead —
    re-routing only drifted points per ``drift_threshold``, escaping to a
    full rebuild past ``rebuild_frac`` or on an overflowing leaf — whenever
    a forest over the same point-set shape is already standing.
    ``last_report`` carries the most recent :class:`UpdateReport` (None
    after a from-scratch build).
    """

    name = "ann"

    def __init__(
        self,
        num_trees: int = 8,
        leaf_size: int = 32,
        probes: int = 2,
        seed: int = 0,
        chunk_size: int = 512,
        update: str = "rebuild",
        drift_threshold: float = 0.0,
        rebuild_frac: float = 0.5,
        overflow_factor: float = 4.0,
    ) -> None:
        if update not in ("rebuild", "incremental"):
            raise ValueError(
                f"update must be 'rebuild' or 'incremental', got {update!r}"
            )
        self._index = RPForestIndex(
            num_trees=num_trees,
            leaf_size=leaf_size,
            probes=probes,
            seed=seed,
            chunk_size=chunk_size,
            drift_threshold=drift_threshold,
            rebuild_frac=rebuild_frac,
            overflow_factor=overflow_factor,
        )
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
