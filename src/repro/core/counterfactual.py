"""Counterfactual data augmentation (Section III-D).

For every node ``v`` and every pseudo-sensitive attribute ``i``, find the
top-K nodes that

* share ``v``'s (pseudo-)label — counterfactuals must be label-consistent,
* differ from ``v`` in the binarized attribute ``i`` — they describe "the
  same kind of node, other group", and
* are nearest to ``v`` in the GNN representation space (Eq. 12, L2).

Searching *real* nodes instead of perturbing features sidesteps the
non-realistic counterfactual problem the paper raises against NIFTY/GEAR:
every counterfactual returned here is an observed, plausible configuration.

The nearest-neighbour ranking is delegated to one of two backends
(:mod:`repro.core.ann`), which fills an ``(I, Q, K)`` array of hits; one
vectorised step then cycles short rows and self-points empty ones.  Both
rank a bucket by (squared L2 distance, ascending id).
``backend="exact"`` is an O(N²) scan and stays the oracle.  It answers
the whole search in one pass per label: one distance block between the
label's query nodes and all of its members, each node's nearest members
ranked once, and each attribute keeping the first K opposite-side members
of that ranking; only a (node, attribute) pair the ranked prefix cannot
settle picks over its whole bucket.  ``backend="ann"``
answers the whole search in one pass over a random-projection forest —
each node's candidate row (descent, leaf gather, dedupe, distances) is
built once, blanked to the node's label, and then per attribute blanked to
the node's own side and cut to the top K — dropping the search to roughly
O(N log N) so the fine-tune phase scales past ~10k nodes.  An approximate
backend may miss a node's counterfactuals entirely; such nodes are reported
as invalid (they self-point and contribute nothing to the fair loss), which
the recall property tests bound.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from repro.core.ann import make_backend

__all__ = ["CounterfactualIndex", "CounterfactualSearch"]


@dataclass
class CounterfactualIndex:
    """Result of one search.

    Attributes
    ----------
    indices:
        ``(I, N, K)`` int array; ``indices[i, v, k]`` is the node id of the
        k-th counterfactual of node ``v`` for pseudo-sensitive attribute
        ``i``.  Nodes with no valid counterfactual point at themselves.
    valid:
        ``(I, N)`` boolean; False where no counterfactual exists (the node's
        label/attribute combination has no opposite-attribute peers, or an
        approximate backend found none).
    """

    indices: np.ndarray
    valid: np.ndarray

    @property
    def num_attributes(self) -> int:
        """Number of pseudo-sensitive attributes I."""
        return self.indices.shape[0]

    @property
    def top_k(self) -> int:
        """Counterfactuals per node K."""
        return self.indices.shape[2]

    def coverage(self) -> float:
        """Fraction of (attribute, node) pairs with a valid counterfactual."""
        return float(self.valid.mean())


class CounterfactualSearch:
    """Top-K nearest-neighbour counterfactual finder (Eq. 12).

    Parameters
    ----------
    top_k:
        Number of counterfactuals per (node, attribute) pair — the paper's K.
    backend:
        ``"exact"`` (default, the brute-force oracle), ``"ann"`` (random-
        projection forest, approximate) or an instance of
        :class:`~repro.core.ann.ExactBackend` /
        :class:`~repro.core.ann.AnnBackend`.  Each search calls its
        ``prepare(points)`` and then ``topk_counterfactuals(query_ids,
        labels, attributes, k)`` once.
    backend_options:
        Keyword options forwarded to the backend constructor (e.g.
        ``{"num_trees": 12, "probes": 4, "seed": 0}`` for ``"ann"``).
        The ANN backend also accepts the maintenance policy here —
        ``{"update": "incremental", "drift_threshold": ..., "rebuild_frac":
        ...}`` makes every :meth:`search` *maintain* the standing forest
        (re-routing only drifted points) instead of rebuilding it; see
        :meth:`repro.core.ann.RPForestIndex.update`.
    """

    def __init__(
        self,
        top_k: int,
        backend="exact",
        backend_options: dict | None = None,
    ) -> None:
        if top_k < 1:
            raise ValueError(f"top_k must be >= 1, got {top_k}")
        self.top_k = top_k
        self.backend = make_backend(backend, **(backend_options or {}))

    def search(
        self,
        representations: np.ndarray,
        pseudo_labels: np.ndarray,
        binary_attributes: np.ndarray,
        nodes: np.ndarray | None = None,
    ) -> CounterfactualIndex:
        """Find counterfactuals for every node and attribute.

        Parameters
        ----------
        representations:
            ``(N, d)`` node representations ``h`` from the GNN classifier.
        pseudo_labels:
            ``(N,)`` integer labels (model predictions for unlabelled nodes).
        binary_attributes:
            ``(N, I)`` 0/1 pseudo-sensitive attribute matrix.
        nodes:
            Optional subset of node ids to act as *queries*.  Candidates
            still come from the full node set, so restricting queries
            changes nothing about which counterfactuals a node gets — it
            only skips work for nodes outside the subset (their rows stay
            self-pointing and invalid).  The serving path uses this to
            retrieve counterfactuals for a scored batch without ranking
            every node.
        """
        representations = np.asarray(representations, dtype=np.float64)
        pseudo_labels = np.asarray(pseudo_labels, dtype=np.int64)
        binary_attributes = np.asarray(binary_attributes, dtype=np.int64)
        n, _ = representations.shape
        if pseudo_labels.shape != (n,):
            raise ValueError("pseudo_labels shape mismatch")
        if binary_attributes.shape[0] != n:
            raise ValueError("binary_attributes row mismatch")
        if nodes is None:
            query_ids = np.arange(n, dtype=np.int64)
        else:
            query_ids = np.unique(np.asarray(nodes, dtype=np.int64))
            if query_ids.size and (query_ids[0] < 0 or query_ids[-1] >= n):
                raise ValueError("nodes ids out of range")

        self.backend.prepare(representations)
        found = self.backend.topk_counterfactuals(
            query_ids, pseudo_labels, binary_attributes, self.top_k
        )
        hit = _fill_rows(found, query_ids)
        if nodes is None:
            return CounterfactualIndex(indices=found, valid=hit)
        num_attrs = binary_attributes.shape[1]
        self_rows = np.repeat(np.arange(n, dtype=np.int64), self.top_k).reshape(n, -1)
        indices = np.tile(self_rows, (num_attrs, 1, 1))
        indices[:, query_ids] = found
        valid = np.zeros((num_attrs, n), dtype=bool)
        valid[:, query_ids] = hit
        return CounterfactualIndex(indices=indices, valid=valid)


def _fill_rows(found: np.ndarray, query_ids: np.ndarray) -> np.ndarray:
    """Turn ``(I, Q, K)`` backend hits into index rows, in place.

    Hits are left-aligned and ``-1``-padded.  A row with fewer hits than K
    cycles them to fill every slot (the paper's K > bucket-size corner); a
    row with none points at its own query node.  Returns the ``(I, Q)``
    mask of rows with at least one hit.
    """
    top_k = found.shape[2]
    hit = np.empty(found.shape[:2], dtype=bool)
    # One attribute at a time keeps the temporaries at (Q, K).
    for rows, row_hit in zip(found, hit):
        counts = np.count_nonzero(rows >= 0, axis=1)
        np.greater(counts, 0, out=row_hit)
        short = row_hit & (counts < top_k)
        if short.any():
            cols = np.arange(top_k) % counts[short][:, None]
            rows[short] = np.take_along_axis(rows[short], cols, axis=1)
        rows[~row_hit] = query_ids[~row_hit, None]
    return hit
