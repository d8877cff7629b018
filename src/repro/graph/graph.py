"""The :class:`Graph` container used throughout the reproduction.

A graph bundles a sparse CSR adjacency, dense node features, labels, boolean
train/val/test masks and — crucially for the fairness setting of the paper —
an **evaluation-only** sensitive attribute vector: models never read
``graph.sensitive`` during training (the paper's Problem 1 states ``S ∉ F``),
but the fairness metrics require it at test time.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace

import numpy as np
import scipy.sparse as sp

__all__ = ["Graph"]


def _as_float_features(features) -> np.ndarray:
    """Coerce a feature matrix to float without destroying its memory layout.

    Non-float inputs (integer one-hots, booleans) are promoted to float64 as
    before.  Floating inputs pass through *unchanged*: float32 matrices keep
    their half-size footprint, and memory-mapped arrays stay memory-mapped —
    an unconditional ``asarray(..., float64)`` here would silently pull a
    whole on-disk 1M-node feature matrix into resident memory.
    """
    features = np.asarray(features) if not isinstance(features, np.ndarray) else features
    if not np.issubdtype(features.dtype, np.floating):
        features = features.astype(np.float64)
    return features


@dataclass
class Graph:
    """An attributed graph for semi-supervised node classification.

    Attributes
    ----------
    adjacency:
        ``(N, N)`` scipy CSR matrix, unweighted and symmetric, zero diagonal.
    features:
        ``(N, F)`` float feature matrix.  The sensitive attribute is *not* a
        column of this matrix.
    labels:
        ``(N,)`` integer node labels (binary tasks use {0, 1}).
    sensitive:
        ``(N,)`` integer sensitive-group memberships; used only by the
        fairness metrics at evaluation time.
    train_mask / val_mask / test_mask:
        ``(N,)`` boolean partition of the nodes.
    related_feature_indices:
        Columns of ``features`` known (or assumed, for the RemoveR / FairRF
        baselines) to be proxies of the sensitive attribute.
    name:
        Dataset identifier.
    meta:
        Free-form provenance (generator parameters, paper statistics, ...).
    """

    adjacency: sp.csr_matrix
    features: np.ndarray
    labels: np.ndarray
    sensitive: np.ndarray
    train_mask: np.ndarray
    val_mask: np.ndarray
    test_mask: np.ndarray
    related_feature_indices: np.ndarray = field(
        default_factory=lambda: np.array([], dtype=np.int64)
    )
    name: str = "graph"
    meta: dict = field(default_factory=dict)

    def __post_init__(self) -> None:
        self.adjacency = sp.csr_matrix(self.adjacency)
        self.features = _as_float_features(self.features)
        self.labels = np.asarray(self.labels, dtype=np.int64)
        self.sensitive = np.asarray(self.sensitive, dtype=np.int64)
        self.train_mask = np.asarray(self.train_mask, dtype=bool)
        self.val_mask = np.asarray(self.val_mask, dtype=bool)
        self.test_mask = np.asarray(self.test_mask, dtype=bool)
        self.related_feature_indices = np.asarray(
            self.related_feature_indices, dtype=np.int64
        )
        self.validate()

    # ------------------------------------------------------------------ #
    # shape / sanity checks
    # ------------------------------------------------------------------ #
    def validate(self) -> None:
        """Raise ``ValueError`` on any internal inconsistency."""
        n = self.num_nodes
        if self.adjacency.shape != (n, n):
            raise ValueError(
                f"adjacency shape {self.adjacency.shape} does not match "
                f"{n} feature rows"
            )
        for attr in ("labels", "sensitive", "train_mask", "val_mask", "test_mask"):
            value = getattr(self, attr)
            if value.shape != (n,):
                raise ValueError(f"{attr} must have shape ({n},), got {value.shape}")
        overlap = (
            (self.train_mask & self.val_mask)
            | (self.train_mask & self.test_mask)
            | (self.val_mask & self.test_mask)
        )
        if overlap.any():
            raise ValueError("train/val/test masks overlap")
        if self.related_feature_indices.size and (
            self.related_feature_indices.min() < 0
            or self.related_feature_indices.max() >= self.num_features
        ):
            raise ValueError("related_feature_indices out of range")

    # ------------------------------------------------------------------ #
    # basic statistics
    # ------------------------------------------------------------------ #
    @property
    def num_nodes(self) -> int:
        """Number of nodes N."""
        return self.features.shape[0]

    @property
    def num_features(self) -> int:
        """Feature dimensionality F."""
        return self.features.shape[1]

    @property
    def num_edges(self) -> int:
        """Number of undirected edges (each counted once)."""
        return int(self.adjacency.nnz // 2)

    @property
    def average_degree(self) -> float:
        """Mean node degree (counting each undirected edge at both ends)."""
        if self.num_nodes == 0:
            return 0.0
        return float(self.adjacency.nnz / self.num_nodes)

    # ------------------------------------------------------------------ #
    # transformations
    # ------------------------------------------------------------------ #
    def with_features(self, features: np.ndarray, related: np.ndarray | None = None) -> "Graph":
        """Return a copy with replaced features (e.g. encoder output X(0))."""
        return replace(
            self,
            features=_as_float_features(features),
            related_feature_indices=(
                np.asarray(related, dtype=np.int64)
                if related is not None
                else np.array([], dtype=np.int64)
            ),
        )

    def without_columns(self, columns: np.ndarray) -> "Graph":
        """Return a copy with the given feature columns dropped (RemoveR)."""
        columns = np.asarray(columns, dtype=np.int64)
        keep = np.setdiff1d(np.arange(self.num_features), columns)
        remap = -np.ones(self.num_features, dtype=np.int64)
        remap[keep] = np.arange(keep.size)
        surviving = remap[
            np.intersect1d(self.related_feature_indices, keep, assume_unique=False)
        ]
        return replace(
            self,
            features=self.features[:, keep],
            related_feature_indices=surviving[surviving >= 0],
        )

    def standardized(self) -> "Graph":
        """Return a copy with z-scored feature columns (constant cols → 0)."""
        mean = self.features.mean(axis=0, keepdims=True)
        std = self.features.std(axis=0, keepdims=True)
        std[std == 0] = 1.0
        return replace(self, features=(self.features - mean) / std)

    def summary(self) -> str:
        """One-line human-readable description (used by Table I bench)."""
        return (
            f"{self.name}: {self.num_nodes} nodes, {self.num_features} attrs, "
            f"{self.num_edges} edges, avg degree {self.average_degree:.2f}"
        )
