"""The planted graph: one bias mechanism and one assembly for every generator.

Every synthetic graph in this package tells the story of the paper's Fig. 3:
a hidden sensitive group ``s`` shifts proxy feature columns, biases the label
logit and makes same-group edges likelier, so a model that never sees ``s``
still learns its bias.  This module writes that story once:

* :class:`BiasSpec` declares, defaults, documents and validates the bias
  parameters, and :func:`family_spec` applies it to the keywords of the
  O(E) families (scale-free, Erdős–Rényi, SBM);
* :func:`plant_node_bias` draws groups, labels and biased features;
* :func:`homophilous_edges` turns a family's candidate edges into its edges;
* :func:`planted_graph` builds the symmetric CSR, the paper's 50/25/25
  split and any extra planted attributes, and returns the :class:`Graph`.

A generator keeps only its structure: the dense merit kernel of
:mod:`~repro.datasets.causal`, or a family's structural draws and candidate
sampler.  Each generator's draw order is frozen (structural draws, node
draw, edges, split, extra attributes), so its graphs stay bit-identical;
``tests/golden_generators.json`` pins them.
"""

from __future__ import annotations

from dataclasses import dataclass, fields, replace
from typing import Callable

import numpy as np
import scipy.sparse as sp

from repro.datasets.splits import random_split_masks
from repro.graph import Graph

__all__ = [
    "BiasSpec",
    "FAMILY_BIAS",
    "PlantedNodes",
    "check_dimensions",
    "family_spec",
    "plant_node_bias",
    "homophilous_edges",
    "planted_graph",
]


@dataclass
class BiasSpec:
    """Parameters of the planted bias mechanism.

    Attributes
    ----------
    group_balance:
        P(s = 1).
    label_bias:
        Coefficient of ``(2s − 1)`` in the label logit — historical
        discrimination strength.
    proxy_fraction:
        Fraction of feature columns that act as proxies of ``s``.
    proxy_strength:
        Mean shift of proxy columns between the two groups.
    label_signal_strength:
        Mean shift of (non-proxy) signal columns between the two classes —
        controls task learnability.
    group_homophily:
        Same-``s`` pairs are ``1 + group_homophily`` times likelier to
        become edges (0 = no boost).
    label_homophily:
        The same boost for same-``y`` pairs, in the dense causal kernel only.
    latent_dim:
        Dimensionality of the merit vector ``z``.
    feature_noise:
        Std of additive feature noise.
    """

    group_balance: float = 0.5
    label_bias: float = 1.0
    proxy_fraction: float = 0.25
    proxy_strength: float = 1.0
    label_signal_strength: float = 0.8
    group_homophily: float = 2.0
    label_homophily: float = 1.0
    latent_dim: int = 8
    feature_noise: float = 0.5

    def validate(self) -> None:
        """Raise ``ValueError`` for out-of-range parameters."""
        if not 0.0 < self.group_balance < 1.0:
            raise ValueError(f"group_balance must be in (0, 1), got {self.group_balance}")
        if not 0.0 <= self.proxy_fraction <= 1.0:
            raise ValueError(f"proxy_fraction must be in [0, 1], got {self.proxy_fraction}")
        if self.latent_dim < 1:
            raise ValueError(f"latent_dim must be >= 1, got {self.latent_dim}")
        for name in (
            "proxy_strength",
            "label_signal_strength",
            "feature_noise",
            "group_homophily",
            "label_homophily",
        ):
            if getattr(self, name) < 0:
                raise ValueError(f"{name} must be non-negative, got {getattr(self, name)}")


# The families' bias keywords and defaults: BiasSpec's, with a milder label
# bias and without label_homophily, which only the dense kernel uses.
FAMILY_BIAS = BiasSpec(label_bias=0.8)
_FAMILY_KEYWORDS = frozenset(f.name for f in fields(BiasSpec)) - {"label_homophily"}


def check_dimensions(num_nodes: int, num_features: int, average_degree: float) -> None:
    """Raise ``ValueError`` for dimensions too small to plant and split, or no edges."""
    if num_nodes < 10:
        raise ValueError(f"need at least 10 nodes, got {num_nodes}")
    if num_features < 2:
        raise ValueError(f"need at least 2 features, got {num_features}")
    if average_degree <= 0:
        raise ValueError(f"average_degree must be positive, got {average_degree}")


def family_spec(
    num_nodes: int, num_features: int, average_degree: float, extra_sensitive_attrs: int, **bias
) -> BiasSpec:
    """Validate a family graph's request; return :data:`FAMILY_BIAS` updated by ``bias``.

    A ``bias`` keyword that is not a :data:`FAMILY_BIAS` field, or is
    ``label_homophily``, raises ``TypeError``.
    """
    for key in bias:
        if key not in _FAMILY_KEYWORDS:
            raise TypeError(f"unexpected keyword argument {key!r}: not a family bias parameter")
    check_dimensions(num_nodes, num_features, average_degree)
    if extra_sensitive_attrs < 0:
        raise ValueError("extra_sensitive_attrs must be non-negative")
    spec = replace(FAMILY_BIAS, **bias)
    spec.validate()
    return spec


@dataclass
class PlantedNodes:
    """Node-level draws of :func:`plant_node_bias`; ``merit`` is the latent confounder."""

    sensitive: np.ndarray
    labels: np.ndarray
    features: np.ndarray
    merit: np.ndarray
    proxy_columns: np.ndarray
    signal_columns: np.ndarray


def plant_node_bias(
    rng: np.random.Generator,
    num_nodes: int,
    num_features: int,
    spec: BiasSpec,
    sensitive: np.ndarray | None = None,
    merit_offset: np.ndarray | None = None,
) -> PlantedNodes:
    """Draw sensitive groups, labels and biased features for one graph.

    The draw order is frozen: sensitive → merit → label weights → labels →
    readout → column permutation → feature noise.  Every column reads the
    merit vector; a random subset of proxy columns also shifts with ``s``,
    and a disjoint subset of signal columns with ``y``.

    Parameters
    ----------
    sensitive:
        Pre-assigned int64 group memberships (the SBM derives them from its
        communities).  ``None`` draws them i.i.d. from
        ``spec.group_balance``; a provided array skips that draw.
    merit_offset:
        Optional ``(num_nodes, latent_dim)`` shift added to the latent merit
        before labels and features are derived (the SBM's community signal).
    """
    latent_dim = spec.latent_dim
    if sensitive is None:
        sensitive = (rng.random(num_nodes) < spec.group_balance).astype(np.int64)
    merit = rng.normal(size=(num_nodes, latent_dim))
    if merit_offset is not None:
        merit = merit + merit_offset
    label_weights = rng.normal(size=latent_dim) / np.sqrt(latent_dim)
    logits = merit @ label_weights + spec.label_bias * (2.0 * sensitive - 1.0)
    positive_rate = 1.0 / (1.0 + np.exp(-np.clip(logits, -30, 30)))
    labels = (rng.random(num_nodes) < positive_rate).astype(np.int64)

    readout = rng.normal(size=(latent_dim, num_features)) / np.sqrt(latent_dim)
    features = merit @ readout
    columns = rng.permutation(num_features)
    n_proxy = min(max(1, int(round(spec.proxy_fraction * num_features))), num_features - 1)
    proxy_columns = np.sort(columns[:n_proxy])
    n_signal = max(1, (num_features - n_proxy) // 2)
    signal_columns = np.sort(columns[n_proxy : n_proxy + n_signal])
    features[:, proxy_columns] += spec.proxy_strength * (2.0 * sensitive - 1.0)[:, None]
    features[:, signal_columns] += spec.label_signal_strength * (2.0 * labels - 1.0)[:, None]
    features += rng.normal(scale=spec.feature_noise, size=features.shape)
    return PlantedNodes(sensitive, labels, features, merit, proxy_columns, signal_columns)


def homophilous_edges(
    rng: np.random.Generator,
    sensitive: np.ndarray,
    group_homophily: float,
    average_degree: float,
    candidates: Callable[[int], tuple[np.ndarray, np.ndarray]],
) -> tuple[np.ndarray, np.ndarray]:
    """A family's undirected edges, as ``(lo, hi)`` endpoint arrays.

    The budget is ``round(average_degree · N / 2)`` edges.  ``candidates(k)``
    draws ``k`` candidate ``(src, dst)`` pairs, oversampled so that what
    the filter discards rarely leaves the budget short.  The filter is O(E):
    it drops self-loops, accepts cross-group candidates with probability
    ``1 / (1 + group_homophily)``, dedups after ordering each pair's
    endpoints, and shuffles the survivors before the cut to the budget.
    """
    num_nodes = sensitive.size
    target_edges = int(round(average_degree * num_nodes / 2.0))
    acceptance_floor = 1.0 / (1.0 + group_homophily)
    src, dst = candidates(int(target_edges / max(acceptance_floor, 0.25) * 1.5) + 16)
    keep = src != dst
    accept_prob = np.where(sensitive[src] == sensitive[dst], 1.0, acceptance_floor)
    keep &= rng.random(src.size) < accept_prob
    src, dst = src[keep], dst[keep]
    lo, hi = np.minimum(src, dst), np.maximum(src, dst)
    pairs = np.unique(lo.astype(np.int64) * num_nodes + hi)
    pairs = pairs[rng.permutation(pairs.size)][:target_edges]
    return pairs // num_nodes, pairs % num_nodes


def planted_graph(
    rng: np.random.Generator,
    nodes: PlantedNodes,
    lo: np.ndarray,
    hi: np.ndarray,
    *,
    name: str,
    meta: dict,
    extra_sensitive_attrs: int = 0,
    extra_sensitive: dict[str, np.ndarray] | None = None,
) -> Graph:
    """Assemble the :class:`Graph` of planted nodes and undirected ``(lo, hi)`` edges.

    Builds the symmetric CSR, draws the paper's 50/25/25 split, then
    ``extra_sensitive_attrs`` planted binary attributes ``attr1…`` for
    intersectional audits: each thresholds a fresh random direction of the
    latent merit plus noise, so it correlates with features and predictions
    without copying ``s``.  They draw last, so adding them changes no other
    array.  ``meta`` gains ``signal_columns`` and, when there are any,
    ``extra_sensitive``: the family's own entries (the SBM's ``community``)
    followed by ``attr1…``.
    """
    num_nodes = nodes.labels.size
    rows, cols = np.concatenate([lo, hi]), np.concatenate([hi, lo])
    adjacency = sp.csr_matrix((np.ones(rows.size), (rows, cols)), shape=(num_nodes, num_nodes))
    train_mask, val_mask, test_mask = random_split_masks(num_nodes, rng)
    extra_sensitive = dict(extra_sensitive or {})
    latent_dim = nodes.merit.shape[1]
    for i in range(extra_sensitive_attrs):
        direction = rng.normal(size=latent_dim) / np.sqrt(latent_dim)
        noise = rng.normal(scale=0.5, size=num_nodes)
        extra_sensitive[f"attr{i + 1}"] = (nodes.merit @ direction + noise > 0.0).astype(np.int64)
    meta = {**meta, "signal_columns": nodes.signal_columns}
    if extra_sensitive:
        meta["extra_sensitive"] = extra_sensitive
    return Graph(
        adjacency=adjacency,
        features=nodes.features,
        labels=nodes.labels,
        sensitive=nodes.sensitive,
        train_mask=train_mask,
        val_mask=val_mask,
        test_mask=test_mask,
        related_feature_indices=nodes.proxy_columns,
        name=name,
        meta=meta,
    )
