"""Causal synthetic graph generator with a planted sensitive-attribute bias.

The generator behind the six named datasets.  The generative story follows
Fig. 3 of the paper (``s`` influences the non-sensitive attributes and the
graph structure, which influence the prediction) and the loan-approval
running example of Fig. 1:

1. each node draws a sensitive group ``s ~ Bernoulli(group_balance)``
   (race / age / region / nationality / gender in the real datasets);
2. a latent "merit" vector ``z ~ N(0, I)`` captures legitimate signal
   (income-like quantities);
3. the label mixes merit with **historical bias**:
   ``y ~ Bernoulli(σ(w·z + label_bias·(2s−1)))``;
4. features are linear read-outs of ``z`` plus a label read-out, and a
   designated subset of **proxy columns** additionally shifts with ``s``
   (postal-code-like proxies) — the sensitive attribute itself is *not* a
   column;
5. edges form with probability proportional to merit similarity, boosted
   when endpoints share ``s`` (group homophily) and when they share ``y``
   (label homophily), calibrated to hit a target average degree.

Steps 1–4 and the graph assembly are the shared planted pipeline of
:mod:`repro.datasets._planted`; this module owns step 5, a dense ``(N, N)``
kernel that suits the few-thousand-node named datasets.

Because ``s`` is recoverable from the proxies and the neighbourhood
structure but absent from the features, a vanilla GNN ends up statistically
unfair (ΔSP, ΔEO > 0) exactly as the paper's "fairness without
demographics" setting requires.
"""

from __future__ import annotations

import numpy as np

from repro.datasets._planted import (
    BiasSpec,
    PlantedNodes,
    check_dimensions,
    plant_node_bias,
    planted_graph,
)
from repro.graph import Graph

__all__ = ["BiasSpec", "generate_biased_graph"]


def _sample_edges(
    nodes: PlantedNodes, target_average_degree: float, spec: BiasSpec, rng: np.random.Generator
) -> tuple[np.ndarray, np.ndarray]:
    """Sample undirected edges ``(rows, cols)``, ``rows < cols``, at a calibrated degree."""
    merit, sensitive, labels = nodes.merit, nodes.sensitive, nodes.labels
    n = merit.shape[0]
    # Merit-similarity kernel on a random low-dim projection keeps this O(N²)
    # with small constants; N is at most a few thousand here.
    proj = merit[:, : min(4, merit.shape[1])]
    sq_norms = (proj**2).sum(axis=1)
    distances = sq_norms[:, None] + sq_norms[None, :] - 2.0 * proj @ proj.T
    np.maximum(distances, 0.0, out=distances)
    bandwidth = max(float(np.median(distances)), 1e-9)
    affinity = np.exp(-distances / bandwidth)

    same_s = sensitive[:, None] == sensitive[None, :]
    same_y = labels[:, None] == labels[None, :]
    affinity *= 1.0 + spec.group_homophily * same_s
    affinity *= 1.0 + spec.label_homophily * same_y
    np.fill_diagonal(affinity, 0.0)

    target_edges = target_average_degree * n / 2.0
    upper = np.triu_indices(n, k=1)
    weights = affinity[upper]
    total = weights.sum()
    if total <= 0:
        raise RuntimeError("degenerate affinity matrix: no positive weights")
    probs = np.minimum(1.0, weights * (target_edges / total))
    # One calibration refinement: clipping at 1 loses mass, redistribute it.
    deficit = target_edges - probs.sum()
    if deficit > 1e-9:
        headroom = 1.0 - probs
        room_total = headroom.sum()
        if room_total > 0:
            probs = np.minimum(1.0, probs + headroom * (deficit / room_total))
    draws = rng.random(probs.shape) < probs
    return upper[0][draws], upper[1][draws]


def generate_biased_graph(
    num_nodes: int,
    num_features: int,
    average_degree: float,
    spec: BiasSpec | None = None,
    seed: int = 0,
    name: str = "synthetic",
) -> Graph:
    """Generate a :class:`~repro.graph.Graph` with planted sensitive bias.

    Parameters
    ----------
    num_nodes, num_features, average_degree:
        Basic graph dimensions (matched to the paper's Table I statistics by
        the dataset registry).
    spec:
        Bias mechanism parameters (defaults to :class:`BiasSpec`'s defaults).
    seed:
        Seed for all sampling (node attributes, edges, the 50/25/25 split).
    name:
        Dataset identifier stored on the graph.
    """
    check_dimensions(num_nodes, num_features, average_degree)
    spec = spec or BiasSpec()
    spec.validate()
    rng = np.random.default_rng(seed)
    nodes = plant_node_bias(rng, num_nodes, num_features, spec)
    rows, cols = _sample_edges(nodes, average_degree, spec, rng)
    meta = {"seed": seed, "spec": spec, "target_average_degree": average_degree}
    return planted_graph(rng, nodes, rows, cols, name=name, meta=meta)
