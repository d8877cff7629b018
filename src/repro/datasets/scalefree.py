"""Large synthetic scale-free graphs with the same planted bias story.

:mod:`repro.datasets.causal` builds a dense ``(N, N)`` affinity matrix, which
caps it at a few thousand nodes.  This module generates graphs with
**power-law degrees at million-node scale** using a Chung–Lu style sparse
sampler: every step is O(nodes + edges) vectorized numpy, so a 100k-node
graph takes well under a second and never touches an ``(N, N)`` array.

Everything but the candidate edges is the shared planted pipeline of
:mod:`repro.datasets._planted`: a sensitive group ``s`` shifts proxy feature
columns, biases the label logit, and boosts same-group edge formation
(homophily via rejection sampling on the candidates).  The result is a
:class:`~repro.graph.Graph` ready for the minibatch training engine.
"""

from __future__ import annotations

import numpy as np

from repro.datasets._planted import family_spec, homophilous_edges, plant_node_bias, planted_graph
from repro.graph import Graph

__all__ = ["generate_scale_free_graph"]


def generate_scale_free_graph(
    num_nodes: int,
    num_features: int = 16,
    average_degree: float = 10.0,
    power_law_exponent: float = 2.5,
    *,
    seed: int = 0,
    name: str = "scalefree",
    extra_sensitive_attrs: int = 0,
    **bias: float,
) -> Graph:
    """Generate a scale-free :class:`~repro.graph.Graph` with planted bias.

    Parameters
    ----------
    num_nodes, num_features, average_degree:
        Graph dimensions; memory and time are O(nodes + edges).
    power_law_exponent:
        Target degree-distribution exponent (> 2; 2.5 is the classic
        social-network value).
    seed, name:
        Seed for every draw, and the dataset identifier.
    extra_sensitive_attrs:
        Additional planted binary attributes for intersectional audits,
        stored under ``meta["extra_sensitive"]`` as ``{"attr1": ..., ...}``
        (see :func:`~repro.datasets._planted.planted_graph`).
    bias:
        Bias keywords: any field of :class:`~repro.datasets.causal.BiasSpec`
        but ``label_homophily``, validated as the named datasets' are.  They
        default to :data:`~repro.datasets._planted.FAMILY_BIAS`:
        ``BiasSpec``'s defaults with ``label_bias=0.8``.
    """
    if power_law_exponent <= 2.0:
        raise ValueError(f"power_law_exponent must be > 2, got {power_law_exponent}")
    spec = family_spec(num_nodes, num_features, average_degree, extra_sensitive_attrs, **bias)
    rng = np.random.default_rng(seed)
    nodes = plant_node_bias(rng, num_nodes, num_features, spec)
    # Chung–Lu: both endpoints drawn in proportion to expected-degree weights
    # w ~ Pareto(exponent − 1) (inverse-CDF), so degrees follow k^-exponent.
    weights = (1.0 - rng.random(num_nodes)) ** (-1.0 / (power_law_exponent - 1.0))
    probabilities = weights / weights.sum()

    def candidates(size: int) -> tuple[np.ndarray, np.ndarray]:
        src = rng.choice(num_nodes, size=size, p=probabilities)
        return src, rng.choice(num_nodes, size=size, p=probabilities)

    lo, hi = homophilous_edges(
        rng, nodes.sensitive, spec.group_homophily, average_degree, candidates
    )
    return planted_graph(
        rng,
        nodes,
        lo,
        hi,
        name=name,
        extra_sensitive_attrs=extra_sensitive_attrs,
        meta={
            "seed": seed,
            "generator": "scale_free",
            "power_law_exponent": power_law_exponent,
            "target_average_degree": average_degree,
            "group_homophily": spec.group_homophily,
        },
    )
