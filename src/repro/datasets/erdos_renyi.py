"""Erdős–Rényi graphs with the shared planted bias story.

The structural counterpoint to :mod:`repro.datasets.scalefree`: the same
planted pipeline (:mod:`repro.datasets._planted`), but candidate edges drawn
uniformly at random instead of from a heavy-tailed degree distribution — the
sf-vs-er structural-prior split used to probe how much of a method's
(un)fairness rides on degree concentration rather than homophily.  Every
step is O(nodes + edges) vectorized numpy.
"""

from __future__ import annotations

import numpy as np

from repro.datasets._planted import family_spec, homophilous_edges, plant_node_bias, planted_graph
from repro.graph import Graph

__all__ = ["generate_erdos_renyi_graph"]


def generate_erdos_renyi_graph(
    num_nodes: int,
    num_features: int = 16,
    average_degree: float = 10.0,
    *,
    seed: int = 0,
    name: str = "erdos_renyi",
    extra_sensitive_attrs: int = 0,
    **bias: float,
) -> Graph:
    """Generate a G(n, m)-style :class:`~repro.graph.Graph` with planted bias.

    ``group_homophily=0`` gives the textbook homophily-free ER graph.

    Parameters
    ----------
    num_nodes, num_features, average_degree:
        Graph dimensions; memory and time are O(nodes + edges).
    seed, name, extra_sensitive_attrs, bias:
        As in :func:`~repro.datasets.scalefree.generate_scale_free_graph`.
    """
    spec = family_spec(num_nodes, num_features, average_degree, extra_sensitive_attrs, **bias)
    rng = np.random.default_rng(seed)
    nodes = plant_node_bias(rng, num_nodes, num_features, spec)

    def candidates(size: int) -> tuple[np.ndarray, np.ndarray]:
        src = rng.integers(num_nodes, size=size)
        return src, rng.integers(num_nodes, size=size)

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
            "generator": "erdos_renyi",
            "target_average_degree": average_degree,
            "group_homophily": spec.group_homophily,
        },
    )
