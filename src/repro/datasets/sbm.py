"""Stochastic-block-model graphs with controlled homophily and mixing.

The community-structured member of the graph-family matrix: nodes belong to
``num_communities`` balanced blocks, edges form mostly within blocks
(``community_mixing`` controls the cross-block fraction), and the sensitive
attribute is *derived from* community membership with a controlled flip rate
(``sensitive_mixing``), so the graph interpolates between perfectly
segregated (mixing 0) and community-independent (mixing 0.5) sensitive
structure.  On top of the block structure the shared planted pipeline
(:mod:`repro.datasets._planted`) applies, and the community id itself is
exposed under ``meta["extra_sensitive"]["community"]`` — the natural second
axis for intersectional audits.  Every step is O(nodes + edges).
"""

from __future__ import annotations

import numpy as np

from repro.datasets._planted import family_spec, homophilous_edges, plant_node_bias, planted_graph
from repro.graph import Graph

__all__ = ["generate_sbm_graph"]


def generate_sbm_graph(
    num_nodes: int,
    num_features: int = 16,
    average_degree: float = 10.0,
    num_communities: int = 4,
    community_mixing: float = 0.2,
    sensitive_mixing: float = 0.2,
    community_signal: float = 0.5,
    *,
    group_homophily: float = 0.5,
    seed: int = 0,
    name: str = "sbm",
    extra_sensitive_attrs: int = 0,
    **bias: float,
) -> Graph:
    """Generate a community :class:`~repro.graph.Graph` with planted bias.

    Parameters
    ----------
    num_nodes, num_features, average_degree:
        Graph dimensions; memory and time are O(nodes + edges).
    num_communities:
        Number of balanced blocks (>= 2).
    community_mixing:
        Fraction of candidate edges drawn across blocks instead of within
        one (0 = pure block-diagonal structure, 1 = no block structure).
    sensitive_mixing:
        Probability that a node's sensitive group deviates from its
        community's majority group (communities alternate majority group by
        parity).  0 segregates the groups perfectly along communities; 0.5
        makes the sensitive attribute community-independent.
    community_signal:
        Scale of the per-community latent-merit offset — how strongly
        community membership shows up in features and labels.
    group_homophily:
        Extra same-*group* acceptance boost on top of the block structure,
        which already induces group homophily when ``sensitive_mixing`` is
        small; hence a lower default than the other families'.
    seed, name:
        Seed for every draw, and the dataset identifier.
    extra_sensitive_attrs:
        Additional planted binary attributes beyond the always-present
        ``community`` entry of ``meta["extra_sensitive"]``.
    bias:
        As in :func:`~repro.datasets.scalefree.generate_scale_free_graph`,
        except ``group_balance``: the communities set the groups.
    """
    if "group_balance" in bias:
        raise TypeError("generate_sbm_graph() got an unexpected keyword argument 'group_balance'")
    if num_communities < 2:
        raise ValueError(f"need at least 2 communities, got {num_communities}")
    if not 0.0 <= community_mixing <= 1.0:
        raise ValueError(f"community_mixing must be in [0, 1], got {community_mixing}")
    if not 0.0 <= sensitive_mixing <= 1.0:
        raise ValueError(f"sensitive_mixing must be in [0, 1], got {sensitive_mixing}")
    spec = family_spec(
        num_nodes,
        num_features,
        average_degree,
        extra_sensitive_attrs,
        group_homophily=group_homophily,
        **bias,
    )
    rng = np.random.default_rng(seed)

    # -- balanced communities; sensitive derived with controlled mixing --- #
    community = rng.permutation(num_nodes) % num_communities
    flips = rng.random(num_nodes) < sensitive_mixing
    sensitive = ((community % 2) ^ flips.astype(np.int64)).astype(np.int64)
    centers = rng.normal(size=(num_communities, spec.latent_dim)) * community_signal
    nodes = plant_node_bias(
        rng, num_nodes, num_features, spec, sensitive=sensitive, merit_offset=centers[community]
    )

    order = np.argsort(community, kind="stable")
    sizes = np.bincount(community, minlength=num_communities)
    starts = np.concatenate([[0], np.cumsum(sizes)[:-1]])

    def candidates(size: int) -> tuple[np.ndarray, np.ndarray]:
        src = rng.integers(num_nodes, size=size)
        intra = rng.random(size) >= community_mixing
        dst = rng.integers(num_nodes, size=size)
        # Intra candidates re-draw their destination uniformly inside the
        # source node's community via the sorted-by-community index.
        c = community[src[intra]]
        offsets = (rng.random(int(intra.sum())) * sizes[c]).astype(np.int64)
        dst[intra] = order[starts[c] + offsets]
        return src, dst

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
        extra_sensitive={"community": community.astype(np.int64)},
        meta={
            "seed": seed,
            "generator": "sbm",
            "target_average_degree": average_degree,
            "num_communities": num_communities,
            "community_mixing": community_mixing,
            "sensitive_mixing": sensitive_mixing,
            "group_homophily": spec.group_homophily,
        },
    )
