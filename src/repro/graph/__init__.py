"""Graph data structures and sparse utilities for message passing."""

from repro.graph.graph import Graph
from repro.graph.normalize import (
    add_self_loops,
    gcn_normalize,
    row_normalize,
    to_symmetric,
)
from repro.graph.sampling import (
    Block,
    NeighborSampler,
    block_gcn_matrix,
    block_mean_matrix,
    block_sum_matrix,
    is_block_sequence,
)
from repro.graph.utils import (
    edge_homophily,
    edges_from_adjacency,
    adjacency_from_edges,
    degree_vector,
)

__all__ = [
    "Graph",
    "Block",
    "NeighborSampler",
    "block_gcn_matrix",
    "block_mean_matrix",
    "block_sum_matrix",
    "is_block_sequence",
    "add_self_loops",
    "gcn_normalize",
    "row_normalize",
    "to_symmetric",
    "edge_homophily",
    "edges_from_adjacency",
    "adjacency_from_edges",
    "degree_vector",
]
