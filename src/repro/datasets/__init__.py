"""Benchmark datasets.

The paper evaluates on six public graphs (Bail, Credit, Pokec-z, Pokec-n,
NBA, Occupation).  Those are distributed as data files we cannot download in
this offline environment, so this package provides **synthetic equivalents**
generated from an explicit causal bias model (:mod:`repro.datasets.causal`)
whose statistics are matched to the paper's Table I.  The generator plants
exactly the mechanism the paper's introduction describes — the sensitive
attribute shapes proxy features, label base rates and edge formation, so a
vanilla GNN trained *without* the sensitive attribute is still measurably
unfair.

Beyond the named benchmarks, the package hosts the parametric **graph
families** of the scenario matrix — scale-free (Chung–Lu), Erdős–Rényi and
SBM/community generators — plus a temporal edge-stream wrapper replaying
any graph as arrival batches.  All four generators share one planted
pipeline (:mod:`repro.datasets._planted`): the bias parameters
(:class:`BiasSpec`), the node draw, the homophilous edge rejection of the
families and the graph assembly with the paper's 50/25/25 split
(:func:`random_split_masks`).  A generator adds only its edge structure.

Use :func:`load_dataset` with one of :func:`available_datasets`, a family
key from :func:`available_families`, or a saved-graph path.
"""

from repro.datasets.causal import BiasSpec, generate_biased_graph
from repro.datasets.erdos_renyi import generate_erdos_renyi_graph
from repro.datasets.registry import (
    DATASET_SPECS,
    GRAPH_FAMILIES,
    DatasetSpec,
    available_datasets,
    available_families,
    dataset_cli_flags,
    dataset_statistics_rows,
    load_dataset,
    load_family,
)
from repro.datasets.sbm import generate_sbm_graph
from repro.datasets.scalefree import generate_scale_free_graph
from repro.datasets.splits import random_split_masks
from repro.datasets.tabular import graph_from_table, knn_adjacency
from repro.datasets.temporal import EdgeBatch, TemporalEdgeStream

__all__ = [
    "BiasSpec",
    "generate_biased_graph",
    "generate_scale_free_graph",
    "generate_erdos_renyi_graph",
    "generate_sbm_graph",
    "EdgeBatch",
    "TemporalEdgeStream",
    "DatasetSpec",
    "DATASET_SPECS",
    "GRAPH_FAMILIES",
    "available_datasets",
    "available_families",
    "dataset_cli_flags",
    "dataset_statistics_rows",
    "load_dataset",
    "load_family",
    "random_split_masks",
    "graph_from_table",
    "knn_adjacency",
]
