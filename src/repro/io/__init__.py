"""Persistence: graphs and model artifacts.

* :func:`save_graph` / :func:`load_graph` — single-file ``.npz`` round-trip
  of a :class:`~repro.graph.Graph` (adjacency stored in CSR parts);
  :func:`save_graph_mmap` writes the same format as an uncompressed
  directory that ``load_graph(path, mmap=True)`` memory-maps, keeping
  1M-node adjacency/feature arrays on disk instead of in RAM;
* :func:`save_artifact` / :func:`load_artifact` — versioned whole-method
  bundles (weights + config + preprocessing state + the standing
  counterfactual index) powering the ``repro score`` / ``repro serve``
  path; see :mod:`repro.io.artifact`.  Artifacts are the one persistence
  path for models; :func:`pack_state` / :func:`unpack_state` expose their
  ``Module.state_dict`` key scheme for multi-model archives.
"""

from repro.io.artifact import (
    ArtifactError,
    ModelArtifact,
    load_artifact,
    save_artifact,
)
from repro.io.graph_io import load_graph, save_graph, save_graph_mmap
from repro.io.model_io import pack_state, unpack_state

__all__ = [
    "save_graph",
    "save_graph_mmap",
    "load_graph",
    "pack_state",
    "unpack_state",
    "save_artifact",
    "load_artifact",
    "ModelArtifact",
    "ArtifactError",
]
