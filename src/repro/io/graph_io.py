"""Graph persistence: compressed ``.npz`` archives and mmap-able directories.

Two on-disk layouts share one logical format:

* :func:`save_graph` — a single compressed ``.npz`` archive.  Smallest on
  disk, but ``np.load`` must decompress every array into RAM, so it cannot
  back a graph bigger than memory.
* :func:`save_graph_mmap` — a directory of *uncompressed* ``.npy`` files,
  one per array.  ``load_graph(path, mmap=True)`` then opens the large
  arrays (CSR adjacency components and the feature matrix) with
  ``np.load(..., mmap_mode="r")``: the OS pages rows in on demand and the
  resident footprint of a 1M-node graph stays bounded by what training
  actually touches, not by the dataset size.

:func:`load_graph` accepts either layout (dispatching on whether ``path``
is a directory), so callers never hard-code the storage choice.
"""

from __future__ import annotations

from pathlib import Path

import numpy as np
import scipy.sparse as sp

from repro.graph import Graph

__all__ = ["save_graph", "save_graph_mmap", "load_graph"]

_FORMAT_VERSION = 1

# Arrays worth memory-mapping: everything whose size scales with nodes/edges
# times a non-trivial row width.  The per-node 1-D vectors (labels, masks)
# are a few MB even at 1M nodes and load eagerly either way.
_MMAP_KEYS = ("adj_data", "adj_indices", "adj_indptr", "features")


def save_graph(graph: Graph, path: str | Path) -> Path:
    """Serialise ``graph`` to a compressed ``.npz`` file.

    The adjacency is stored as its CSR components; ``meta`` is not persisted
    (it may hold arbitrary objects) except for the scalar provenance fields,
    which are re-created as strings.
    """
    path = Path(path)
    np.savez_compressed(path, **_graph_payload(graph))
    # np.savez appends .npz when missing; normalise the returned path.
    return path if path.suffix == ".npz" else path.with_suffix(path.suffix + ".npz")


def _graph_payload(graph: Graph) -> dict[str, np.ndarray]:
    """The logical format shared by both on-disk layouts."""
    adjacency = graph.adjacency.tocsr()
    return {
        "format_version": np.array(_FORMAT_VERSION),
        "name": np.array(graph.name),
        "adj_data": adjacency.data,
        "adj_indices": adjacency.indices,
        "adj_indptr": adjacency.indptr,
        "adj_shape": np.array(adjacency.shape),
        "features": graph.features,
        "labels": graph.labels,
        "sensitive": graph.sensitive,
        "train_mask": graph.train_mask,
        "val_mask": graph.val_mask,
        "test_mask": graph.test_mask,
        "related": graph.related_feature_indices,
    }


def save_graph_mmap(graph: Graph, path: str | Path) -> Path:
    """Serialise ``graph`` as a directory of uncompressed ``.npy`` files.

    The mmap-friendly counterpart of :func:`save_graph`: each array lands
    in its own file with its in-memory dtype preserved (save float32
    features to halve the on-disk and resident footprint), so
    ``load_graph(path, mmap=True)`` can hand the large arrays straight to
    the OS page cache instead of materialising them.
    """
    path = Path(path)
    path.mkdir(parents=True, exist_ok=True)
    for key, value in _graph_payload(graph).items():
        # np.save handles layout itself; ascontiguousarray would promote the
        # 0-d scalars (format_version, name) to 1-d and break the round-trip.
        np.save(path / f"{key}.npy", value)
    return path


def _build_graph(read) -> Graph:
    """The graph whose :func:`_graph_payload` arrays ``read(key)`` returns,
    after checking the format version."""
    version = int(read("format_version"))
    if version != _FORMAT_VERSION:
        raise ValueError(
            f"unsupported graph file version {version} "
            f"(expected {_FORMAT_VERSION})"
        )
    adjacency = sp.csr_matrix(
        (read("adj_data"), read("adj_indices"), read("adj_indptr")),
        shape=tuple(read("adj_shape")),
    )
    return Graph(
        adjacency=adjacency,
        features=read("features"),
        labels=read("labels"),
        sensitive=read("sensitive"),
        train_mask=read("train_mask"),
        val_mask=read("val_mask"),
        test_mask=read("test_mask"),
        related_feature_indices=read("related"),
        name=str(read("name")),
    )


def _npy_reader(path: Path, mmap: bool):
    """``read(key)`` over a :func:`save_graph_mmap` directory, optionally
    memory-mapping the large arrays."""
    def read(key: str) -> np.ndarray:
        file = path / f"{key}.npy"
        if not file.is_file():
            raise ValueError(f"not a saved graph directory: {path} (missing {key}.npy)")
        mode = "r" if mmap and key in _MMAP_KEYS else None
        return np.load(file, allow_pickle=False, mmap_mode=mode)

    return read


def load_graph(path: str | Path, mmap: bool = False) -> Graph:
    """Load a graph saved with :func:`save_graph` or :func:`save_graph_mmap`.

    Parameters
    ----------
    path:
        Either a ``.npz`` archive or a ``save_graph_mmap`` directory; the
        layout is detected from the filesystem.
    mmap:
        Open the adjacency CSR components and the feature matrix with
        ``mmap_mode="r"`` instead of reading them into RAM.  Only the
        directory layout supports this — compressed ``.npz`` members are
        not mappable, so asking for ``mmap`` on an archive raises rather
        than silently loading eagerly.
    """
    path = Path(path)
    if path.is_dir():
        return _build_graph(_npy_reader(path, mmap))
    if mmap:
        raise ValueError(
            "mmap loading needs the uncompressed directory layout; save the "
            "graph with save_graph_mmap() (compressed .npz members cannot "
            "be memory-mapped)"
        )
    with np.load(path, allow_pickle=False) as data:
        return _build_graph(data.__getitem__)
