"""Tests for graph persistence and the state-dict key scheme."""

from __future__ import annotations

import numpy as np
import pytest

from repro.gnnzoo import make_backbone
from repro.io import (
    load_graph,
    pack_state,
    save_graph,
    save_graph_mmap,
    unpack_state,
)
from repro.tensor import Tensor


class TestGraphIO:
    def test_round_trip(self, small_graph, tmp_path):
        path = save_graph(small_graph, tmp_path / "graph.npz")
        loaded = load_graph(path)
        assert (loaded.adjacency != small_graph.adjacency).nnz == 0
        np.testing.assert_allclose(loaded.features, small_graph.features)
        np.testing.assert_array_equal(loaded.labels, small_graph.labels)
        np.testing.assert_array_equal(loaded.sensitive, small_graph.sensitive)
        np.testing.assert_array_equal(loaded.train_mask, small_graph.train_mask)
        np.testing.assert_array_equal(
            loaded.related_feature_indices, small_graph.related_feature_indices
        )
        assert loaded.name == small_graph.name

    def test_suffix_added(self, small_graph, tmp_path):
        path = save_graph(small_graph, tmp_path / "graph")
        assert path.suffix == ".npz"
        assert path.exists()

    def test_version_check(self, small_graph, tmp_path):
        path = save_graph(small_graph, tmp_path / "graph.npz")
        with np.load(path) as data:
            payload = {key: data[key] for key in data.files}
        payload["format_version"] = np.array(99)
        np.savez_compressed(path, **payload)
        with pytest.raises(ValueError, match="version"):
            load_graph(path)


class TestGraphMmapIO:
    def _assert_graphs_equal(self, loaded, original):
        assert (loaded.adjacency != original.adjacency).nnz == 0
        np.testing.assert_array_equal(
            np.asarray(loaded.features), original.features
        )
        np.testing.assert_array_equal(loaded.labels, original.labels)
        np.testing.assert_array_equal(loaded.sensitive, original.sensitive)
        np.testing.assert_array_equal(loaded.train_mask, original.train_mask)
        np.testing.assert_array_equal(loaded.val_mask, original.val_mask)
        np.testing.assert_array_equal(loaded.test_mask, original.test_mask)
        np.testing.assert_array_equal(
            loaded.related_feature_indices, original.related_feature_indices
        )
        assert loaded.name == original.name

    def test_directory_round_trip(self, small_graph, tmp_path):
        path = save_graph_mmap(small_graph, tmp_path / "graphdir")
        assert path.is_dir()
        self._assert_graphs_equal(load_graph(path), small_graph)

    def test_mmap_round_trip(self, small_graph, tmp_path):
        path = save_graph_mmap(small_graph, tmp_path / "graphdir")
        self._assert_graphs_equal(load_graph(path, mmap=True), small_graph)

    def test_mmap_arrays_stay_memory_mapped(self, small_graph, tmp_path):
        """The large arrays must remain on-disk views after Graph wraps
        them — an eager copy anywhere in the pipeline defeats the 1M-node
        memory budget."""
        path = save_graph_mmap(small_graph, tmp_path / "graphdir")
        loaded = load_graph(path, mmap=True)

        def disk_backed(array: np.ndarray) -> bool:
            # scipy's CSR constructor may wrap the memmap in a plain
            # ndarray *view*; walk the base chain to the owning buffer.
            while isinstance(array, np.ndarray):
                if isinstance(array, np.memmap):
                    return True
                array = array.base
            return False

        assert disk_backed(loaded.features)
        assert disk_backed(loaded.adjacency.data)
        assert disk_backed(loaded.adjacency.indices)
        assert disk_backed(loaded.adjacency.indptr)

    def test_float32_features_preserved(self, small_graph, tmp_path):
        """float32 features survive save → mmap-load → Graph un-upcast."""
        shrunk = small_graph.with_features(
            small_graph.features.astype(np.float32),
            related=small_graph.related_feature_indices,
        )
        assert shrunk.features.dtype == np.float32
        path = save_graph_mmap(shrunk, tmp_path / "graphdir")
        loaded = load_graph(path, mmap=True)
        assert loaded.features.dtype == np.float32
        assert isinstance(loaded.features, np.memmap)
        assert (path / "features.npy").stat().st_size < small_graph.features.nbytes

    def test_mmap_on_npz_raises(self, small_graph, tmp_path):
        path = save_graph(small_graph, tmp_path / "graph.npz")
        with pytest.raises(ValueError, match="mmap"):
            load_graph(path, mmap=True)

    def test_missing_file_raises(self, small_graph, tmp_path):
        path = save_graph_mmap(small_graph, tmp_path / "graphdir")
        (path / "features.npy").unlink()
        with pytest.raises(ValueError, match="features"):
            load_graph(path)

    def test_version_check(self, small_graph, tmp_path):
        path = save_graph_mmap(small_graph, tmp_path / "graphdir")
        np.save(path / "format_version.npy", np.array(99))
        with pytest.raises(ValueError, match="version"):
            load_graph(path)

    def test_mmap_graph_trains_identically(self, small_graph, tmp_path):
        """A fit on the mmap-loaded graph must be bit-identical to a fit on
        the in-RAM original (the mmap path changes storage, not math)."""
        from repro.baselines import Vanilla

        path = save_graph_mmap(small_graph, tmp_path / "graphdir")
        loaded = load_graph(path, mmap=True)
        kwargs = dict(epochs=15, patience=5, minibatch=True, batch_size=64)
        ref = Vanilla(**kwargs).fit(small_graph, seed=0)
        mapped = Vanilla(**kwargs).fit(loaded, seed=0)
        assert ref.test.accuracy == mapped.test.accuracy
        assert ref.test.delta_sp == mapped.test.delta_sp


class TestStateKeys:
    """``pack_state`` / ``unpack_state``: the artifacts' state-dict key scheme."""

    @staticmethod
    def _round_trip(model, path, prefix=""):
        np.savez_compressed(path, **pack_state(model, prefix))
        with np.load(path, allow_pickle=False) as data:
            return unpack_state(data, prefix)

    def test_round_trip(self, tmp_path, tiny_graph):
        model = make_backbone("gcn", 4, 8, np.random.default_rng(0))
        feats = Tensor(tiny_graph.features)
        before = model(feats, tiny_graph.adjacency).data.copy()
        state = self._round_trip(model, tmp_path / "ckpt.npz", "model/")

        fresh = make_backbone("gcn", 4, 8, np.random.default_rng(99))
        fresh.load_state_dict(state)
        after = fresh(feats, tiny_graph.adjacency).data
        np.testing.assert_allclose(after, before)

    def test_strict_loading(self, tmp_path):
        model = make_backbone("gcn", 4, 8, np.random.default_rng(0))
        state = self._round_trip(model, tmp_path / "ckpt.npz")
        wrong = make_backbone("gcn", 4, 16, np.random.default_rng(0))
        with pytest.raises((KeyError, ValueError)):
            wrong.load_state_dict(state)

    def test_nested_names_round_trip(self, tmp_path):
        model = make_backbone("gin", 4, 8, np.random.default_rng(0))
        names = set(model.state_dict())
        state = self._round_trip(model, tmp_path / "gin.npz")
        assert set(state) == names
        fresh = make_backbone("gin", 4, 8, np.random.default_rng(1))
        fresh.load_state_dict(state)
        assert set(fresh.state_dict()) == names
