"""Golden round-trip tests for the model-artifact subsystem.

The serving contract: ``save_artifact`` → ``load_artifact`` → ``score``
reproduces the in-memory model's logits bit-identically, and the persisted
counterfactual index answers queries exactly like the live one.  Plus the
failure modes: wrong schema version, corrupt manifest, missing members.
"""

from __future__ import annotations

import json

import numpy as np
import pytest

from repro.core import ExecutionConfig, FairwosConfig, FairwosTrainer
from repro.core.counterfactual import CounterfactualSearch
from repro.experiments.methods import run_method
from repro.io import ArtifactError, load_artifact, save_artifact
from repro.io.artifact import ARTIFACT_VERSION, graph_fingerprints
from repro.tensor import Tensor
from repro.training import predict_logits, predict_logits_batched


@pytest.fixture(scope="module")
def fairwos_run(small_graph):
    """A fitted Fairwos trainer (ANN backend) kept for parity checks."""
    result = run_method(
        "fairwos",
        small_graph,
        epochs=4,
        finetune_epochs=2,
        execution=ExecutionConfig(cf_backend="ann"),
        keep_model=True,
    )
    return result.extra["model"]


@pytest.fixture(scope="module")
def fairwos_artifact(fairwos_run, small_graph, tmp_path_factory):
    path = tmp_path_factory.mktemp("artifacts") / "fairwos"
    save_artifact(fairwos_run, small_graph, path)
    return path


class TestFairwosRoundTrip:
    def test_score_bit_identical(self, fairwos_run, fairwos_artifact, small_graph):
        live = fairwos_run.predict(small_graph)
        art = load_artifact(fairwos_artifact)
        reloaded = art.score()
        np.testing.assert_array_equal(reloaded, live)
        # the acceptance bound, trivially implied by exact equality
        assert np.abs(reloaded - live).max() <= 1e-12

    def test_score_node_subset_aligns(self, fairwos_run, fairwos_artifact, small_graph):
        art = load_artifact(fairwos_artifact)
        nodes = np.array([3, 17, 42, 99])
        np.testing.assert_array_equal(
            art.score(nodes=nodes), fairwos_run.predict(small_graph)[nodes]
        )

    def test_manifest_records_dataset(self, fairwos_artifact, small_graph):
        art = load_artifact(fairwos_artifact)
        dataset = art.manifest["dataset"]
        assert dataset["name"] == small_graph.name
        assert dataset["num_nodes"] == small_graph.num_nodes
        assert dataset["fingerprints"] == graph_fingerprints(small_graph)

    def test_matches_fingerprints(self, fairwos_artifact, small_graph, tiny_graph):
        art = load_artifact(fairwos_artifact)
        assert art.matches(small_graph)
        assert not art.matches(tiny_graph)

    def test_bundled_graph_round_trips(self, fairwos_artifact, small_graph):
        art = load_artifact(fairwos_artifact)
        np.testing.assert_array_equal(art.graph.features, small_graph.features)
        np.testing.assert_array_equal(art.graph.labels, small_graph.labels)

    def test_wrong_node_count_suggests_features(self, fairwos_artifact, tiny_graph):
        art = load_artifact(fairwos_artifact)
        with pytest.raises(ArtifactError, match="pass features="):
            art.score(graph=tiny_graph)

    def test_score_new_features_matches_transform(
        self, fairwos_run, fairwos_artifact, small_graph, rng
    ):
        art = load_artifact(fairwos_artifact)
        perturbed = small_graph.features + 0.01 * rng.normal(
            size=small_graph.features.shape
        )
        scored = art.score(features=perturbed)
        pseudo = fairwos_run.transform_features(perturbed, small_graph.adjacency)
        expected = predict_logits(
            fairwos_run.classifier, Tensor(pseudo), small_graph.adjacency
        )
        np.testing.assert_array_equal(scored, expected)


def _float32_fairwos(small_graph, tmp_path, **config):
    """Fit a small float32 Fairwos run, save it, and reload it."""
    graph = small_graph.with_features(
        small_graph.features.astype(np.float32),
        related=small_graph.related_feature_indices,
    )
    trainer = FairwosTrainer(
        FairwosConfig(
            dtype="float32",
            encoder_epochs=3,
            classifier_epochs=3,
            finetune_epochs=2,
            patience=None,
            **config,
        )
    )
    trainer.fit(graph, seed=0)
    save_artifact(trainer, graph, tmp_path / "f32")
    return graph, trainer, load_artifact(tmp_path / "f32")


def _assert_same_logits(served, live):
    assert served.dtype == live.dtype == np.float32
    np.testing.assert_array_equal(served, live)


class TestFloat32RoundTrip:
    """Reload scoring runs in the trained precision: a float32 artifact
    returns the live model's float32 logits, not float64 ones."""

    @staticmethod
    def _assert_scores_match(graph, trainer, art):
        live = trainer.predict(graph)
        _assert_same_logits(art.score(), live)
        nodes = np.array([4, 8, 15, 16, 23, 42])
        np.testing.assert_array_equal(art.score(nodes=nodes), live[nodes])

    def test_minibatch_float32_score_bit_identical(self, small_graph, tmp_path):
        self._assert_scores_match(*_float32_fairwos(
            small_graph, tmp_path, minibatch=True, batch_size=64, cf_backend="ann"
        ))

    @pytest.mark.parametrize("cf_backend", ["exact", "ann"])
    def test_fullbatch_float32_score_bit_identical(self, small_graph, tmp_path, cf_backend):
        self._assert_scores_match(
            *_float32_fairwos(small_graph, tmp_path, cf_backend=cf_backend)
        )

    @pytest.mark.parametrize("minibatch", [False, True], ids=["fullbatch", "sampled"])
    def test_vanilla_float32_score_bit_identical(self, small_graph, tmp_path, minibatch):
        result = run_method(
            "vanilla",
            small_graph,
            epochs=3,
            execution=ExecutionConfig(minibatch=minibatch, batch_size=64, dtype="float32"),
            keep_model=True,
            keep_logits=True,
        )
        save_artifact(result.extra["model"], small_graph, tmp_path / "vanilla")
        art = load_artifact(tmp_path / "vanilla")
        _assert_same_logits(art.score(), result.extra["logits"])

    def test_exact_index_rejects_probes_override(self, small_graph, tmp_path):
        _, _, art = _float32_fairwos(small_graph, tmp_path, cf_backend="exact")
        assert art.manifest["index"]["kind"] == "exact"
        with pytest.raises(ArtifactError, match="only apply to ANN-indexed"):
            art.counterfactuals(probes=4)
        assert art.counterfactuals(probes="exhaustive").top_k >= 1

    def test_unsearched_trainer_index_is_embedded_in_float32(self, small_graph, tmp_path):
        """A trainer that never searched gets an exact index over its
        embedding, computed in the trained precision."""
        graph, trainer, art = _float32_fairwos(
            small_graph, tmp_path, minibatch=True, batch_size=64, use_fairness=False
        )
        points = art._index_points
        assert points.shape == (graph.num_nodes, trainer.config.hidden_dim)
        np.testing.assert_array_equal(points.astype(np.float32), points)


@pytest.fixture(scope="module")
def sampled_artifact(small_graph, tmp_path_factory):
    """A neighbour-sampled Vanilla artifact (batched scoring)."""
    result = run_method(
        "vanilla",
        small_graph,
        epochs=3,
        execution=ExecutionConfig(minibatch=True, batch_size=64),
        keep_model=True,
    )
    path = tmp_path_factory.mktemp("artifacts") / "vanilla-sampled"
    save_artifact(result.extra["model"], small_graph, path)
    return path


class TestNodeIds:
    """Node ids mean the same thing for full-batch and sampled artifacts."""

    @pytest.fixture(params=["fullbatch", "sampled"])
    def artifact(self, request, fairwos_artifact, sampled_artifact):
        if request.param == "fullbatch":
            return load_artifact(fairwos_artifact)
        return load_artifact(sampled_artifact)

    @pytest.mark.parametrize("batch_size", [None, 16])
    def test_repeated_ids_answered_row_for_row(self, artifact, batch_size):
        once = artifact.score(nodes=np.array([2, 5]), batch_size=batch_size)
        scored = artifact.score(nodes=np.array([2, 2, 5, 2]), batch_size=batch_size)
        np.testing.assert_array_equal(scored, once[[0, 0, 1, 0]])

    @pytest.mark.parametrize("batch_size", [None, 16])
    def test_ids_outside_the_graph_raise(self, artifact, batch_size):
        n = artifact.graph.num_nodes
        for bad in (-1, n):
            with pytest.raises(ValueError, match=rf"node ids must be in \[0, {n}\)"):
                artifact.score(nodes=np.array([0, bad]), batch_size=batch_size)

    def test_cli_scores_repeated_ids(self, artifact):
        from repro.cli import main

        output = main(["score", "--artifact", str(artifact.path), "--node-ids", "2,2,5"])
        assert "scored 3 nodes" in output


class TestPersistedIndex:
    def test_exhaustive_retrieval_matches_exact_oracle(
        self, fairwos_run, fairwos_artifact
    ):
        art = load_artifact(fairwos_artifact)
        search = CounterfactualSearch(fairwos_run.config.top_k)  # exact backend
        nodes = np.array([23, 5, 9, 5])
        for subset in (None, nodes):
            persisted = art.counterfactuals(nodes=subset, probes="exhaustive")
            live = search.search(
                art._index_points,
                fairwos_run._pseudo_labels,
                fairwos_run._binary_attrs,
                nodes=subset,
            )
            np.testing.assert_array_equal(persisted.indices, live.indices)
            np.testing.assert_array_equal(persisted.valid, live.valid)

    def test_persisted_forest_matches_live_forest(self, fairwos_run, fairwos_artifact):
        # Same forest, same routing tables: default-probes queries agree
        # with the live index the trainer left standing.
        live_index = fairwos_run._search.backend._index
        art = load_artifact(fairwos_artifact)
        assert art._index is not None
        queries = live_index.points[:16]
        np.testing.assert_array_equal(
            art._index.query(queries, 3), live_index.query(queries, 3)
        )

    def test_node_subset_rows_match_full_query(self, fairwos_artifact):
        art = load_artifact(fairwos_artifact)
        nodes = np.array([5, 9, 23])
        subset = art.counterfactuals(nodes=nodes, probes="exhaustive")
        full = art.counterfactuals(probes="exhaustive")
        np.testing.assert_array_equal(
            subset.indices[:, nodes], full.indices[:, nodes]
        )
        # unqueried rows are left invalid
        others = np.setdiff1d(np.arange(subset.valid.shape[1]), nodes)
        assert not subset.valid[:, others].any()

    def test_probes_override_int(self, fairwos_artifact):
        art = load_artifact(fairwos_artifact)
        result = art.counterfactuals(top_k=2, probes=4)
        assert result.top_k == 2


class TestBaselineRoundTrip:
    def test_vanilla_fullbatch_bit_identical(self, small_graph, tmp_path):
        result = run_method("vanilla", small_graph, epochs=5, keep_model=True)
        runner = result.extra["model"]
        live = predict_logits(
            runner.model_, Tensor(small_graph.features), small_graph.adjacency
        )
        save_artifact(runner, small_graph, tmp_path / "vanilla")
        art = load_artifact(tmp_path / "vanilla")
        np.testing.assert_array_equal(art.score(), live)
        assert np.abs(art.score() - live).max() <= 1e-12

    def test_remover_minibatch_bit_identical(self, small_graph, tmp_path):
        result = run_method(
            "remover",
            small_graph,
            epochs=4,
            execution=ExecutionConfig(minibatch=True, fanouts=(5,), batch_size=64),
            keep_model=True,
        )
        runner = result.extra["model"]
        raw = small_graph.features[:, runner.feature_columns_]
        live = predict_logits_batched(
            runner.model_, raw, small_graph.adjacency, batch_size=64
        )
        save_artifact(runner, small_graph, tmp_path / "remover")
        art = load_artifact(tmp_path / "remover")
        np.testing.assert_array_equal(art.score(), live)
        # the column selection itself round-trips
        np.testing.assert_array_equal(
            art.baseline.feature_columns_, runner.feature_columns_
        )

    def test_baseline_has_no_counterfactuals(self, small_graph, tmp_path):
        result = run_method("vanilla", small_graph, epochs=2, keep_model=True)
        save_artifact(result.extra["model"], small_graph, tmp_path / "v")
        art = load_artifact(tmp_path / "v")
        with pytest.raises(ArtifactError, match="no counterfactual"):
            art.counterfactuals()

    def test_unfitted_baseline_rejected(self, small_graph, tmp_path):
        from repro.baselines import Vanilla

        with pytest.raises(ArtifactError, match="model_"):
            save_artifact(Vanilla(), small_graph, tmp_path / "unfit")


class TestManifestValidation:
    def test_not_an_artifact(self, tmp_path):
        with pytest.raises(ArtifactError, match="not a model artifact"):
            load_artifact(tmp_path)

    def test_version_mismatch(self, fairwos_artifact, tmp_path):
        import shutil

        copy = tmp_path / "bumped"
        shutil.copytree(fairwos_artifact, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        manifest["format_version"] = ARTIFACT_VERSION + 1
        (copy / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="unsupported artifact version"):
            load_artifact(copy)

    @pytest.mark.parametrize(
        "version, field, value",
        [(1, "backend", "numpy"), (2, "cache_epochs", 1)],
        ids=["v1", "v2"],
    )
    def test_older_version_artifact_rejected(
        self, fairwos_artifact, tmp_path, version, field, value
    ):
        """Version 1 manifests recorded the removed ``backend`` setting and
        version 2 manifests the removed ``cache_epochs``; the version check
        turns them away before the config is read."""
        import shutil

        copy = tmp_path / f"v{version}"
        shutil.copytree(fairwos_artifact, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        assert field not in manifest["config"]
        manifest["format_version"] = version
        manifest["config"][field] = value
        (copy / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(
            ArtifactError, match=f"unsupported artifact version {version}"
        ):
            load_artifact(copy)

    def test_config_with_removed_field_is_incompatible(self, fairwos_artifact, tmp_path):
        """Older Fairwos artifacts recorded ``prefetch_epochs`` in their
        config; the field is gone, so they fail with a clear error."""
        import shutil

        copy = tmp_path / "older"
        shutil.copytree(fairwos_artifact, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        manifest["config"]["prefetch_epochs"] = 1
        (copy / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="incompatible library version"):
            load_artifact(copy)

    def test_corrupt_manifest_json(self, fairwos_artifact, tmp_path):
        import shutil

        copy = tmp_path / "corrupt"
        shutil.copytree(fairwos_artifact, copy)
        (copy / "manifest.json").write_text("{not json")
        with pytest.raises(ArtifactError, match="corrupt manifest"):
            load_artifact(copy)

    def test_missing_member_file(self, fairwos_artifact, tmp_path):
        import shutil

        copy = tmp_path / "gutted"
        shutil.copytree(fairwos_artifact, copy)
        (copy / "model.npz").unlink()
        with pytest.raises(ArtifactError, match="missing member"):
            load_artifact(copy)

    def test_unknown_kind(self, fairwos_artifact, tmp_path):
        import shutil

        copy = tmp_path / "alien"
        shutil.copytree(fairwos_artifact, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        manifest["kind"] = "mystery"
        (copy / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="unknown artifact kind"):
            load_artifact(copy)

    def test_non_model_rejected(self, small_graph, tmp_path):
        with pytest.raises(ArtifactError, match="cannot persist"):
            save_artifact(object(), small_graph, tmp_path / "obj")

    def test_file_in_the_way_rejected(self, fairwos_run, small_graph, tmp_path):
        target = tmp_path / "taken"
        target.write_text("not a directory")
        with pytest.raises(ArtifactError, match="not a directory"):
            save_artifact(fairwos_run, small_graph, target)
        assert target.read_text() == "not a directory"

    def test_unfitted_fairwos_rejected(self, small_graph, tmp_path):
        with pytest.raises(ArtifactError, match="not been fitted"):
            save_artifact(FairwosTrainer(FairwosConfig()), small_graph, tmp_path / "u")

    def test_corrupt_member_file(self, fairwos_artifact, tmp_path):
        import shutil

        copy = tmp_path / "scrambled"
        shutil.copytree(fairwos_artifact, copy)
        (copy / "arrays.npz").write_bytes(b"this is not a zip archive")
        with pytest.raises(ArtifactError, match="corrupt artifact member"):
            load_artifact(copy)

    def test_unknown_index_kind(self, fairwos_artifact, tmp_path):
        import shutil

        copy = tmp_path / "odd-index"
        shutil.copytree(fairwos_artifact, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        manifest["index"]["kind"] = "mystery"
        (copy / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="unknown index kind"):
            load_artifact(copy)

    def test_corrupt_persisted_forest(self, fairwos_artifact, tmp_path):
        import shutil

        copy = tmp_path / "broken-forest"
        shutil.copytree(fairwos_artifact, copy)
        with np.load(copy / "index.npz") as data:
            arrays = {key: data[key] for key in data.files}
        del arrays["tree0_directions"]
        np.savez_compressed(copy / "index.npz", **arrays)
        with pytest.raises(ArtifactError, match="corrupt persisted index"):
            load_artifact(copy)

    def test_classifier_weights_must_fit_the_manifest(self, fairwos_artifact, tmp_path):
        import shutil

        copy = tmp_path / "resized"
        shutil.copytree(fairwos_artifact, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        manifest["config"]["hidden_dim"] += 1
        (copy / "manifest.json").write_text(json.dumps(manifest))
        with pytest.raises(ArtifactError, match="classifier weights do not fit"):
            load_artifact(copy)


@pytest.fixture(scope="module")
def vanilla_artifact(small_graph, tmp_path_factory):
    """A full-batch Vanilla artifact for the baseline failure modes."""
    result = run_method("vanilla", small_graph, epochs=2, keep_model=True)
    path = tmp_path_factory.mktemp("artifacts") / "vanilla"
    save_artifact(result.extra["model"], small_graph, path)
    return path


class TestBaselineManifestValidation:
    @staticmethod
    def _edited(artifact, tmp_path, edit):
        import shutil

        copy = tmp_path / "edited"
        shutil.copytree(artifact, copy)
        manifest = json.loads((copy / "manifest.json").read_text())
        edit(manifest["config"])
        (copy / "manifest.json").write_text(json.dumps(manifest))
        return copy

    def test_unknown_baseline_class(self, vanilla_artifact, tmp_path):
        copy = self._edited(
            vanilla_artifact, tmp_path, lambda config: config.update({"class": "Nope"})
        )
        with pytest.raises(ArtifactError, match="unknown baseline class 'Nope'"):
            load_artifact(copy)

    def test_model_weights_must_fit_the_manifest(self, vanilla_artifact, tmp_path):
        def widen(config):
            config["hidden_dim"] += 1

        copy = self._edited(vanilla_artifact, tmp_path, widen)
        with pytest.raises(ArtifactError, match="model weights do not fit"):
            load_artifact(copy)

    def test_feature_width_checked_at_scoring(self, vanilla_artifact, small_graph):
        art = load_artifact(vanilla_artifact)
        narrow = small_graph.features[:, :-1]
        with pytest.raises(ArtifactError, match="columns but the model expects"):
            art.score(features=narrow)


class TestGraphlessArtifact:
    def test_score_requires_explicit_graph(self, fairwos_run, small_graph, tmp_path):
        path = tmp_path / "nograph"
        save_artifact(fairwos_run, small_graph, path, include_graph=False)
        art = load_artifact(path)
        assert art.graph is None
        with pytest.raises(ArtifactError, match="pass one explicitly"):
            art.score()
        np.testing.assert_array_equal(
            art.score(graph=small_graph), fairwos_run.predict(small_graph)
        )


class TestAuditSurface:
    def test_audit_matches_direct_call(self, fairwos_run, fairwos_artifact, small_graph):
        from repro.fairness.audit import audit_predictions

        art = load_artifact(fairwos_artifact)
        direct = audit_predictions(fairwos_run.predict(small_graph), small_graph)
        assert art.audit().evaluation == direct.evaluation

    def test_audit_windows_shapes(self, fairwos_artifact):
        art = load_artifact(fairwos_artifact)
        report = art.audit_windows(num_windows=3)
        assert report.num_windows == 3
        assert int(report.ends[-1]) == art.graph.num_nodes
        assert "drift" in report.render()


@pytest.fixture(scope="module")
def sampled_fairwos_artifact(small_graph, tmp_path_factory):
    """A neighbour-sampled Fairwos artifact with an ANN index."""
    result = run_method(
        "fairwos",
        small_graph,
        epochs=4,
        finetune_epochs=2,
        execution=ExecutionConfig(minibatch=True, batch_size=64, cf_backend="ann"),
        keep_model=True,
    )
    path = tmp_path_factory.mktemp("artifacts") / "fairwos-sampled"
    save_artifact(result.extra["model"], small_graph, path)
    return path


@pytest.fixture
def sampler_builds(monkeypatch):
    """Every NeighborSampler constructed while the test runs."""
    from repro.graph import NeighborSampler

    built = []
    construct = NeighborSampler.__init__

    def counting(self, *args, **kwargs):
        built.append(self)
        construct(self, *args, **kwargs)

    monkeypatch.setattr(NeighborSampler, "__init__", counting)
    return built


class TestServedSampler:
    """A minibatch artifact keeps one full-neighbourhood sampler per
    scored adjacency instead of building one per request."""

    def test_repeated_scores_build_one_sampler(
        self, sampled_fairwos_artifact, sampler_builds
    ):
        art = load_artifact(sampled_fairwos_artifact)
        for nodes in ([1, 5, 9], [2, 2, 7], None):
            art.score(nodes=None if nodes is None else np.array(nodes))
        assert len(sampler_builds) == 1

    def test_new_graph_object_gets_its_own_sampler(
        self, sampled_fairwos_artifact, small_graph, sampler_builds
    ):
        import dataclasses

        art = load_artifact(sampled_fairwos_artifact)
        other = dataclasses.replace(
            small_graph, adjacency=small_graph.adjacency.copy()
        )
        first = art.score(small_graph)
        assert len(sampler_builds) == 1
        np.testing.assert_array_equal(art.score(other), first)
        assert len(sampler_builds) == 2
        art.score(other)
        art.score(small_graph)
        assert len(sampler_builds) == 2

    def test_fullbatch_artifact_builds_none(self, fairwos_artifact, sampler_builds):
        art = load_artifact(fairwos_artifact)
        art.score()
        art.score(nodes=np.array([3, 4]))
        assert sampler_builds == []

    def test_recycled_id_misses_the_cache(
        self, sampled_fairwos_artifact, tiny_adjacency, sampler_builds
    ):
        """An entry whose adjacency was freed must not serve a new matrix
        that happens to reuse its ``id``."""
        import weakref

        from repro.graph import NeighborSampler

        art = load_artifact(sampled_fairwos_artifact)
        graph = art.graph

        class _Freed:
            pass

        freed = _Freed()
        dead = weakref.ref(freed)
        del freed
        assert dead() is None
        stale = NeighborSampler.full_neighborhood(tiny_adjacency, 1)
        art._samplers[id(graph.adjacency)] = (dead, stale)
        sampler_builds.clear()
        nodes = np.array([0, 10, 20])
        served = art.score(nodes=nodes)
        assert len(sampler_builds) == 1
        assert art._samplers[id(graph.adjacency)][1] is not stale
        fresh = load_artifact(sampled_fairwos_artifact).score(nodes=nodes)
        np.testing.assert_array_equal(served, fresh)

    def test_cached_logits_equal_an_uncached_call(self, sampled_fairwos_artifact):
        from repro.tensor import dtype_scope

        art = load_artifact(sampled_fairwos_artifact)
        graph = art.graph
        nodes = np.array([7, 3, 3, 200, 1])
        for batch_size in (64, 2):
            with dtype_scope(art._dtype):
                uncached = predict_logits_batched(
                    art.trainer.classifier,
                    art.trainer._pseudo_features,
                    graph.adjacency,
                    nodes=nodes,
                    batch_size=batch_size,
                )
            for _ in range(2):
                np.testing.assert_array_equal(
                    art.score(nodes=nodes, batch_size=batch_size), uncached
                )


class TestZeroOverrides:
    """An override of 0 is an error, not "use the saved value"."""

    @pytest.mark.parametrize("bad", [0, -3])
    def test_score_batch_size_below_one_raises(
        self, sampled_fairwos_artifact, sampled_artifact, bad
    ):
        for path in (sampled_fairwos_artifact, sampled_artifact):
            art = load_artifact(path)
            with pytest.raises(ValueError, match="batch_size must be >= 1"):
                art.score(nodes=np.array([1, 2]), batch_size=bad)

    def test_score_batch_size_none_keeps_saved(self, sampled_fairwos_artifact):
        art = load_artifact(sampled_fairwos_artifact)
        np.testing.assert_array_equal(
            art.score(batch_size=None), art.score(batch_size=64)
        )

    @pytest.mark.parametrize("bad", [0, -1])
    def test_counterfactuals_top_k_below_one_raises(
        self, sampled_fairwos_artifact, bad
    ):
        art = load_artifact(sampled_fairwos_artifact)
        with pytest.raises(ValueError, match="top_k must be >= 1"):
            art.counterfactuals(nodes=np.array([3]), top_k=bad)
        assert art.counterfactuals(nodes=np.array([3])).top_k == 5
        assert art.counterfactuals(nodes=np.array([3]), top_k=1).top_k == 1

    def test_cli_score_batch_size_zero_raises(self, sampled_fairwos_artifact):
        from repro.cli import main

        with pytest.raises(ValueError, match="batch_size must be >= 1"):
            main([
                "score", "--artifact", str(sampled_fairwos_artifact),
                "--node-ids", "1,5,9", "--batch-size", "0",
            ])

    def test_cli_serve_answers_zero_overrides_with_errors(
        self, sampled_fairwos_artifact, capsys
    ):
        import io

        from repro.cli import _cmd_serve, build_parser

        args = build_parser().parse_args(
            ["serve", "--artifact", str(sampled_fairwos_artifact), "--batch-size", "0"]
        )
        stdin = io.StringIO("score 1,5,9\ncf 3 0\ncf 3 2\nquit\n")
        summary = _cmd_serve(args, stdin=stdin)
        assert "served 3 requests" in summary
        transcript = capsys.readouterr().out
        assert "error: batch_size must be >= 1, got 0" in transcript
        assert "error: top_k must be >= 1, got 0" in transcript
        assert "counterfactual twins (K=2" in transcript
