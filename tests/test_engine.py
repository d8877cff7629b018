"""Tests for the unified minibatch engine.

* **covering level** — covering batches (batch ≥ N, exhaustive fanout)
  must equal full-batch training to 1e-9, through both ``fit_minibatch``
  and a baseline with an epoch callback (FairRF);
* **determinism** — a sampled run is a deterministic function of its seed;
* **eval blocks** — the exact validation blocks and their GCN operators
  are built once per fit, without moving a validation metric.

Plus contract tests for the engine itself: checkpoint policies, validation
of bad arguments, the ``forward="embed"`` path, and mode toggles that reach
every submodule and give back the caller's mode.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.datasets import BiasSpec, generate_biased_graph
from repro.baselines import FairRF
from repro.fairness import evaluate_predictions
from repro.graph import sampling
from repro.gnnzoo import make_backbone
from repro.nn import binary_cross_entropy_with_logits
from repro.nn.module import Module, ModuleList
from repro.tensor import Tensor
from repro.training import (
    MinibatchEngine,
    fit_binary_classifier,
    fit_minibatch,
    predict_logits,
    predict_logits_batched,
)


@pytest.fixture(scope="module")
def causal_graph():
    """A ~400-node generated causal graph with planted bias."""
    return generate_biased_graph(
        num_nodes=400,
        num_features=10,
        average_degree=8,
        spec=BiasSpec(
            label_bias=0.2,
            proxy_strength=1.0,
            group_homophily=2.0,
            label_signal_strength=0.5,
        ),
        seed=3,
        name="engine",
    ).standardized()


class TestCoveringBatchParity:
    """Covering batches must equal full-batch training to 1e-9."""

    def test_fit_minibatch_covering_matches_fullbatch(self, causal_graph):
        graph = causal_graph

        def train(minibatch: bool):
            model = make_backbone(
                "gcn", graph.num_features, 16, np.random.default_rng(0)
            )
            if minibatch:
                fit_minibatch(
                    model,
                    graph.features,
                    graph.adjacency,
                    graph.labels,
                    graph.train_mask,
                    graph.val_mask,
                    epochs=40,
                    fanouts=(None,),
                    batch_size=graph.num_nodes,
                    rng=0,
                )
                return predict_logits_batched(
                    model, graph.features, graph.adjacency
                )
            fit_binary_classifier(
                model,
                Tensor(graph.features),
                graph.adjacency,
                graph.labels,
                graph.train_mask,
                graph.val_mask,
                epochs=40,
            )
            return predict_logits(model, Tensor(graph.features), graph.adjacency)

        np.testing.assert_allclose(train(True), train(False), atol=1e-9)

    def test_fairrf_covering_matches_fullbatch(self, causal_graph):
        graph = causal_graph

        def run(**extra):
            logits, _ = FairRF(epochs=60, patience=None, **extra)._train_logits(
                graph, np.random.default_rng(0)
            )
            return evaluate_predictions(
                logits,
                graph.labels,
                graph.sensitive,
                np.ones(graph.num_nodes, dtype=bool),
            )

        full = run()
        covering = run(minibatch=True, batch_size=2048, fanouts=(None,))
        assert abs(full.accuracy - covering.accuracy) < 1e-9
        assert abs(full.delta_sp - covering.delta_sp) < 1e-9


class TestSampledDeterminism:
    def _run(self, graph, seed):
        model = make_backbone(
            "sage", graph.num_features, 16, np.random.default_rng(seed),
            num_layers=2,
        )
        history = fit_minibatch(
            model,
            graph.features,
            graph.adjacency,
            graph.labels,
            graph.train_mask,
            graph.val_mask,
            epochs=10,
            fanouts=(5, 5),
            batch_size=64,
            rng=seed,
        )
        return history, predict_logits_batched(
            model, graph.features, graph.adjacency
        )

    def test_deterministic_given_seed(self, causal_graph):
        _, first = self._run(causal_graph, seed=1)
        _, second = self._run(causal_graph, seed=1)
        np.testing.assert_array_equal(first, second)

    def test_history_records_epoch_seconds(self, causal_graph):
        history, _ = self._run(causal_graph, seed=0)
        assert len(history.epoch_train_seconds) == len(history.train_loss)
        assert all(seconds >= 0 for seconds in history.epoch_train_seconds)


class TestEvalBlockCache:
    """The exact validation blocks never change during a fit — the engine
    must build them once per ``run()``, not once per epoch, without moving
    a single validation metric."""

    def _engine(self, graph, **extra):
        model = make_backbone(
            "gcn", graph.num_features, 8, np.random.default_rng(0)
        )
        params = dict(fanouts=(5,), batch_size=64)
        params.update(extra)
        return model, MinibatchEngine(
            model, graph.features, graph.adjacency, **params
        )

    def test_eval_blocks_sampled_once_per_fit(self, causal_graph):
        graph = causal_graph
        model, engine = self._engine(graph, batch_size=32)
        val = np.where(graph.val_mask)[0]
        calls = []
        original = engine.eval_sampler.sample_blocks

        def counting(seeds, rng=None):
            calls.append(seeds.size)
            return original(seeds, rng)

        engine.eval_sampler.sample_blocks = counting
        epochs = 4
        engine.run(
            np.where(graph.train_mask)[0],
            epochs,
            lambda step: binary_cross_entropy_with_logits(
                step.output, graph.labels[step.batch].astype(np.float64)
            ),
            0,
            val_nodes=val,
            val_labels=graph.labels[val],
        )
        expected_batches = -(-val.size // 32)  # ceil
        assert len(calls) == expected_batches, (
            f"eval blocks sampled {len(calls)} times; the per-fit cache "
            f"should sample exactly {expected_batches} (one per val batch), "
            f"not once per epoch"
        )

    def test_eval_operators_built_once_per_fit(self, causal_graph, monkeypatch):
        """Every sampled training block is new, so its GCN operator is
        built once per step; the validation blocks are reused every epoch
        and their memoised operators must not be rebuilt."""
        graph = causal_graph
        model, engine = self._engine(graph, batch_size=32)
        builds = []
        original = sampling._self_loops

        def counting(block):
            builds.append(block.num_dst)
            return original(block)

        monkeypatch.setattr(sampling, "_self_loops", counting)
        train = np.where(graph.train_mask)[0]
        val = np.where(graph.val_mask)[0]
        epochs = 4
        engine.run(
            train,
            epochs,
            lambda step: binary_cross_entropy_with_logits(
                step.output, graph.labels[step.batch].astype(np.float64)
            ),
            0,
            val_nodes=val,
            val_labels=graph.labels[val],
        )
        steps = -(-train.size // 32)
        eval_batches = -(-val.size // 32)
        assert len(builds) == steps * epochs + eval_batches

    def test_val_metrics_bit_identical_to_fresh_blocks(self, causal_graph):
        """Per-epoch validation accuracy through the cached blocks equals a
        from-scratch exact prediction at the same weights (on_epoch_end
        fires right before validation, so the weights agree)."""
        graph = causal_graph
        model, engine = self._engine(graph)
        val = np.where(graph.val_mask)[0]
        fresh = []

        def on_epoch_end(epoch):
            logits = engine.predict(val)  # samples fresh blocks every call
            fresh.append(
                ((logits > 0).astype(int) == graph.labels[val]).mean()
            )

        history = engine.run(
            np.where(graph.train_mask)[0],
            3,
            lambda step: binary_cross_entropy_with_logits(
                step.output, graph.labels[step.batch].astype(np.float64)
            ),
            0,
            val_nodes=val,
            val_labels=graph.labels[val],
            on_epoch_end=on_epoch_end,
        )
        assert fresh == history.val_accuracy  # exact equality, no tolerance


class TestFalsyFallbackRegressions:
    """`or`-style fallbacks collapse explicit zeros into defaults; a zero
    size must be rejected (the bug class that bit finetune_val_tolerance)."""

    def _model(self, graph):
        return make_backbone(
            "gcn", graph.num_features, 8, np.random.default_rng(0)
        )

    def test_predict_zero_batch_size_rejected(self, causal_graph):
        graph = causal_graph
        engine = MinibatchEngine(
            self._model(graph), graph.features, graph.adjacency,
            fanouts=(5,), batch_size=64,
        )
        with pytest.raises(ValueError, match="batch_size"):
            engine.predict(np.arange(10), batch_size=0)


class _ModeLog(Module):
    """A submodule that records every mode it is set to."""

    def __init__(self) -> None:
        self.modes: list[bool] = []
        super().__init__()

    @property
    def training(self) -> bool:
        return self.modes[-1]

    @training.setter
    def training(self, mode: bool) -> None:
        self.modes.append(mode)


def _step_bce(graph, step):
    """BCE on the step's batch: the full-batch step's output covers every
    node, a sampled step's rows are its batch."""
    logits = step.output if step.blocks is not None else step.output[step.batch]
    return binary_cross_entropy_with_logits(
        logits, graph.labels[step.batch].astype(np.float64)
    )


class TestEngineContracts:
    def _engine(self, graph, **extra):
        model = make_backbone(
            "gcn", graph.num_features, 8, np.random.default_rng(0)
        )
        params = dict(fanouts=(5,), batch_size=64)
        params.update(extra)
        return model, MinibatchEngine(
            model, graph.features, graph.adjacency, **params
        )

    def _bce_loss(self, graph):
        def loss_fn(step):
            return binary_cross_entropy_with_logits(
                step.output, graph.labels[step.batch].astype(np.float64)
            )

        return loss_fn

    def test_rejects_bad_arguments(self, causal_graph):
        graph = causal_graph
        model, engine = self._engine(graph)
        val = np.where(graph.val_mask)[0]
        run = dict(
            loss_fn=self._bce_loss(graph),
            rng=0,
            val_nodes=val,
            val_labels=graph.labels[val],
        )
        train = np.where(graph.train_mask)[0]
        with pytest.raises(ValueError, match="epochs"):
            engine.run(train, 0, **run)
        with pytest.raises(ValueError, match="checkpoint"):
            engine.run(train, 1, checkpoint="bogus", **run)
        with pytest.raises(ValueError, match="forward"):
            engine.run(train, 1, forward="bogus", **run)
        with pytest.raises(ValueError, match="nodes"):
            engine.run(np.array([], dtype=np.int64), 1, **run)
        with pytest.raises(ValueError, match="fanouts"):
            self._engine(graph, fanouts=(5, 5))  # 1-layer model

    def test_rejects_zero_batch_size(self, causal_graph):
        with pytest.raises(ValueError, match="batch_size"):
            self._engine(causal_graph, batch_size=0)

    def test_rejects_empty_validation_nodes(self, causal_graph):
        graph = causal_graph
        model, engine = self._engine(graph)
        train = np.where(graph.train_mask)[0]
        with pytest.raises(ValueError, match="val_nodes"):
            engine.run(
                train,
                1,
                loss_fn=self._bce_loss(graph),
                rng=0,
                val_nodes=np.array([], dtype=np.int64),
                val_labels=np.array([], dtype=np.int64),
            )

    @pytest.mark.parametrize("batch_size", [64, None], ids=["sampled", "full"])
    def test_rejects_negative_patience_and_tolerance(self, causal_graph, batch_size):
        """A negative patience used to act like 0 and a negative floor
        tolerance cut the fine-tune short; both must be rejected."""
        graph = causal_graph
        model, engine = self._engine(graph, batch_size=batch_size)
        val = np.where(graph.val_mask)[0]
        run = dict(
            loss_fn=self._bce_loss(graph),
            rng=0,
            val_nodes=val,
            val_labels=graph.labels[val],
        )
        train = np.where(graph.train_mask)[0]
        with pytest.raises(ValueError, match="patience"):
            engine.run(train, 1, patience=-1, **run)
        with pytest.raises(ValueError, match="val_tolerance"):
            engine.run(train, 1, checkpoint="floor", val_tolerance=-0.5, **run)

    def test_best_checkpoint_restores_best_state(self, causal_graph):
        graph = causal_graph
        model, engine = self._engine(graph)
        val = np.where(graph.val_mask)[0]
        history = engine.run(
            np.where(graph.train_mask)[0],
            15,
            self._bce_loss(graph),
            0,
            val_nodes=val,
            val_labels=graph.labels[val],
            patience=None,
        )
        final = engine.predict(val)
        final_acc = ((final > 0).astype(int) == graph.labels[val]).mean()
        assert final_acc == pytest.approx(history.best_val_accuracy)
        assert history.best_epoch >= 0

    def test_floor_checkpoint_stops_on_violation(self, causal_graph):
        """A destructive objective (maximise BCE) must trip the zero
        floor within a few epochs and restore the pre-violation state."""
        graph = causal_graph
        model, engine = self._engine(graph)
        val = np.where(graph.val_mask)[0]

        def destructive(step):
            return binary_cross_entropy_with_logits(
                step.output, graph.labels[step.batch].astype(np.float64)
            ) * -100.0

        # val_tolerance=0.0 makes the pre-training validation accuracy the
        # floor itself; measure it before the run so the restore assertion
        # below is exact regardless of how many epochs the violation takes.
        initial = engine.predict(val)
        floor = ((initial > 0).astype(int) == graph.labels[val]).mean()

        history = engine.run(
            np.where(graph.train_mask)[0],
            30,
            destructive,
            0,
            val_nodes=val,
            val_labels=graph.labels[val],
            checkpoint="floor",
            val_tolerance=0.0,
        )
        assert history.stopped_early
        assert len(history.val_accuracy) < 30
        # The violating epoch's accuracy is what tripped the stop...
        assert history.val_accuracy[-1] < floor
        # ...and the restored state respects the floor it was
        # checkpointed under (the initial state, or a later one at or
        # above the floor — never the post-violation weights).
        restored = engine.predict(val)
        restored_acc = ((restored > 0).astype(int) == graph.labels[val]).mean()
        assert restored_acc >= floor

    def test_embed_forward_feeds_representations(self, causal_graph):
        graph = causal_graph
        model, engine = self._engine(graph)
        seen_shapes = []

        def loss_fn(step):
            seen_shapes.append(step.output.shape)
            logits = model.head(step.output).reshape(-1)
            return binary_cross_entropy_with_logits(
                logits, graph.labels[step.batch].astype(np.float64)
            )

        val = np.where(graph.val_mask)[0]
        engine.run(
            np.where(graph.train_mask)[0],
            2,
            loss_fn,
            0,
            val_nodes=val,
            val_labels=graph.labels[val],
            forward="embed",
        )
        assert all(len(shape) == 2 and shape[1] == 8 for shape in seen_shapes)

    def test_seed_fn_extends_seeds_and_carries_payload(self, causal_graph):
        graph = causal_graph
        model, engine = self._engine(graph)
        extras = np.array([0, 1, 2])

        def seed_fn(batch, rng):
            return np.unique(np.concatenate([batch, extras])), "tag"

        payloads = []

        def loss_fn(step):
            payloads.append(step.payload)
            assert np.isin(extras, step.seeds).all()
            assert step.output.shape[0] == step.seeds.size
            local = step.local_index(step.batch)
            np.testing.assert_array_equal(step.seeds[local], step.batch)
            return binary_cross_entropy_with_logits(
                step.output[local], graph.labels[step.batch].astype(np.float64)
            )

        val = np.where(graph.val_mask)[0]
        engine.run(
            np.where(graph.train_mask)[0],
            2,
            loss_fn,
            0,
            val_nodes=val,
            val_labels=graph.labels[val],
            sort_batches=True,
            seed_fn=seed_fn,
        )
        assert payloads and all(payload == "tag" for payload in payloads)

    def test_epoch_callback_order(self, causal_graph):
        graph = causal_graph
        model, engine = self._engine(graph)
        events = []

        def loss_fn(step):
            if not events or events[-1] != ("step", step.epoch):
                events.append(("step", step.epoch))
            return binary_cross_entropy_with_logits(
                step.output, graph.labels[step.batch].astype(np.float64)
            )

        val = np.where(graph.val_mask)[0]
        engine.run(
            np.where(graph.train_mask)[0],
            2,
            loss_fn,
            0,
            val_nodes=val,
            val_labels=graph.labels[val],
            on_epoch_start=lambda epoch: events.append(("start", epoch)),
            on_epoch_end=lambda epoch: events.append(("end", epoch)),
        )
        assert events == [
            ("start", 0), ("step", 0), ("end", 0),
            ("start", 1), ("step", 1), ("end", 1),
        ]

    def _run_with_validation(self, graph, engine, loss_fn, epochs=3):
        val = np.where(graph.val_mask)[0]
        engine.run(
            np.where(graph.train_mask)[0],
            epochs,
            loss_fn,
            0,
            val_nodes=val,
            val_labels=graph.labels[val],
        )

    @pytest.mark.parametrize("batch_size", [None, 64], ids=["full", "sampled"])
    def test_toggles_reach_submodules_attached_after_construction(
        self, causal_graph, batch_size
    ):
        graph = causal_graph
        model, engine = self._engine(graph, batch_size=batch_size)
        direct, nested = _ModeLog(), _ModeLog()
        model.probe = direct
        model.probes = ModuleList([nested])
        seen = []

        def loss_fn(step):
            seen.append((direct.training, nested.training))
            return _step_bce(graph, step)

        self._run_with_validation(graph, engine, loss_fn, epochs=3)
        assert seen and all(modes == (True, True) for modes in seen)
        for probe in (direct, nested):
            # One eval toggle per validation pass, then the caller's mode.
            assert probe.modes.count(False) == 3
            assert probe.training is True
        engine.predict()
        engine.embed()
        for probe in (direct, nested):
            assert probe.modes.count(False) == 5
            assert probe.training is True

    @pytest.mark.parametrize("batch_size", [None, 64], ids=["full", "sampled"])
    @pytest.mark.parametrize("mode", [True, False], ids=["train", "eval"])
    def test_run_predict_and_embed_give_back_the_callers_mode(
        self, causal_graph, batch_size, mode
    ):
        graph = causal_graph
        model, engine = self._engine(graph, batch_size=batch_size)
        model.train(mode)
        self._run_with_validation(graph, engine, lambda step: _step_bce(graph, step))
        assert all(module.training is mode for module in model.modules())
        engine.predict()
        assert all(module.training is mode for module in model.modules())
        engine.embed()
        assert all(module.training is mode for module in model.modules())
