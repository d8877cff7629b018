"""Tests for the neighbour-sampled fairness fine-tune phase.

Three layers of evidence that the sampled path computes the same thing as
the paper's full-batch Algorithm 1:

* loss level — :func:`fair_representation_loss_minibatch` over a covering
  batch equals :func:`fair_representation_loss` in value and gradient, and
  invalid (self-pointing) pairs contribute exactly zero to both;
* phase level — a covering batch with exhaustive fanout reproduces the
  full-batch fine-tune's metrics through the whole trainer;
* distribution level — genuinely sampled fine-tuning (fanout 10, batches of
  256) stays within 2 points of full-batch accuracy and ΔSP on a ~500-node
  biased causal graph (seed-averaged).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import (
    CounterfactualIndex,
    CounterfactualSearch,
    FairwosConfig,
    FairwosTrainer,
    fair_representation_loss,
    fair_representation_loss_minibatch,
)
from repro.datasets import BiasSpec, generate_biased_graph
from repro.fairness import evaluate_predictions
from repro.tensor import Tensor


@pytest.fixture(scope="module")
def causal_graph():
    """A ~500-node generated causal graph with planted bias."""
    return generate_biased_graph(
        num_nodes=500,
        num_features=12,
        average_degree=10,
        spec=BiasSpec(
            label_bias=0.2,
            proxy_strength=1.0,
            group_homophily=2.0,
            label_signal_strength=0.5,
        ),
        seed=7,
        name="agreement",
    ).standardized()


def _base_config(**extra) -> FairwosConfig:
    params = dict(
        encoder_epochs=80,
        classifier_epochs=80,
        finetune_epochs=8,
        patience=20,
        alpha=1.0,
        finetune_learning_rate=0.005,
    )
    params.update(extra)
    return FairwosConfig(**params)


def _random_index(rng, num_attrs, n, k):
    reps = rng.normal(size=(n, 6))
    labels = rng.integers(0, 2, size=n)
    attrs = rng.integers(0, 2, size=(n, num_attrs))
    return reps, CounterfactualSearch(k).search(reps, labels, attrs)


class TestMinibatchFairLoss:
    def test_covering_batch_matches_fullbatch_value_and_gradient(self, rng):
        reps_np, index = _random_index(rng, num_attrs=3, n=40, k=2)
        weights = np.array([0.5, 0.3, 0.2])
        full_t = Tensor(reps_np, requires_grad=True)
        full_loss, full_disp = fair_representation_loss(full_t, index, weights)
        full_loss.backward()

        mini_t = Tensor(reps_np, requires_grad=True)
        all_nodes = np.arange(40)
        mini_loss, mini_disp, counts = fair_representation_loss_minibatch(
            mini_t, index, weights, all_nodes, all_nodes
        )
        mini_loss.backward()

        np.testing.assert_allclose(float(mini_loss.data), float(full_loss.data))
        np.testing.assert_allclose(mini_disp, full_disp)
        np.testing.assert_allclose(mini_t.grad, full_t.grad)
        np.testing.assert_array_equal(counts, index.valid.sum(axis=1))

    def test_batch_subset_only_touches_batch_pairs(self, rng):
        reps_np, index = _random_index(rng, num_attrs=2, n=30, k=2)
        weights = np.array([0.6, 0.4])
        batch = np.array([1, 4, 9, 16])
        targets = index.indices[:, batch, :][index.valid[:, batch]]
        seeds = np.unique(np.concatenate([batch, targets.reshape(-1)]))
        t = Tensor(reps_np[seeds], requires_grad=True)
        loss, disp, counts = fair_representation_loss_minibatch(
            t, index, weights, batch, seeds
        )
        assert float(loss.data) >= 0
        assert (counts <= batch.size).all()
        # a manual check of one attribute's disparity
        attr = 0
        valid = index.valid[attr, batch]
        if valid.any():
            local = np.searchsorted(seeds, batch)
            expected = 0.0
            for k in range(index.top_k):
                cf = np.searchsorted(seeds, index.indices[attr, batch, k])
                sq = ((reps_np[seeds][local] - reps_np[seeds][cf]) ** 2).sum(axis=1)
                expected += (sq * valid).sum() / valid.sum()
            np.testing.assert_allclose(disp[attr], expected)

    def test_attrs_subset_reports_zero_for_unevaluated(self, rng):
        reps_np, index = _random_index(rng, num_attrs=4, n=30, k=2)
        weights = np.full(4, 0.25)
        all_nodes = np.arange(30)
        t = Tensor(reps_np, requires_grad=True)
        loss, disp, counts = fair_representation_loss_minibatch(
            t, index, weights, all_nodes, all_nodes, attrs=np.array([1, 3])
        )
        assert disp[0] == 0 and disp[2] == 0
        assert counts[0] == 0 and counts[2] == 0
        assert counts[1] == index.valid[1].sum()

    def test_snapshot_disparities_match_autograd_loss(self, rng):
        """The λ-update baseline for subsampled epochs must equal the D_i
        the full fair loss reports."""
        from repro.core.trainer import _snapshot_disparities

        reps_np, index = _random_index(rng, num_attrs=4, n=35, k=3)
        _, disp = fair_representation_loss(
            Tensor(reps_np), index, np.ones(4) / 4.0
        )
        np.testing.assert_allclose(_snapshot_disparities(reps_np, index), disp)

    def test_missing_seed_raises(self, rng):
        reps_np, index = _random_index(rng, num_attrs=1, n=20, k=1)
        batch = np.arange(20)
        seeds = np.arange(10)  # deliberately too small
        with pytest.raises(ValueError, match="missing from seed_nodes"):
            fair_representation_loss_minibatch(
                Tensor(reps_np[seeds]), index, np.ones(1), batch, seeds
            )


class TestInvalidPairsContributeNothing:
    """Regression: self-pointing (invalid) entries must be inert.

    ``CounterfactualIndex.valid`` nodes without a real counterfactual point
    at themselves; the fair loss must neither count them in the disparity
    nor leak gradient through them.
    """

    def _index_with_invalid_node(self):
        # Nodes 0-2 form a valid bucket; node 3 has no counterfactual and
        # self-points (and is nobody else's counterfactual).
        indices = np.array([[[1], [0], [0], [3]]])  # (I=1, N=4, K=1)
        valid = np.array([[True, True, True, False]])
        return CounterfactualIndex(indices=indices, valid=valid)

    def test_fullbatch_value_excludes_invalid(self):
        index = self._index_with_invalid_node()
        reps = np.array([[0.0, 0.0], [1.0, 0.0], [0.0, 2.0], [100.0, 100.0]])
        loss, disp = fair_representation_loss(
            Tensor(reps, requires_grad=True), index, np.ones(1)
        )
        # mean over the 3 valid nodes only; the huge node-3 row is ignored.
        expected = (1.0 + 1.0 + 4.0) / 3.0
        np.testing.assert_allclose(float(loss.data), expected)
        np.testing.assert_allclose(disp, [expected])

    def test_fullbatch_invalid_pair_has_zero_gradient(self):
        index = self._index_with_invalid_node()
        rng = np.random.default_rng(0)
        reps = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        loss, _ = fair_representation_loss(reps, index, np.ones(1))
        loss.backward()
        np.testing.assert_array_equal(reps.grad[3], np.zeros(3))
        assert np.abs(reps.grad[:3]).sum() > 0

    def test_minibatch_invalid_pair_has_zero_gradient(self):
        index = self._index_with_invalid_node()
        rng = np.random.default_rng(1)
        all_nodes = np.arange(4)
        reps = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        loss, disp, counts = fair_representation_loss_minibatch(
            reps, index, np.ones(1), all_nodes, all_nodes
        )
        loss.backward()
        np.testing.assert_array_equal(reps.grad[3], np.zeros(3))
        assert counts[0] == 3

    def test_searched_index_invalid_node_inert(self):
        # A node whose label class has no opposite-attribute peer comes out
        # of the search invalid and must stay gradient-free.
        reps_np = np.array([[0.0], [1.0], [2.0], [50.0]])
        labels = np.array([0, 0, 0, 1])  # node 3 is alone in its class
        attrs = np.array([[0], [1], [1], [0]])
        index = CounterfactualSearch(top_k=2).search(reps_np, labels, attrs)
        assert not index.valid[0, 3]
        t = Tensor(reps_np, requires_grad=True)
        loss, _ = fair_representation_loss(t, index, np.ones(1))
        loss.backward()
        assert t.grad[3] == 0


class TestTrainerAgreement:
    def test_covering_batch_reproduces_fullbatch_finetune(self, causal_graph):
        """batch ≥ N + exhaustive fanout: the sampled machinery must equal
        the full-batch phase to float precision."""
        full = FairwosTrainer(_base_config())
        rf = full.fit(causal_graph, seed=0)
        mini = FairwosTrainer(
            _base_config(
                finetune_minibatch=True, batch_size=512, fanouts=(None,)
            )
        )
        rm = mini.fit(causal_graph, seed=0)
        assert abs(rf.test.accuracy - rm.test.accuracy) < 1e-9
        assert abs(rf.test.delta_sp - rm.test.delta_sp) < 1e-9
        np.testing.assert_allclose(rf.lambda_weights, rm.lambda_weights, atol=1e-8)
        assert rf.counterfactual_coverage == rm.counterfactual_coverage

    def test_sampled_finetune_within_two_points(self, causal_graph):
        """True neighbour sampling (fanout 10, batches of 256): seed-averaged
        accuracy and ΔSP stay within 2 points of full-batch."""
        all_nodes = np.ones(causal_graph.num_nodes, dtype=bool)

        def run(config, seed):
            trainer = FairwosTrainer(config)
            trainer.fit(causal_graph, seed=seed)
            return evaluate_predictions(
                trainer.predict(causal_graph),
                causal_graph.labels,
                causal_graph.sensitive,
                all_nodes,
            )

        seeds = (0, 1, 2)
        full = [run(_base_config(), s) for s in seeds]
        mini = [
            run(
                _base_config(
                    finetune_minibatch=True, batch_size=256, fanouts=(10,)
                ),
                s,
            )
            for s in seeds
        ]
        acc_gap = abs(
            np.mean([e.accuracy for e in full]) - np.mean([e.accuracy for e in mini])
        )
        sp_gap = abs(
            np.mean([e.delta_sp for e in full]) - np.mean([e.delta_sp for e in mini])
        )
        assert acc_gap <= 0.02, f"accuracy gap {acc_gap:.4f} > 2 points"
        assert sp_gap <= 0.02, f"ΔSP gap {sp_gap:.4f} > 2 points"

    def test_ann_backend_through_trainer(self, causal_graph):
        """The whole pipeline runs with cf_backend='ann' and finds
        counterfactuals for essentially all nodes."""
        config = _base_config(
            finetune_minibatch=True,
            batch_size=256,
            fanouts=(10,),
            cf_backend="ann",
            cf_refresh_epochs=2,
            cf_attrs_per_step=4,
        )
        result = FairwosTrainer(config).fit(causal_graph, seed=0)
        assert result.counterfactual_coverage > 0.9
        assert result.test.accuracy > 0.5
        assert len(result.history["finetune_loss"]) >= 1

    def test_incremental_update_covering_matches_rebuild(self, causal_graph):
        """cf_update='incremental' vs 'rebuild' through the whole trainer.

        Between two fine-tune refreshes of a covering batch more than half
        of the embeddings move, so every incremental update escapes to a
        full rebuild — identical to a fresh build — and the two policies
        must produce bit-identical runs.  In training, incremental
        maintenance is a rebuild plus a drift check."""

        def run(cf_update):
            config = _base_config(
                finetune_minibatch=True,
                batch_size=512,
                fanouts=(None,),
                cf_backend="ann",
                cf_refresh_epochs=2,  # several refreshes → update() exercised
                cf_update=cf_update,
            )
            trainer = FairwosTrainer(config)
            return trainer, trainer.fit(causal_graph, seed=0)

        _, rebuild = run("rebuild")
        trainer, incremental = run("incremental")
        assert trainer._search.backend.last_report.rebuilt
        assert rebuild.test.accuracy == incremental.test.accuracy
        assert rebuild.test.delta_sp == incremental.test.delta_sp
        np.testing.assert_array_equal(
            rebuild.lambda_weights, incremental.lambda_weights
        )
        assert (
            rebuild.counterfactual_coverage
            == incremental.counterfactual_coverage
        )
        np.testing.assert_array_equal(
            rebuild.history["finetune_loss"], incremental.history["finetune_loss"]
        )

    def test_incremental_update_through_trainer_sampled(self, causal_graph):
        """The genuinely approximate incremental path (real trees, real
        sampling) still trains and keeps counterfactual coverage high."""
        config = _base_config(
            finetune_minibatch=True,
            batch_size=256,
            fanouts=(10,),
            cf_backend="ann",
            cf_refresh_epochs=2,
            cf_update="incremental",
        )
        result = FairwosTrainer(config).fit(causal_graph, seed=0)
        assert result.counterfactual_coverage > 0.9
        assert result.test.accuracy > 0.5

    def test_finetune_minibatch_follows_minibatch_default(self):
        assert FairwosConfig(minibatch=True).resolved_finetune_minibatch()
        assert not FairwosConfig(minibatch=False).resolved_finetune_minibatch()
        assert FairwosConfig(
            minibatch=True, finetune_minibatch=False
        ).resolved_finetune_minibatch() is False
        assert FairwosConfig(
            minibatch=False, finetune_minibatch=True
        ).resolved_finetune_minibatch() is True

    @pytest.mark.parametrize(
        "extra", [{}, {"finetune_minibatch": True, "batch_size": 256}],
        ids=["fullbatch", "minibatch"],
    )
    def test_zero_val_tolerance_enforces_floor(self, causal_graph, extra):
        """finetune_val_tolerance=0.0 means 'no accuracy drop allowed' —
        it must not be collapsed into 'no floor at all' by falsy-zero
        handling (regression).  A deliberately destructive fine-tune
        (huge α) must abort early under the zero floor but run every epoch
        when the tolerance is None (floor disabled)."""
        destructive = dict(alpha=1e6, finetune_learning_rate=0.05, **extra)
        unfloored = FairwosTrainer(
            _base_config(finetune_val_tolerance=None, **destructive)
        ).fit(causal_graph, seed=0)
        floored = FairwosTrainer(
            _base_config(finetune_val_tolerance=0.0, **destructive)
        ).fit(causal_graph, seed=0)
        epochs = _base_config().finetune_epochs
        assert len(unfloored.history["finetune_val_accuracy"]) == epochs
        assert len(floored.history["finetune_val_accuracy"]) < epochs

    def test_cf_config_validation(self):
        with pytest.raises(ValueError):
            FairwosConfig(cf_backend="bogus").validate()
        # A backend instance is not a setting: the search builds its own.
        from repro.core.ann import ExactBackend

        with pytest.raises(ValueError, match="cf_backend must be"):
            FairwosConfig(cf_backend=ExactBackend()).validate()
        with pytest.raises(ValueError):
            FairwosConfig(cf_refresh_epochs=0).validate()
        with pytest.raises(ValueError):
            FairwosConfig(cf_attrs_per_step=0).validate()
        with pytest.raises(ValueError, match="cf_update"):
            FairwosConfig(cf_update="sometimes").validate()
        # Incremental maintenance needs an index to maintain.
        with pytest.raises(ValueError, match="requires cf_backend='ann'"):
            FairwosConfig(cf_update="incremental").validate()
        FairwosConfig(cf_backend="ann", cf_update="incremental").validate()

    def test_finetune_lr_zero_rejected_not_collapsed(self):
        """finetune_learning_rate=0.0 must be rejected, not silently fall
        back to learning_rate (the `or`-fallback falsy-zero bug class)."""
        with pytest.raises(ValueError, match="finetune_learning_rate"):
            FairwosConfig(finetune_learning_rate=0.0).validate()
        with pytest.raises(ValueError, match="learning_rate"):
            FairwosConfig(finetune_learning_rate=None, learning_rate=0.0).validate()
        assert FairwosConfig(
            finetune_learning_rate=None, learning_rate=0.002
        ).resolved_finetune_lr() == 0.002
        assert FairwosConfig(
            finetune_learning_rate=0.05, learning_rate=0.002
        ).resolved_finetune_lr() == 0.05
