"""Tests for FairwosConfig and the end-to-end FairwosTrainer."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import CounterfactualSearch, FairwosConfig, FairwosTrainer
from repro.tensor import no_grad


def _fast_config(**overrides) -> FairwosConfig:
    base = dict(
        encoder_epochs=25,
        classifier_epochs=25,
        finetune_epochs=3,
        patience=10,
        alpha=1.0,
        top_k=2,
        encoder_dim=8,
    )
    base.update(overrides)
    return FairwosConfig(**base)


class TestConfigValidation:
    def test_defaults_valid(self):
        FairwosConfig().validate()

    @pytest.mark.parametrize(
        "kwargs",
        [
            {"hidden_dim": 0},
            {"encoder_dim": 0},
            {"alpha": -1.0},
            {"top_k": 0},
            {"binarize_quantile": 0.0},
            {"encoder_epochs": 0},
            {"finetune_epochs": 0},
            {"cf_refresh_epochs": 0},
            {"max_pseudo_attributes": 0},
            {"patience": -1},
            {"finetune_val_tolerance": -0.5},
        ],
    )
    def test_rejects_invalid(self, kwargs):
        with pytest.raises(ValueError):
            FairwosConfig(**kwargs).validate()

    def test_trainer_validates_at_construction(self):
        with pytest.raises(ValueError):
            FairwosTrainer(FairwosConfig(top_k=0))


class TestTrainerEndToEnd:
    def test_fit_produces_complete_result(self, small_graph):
        result = FairwosTrainer(_fast_config()).fit(small_graph, seed=0)
        assert 0.0 <= result.test.accuracy <= 1.0
        assert 0.0 <= result.test.delta_sp <= 1.0
        assert result.lambda_weights.sum() == pytest.approx(1.0)
        assert result.pseudo_attributes.shape == (small_graph.num_nodes, 8)
        assert set(result.timings) == {"encoder", "classifier_pretrain", "finetune"}
        assert result.total_seconds > 0
        assert 0.0 <= result.counterfactual_coverage <= 1.0
        assert len(result.history["finetune_loss"]) >= 1

    def test_learns_better_than_chance(self, small_graph):
        result = FairwosTrainer(
            _fast_config(encoder_epochs=60, classifier_epochs=60)
        ).fit(small_graph, seed=0)
        majority = max(small_graph.labels.mean(), 1 - small_graph.labels.mean())
        assert result.test.accuracy >= majority - 0.05

    def test_deterministic_given_seed(self, small_graph):
        r1 = FairwosTrainer(_fast_config()).fit(small_graph, seed=3)
        r2 = FairwosTrainer(_fast_config()).fit(small_graph, seed=3)
        assert r1.test.accuracy == r2.test.accuracy
        np.testing.assert_allclose(r1.lambda_weights, r2.lambda_weights)

    def test_predict_after_fit(self, small_graph):
        trainer = FairwosTrainer(_fast_config())
        trainer.fit(small_graph, seed=0)
        logits = trainer.predict(small_graph)
        assert logits.shape == (small_graph.num_nodes,)

    def test_predict_before_fit_raises(self, small_graph):
        with pytest.raises(RuntimeError):
            FairwosTrainer(_fast_config()).predict(small_graph)

    def test_gin_backbone(self, small_graph):
        result = FairwosTrainer(_fast_config(backbone="gin")).fit(small_graph, seed=0)
        assert result.test.accuracy > 0.0


class TestAblationFlags:
    def test_without_encoder_uses_raw_features(self, small_graph):
        result = FairwosTrainer(_fast_config(use_encoder=False)).fit(
            small_graph, seed=0
        )
        assert result.pseudo_attributes.shape[1] == small_graph.num_features

    def test_without_encoder_respects_attribute_cap(self, small_graph):
        result = FairwosTrainer(
            _fast_config(use_encoder=False, max_pseudo_attributes=5)
        ).fit(small_graph, seed=0)
        assert result.pseudo_attributes.shape[1] == 5
        assert result.lambda_weights.shape == (5,)

    def test_without_fairness_skips_finetune(self, small_graph):
        result = FairwosTrainer(_fast_config(use_fairness=False)).fit(
            small_graph, seed=0
        )
        assert result.history["finetune_loss"] == []
        assert result.counterfactual_coverage == 0.0
        # λ stays at its uniform initialisation.
        np.testing.assert_allclose(result.lambda_weights, 1.0 / 8)

    def test_without_weight_update_keeps_uniform_lambda(self, small_graph):
        result = FairwosTrainer(_fast_config(use_weight_update=False)).fit(
            small_graph, seed=0
        )
        np.testing.assert_allclose(result.lambda_weights, 1.0 / 8)

    def test_with_weight_update_moves_lambda(self, small_graph):
        result = FairwosTrainer(_fast_config()).fit(small_graph, seed=0)
        assert not np.allclose(result.lambda_weights, 1.0 / 8)

    def test_encoder_dim_controls_attribute_count(self, small_graph):
        result = FairwosTrainer(_fast_config(encoder_dim=4)).fit(small_graph, seed=0)
        assert result.pseudo_attributes.shape[1] == 4
        assert result.lambda_weights.shape == (4,)

    def test_val_tolerance_floor_can_stop_finetune(self, small_graph):
        # A zero tolerance + aggressive fairness lr makes early exit likely;
        # the contract is simply that training completes and respects bounds.
        result = FairwosTrainer(
            _fast_config(
                finetune_val_tolerance=0.0,
                finetune_learning_rate=0.05,
                finetune_epochs=10,
            )
        ).fit(small_graph, seed=0)
        assert len(result.history["finetune_loss"]) <= 10

    def test_mlp_encoder_backbone(self, small_graph):
        result = FairwosTrainer(_fast_config(encoder_backbone="mlp")).fit(
            small_graph, seed=0
        )
        assert result.test.accuracy > 0.0


class TestRefreshEmbedding:
    def test_fullbatch_refresh_searches_the_eval_mode_embedding(
        self, monkeypatch, small_graph
    ):
        """With dropout on, every counterfactual refresh must rank the
        dropout-free (eval-mode) embedding — the one the sampled refresh has
        always used — not a dropout-noised training-mode forward."""
        trainer = FairwosTrainer(
            _fast_config(dropout=0.5, finetune_val_tolerance=None)
        )
        matches = []
        original = CounterfactualSearch.search

        def checking(search, representations, labels, attributes):
            classifier = trainer.classifier
            was_training = classifier.training
            classifier.eval()
            with no_grad():
                expected = classifier.embed(
                    trainer._pseudo_features, small_graph.adjacency
                ).data
            classifier.train(was_training)
            matches.append(np.array_equal(representations, expected))
            return original(search, representations, labels, attributes)

        monkeypatch.setattr(CounterfactualSearch, "search", checking)
        trainer.fit(small_graph, seed=0)
        assert matches == [True] * 3  # one refresh per fine-tune epoch
