"""Tests for the counterfactual-fairness evaluation module."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import evaluate_counterfactual_fairness


class TestCounterfactualFairness:
    def _inputs(self, seed=0, n=30, d=3, attrs=2):
        rng = np.random.default_rng(seed)
        logits = rng.normal(size=n)
        reps = rng.normal(size=(n, d))
        pseudo = rng.normal(size=(n, attrs))
        labels = rng.integers(0, 2, size=n)
        return logits, reps, pseudo, labels

    def test_report_structure(self):
        logits, reps, pseudo, labels = self._inputs()
        report = evaluate_counterfactual_fairness(logits, reps, pseudo, labels)
        assert report.flip_rates.shape == (2,)
        assert 0.0 <= report.coverage <= 1.0
        valid = ~np.isnan(report.flip_rates)
        assert ((report.flip_rates[valid] >= 0) & (report.flip_rates[valid] <= 1)).all()

    def test_constant_prediction_never_flips(self):
        logits, reps, pseudo, labels = self._inputs(seed=1)
        logits = np.full_like(logits, 3.0)
        report = evaluate_counterfactual_fairness(logits, reps, pseudo, labels)
        valid = ~np.isnan(report.flip_rates)
        np.testing.assert_allclose(report.flip_rates[valid], 0.0)
        assert report.overall == 0.0

    def test_label_aligned_prediction_never_flips(self):
        # Twins share the label; predicting exactly the label ⇒ no flips.
        logits, reps, pseudo, labels = self._inputs(seed=2)
        logits = np.where(labels == 1, 5.0, -5.0)
        report = evaluate_counterfactual_fairness(logits, reps, pseudo, labels)
        valid = ~np.isnan(report.flip_rates)
        np.testing.assert_allclose(report.flip_rates[valid], 0.0)

    def test_attribute_dependent_prediction_flips(self):
        # Prediction = binarised attr 0 while label is constant ⇒ every twin
        # along attribute 0 disagrees.
        n = 20
        rng = np.random.default_rng(3)
        pseudo = rng.normal(size=(n, 1))
        median = np.median(pseudo[:, 0])
        logits = np.where(pseudo[:, 0] > median, 5.0, -5.0)
        reps = rng.normal(size=(n, 2))
        labels = np.zeros(n, dtype=int)
        report = evaluate_counterfactual_fairness(logits, reps, pseudo, labels)
        assert report.flip_rates[0] == pytest.approx(1.0)

    def test_mask_restricts_counting(self):
        logits, reps, pseudo, labels = self._inputs(seed=4)
        mask = np.zeros(len(logits), dtype=bool)
        mask[:10] = True
        report = evaluate_counterfactual_fairness(
            logits, reps, pseudo, labels, mask=mask
        )
        assert report.flip_rates.shape == (2,)

    def test_no_counterfactuals_gives_nan(self):
        n = 10
        rng = np.random.default_rng(5)
        pseudo = np.ones((n, 1))  # constant → binarises to all-zero
        report = evaluate_counterfactual_fairness(
            rng.normal(size=n), rng.normal(size=(n, 2)), pseudo,
            np.zeros(n, dtype=int),
        )
        assert np.isnan(report.flip_rates[0])
        assert np.isnan(report.overall)

    def test_render(self):
        logits, reps, pseudo, labels = self._inputs(seed=6)
        text = evaluate_counterfactual_fairness(logits, reps, pseudo, labels).render()
        assert "flip rate" in text
        assert "x0_0" in text

    def test_render_marks_attributes_without_counterfactuals(self):
        n = 10
        rng = np.random.default_rng(5)
        pseudo = np.ones((n, 1))  # constant → binarises to all-zero
        report = evaluate_counterfactual_fairness(
            rng.normal(size=n), rng.normal(size=(n, 2)), pseudo,
            np.zeros(n, dtype=int),
        )
        assert "x0_0   no counterfactuals" in report.render()

    def test_end_to_end_with_trainer(self, small_graph):
        from repro.core import FairwosConfig, FairwosTrainer
        from repro.tensor import Tensor, no_grad

        trainer = FairwosTrainer(
            FairwosConfig(
                encoder_epochs=25, classifier_epochs=25, finetune_epochs=3,
                encoder_dim=6, patience=10,
            )
        )
        fit = trainer.fit(small_graph, seed=0)
        with no_grad():
            reps = trainer.classifier.embed(
                Tensor(fit.pseudo_attributes), small_graph.adjacency
            ).data
        logits = trainer.predict(small_graph)
        report = evaluate_counterfactual_fairness(
            logits, reps, fit.pseudo_attributes, small_graph.labels,
            mask=small_graph.test_mask,
        )
        assert report.coverage > 0.5
