"""Tests for the consistency metric and the counterfactual-fairness experiment."""

from __future__ import annotations

import numpy as np
import pytest

from repro.fairness import consistency_score


class TestConsistencyScore:
    def test_constant_predictions_fully_consistent(self):
        rng = np.random.default_rng(0)
        features = rng.normal(size=(30, 4))
        assert consistency_score(np.ones(30), features) == 1.0

    def test_feature_aligned_predictions_consistent(self):
        # Two far-apart feature clusters with cluster-constant predictions.
        rng = np.random.default_rng(1)
        features = np.vstack(
            [rng.normal(size=(20, 3)) + 50, rng.normal(size=(20, 3)) - 50]
        )
        logits = np.concatenate([np.ones(20), -np.ones(20)])
        assert consistency_score(logits, features, num_neighbors=3) == 1.0

    def test_random_predictions_inconsistent(self):
        rng = np.random.default_rng(2)
        features = rng.normal(size=(100, 3))
        logits = rng.choice([-1.0, 1.0], size=100)
        score = consistency_score(logits, features, num_neighbors=5)
        assert 0.3 < score < 0.7

    def test_validation(self):
        with pytest.raises(ValueError, match="row mismatch"):
            consistency_score(np.ones(3), np.ones((4, 2)))
        with pytest.raises(ValueError, match="num_neighbors"):
            consistency_score(np.ones(3), np.ones((3, 2)), num_neighbors=5)


class TestExtCfFairnessExperiment:
    def test_runs_and_formats(self):
        from repro.experiments import Scale, format_ext_cf_fairness, run_ext_cf_fairness

        result = run_ext_cf_fairness(dataset="nba", scale=Scale.smoke())
        text = format_ext_cf_fairness(result)
        assert "flip rate" in text
        assert 0.0 <= result.consistency_fairwos <= 1.0
