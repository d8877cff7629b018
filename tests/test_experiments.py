"""Tests for the experiment harness (tables & figures)."""

from __future__ import annotations

import numpy as np
import pytest

from repro.core import ExecutionConfig
from repro.experiments import (
    FAIRWOS_OVERRIDES,
    Scale,
    available_methods,
    format_fig4,
    format_fig5,
    format_fig6,
    format_fig7,
    format_fig8,
    format_table1,
    format_table2,
    run_fig4,
    run_fig5,
    run_fig6,
    run_fig7,
    run_fig8,
    run_method,
    run_table1,
    run_table2,
)
from repro.experiments.fig7_tsne import knn_leakage, silhouette
from repro.experiments.methods import display_name, fairwos_recipe
from repro.datasets import load_dataset

SMOKE = Scale.smoke()


class TestScale:
    def test_presets(self):
        assert Scale.paper().seeds == 10
        assert Scale.quick().seeds >= 1
        assert Scale.smoke().epochs < Scale.quick().epochs


class TestMethodRegistry:
    def test_six_methods(self):
        assert available_methods() == [
            "vanilla", "remover", "ksmote", "fairrf", "fairgkd", "fairwos",
        ]

    def test_overrides_cover_all_datasets(self):
        from repro.datasets import available_datasets

        for name in available_datasets():
            assert name in FAIRWOS_OVERRIDES

    @pytest.mark.parametrize("method", ["vanilla", "fairwos"])
    def test_run_method(self, method, small_graph):
        result = run_method(method, small_graph, epochs=25, finetune_epochs=2, patience=5)
        assert 0.0 <= result.test.accuracy <= 1.0

    def test_unknown_method(self, small_graph):
        with pytest.raises(ValueError, match="unknown method"):
            run_method("mystery", small_graph)

    @pytest.mark.parametrize(
        "method", ["vanilla", "remover", "ksmote", "fairrf", "fairgkd", "fairwos"]
    )
    def test_run_method_minibatch(self, method, small_graph):
        """Every Table II method accepts neighbour-sampled training."""
        result = run_method(
            method, small_graph, epochs=25, finetune_epochs=2, patience=5,
            execution=ExecutionConfig(minibatch=True, fanouts=(10,), batch_size=64),
        )
        assert 0.0 <= result.test.accuracy <= 1.0

    def test_run_method_fairwos_ann_backend(self, small_graph):
        result = run_method(
            "fairwos", small_graph, epochs=25, finetune_epochs=2, patience=5,
            execution=ExecutionConfig(
                minibatch=True, batch_size=64, cf_backend="ann", cf_refresh_epochs=2
            ),
        )
        assert 0.0 <= result.test.accuracy <= 1.0
        assert result.extra["counterfactual_coverage"] > 0.0

    def test_recipe_applies_overrides_budgets_and_changes(self):
        config = fairwos_recipe(
            "nba", "gin", 7, 3, 2, ExecutionConfig(fanouts=(5, 5)),
            alpha=1.0, use_fairness=False,
        )
        config.validate()
        assert config.alpha == 1.0
        assert (
            config.finetune_learning_rate
            == FAIRWOS_OVERRIDES["nba"]["finetune_learning_rate"]
        )
        assert config.backbone == "gin" and not config.use_fairness
        assert (config.encoder_epochs, config.classifier_epochs) == (7, 7)
        assert (config.finetune_epochs, config.patience) == (3, 2)
        assert config.fanouts == (5, 5) and config.num_layers == 2

    def test_recipe_unknown_dataset_uses_default(self):
        config = fairwos_recipe("mystery", "gcn", 5, 2, None)
        assert config.alpha == FAIRWOS_OVERRIDES["default"]["alpha"]

    def test_recipe_rejects_unknown_field(self):
        with pytest.raises(TypeError, match="bogus"):
            fairwos_recipe("nba", "gcn", 5, 2, None, bogus=1)

    def test_run_method_trains_the_recipe(self, small_graph):
        execution = ExecutionConfig(minibatch=True, batch_size=64)
        result = run_method(
            "fairwos", small_graph, epochs=3, finetune_epochs=2, patience=5,
            execution=execution, keep_model=True,
        )
        assert result.extra["model"].config == fairwos_recipe(
            small_graph.name, "gcn", 3, 2, 5, execution
        )

    def test_display_names_follow_the_baseline_table(self):
        from repro.baselines import BASELINES

        for key, cls in BASELINES.items():
            assert display_name(key) == cls.name
        assert display_name("fairwos") == "Fairwos"

    def test_explicit_config_rejects_cf_overrides(self, small_graph):
        from repro.core import FairwosConfig

        with pytest.raises(ValueError, match="fairwos_config"):
            run_method(
                "fairwos", small_graph,
                fairwos_config=FairwosConfig(),
                execution=ExecutionConfig(cf_backend="ann"),
            )
        with pytest.raises(ValueError, match="fairwos_config"):
            run_method(
                "fairwos", small_graph,
                fairwos_config=FairwosConfig(),
                execution=ExecutionConfig(finetune_minibatch=True),
            )


@pytest.mark.slow
class TestTable1:
    def test_rows_and_formatting(self):
        rows = run_table1(seed=0)
        assert len(rows) == 6
        text = format_table1(rows)
        for name in ("bail", "credit", "nba", "occupation"):
            assert name in text
        assert "Table I" in text

    def test_degree_calibration_within_tolerance(self):
        for row in run_table1(seed=0):
            assert row["avg_degree"] == pytest.approx(
                row["paper_avg_degree"], rel=0.15
            )


class TestTable2:
    def test_small_grid(self):
        result = run_table2(
            datasets=["nba"], backbones=["gcn"],
            methods=["vanilla", "fairwos"], scale=SMOKE,
        )
        summary = result.get("nba", "gcn", "vanilla")
        assert summary.runs == SMOKE.seeds
        assert 0.0 <= summary.acc_mean <= 100.0
        text = format_table2(result)
        assert "Vanilla\\S" in text and "Fairwos" in text


class TestFig4:
    def test_variants_and_formatting(self):
        result = run_fig4(
            datasets=["nba"], backbones=["gcn"],
            variants=["gnn", "fwos_wo_f", "fairwos"], scale=SMOKE,
        )
        assert ("nba", "gcn", "fairwos") in result.cells
        text = format_fig4(result)
        assert "Fwos w/o F" in text

    def test_unknown_variant(self):
        with pytest.raises(ValueError):
            run_fig4(datasets=["nba"], backbones=["gcn"],
                     variants=["bogus"], scale=SMOKE)


class TestFig5:
    def test_dimension_sweep(self):
        result = run_fig5(dataset="nba", dims=[4], backbones=["gcn"], scale=SMOKE)
        assert ("gcn", "fairwos", 4) in result.cells
        assert ("gcn", "gnn", 0) in result.cells
        assert "d=4" in format_fig5(result)


class TestFig6:
    def test_alpha_k_grid(self):
        result = run_fig6(dataset="nba", alphas=[0.0, 1.0], ks=[1, 2], scale=SMOKE)
        assert len(result.cells) == 4
        text = format_fig6(result)
        assert "ACC" in text and "ΔSP" in text


class TestFig7:
    def test_separation_scores(self):
        result = run_fig7(dataset="nba", scale=SMOKE, tsne_iterations=50)
        assert result.embedding.shape[1] == 2
        assert len(result.embedding) == len(result.sensitive)
        assert -1.0 <= result.silhouette_score <= 1.0
        assert 0.0 <= result.leakage <= 1.0
        assert "t-SNE" in format_fig7(result)

    def test_silhouette_separated_clusters(self):
        rng = np.random.default_rng(0)
        points = np.vstack([rng.normal(size=(20, 2)) + 50, rng.normal(size=(20, 2)) - 50])
        groups = np.repeat([0, 1], 20)
        assert silhouette(points, groups) > 0.9
        assert knn_leakage(points, groups) == 1.0

    def test_silhouette_single_group_raises(self):
        with pytest.raises(ValueError):
            silhouette(np.zeros((4, 2)), np.zeros(4))


class TestFig8:
    def test_runtime_entries(self):
        result = run_fig8(
            dataset="nba", scale=SMOKE, entries=["vanilla", "fairwos", "fwos_wo_f"],
        )
        assert set(result.seconds_mean) == {"vanilla", "fairwos", "fwos_wo_f"}
        assert all(v > 0 for v in result.seconds_mean.values())
        assert "seconds" in format_fig8(result)

    def test_fairwos_slower_than_wo_f(self):
        result = run_fig8(
            dataset="nba", scale=SMOKE, entries=["fairwos", "fwos_wo_f"],
        )
        # Fairness fine-tuning adds work on top of the w/o F variant.
        assert result.seconds_mean["fairwos"] > result.seconds_mean["fwos_wo_f"]
