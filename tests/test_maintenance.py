"""Tests for the fine-tune's counterfactual-index refresh schedule.

The fine-tune refreshes the index on epoch 0 and every
``cf_refresh_epochs``-th epoch after; these tests pin that the full-batch
and the sampled fine-tune search on exactly the same epochs.
"""

from __future__ import annotations

import pytest

from repro.core import CounterfactualSearch, FairwosConfig, FairwosTrainer
from repro.datasets import BiasSpec, generate_biased_graph


@pytest.fixture(scope="module")
def small_graph():
    return generate_biased_graph(
        num_nodes=200,
        num_features=8,
        average_degree=6,
        spec=BiasSpec(
            label_bias=0.2,
            proxy_strength=1.0,
            group_homophily=2.0,
            label_signal_strength=0.5,
        ),
        seed=11,
        name="maintenance",
    ).standardized()


class TestTrainerRefreshParity:
    """Both fine-tune paths must search the index on identical epochs."""

    @staticmethod
    def _count_searches(monkeypatch, config, graph):
        calls = []
        original = CounterfactualSearch.search

        def counting(self, *args, **kwargs):
            calls.append(1)
            return original(self, *args, **kwargs)

        monkeypatch.setattr(CounterfactualSearch, "search", counting)
        FairwosTrainer(config).fit(graph, seed=0)
        return len(calls)

    @pytest.mark.parametrize("refresh,expected", [(1, 5), (2, 3), (5, 1)])
    def test_refresh_counts_match_across_paths(
        self, monkeypatch, small_graph, refresh, expected
    ):
        base = dict(
            encoder_epochs=30,
            classifier_epochs=30,
            finetune_epochs=5,
            patience=10,
            cf_refresh_epochs=refresh,
            finetune_val_tolerance=None,  # run every fine-tune epoch
        )
        full = self._count_searches(
            monkeypatch, FairwosConfig(**base), small_graph
        )
        mini = self._count_searches(
            monkeypatch,
            FairwosConfig(finetune_minibatch=True, batch_size=256, **base),
            small_graph,
        )
        assert full == expected
        assert mini == expected
