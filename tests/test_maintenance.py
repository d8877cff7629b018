"""Tests for the IndexMaintainer refresh schedule.

The refresh cadence of the counterfactual index lives in one place, the
engine-callback :class:`~repro.training.IndexMaintainer`; these tests pin
its schedule and — at the trainer level — that the full-batch and the
sampled fine-tune refresh on exactly the same epochs.
"""

from __future__ import annotations

import pytest

from repro.core import CounterfactualSearch, FairwosConfig, FairwosTrainer
from repro.datasets import BiasSpec, generate_biased_graph
from repro.training import IndexMaintainer


class _FakeEngine:
    def __init__(self):
        self.invalidations = 0

    def invalidate_cache(self):
        self.invalidations += 1


class TestIndexMaintainer:
    def test_rejects_bad_period(self):
        with pytest.raises(ValueError, match="period"):
            IndexMaintainer(lambda epoch: None, 0)

    def test_period_one_refreshes_every_epoch(self):
        maintainer = IndexMaintainer(lambda epoch: None, 1)
        assert all(maintainer(epoch) for epoch in range(5))

    def test_periodic_pattern(self):
        maintainer = IndexMaintainer(lambda epoch: None, 3)
        assert [maintainer(e) for e in range(7)] == [
            True, False, False, True, False, False, True,
        ]

    def test_uninitialized_always_due(self):
        """An index that has never been built refreshes regardless of the
        epoch; once built, only the cadence decides."""
        maintainer = IndexMaintainer(lambda epoch: None, 4)
        assert maintainer(1) is True
        assert maintainer(1) is False

    def test_refreshes_on_schedule_and_invalidates_cache(self):
        refreshed = []
        engine = _FakeEngine()
        maintainer = IndexMaintainer(refreshed.append, 2, engine=engine)
        ran = [maintainer(epoch) for epoch in range(5)]
        assert refreshed == [0, 2, 4]
        assert ran == [True, False, True, False, True]
        assert engine.invalidations == 3
        assert maintainer.refreshes == 3

    def test_first_call_refreshes_even_off_cadence(self):
        refreshed = []
        maintainer = IndexMaintainer(refreshed.append, 4)
        assert not maintainer.initialized
        maintainer(3)  # not a multiple of 4, but nothing is built yet
        assert refreshed == [3] and maintainer.initialized

    def test_engine_optional(self):
        maintainer = IndexMaintainer(lambda epoch: None, 1)
        assert maintainer(0) is True  # no engine — nothing to invalidate


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
