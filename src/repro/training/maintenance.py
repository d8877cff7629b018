"""Amortised index maintenance for the fine-tune loop.

The Fairwos fine-tune keeps a counterfactual index that must be refreshed
as the representation space moves.  :class:`IndexMaintainer` is the engine
``on_epoch_start`` callback that owns that schedule: it runs a refresh
callable on epoch 0 and every ``period`` epochs after, and invalidates the
engine's sampling cache afterwards (cached seed sets must never point at
stale index targets).  The full-batch and the sampled fine-tune are one
method on one engine, so this is the only place the cadence is decided.

The maintainer is deliberately index-agnostic: it holds a ``refresh_fn``
closure, not a :class:`~repro.core.counterfactual.CounterfactualSearch`,
so the training layer stays below the core layer.  Whether a refresh
rebuilds the ANN forest from scratch or applies an incremental
:meth:`~repro.core.ann.RPForestIndex.update` is the backend's business
(``cf_update`` on :class:`~repro.core.config.FairwosConfig`).
"""

from __future__ import annotations

from typing import Callable

__all__ = ["IndexMaintainer"]


class IndexMaintainer:
    """Engine ``on_epoch_start`` callback owning index-refresh bookkeeping.

    Parameters
    ----------
    refresh_fn:
        ``(epoch) -> None`` performing the actual refresh (embedding the
        nodes and rebuilding/updating the index).  Run on the first call,
        then on every epoch that is a multiple of ``period``.
    period:
        Refresh cadence in epochs (``cf_refresh_epochs`` for Fairwos).
    engine:
        Optional :class:`~repro.training.engine.MinibatchEngine`; its
        sampling cache is invalidated after every refresh so replayed seed
        sets never reference targets of a stale index.

    The maintainer is callable so it can be registered directly::

        maintainer = IndexMaintainer(refresh, config.cf_refresh_epochs,
                                     engine=engine)
        engine.run(..., on_epoch_start=maintainer)

    ``refreshes`` counts completed refreshes (useful for amortisation
    diagnostics and tests).
    """

    def __init__(
        self,
        refresh_fn: Callable[[int], None],
        period: int,
        engine=None,
    ) -> None:
        if period < 1:
            raise ValueError(f"refresh period must be >= 1, got {period}")
        self.period = int(period)
        self.refresh_fn = refresh_fn
        self.engine = engine
        self.refreshes = 0

    @property
    def initialized(self) -> bool:
        """Whether at least one refresh has completed."""
        return self.refreshes > 0

    def __call__(self, epoch: int) -> bool:
        """Refresh if due; returns whether a refresh ran."""
        if self.initialized and epoch % self.period != 0:
            return False
        self.refresh_fn(epoch)
        self.refreshes += 1
        if self.engine is not None:
            self.engine.invalidate_cache()
        return True
