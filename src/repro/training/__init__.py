"""Shared supervised-training loops used by Fairwos and every baseline.

``fit_binary_classifier`` is the paper's full-batch recipe;
``fit_minibatch`` is the neighbour-sampled large-graph equivalent with the
same early-stopping / best-model contract.  Both the sampled loops and
every method-specific variant (Fairwos fine-tune, FairRF, FairGKD) run on
``MinibatchEngine`` — methods register loss closures and epoch callbacks
instead of writing their own loop.
"""

from repro.training.engine import MinibatchEngine, TrainStep
from repro.training.loop import FitHistory, fit_binary_classifier, predict_logits
from repro.training.maintenance import IndexMaintainer, RefreshSchedule
from repro.training.minibatch import (
    DEFAULT_FANOUT,
    embed_batched,
    fit_minibatch,
    iter_minibatches,
    predict_logits_batched,
)

__all__ = [
    "DEFAULT_FANOUT",
    "FitHistory",
    "IndexMaintainer",
    "MinibatchEngine",
    "RefreshSchedule",
    "TrainStep",
    "embed_batched",
    "fit_binary_classifier",
    "predict_logits",
    "fit_minibatch",
    "iter_minibatches",
    "predict_logits_batched",
]
