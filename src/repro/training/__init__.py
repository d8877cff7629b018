"""The one training loop used by Fairwos and every baseline.

:class:`MinibatchEngine` owns the epoch loop, validation and checkpointing
for every fit: ``batch_size=None`` runs one full-graph step per epoch, an
integer runs neighbour-sampled seed batches.  ``fit_binary_classifier`` is
the paper's full-batch recipe and ``fit_minibatch`` the same supervised fit
with the sampling knobs; the Fairwos fine-tune and the FairRF, FairGKD and
oracle baselines register their own loss closures and epoch callbacks
instead of writing a loop.
"""

from repro.training.engine import MinibatchEngine, TrainStep
from repro.training.loop import FitHistory, fit_binary_classifier, predict_logits
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
    "MinibatchEngine",
    "TrainStep",
    "embed_batched",
    "fit_binary_classifier",
    "predict_logits",
    "fit_minibatch",
    "iter_minibatches",
    "predict_logits_batched",
]
