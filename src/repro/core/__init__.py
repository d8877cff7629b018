"""Fairwos — the paper's primary contribution.

The five components of Fig. 2:

1. :class:`EncoderModule` — pre-trained encoder whose low-dimensional output
   becomes the pseudo-sensitive attributes ``X(0)`` (Section III-B);
2. the GNN classifier — any backbone from :mod:`repro.gnnzoo`
   (Section III-C);
3. :class:`CounterfactualSearch` — top-K graph counterfactuals found in the
   *real* data, same (pseudo-)label but different pseudo-sensitive attribute,
   nearest in representation space (Section III-D, Eq. 12);
4. :func:`fair_representation_loss` — embedding-consistency regulariser
   (Section III-E, Eq. 13–14);
5. :class:`WeightUpdater` — closed-form KKT update of the per-attribute
   simplex weights λ (Eq. 17–24).

:class:`FairwosTrainer` wires them together per Algorithm 1.
"""

from repro.core.ann import AnnBackend, ExactBackend, RPForestIndex, exact_topk
from repro.core.config import ExecutionConfig, FairwosConfig
from repro.core.encoder import EncoderModule, binarize_attributes
from repro.core.counterfactual import CounterfactualSearch, CounterfactualIndex
from repro.core.fairloss import (
    fair_representation_loss,
    fair_representation_loss_minibatch,
)
from repro.core.weights import WeightUpdater, project_to_simplex, solve_kkt_eq24
from repro.core.trainer import FairwosTrainer, FairwosResult
from repro.core.cf_evaluation import (
    CounterfactualFairnessReport,
    evaluate_counterfactual_fairness,
)

__all__ = [
    "AnnBackend",
    "ExactBackend",
    "RPForestIndex",
    "exact_topk",
    "ExecutionConfig",
    "FairwosConfig",
    "EncoderModule",
    "binarize_attributes",
    "CounterfactualSearch",
    "CounterfactualIndex",
    "fair_representation_loss",
    "fair_representation_loss_minibatch",
    "WeightUpdater",
    "project_to_simplex",
    "solve_kkt_eq24",
    "FairwosTrainer",
    "FairwosResult",
    "CounterfactualFairnessReport",
    "evaluate_counterfactual_fairness",
]
