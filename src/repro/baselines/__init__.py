"""Baselines for fairness *without* sensitive attributes (Section V-A-3).

All methods train the same backbone GNNs as Fairwos and never read
``graph.sensitive``:

* :class:`Vanilla` — the plain backbone ("Vanilla\\S");
* :class:`RemoveR` — drop all candidate related (proxy) attributes before
  training;
* :class:`KSMOTE` — pseudo-groups from k-means + fair class balancing
  (Yan et al., CIKM 2020);
* :class:`FairRF` — penalise correlation between the prediction and each
  related feature, with learned per-feature weights (Zhao et al., WSDM 2022);
* :class:`FairGKD` — partial-knowledge distillation from a feature-only and
  a structure-only teacher ("FairGKD\\S", Zhu et al., WSDM 2024).

:data:`BASELINES` maps each method key (``repro run --method``) to its
class, in Table II order; ``run_method``, the display names and the
artifact loader all read it.
"""

from repro.baselines.base import BaselineMethod, MethodResult
from repro.baselines.vanilla import Vanilla
from repro.baselines.remover import RemoveR
from repro.baselines.ksmote import KSMOTE
from repro.baselines.fairrf import FairRF
from repro.baselines.fairgkd import FairGKD

BASELINES: dict[str, type[BaselineMethod]] = {
    "vanilla": Vanilla,
    "remover": RemoveR,
    "ksmote": KSMOTE,
    "fairrf": FairRF,
    "fairgkd": FairGKD,
}

__all__ = [
    "BASELINES",
    "BaselineMethod",
    "MethodResult",
    "Vanilla",
    "RemoveR",
    "KSMOTE",
    "FairRF",
    "FairGKD",
]
