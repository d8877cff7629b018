"""First-order optimisation: the Adam optimiser."""

from repro.optim.optimizer import Optimizer
from repro.optim.adam import Adam

__all__ = ["Optimizer", "Adam"]
