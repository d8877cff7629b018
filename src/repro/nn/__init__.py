"""Neural-network building blocks on top of :mod:`repro.tensor`.

Mirrors the small subset of ``torch.nn`` the paper's models require:
modules with recursively discovered parameters, linear layers, MLPs,
dropout, activations and classification losses.
"""

from repro.nn.module import Module, Parameter, ModuleList
from repro.nn.linear import Linear, MLP
from repro.nn.activations import ReLU, Identity
from repro.nn.dropout import Dropout
from repro.nn.losses import binary_cross_entropy_with_logits, mse_loss
from repro.nn import init

__all__ = [
    "Module",
    "Parameter",
    "ModuleList",
    "Linear",
    "MLP",
    "ReLU",
    "Identity",
    "Dropout",
    "binary_cross_entropy_with_logits",
    "mse_loss",
    "init",
]
