"""Activation modules wrapping the functional ops."""

from __future__ import annotations

from repro.nn.module import Module
from repro.tensor import Tensor
from repro.tensor import ops

__all__ = ["ReLU", "Identity"]


class ReLU(Module):
    """Rectified linear unit."""

    def forward(self, x: Tensor) -> Tensor:
        return ops.relu(x)


class Identity(Module):
    """No-op module, useful as a configurable placeholder."""

    def forward(self, x: Tensor) -> Tensor:
        return x
