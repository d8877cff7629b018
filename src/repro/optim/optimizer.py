"""Optimizer base class and gradient utilities."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.module import Parameter

__all__ = ["Optimizer", "clip_grad_norm"]


class Optimizer:
    """Base class: holds a parameter list and implements ``zero_grad``."""

    def __init__(self, parameters: Sequence[Parameter]) -> None:
        self.parameters = list(parameters)
        if not self.parameters:
            raise ValueError("optimizer received an empty parameter list")

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for param in self.parameters:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update; implemented by subclasses."""
        raise NotImplementedError


def clip_grad_norm(parameters: Sequence[Parameter], max_norm: float) -> float:
    """Scale gradients in place so their global L2 norm is at most ``max_norm``.

    Returns the pre-clipping norm (useful for logging divergence).
    """
    total = 0.0
    for param in parameters:
        if param.grad is not None:
            total += float(np.sum(param.grad**2))
    norm = float(np.sqrt(total))
    if norm > max_norm and norm > 0.0:
        scale = max_norm / norm
        for param in parameters:
            if param.grad is not None:
                param.grad = param.grad * scale
    return norm
