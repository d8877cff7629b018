"""Optimizer base class."""

from __future__ import annotations

from typing import Sequence

from repro.nn.module import Parameter

__all__ = ["Optimizer"]


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
