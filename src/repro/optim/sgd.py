"""Stochastic gradient descent with optional momentum and weight decay."""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.module import Parameter
from repro.optim.optimizer import Optimizer

__all__ = ["SGD"]


class SGD(Optimizer):
    """Vanilla / momentum SGD.

    Update rule (per parameter ``p`` with gradient ``g``):

    .. code-block:: text

        g ← g + weight_decay * p
        v ← momentum * v + g
        p ← p - lr * v
    """

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 0.01,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        self.lr = lr
        self.momentum = momentum
        self.weight_decay = weight_decay
        self._velocity = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        for param, velocity in zip(self.parameters, self._velocity):
            if param.grad is None:
                continue
            grad = param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * param.data
            if self.momentum:
                velocity *= self.momentum
                velocity += grad
                grad = velocity
            param.data = param.data - self.lr * grad
