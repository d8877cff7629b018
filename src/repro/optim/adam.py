"""Adam optimiser (Kingma & Ba, 2015) with decoupled-style weight decay option.

The paper optimises all models with Adam ("ADM optimizer", lr 0.001), so this
is the default optimiser across the reproduction.

The update itself is a single fused, in-place kernel: the composed
``p - lr * m̂ / (sqrt(v̂) + eps)`` expression allocated five full-size
temporaries per parameter per step and rebound ``param.data``; the fused
form mutates the parameter and reuses two scratch buffers, bit-identical to
the composed arithmetic (pinned by ``tests/test_fused_ops.py`` and by the
golden baseline fixtures, which run entire trainings through it).
"""

from __future__ import annotations

from typing import Sequence

import numpy as np

from repro.nn.module import Parameter
from repro.optim.optimizer import Optimizer

__all__ = ["Adam"]


class Adam(Optimizer):
    """Adam with bias-corrected first/second moment estimates."""

    def __init__(
        self,
        parameters: Sequence[Parameter],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(parameters)
        if lr <= 0:
            raise ValueError(f"learning rate must be positive, got {lr}")
        if not (0 <= betas[0] < 1 and 0 <= betas[1] < 1):
            raise ValueError(f"betas must lie in [0, 1), got {betas}")
        self.lr = lr
        self.beta1, self.beta2 = betas
        self.eps = eps
        self.weight_decay = weight_decay
        self._step_count = 0
        self._m = [np.zeros_like(p.data) for p in self.parameters]
        self._v = [np.zeros_like(p.data) for p in self.parameters]

    def step(self) -> None:
        """One in-place update of every parameter that has a gradient.

        Bit-identical to the composed update
        ``p -= lr * (m/bias1) / (sqrt(v/bias2) + eps)`` with
        ``m = β₁m + (1-β₁)g`` and ``v = β₂v + (1-β₂)g²``, but without the
        chain of full-size temporaries the composed spelling allocates.
        """
        self._step_count += 1
        t = self._step_count
        bias1 = 1.0 - self.beta1**t
        bias2 = 1.0 - self.beta2**t
        for param, m, v in zip(self.parameters, self._m, self._v):
            if param.grad is None:
                continue
            p, grad = param.data, param.grad
            if self.weight_decay:
                grad = grad + self.weight_decay * p
            m *= self.beta1
            m += (1.0 - self.beta1) * grad
            v *= self.beta2
            v += (1.0 - self.beta2) * (grad * grad)
            denom = np.sqrt(v / bias2)
            denom += self.eps
            update = m / bias1
            update *= self.lr
            update /= denom
            p -= update
