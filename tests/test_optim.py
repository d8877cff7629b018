"""Tests for the Adam optimiser and its ``Optimizer`` base class."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import Linear, Parameter
from repro.optim import Adam, Optimizer
from repro.tensor import Tensor
from repro.tensor import ops


def _quadratic_loss(param: Parameter) -> float:
    """One step of minimising ||p - 3||² returns the loss value."""
    loss = ops.sum(ops.power(ops.sub(param, 3.0), 2.0))
    return loss


class TestAdam:
    def test_converges_on_quadratic(self):
        param = Parameter(np.zeros(4))
        opt = Adam([param], lr=0.1)
        for _ in range(300):
            opt.zero_grad()
            _quadratic_loss(param).backward()
            opt.step()
        np.testing.assert_allclose(param.data, 3.0, atol=1e-3)

    def test_first_step_size_is_about_lr(self):
        # Bias correction makes the very first Adam step ≈ lr in magnitude.
        param = Parameter(np.zeros(1))
        opt = Adam([param], lr=0.05)
        opt.zero_grad()
        _quadratic_loss(param).backward()
        opt.step()
        assert abs(param.data[0]) == pytest.approx(0.05, rel=1e-3)

    def test_weight_decay(self):
        param = Parameter(np.full(1, 5.0))
        opt = Adam([param], lr=0.01, weight_decay=0.1)
        opt.zero_grad()
        ops.sum(param * 0.0).backward()
        opt.step()
        assert param.data[0] < 5.0

    def test_rejects_bad_betas(self):
        with pytest.raises(ValueError):
            Adam([Parameter(np.ones(1))], betas=(1.0, 0.999))

    @pytest.mark.parametrize("lr", [0.0, -0.1])
    def test_rejects_non_positive_lr(self, lr):
        with pytest.raises(ValueError, match="learning rate"):
            Adam([Parameter(np.ones(1))], lr=lr)

    def test_zero_grad_clears_every_parameter(self):
        a, b = Parameter(np.ones(2)), Parameter(np.ones(3))
        opt = Adam([a, b], lr=0.1)
        ops.add(ops.sum(a), ops.sum(b)).backward()
        assert a.grad is not None and b.grad is not None
        opt.zero_grad()
        assert a.grad is None and b.grad is None

    def test_skips_params_without_grad(self):
        param = Parameter(np.ones(1))
        Adam([param], lr=0.1).step()
        assert param.data[0] == 1.0

    def test_rejects_empty_params(self):
        with pytest.raises(ValueError):
            Adam([], lr=0.1)

    def test_base_step_is_abstract(self):
        opt = Optimizer([Parameter(np.ones(1))])
        with pytest.raises(NotImplementedError):
            opt.step()

    def test_trains_linear_regression(self):
        rng = np.random.default_rng(0)
        true_w = np.array([[2.0], [-1.0]])
        x = rng.normal(size=(200, 2))
        y = x @ true_w
        layer = Linear(2, 1, rng, bias=False)
        opt = Adam(layer.parameters(), lr=0.05)
        for _ in range(300):
            opt.zero_grad()
            pred = layer(Tensor(x))
            loss = ops.mean(ops.power(ops.sub(pred, Tensor(y)), 2.0))
            loss.backward()
            opt.step()
        np.testing.assert_allclose(layer.weight.data, true_w, atol=0.05)
