"""Tests for the reference helpers in ``tests/oracles.py``.

Every parity test in the suite trusts these helpers, so each one is checked
against a closed form, and :func:`gradcheck` is shown to reject a wrong
adjoint rather than only to accept right ones.
"""

from __future__ import annotations

import numpy as np
import pytest

from oracles import (
    binary_cross_entropy_with_logits_reference,
    gradcheck,
    numerical_gradient,
)
from repro.tensor import Tensor
from repro.tensor import ops


def _square_with_adjoint(x: Tensor, factor: float) -> Tensor:
    """``x²`` whose backward returns ``factor · x · grad`` (2 is correct)."""
    return Tensor.from_op(x.data**2, (x,), lambda grad: (factor * x.data * grad,))


class TestNumericalGradient:
    def test_matches_closed_form(self):
        x = Tensor(np.array([-1.5, 0.5, 2.0]), requires_grad=True)
        grad = numerical_gradient(lambda t: ops.sum(ops.power(t, 3.0)), [x], 0)
        np.testing.assert_allclose(grad, 3.0 * x.data**2, rtol=1e-6)

    def test_differentiates_only_the_requested_input(self):
        a = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        b = Tensor(np.array([3.0, -4.0]), requires_grad=True)

        def fn(a, b):
            return ops.sum(ops.mul(a, b))

        np.testing.assert_allclose(numerical_gradient(fn, [a, b], 0), b.data)
        np.testing.assert_allclose(numerical_gradient(fn, [a, b], 1), a.data)

    def test_restores_perturbed_input(self):
        data = np.array([[0.1, -0.2], [0.3, 0.4]])
        x = Tensor(data.copy(), requires_grad=True)
        numerical_gradient(lambda t: ops.sum(ops.exp(t)), [x], 0)
        np.testing.assert_array_equal(x.data, data)


class TestGradcheck:
    def test_accepts_a_correct_adjoint(self):
        x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
        assert gradcheck(lambda t: ops.sum(_square_with_adjoint(t, 2.0)), [x])

    def test_rejects_a_wrong_adjoint(self):
        x = Tensor(np.array([0.5, -1.0, 2.0]), requires_grad=True)
        with pytest.raises(AssertionError, match="gradient mismatch for input 0"):
            gradcheck(lambda t: ops.sum(_square_with_adjoint(t, 3.0)), [x])

    def test_requires_a_scalar_output(self):
        x = Tensor(np.ones(3), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            gradcheck(lambda t: ops.mul(t, 2.0), [x])

    def test_skips_inputs_without_grad(self):
        x = Tensor(np.array([1.0, 2.0]), requires_grad=True)
        c = Tensor(np.array([3.0, 4.0]))
        assert gradcheck(lambda a, b: ops.sum(ops.mul(a, b)), [x, c])
        np.testing.assert_allclose(x.grad, c.data)
        assert c.grad is None


class TestBceReference:
    def test_matches_closed_form(self):
        rng = np.random.default_rng(0)
        logits = rng.normal(size=12)
        targets = rng.integers(0, 2, size=12).astype(float)
        probs = 1.0 / (1.0 + np.exp(-logits))
        expected = -(
            targets * np.log(probs) + (1 - targets) * np.log(1 - probs)
        ).mean()
        loss = binary_cross_entropy_with_logits_reference(Tensor(logits), targets)
        assert float(loss.data) == pytest.approx(expected)

    def test_weighted_mean_and_zero_weights(self):
        logits = Tensor(np.zeros(4))
        targets = np.array([1.0, 0.0, 1.0, 0.0])
        loss = binary_cross_entropy_with_logits_reference(
            logits, targets, np.array([2.0, 0.0, 0.0, 1.0])
        )
        assert float(loss.data) == pytest.approx(np.log(2.0))
        with pytest.raises(ValueError, match="sum to zero"):
            binary_cross_entropy_with_logits_reference(logits, targets, np.zeros(4))
