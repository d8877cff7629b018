"""Tests for the Tensor core: graph construction, backward, no_grad."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.tensor import Tensor, is_grad_enabled, no_grad
from repro.tensor import ops
from repro.tensor.tensor import unbroadcast


class TestTensorBasics:
    def test_construction_coerces_dtype(self):
        t = Tensor([1, 2, 3])
        assert t.data.dtype == np.float64

    def test_shape_ndim_size(self):
        t = Tensor(np.zeros((2, 3)))
        assert t.shape == (2, 3)
        assert t.ndim == 2
        assert t.size == 6
        assert len(t) == 2

    def test_repr_mentions_grad(self):
        assert "requires_grad" in repr(Tensor(1.0, requires_grad=True))

    def test_item(self):
        assert Tensor(np.array([3.5])).item() == 3.5

    def test_detach_cuts_graph(self):
        a = Tensor([1.0], requires_grad=True)
        b = (a * 2.0).detach()
        c = (b * 3.0).sum()
        c.backward()
        assert a.grad is None

    def test_copy_is_deep(self):
        a = Tensor([1.0, 2.0])
        b = a.copy()
        b.data[0] = 99.0
        assert a.data[0] == 1.0

    def test_zeros_ones(self):
        assert Tensor.zeros(2, 3).data.sum() == 0.0
        assert Tensor.ones(2, 3).data.sum() == 6.0

    def test_operator_sugar(self):
        a = Tensor([2.0], requires_grad=True)
        out = ((-a + 3.0) * 2.0 / 2.0 - 1.0) ** 2.0
        np.testing.assert_allclose(out.data, [0.0])
        out2 = (1.0 - a) + (6.0 / a)
        np.testing.assert_allclose(out2.data, [2.0])

    def test_getitem_slicing(self):
        a = Tensor(np.arange(12.0).reshape(3, 4), requires_grad=True)
        out = a[1:].sum()
        out.backward()
        np.testing.assert_allclose(a.grad[0], 0.0)
        np.testing.assert_allclose(a.grad[1:], 1.0)

    def test_method_chaining(self):
        a = Tensor(np.full((2, 2), 0.5), requires_grad=True)
        out = a.relu().sigmoid().tanh().exp().log().sqrt().abs().mean()
        assert out.size == 1
        out.backward()
        assert a.grad is not None

    def test_numpy_returns_the_shared_array(self):
        a = Tensor(np.zeros(3))
        a.numpy()[1] = 7.0
        assert a.data[1] == 7.0
        assert a.numpy() is a.data

    def test_T_reverses_all_axes(self):
        data = np.arange(24.0).reshape(2, 3, 4)
        a = Tensor(data, requires_grad=True)
        out = a.T
        assert out.shape == (4, 3, 2)
        np.testing.assert_array_equal(out.data, data.transpose())
        weights = np.arange(24.0).reshape(4, 3, 2)
        (out * Tensor(weights)).sum().backward()
        np.testing.assert_array_equal(a.grad, weights.transpose())

    def test_transpose_with_axes_routes_grad_back(self):
        data = np.arange(24.0).reshape(2, 3, 4)
        a = Tensor(data, requires_grad=True)
        out = a.transpose((1, 2, 0))
        assert out.shape == (3, 4, 2)
        weights = np.arange(24.0).reshape(3, 4, 2)
        (out * Tensor(weights)).sum().backward()
        # The adjoint applies the inverse permutation.
        np.testing.assert_array_equal(a.grad, weights.transpose(2, 0, 1))

    def test_matmul_operator(self):
        x = Tensor(np.array([[1.0, 2.0], [3.0, 4.0]]), requires_grad=True)
        w = Tensor(np.array([[1.0], [-1.0]]), requires_grad=True)
        out = x @ w
        np.testing.assert_array_equal(out.data, [[-1.0], [-1.0]])
        out.sum().backward()
        np.testing.assert_array_equal(x.grad, [[1.0, -1.0], [1.0, -1.0]])
        np.testing.assert_array_equal(w.grad, [[4.0], [6.0]])

    def test_reshape_accepts_tuple_or_varargs(self):
        a = Tensor(np.arange(6.0), requires_grad=True)
        assert a.reshape((2, 3)).shape == (2, 3)
        assert a.reshape([3, 2]).shape == (3, 2)
        out = a.reshape(3, 2)
        assert out.shape == (3, 2)
        (out * Tensor(np.arange(6.0).reshape(3, 2))).sum().backward()
        np.testing.assert_array_equal(a.grad, np.arange(6.0))


class TestBackward:
    def test_backward_requires_scalar(self):
        a = Tensor(np.ones((2, 2)), requires_grad=True)
        with pytest.raises(ValueError, match="scalar"):
            (a * 2.0).backward()

    def test_backward_with_explicit_grad(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = a * 2.0
        b.backward(np.array([1.0, 2.0, 3.0]))
        np.testing.assert_allclose(a.grad, [2.0, 4.0, 6.0])

    def test_backward_broadcasts_a_scalar_seed(self):
        a = Tensor(np.ones((2, 3)), requires_grad=True)
        (a * 2.0).backward(0.5)
        np.testing.assert_array_equal(a.grad, np.ones((2, 3)))

    def test_grad_accumulates_across_backwards(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).sum().backward()
        (a * 2.0).sum().backward()
        np.testing.assert_allclose(a.grad, [4.0])

    def test_zero_grad(self):
        a = Tensor([1.0], requires_grad=True)
        (a * 2.0).sum().backward()
        a.zero_grad()
        assert a.grad is None

    def test_shared_subexpression_counted_once_per_path(self):
        # y = x*x uses x twice: dy/dx = 2x.
        x = Tensor([3.0], requires_grad=True)
        (x * x).sum().backward()
        np.testing.assert_allclose(x.grad, [6.0])

    def test_diamond_graph(self):
        # z = (x+1) * (x+2): dz/dx = 2x + 3.
        x = Tensor([2.0], requires_grad=True)
        ((x + 1.0) * (x + 2.0)).sum().backward()
        np.testing.assert_allclose(x.grad, [7.0])

    def test_deep_chain_no_recursion_error(self):
        x = Tensor([1.0], requires_grad=True)
        y = x
        for _ in range(3000):
            y = y + 1.0
        y.sum().backward()
        np.testing.assert_allclose(x.grad, [1.0])

    def test_constant_branch_gets_no_grad(self):
        a = Tensor([1.0], requires_grad=True)
        c = Tensor([5.0])
        (a * c).sum().backward()
        assert c.grad is None


class TestNoGrad:
    def test_no_grad_blocks_graph(self):
        a = Tensor([1.0], requires_grad=True)
        with no_grad():
            b = a * 2.0
        assert not b.requires_grad

    def test_no_grad_restores_state(self):
        assert is_grad_enabled()
        with no_grad():
            assert not is_grad_enabled()
        assert is_grad_enabled()

    def test_no_grad_restores_on_exception(self):
        with pytest.raises(RuntimeError):
            with no_grad():
                raise RuntimeError("boom")
        assert is_grad_enabled()


class TestUnbroadcast:
    def test_identity_when_shapes_match(self):
        grad = np.ones((2, 3))
        assert unbroadcast(grad, (2, 3)) is grad

    def test_sums_prepended_axes(self):
        grad = np.ones((5, 2, 3))
        np.testing.assert_allclose(unbroadcast(grad, (2, 3)), np.full((2, 3), 5.0))

    def test_sums_stretched_axes(self):
        grad = np.ones((2, 3))
        np.testing.assert_allclose(unbroadcast(grad, (2, 1)), np.full((2, 1), 3.0))

    def test_scalar_target(self):
        grad = np.ones((2, 3))
        np.testing.assert_allclose(unbroadcast(grad, ()), 6.0)

    @settings(max_examples=25, deadline=None)
    @given(
        rows=st.integers(1, 4),
        cols=st.integers(1, 4),
        batch=st.integers(1, 3),
    )
    def test_property_matches_broadcast_adjoint(self, rows, cols, batch):
        # unbroadcast is the adjoint of np.broadcast_to.
        rng = np.random.default_rng(0)
        grad = rng.normal(size=(batch, rows, cols))
        reduced = unbroadcast(grad, (rows, 1))
        # <broadcast(x), grad> == <x, unbroadcast(grad)> for any x.
        x = rng.normal(size=(rows, 1))
        lhs = float((np.broadcast_to(x, grad.shape) * grad).sum())
        rhs = float((x * reduced).sum())
        assert lhs == pytest.approx(rhs)
