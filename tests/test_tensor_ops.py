"""Gradient checks and behaviour tests for every op in repro.tensor.ops."""

from __future__ import annotations

import numpy as np
import pytest
import scipy.sparse as sp

from repro.nn import Linear
from repro.tensor import Tensor, dtype_scope
from repro.tensor import ops
from repro.tensor.tensor import unbroadcast
from oracles import gradcheck


def _squared_distance_adjoint(grad, x, y):
    return 2.0 * np.expand_dims(np.asarray(grad), -1) * (x - y)


#: op -> (forward(a, b), adjoint of a, adjoint of b), each adjoint written
#: as ``(grad, x, y)`` before its unbroadcast.
_ELEMENTWISE_ADJOINTS = {
    "add": (
        lambda a, b: ops.add(a, b),
        lambda g, x, y: g,
        lambda g, x, y: g,
    ),
    "sub": (
        lambda a, b: ops.sub(a, b),
        lambda g, x, y: g,
        lambda g, x, y: -g,
    ),
    "mul": (
        lambda a, b: ops.mul(a, b),
        lambda g, x, y: g * y,
        lambda g, x, y: g * x,
    ),
    "div": (
        lambda a, b: ops.div(a, b),
        lambda g, x, y: g / y,
        lambda g, x, y: -g * x / (y**2),
    ),
    "maximum": (
        lambda a, b: ops.maximum(a, b),
        lambda g, x, y: g * (x >= y),
        lambda g, x, y: g * ~(x >= y),
    ),
    "squared_distance": (
        lambda a, b: ops.squared_distance(a, b),
        lambda g, x, y: _squared_distance_adjoint(g, x, y),
        lambda g, x, y: -_squared_distance_adjoint(g, x, y),
    ),
}


def _t(rng, *shape, shift=0.0):
    """Random tensor bounded away from kinks (|x| in ~[0.3, 2.3])."""
    data = rng.uniform(0.3, 2.3, size=shape) * rng.choice([-1.0, 1.0], size=shape)
    return Tensor(data + shift, requires_grad=True)


@pytest.fixture
def rng():
    return np.random.default_rng(42)


# --------------------------------------------------------------------- #
# arithmetic gradchecks
# --------------------------------------------------------------------- #
class TestArithmeticGradients:
    def test_add(self, rng):
        a, b = _t(rng, 3, 4), _t(rng, 3, 4)
        assert gradcheck(lambda a, b: ops.sum(ops.add(a, b)), [a, b])

    def test_add_broadcast_row(self, rng):
        a, b = _t(rng, 3, 4), _t(rng, 4)
        assert gradcheck(lambda a, b: ops.sum(ops.mul(ops.add(a, b), a)), [a, b])

    def test_add_broadcast_scalar(self, rng):
        a, b = _t(rng, 3, 4), _t(rng)
        assert gradcheck(lambda a, b: ops.sum(ops.mul(ops.add(a, b), a)), [a, b])

    def test_sub(self, rng):
        a, b = _t(rng, 2, 5), _t(rng, 2, 5)
        assert gradcheck(lambda a, b: ops.sum(ops.mul(ops.sub(a, b), b)), [a, b])

    def test_neg(self, rng):
        a = _t(rng, 4)
        assert gradcheck(lambda a: ops.sum(ops.mul(ops.neg(a), a)), [a])

    def test_mul(self, rng):
        a, b = _t(rng, 3, 3), _t(rng, 3, 3)
        assert gradcheck(lambda a, b: ops.sum(ops.mul(a, b)), [a, b])

    def test_mul_broadcast_column(self, rng):
        a, b = _t(rng, 3, 4), _t(rng, 3, 1)
        assert gradcheck(lambda a, b: ops.sum(ops.mul(a, b)), [a, b])

    def test_div(self, rng):
        a = _t(rng, 3, 2)
        b = Tensor(rng.uniform(0.5, 2.0, size=(3, 2)), requires_grad=True)
        assert gradcheck(lambda a, b: ops.sum(ops.div(a, b)), [a, b])

    def test_power(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=(4,)), requires_grad=True)
        assert gradcheck(lambda a: ops.sum(ops.power(a, 3.0)), [a])

    def test_power_fractional(self, rng):
        a = Tensor(rng.uniform(0.5, 2.0, size=(4,)), requires_grad=True)
        assert gradcheck(lambda a: ops.sum(ops.power(a, 0.5)), [a])

    def test_matmul(self, rng):
        a, b = _t(rng, 3, 4), _t(rng, 4, 2)
        assert gradcheck(lambda a, b: ops.sum(ops.matmul(a, b)), [a, b])

    def test_matmul_vector(self, rng):
        a, b = _t(rng, 3, 4), _t(rng, 4)
        assert gradcheck(lambda a, b: ops.sum(ops.matmul(a, b)), [a, b])

    def test_matmul_vector_vector(self, rng):
        # A dot product; squaring it makes the upstream gradient non-unit.
        a, b = _t(rng, 4), _t(rng, 4)
        assert gradcheck(
            lambda a, b: ops.mul(ops.matmul(a, b), ops.matmul(a, b)), [a, b]
        )

    @pytest.mark.parametrize("cols", [4, 3], ids=["square", "non_square"])
    def test_matmul_vector_matrix(self, rng, cols):
        a, b = _t(rng, 4), _t(rng, 4, cols)
        w = rng.standard_normal(cols)
        assert gradcheck(lambda a, b: ops.sum(ops.mul(ops.matmul(a, b), w)), [a, b])

    @pytest.mark.parametrize(
        "shapes",
        [((5, 4), (4, 3)), ((5, 4), (4,)), ((4,), (4, 3)), ((4,), (4,))],
        ids=["matrix_matrix", "matrix_vector", "vector_matrix", "dot"],
    )
    @pytest.mark.parametrize("constant", ["a", "b"])
    def test_matmul_skips_constant_adjoint(self, rng, shapes, constant):
        """A constant operand gets ``None``; the other adjoint is the exact
        formula the op computed for both operands before it skipped one."""
        x, y = rng.standard_normal(shapes[0]), rng.standard_normal(shapes[1])
        a = Tensor(x, requires_grad=constant != "a")
        b = Tensor(y, requires_grad=constant != "b")
        out = ops.matmul(a, b)
        grad = rng.standard_normal(out.shape)
        grad_a, grad_b = out._backward_fn(grad)
        if constant == "a":
            assert grad_a is None
            if x.ndim == 1:
                expected = np.outer(x, grad) if y.ndim == 2 else grad * x
            else:
                expected = x.T @ grad
            got = grad_b
        else:
            assert grad_b is None
            if y.ndim == 1:
                expected = np.outer(grad, y) if x.ndim == 2 else grad * y
            else:
                expected = grad @ y.T
            got = grad_a
        assert got.dtype == expected.dtype
        np.testing.assert_array_equal(got, expected)

    @pytest.mark.parametrize("op", sorted(_ELEMENTWISE_ADJOINTS))
    @pytest.mark.parametrize(
        "shapes",
        [((3, 4), (3, 4)), ((3, 4), (4,)), ((3, 1), (3, 4)), ((2, 3, 4), (1, 4))],
        ids=["same", "row", "column", "batched"],
    )
    @pytest.mark.parametrize("constant", ["a", "b"])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_elementwise_skips_constant_adjoint(
        self, rng, op, shapes, constant, dtype
    ):
        """A constant operand gets ``None``; the other adjoint is bit-equal
        to the formula the op computed for both operands before it skipped
        one."""
        forward, adjoint_a, adjoint_b = _ELEMENTWISE_ADJOINTS[op]
        x = rng.uniform(0.5, 2.0, size=shapes[0])
        y = rng.uniform(0.5, 2.0, size=shapes[1]) * rng.choice([-1.0, 1.0], shapes[1])
        with dtype_scope(dtype):
            a = Tensor(x, requires_grad=constant != "a")
            b = Tensor(y, requires_grad=constant != "b")
            out = forward(a, b)
            grad = rng.standard_normal(out.shape).astype(dtype)
            grad_a, grad_b = out._backward_fn(grad)
        x, y = a.data, b.data
        if constant == "a":
            assert grad_a is None
            got, expected = grad_b, unbroadcast(adjoint_b(grad, x, y), y.shape)
        else:
            assert grad_b is None
            got, expected = grad_a, unbroadcast(adjoint_a(grad, x, y), x.shape)
        assert got.dtype == expected.dtype == np.dtype(dtype)
        np.testing.assert_array_equal(got, expected)

    def test_linear_on_one_feature_vector(self, rng):
        layer = Linear(4, 3, rng)
        x = _t(rng, 4)
        w = rng.standard_normal(3)
        assert gradcheck(
            lambda x, *_: ops.sum(ops.mul(layer(x), w)),
            [x, layer.weight, layer.bias],
        )

    def test_spmm(self, rng):
        matrix = sp.random(5, 5, density=0.5, random_state=1, format="csr")
        h = _t(rng, 5, 3)
        assert gradcheck(lambda h: ops.sum(ops.spmm(matrix, h)), [h])

    def test_spmm_asymmetric_adjoint(self, rng):
        # Non-symmetric matrix: adjoint must be A.T @ grad, not A @ grad.
        matrix = sp.csr_matrix(np.array([[0.0, 2.0], [0.0, 0.0]]))
        h = Tensor(np.ones((2, 1)), requires_grad=True)
        out = ops.sum(ops.spmm(matrix, h))
        out.backward()
        np.testing.assert_allclose(h.grad, np.array([[0.0], [2.0]]))

    def test_spmm_coo_non_square_round_trip(self, rng):
        # A non-square COO constant: forward is A @ H, adjoint is A.T @ grad.
        matrix = sp.random(6, 5, density=0.5, random_state=2, format="coo")
        dense = rng.standard_normal((5, 3))
        upstream = rng.standard_normal((6, 3))
        h = Tensor(dense, requires_grad=True)
        out = ops.spmm(matrix, h)
        out.backward(upstream)
        dense_matrix = matrix.toarray()
        np.testing.assert_allclose(out.data, dense_matrix @ dense)
        np.testing.assert_allclose(h.grad, dense_matrix.T @ upstream)

    def test_spmm_casts_constant_to_operand_dtype(self, rng):
        # A float64 COO constant against a float32 operand: the product and
        # its adjoint stay float32 and match the dense computation.
        matrix = sp.random(6, 5, density=0.5, random_state=2, format="coo")
        dense = rng.standard_normal((5, 3))
        upstream = rng.standard_normal((6, 3))
        with dtype_scope("float32"):
            h = Tensor(dense, requires_grad=True)
            out = ops.spmm(matrix, h)
            out.backward(upstream)
        assert out.data.dtype == np.float32
        assert h.grad.dtype == np.float32
        dense_matrix = matrix.toarray()
        np.testing.assert_allclose(out.data, dense_matrix @ dense, rtol=1e-5, atol=1e-5)
        np.testing.assert_allclose(h.grad, dense_matrix.T @ upstream, rtol=1e-5, atol=1e-5)


# --------------------------------------------------------------------- #
# nonlinearity gradchecks
# --------------------------------------------------------------------- #
class TestNonlinearityGradients:
    @pytest.mark.parametrize(
        "op",
        [ops.relu, ops.sigmoid, ops.tanh, ops.exp, ops.absolute],
        ids=["relu", "sigmoid", "tanh", "exp", "abs"],
    )
    def test_unary(self, rng, op):
        a = _t(rng, 3, 4)
        assert gradcheck(lambda a: ops.sum(op(a)), [a])

    def test_leaky_relu(self, rng):
        a = _t(rng, 3, 4)
        assert gradcheck(lambda a: ops.sum(ops.leaky_relu(a, 0.1)), [a])

    def test_log(self, rng):
        a = Tensor(rng.uniform(0.5, 3.0, size=(4,)), requires_grad=True)
        assert gradcheck(lambda a: ops.sum(ops.log(a)), [a])

    def test_sqrt(self, rng):
        a = Tensor(rng.uniform(0.5, 3.0, size=(4,)), requires_grad=True)
        assert gradcheck(lambda a: ops.sum(ops.sqrt(a)), [a])

    def test_maximum(self, rng):
        a = Tensor(rng.uniform(1.0, 2.0, size=(5,)), requires_grad=True)
        b = Tensor(rng.uniform(2.5, 3.5, size=(5,)), requires_grad=True)
        assert gradcheck(lambda a, b: ops.sum(ops.maximum(a, b)), [a, b])

    def test_sigmoid_extreme_values_stable(self):
        out = ops.sigmoid(Tensor(np.array([-1000.0, 0.0, 1000.0])))
        np.testing.assert_allclose(out.data, [0.0, 0.5, 1.0], atol=1e-12)
        assert np.isfinite(out.data).all()


# --------------------------------------------------------------------- #
# reductions / shape ops
# --------------------------------------------------------------------- #
class TestReductionsAndShapes:
    def test_sum_all(self, rng):
        a = _t(rng, 3, 4)
        assert gradcheck(lambda a: ops.sum(a), [a])

    def test_sum_axis(self, rng):
        a = _t(rng, 3, 4)
        assert gradcheck(lambda a: ops.sum(ops.mul(ops.sum(a, axis=0), ops.sum(a, axis=0))), [a])

    def test_sum_keepdims(self, rng):
        a = _t(rng, 3, 4)
        out = ops.sum(a, axis=1, keepdims=True)
        assert out.shape == (3, 1)

    def test_mean_all(self, rng):
        a = _t(rng, 6)
        assert gradcheck(lambda a: ops.mean(a), [a])

    def test_mean_axis_value(self, rng):
        a = _t(rng, 3, 4)
        np.testing.assert_allclose(ops.mean(a, axis=1).data, a.data.mean(axis=1))

    def test_mean_axis_gradient(self, rng):
        a = _t(rng, 3, 4)
        assert gradcheck(
            lambda a: ops.sum(ops.power(ops.mean(a, axis=0), 2.0)), [a]
        )

    def test_reshape(self, rng):
        a = _t(rng, 3, 4)
        assert gradcheck(lambda a: ops.sum(ops.mul(ops.reshape(a, (12,)), ops.reshape(a, (12,)))), [a])

    def test_transpose(self, rng):
        a = _t(rng, 3, 4)
        out = ops.transpose(a)
        assert out.shape == (4, 3)
        assert gradcheck(lambda a: ops.sum(ops.matmul(a, ops.transpose(a))), [a])

    def test_transpose_axes(self, rng):
        a = Tensor(rng.normal(size=(2, 3, 4)), requires_grad=True)
        out = ops.transpose(a, (2, 0, 1))
        assert out.shape == (4, 2, 3)

    def test_index_rows(self, rng):
        a = _t(rng, 5, 3)
        idx = np.array([0, 2, 2, 4])
        assert gradcheck(lambda a: ops.sum(ops.power(ops.index(a, idx), 2.0)), [a])

    def test_gather_duplicates_accumulate(self, rng):
        a = Tensor(np.ones((3, 2)), requires_grad=True)
        out = ops.sum(ops.gather(a, np.array([1, 1, 1])))
        out.backward()
        np.testing.assert_allclose(a.grad, [[0, 0], [3, 3], [0, 0]])

    def test_gather_gradcheck(self, rng):
        a = _t(rng, 5, 2)
        idx = np.array([4, 0, 0, 3, 1])
        assert gradcheck(lambda a: ops.sum(ops.power(ops.gather(a, idx), 2.0)), [a])

    def test_scatter_add_forward(self):
        a = Tensor(np.array([[1.0], [2.0], [3.0]]))
        out = ops.scatter_add(a, np.array([0, 0, 1]), 2)
        np.testing.assert_allclose(out.data, [[3.0], [3.0]])

    def test_scatter_add_gradcheck(self, rng):
        a = _t(rng, 4, 2)
        idx = np.array([0, 1, 1, 2])
        assert gradcheck(
            lambda a: ops.sum(ops.power(ops.scatter_add(a, idx, 3), 2.0)), [a]
        )

    def test_scatter_gather_adjoint_pair(self, rng):
        # <gather(a, idx), b> == <a, scatter_add(b, idx, n)>
        a = Tensor(rng.normal(size=(5, 3)))
        b = Tensor(rng.normal(size=(7, 3)))
        idx = rng.integers(0, 5, size=7)
        lhs = float(np.sum(ops.gather(a, idx).data * b.data))
        rhs = float(np.sum(a.data * ops.scatter_add(b, idx, 5).data))
        assert lhs == pytest.approx(rhs)

    def test_gather_multidim_indices(self, rng):
        # A batched (I, N, K) index pulls (I, N, K, d) rows.
        a = _t(rng, 6, 3)
        idx = rng.integers(0, 6, size=(2, 4, 5))
        out = ops.gather(a, idx)
        assert out.shape == (2, 4, 5, 3)
        np.testing.assert_allclose(out.data, a.data[idx])
        assert gradcheck(
            lambda a: ops.sum(ops.power(ops.gather(a, idx), 2.0)), [a]
        )

    @pytest.mark.parametrize("rows", [16, 8192])  # add.at and CSR branches
    def test_scatter_rows_matches_add_at(self, rng, rows):
        from repro.tensor.ops import _scatter_rows

        idx = rng.integers(0, 10, size=rows)
        grad = rng.standard_normal((rows, 4))
        expected = np.zeros((10, 4))
        np.add.at(expected, idx, grad)
        np.testing.assert_allclose(_scatter_rows(idx, grad, (10, 4)), expected, atol=1e-12)

    def test_gather_large_scatter_path_matches_add_at(self, rng):
        # Above the threshold the adjoint routes through a sparse matmul;
        # it must equal the np.add.at scatter exactly.
        from repro.tensor.ops import _SCATTER_SPMM_THRESHOLD, _scatter_rows

        rows = _SCATTER_SPMM_THRESHOLD + 17
        idx = rng.integers(0, 50, size=rows)
        grad = rng.normal(size=(rows, 4))
        expected = np.zeros((50, 4))
        np.add.at(expected, idx, grad)
        np.testing.assert_allclose(_scatter_rows(idx, grad, (50, 4)), expected)

    def test_gather_large_scatter_path_1d(self, rng):
        from repro.tensor.ops import _SCATTER_SPMM_THRESHOLD, _scatter_rows

        rows = _SCATTER_SPMM_THRESHOLD + 5
        idx = rng.integers(0, 30, size=(rows // 5, 5))
        grad = rng.normal(size=idx.shape)
        expected = np.zeros(30)
        np.add.at(expected, idx, grad)
        np.testing.assert_allclose(_scatter_rows(idx, grad, (30,)), expected)

    def test_squared_distance_value(self, rng):
        a, b = _t(rng, 4, 3), _t(rng, 4, 3)
        np.testing.assert_allclose(
            ops.squared_distance(a, b).data, ((a.data - b.data) ** 2).sum(axis=-1)
        )

    def test_squared_distance_gradcheck(self, rng):
        a, b = _t(rng, 4, 3), _t(rng, 4, 3)
        assert gradcheck(lambda a, b: ops.sum(ops.squared_distance(a, b)), [a, b])

    def test_squared_distance_broadcast_gradcheck(self, rng):
        # The fair-loss shape: (1, N, 1, d) anchors vs (I, N, K, d) targets.
        a = Tensor(rng.normal(size=(1, 3, 1, 2)), requires_grad=True)
        b = Tensor(rng.normal(size=(2, 3, 4, 2)), requires_grad=True)
        out = ops.squared_distance(a, b)
        assert out.shape == (2, 3, 4)
        assert gradcheck(lambda a, b: ops.sum(ops.squared_distance(a, b)), [a, b])


# --------------------------------------------------------------------- #
# dropout mask
# --------------------------------------------------------------------- #
class TestDropoutMask:
    def test_mask_scaling(self):
        rng = np.random.default_rng(0)
        mask = ops.dropout_mask((10_000,), 0.4, rng)
        kept = mask > 0
        assert kept.mean() == pytest.approx(0.6, abs=0.03)
        np.testing.assert_allclose(mask[kept], 1.0 / 0.6)

    def test_rate_zero_keeps_everything(self):
        mask = ops.dropout_mask((100,), 0.0, np.random.default_rng(0))
        np.testing.assert_allclose(mask, 1.0)

    def test_invalid_rate_raises(self):
        with pytest.raises(ValueError):
            ops.dropout_mask((3,), 1.0, np.random.default_rng(0))
        with pytest.raises(ValueError):
            ops.dropout_mask((3,), -0.1, np.random.default_rng(0))
