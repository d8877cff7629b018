"""Differentiable operations for :class:`repro.tensor.Tensor`.

Every function takes tensors (or array-likes, which are promoted to constant
tensors), computes the forward value with numpy, and registers a closure that
maps the output gradient to per-parent gradients.  Broadcasting ops reduce
gradients back to parent shapes with :func:`repro.tensor.tensor.unbroadcast`.
A two-operand op returns ``None`` for an operand that does not require
gradients (checked when the closure runs), so a constant operand such as a
dropout mask or the input features costs no adjoint product.

The sparse-dense product :func:`spmm` accepts a *constant* ``scipy.sparse``
matrix on the left (graph adjacency matrices never require gradients in this
codebase) and a dense tensor on the right; its adjoint is ``A.T @ grad``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.tensor.dtype import get_default_dtype
from repro.tensor.tensor import Tensor, as_tensor, unbroadcast

__all__ = [
    "add",
    "sub",
    "neg",
    "mul",
    "div",
    "power",
    "matmul",
    "spmm",
    "relu",
    "leaky_relu",
    "sigmoid",
    "tanh",
    "exp",
    "log",
    "sqrt",
    "absolute",
    "maximum",
    "squared_distance",
    "sum",
    "mean",
    "reshape",
    "transpose",
    "index",
    "gather",
    "scatter_add",
    "dropout_mask",
]

# Above this many gathered rows the scatter adjoint routes through a sparse
# matmul (one CSR selection matrix transposed against the gradient), which is
# ~8x faster than ``np.add.at``'s unbuffered loop; below it the construction
# overhead is not worth it.
_SCATTER_SPMM_THRESHOLD = 4096


# --------------------------------------------------------------------- #
# arithmetic
# --------------------------------------------------------------------- #
def add(a, b) -> Tensor:
    """Elementwise ``a + b`` with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(grad):
        return (
            unbroadcast(grad, a.shape) if a.requires_grad else None,
            unbroadcast(grad, b.shape) if b.requires_grad else None,
        )

    return Tensor.from_op(out, (a, b), backward)


def neg(a) -> Tensor:
    """Elementwise negation."""
    a = as_tensor(a)

    def backward(grad):
        return (-grad,)

    return Tensor.from_op(-a.data, (a,), backward)


def sub(a, b) -> Tensor:
    """Elementwise ``a - b`` with broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data - b.data

    def backward(grad):
        return (
            unbroadcast(grad, a.shape) if a.requires_grad else None,
            unbroadcast(-grad, b.shape) if b.requires_grad else None,
        )

    return Tensor.from_op(out, (a, b), backward)


def mul(a, b) -> Tensor:
    """Elementwise product with broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backward(grad):
        return (
            unbroadcast(grad * b.data, a.shape) if a.requires_grad else None,
            unbroadcast(grad * a.data, b.shape) if b.requires_grad else None,
        )

    return Tensor.from_op(out, (a, b), backward)


def div(a, b) -> Tensor:
    """Elementwise quotient with broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def backward(grad):
        return (
            unbroadcast(grad / b.data, a.shape) if a.requires_grad else None,
            unbroadcast(-grad * a.data / (b.data**2), b.shape)
            if b.requires_grad
            else None,
        )

    return Tensor.from_op(out, (a, b), backward)


def power(a, exponent: float) -> Tensor:
    """Elementwise ``a ** exponent`` for a python-scalar exponent."""
    a = as_tensor(a)
    exponent = float(exponent)
    out = a.data**exponent

    def backward(grad):
        return (grad * exponent * a.data ** (exponent - 1.0),)

    return Tensor.from_op(out, (a,), backward)


def matmul(a, b) -> Tensor:
    """Dense matrix product of 1-D or 2-D operands.

    Covers matrix @ matrix, matrix @ vector, vector @ matrix and
    vector @ vector (a dot product).  The matrix partner of a 1-D operand
    gets an outer-product gradient; in the dot product each vector's
    gradient is the other vector scaled by the upstream gradient.  Only an
    operand that requires gradients gets one: a layer applied to constant
    features skips the ``(N, F_in)`` product nothing would read.
    """
    a, b = as_tensor(a), as_tensor(b)
    out = a.data @ b.data

    def backward(grad):
        x, y = a.data, b.data
        grad_a = grad_b = None
        if a.requires_grad:
            if y.ndim == 1:
                grad_a = np.outer(grad, y) if x.ndim == 2 else grad * y
            else:
                grad_a = grad @ y.T
        if b.requires_grad:
            if x.ndim == 1:
                grad_b = np.outer(x, grad) if y.ndim == 2 else grad * x
            else:
                grad_b = x.T @ grad
        return grad_a, grad_b

    return Tensor.from_op(out, (a, b), backward)


def spmm(matrix: sp.spmatrix, dense) -> Tensor:
    """Sparse @ dense product where ``matrix`` is a constant scipy matrix.

    Used for GNN message passing ``Â @ H``.  The adjoint with respect to the
    dense operand is ``Â.T @ grad`` (which equals ``Â @ grad`` for symmetric
    normalised adjacencies, but we do not assume symmetry).
    """
    dense = as_tensor(dense)
    matrix = _sparse_operand(matrix, dense.data.dtype)
    out = matrix @ dense.data

    def backward(grad):
        return (matrix.T @ grad,)

    return Tensor.from_op(out, (dense,), backward)


def _sparse_operand(matrix: sp.spmatrix, dtype) -> sp.csr_matrix:
    """A constant sparse matrix as CSR in the dense operand's ``dtype``.

    Block/adjacency matrices are float64 constants; casting them keeps
    float32 activations float32 instead of silently upcasting every
    message-passing product.  scipy's cast also sums duplicate entries, so
    every product that must match :func:`spmm` bit for bit casts here too.
    """
    matrix = matrix.tocsr()
    if matrix.dtype != dtype:
        matrix = matrix.astype(dtype)
    return matrix


# --------------------------------------------------------------------- #
# nonlinearities
# --------------------------------------------------------------------- #
def relu(a) -> Tensor:
    """Rectified linear unit ``max(a, 0)``."""
    a = as_tensor(a)
    mask = a.data > 0
    out = a.data * mask

    def backward(grad):
        return (grad * mask,)

    return Tensor.from_op(out, (a,), backward)


def leaky_relu(a, negative_slope: float = 0.2) -> Tensor:
    """Leaky ReLU with the given slope for negative inputs."""
    a = as_tensor(a)
    mask = a.data > 0
    # Cast the gate to the input dtype: np.where on python scalars yields
    # float64, which would silently upcast a float32 graph.
    scale = np.asarray(np.where(mask, 1.0, negative_slope), dtype=a.data.dtype)
    out = a.data * scale

    def backward(grad):
        return (grad * scale,)

    return Tensor.from_op(out, (a,), backward)


def sigmoid(a) -> Tensor:
    """Numerically stable logistic sigmoid."""
    a = as_tensor(a)
    x = a.data
    out = np.where(x >= 0, 1.0 / (1.0 + np.exp(-np.abs(x))), np.exp(-np.abs(x)) / (1.0 + np.exp(-np.abs(x))))

    def backward(grad):
        return (grad * out * (1.0 - out),)

    return Tensor.from_op(out, (a,), backward)


def tanh(a) -> Tensor:
    """Hyperbolic tangent."""
    a = as_tensor(a)
    out = np.tanh(a.data)

    def backward(grad):
        return (grad * (1.0 - out**2),)

    return Tensor.from_op(out, (a,), backward)


def exp(a) -> Tensor:
    """Elementwise exponential."""
    a = as_tensor(a)
    out = np.exp(a.data)

    def backward(grad):
        return (grad * out,)

    return Tensor.from_op(out, (a,), backward)


def log(a) -> Tensor:
    """Elementwise natural logarithm."""
    a = as_tensor(a)
    out = np.log(a.data)

    def backward(grad):
        return (grad / a.data,)

    return Tensor.from_op(out, (a,), backward)


def sqrt(a) -> Tensor:
    """Elementwise square root."""
    a = as_tensor(a)
    out = np.sqrt(a.data)

    def backward(grad):
        return (grad * 0.5 / out,)

    return Tensor.from_op(out, (a,), backward)


def absolute(a) -> Tensor:
    """Elementwise absolute value (subgradient 0 at 0)."""
    a = as_tensor(a)
    out = np.abs(a.data)

    def backward(grad):
        return (grad * np.sign(a.data),)

    return Tensor.from_op(out, (a,), backward)


def maximum(a, b) -> Tensor:
    """Elementwise maximum; ties send the gradient to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data >= b.data
    out = np.where(take_a, a.data, b.data)

    def backward(grad):
        return (
            unbroadcast(grad * take_a, a.shape) if a.requires_grad else None,
            unbroadcast(grad * ~take_a, b.shape) if b.requires_grad else None,
        )

    return Tensor.from_op(out, (a, b), backward)


def squared_distance(a, b) -> Tensor:
    """Fused ``((a - b) ** 2).sum(axis=-1)`` with numpy broadcasting.

    Computes the squared L2 distance of batched row pairs in one op,
    avoiding the separate ``sub``/``power``/``sum`` intermediates (and their
    per-op closures) of the elementwise formulation.  (The fair loss itself
    goes further still — a norm expansion through :func:`spmm` that never
    materialises the pair tensor — but this is the general-purpose form.)
    The adjoint is ``±2 (a − b) · grad`` expanded over the reduced axis and
    unbroadcast to each operand's shape.
    """
    a, b = as_tensor(a), as_tensor(b)
    diff = a.data - b.data
    out = np.sum(diff**2, axis=-1)

    def backward(grad):
        g = 2.0 * np.expand_dims(np.asarray(grad), -1) * diff
        return (
            unbroadcast(g, a.shape) if a.requires_grad else None,
            unbroadcast(-g, b.shape) if b.requires_grad else None,
        )

    return Tensor.from_op(out, (a, b), backward)


# --------------------------------------------------------------------- #
# reductions
# --------------------------------------------------------------------- #
def sum(a, axis=None, keepdims: bool = False) -> Tensor:
    """Sum over ``axis`` (all axes when None)."""
    a = as_tensor(a)
    out = np.sum(a.data, axis=axis, keepdims=keepdims)

    def backward(grad):
        g = np.asarray(grad)
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, tuple(ax % a.data.ndim for ax in axes))
        return (np.broadcast_to(g, a.shape).copy(),)

    return Tensor.from_op(out, (a,), backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    """Arithmetic mean over ``axis`` (all axes when None)."""
    a = as_tensor(a)
    out = np.mean(a.data, axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))

    def backward(grad):
        g = np.asarray(grad) / count
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = np.expand_dims(g, tuple(ax % a.data.ndim for ax in axes))
        return (np.broadcast_to(g, a.shape).copy(),)

    return Tensor.from_op(out, (a,), backward)


# --------------------------------------------------------------------- #
# shape manipulation and indexing
# --------------------------------------------------------------------- #
def reshape(a, shape: tuple[int, ...]) -> Tensor:
    """Reshape; the gradient is reshaped back."""
    a = as_tensor(a)
    out = a.data.reshape(shape)

    def backward(grad):
        return (grad.reshape(a.shape),)

    return Tensor.from_op(out, (a,), backward)


def transpose(a, axes: tuple[int, ...] | None = None) -> Tensor:
    """Permute axes (reverse when ``axes`` is None)."""
    a = as_tensor(a)
    out = a.data.transpose(axes)

    def backward(grad):
        if axes is None:
            return (grad.transpose(),)
        return (grad.transpose(np.argsort(axes)),)

    return Tensor.from_op(out, (a,), backward)


def index(a, idx) -> Tensor:
    """General numpy indexing with scatter-add adjoint.

    Supports slices, integer arrays and boolean masks — anything accepted by
    ``ndarray.__getitem__`` where ``np.add.at`` is a valid adjoint.
    """
    a = as_tensor(a)
    out = a.data[idx]

    def backward(grad):
        full = np.zeros_like(a.data)
        np.add.at(full, idx, grad)
        return (full,)

    return Tensor.from_op(out, (a,), backward)


def _scatter_rows(indices: np.ndarray, grad, out_shape):
    """Sum gradient rows into their source rows (the adjoint of a row gather).

    ``indices`` has any shape; ``grad`` has shape ``indices.shape + rest``.
    Scatters of at least :data:`_SCATTER_SPMM_THRESHOLD` rows use
    ``Sᵀ @ grad`` with a constant CSR selection matrix; smaller ones
    ``np.add.at``.
    """
    flat_idx = indices.reshape(-1)
    if flat_idx.size < _SCATTER_SPMM_THRESHOLD:
        full = np.zeros(out_shape, dtype=grad.dtype)
        np.add.at(full, indices, grad)
        return full
    flat_grad = np.ascontiguousarray(grad).reshape(flat_idx.size, -1)
    selection = sp.csr_matrix(
        (
            np.ones(flat_idx.size, dtype=grad.dtype),
            flat_idx,
            np.arange(flat_idx.size + 1),
        ),
        shape=(flat_idx.size, out_shape[0]),
    )
    return (selection.T @ flat_grad).reshape(out_shape)


def gather(a, row_indices) -> Tensor:
    """Select rows along axis 0 (``a[row_indices]``); duplicates allowed.

    ``row_indices`` may have any shape: an ``(I, N, K)`` index into an
    ``(N, d)`` matrix returns an ``(I, N, K, d)`` tensor (the batched gather
    the fused fair loss relies on).  The adjoint scatter-adds every selected
    copy back into its source row.
    """
    a = as_tensor(a)
    row_indices = np.asarray(row_indices, dtype=np.int64)
    out = a.data[row_indices]

    def backward(grad):
        return (_scatter_rows(row_indices, grad, a.shape),)

    return Tensor.from_op(out, (a,), backward)


def scatter_add(a, row_indices, num_rows: int) -> Tensor:
    """Sum rows of ``a`` into ``num_rows`` buckets given by ``row_indices``.

    The adjoint of :func:`gather`: ``out[j] = sum_{i: idx[i]==j} a[i]``.
    Used for edge-to-node aggregation in attention layers.
    """
    a = as_tensor(a)
    row_indices = np.asarray(row_indices, dtype=np.int64)
    out_shape = (num_rows,) + a.shape[1:]
    out = np.zeros(out_shape, dtype=a.data.dtype)
    np.add.at(out, row_indices, a.data)

    def backward(grad):
        return (grad[row_indices],)

    return Tensor.from_op(out, (a,), backward)


def dropout_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator):
    """Sample an inverted-dropout mask (scaled keep mask) from the numpy ``rng``."""
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    return (rng.random(shape) < keep).astype(get_default_dtype()) / keep
