"""Differentiable operations for :class:`repro.tensor.Tensor`.

Every function takes tensors (or array-likes, which are promoted to constant
tensors), computes the forward value against the array namespace of
:func:`repro.tensor.backend.get_backend` (``xp`` below is literally the
``numpy`` module, so every call is the direct-numpy one), and registers a
closure that maps the output gradient to per-parent gradients.  Broadcasting
ops reduce gradients back to parent shapes with
:func:`repro.tensor.tensor.unbroadcast`.

Index bookkeeping (axis permutations, concat offsets, integer index arrays)
is plain numpy; only the floating-point math routes through the seam.

The sparse-dense product :func:`spmm` accepts a *constant* ``scipy.sparse``
matrix on the left (graph adjacency matrices never require gradients in this
codebase) and a dense tensor on the right; its adjoint is ``A.T @ grad``.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.tensor.backend import _SCATTER_SPMM_THRESHOLD, get_backend
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
    "where",
    "squared_distance",
    "sum",
    "mean",
    "reshape",
    "expand_dims",
    "transpose",
    "index",
    "gather",
    "scatter_add",
    "concat",
    "softmax",
    "log_softmax",
    "logsumexp",
    "dropout_mask",
]


# --------------------------------------------------------------------- #
# arithmetic
# --------------------------------------------------------------------- #
def add(a, b) -> Tensor:
    """Elementwise ``a + b`` with numpy broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data + b.data

    def backward(grad):
        return unbroadcast(grad, a.shape), unbroadcast(grad, b.shape)

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
        return unbroadcast(grad, a.shape), unbroadcast(-grad, b.shape)

    return Tensor.from_op(out, (a, b), backward)


def mul(a, b) -> Tensor:
    """Elementwise product with broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data * b.data

    def backward(grad):
        return (
            unbroadcast(grad * b.data, a.shape),
            unbroadcast(grad * a.data, b.shape),
        )

    return Tensor.from_op(out, (a, b), backward)


def div(a, b) -> Tensor:
    """Elementwise quotient with broadcasting."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data / b.data

    def backward(grad):
        return (
            unbroadcast(grad / b.data, a.shape),
            unbroadcast(-grad * a.data / (b.data**2), b.shape),
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
    """Dense matrix product (2-D @ 2-D, or 2-D @ 1-D)."""
    a, b = as_tensor(a), as_tensor(b)
    out = a.data @ b.data

    def backward(grad):
        backend = get_backend()
        if b.data.ndim == 1:
            grad_a = (
                backend.xp.outer(grad, b.data) if a.data.ndim == 2 else grad * b.data
            )
            grad_b = backend.transpose(a.data) @ grad
        else:
            grad_a = grad @ backend.transpose(b.data)
            grad_b = backend.transpose(a.data) @ grad
        return grad_a, grad_b

    return Tensor.from_op(out, (a, b), backward)


def spmm(matrix: sp.spmatrix, dense) -> Tensor:
    """Sparse @ dense product where ``matrix`` is a constant scipy matrix.

    Used for GNN message passing ``Â @ H``.  The adjoint with respect to the
    dense operand is ``Â.T @ grad`` (which equals ``Â @ grad`` for symmetric
    normalised adjacencies, but we do not assume symmetry).
    """
    dense = as_tensor(dense)
    backend = get_backend()
    out, cast_matrix = backend.spmm(matrix, dense.data)

    def backward(grad):
        return (backend.spmm_adjoint(cast_matrix, grad),)

    return Tensor.from_op(out, (dense,), backward)


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
    backend = get_backend()
    mask = a.data > 0
    # Cast the gate to the input dtype: xp.where on python scalars yields
    # float64, which would silently upcast a float32 graph.
    scale = backend.asarray(
        backend.xp.where(mask, 1.0, negative_slope),
        dtype=backend.np_dtype(a.data),
    )
    out = a.data * scale

    def backward(grad):
        return (grad * scale,)

    return Tensor.from_op(out, (a,), backward)


def sigmoid(a) -> Tensor:
    """Numerically stable logistic sigmoid."""
    a = as_tensor(a)
    xp = get_backend().xp
    x = a.data
    out = xp.where(x >= 0, 1.0 / (1.0 + xp.exp(-xp.abs(x))), xp.exp(-xp.abs(x)) / (1.0 + xp.exp(-xp.abs(x))))

    def backward(grad):
        return (grad * out * (1.0 - out),)

    return Tensor.from_op(out, (a,), backward)


def tanh(a) -> Tensor:
    """Hyperbolic tangent."""
    a = as_tensor(a)
    out = get_backend().xp.tanh(a.data)

    def backward(grad):
        return (grad * (1.0 - out**2),)

    return Tensor.from_op(out, (a,), backward)


def exp(a) -> Tensor:
    """Elementwise exponential."""
    a = as_tensor(a)
    out = get_backend().xp.exp(a.data)

    def backward(grad):
        return (grad * out,)

    return Tensor.from_op(out, (a,), backward)


def log(a) -> Tensor:
    """Elementwise natural logarithm."""
    a = as_tensor(a)
    out = get_backend().xp.log(a.data)

    def backward(grad):
        return (grad / a.data,)

    return Tensor.from_op(out, (a,), backward)


def sqrt(a) -> Tensor:
    """Elementwise square root."""
    a = as_tensor(a)
    out = get_backend().xp.sqrt(a.data)

    def backward(grad):
        return (grad * 0.5 / out,)

    return Tensor.from_op(out, (a,), backward)


def absolute(a) -> Tensor:
    """Elementwise absolute value (subgradient 0 at 0)."""
    a = as_tensor(a)
    xp = get_backend().xp
    out = xp.abs(a.data)

    def backward(grad):
        return (grad * xp.sign(a.data),)

    return Tensor.from_op(out, (a,), backward)


def maximum(a, b) -> Tensor:
    """Elementwise maximum; ties send the gradient to the first argument."""
    a, b = as_tensor(a), as_tensor(b)
    take_a = a.data >= b.data
    out = get_backend().xp.where(take_a, a.data, b.data)

    def backward(grad):
        return (
            unbroadcast(grad * take_a, a.shape),
            unbroadcast(grad * ~take_a, b.shape),
        )

    return Tensor.from_op(out, (a, b), backward)


def where(condition, a, b) -> Tensor:
    """Select ``a`` where ``condition`` else ``b``; condition is constant."""
    a, b = as_tensor(a), as_tensor(b)
    xp = get_backend().xp
    condition = xp.asarray(condition, dtype=bool)
    out = xp.where(condition, a.data, b.data)

    def backward(grad):
        return (
            unbroadcast(grad * condition, a.shape),
            unbroadcast(grad * ~condition, b.shape),
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
    xp = get_backend().xp
    diff = a.data - b.data
    out = xp.sum(diff**2, axis=-1)

    def backward(grad):
        g = 2.0 * xp.expand_dims(xp.asarray(grad), -1) * diff
        return unbroadcast(g, a.shape), unbroadcast(-g, b.shape)

    return Tensor.from_op(out, (a, b), backward)


# --------------------------------------------------------------------- #
# reductions
# --------------------------------------------------------------------- #
def sum(a, axis=None, keepdims: bool = False) -> Tensor:
    """Sum over ``axis`` (all axes when None)."""
    a = as_tensor(a)
    xp = get_backend().xp
    out = xp.sum(a.data, axis=axis, keepdims=keepdims)

    def backward(grad):
        g = xp.asarray(grad)
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = xp.expand_dims(g, tuple(ax % a.data.ndim for ax in axes))
        return (get_backend().copy(xp.broadcast_to(g, a.shape)),)

    return Tensor.from_op(out, (a,), backward)


def mean(a, axis=None, keepdims: bool = False) -> Tensor:
    """Arithmetic mean over ``axis`` (all axes when None)."""
    a = as_tensor(a)
    xp = get_backend().xp
    out = xp.mean(a.data, axis=axis, keepdims=keepdims)
    if axis is None:
        count = a.size
    else:
        axes = axis if isinstance(axis, tuple) else (axis,)
        count = int(np.prod([a.data.shape[ax] for ax in axes]))

    def backward(grad):
        g = xp.asarray(grad) / count
        if axis is not None and not keepdims:
            axes = axis if isinstance(axis, tuple) else (axis,)
            g = xp.expand_dims(g, tuple(ax % a.data.ndim for ax in axes))
        return (get_backend().copy(xp.broadcast_to(g, a.shape)),)

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


def expand_dims(a, axis) -> Tensor:
    """Insert length-1 axes (``np.expand_dims``); the gradient is squeezed back."""
    a = as_tensor(a)
    out = get_backend().xp.expand_dims(a.data, axis)

    def backward(grad):
        return (grad.reshape(a.shape),)

    return Tensor.from_op(out, (a,), backward)


def transpose(a, axes: tuple[int, ...] | None = None) -> Tensor:
    """Permute axes (reverse when ``axes`` is None)."""
    a = as_tensor(a)
    backend = get_backend()
    out = backend.transpose(a.data, axes)

    def backward(grad):
        if axes is None:
            return (backend.transpose(grad),)
        inverse = np.argsort(axes)
        return (backend.transpose(grad, inverse),)

    return Tensor.from_op(out, (a,), backward)


def index(a, idx) -> Tensor:
    """General numpy indexing with scatter-add adjoint.

    Supports slices, integer arrays and boolean masks — anything accepted by
    ``ndarray.__getitem__`` where ``np.add.at`` is a valid adjoint.
    """
    a = as_tensor(a)
    out = a.data[idx]

    def backward(grad):
        backend = get_backend()
        full = backend.xp.zeros_like(a.data)
        backend.index_add(full, idx, grad)
        return (full,)

    return Tensor.from_op(out, (a,), backward)


def _scatter_rows(indices: np.ndarray, grad, out_shape):
    """Sum gradient rows into their source rows (the adjoint of a row gather).

    ``indices`` has any shape; ``grad`` has shape ``indices.shape + rest``.
    Large scatters use ``Sᵀ @ grad`` with a constant CSR selection matrix
    (see :data:`repro.tensor.backend._SCATTER_SPMM_THRESHOLD`); the routing
    lives on the backend, behind the seam.
    """
    return get_backend().scatter_rows(indices, grad, out_shape)


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
        return (get_backend().scatter_rows(row_indices, grad, a.shape),)

    return Tensor.from_op(out, (a,), backward)


def scatter_add(a, row_indices, num_rows: int) -> Tensor:
    """Sum rows of ``a`` into ``num_rows`` buckets given by ``row_indices``.

    The adjoint of :func:`gather`: ``out[j] = sum_{i: idx[i]==j} a[i]``.
    Used for edge-to-node aggregation in attention layers.
    """
    a = as_tensor(a)
    backend = get_backend()
    row_indices = np.asarray(row_indices, dtype=np.int64)
    out_shape = (num_rows,) + a.shape[1:]
    out = backend.xp.zeros(out_shape, dtype=a.data.dtype)
    backend.index_add(out, row_indices, a.data)

    def backward(grad):
        return (grad[row_indices],)

    return Tensor.from_op(out, (a,), backward)


def concat(tensors, axis: int = 0) -> Tensor:
    """Concatenate tensors along ``axis``."""
    tensors = [as_tensor(t) for t in tensors]
    out = get_backend().xp.concatenate([t.data for t in tensors], axis=axis)
    sizes = [t.data.shape[axis] for t in tensors]
    offsets = np.cumsum([0] + sizes)

    def backward(grad):
        pieces = []
        slicer: list = [slice(None)] * grad.ndim
        for start, stop in zip(offsets[:-1], offsets[1:]):
            slicer[axis] = slice(start, stop)
            pieces.append(grad[tuple(slicer)])
        return tuple(pieces)

    return Tensor.from_op(out, tuple(tensors), backward)


# --------------------------------------------------------------------- #
# softmax family (numerically stable)
# --------------------------------------------------------------------- #
def logsumexp(a, axis: int = -1, keepdims: bool = False) -> Tensor:
    """Stable ``log(sum(exp(a)))`` along ``axis``."""
    a = as_tensor(a)
    xp = get_backend().xp
    x = a.data
    xmax = xp.max(x, axis=axis, keepdims=True)
    shifted = xp.exp(x - xmax)
    total = xp.sum(shifted, axis=axis, keepdims=True)
    out = xp.log(total) + xmax
    softmax_vals = shifted / total
    if not keepdims:
        out = xp.squeeze(out, axis=axis)

    def backward(grad):
        g = xp.asarray(grad)
        if not keepdims:
            g = xp.expand_dims(g, axis)
        return (g * softmax_vals,)

    return Tensor.from_op(out, (a,), backward)


def softmax(a, axis: int = -1) -> Tensor:
    """Stable softmax along ``axis``."""
    a = as_tensor(a)
    xp = get_backend().xp
    x = a.data
    shifted = xp.exp(x - xp.max(x, axis=axis, keepdims=True))
    out = shifted / xp.sum(shifted, axis=axis, keepdims=True)

    def backward(grad):
        inner = xp.sum(grad * out, axis=axis, keepdims=True)
        return (out * (grad - inner),)

    return Tensor.from_op(out, (a,), backward)


def log_softmax(a, axis: int = -1) -> Tensor:
    """Stable log-softmax along ``axis``."""
    a = as_tensor(a)
    xp = get_backend().xp
    x = a.data
    xmax = xp.max(x, axis=axis, keepdims=True)
    shifted = x - xmax
    lse = xp.log(xp.sum(xp.exp(shifted), axis=axis, keepdims=True))
    out = shifted - lse
    softmax_vals = xp.exp(out)

    def backward(grad):
        return (grad - softmax_vals * xp.sum(grad, axis=axis, keepdims=True),)

    return Tensor.from_op(out, (a,), backward)


def dropout_mask(shape: tuple[int, ...], rate: float, rng: np.random.Generator):
    """Sample an inverted-dropout mask (scaled keep mask) as a constant array.

    The mask is sampled from the numpy ``rng`` and handed to the backend.
    """
    if not 0.0 <= rate < 1.0:
        raise ValueError(f"dropout rate must be in [0, 1), got {rate}")
    keep = 1.0 - rate
    mask = (rng.random(shape) < keep).astype(get_default_dtype()) / keep
    return get_backend().asarray(mask)
