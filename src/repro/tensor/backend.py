"""Array-API seam between the tensor engine and its array library.

Ops in :mod:`repro.tensor.ops` (and the layers, losses and optimisers built
on them) do not import numpy for their floating-point math; they ask
:func:`get_backend` for

* ``xp`` — a numpy-flavoured namespace (``xp.exp``, ``xp.where``,
  ``xp.sum(a, axis=..., keepdims=...)``, …) the forward/backward math is
  written against, and
* a handful of primitives with no uniform array-API spelling
  (:meth:`ArrayBackend.scatter_rows`, :meth:`ArrayBackend.index_add`,
  :meth:`ArrayBackend.spmm`) plus fused kernels
  (:meth:`ArrayBackend.adam_step`).

There is one backend, :class:`NumpyBackend`, whose ``xp`` is ``numpy``
itself, so every op executes the same ufunc calls a direct-numpy engine
would.  :class:`ArrayBackend` is the protocol a second array library would
implement; it comes back together with a way to select it and a measured
win over numpy.
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

__all__ = ["ArrayBackend", "NumpyBackend", "get_backend"]


# Above this many gathered rows the scatter adjoint routes through a sparse
# matmul (one CSR selection matrix transposed against the gradient), which is
# ~8x faster than ``np.add.at``'s unbuffered loop; below it the construction
# overhead is not worth it.
_SCATTER_SPMM_THRESHOLD = 4096


class ArrayBackend:
    """Protocol the tensor engine programs against.

    Subclasses provide a numpy-flavoured namespace ``xp`` plus the
    primitives below.  The base-class implementations of the *fused*
    kernels are generic ``xp`` compositions, so a new backend only has to
    override them when it has something faster (or more in-place) to offer.
    """

    name = "abstract"
    #: numpy-flavoured namespace (``numpy`` itself for :class:`NumpyBackend`).
    xp = None

    # ------------------------------------------------------------------ #
    # array construction / conversion
    # ------------------------------------------------------------------ #
    def asarray(self, value, dtype=None):
        """Coerce ``value`` to this backend's array type.

        ``dtype`` is a numpy dtype (or None to keep the source dtype for
        arrays already of this backend's type).
        """
        raise NotImplementedError

    def copy(self, array):
        """Deep copy of a backend array."""
        raise NotImplementedError

    def to_numpy(self, array) -> np.ndarray:
        """Convert a backend array to a numpy ndarray (may share memory)."""
        raise NotImplementedError

    def np_dtype(self, array) -> np.dtype:
        """The numpy dtype corresponding to a backend array's dtype."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # primitives without a uniform array-API spelling
    # ------------------------------------------------------------------ #
    def index_add(self, target, index, values) -> None:
        """In-place ``target[index] += values`` with duplicate accumulation
        (``np.add.at`` semantics; ``index`` is anything numpy fancy-indexing
        accepts for the numpy backend, an integer array elsewhere)."""
        raise NotImplementedError

    def scatter_rows(self, indices, grad, out_shape):
        """Sum gradient rows into their source rows (adjoint of a row gather).

        ``indices`` has any shape; ``grad`` has shape ``indices.shape +
        rest``; returns an array of ``out_shape``.
        """
        raise NotImplementedError

    def prepare_spmm(self, matrix: sp.spmatrix, dtype: np.dtype):
        """Convert a constant scipy sparse matrix to this backend's sparse
        representation at ``dtype``; the returned *handle* is opaque and
        reusable (the fused fair loss caches it across steps)."""
        raise NotImplementedError

    def spmm_apply(self, handle, dense):
        """``matrix @ dense`` for a handle from :meth:`prepare_spmm`."""
        raise NotImplementedError

    def spmm_adjoint(self, handle, grad):
        """Adjoint of :meth:`spmm_apply` w.r.t. the dense operand:
        ``matrix.T @ grad``."""
        raise NotImplementedError

    def spmm(self, matrix: sp.spmatrix, dense):
        """One-shot sparse @ dense; returns ``(product, handle)`` so the
        op's backward closure can reuse the prepared matrix."""
        handle = self.prepare_spmm(matrix, self.np_dtype(dense))
        return self.spmm_apply(handle, dense), handle

    def transpose(self, array, axes=None):
        """Permute axes (reverse when ``axes`` is None)."""
        raise NotImplementedError

    # ------------------------------------------------------------------ #
    # fused kernels
    # ------------------------------------------------------------------ #
    def adam_step(
        self,
        param,
        grad,
        m,
        v,
        lr: float,
        beta1: float,
        beta2: float,
        eps: float,
        bias1: float,
        bias2: float,
        weight_decay: float,
    ) -> None:
        """One fused, in-place Adam update of ``param`` (and state ``m, v``).

        Bit-identical to the composed update
        ``p -= lr * (m/bias1) / (sqrt(v/bias2) + eps)`` with
        ``m = β₁m + (1-β₁)g`` and ``v = β₂v + (1-β₂)g²``, but without the
        chain of full-size temporaries the composed spelling allocates.
        """
        if weight_decay:
            grad = grad + weight_decay * param
        m *= beta1
        m += (1.0 - beta1) * grad
        v *= beta2
        v += (1.0 - beta2) * (grad * grad)
        denom = self.xp.sqrt(v / bias2)
        denom += eps
        update = m / bias1
        update *= lr
        update /= denom
        param -= update


class NumpyBackend(ArrayBackend):
    """The one backend: ``xp`` *is* numpy, so every call is the same ufunc
    a direct-numpy engine would make — bit-identical by construction."""

    name = "numpy"
    xp = np

    def asarray(self, value, dtype=None):
        if isinstance(value, np.ndarray):
            if dtype is None or value.dtype == dtype:
                return value
            return value.astype(dtype)
        return np.asarray(value, dtype=dtype)

    def copy(self, array):
        return np.asarray(array).copy()

    def to_numpy(self, array) -> np.ndarray:
        return np.asarray(array)

    def np_dtype(self, array) -> np.dtype:
        return array.dtype

    def index_add(self, target, index, values) -> None:
        np.add.at(target, index, values)

    def scatter_rows(self, indices, grad, out_shape):
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

    def prepare_spmm(self, matrix: sp.spmatrix, dtype: np.dtype):
        matrix = matrix.tocsr()
        if matrix.dtype != dtype:
            # Block/adjacency matrices are float64 constants; casting them to
            # the operand dtype keeps float32 activations float32 instead of
            # silently upcasting every message-passing product.
            matrix = matrix.astype(dtype)
        return matrix

    def spmm_apply(self, handle, dense):
        return handle @ dense

    def spmm_adjoint(self, handle, grad):
        return handle.T @ grad

    def transpose(self, array, axes=None):
        return array.transpose(axes)


_NUMPY = NumpyBackend()


def get_backend() -> ArrayBackend:
    """The backend every tensor op executes on: the one numpy backend."""
    return _NUMPY
