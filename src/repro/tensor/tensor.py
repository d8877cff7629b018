"""Core :class:`Tensor` type with reverse-mode automatic differentiation.

The design follows the classic tape-free "define-by-run" pattern: every
operation produces a new :class:`Tensor` that remembers its parents and a
closure computing the local vector-Jacobian product.  Calling
:meth:`Tensor.backward` on a scalar output topologically sorts the implicit
graph and accumulates gradients into every reachable tensor that has
``requires_grad=True``.

Data lives in numpy arrays, coerced at construction to the process
default dtype (see :mod:`repro.tensor.dtype`); ``float64`` unless a trainer
opted into a ``float32`` scope; float64 keeps the finite-difference gradient
checks in the test-suite tight.
"""

from __future__ import annotations

import contextlib
from typing import Callable, Iterator, Sequence

import numpy as np

from repro.tensor.dtype import get_default_dtype

__all__ = ["Tensor", "no_grad", "is_grad_enabled"]

_GRAD_ENABLED = True


@contextlib.contextmanager
def no_grad() -> Iterator[None]:
    """Context manager that disables graph construction (like torch.no_grad)."""
    global _GRAD_ENABLED
    previous = _GRAD_ENABLED
    _GRAD_ENABLED = False
    try:
        yield
    finally:
        _GRAD_ENABLED = previous


def is_grad_enabled() -> bool:
    """Return whether new operations will be recorded for differentiation."""
    return _GRAD_ENABLED


def _as_array(value):
    """Coerce python scalars / lists / arrays to a default-dtype array."""
    return np.asarray(value, dtype=get_default_dtype())


def unbroadcast(grad, shape: tuple[int, ...]):
    """Reduce ``grad`` so its shape matches ``shape`` after broadcasting.

    numpy broadcasting either prepends axes or stretches size-1 axes; the
    adjoint of broadcasting is summation over exactly those axes.
    """
    if grad.shape == shape:
        return grad
    # Sum over prepended axes.
    extra = grad.ndim - len(shape)
    if extra > 0:
        grad = np.sum(grad, axis=tuple(range(extra)))
    # Sum over stretched size-1 axes.
    axes = tuple(i for i, n in enumerate(shape) if n == 1 and grad.shape[i] != 1)
    if axes:
        grad = np.sum(grad, axis=axes, keepdims=True)
    return grad.reshape(shape)


class Tensor:
    """A numpy-backed array node in an autodiff graph.

    Parameters
    ----------
    data:
        Array-like payload; converted to the default dtype
        (:func:`repro.tensor.dtype.get_default_dtype`).
    requires_grad:
        If True, gradients are accumulated into :attr:`grad` during
        :meth:`backward`.
    parents:
        Internal — tensors this node was computed from.
    backward_fn:
        Internal — closure mapping the output gradient to a tuple of parent
        gradients (entries may be ``None`` for non-differentiable parents).
    name:
        Optional label used in ``repr`` for debugging.
    """

    __slots__ = ("data", "requires_grad", "grad", "_parents", "_backward_fn", "name")

    def __init__(
        self,
        data,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fn: Callable[[np.ndarray], tuple] | None = None,
        name: str | None = None,
    ) -> None:
        self.data = _as_array(data)
        self.requires_grad = bool(requires_grad)
        self.grad: np.ndarray | None = None
        self._parents: tuple[Tensor, ...] = tuple(parents)
        self._backward_fn = backward_fn
        self.name = name

    # ------------------------------------------------------------------ #
    # construction helpers
    # ------------------------------------------------------------------ #
    @staticmethod
    def zeros(*shape: int, requires_grad: bool = False) -> "Tensor":
        """Tensor of zeros with the given shape."""
        return Tensor(np.zeros(shape), requires_grad=requires_grad)

    @staticmethod
    def ones(*shape: int, requires_grad: bool = False) -> "Tensor":
        """Tensor of ones with the given shape."""
        return Tensor(np.ones(shape), requires_grad=requires_grad)

    @classmethod
    def _wrap(
        cls,
        data,
        requires_grad: bool = False,
        parents: Sequence["Tensor"] = (),
        backward_fn: Callable[[np.ndarray], tuple] | None = None,
    ) -> "Tensor":
        """Wrap an existing array *without* the default-dtype recast.

        ``__init__`` deliberately coerces to :func:`get_default_dtype` so
        user-facing construction is predictable; internal paths that already
        hold a correctly-typed array (op outputs, ``detach``/``copy``) must
        not re-coerce, or a float32 model handled outside its training
        ``dtype_scope`` would silently upcast to float64.
        """
        obj = cls.__new__(cls)
        obj.data = data
        obj.requires_grad = bool(requires_grad)
        obj.grad = None
        obj._parents = tuple(parents)
        obj._backward_fn = backward_fn
        obj.name = None
        return obj

    @staticmethod
    def from_op(
        data: np.ndarray,
        parents: Sequence["Tensor"],
        backward_fn: Callable[[np.ndarray], tuple],
    ) -> "Tensor":
        """Build the result tensor of an op, respecting the no_grad context.

        The op output keeps its own dtype (ops derive dtypes from their
        inputs); only scalar outputs of reductions are normalised from numpy
        scalars to 0-d arrays.
        """
        data = np.asarray(data)
        if _GRAD_ENABLED and any(p.requires_grad for p in parents):
            return Tensor._wrap(
                data, requires_grad=True, parents=parents, backward_fn=backward_fn
            )
        return Tensor._wrap(data)

    # ------------------------------------------------------------------ #
    # basic introspection
    # ------------------------------------------------------------------ #
    @property
    def shape(self) -> tuple[int, ...]:
        """Shape of the underlying array."""
        return self.data.shape

    @property
    def ndim(self) -> int:
        """Number of dimensions of the underlying array."""
        return self.data.ndim

    @property
    def size(self) -> int:
        """Total number of elements."""
        return int(np.prod(self.data.shape, dtype=np.int64))

    @property
    def T(self) -> "Tensor":
        """Transpose (reverses all axes), differentiable."""
        return self.transpose()

    def __len__(self) -> int:
        return len(self.data)

    def __repr__(self) -> str:
        label = f" name={self.name!r}" if self.name else ""
        grad = ", requires_grad=True" if self.requires_grad else ""
        return f"Tensor(shape={self.shape}{grad}{label})"

    def numpy(self) -> np.ndarray:
        """Return the raw ndarray (shared, not copied)."""
        return self.data

    def item(self) -> float:
        """Return the value of a single-element tensor as a python float.

        Raises ``ValueError`` on multi-element tensors (numpy's conversion
        ``TypeError`` buried the actual mistake — calling ``item()`` on a
        batch).
        """
        if self.size != 1:
            raise ValueError(
                f"item() requires a single-element tensor, got shape {self.shape}"
            )
        return float(self.data.reshape(-1)[0])

    def detach(self) -> "Tensor":
        """Return a new tensor sharing data but cut from the graph.

        The source dtype is preserved: detaching a float32 model outside its
        training ``dtype_scope`` must not upcast it to float64.
        """
        return Tensor._wrap(self.data)

    def copy(self) -> "Tensor":
        """Return a graph-detached deep copy (dtype preserved, see detach)."""
        return Tensor._wrap(self.data.copy())

    # ------------------------------------------------------------------ #
    # autodiff driver
    # ------------------------------------------------------------------ #
    def zero_grad(self) -> None:
        """Reset the accumulated gradient."""
        self.grad = None

    def backward(self, grad: np.ndarray | float | None = None) -> None:
        """Run reverse-mode differentiation from this tensor.

        Parameters
        ----------
        grad:
            Seed gradient.  Defaults to 1.0, which requires this tensor to be
            a scalar.
        """
        if grad is None:
            if self.size != 1:
                raise ValueError(
                    "backward() without an explicit gradient requires a scalar "
                    f"output, got shape {self.shape}"
                )
            grad = np.ones_like(self.data)
        # Seed in the *output's* dtype, not the scope default: a float32
        # graph differentiated outside its dtype_scope must stay float32.
        grad = np.asarray(grad, dtype=self.data.dtype)
        if grad.shape != self.data.shape:
            grad = np.broadcast_to(grad, self.data.shape).copy()

        order = self._topological_order()
        grads: dict[int, np.ndarray] = {id(self): grad}
        for node in order:
            node_grad = grads.pop(id(node), None)
            if node_grad is None:
                continue
            if node.requires_grad and node._backward_fn is None:
                # Leaf tensor: accumulate.
                if node.grad is None:
                    node.grad = np.asarray(node_grad).copy()
                else:
                    node.grad = node.grad + node_grad
                continue
            if node._backward_fn is None:
                continue
            parent_grads = node._backward_fn(node_grad)
            for parent, pgrad in zip(node._parents, parent_grads):
                if pgrad is None or not parent.requires_grad:
                    continue
                key = id(parent)
                if key in grads:
                    grads[key] = grads[key] + pgrad
                else:
                    grads[key] = pgrad
            # Deliberately leaf-only: interior nodes never populate .grad
            # (there is no retain_grad); pinned by the test-suite.

    def _topological_order(self) -> list["Tensor"]:
        """Return nodes reachable from self in reverse topological order.

        The walk follows only parents that require gradients: a constant
        parent (input features, a dropout mask, wrapped labels) never
        receives a gradient, and :meth:`from_op` gives it no parents of its
        own, so dropping it leaves the relative order of every other node,
        and with it each gradient's accumulation order, unchanged.
        """
        visited: set[int] = set()
        order: list[Tensor] = []
        stack: list[tuple[Tensor, bool]] = [(self, False)]
        while stack:
            node, processed = stack.pop()
            if processed:
                order.append(node)
                continue
            if id(node) in visited:
                continue
            visited.add(id(node))
            stack.append((node, True))
            for parent in node._parents:
                if parent.requires_grad and id(parent) not in visited:
                    stack.append((parent, False))
        order.reverse()
        return order

    # ------------------------------------------------------------------ #
    # operator sugar — implementations live in repro.tensor.ops
    # ------------------------------------------------------------------ #
    def __add__(self, other):
        from repro.tensor import ops

        return ops.add(self, other)

    __radd__ = __add__

    def __neg__(self):
        from repro.tensor import ops

        return ops.neg(self)

    def __sub__(self, other):
        from repro.tensor import ops

        return ops.sub(self, other)

    def __rsub__(self, other):
        from repro.tensor import ops

        return ops.sub(other, self)

    def __mul__(self, other):
        from repro.tensor import ops

        return ops.mul(self, other)

    __rmul__ = __mul__

    def __truediv__(self, other):
        from repro.tensor import ops

        return ops.div(self, other)

    def __rtruediv__(self, other):
        from repro.tensor import ops

        return ops.div(other, self)

    def __pow__(self, exponent):
        from repro.tensor import ops

        return ops.power(self, exponent)

    def __matmul__(self, other):
        from repro.tensor import ops

        return ops.matmul(self, other)

    def __getitem__(self, index):
        from repro.tensor import ops

        return ops.index(self, index)

    # reductions / shapes as methods
    def sum(self, axis=None, keepdims: bool = False):
        from repro.tensor import ops

        return ops.sum(self, axis=axis, keepdims=keepdims)

    def mean(self, axis=None, keepdims: bool = False):
        from repro.tensor import ops

        return ops.mean(self, axis=axis, keepdims=keepdims)

    def reshape(self, *shape):
        from repro.tensor import ops

        if len(shape) == 1 and isinstance(shape[0], (tuple, list)):
            shape = tuple(shape[0])
        return ops.reshape(self, shape)

    def transpose(self, axes: tuple[int, ...] | None = None):
        from repro.tensor import ops

        return ops.transpose(self, axes)

    def relu(self):
        from repro.tensor import ops

        return ops.relu(self)

    def sigmoid(self):
        from repro.tensor import ops

        return ops.sigmoid(self)

    def tanh(self):
        from repro.tensor import ops

        return ops.tanh(self)

    def exp(self):
        from repro.tensor import ops

        return ops.exp(self)

    def log(self):
        from repro.tensor import ops

        return ops.log(self)

    def sqrt(self):
        from repro.tensor import ops

        return ops.sqrt(self)

    def abs(self):
        from repro.tensor import ops

        return ops.absolute(self)


def as_tensor(value) -> Tensor:
    """Coerce ``value`` to a :class:`Tensor` (no copy when already one)."""
    if isinstance(value, Tensor):
        return value
    return Tensor(value)

