"""A small reverse-mode automatic differentiation engine on top of numpy.

This package is the compute substrate for the whole reproduction: the paper's
experiments were run on PyTorch/PyG, which is unavailable here, so we provide
a from-scratch equivalent.  It supports exactly what graph neural networks
need:

* dense broadcasting arithmetic with correct gradient "unbroadcasting",
* ``matmul`` and sparse-dense ``spmm`` (scipy CSR adjacency @ dense features),
* a stable ``sigmoid``,
* row ``gather`` / ``scatter_add`` for counterfactual indexing and
  attention-style aggregation,
* reductions, elementwise non-linearities, reshaping.

The finite-difference ``gradcheck`` that certifies every op lives with the
other test oracles in ``tests/oracles.py``.

The public entry point is :class:`Tensor`; free functions mirror the method
API for a functional style.
"""

from repro.tensor.dtype import (
    dtype_scope,
    get_default_dtype,
    resolve_dtype,
    set_default_dtype,
)
from repro.tensor.tensor import Tensor, no_grad, is_grad_enabled
from repro.tensor.ops import (
    add,
    exp,
    gather,
    leaky_relu,
    log,
    matmul,
    maximum,
    mean,
    mul,
    relu,
    scatter_add,
    sigmoid,
    spmm,
    sqrt,
    sum as tsum,
    tanh,
)

__all__ = [
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "dtype_scope",
    "get_default_dtype",
    "resolve_dtype",
    "set_default_dtype",
    "add",
    "exp",
    "gather",
    "leaky_relu",
    "log",
    "matmul",
    "maximum",
    "mean",
    "mul",
    "relu",
    "scatter_add",
    "sigmoid",
    "spmm",
    "sqrt",
    "tsum",
    "tanh",
]
