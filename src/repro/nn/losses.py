"""Classification and distance losses.

The binary cross-entropy is computed directly from logits with the
log-sum-exp trick (``log(1 + e^z) = max(z, 0) + log(1 + e^{-|z|})``) so it is
stable for large-magnitude logits — this matters because fairness
regularisation sometimes pushes the classifier head to extreme confidence.

:func:`binary_cross_entropy_with_logits` is a *fused* kernel: one graph node
with an analytic adjoint instead of the seven-op chain the formula naively
builds.  The chain allocated seven output tensors, seven closures, and — on
the way back — a gradient buffer per edge including full-size products for
constant parents that were then discarded.  The fused form computes the same
floating-point operations in the same order (value and gradient are
bit-identical to the composed graph; pinned by the test-suite), but touches
each array once.  :func:`binary_cross_entropy_with_logits_reference` keeps
the composed graph as the oracle for those pins.
"""

from __future__ import annotations

import numpy as np

from repro.tensor import Tensor
from repro.tensor import ops
from repro.tensor.dtype import get_default_dtype
from repro.tensor.tensor import as_tensor

__all__ = [
    "binary_cross_entropy_with_logits",
    "binary_cross_entropy_with_logits_reference",
    "cross_entropy",
    "mse_loss",
    "l2_distance",
]


def _bce_constants(logits: Tensor, targets, weights):
    """Coerce targets/weights exactly as the composed graph did.

    Targets are first matched to the logits dtype, then (like any constant
    entering the graph) to the scope default; weights additionally validate
    against the silent-NaN case of an all-zero weight vector.
    """
    targets = np.asarray(
        targets.data if isinstance(targets, Tensor) else targets,
        dtype=logits.data.dtype,
    )
    y = np.asarray(targets, dtype=get_default_dtype())
    if weights is None:
        return y, None, None
    w = np.asarray(weights, dtype=logits.data.dtype)
    wsum = float(w.sum())
    if wsum == 0.0:
        raise ValueError(
            "binary_cross_entropy_with_logits: weights sum to zero — the "
            "weighted mean is undefined (all-zero weight vector?)"
        )
    w_arr = np.asarray(w, dtype=get_default_dtype())
    c_arr = np.asarray(wsum, dtype=get_default_dtype())
    return y, w_arr, c_arr


def binary_cross_entropy_with_logits(
    logits: Tensor,
    targets,
    weights=None,
) -> Tensor:
    """Mean BCE between logits and 0/1 targets, Eq. (10) of the paper.

    Parameters
    ----------
    logits:
        Raw scores, any shape.
    targets:
        0/1 labels broadcastable to ``logits`` (constant).
    weights:
        Optional per-element constant weights (e.g. class-balancing); the
        loss is a weighted mean.  Raises ``ValueError`` when the weights sum
        to zero (previously a silent NaN loss).
    """
    logits = as_tensor(logits)
    y, w_arr, c_arr = _bce_constants(logits, targets, weights)

    # loss = max(z, 0) - z*y + log(1 + exp(-|z|)), fused into one node.
    z = logits.data
    zeros = np.zeros_like(z)
    take = z >= zeros
    relu_part = np.where(take, z, zeros)
    linear_part = z * y
    e = np.exp(-np.abs(z))
    one = np.asarray(1.0, dtype=get_default_dtype())
    denom = one + e
    # In-place accumulation into the relu_part buffer; the association
    # order (relu - linear) + log(denom) is unchanged, so the value stays
    # bit-identical to the composed graph while skipping two temporaries.
    per_element = relu_part
    per_element -= linear_part
    per_element += np.log(denom)
    if weights is None:
        count = int(np.prod(z.shape, dtype=np.int64))
        value = np.mean(per_element)
    else:
        value = np.sum(per_element * w_arr) / c_arr

    def backward(grad):
        # Upstream-gradient spreading, then the three contributions to z in
        # the composed graph's accumulation order: relu gate, linear term,
        # softplus chain.  Association order matters — float addition is not
        # associative and this backward is pinned bit-identical.
        if weights is None:
            g = np.asarray(grad) / count
        else:
            g = np.asarray(grad / c_arr)
        g = np.broadcast_to(g, z.shape).copy()
        if weights is not None:
            g *= w_arr
        # The composed accumulation is gz + (-g)·y + (-(g/denom)·e)·sign(z);
        # IEEE negation is exact and a + (-b) ≡ a - b bitwise, so the
        # subtract-in-place spelling below is bit-identical while avoiding
        # the composed graph's per-term temporaries.
        gz = g * take
        gz -= g * y
        chain = g / denom
        chain *= e
        chain *= np.sign(z)
        gz -= chain
        return (gz,)

    return Tensor.from_op(value, (logits,), backward)


def binary_cross_entropy_with_logits_reference(
    logits: Tensor,
    targets,
    weights=None,
) -> Tensor:
    """Composed-graph BCE — the oracle :func:`binary_cross_entropy_with_logits`
    is pinned bit-identical to (value and gradient)."""
    logits = as_tensor(logits)
    targets = np.asarray(
        targets.data if isinstance(targets, Tensor) else targets,
        dtype=logits.data.dtype,
    )
    zero = Tensor(np.zeros(logits.shape))
    relu_part = ops.maximum(logits, zero)
    linear_part = ops.mul(logits, Tensor(targets))
    softplus_part = ops.log(ops.add(1.0, ops.exp(ops.neg(ops.absolute(logits)))))
    per_element = ops.add(ops.sub(relu_part, linear_part), softplus_part)
    if weights is not None:
        w = np.asarray(weights, dtype=logits.data.dtype)
        if float(w.sum()) == 0.0:
            raise ValueError(
                "binary_cross_entropy_with_logits: weights sum to zero — "
                "the weighted mean is undefined (all examples masked out)"
            )
        weighted = ops.mul(per_element, Tensor(w))
        return ops.div(ops.sum(weighted), float(w.sum()))
    return ops.mean(per_element)


def cross_entropy(logits: Tensor, targets) -> Tensor:
    """Mean multi-class cross-entropy from raw logits and integer labels."""
    logits = as_tensor(logits)
    labels = np.asarray(
        targets.data if isinstance(targets, Tensor) else targets
    ).astype(np.int64)
    log_probs = ops.log_softmax(logits, axis=-1)
    picked = ops.index(log_probs, (np.arange(len(labels)), labels))
    return ops.neg(ops.mean(picked))


def mse_loss(prediction: Tensor, target) -> Tensor:
    """Mean squared error."""
    prediction = as_tensor(prediction)
    target = as_tensor(target)
    diff = ops.sub(prediction, target)
    return ops.mean(ops.power(diff, 2.0))


def l2_distance(a: Tensor, b: Tensor, axis: int = -1) -> Tensor:
    """Row-wise squared L2 distance ``||a - b||²`` (Eq. 33 of the paper).

    Returns a tensor of per-row distances; callers take the mean/sum they
    need.  Squared distance keeps the objective smooth, matching Eq. (33).
    """
    diff = ops.sub(a, b)
    return ops.sum(ops.power(diff, 2.0), axis=axis)
