"""Fair representation learning loss (Section III-E).

Given representations ``h`` and a counterfactual index, the regulariser pulls
every node's embedding towards the embeddings of its top-K counterfactuals:

.. math::

    D_i = \\frac{1}{N} Σ_v Σ_{k=1}^{K} ||h_v − h^k_{i,v}||_2^2
    \\qquad
    L_F = Σ_i λ_i · D_i

(Eq. 13–14; distances are squared L2, matching Eq. 33 of the convergence
analysis).  The per-attribute disparities ``D_i`` are also returned as
detached numpy values — they feed the λ update (Eq. 24).

:func:`fair_representation_loss` / :func:`fair_representation_loss_minibatch`
are **fused**: one constant CSR gather-sum over all ``(I·K, N)``
counterfactual pairs, one squared-distance expansion
(``n_v + n_cf − 2 h_v·h_cf``) and one masked per-attribute mean — a fixed
handful of tensor ops regardless of I and K, which is what the fine-tune
phase's wall-time scales with (≥5x over the loop at I=8, K=10, N=5000;
see ``benchmarks/bench_fairloss.py``).  The original ``I × K`` python loops
live in ``tests/oracles.py`` as the oracle the hypothesis parity harness
checks the fused path against (value and gradient to 1e-9).
"""

from __future__ import annotations

import numpy as np
import scipy.sparse as sp

from repro.core.counterfactual import CounterfactualIndex
from repro.tensor import Tensor
from repro.tensor import ops
from repro.tensor.dtype import get_default_dtype
from repro.tensor.ops import _scatter_rows, _sparse_operand

__all__ = [
    "fair_representation_loss",
    "fair_representation_loss_minibatch",
]


def _check_weights(weights, num_attrs: int) -> np.ndarray:
    weights = np.asarray(weights, dtype=np.float64).reshape(-1)
    if weights.shape != (num_attrs,):
        raise ValueError(f"expected {num_attrs} weights, got shape {weights.shape}")
    return weights


def _masked_mean_scale(valid: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Per-attribute valid counts and the zero-safe ``valid / count`` scale.

    Attributes without a single valid (node, counterfactual) pair get an
    all-zero scale row, so they contribute exactly zero value *and* zero
    gradient — matching the reference loop's ``continue``.
    """
    counts = valid.sum(axis=1)
    inverse = np.divide(
        1.0, counts, out=np.zeros_like(counts), where=counts > 0
    )
    return counts, valid * inverse[:, None]


def _gather_sum_matrix(indices: np.ndarray, num_rows: int) -> sp.csr_matrix:
    """The float64 ``(M·B, num_rows)`` CSR that sums each row's K targets.

    Row ``m·B + v`` holds a one at every ``indices[m, v, k]``.  Callers
    cast it with :func:`repro.tensor.ops._sparse_operand`, as
    :func:`repro.tensor.ops.spmm` casts its operand: the cast merges
    repeated targets, so a matrix built directly in float32 would sum in a
    different order and break the kernel's float32 bit-parity.
    """
    top_k = indices.shape[-1]
    return sp.csr_matrix(
        (
            np.ones(indices.size),
            indices.reshape(-1),
            np.arange(0, indices.size + 1, top_k),
        ),
        shape=(indices.size // top_k, num_rows),
    )


def _fused_pair_disparities(
    representations: Tensor,
    indices: np.ndarray,
    anchor_rows: np.ndarray,
    scale: np.ndarray,
) -> Tensor:
    """Per-attribute masked sums of top-K squared distances, fused.

    ``indices`` is an ``(M, B, K)`` array of *local* rows into
    ``representations``; ``anchor_rows`` the ``(B,)`` local rows of the
    anchors; ``scale`` the constant ``(M, B)`` mask (``valid / count``).
    Returns the ``(M,)`` tensor ``D_m = Σ_v scale[m, v] Σ_k ||h_v − h_cf||²``.

    Instead of materialising the ``(M, B, K, d)`` difference tensor, the
    squared distances are expanded as ``n_v + n_cf − 2 h_v·h_cf`` with
    ``n = ||h||²`` row norms, and the over-K sums ``Σ_k n_cf`` /
    ``Σ_k h_cf`` are taken by one constant CSR gather-sum matrix, built per
    call (see :func:`_gather_sum_matrix`) — every intermediate is
    O(M·B·K + M·B·d) and the whole loss is a fixed handful of array kernels
    regardless of M and K.

    The entire chain is ONE graph node with an analytic adjoint: the
    previous composed form built 13 op nodes per call, whose backward
    round-tripped a ``gather`` → ``_scatter_rows`` pair and materialised a
    gradient buffer per edge (including full reductions for constant
    parents).  Value and gradient are bit-identical to the composed graph
    (same float ops, same accumulation association; pinned by the
    test-suite against ``_composed_pair_disparities`` in ``tests/oracles.py``).
    """
    h = representations.data
    num_pairs, batch, top_k = indices.shape
    gather_sum = _sparse_operand(_gather_sum_matrix(indices, h.shape[0]), h.dtype)
    tiled_anchor = np.tile(anchor_rows, num_pairs)

    default = get_default_dtype()
    k_arr = np.asarray(float(top_k), dtype=default)
    two_arr = np.asarray(2.0, dtype=default)
    sc_arr = np.asarray(scale.reshape(-1), dtype=default)

    norms = np.sum(h * h, axis=1)  # (N,)
    cf_sum = gather_sum @ h  # (M·B, d) = Σ_k h_cf
    cf_norm_sum = (gather_sum @ norms.reshape(-1, 1)).reshape(-1)
    anchor_h = h[tiled_anchor]
    anchor_n = norms[tiled_anchor]
    cross = np.sum(cf_sum * anchor_h, axis=1)  # Σ_k h_v·h_cf
    sq_sums = (anchor_n * k_arr - cross * two_arr) + cf_norm_sum
    value = np.sum((sq_sums * sc_arr).reshape(num_pairs, batch), axis=1)

    def backward(grad):
        # Mirrors the composed graph's reverse-topological order exactly —
        # contribution and association order are pinned bit-identical.
        g = np.expand_dims(np.asarray(grad), (1,))
        gsq = np.broadcast_to(g, (num_pairs, batch)).copy()
        gsq = gsq.reshape(num_pairs * batch) * sc_arr
        # norms ← anchor gather, rep ← spmm + anchor gather.
        g_norms = _scatter_rows(tiled_anchor, gsq * k_arr, norms.shape)
        gs1 = np.expand_dims(np.asarray((-gsq) * two_arr), (1,))
        gm2 = np.broadcast_to(gs1, cf_sum.shape).copy()
        g_rep = gather_sum.T @ (gm2 * anchor_h)
        g_rep = g_rep + _scatter_rows(tiled_anchor, gm2 * cf_sum, h.shape)
        # norms ← cf_norm_sum spmm; rep ← the two h·h product terms.
        g_norms = g_norms + (gather_sum.T @ gsq.reshape(-1, 1)).reshape(
            norms.shape
        )
        gm1 = np.broadcast_to(
            np.expand_dims(np.asarray(g_norms), (1,)), h.shape
        ).copy()
        term = gm1 * h
        g_rep = (g_rep + term) + term
        return (g_rep,)

    return Tensor.from_op(value, (representations,), backward)


def fair_representation_loss(
    representations: Tensor,
    counterfactuals: CounterfactualIndex,
    weights: np.ndarray,
) -> tuple[Tensor, np.ndarray]:
    """Compute the weighted counterfactual-consistency loss (fused).

    Parameters
    ----------
    representations:
        ``(N, d)`` tensor ``h`` from the GNN classifier (gradients flow).
    counterfactuals:
        Index from :class:`~repro.core.counterfactual.CounterfactualSearch`.
    weights:
        ``(I,)`` simplex weights λ.

    Returns
    -------
    (loss, disparities):
        Scalar loss tensor ``Σ_i λ_i D_i`` and the detached ``(I,)`` array of
        per-attribute disparities ``D_i`` (sum over K of the masked mean
        squared distance).  Invalid (node, attribute) pairs — those without a
        real counterfactual — contribute zero.
    """
    num_attrs, num_nodes, top_k = counterfactuals.indices.shape
    weights = _check_weights(weights, num_attrs)
    if representations.shape[0] != num_nodes:
        raise ValueError(
            f"representations rows {representations.shape[0]} != index nodes {num_nodes}"
        )
    if num_attrs == 0:
        return Tensor(np.zeros(())), np.zeros(0)

    valid = counterfactuals.valid.astype(np.float64)
    _, scale = _masked_mean_scale(valid)
    disparity_t = _fused_pair_disparities(
        representations,
        counterfactuals.indices,
        np.arange(num_nodes, dtype=np.int64),
        scale,
    )
    loss = ops.sum(ops.mul(disparity_t, Tensor(weights)))
    return loss, disparity_t.data.copy()


def fair_representation_loss_minibatch(
    representations: Tensor,
    counterfactuals: CounterfactualIndex,
    weights: np.ndarray,
    batch_nodes: np.ndarray,
    seed_nodes: np.ndarray,
    attrs: np.ndarray | None = None,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Batch estimate of :func:`fair_representation_loss` (fused).

    The sampled fine-tune phase computes representations only for the union
    of a seed batch and its counterfactual targets; this function evaluates
    the same masked, per-attribute disparity on that local slice.  With
    ``batch_nodes`` covering every node (and ``seed_nodes`` likewise) it is
    numerically identical to the full-batch loss.

    Parameters
    ----------
    representations:
        ``(S, d)`` tensor; row ``j`` is the representation of node
        ``seed_nodes[j]`` (gradients flow into both sides of every pair).
    counterfactuals:
        Full-graph index; only the ``batch_nodes`` rows are read.
    weights:
        ``(I,)`` simplex weights λ.
    batch_nodes:
        Global ids of the seed batch (must be a subset of ``seed_nodes``).
    seed_nodes:
        Sorted unique global ids the representation rows correspond to.
        Must contain every valid counterfactual target of ``batch_nodes``
        (for the attributes actually evaluated).
    attrs:
        Optional subset of attribute indices to evaluate (the trainer's
        ``cf_attrs_per_step`` subsampling); unevaluated attributes report
        zero disparity and zero valid count.  ``None`` evaluates all.

    Returns
    -------
    (loss, disparities, valid_counts):
        Scalar loss ``Σ_i λ_i D̂_i``; the detached ``(I,)`` batch disparities
        ``D̂_i`` (mean over the batch's *valid* nodes of the summed top-K
        squared distances — invalid pairs contribute zero value and zero
        gradient); and the ``(I,)`` count of valid batch nodes per attribute
        so callers can aggregate batch disparities into the epoch-level
        ``D_i`` with the correct weighting.
    """
    num_attrs, _, top_k = counterfactuals.indices.shape
    weights = _check_weights(weights, num_attrs)
    seed_nodes = np.asarray(seed_nodes, dtype=np.int64).reshape(-1)
    batch_nodes = np.asarray(batch_nodes, dtype=np.int64).reshape(-1)
    if representations.shape[0] != seed_nodes.shape[0]:
        raise ValueError(
            f"representations rows {representations.shape[0]} != "
            f"seed nodes {seed_nodes.shape[0]}"
        )

    def local(ids: np.ndarray) -> np.ndarray:
        pos = np.searchsorted(seed_nodes, ids)
        pos = np.minimum(pos, seed_nodes.size - 1)
        if not np.array_equal(seed_nodes[pos], ids):
            raise ValueError("node ids missing from seed_nodes")
        return pos

    disparities = np.zeros(num_attrs)
    valid_counts = np.zeros(num_attrs)
    attr_list = (
        np.arange(num_attrs)
        if attrs is None
        else np.asarray(attrs, dtype=np.int64).reshape(-1)
    )
    if attr_list.size == 0 or batch_nodes.size == 0:
        return Tensor(np.zeros(())), disparities, valid_counts

    sub = np.ix_(attr_list, batch_nodes)
    valid = counterfactuals.valid[sub].astype(np.float64)  # (M, B)
    counts, scale = _masked_mean_scale(valid)
    # Invalid rows self-point, so their target is the batch node itself
    # (always present in seed_nodes); the scale then zeroes both their value
    # and their gradient.  One vectorized id translation covers every
    # (attribute, node, k) pair at once.
    local_idx = local(counterfactuals.indices[sub].reshape(-1)).reshape(
        (attr_list.size, batch_nodes.size, top_k)
    )
    disparity_t = _fused_pair_disparities(
        representations, local_idx, local(batch_nodes), scale
    )
    loss = ops.sum(ops.mul(disparity_t, Tensor(weights[attr_list])))
    disparities[attr_list] = disparity_t.data
    valid_counts[attr_list] = counts
    return loss, disparities, valid_counts
