"""Reference implementations the test-suite and benchmarks compare against.

None of these run in the library; each is the slow, obvious form of a fast
path in ``src/``, kept verbatim so parity tests can pin the fast path to it:

* :func:`gradcheck` / :func:`numerical_gradient` — central-difference
  gradients certifying every op's analytic adjoint;
* :func:`topological_order_every_node` — the backward walk over every
  node, constants included, the oracle the constant-skipping
  ``Tensor._topological_order`` is pinned to (leaf gradients bit for bit);
* :func:`binary_cross_entropy_with_logits_reference` — the composed-graph
  BCE the fused :func:`repro.nn.binary_cross_entropy_with_logits` is
  bit-identical to (value and gradient);
* :func:`_composed_pair_disparities` — the composed-op form of the fused
  pair-disparity kernel ``repro.core.fairloss._fused_pair_disparities``;
* :func:`correlation_penalty_reference` — FairRF's per-column correlation
  chain, the oracle ``repro.baselines.fairrf._correlation_penalty`` is
  pinned to (value, per-column ``corr²`` and gradient to 1e-12);
* :func:`fair_representation_loss_reference` /
  :func:`fair_representation_loss_minibatch_reference` — the original
  ``I × K`` python loops of the fair loss (Eq. 13–14), the oracle the
  hypothesis parity harness checks the fused loss against (value and
  gradient to 1e-9);
* :func:`solve_kkt_eq24` — the paper's Eq. (22)–(24) sorting procedure for
  the λ weights, which ``repro.core.weights.project_to_simplex`` (the path
  ``WeightUpdater.update`` takes) is checked against.

``pyproject.toml`` puts ``tests/`` on pytest's ``pythonpath``, so tests and
benchmarks import this module as ``oracles``.
"""

from __future__ import annotations

from typing import Callable, Sequence

import numpy as np

from repro.core.counterfactual import CounterfactualIndex
from repro.core.fairloss import _check_weights, _gather_sum_matrix
from repro.tensor import Tensor
from repro.tensor import ops
from repro.tensor.tensor import as_tensor


# --------------------------------------------------------------------- #
# finite-difference gradient checks
# --------------------------------------------------------------------- #
def numerical_gradient(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    wrt: int,
    eps: float = 1e-6,
) -> np.ndarray:
    """Central-difference gradient of scalar ``fn(*inputs)`` w.r.t. one input.

    Parameters
    ----------
    fn:
        Function of the tensors in ``inputs`` returning a scalar tensor.
    inputs:
        Input tensors; only ``inputs[wrt]`` is perturbed.
    wrt:
        Index of the input to differentiate with respect to.
    eps:
        Step size for the symmetric difference quotient.
    """
    target = inputs[wrt]
    grad = np.zeros_like(target.data)
    flat = target.data.reshape(-1)
    grad_flat = grad.reshape(-1)
    for i in range(flat.size):
        original = flat[i]
        flat[i] = original + eps
        plus = float(fn(*inputs).data)
        flat[i] = original - eps
        minus = float(fn(*inputs).data)
        flat[i] = original
        grad_flat[i] = (plus - minus) / (2.0 * eps)
    return grad


def gradcheck(
    fn: Callable[..., Tensor],
    inputs: Sequence[Tensor],
    eps: float = 1e-6,
    atol: float = 1e-4,
    rtol: float = 1e-4,
) -> bool:
    """Verify analytic gradients of scalar ``fn`` against finite differences.

    Raises ``AssertionError`` with a diagnostic message on mismatch; returns
    True otherwise, so it can be used directly inside ``assert gradcheck(...)``.
    """
    for tensor in inputs:
        tensor.zero_grad()
    out = fn(*inputs)
    if out.data.size != 1:
        raise ValueError("gradcheck requires a scalar-valued function")
    out.backward()
    for idx, tensor in enumerate(inputs):
        if not tensor.requires_grad:
            continue
        analytic = tensor.grad if tensor.grad is not None else np.zeros_like(tensor.data)
        numeric = numerical_gradient(fn, inputs, idx, eps=eps)
        if not np.allclose(analytic, numeric, atol=atol, rtol=rtol):
            worst = np.max(np.abs(analytic - numeric))
            raise AssertionError(
                f"gradient mismatch for input {idx}: max abs diff {worst:.3e}\n"
                f"analytic:\n{analytic}\nnumeric:\n{numeric}"
            )
    return True


# --------------------------------------------------------------------- #
# the backward walk over every node
# --------------------------------------------------------------------- #
def topological_order_every_node(root: Tensor) -> list[Tensor]:
    """Reverse topological order of every node reachable from ``root``,
    constants included; a drop-in for ``Tensor._topological_order``."""
    visited: set[int] = set()
    order: list[Tensor] = []
    stack: list[tuple[Tensor, bool]] = [(root, False)]
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
            if id(parent) not in visited:
                stack.append((parent, False))
    order.reverse()
    return order


# --------------------------------------------------------------------- #
# composed-graph forms of the fused kernels
# --------------------------------------------------------------------- #
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


def _composed_pair_disparities(
    representations: Tensor,
    indices: np.ndarray,
    anchor_rows: np.ndarray,
    scale: np.ndarray,
) -> Tensor:
    """Composed-op form of :func:`_fused_pair_disparities` — the oracle the
    fused kernel is pinned bit-identical to (value and gradient)."""
    num_pairs, batch, top_k = indices.shape
    gather_sum = _gather_sum_matrix(indices, representations.shape[0])
    tiled_anchor = np.tile(anchor_rows, num_pairs)
    norms = ops.sum(ops.mul(representations, representations), axis=1)
    cf_sum = ops.spmm(gather_sum, representations)  # (M·B, d) = Σ_k h_cf
    cf_norm_sum = ops.reshape(
        ops.spmm(gather_sum, ops.reshape(norms, (-1, 1))), (-1,)
    )  # (M·B,) = Σ_k n_cf
    anchor_h = ops.gather(representations, tiled_anchor)
    anchor_n = ops.gather(norms, tiled_anchor)
    cross = ops.sum(ops.mul(cf_sum, anchor_h), axis=1)  # Σ_k h_v·h_cf
    sq_sums = ops.add(
        ops.sub(ops.mul(anchor_n, float(top_k)), ops.mul(cross, 2.0)),
        cf_norm_sum,
    )
    masked = ops.mul(sq_sums, Tensor(scale.reshape(-1)))
    return ops.sum(ops.reshape(masked, (num_pairs, batch)), axis=1)


def _differentiable_correlation(prediction, feature_column: np.ndarray):
    """Squared Pearson correlation between a prediction tensor and a column."""
    column = feature_column - feature_column.mean()
    denom_col = float(np.sqrt((column**2).sum()))
    if denom_col == 0:
        return None
    centered = ops.sub(prediction, ops.mean(prediction))
    cov = ops.sum(ops.mul(centered, Tensor(column)))
    var = ops.add(ops.sum(ops.power(centered, 2.0)), 1e-12)
    corr = ops.div(cov, ops.mul(ops.sqrt(var), denom_col))
    return ops.power(corr, 2.0)


def correlation_penalty_reference(
    probs: Tensor, columns: np.ndarray, weights: np.ndarray
) -> tuple[Tensor, np.ndarray]:
    """FairRF's penalty ``Σ_j w_j · corr(p, x_j)²`` composed one column at a
    time — the oracle of the fused ``_correlation_penalty``.

    Returns the penalty and the per-column ``corr²`` (0 for a column that
    is constant over the batch, which the sum skips); a batch in which
    every column is constant gives a constant zero penalty.
    """
    squares = np.zeros(columns.shape[1])
    penalty = None
    for j in range(columns.shape[1]):
        corr_sq = _differentiable_correlation(probs, columns[:, j].copy())
        if corr_sq is None:
            continue
        squares[j] = float(corr_sq.data)
        term = ops.mul(corr_sq, float(weights[j]))
        penalty = term if penalty is None else ops.add(penalty, term)
    if penalty is None:
        penalty = Tensor(np.zeros(()))
    return penalty, squares


# --------------------------------------------------------------------- #
# loop forms of the fair loss
# --------------------------------------------------------------------- #
def fair_representation_loss_reference(
    representations: Tensor,
    counterfactuals: CounterfactualIndex,
    weights: np.ndarray,
) -> tuple[Tensor, np.ndarray]:
    """Original ``I × K`` loop implementation of
    :func:`fair_representation_loss` — the parity harness's oracle."""
    num_attrs, num_nodes, top_k = counterfactuals.indices.shape
    weights = _check_weights(weights, num_attrs)
    if representations.shape[0] != num_nodes:
        raise ValueError(
            f"representations rows {representations.shape[0]} != index nodes {num_nodes}"
        )

    disparities = np.zeros(num_attrs)
    loss: Tensor | None = None
    for attr in range(num_attrs):
        valid_mask = counterfactuals.valid[attr].astype(np.float64)
        valid_count = float(valid_mask.sum())
        if valid_count == 0:
            continue
        attr_term: Tensor | None = None
        for k in range(top_k):
            cf_rows = ops.gather(representations, counterfactuals.indices[attr, :, k])
            sq_dist = ops.sum(
                ops.power(ops.sub(representations, cf_rows), 2.0), axis=1
            )
            masked = ops.mul(sq_dist, Tensor(valid_mask))
            term = ops.div(ops.sum(masked), valid_count)
            attr_term = term if attr_term is None else ops.add(attr_term, term)
        disparities[attr] = float(attr_term.data)
        if weights[attr] != 0.0:
            weighted = ops.mul(attr_term, float(weights[attr]))
            loss = weighted if loss is None else ops.add(loss, weighted)
    if loss is None:
        loss = Tensor(np.zeros(()))
    return loss, disparities


def fair_representation_loss_minibatch_reference(
    representations: Tensor,
    counterfactuals: CounterfactualIndex,
    weights: np.ndarray,
    batch_nodes: np.ndarray,
    seed_nodes: np.ndarray,
    attrs: np.ndarray | None = None,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """Original loop implementation of
    :func:`fair_representation_loss_minibatch` — the parity oracle."""
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

    batch_local = local(batch_nodes)
    h_batch = ops.gather(representations, batch_local)
    disparities = np.zeros(num_attrs)
    valid_counts = np.zeros(num_attrs)
    loss: Tensor | None = None
    attr_list = (
        range(num_attrs)
        if attrs is None
        else np.asarray(attrs, dtype=np.int64).reshape(-1)
    )
    for attr in attr_list:
        valid_mask = counterfactuals.valid[attr, batch_nodes].astype(np.float64)
        valid_count = float(valid_mask.sum())
        valid_counts[attr] = valid_count
        if valid_count == 0:
            continue
        attr_term: Tensor | None = None
        for k in range(top_k):
            cf_rows = ops.gather(
                representations, local(counterfactuals.indices[attr, batch_nodes, k])
            )
            sq_dist = ops.sum(ops.power(ops.sub(h_batch, cf_rows), 2.0), axis=1)
            masked = ops.mul(sq_dist, Tensor(valid_mask))
            term = ops.div(ops.sum(masked), valid_count)
            attr_term = term if attr_term is None else ops.add(attr_term, term)
        disparities[attr] = float(attr_term.data)
        if weights[attr] != 0.0:
            weighted = ops.mul(attr_term, float(weights[attr]))
            loss = weighted if loss is None else ops.add(loss, weighted)
    if loss is None:
        loss = Tensor(np.zeros(()))
    return loss, disparities, valid_counts


# --------------------------------------------------------------------- #
# the paper's λ solve
# --------------------------------------------------------------------- #
def solve_kkt_eq24(disparities: np.ndarray, alpha: float = 1.0) -> np.ndarray:
    """The paper's Eq. (22)–(24) procedure, transcribed.

    Rank the (scaled) disparities in descending order, locate the bracket
    containing the multiplier ``b`` via ``Σ max(0, −b − D'_i) = 2`` and
    evaluate Eq. (24).  ``alpha`` restores the α factor that Eq. (21) drops.
    """
    scaled = alpha * np.asarray(disparities, dtype=np.float64).reshape(-1)
    size = scaled.size
    if size == 0:
        raise ValueError("need at least one disparity value")
    if size == 1:
        return np.ones(1)
    order = np.argsort(scaled)[::-1]
    descending = scaled[order]  # {D'_1 >= D'_2 >= ... >= D'_I}
    lambdas = np.zeros(size)
    # Try each hypothesis "b ∈ (−D'_{j−1}, −D'_j]": the active set is then
    # the suffix {j, ..., I} of the descending ranking.
    for j in range(size):
        suffix_sum = descending[j:].sum()
        active = size - j
        b = -(2.0 + suffix_sum) / active
        upper = -descending[j]
        lower = -descending[j - 1] if j > 0 else -np.inf
        if lower < b <= upper or j == size - 1:
            raw = (-b - descending) / 2.0
            lambdas[order] = np.maximum(raw, 0.0)
            break
    total = lambdas.sum()
    if total <= 0:
        raise RuntimeError("KKT solve failed to find a feasible bracket")
    return lambdas / total
