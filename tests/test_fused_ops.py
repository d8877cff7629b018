"""Fused hot-path kernels pinned against their composed-graph oracles.

Three chains were collapsed into single autograd nodes with analytic
adjoints (fused BCE-with-logits, the fair-loss pair-disparity kernel, and
the in-place Adam update).  These tests pin each one *bit-identical* to the
composed form it replaced — same float ops, same accumulation association —
and additionally gradcheck the analytic adjoints against finite differences.
The autograd-core bugfix regressions from the same sweep live here too.
"""

import numpy as np
import pytest

from repro.core.fairloss import _fused_pair_disparities
from repro.nn.losses import binary_cross_entropy_with_logits
from repro.nn.module import Parameter
from repro.optim import Adam
from repro.tensor import Tensor, dtype_scope, ops
from oracles import (
    _composed_pair_disparities,
    binary_cross_entropy_with_logits_reference,
    gradcheck,
)


class TestFusedBCE:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("weighted", [False, True])
    def test_bitwise_identical_to_composed(self, dtype, weighted):
        rng = np.random.default_rng(0)
        with dtype_scope(dtype):
            logits = rng.standard_normal((7, 5)) * 3.0
            targets = (rng.random((7, 5)) > 0.4).astype(float)
            weights = rng.random((7, 5)) if weighted else None
            a = Tensor(logits, requires_grad=True)
            b = Tensor(logits, requires_grad=True)
            fused = binary_cross_entropy_with_logits(a, targets, weights)
            composed = binary_cross_entropy_with_logits_reference(
                b, targets, weights
            )
            assert fused.data.dtype == composed.data.dtype
            assert np.array_equal(fused.data, composed.data)
            fused.backward()
            composed.backward()
            assert np.array_equal(a.grad, b.grad)

    def test_upstream_gradient_is_threaded(self):
        logits = np.linspace(-2, 2, 6)
        a = Tensor(logits, requires_grad=True)
        b = Tensor(logits, requires_grad=True)
        # A non-trivial op above the loss exercises the non-unit upstream
        # gradient path of the fused adjoint.
        ops.mul(binary_cross_entropy_with_logits(a, np.ones(6)), 3.0).backward()
        ops.mul(
            binary_cross_entropy_with_logits_reference(b, np.ones(6)), 3.0
        ).backward()
        assert np.array_equal(a.grad, b.grad)

    @pytest.mark.parametrize("weighted", [False, True])
    def test_gradcheck(self, weighted):
        rng = np.random.default_rng(1)
        logits = rng.standard_normal(12)
        targets = (rng.random(12) > 0.5).astype(float)
        weights = rng.random(12) + 0.1 if weighted else None
        assert gradcheck(
            lambda t: binary_cross_entropy_with_logits(t, targets, weights),
            [Tensor(logits, requires_grad=True)],
        )

    def test_zero_weight_sum_raises(self):
        # Previously produced a silent NaN loss that poisoned the whole run.
        logits = Tensor(np.ones(4), requires_grad=True)
        with pytest.raises(ValueError, match="weights sum to zero"):
            binary_cross_entropy_with_logits(
                logits, np.ones(4), np.zeros(4)
            )

    def test_zero_weight_sum_raises_in_reference(self):
        logits = Tensor(np.ones(4), requires_grad=True)
        with pytest.raises(ValueError, match="weights sum to zero"):
            binary_cross_entropy_with_logits_reference(
                logits, np.ones(4), np.zeros(4)
            )


def _random_fair_case(rng, num_nodes, dim, num_pairs, top_k):
    h = rng.standard_normal((num_nodes, dim))
    indices = rng.integers(0, num_nodes, size=(num_pairs, num_nodes, top_k))
    anchors = np.arange(num_nodes, dtype=np.int64)
    valid = rng.random((num_pairs, num_nodes)) < 0.9
    counts = valid.sum(axis=1).astype(float)
    scale = valid * np.divide(
        1.0, counts, out=np.zeros_like(counts), where=counts > 0
    )[:, None]
    return h, indices, anchors, scale


class TestFusedFairLoss:
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize(
        "num_nodes,top_k", [(60, 4), (2500, 3)]
    )  # below/above the scatter CSR threshold
    def test_bitwise_identical_to_composed(self, dtype, num_nodes, top_k):
        rng = np.random.default_rng(2)
        with dtype_scope(dtype):
            h, idx, anchors, scale = _random_fair_case(
                rng, num_nodes, 8, 3, top_k
            )
            a = Tensor(h, requires_grad=True)
            b = Tensor(h, requires_grad=True)
            fused = _fused_pair_disparities(a, idx, anchors, scale)
            composed = _composed_pair_disparities(b, idx, anchors, scale)
            assert fused.data.dtype == composed.data.dtype
            assert np.array_equal(fused.data, composed.data)
            upstream = rng.standard_normal(3)
            fused.backward(upstream)
            composed.backward(upstream)
            assert np.array_equal(a.grad, b.grad)

    def test_gradcheck(self):
        rng = np.random.default_rng(3)
        h, idx, anchors, scale = _random_fair_case(rng, 20, 4, 2, 3)
        assert gradcheck(
            lambda t: ops.sum(_fused_pair_disparities(t, idx, anchors, scale)),
            [Tensor(h, requires_grad=True)],
        )


def _composed_adam_step(param, grad, m, v, t, lr, beta1, beta2, eps, wd):
    """The pre-fusion composed update, kept verbatim as the oracle."""
    if wd:
        grad = grad + wd * param
    m = beta1 * m + (1.0 - beta1) * grad
    v = beta2 * v + (1.0 - beta2) * grad**2
    m_hat = m / (1.0 - beta1**t)
    v_hat = v / (1.0 - beta2**t)
    param = param - lr * m_hat / (np.sqrt(v_hat) + eps)
    return param, m, v


class TestFusedAdam:
    @pytest.mark.parametrize("weight_decay", [0.0, 0.05])
    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    def test_bitwise_identical_to_composed(self, weight_decay, dtype):
        rng = np.random.default_rng(5)
        with dtype_scope(dtype):
            w = Tensor(rng.standard_normal((6, 4))).data
            param = Parameter(w.copy())
            opt = Adam([param], lr=0.01, weight_decay=weight_decay)
            ref_p, ref_m, ref_v = w.copy(), np.zeros_like(w), np.zeros_like(w)
            for t in range(1, 6):
                grad = Tensor(rng.standard_normal((6, 4))).data
                param.grad = grad.copy()
                opt.step()
                ref_p, ref_m, ref_v = _composed_adam_step(
                    ref_p, grad, ref_m, ref_v, t,
                    lr=0.01, beta1=0.9, beta2=0.999, eps=1e-8, wd=weight_decay,
                )
                assert np.array_equal(param.data, ref_p)
            assert np.array_equal(opt._m[0], ref_m)
            assert np.array_equal(opt._v[0], ref_v)

    def test_update_is_in_place(self):
        param = Parameter(np.ones((3, 2)))
        buffer = param.data
        param.grad = np.full((3, 2), 0.5)
        Adam([param], lr=0.1).step()
        assert param.data is buffer  # mutated, not rebound

    def test_step_does_not_mutate_the_gradient(self):
        param = Parameter(np.ones((3, 2)))
        grad = np.full((3, 2), 0.5)
        param.grad = grad
        Adam([param], lr=0.1, weight_decay=0.01).step()
        np.testing.assert_array_equal(grad, np.full((3, 2), 0.5))


class TestAutogradCoreRegressions:
    """Bugfix sweep: detach/copy dtype recast, leaf-only accumulation,
    item() on multi-element tensors."""

    def test_detach_preserves_dtype_across_scope(self):
        t = Tensor(np.ones(3))  # float64 under the default scope
        with dtype_scope("float32"):
            detached = t.detach()
        assert detached.data.dtype == np.float64
        assert detached.data is t.data  # a view, not a recast copy
        assert not detached.requires_grad

    def test_copy_preserves_dtype_across_scope(self):
        t = Tensor(np.ones(3))
        with dtype_scope("float32"):
            copied = t.copy()
        assert copied.data.dtype == np.float64
        copied.data[0] = 5.0
        assert t.data[0] == 1.0

    def test_from_op_preserves_op_dtype(self):
        with dtype_scope("float32"):
            a = Tensor(np.ones(3), requires_grad=True)
            out = ops.mul(a, a)
        assert out.data.dtype == np.float32

    def test_backward_populates_leaves_only(self):
        a = Tensor(np.ones(3), requires_grad=True)
        b = Tensor(np.full(3, 2.0), requires_grad=True)
        interior = ops.mul(a, b)
        out = ops.sum(interior)
        out.backward()
        np.testing.assert_array_equal(a.grad, b.data)
        np.testing.assert_array_equal(b.grad, a.data)
        assert interior.grad is None  # no retain_grad: interior stays bare
        assert out.grad is None

    def test_item_on_scalar(self):
        assert Tensor(np.array(3.5)).item() == pytest.approx(3.5)
        assert Tensor(np.array([3.5])).item() == pytest.approx(3.5)

    def test_item_on_multi_element_raises(self):
        with pytest.raises(ValueError, match="single-element"):
            Tensor(np.ones(3)).item()
