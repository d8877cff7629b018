"""Tests for repro.nn: modules, layers, losses, init."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.nn import (
    MLP,
    Dropout,
    Identity,
    Linear,
    Module,
    ModuleList,
    Parameter,
    ReLU,
    binary_cross_entropy_with_logits,
    init,
    mse_loss,
)
from repro.tensor import Tensor
from repro.tensor import ops
from oracles import gradcheck


@pytest.fixture
def rng():
    return np.random.default_rng(3)


class _Composite(Module):
    def __init__(self, rng):
        super().__init__()
        self.linear = Linear(3, 2, rng)
        self.blocks = ModuleList([Linear(2, 2, rng), Linear(2, 1, rng)])
        self.scale = Parameter(np.ones(1), name="scale")

    def forward(self, x):
        x = self.linear(x)
        for block in self.blocks:
            x = block(x)
        return ops.mul(x, self.scale)


class TestModule:
    def test_named_parameters_recursive(self, rng):
        model = _Composite(rng)
        names = [n for n, _ in model.named_parameters()]
        assert "linear.weight" in names
        assert "blocks.items.0.weight" in names
        assert "scale" in names
        # linear(w+b) + 2 blocks (w+b each) + scale
        assert len(names) == 7

    def test_base_forward_is_abstract(self):
        with pytest.raises(NotImplementedError):
            Module()(Tensor(np.zeros(2)))

    def test_state_dict_roundtrip(self, rng):
        model = _Composite(rng)
        state = model.state_dict()
        model.scale.data[:] = 99.0
        model.load_state_dict(state)
        np.testing.assert_allclose(model.scale.data, 1.0)

    def test_state_dict_is_a_copy(self, rng):
        model = Linear(2, 2, rng)
        state = model.state_dict()
        model.weight.data[:] = 0.0
        assert not np.allclose(state["weight"], 0.0)

    def test_load_state_dict_rejects_missing_keys(self, rng):
        model = Linear(2, 2, rng)
        with pytest.raises(KeyError):
            model.load_state_dict({"weight": np.zeros((2, 2))})

    def test_load_state_dict_rejects_bad_shape(self, rng):
        model = Linear(2, 2, rng)
        state = model.state_dict()
        state["weight"] = np.zeros((3, 3))
        with pytest.raises(ValueError):
            model.load_state_dict(state)

    def test_train_eval_propagates(self, rng):
        model = _Composite(rng)
        model.eval()
        assert all(not m.training for m in model.modules())
        model.train()
        assert all(m.training for m in model.modules())

    def test_zero_grad(self, rng):
        model = Linear(2, 1, rng)
        out = ops.sum(model(Tensor(np.ones((3, 2)))))
        out.backward()
        assert model.weight.grad is not None
        model.zero_grad()
        assert model.weight.grad is None

    def test_module_list_container(self, rng):
        ml = ModuleList([Linear(2, 2, rng)])
        ml.append(Linear(2, 1, rng))
        assert len(ml) == 2
        assert isinstance(ml[1], Linear)
        with pytest.raises(RuntimeError):
            ml(Tensor(np.ones((1, 2))))


class TestLayers:
    def test_linear_forward_matches_numpy(self, rng):
        layer = Linear(4, 3, rng)
        x = rng.normal(size=(5, 4))
        expected = x @ layer.weight.data + layer.bias.data
        np.testing.assert_allclose(layer(Tensor(x)).data, expected)

    def test_linear_no_bias(self, rng):
        layer = Linear(4, 3, rng, bias=False)
        assert layer.bias is None
        assert layer(Tensor(np.zeros((2, 4)))).data.sum() == 0.0

    def test_linear_gradcheck(self, rng):
        layer = Linear(3, 2, rng)
        x = Tensor(rng.normal(size=(4, 3)), requires_grad=True)
        assert gradcheck(
            lambda x, w, b: ops.sum(ops.tanh(layer(x))),
            [x, layer.weight, layer.bias],
        )

    def test_mlp_depth(self, rng):
        mlp = MLP([4, 8, 8, 2], rng)
        assert len(mlp.layers) == 3
        assert mlp(Tensor(np.zeros((5, 4)))).shape == (5, 2)

    def test_mlp_requires_two_dims(self, rng):
        with pytest.raises(ValueError):
            MLP([4], rng)

    def test_mlp_custom_activation(self, rng):
        mlp = MLP([2, 2, 2], rng, activation=Identity())
        assert isinstance(mlp.activation, Identity)

    def test_dropout_train_vs_eval(self, rng):
        drop = Dropout(0.5, rng)
        x = Tensor(np.ones((100, 10)))
        out_train = drop(x)
        assert (out_train.data == 0).any()
        drop.eval()
        np.testing.assert_allclose(drop(x).data, 1.0)

    def test_dropout_invalid_rate(self, rng):
        with pytest.raises(ValueError):
            Dropout(1.5, rng)

    def test_activations_shapes(self, rng):
        x = Tensor(rng.normal(size=(3, 3)))
        for act in (ReLU(), Identity()):
            assert act(x).shape == (3, 3)

    def test_identity_is_noop(self, rng):
        x = Tensor(rng.normal(size=(2, 2)))
        assert Identity()(x) is x

    def test_reprs_name_the_configuration(self, rng):
        assert repr(Linear(4, 3, rng)) == (
            "Linear(in_features=4, out_features=3, bias=True)"
        )
        assert repr(Linear(4, 3, rng, bias=False)).endswith("bias=False)")
        assert repr(MLP([4, 8, 2], rng)) == "MLP(dims=[4, 8, 2])"
        assert repr(Dropout(0.25, rng)) == "Dropout(rate=0.25)"

    def test_mlp_dropout_only_in_training(self, rng):
        mlp = MLP([6, 16, 3], rng, dropout=0.5)
        assert isinstance(mlp.dropout, Dropout)
        x = Tensor(rng.normal(size=(8, 6)))
        mlp.eval()
        first, second = mlp(x).data, mlp(x).data
        np.testing.assert_array_equal(first, second)
        mlp.train()
        assert not np.array_equal(mlp(x).data, first)


class TestInit:
    def test_xavier_uniform_bounds(self, rng):
        w = init.xavier_uniform((100, 50), rng)
        bound = np.sqrt(6.0 / 150)
        assert np.abs(w).max() <= bound

    def test_xavier_uniform_gain_scales_bound(self, rng):
        w = init.xavier_uniform((100, 50), rng, gain=2.0)
        bound = 2.0 * np.sqrt(6.0 / 150)
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > np.sqrt(6.0 / 150)

    def test_xavier_uniform_vector_uses_length_as_both_fans(self, rng):
        w = init.xavier_uniform((400,), rng)
        assert w.shape == (400,)
        bound = np.sqrt(6.0 / 800)
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.9 * bound

    def test_xavier_uniform_counts_receptive_field(self, rng):
        # (out, in, kh, kw): fan_in = in * kh * kw, fan_out = out * kh * kw.
        w = init.xavier_uniform((8, 4, 3, 3), rng)
        assert w.shape == (8, 4, 3, 3)
        bound = np.sqrt(6.0 / (4 * 9 + 8 * 9))
        assert np.abs(w).max() <= bound
        assert np.abs(w).max() > 0.9 * bound

    def test_zeros(self):
        assert init.zeros((3, 3)).sum() == 0.0

    def test_uniform(self, rng):
        w = init.uniform((50,), rng, 0.2)
        assert np.abs(w).max() <= 0.2


class TestLosses:
    def test_bce_matches_reference(self, rng):
        logits = rng.normal(size=20)
        targets = rng.integers(0, 2, size=20).astype(float)
        probs = 1.0 / (1.0 + np.exp(-logits))
        expected = -(targets * np.log(probs) + (1 - targets) * np.log(1 - probs)).mean()
        loss = binary_cross_entropy_with_logits(Tensor(logits), targets)
        assert float(loss.data) == pytest.approx(expected)

    def test_bce_extreme_logits_finite(self):
        loss = binary_cross_entropy_with_logits(
            Tensor(np.array([1000.0, -1000.0])), np.array([1.0, 0.0])
        )
        assert float(loss.data) == pytest.approx(0.0, abs=1e-9)

    def test_bce_gradcheck(self, rng):
        logits = Tensor(rng.normal(size=8), requires_grad=True)
        targets = rng.integers(0, 2, size=8).astype(float)
        assert gradcheck(
            lambda z: binary_cross_entropy_with_logits(z, targets), [logits]
        )

    def test_bce_weighted(self, rng):
        logits = Tensor(np.zeros(4))
        targets = np.array([1.0, 1.0, 0.0, 0.0])
        weights = np.array([1.0, 0.0, 0.0, 1.0])
        loss = binary_cross_entropy_with_logits(logits, targets, weights)
        assert float(loss.data) == pytest.approx(np.log(2.0))

    def test_mse(self, rng):
        a, b = rng.normal(size=5), rng.normal(size=5)
        assert float(mse_loss(Tensor(a), Tensor(b)).data) == pytest.approx(
            ((a - b) ** 2).mean()
        )

    @settings(max_examples=25, deadline=None)
    @given(st.lists(st.floats(-5, 5), min_size=1, max_size=10))
    def test_bce_nonnegative_property(self, values):
        logits = Tensor(np.array(values))
        targets = (np.array(values) > 0).astype(float)
        loss = binary_cross_entropy_with_logits(logits, targets)
        assert float(loss.data) >= 0.0
