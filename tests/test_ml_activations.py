"""Tests for activation functions and their hardware approximations."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.ml import (
    ACTIVATIONS,
    leaky_relu,
    relu,
    sigmoid,
    sigmoid_piecewise,
    sigmoid_taylor,
    softmax,
    tanh_piecewise,
    tanh_taylor,
)
from repro.ml.activations import activation, build_lut, lut_activation

xs = np.linspace(-8, 8, 401)


class TestExact:
    def test_relu(self):
        assert relu(np.array([-1.0, 2.0])).tolist() == [0.0, 2.0]

    def test_leaky_relu_slope(self):
        assert leaky_relu(np.array([-8.0]))[0] == pytest.approx(-1.0)

    def test_sigmoid_limits(self):
        assert sigmoid(np.array([-100.0]))[0] == pytest.approx(0.0, abs=1e-9)
        assert sigmoid(np.array([100.0]))[0] == pytest.approx(1.0, abs=1e-9)
        assert sigmoid(np.array([0.0]))[0] == pytest.approx(0.5)

    def test_sigmoid_numerically_stable(self):
        out = sigmoid(np.array([-710.0, 710.0]))
        assert np.all(np.isfinite(out))

    def test_softmax_normalizes(self):
        probs = softmax(np.array([[1.0, 2.0, 3.0]]))
        assert probs.sum() == pytest.approx(1.0)
        assert probs.argmax() == 2

    def test_activation_lookup(self):
        assert activation("relu") is relu
        with pytest.raises(ValueError):
            activation("gelu")


class TestApproximations:
    def test_taylor_sigmoid_close(self):
        err = np.max(np.abs(sigmoid_taylor(xs) - sigmoid(xs)))
        assert err < 0.02

    def test_taylor_tanh_close(self):
        err = np.max(np.abs(tanh_taylor(xs) - np.tanh(xs)))
        assert err < 0.03

    def test_piecewise_sigmoid_close(self):
        err = np.max(np.abs(sigmoid_piecewise(xs) - sigmoid(xs)))
        assert err < 0.08  # PW trades accuracy for 3x less area (Table 6)

    def test_piecewise_tanh_close(self):
        err = np.max(np.abs(tanh_piecewise(xs) - np.tanh(xs)))
        assert err < 0.16

    def test_piecewise_monotone(self):
        out = sigmoid_piecewise(xs)
        assert np.all(np.diff(out) >= -1e-12)

    def test_piecewise_range(self):
        out = sigmoid_piecewise(np.linspace(-50, 50, 101))
        assert np.all((out >= 0.0) & (out <= 1.0))

    @given(st.floats(-8, 8))
    def test_taylor_in_unit_interval(self, x):
        val = float(sigmoid_taylor(np.array([x]))[0])
        assert -0.01 <= val <= 1.01


class TestLUT:
    def test_build_lut_shape(self):
        table = build_lut(np.tanh)
        assert table.shape == (1024,)

    def test_lut_activation_error_small(self):
        lut = lut_activation(np.tanh)
        err = np.max(np.abs(lut(xs) - np.tanh(xs)))
        assert err < 0.02  # 1024 x 8-bit entries (Section 5.1.3)

    def test_lut_clamps_out_of_range(self):
        lut = lut_activation(np.tanh)
        assert lut(np.array([100.0]))[0] == pytest.approx(np.tanh(8.0), abs=0.02)
        assert lut(np.array([-100.0]))[0] == pytest.approx(np.tanh(-8.0), abs=0.02)


class TestRegistry:
    def test_all_variants_present(self):
        expected = {
            "relu", "leaky_relu", "tanh_exp", "sigmoid_exp",
            "tanh_pw", "sigmoid_pw", "act_lut",
        }
        assert expected == set(ACTIVATIONS)

    def test_chain_lengths_order(self):
        """Taylor > piecewise > LUT > ReLU in op-chain cost (Table 6)."""
        chains = {name: spec.chain_ops for name, spec in ACTIVATIONS.items()}
        assert chains["relu"] < chains["act_lut"] < chains["tanh_pw"]
        assert chains["tanh_pw"] < chains["tanh_exp"]
        assert chains["sigmoid_pw"] < chains["sigmoid_exp"]

    def test_only_lut_uses_tables(self):
        for name, spec in ACTIVATIONS.items():
            assert (spec.lut_tables > 0) == (name == "act_lut")
