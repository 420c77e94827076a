"""Tests for post-training quantization (the Table 3 machinery)."""

import copy
import pickle

import numpy as np
import pytest
from hypothesis import given, strategies as st

from repro.datasets import dnn_feature_matrix
from repro.fixpoint import (
    FixTensor,
    QuantizedLinear,
    format_for_range,
    quantize_model,
)
from repro.fixpoint.quantize import _rounding_shift, choose_frac_bits
from repro.ml import accuracy, f1_score
from repro.ml.dnn import DNN


class TestChooseFracBits:
    def test_small_values_get_more_frac_bits(self):
        assert choose_frac_bits(np.array([0.1, -0.2]), 8) > choose_frac_bits(
            np.array([5.0, -6.0]), 8
        )

    def test_zero_input(self):
        assert choose_frac_bits(np.zeros(4), 8) == 7

    def test_coverage_no_saturation(self):
        values = np.array([3.7, -2.1])
        fmt = format_for_range(values, 8)
        assert fmt.max_value >= 3.7 or fmt.roundtrip(3.7) == pytest.approx(
            3.7, abs=fmt.resolution
        )

    @given(st.floats(min_value=0.01, max_value=100.0))
    def test_peak_always_representable(self, peak):
        fmt = format_for_range(np.array([peak]), 8)
        # Within one resolution step of the peak (may clip to max_value).
        assert fmt.roundtrip(peak) >= peak - fmt.resolution - peak * 0.01


class TestQuantizedLinear:
    def _layer(self, act="relu"):
        fmt = format_for_range(np.array([4.0]), 8)
        return QuantizedLinear(
            weights=FixTensor.from_float([[1.0, -1.0]], fmt),
            bias=FixTensor.from_float([0.5], fmt),
            activation=act,
            in_fmt=fmt,
            act_fmt=fmt,
        )

    def test_linear_math(self):
        layer = self._layer("linear")
        out = layer(np.array([1.0, 0.5]))
        assert out[0, 0] == pytest.approx(1.0, abs=0.1)

    def test_relu_clamps(self):
        layer = self._layer("relu")
        out = layer(np.array([-2.0, 2.0]))  # 1*-2 + -1*2 + 0.5 = -3.5 -> 0
        assert out[0, 0] == 0.0

    def test_unknown_activation_rejected(self):
        layer = self._layer("linear")
        layer.activation = "swish"
        with pytest.raises(ValueError):
            layer(np.array([1.0, 1.0]))


def _rounding_shift_per_column(wide: np.ndarray, shifts: np.ndarray) -> np.ndarray:
    """The pre-vectorisation implementation, kept as the oracle: one
    column at a time, integer shifts, round half away from zero."""
    out = np.empty_like(wide)
    for j, shift in enumerate(np.asarray(shifts, dtype=np.int64)):
        col = wide[..., j]
        if shift > 0:
            offset = 1 << (shift - 1)
            out[..., j] = np.where(
                col >= 0, (col + offset) >> shift, -((-col + offset) >> shift)
            )
        elif shift < 0:
            out[..., j] = col << (-shift)
        else:
            out[..., j] = col
    return out


class TestRoundingShift:
    SHIFTS = np.arange(-3, 13)

    @pytest.mark.parametrize("dtype", [np.float64, np.int32], ids=["float", "int"])
    def test_matches_per_column_oracle_on_every_fix8_accumulator(self, dtype):
        """Every value a fix8 MAC of fan-in <= 64 can accumulate, against
        positive, zero and negative shifts side by side in one call —
        on the float accumulator the kernel uses and the integer one —
        and against each shift alone, the uniform form ``FixTensor``
        arithmetic passes (``frac_bits``).  Both come back as intp (for a
        float accumulator the cast is the truncation, an integer one is
        shifted in its own dtype and widened)."""
        peak = 64 * 128 * 128
        values = np.arange(-peak, peak + 1, dtype=np.int32)
        domain = np.arange(-128, 128)  # a fix8 table that returns its raw value
        for block in np.array_split(values, 8):
            acc = np.repeat(block[:, None], len(self.SHIFTS), axis=1)
            expected = _rounding_shift_per_column(acc, self.SHIFTS)
            got = _rounding_shift(acc.astype(dtype), self.SHIFTS)
            assert got.dtype == np.intp
            assert np.array_equal(got, expected)
            # The kernels never saturate an index: ``take(..., mode="clip")``
            # of the unsaturated one is the saturated value's entry.
            index = got + 128
            assert np.array_equal(domain.take(index, mode="clip"), np.clip(expected, -128, 127))
            for j, shift in enumerate(self.SHIFTS):
                uniform = _rounding_shift(block.astype(dtype), int(shift))
                assert uniform.dtype == np.intp
                assert np.array_equal(uniform, expected[:, j])

    def test_float_path_equals_integer_path_on_ties_and_zeros(self):
        """Exact ties ``±(k + ½)·2^s`` and their neighbours, 0 and −0.0, at
        every shift from −3 to 12: the float path (scale, add a signed half,
        truncate in the cast) equals the integer path and
        ``copysign(floor(|acc|·2^-s + ½), acc)``."""
        k = np.arange(200, dtype=np.int64)
        for shift in map(int, self.SHIFTS):
            ties = (2 * k + 1) << (shift - 1) if shift > 0 else k
            ints = np.concatenate([ties, -ties, ties + 1, -ties - 1, [0, 0]])
            floats = ints.astype(np.float64)
            floats[-1] = -0.0
            half_away = np.copysign(np.floor(np.abs(floats) * 2.0**-shift + 0.5), floats)
            got = _rounding_shift(floats.copy(), shift)
            assert np.array_equal(got, _rounding_shift(ints, shift)), shift
            assert np.array_equal(got, half_away), shift
        # An accumulator that already carries the factor is the same shift.
        acc = np.repeat(np.arange(-4096.0, 4097.0)[:, None], len(self.SHIFTS), axis=1)
        factor = np.ldexp(1.0, -self.SHIFTS)
        assert np.array_equal(
            _rounding_shift(acc * factor, self.SHIFTS, scaled=True),
            _rounding_shift(acc, self.SHIFTS)
        )

    def test_layer_takes_the_integer_path_when_float_is_not_exact(self):
        """A fix32 MAC exceeds 2^52: the layer must accumulate in int64."""
        fmt = format_for_range(np.array([4.0]), 32)
        layer = QuantizedLinear(
            weights=FixTensor.from_float([[1.0, -1.0]], fmt),
            bias=FixTensor.from_float([0.5], fmt),
            activation="linear", in_fmt=fmt, act_fmt=fmt,
        )
        assert layer._w.dtype == np.int64
        assert layer.mac_raw(fmt.quantize([[1.0, 0.5]]).T).tolist() == [[1 << 28]]
        assert layer(np.array([1.0, 0.5]))[0, 0] == 1.0


class TestPickle:
    def test_mac_operands_are_rebuilt_on_load(self, quantized_dnn):
        """A pickle carries a layer's stored fields, not the operands its
        class derives from them: a layer loaded under other code runs that
        code's operands.  Every derived array is corrupted before the
        round trip; the loaded layer must still equal a fresh build."""
        layer = copy.deepcopy(quantized_dnn.layers[0])
        x = np.random.default_rng(0).uniform(-2, 2, size=(64, layer.w_raw.shape[1]))
        fresh = layer(x)
        derived = [value for name, value in vars(layer).items()
                   if name.startswith("_") and isinstance(value, np.ndarray)]
        assert derived
        for value in derived:
            value[...] = 0
        loaded = pickle.loads(pickle.dumps(layer))
        assert np.array_equal(loaded(x), fresh)
        assert np.array_equal(pickle.loads(pickle.dumps(quantized_dnn))(x), quantized_dnn(x))


class TestMacRawOffset:
    def test_offset_folds_into_the_epilogue_on_every_shipped_layer(
        self, quantized_dnn, trained_dnn, train_test_split
    ):
        """``mac_raw(x, offset) == mac_raw(x) - offset`` on every layer of
        the shipped anomaly DNNs (the analyser's catalog model and the
        app's), and of its fix16 / fix32 quantizations (the integer path)."""
        from repro.analysis.catalog import _trained_quantized_dnn

        train, __ = train_test_split
        x = dnn_feature_matrix(train)[:256]
        models = [_trained_quantized_dnn(), quantized_dnn]
        models += [quantize_model(trained_dnn, x, bits) for bits in (16, 32)]
        rng = np.random.default_rng(0)
        for model in models:
            for layer in model.layers:
                fmt, width = layer.in_fmt, layer.w_raw.shape[1]
                x_raw = rng.integers(fmt.raw_min, fmt.raw_max, size=(width, 64), endpoint=True)
                x_raw[:, :2] = [fmt.raw_min, fmt.raw_max]
                plain = layer.mac_raw(x_raw)
                for offset in (layer.act_fmt.raw_min, layer.act_fmt.raw_max, 0, 37):
                    shifted = layer.mac_raw(x_raw, offset)
                    assert shifted.dtype == plain.dtype
                    assert np.array_equal(shifted, plain - offset), (layer.act_fmt, offset)


class TestQuantizeModel:
    def test_fix8_accuracy_close_to_float(self, trained_dnn, train_test_split):
        """The Table 3 headline: fix8 loses almost no accuracy."""
        __, test = train_test_split
        x = dnn_feature_matrix(test)
        qmodel = quantize_model(trained_dnn, x[:256])
        float_pred = trained_dnn.predict(x)
        quant_pred = (qmodel(x).reshape(-1) >= 0.5).astype(np.int64)
        float_f1 = f1_score(test.labels, float_pred)
        quant_f1 = f1_score(test.labels, quant_pred)
        assert abs(float_f1 - quant_f1) < 0.02

    def test_agreement_rate_high(self, trained_dnn, quantized_dnn, train_test_split):
        __, test = train_test_split
        x = dnn_feature_matrix(test)
        float_pred = trained_dnn.predict(x)
        quant_pred = (quantized_dnn(x).reshape(-1) >= 0.5).astype(np.int64)
        # 8-bit resolution flips a few near-threshold scores; label-level
        # agreement stays high and F1 parity (previous test) is preserved.
        assert accuracy(float_pred, quant_pred) > 0.88

    def test_weight_bytes(self, quantized_dnn):
        # 6->12->6->3->1 network: 187 parameters at 1 byte each.
        assert quantized_dnn.weight_bytes == 187

    def test_wider_formats_reduce_error(self, trained_dnn, train_test_split):
        __, test = train_test_split
        x = dnn_feature_matrix(test)[:200]
        ref = trained_dnn.forward(x).reshape(-1)
        err8 = np.abs(quantize_model(trained_dnn, x, 8)(x).reshape(-1) - ref).mean()
        err16 = np.abs(quantize_model(trained_dnn, x, 16)(x).reshape(-1) - ref).mean()
        assert err16 <= err8

    def test_predict_multiclass(self):
        model = DNN([4, 8, 3], output="softmax", seed=0)
        x = np.random.default_rng(0).normal(size=(50, 4))
        y = (x[:, 0] > 0).astype(int) + (x[:, 1] > 0).astype(int)
        model.fit(x, y, epochs=10)
        q = quantize_model(model, x)
        agreement = np.mean(q.predict(x) == model.predict(x))
        assert agreement > 0.9
