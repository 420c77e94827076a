"""Unit tests for fixed-point formats."""

import numpy as np
import pytest
from hypothesis import given, strategies as st
from hypothesis.extra import numpy as hnp

from repro.fixpoint import FIX8, FIX16, FIX32, FixedPointFormat


class TestFormatBasics:
    def test_fix8_layout(self):
        assert FIX8.total_bits == 8
        assert FIX8.frac_bits == 4
        assert FIX8.int_bits == 3
        assert FIX8.scale == 16.0

    def test_ranges(self):
        assert FIX8.raw_min == -128
        assert FIX8.raw_max == 127
        assert FIX8.min_value == -8.0
        assert FIX8.max_value == pytest.approx(7.9375)

    def test_resolution(self):
        assert FIX8.resolution == pytest.approx(1 / 16)
        assert FIX16.resolution == pytest.approx(1 / 256)
        assert FIX32.resolution == pytest.approx(1 / 65536)

    def test_storage_dtypes(self):
        assert FIX8.storage_dtype == np.int8
        assert FIX16.storage_dtype == np.int16
        assert FIX32.storage_dtype == np.int32

    def test_invalid_width_rejected(self):
        with pytest.raises(ValueError):
            FixedPointFormat(total_bits=12, frac_bits=4, name="bad")

    def test_invalid_frac_bits_rejected(self):
        with pytest.raises(ValueError):
            FixedPointFormat(total_bits=8, frac_bits=8, name="bad")
        with pytest.raises(ValueError):
            FixedPointFormat(total_bits=8, frac_bits=-1, name="bad")

    def test_with_frac_bits(self):
        fmt = FIX8.with_frac_bits(6)
        assert fmt.frac_bits == 6
        assert fmt.total_bits == 8


class TestQuantization:
    def test_exact_values_roundtrip(self):
        values = np.array([0.0, 0.5, -0.5, 1.0, -8.0, 7.9375])
        assert np.array_equal(FIX8.roundtrip(values), values)

    def test_saturation_on_overflow(self):
        assert FIX8.roundtrip(100.0) == pytest.approx(7.9375)
        assert FIX8.roundtrip(-100.0) == pytest.approx(-8.0)

    def test_quantize_returns_storage_dtype(self):
        raw = FIX8.quantize(np.array([1.0, 2.0]))
        assert raw.dtype == np.int8

    def test_round_to_nearest(self):
        # 0.03 is closest to 0.0625 * 0.5 -> rounds to 0.0625*round(0.48)=0
        assert FIX8.roundtrip(0.03) == 0.0
        assert FIX8.roundtrip(0.05) == pytest.approx(0.0625)

    def test_saturate_wide_values(self):
        out = FIX8.quantize(np.array([300.0, -300.0, 5 * FIX8.resolution]))
        assert out.tolist() == [127, -128, 5]
        assert out.dtype == np.int8

    @given(st.floats(min_value=-7.9, max_value=7.9, allow_nan=False))
    def test_roundtrip_error_bounded(self, value):
        """Quantization error never exceeds half a ULP in range."""
        assert abs(FIX8.roundtrip(value) - value) <= FIX8.resolution / 2 + 1e-12

    @given(
        st.floats(min_value=-100, max_value=100, allow_nan=False),
        st.sampled_from([FIX8, FIX16, FIX32]),
    )
    def test_roundtrip_always_in_range(self, value, fmt):
        out = float(fmt.roundtrip(value))
        assert fmt.min_value <= out <= fmt.max_value

    @given(st.lists(st.floats(-8, 7.9), min_size=1, max_size=32))
    def test_quantize_is_idempotent(self, values):
        once = FIX8.roundtrip(np.array(values))
        twice = FIX8.roundtrip(once)
        assert np.array_equal(once, twice)

    @pytest.mark.parametrize("fmt", [FIX8, FIX16], ids=lambda f: f.name)
    def test_roundtrip_needs_no_outer_clip(self, fmt):
        """The PHV's feature boundary quantizes raw values with no clip of
        its own: ``quantize`` already maps NaN to 0, +/-inf to the limits
        and saturates, so the clip changed no bit."""
        half = fmt.resolution / 2
        edges = [fmt.min_value, fmt.max_value, half, -half]
        edges += [e + d for e in edges for d in (half, -half)]
        values = np.array([np.nan, np.inf, -np.inf, 1e300, -1e300, -0.0, *edges])
        clipped = fmt.roundtrip(np.clip(values, fmt.min_value, fmt.max_value))
        assert fmt.roundtrip(values).tobytes() == clipped.tobytes()


def _quantize_oracle(fmt, values):
    """The formula ``quantize`` had before it clipped first, kept as the
    oracle: ``nan_to_num`` -> clip -> ``rint`` -> clip -> cast."""
    values = np.nan_to_num(
        np.asarray(values, dtype=np.float64),
        nan=0.0, posinf=fmt.max_value, neginf=fmt.min_value,
    )
    values = np.clip(values, fmt.min_value, fmt.max_value)
    raw = np.rint(values * fmt.scale)
    return np.clip(raw, fmt.raw_min, fmt.raw_max).astype(fmt.storage_dtype)


def _edges(fmt):
    """Non-finite, huge, signed-zero and subnormal inputs, and every
    format limit one half-ulp either side."""
    half = fmt.resolution / 2
    limits = [fmt.min_value, fmt.max_value]
    near = [lim + d for lim in limits for d in (half, -half)]
    return [
        np.nan, np.inf, -np.inf, 1e300, -1e300, -0.0, 0.0,
        5e-324, -5e-324, 2.225073858507201e-308, -2.225073858507201e-308,
        *limits, *near, *(float(np.nextafter(v, 0.0)) for v in near),
    ]


def _edges32(fmt):
    """The edges a float32 can hold, rounded to float32: FIX32's limits
    round onto values outside its range."""
    return [float(np.float32(v)) for v in _edges(fmt) if not abs(v) > 1e38]


@st.composite
def _format_and_input(draw):
    fmt = draw(st.sampled_from([FIX8, FIX16, FIX32]))
    element = st.one_of(
        st.sampled_from(_edges(fmt)),
        st.floats(fmt.min_value * 1.01, fmt.max_value * 1.01),
        st.floats(),
    )
    shapes = hnp.array_shapes(min_dims=1, max_dims=3, min_side=0, max_side=6)
    kind = draw(st.sampled_from(["float64", "float32", "python", "0-d"]))
    if kind == "float64":
        return fmt, draw(hnp.arrays(np.float64, shapes, elements=element))
    if kind == "float32":
        element = st.one_of(st.sampled_from(_edges32(fmt)), st.floats(width=32))
        return fmt, draw(hnp.arrays(np.float32, shapes, elements=element))
    value = draw(element)
    return fmt, value if kind == "python" else np.array(value)


class TestQuantizeEdges:
    @given(_format_and_input())
    def test_quantize_matches_the_nan_to_num_formula(self, case):
        """Same bytes, dtype, shape and return type as the oracle, on any
        shape, a Python float or a 0-d array."""
        fmt, values = case
        got, want = fmt.quantize(values), _quantize_oracle(fmt, values)
        assert type(got) is type(want)
        assert got.dtype == want.dtype and got.shape == want.shape
        assert got.tobytes() == want.tobytes()

    @pytest.mark.parametrize("fmt", [FIX8, FIX16, FIX32], ids=lambda f: f.name)
    def test_every_edge_at_once(self, fmt):
        for values in (np.array(_edges(fmt)), np.array(_edges32(fmt), dtype=np.float32)):
            assert fmt.quantize(values).tobytes() == _quantize_oracle(fmt, values).tobytes()

    def test_scalar_in_numpy_scalar_out(self):
        for value in (3.3, np.float64(3.3), np.array(3.3)):
            assert type(FIX8.quantize(value)) is np.int8
        assert type(FIX16.quantize(np.nan)) is np.int16
        assert type(FIX8.quantize([3.3])) is np.ndarray
