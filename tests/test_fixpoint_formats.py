"""Unit tests for fixed-point formats."""

import numpy as np
import pytest
from hypothesis import given, strategies as st

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
        wide = np.array([300, -300, 5], dtype=np.int32)
        out = FIX8.saturate(wide)
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
