"""Fixed-point number formats for the Taurus MapReduce fabric.

Taurus executes all datapath arithmetic in reduced-precision fixed point
(Section 4: "We use fixed-point reduced precision hardware to execute the
arithmetic needed for the linear algebra in ML algorithms").  The canonical
configuration is 8-bit ("fix8"); 16- and 32-bit variants exist for the
precision study in Table 4.

A :class:`FixedPointFormat` is a signed Q-format: ``total_bits`` two's
complement bits of which ``frac_bits`` sit right of the binary point.  Values
are stored as integers scaled by ``2**frac_bits`` and saturate at the
representable range instead of wrapping, matching inference-oriented
fixed-point hardware (wrap-around would catastrophically corrupt dot
products; saturation merely clips them).
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import cached_property

import numpy as np

__all__ = [
    "FixedPointFormat",
    "FIX8",
    "FIX16",
    "FIX32",
]


@dataclass(frozen=True)
class FixedPointFormat:
    """A signed two's-complement Q-format.

    Parameters
    ----------
    total_bits:
        Width of the stored integer, including the sign bit.
    frac_bits:
        Number of fractional bits; the scale factor is ``2**frac_bits``.
    name:
        Short label used in reports (e.g. ``"fix8"``).
    """

    total_bits: int
    frac_bits: int
    name: str
    # The derived constants below are cached per instance (outside the
    # dataclass fields, so equality and hashing are unchanged): the
    # per-chunk quantize reads them without a Python call each.

    def __post_init__(self) -> None:
        if self.total_bits not in (8, 16, 32):
            raise ValueError(f"unsupported width: {self.total_bits}")
        if not 0 <= self.frac_bits < self.total_bits:
            raise ValueError(
                f"frac_bits must be in [0, {self.total_bits}), got {self.frac_bits}"
            )

    @cached_property
    def int_bits(self) -> int:
        """Integer bits, excluding the sign bit."""
        return self.total_bits - self.frac_bits - 1

    @cached_property
    def scale(self) -> float:
        """Multiplier applied to real values before rounding to integers."""
        return float(1 << self.frac_bits)

    @cached_property
    def raw_min(self) -> int:
        """Smallest representable stored integer."""
        return -(1 << (self.total_bits - 1))

    @cached_property
    def raw_max(self) -> int:
        """Largest representable stored integer."""
        return (1 << (self.total_bits - 1)) - 1

    @cached_property
    def min_value(self) -> float:
        """Smallest representable real value."""
        return self.raw_min / self.scale

    @cached_property
    def max_value(self) -> float:
        """Largest representable real value."""
        return self.raw_max / self.scale

    @cached_property
    def resolution(self) -> float:
        """Real-valued gap between adjacent representable numbers."""
        return 1.0 / self.scale

    @cached_property
    def storage_dtype(self) -> np.dtype:
        """Numpy dtype used to store raw integers."""
        return np.dtype({8: np.int8, 16: np.int16, 32: np.int32}[self.total_bits])

    @cached_property
    def wide_dtype(self) -> np.dtype:
        """Numpy dtype wide enough to hold products without overflow."""
        return np.dtype({8: np.int32, 16: np.int64, 32: np.int64}[self.total_bits])

    def quantize(self, values: np.ndarray | float) -> np.ndarray:
        """Convert real values to raw integers with round-to-nearest-even.

        Non-finite inputs degrade safely: NaN quantizes to zero, +/-inf
        saturate to the format limits (hardware has no NaNs to propagate).
        :meth:`quantize_float`, then the cast to the storage dtype.  A
        scalar or 0-d input returns a numpy scalar.
        """
        return self.quantize_float(values).astype(self.storage_dtype)[()]

    def quantize_float(self, values: np.ndarray | float) -> np.ndarray:
        """:meth:`quantize`'s raw values, still float64 (integer-valued).

        Clip, scale, round, NaN -> 0, in one float64 buffer laid out in C
        order (a transposed view comes back as its C-order copy): the clip
        comes first so huge values cannot overflow the multiply, and
        ``min_value * scale == raw_min`` exactly (a power-of-two scale), so
        the rounded values need no second clip.
        """
        raw = np.empty(np.shape(values))
        np.maximum(values, self.min_value, out=raw, dtype=np.float64)  # NaN stays NaN
        np.minimum(raw, self.max_value, out=raw)
        raw *= self.scale
        np.rint(raw, out=raw)
        raw[np.isnan(raw)] = 0.0
        return raw

    def dequantize(self, raw: np.ndarray) -> np.ndarray:
        """Convert raw integers back to float64 real values."""
        return np.asarray(raw, dtype=np.float64) / self.scale

    def roundtrip(self, values: np.ndarray | float) -> np.ndarray:
        """Quantize then dequantize; the fixed-point view of ``values``."""
        return self.dequantize(self.quantize(values))

    def with_frac_bits(self, frac_bits: int) -> "FixedPointFormat":
        """Return a copy of this format with a different binary point."""
        return FixedPointFormat(self.total_bits, frac_bits, self.name)

    # ------------------------------------------------------------------
    # Interval helpers (repro.analysis.ranges works in these terms)
    # ------------------------------------------------------------------
    def raw_interval(self, lo: float, hi: float) -> tuple[int, int]:
        """A real interval in raw fixed-point units, rounded outward.

        Conservative by construction (floor the low end, ceil the high
        end), so a sound real-valued bound stays sound in raw units.
        """
        return int(np.floor(lo * self.scale)), int(np.ceil(hi * self.scale))

    def covers(self, lo: float, hi: float) -> bool:
        """Whether ``[lo, hi]`` quantizes without saturation.

        Values within half a resolution step beyond the representable
        range still round *to* the range limit — that is rounding, not
        clipping — so the acceptance band is padded by ``resolution/2``.
        """
        slack = self.resolution / 2.0
        return lo >= self.min_value - slack and hi <= self.max_value + slack

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"{self.name}(Q{self.int_bits}.{self.frac_bits})"


#: Taurus's datapath format: 8-bit, Q3.4 by default (range [-8, 7.9375]).
FIX8 = FixedPointFormat(total_bits=8, frac_bits=4, name="fix8")

#: 16-bit variant used in the Table 4 precision study (Q7.8).
FIX16 = FixedPointFormat(total_bits=16, frac_bits=8, name="fix16")

#: 32-bit variant used in the Table 4 precision study (Q15.16).
FIX32 = FixedPointFormat(total_bits=32, frac_bits=16, name="fix32")
