"""Fixed-point tensors with saturating arithmetic.

A :class:`FixTensor` pairs a raw integer numpy array with its
:class:`~repro.fixpoint.formats.FixedPointFormat`.  All arithmetic is
performed in a wide intermediate type and saturated back to the storage
width, mirroring what the Taurus functional units do per cycle.  This is the
numeric substrate shared by the CGRA simulator and the quantized ML models,
so both see bit-identical results.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .formats import FIX8, FixedPointFormat

__all__ = ["FixTensor"]


class FixTensor:
    """An n-dimensional fixed-point array.

    Construct via :meth:`from_float` (quantizing real values) or
    :meth:`from_raw` (adopting pre-quantized integers).
    """

    __slots__ = ("raw", "fmt")

    def __init__(self, raw: np.ndarray, fmt: FixedPointFormat):
        raw = np.asarray(raw)
        if raw.dtype != fmt.storage_dtype:
            raise TypeError(
                f"raw dtype {raw.dtype} does not match format {fmt.name} "
                f"storage dtype {fmt.storage_dtype}"
            )
        self.raw = raw
        self.fmt = fmt

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    @classmethod
    def from_float(
        cls, values: np.ndarray | Iterable[float] | float, fmt: FixedPointFormat = FIX8
    ) -> "FixTensor":
        """Quantize real values into a fixed-point tensor."""
        return cls(fmt.quantize(np.asarray(values, dtype=np.float64)), fmt)

    @classmethod
    def from_raw(cls, raw: np.ndarray, fmt: FixedPointFormat = FIX8) -> "FixTensor":
        """Adopt already-quantized integers (saturating them first)."""
        return cls(fmt.saturate(np.asarray(raw)), fmt)

    @classmethod
    def zeros(cls, shape: tuple[int, ...] | int, fmt: FixedPointFormat = FIX8) -> "FixTensor":
        """All-zeros tensor of the given shape."""
        return cls(np.zeros(shape, dtype=fmt.storage_dtype), fmt)

    # ------------------------------------------------------------------
    # Views
    # ------------------------------------------------------------------
    def to_float(self) -> np.ndarray:
        """Dequantize to float64."""
        return self.fmt.dequantize(self.raw)

    @property
    def shape(self) -> tuple[int, ...]:
        return self.raw.shape

    @property
    def size(self) -> int:
        return int(self.raw.size)

    def reshape(self, *shape: int) -> "FixTensor":
        return FixTensor(self.raw.reshape(*shape), self.fmt)

    def __getitem__(self, idx) -> "FixTensor":
        item = self.raw[idx]
        return FixTensor(np.asarray(item, dtype=self.fmt.storage_dtype), self.fmt)

    def __len__(self) -> int:
        return len(self.raw)

    # ------------------------------------------------------------------
    # Saturating arithmetic (element-wise "map" semantics)
    # ------------------------------------------------------------------
    def _coerce(self, other: "FixTensor | float | int") -> "FixTensor":
        if isinstance(other, FixTensor):
            if other.fmt != self.fmt:
                raise ValueError(
                    f"format mismatch: {self.fmt.name} vs {other.fmt.name}"
                )
            return other
        return FixTensor.from_float(float(other), self.fmt)

    def __add__(self, other: "FixTensor | float | int") -> "FixTensor":
        rhs = self._coerce(other)
        wide = self.raw.astype(self.fmt.wide_dtype) + rhs.raw.astype(self.fmt.wide_dtype)
        return FixTensor(self.fmt.saturate(wide), self.fmt)

    def __sub__(self, other: "FixTensor | float | int") -> "FixTensor":
        rhs = self._coerce(other)
        wide = self.raw.astype(self.fmt.wide_dtype) - rhs.raw.astype(self.fmt.wide_dtype)
        return FixTensor(self.fmt.saturate(wide), self.fmt)

    def __mul__(self, other: "FixTensor | float | int") -> "FixTensor":
        rhs = self._coerce(other)
        wide = self.raw.astype(self.fmt.wide_dtype) * rhs.raw.astype(self.fmt.wide_dtype)
        # Rescale: the product carries 2*frac_bits fractional bits.
        wide = _rounding_shift(wide, self.fmt.frac_bits)
        return FixTensor(self.fmt.saturate(wide), self.fmt)

    def __neg__(self) -> "FixTensor":
        wide = -self.raw.astype(self.fmt.wide_dtype)
        return FixTensor(self.fmt.saturate(wide), self.fmt)

    def maximum(self, other: "FixTensor | float | int") -> "FixTensor":
        rhs = self._coerce(other)
        return FixTensor(np.maximum(self.raw, rhs.raw), self.fmt)

    def minimum(self, other: "FixTensor | float | int") -> "FixTensor":
        rhs = self._coerce(other)
        return FixTensor(np.minimum(self.raw, rhs.raw), self.fmt)

    # ------------------------------------------------------------------
    # Reductions ("reduce" semantics: associative tree reductions)
    # ------------------------------------------------------------------
    def sum(self, axis: int | None = None) -> "FixTensor":
        """Saturating sum; accumulation happens in the wide type.

        Taurus reduces within a CU using a 4-level adder tree over a wide
        accumulator and saturates once at the end, so we accumulate wide and
        saturate once rather than pairwise.
        """
        wide = self.raw.astype(self.fmt.wide_dtype).sum(axis=axis)
        return FixTensor(self.fmt.saturate(np.asarray(wide)), self.fmt)

    def dot(self, other: "FixTensor") -> "FixTensor":
        """Saturating dot product: map (multiply) then reduce (add).

        Products keep full precision inside the wide accumulator; a single
        rounding shift and saturation happen at the end, matching a
        multiply-accumulate datapath with a wide accumulator register.
        """
        rhs = self._coerce(other)
        wide = (
            self.raw.astype(self.fmt.wide_dtype) * rhs.raw.astype(self.fmt.wide_dtype)
        ).sum(axis=-1)
        wide = _rounding_shift(np.asarray(wide), self.fmt.frac_bits)
        return FixTensor(self.fmt.saturate(wide), self.fmt)

    def matvec(self, vector: "FixTensor") -> "FixTensor":
        """Matrix-vector product (the core Taurus inference primitive)."""
        if self.raw.ndim != 2 or vector.raw.ndim != 1:
            raise ValueError("matvec expects a 2-D matrix and a 1-D vector")
        rhs = self._coerce(vector)
        wide = self.raw.astype(self.fmt.wide_dtype) @ rhs.raw.astype(self.fmt.wide_dtype)
        wide = _rounding_shift(wide, self.fmt.frac_bits)
        return FixTensor(self.fmt.saturate(wide), self.fmt)

    def max(self, axis: int | None = None) -> "FixTensor":
        return FixTensor(np.asarray(self.raw.max(axis=axis)), self.fmt)

    def min(self, axis: int | None = None) -> "FixTensor":
        return FixTensor(np.asarray(self.raw.min(axis=axis)), self.fmt)

    def argmax(self, axis: int | None = None) -> np.ndarray:
        return np.asarray(self.raw.argmax(axis=axis))

    def argmin(self, axis: int | None = None) -> np.ndarray:
        return np.asarray(self.raw.argmin(axis=axis))

    # ------------------------------------------------------------------
    # Misc
    # ------------------------------------------------------------------
    def __eq__(self, other: object) -> bool:
        if not isinstance(other, FixTensor):
            return NotImplemented
        return self.fmt == other.fmt and np.array_equal(self.raw, other.raw)

    def __hash__(self) -> int:  # pragma: no cover - tensors are not dict keys
        raise TypeError("FixTensor is unhashable")

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return f"FixTensor({self.to_float()!r}, fmt={self.fmt.name})"


def _rounding_shift(acc: np.ndarray, shifts: np.ndarray | int) -> np.ndarray:
    """``acc / 2**shifts`` (one shift, or one per column), rounded half
    away from zero — which keeps quantization symmetric around 0.

    Positive shift moves right (divide), negative left (multiply) — both
    are single-cycle barrel-shift operations per lane.  ``acc`` is either
    integer-valued float64 below 2^52 in every intermediate (scaling by a
    power of two and adding one half are then exact) or a wide integer.
    """
    if acc.dtype.kind == "f":
        mag = np.abs(acc)
        mag *= np.ldexp(1.0, -shifts)
        mag += 0.5
        return np.copysign(np.floor(mag, out=mag), acc, out=mag)
    down = np.maximum(shifts, 0).astype(acc.dtype)
    up = np.maximum(-shifts, 0).astype(acc.dtype)
    mag = ((np.abs(acc) + ((1 << down) >> 1)) >> down) << up
    return np.where(acc < 0, -mag, mag)
