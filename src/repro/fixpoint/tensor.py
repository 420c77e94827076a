"""Fixed-point tensors and the datapath's rounding shift.

A :class:`FixTensor` pairs a raw integer numpy array with its
:class:`~repro.fixpoint.formats.FixedPointFormat`: the typed form in which
:class:`~repro.fixpoint.quantize.QuantizedLinear` keeps a layer's nominal
weights and its bias.  It carries no arithmetic of its own; the one
fixed-point multiply-accumulate is ``QuantizedLinear.mac_raw``, which
requantizes with :func:`_rounding_shift`.
"""

from __future__ import annotations

from typing import Iterable

import numpy as np

from .formats import FIX8, FixedPointFormat

__all__ = ["FixTensor"]


class FixTensor:
    """An n-dimensional fixed-point array.

    Construct via :meth:`from_float` (quantizing real values), or from raw
    integers already in the format's storage dtype.
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


def _rounding_shift(
    acc: np.ndarray, shifts: np.ndarray | int, scaled: bool = False
) -> np.ndarray:
    """``acc / 2**shifts`` (one shift, or one per column), rounded half
    away from zero — which keeps quantization symmetric around 0.

    Positive shift moves right (divide), negative left (multiply) — both
    are single-cycle barrel-shift operations per lane.  ``acc`` is either
    integer-valued float64 below 2^52 in every intermediate (scaling by a
    power of two and adding one half are then exact) or a wide integer,
    which comes back in its own dtype.  A float ``acc`` comes back as
    intp, ``trunc(acc * 2**-shifts + copysign(0.5, acc))`` with the
    truncation done by the cast (one pass, not a ``trunc`` and a cast);
    ``scaled`` says it already holds ``acc * 2**-shifts`` (its caller
    folded the factor into its weights), so only the rounding is left.
    """
    if acc.dtype.kind == "f":
        if not scaled:
            acc *= np.ldexp(1.0, -shifts)
        acc += np.copysign(0.5, acc)
        return acc.astype(np.intp)
    down = np.maximum(shifts, 0).astype(acc.dtype)
    up = np.maximum(-shifts, 0).astype(acc.dtype)
    mag = ((np.abs(acc) + ((1 << down) >> 1)) >> down) << up
    return np.where(acc < 0, -mag, mag)
