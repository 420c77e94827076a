"""Packet Header Vectors.

PISA parsers emit a PHV — "a fixed-layout, structured format" — that flows
through the match-action stages.  Taurus extends the PHV with a dense
feature region: "only the required feature headers enter the MapReduce
block as a dense PHV (to minimize sparse data occurrences)" (Section 4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..fixpoint import FIX8, FixedPointFormat

__all__ = ["PHVLayout", "PHV", "PHVBatch"]


@dataclass(frozen=True)
class PHVLayout:
    """Field names and bit-widths of the PHV (a fixed hardware layout).

    ``slots`` resolves each name once, at construction, to
    ``(is_feature, index, written_row, width_mask, width)``: header fields take
    indexes ``0 .. H-1`` in declaration order, feature fields indexes
    ``0 .. F-1`` in ``feature_fields`` order, and a batch's written mask
    has header rows first, then feature rows (``written_row = H + index``).
    """

    fields: tuple[tuple[str, int], ...]
    feature_fields: tuple[str, ...] = ()
    n_headers: int = field(init=False, repr=False, compare=False)
    slots: dict[str, tuple] = field(init=False, repr=False, compare=False)

    def __post_init__(self) -> None:
        names = [name for name, __ in self.fields]
        if len(set(names)) != len(names):
            raise ValueError("duplicate PHV field names")
        features = set(self.feature_fields)
        missing = features - set(names)
        if missing:
            raise ValueError(f"feature fields not in layout: {sorted(missing)}")
        widths = dict(self.fields)
        headers = [(name, w) for name, w in self.fields if name not in features]
        slots = {name: (False, h, h, (1 << w) - 1, w) for h, (name, w) in enumerate(headers)}
        for j, name in enumerate(self.feature_fields):
            slots[name] = (True, j, len(headers) + j, 0, widths[name])
        object.__setattr__(self, "n_headers", len(headers))
        object.__setattr__(self, "slots", slots)

    def width_of(self, name: str) -> int:
        return self.slots[name][4]


@dataclass
class PHV:
    """One packet's header vector (values stored as Python ints/floats)."""

    layout: PHVLayout
    values: dict[str, float] = field(default_factory=dict)

    def get(self, name: str, default: float = 0.0) -> float:
        self.layout.width_of(name)  # validates the field exists
        return self.values.get(name, default)

    def set(self, name: str, value: float) -> None:
        # Header fields are unsigned integers of the declared width;
        # feature fields are floats.
        feature, __, __, mask, __ = self.layout.slots[name]
        self.values[name] = float(value) if feature else int(value) & mask

    # ------------------------------------------------------------------
    # Feature region: the dense slice that enters the MapReduce block
    # ------------------------------------------------------------------
    def feature_vector(self, fmt: FixedPointFormat = FIX8) -> np.ndarray:
        """Features as fixed-point-formatted values (what the fabric sees).

        Preprocessing MATs "format these features as fixed-point numbers"
        (Section 5.2.2); the roundtrip applies that quantization, which
        saturates out-of-range values and maps NaN to zero itself.
        """
        raw = [self.values.get(name, 0.0) for name in self.layout.feature_fields]
        return fmt.roundtrip(np.array(raw))

    def set_features(self, values: np.ndarray) -> None:
        names = self.layout.feature_fields
        values = np.asarray(values, dtype=np.float64)
        if len(values) != len(names):
            raise ValueError(f"expected {len(names)} features, got {len(values)}")
        self.values.update(zip(names, values.tolist()))


class PHVBatch:
    """``N`` packets' header vectors as three fixed-layout blocks.

    The columnar twin of :class:`PHV`, at the slots of :attr:`PHVLayout.slots`:
    ``headers`` is ``int64[H, N]`` (values masked to their declared width
    on write), ``features`` is ``float64[N, F]`` in ``feature_fields`` order
    (the dense region :meth:`feature_matrix` quantizes as one block for the
    MapReduce block), and ``written`` is ``bool[H + F, N]``, the twin of
    dict-key presence (so "was ``decision`` explicitly set?" works the same
    way).  A batch is allocated zeroed, so a never-written field reads as
    zeros, matching ``PHV.get``'s default.

    A batch :meth:`Parser.parse_batch <repro.pisa.parser.Parser.parse_batch>`
    returns is *deferred*: its blocks are allocated and the parse walk fills
    them on the first touch of any of the three, which every method here
    makes, so a span nothing reads is never parsed.
    """

    __slots__ = ("layout", "n", "headers", "features", "written", "_fill")

    def __init__(self, layout: PHVLayout, n: int):
        self.layout = layout
        self.n = n
        self._fill = None
        self._allocate()

    @classmethod
    def _deferred(cls, layout: PHVLayout, n: int, fill: Callable[["PHVBatch"], None]) -> "PHVBatch":
        """A batch whose blocks ``fill(batch)`` writes, zeroed, on first touch."""
        batch = cls.__new__(cls)
        batch.layout, batch.n, batch._fill = layout, n, fill
        return batch

    def _allocate(self) -> None:
        h, f = self.layout.n_headers, len(self.layout.feature_fields)
        self.headers = np.zeros((h, self.n), dtype=np.int64)
        self.features = np.zeros((self.n, f), dtype=np.float64)
        self.written = np.zeros((h + f, self.n), dtype=bool)

    def __getattr__(self, name: str):
        # Reached only for an unset slot: a deferred batch's blocks.
        if name not in ("headers", "features", "written") or self._fill is None:
            raise AttributeError(name)
        fill, self._fill = self._fill, None
        self._allocate()
        fill(self)
        return getattr(self, name)

    # ------------------------------------------------------------------
    # Column access
    # ------------------------------------------------------------------
    def column(self, name: str) -> np.ndarray:
        """The field's value column (zeros where never written).

        Returned arrays are read-only views of the live block; write
        through :meth:`set_column` instead.
        """
        feature, index, __, __, __ = self.layout.slots[name]
        view = self.features[:, index] if feature else self.headers[index]
        view.flags.writeable = False
        return view

    def int_column(self, name: str) -> np.ndarray:
        """The column as int64 (``int(phv.get(name))`` per row)."""
        col = self.column(name)
        return col if col.dtype == np.int64 else col.astype(np.int64)  # int() truncation

    def was_written(self, name: str) -> np.ndarray:
        """Which rows had the field explicitly set (dict-presence twin)."""
        return self.written[self.layout.slots[name][2]]

    def set_column(self, name: str, values, where: np.ndarray | None = None) -> None:
        """Write a field for all rows (or the rows selected by ``where``).

        Applies the scalar ``PHV.set`` conversion per row: header fields
        are truncated to int and masked to the declared width; feature
        fields are stored as float.  ``values`` is a scalar, a full-length
        column, or one value per selected row.
        """
        feature, index, row, mask, __ = self.layout.slots[name]
        if feature:
            col, vals = self.features[:, index], np.asarray(values, dtype=np.float64)
        else:  # int() truncation, then the width mask
            col, vals = self.headers[index], np.asarray(values).astype(np.int64, copy=False) & mask
        if where is None:
            where = slice(None)
        elif vals.ndim and len(vals) == self.n:
            vals = vals[where]
        col[where] = vals
        self.written[row, where] = True

    def clear(self, name: str) -> None:
        """Forget the field entirely (``phv.values.pop(name, None)``)."""
        feature, index, row, __, __ = self.layout.slots[name]
        if feature:
            self.features[:, index] = 0.0
        else:
            self.headers[index] = 0
        self.written[row] = False

    # ------------------------------------------------------------------
    # Feature region
    # ------------------------------------------------------------------
    def feature_matrix(self, fmt: FixedPointFormat = FIX8) -> np.ndarray:
        """The dense ``[N, D]`` feature block, fixed-point formatted.

        Row ``i`` equals ``self.to_phv(i).feature_vector(fmt)``: the block
        itself goes through the quantize roundtrip, which saturates and
        maps NaN to zero.
        """
        return fmt.roundtrip(self.features)

    def set_features(self, matrix: np.ndarray, where: np.ndarray | None = None) -> None:
        """Write the feature region from an ``[N, D]`` block, or only the
        rows the boolean mask ``where`` selects (``matrix`` then holds
        either every row or one row per selected row)."""
        matrix = np.asarray(matrix, dtype=np.float64)
        if matrix.shape[1] != self.features.shape[1]:
            raise ValueError(
                f"expected {self.features.shape[1]} features, got {matrix.shape[1]}"
            )
        rows = self.written[self.layout.n_headers :]
        if where is None:
            self.features[:] = matrix
            rows[:] = True
            return
        if len(matrix) == self.n:
            np.copyto(self.features, matrix, where=where[:, None])
        else:
            self.features[where] = matrix
        rows |= where

    # ------------------------------------------------------------------
    # Scalar view
    # ------------------------------------------------------------------
    def to_phv(self, i: int) -> PHV:
        """Materialize packet ``i`` as a standalone scalar :class:`PHV`."""
        phv = PHV(self.layout)
        for name, (feature, index, row, __, __) in self.layout.slots.items():
            if self.written[row, i]:
                phv.values[name] = (
                    float(self.features[i, index]) if feature else int(self.headers[index, i])
                )
        return phv
