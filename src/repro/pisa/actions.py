"""VLIW actions executed by match-action stages.

A MAT stage issues a small number of parallel primitive operations on PHV
fields — Tofino executes "12 operations per stage: four of each of 8, 16,
and 32 bits" (Section 2.1.1).  We model an :class:`Action` as a bounded
list of primitives and enforce the per-stage issue width, which is exactly
the constraint that makes MAT-only ML expensive (Section 5.1.4).
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .phv import PHV, PHVBatch

__all__ = ["Primitive", "Action", "MAX_OPS_PER_STAGE"]

#: Tofino-like issue width per MAT stage.
MAX_OPS_PER_STAGE = 12


@dataclass(frozen=True)
class Primitive:
    """One VLIW slot: dst <- fn(PHV).  ``fn`` returns the new value.

    ``batch_fn`` is its required vectorized twin (keyword-only), the one
    the batched pipeline calls: with ``(batch, mask)`` it returns the new
    values for the selected rows (a scalar, a full-length column, or one
    value per selected row), reading the pre-action columns.  ``fn`` is
    the oracle; the twin must agree with it row for row.
    """

    dst: str
    fn: Callable[[PHV], float]
    note: str = ""
    batch_fn: Callable[[PHVBatch, np.ndarray], np.ndarray | float] = field(kw_only=True)

    def __post_init__(self) -> None:
        if not callable(self.batch_fn):
            raise ValueError(f"primitive for {self.dst!r} needs its batch_fn twin")


@dataclass
class Action:
    """A named bundle of primitives applied atomically to a PHV."""

    name: str
    primitives: list[Primitive] = field(default_factory=list)

    def __post_init__(self) -> None:
        if len(self.primitives) > MAX_OPS_PER_STAGE:
            raise ValueError(
                f"action {self.name!r} has {len(self.primitives)} ops; "
                f"a stage issues at most {MAX_OPS_PER_STAGE}"
            )

    def apply(self, phv: PHV) -> None:
        # VLIW semantics: all slots read the old PHV, then write together.
        for dst, value in [(p.dst, p.fn(phv)) for p in self.primitives]:
            phv.set(dst, value)

    def apply_batch(self, batch: PHVBatch, mask: np.ndarray) -> None:
        """Apply to every selected row of a batch, with VLIW semantics.

        All slots are evaluated against the pre-action columns before any
        write lands, exactly as :meth:`apply` stages scalar slots.  Cutting a
        full-length result to the selected rows copies it, so a slot that
        returns a live column view cannot see an earlier slot's write.
        """
        if not self.primitives or not mask.any():
            return
        staged = []
        for p in self.primitives:
            values = p.batch_fn(batch, mask)
            if np.ndim(values) and len(values) == batch.n:
                values = values[mask]
            staged.append((p.dst, values))
        for dst, values in staged:
            batch.set_column(dst, values, where=mask)

    @staticmethod
    def set_const(name: str, dst: str, value: float) -> "Action":
        return Action(
            name,
            [
                Primitive(
                    dst,
                    lambda phv, v=value: v,
                    f"{dst}={value}",
                    batch_fn=lambda batch, mask, v=value: v,
                )
            ],
        )

    @staticmethod
    def noop(name: str = "noop") -> "Action":
        return Action(name, [])
