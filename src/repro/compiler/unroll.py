"""Target-independent loop unrolling (Section 4, Table 7).

"Parallelizing MapReduce programs unrolls loops in space: if sufficient
hardware resources are available, a model can execute one iteration per
cycle.  As loop unrolling happens at compile-time, Taurus can guarantee
deterministic throughput: either line-rate performance, or some known
fraction thereof."

This module sweeps unroll factors for loop-shaped kernels and reports the
throughput/area trade-off of Table 7.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..mapreduce.ir import DataflowGraph
from .pipeline import CompiledDesign, compile_graph

__all__ = ["UnrollPoint", "unroll_sweep"]


@dataclass(frozen=True)
class UnrollPoint:
    """One row of an unrolling sweep (Table 7's columns)."""

    unroll: int
    line_rate_fraction: float
    area_mm2: float
    design: CompiledDesign


def unroll_sweep(
    builder: Callable[[int], DataflowGraph],
    factors: Sequence[int] = (1, 2, 4, 8),
) -> list[UnrollPoint]:
    """Compile ``builder(factor)`` for each factor.

    ``builder`` maps an unroll factor to a dataflow graph (e.g.
    :func:`~repro.mapreduce.frontend.conv1d_graph`).
    """
    points = []
    for factor in factors:
        design = compile_graph(builder(factor))
        points.append(
            UnrollPoint(
                unroll=factor,
                line_rate_fraction=design.line_rate_fraction,
                area_mm2=design.area_mm2,
                design=design,
            )
        )
    return points
