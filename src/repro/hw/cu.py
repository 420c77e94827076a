"""Cycle-level functional model of one Compute Unit.

A CU is a grid of functional units organized in ``lanes`` x ``stages``
(Fig. 8): within a stage all lanes execute the same instruction (SIMD), and
pipeline registers sit between stages so every FU is busy every cycle.  The
final stage doubles as a tree-reduction network ("one cycle for map and four
cycles for reduce" for 16 lanes).

This model executes map chains and reductions on
:class:`~repro.fixpoint.tensor.FixTensor` values with per-cycle accounting,
and is the ground truth the analytical compiler's cost model is tested
against.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..fixpoint import FixTensor
from ..mapreduce.ops import MAP_OPS, REDUCE_OPS, reduce_tree_depth
from .params import CUGeometry, DEFAULT_CU_GEOMETRY

__all__ = ["ComputeUnit", "CUResult"]


@dataclass(frozen=True)
class CUResult:
    """Output of one CU invocation plus its cycle cost."""

    value: FixTensor
    cycles: int
    stages_used: int


@dataclass
class ComputeUnit:
    """One CU instance executing a configured map chain and/or reduction.

    The configuration is static (a CGRA reconfigures between programs, not
    between packets): ``map_chain`` is a list of (op_name, operand) pairs
    where ``operand`` is a broadcast constant, a per-lane constant vector,
    or ``None`` for unary ops; ``reduce_op`` optionally follows the chain.
    """

    geometry: CUGeometry = DEFAULT_CU_GEOMETRY
    map_chain: list[tuple[str, np.ndarray | float | None]] = field(default_factory=list)
    reduce_op: str | None = None
    invocations: int = 0
    busy_cycles: int = 0

    def __post_init__(self) -> None:
        if len(self.map_chain) > self.geometry.stages:
            raise ValueError(
                f"map chain of {len(self.map_chain)} ops exceeds "
                f"{self.geometry.stages} stages; split the pattern first"
            )
        for op_name, __ in self.map_chain:
            if op_name not in MAP_OPS:
                raise ValueError(f"unknown map op {op_name!r}")
        if self.reduce_op is not None and self.reduce_op not in REDUCE_OPS:
            raise ValueError(f"unknown reduce op {self.reduce_op!r}")

    def execute(self, vector: FixTensor) -> CUResult:
        """Run one input vector through the configured pipeline."""
        if vector.size > self.geometry.lanes:
            raise ValueError(
                f"vector of width {vector.size} exceeds {self.geometry.lanes} lanes"
            )
        value = vector
        stages_used = 0
        for op_name, operand in self.map_chain:
            op = MAP_OPS[op_name]
            stages_used += 1
            if op.arity == 1:
                value = FixTensor.from_float(
                    value.fmt.roundtrip(op.fn(value.to_float())), value.fmt
                )
            else:
                rhs = (
                    operand.to_float()
                    if isinstance(operand, FixTensor)
                    else np.asarray(operand, dtype=np.float64)
                )
                value = FixTensor.from_float(
                    value.fmt.roundtrip(op.fn(value.to_float(), rhs)), value.fmt
                )
        cycles = max(stages_used, 1)
        if self.reduce_op is not None:
            reducer = REDUCE_OPS[self.reduce_op]
            reduced = reducer.fn(value.to_float())
            value = FixTensor.from_float(np.atleast_1d(reduced), value.fmt)
            cycles = stages_used + 1 + reduce_tree_depth(vector.size, self.geometry.lanes)
        self.invocations += 1
        self.busy_cycles += cycles
        return CUResult(value=value, cycles=cycles, stages_used=stages_used)

    def dot(self, vector: FixTensor, weights: FixTensor) -> CUResult:
        """The perceptron primitive: map multiply + tree-reduce add.

        "When evaluating a 16-input perceptron, the CU uses the first stage
        to map 16 parallel multiplications; then ... reduce[s] the
        multiplied values into a single unit."
        """
        if vector.size != weights.size:
            raise ValueError("weight/vector width mismatch")
        if vector.size > self.geometry.lanes:
            raise ValueError("dot wider than lanes; split into partials")
        result = vector.dot(weights)
        cycles = 1 + reduce_tree_depth(vector.size, self.geometry.lanes)
        self.invocations += 1
        self.busy_cycles += cycles
        return CUResult(
            value=FixTensor.from_raw(np.atleast_1d(result.raw), vector.fmt),
            cycles=cycles,
            stages_used=1,
        )

    @property
    def utilization(self) -> float:
        """Busy fraction assuming one invocation per packet at line rate."""
        if self.invocations == 0:
            return 0.0
        return min(1.0, self.busy_cycles / max(self.invocations, 1) / self.geometry.stages)
