"""Reduce operations of the MapReduce abstraction.

Reduce operations combine a vector to a scalar with an associative operator
(Section 3.3.1); a map node carries its own element-wise ``fn``.
:func:`reduce_tree_depth` is the reduction's cycle count inside one CU,
which the compiler's cost model charges.

Batch semantics: reduce ops contract the **last** axis only (``axis=-1``),
so ``(B, width)`` in gives ``(B,)`` out — one reduced value per packet.
This is the contract the dataflow interpreter
(:meth:`DataflowGraph.execute_batch`) relies on: a row of a batched result
is bit-identical to the same op on that row alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["ReduceOp", "REDUCE_OPS", "reduce_tree_depth"]


@dataclass(frozen=True)
class ReduceOp:
    """An associative vector-to-scalar operation (tree-reduced in a CU).

    ``fn`` contracts the last axis, so it is batch-transparent:
    ``(width,) -> ()`` and ``(B, width) -> (B,)``.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]

    def batched(self, values: np.ndarray) -> np.ndarray:
        """Reduce per packet, keeping the lane axis: ``(B, w) -> (B, 1)``.

        This is the interpreter's default semantics for ``reduce`` nodes
        lowered without an explicit ``fn``.
        """
        return np.asarray(self.fn(values))[..., None]


REDUCE_OPS: dict[str, ReduceOp] = {
    "sum": ReduceOp("sum", lambda v: np.sum(v, axis=-1)),
    "max": ReduceOp("max", lambda v: np.max(v, axis=-1)),
    "min": ReduceOp("min", lambda v: np.min(v, axis=-1)),
    "argmax": ReduceOp("argmax", lambda v: np.argmax(v, axis=-1)),
    "argmin": ReduceOp("argmin", lambda v: np.argmin(v, axis=-1)),
}


def reduce_tree_depth(width: int, lanes: int = 16) -> int:
    """Cycles for a tree reduction of ``width`` elements inside one CU.

    The paper's 16-lane CU reduces 16 elements in four cycles, "using
    different fractions of a single stage for each reduction cycle".
    """
    if width <= 1:
        return 0
    effective = min(width, lanes)
    return int(np.ceil(np.log2(effective)))
