"""Primitive operations of the MapReduce abstraction.

Map operations are element-wise vector ops; reduce operations combine a
vector to a scalar with an associative operator (Section 3.3.1).  Each op
carries its fixed-point execution semantics so the functional CGRA
simulator and the analytical compiler agree on exactly what a CU stage does.

Batch semantics: every op accepts a leading batch axis.  Map ops broadcast
element-wise, so ``(B, width)`` in gives ``(B, width)`` out; reduce ops
contract the **last** axis only (``axis=-1``), so ``(B, width)`` in gives
``(B,)`` out — one reduced value per packet.  This is the contract the
dataflow interpreter (:meth:`DataflowGraph.execute_batch`) relies on: a
row of a batched result is bit-identical to the same op on that row alone.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable

import numpy as np

__all__ = ["MapOp", "ReduceOp", "MAP_OPS", "REDUCE_OPS", "reduce_tree_depth"]


@dataclass(frozen=True)
class MapOp:
    """An element-wise operation occupying one CU stage slot."""

    name: str
    arity: int
    fn: Callable[..., np.ndarray]


@dataclass(frozen=True)
class ReduceOp:
    """An associative vector-to-scalar operation (tree-reduced in a CU).

    ``fn`` contracts the last axis, so it is batch-transparent:
    ``(width,) -> ()`` and ``(B, width) -> (B,)``.
    """

    name: str
    fn: Callable[[np.ndarray], np.ndarray]
    identity: float

    def batched(self, values: np.ndarray) -> np.ndarray:
        """Reduce per packet, keeping the lane axis: ``(B, w) -> (B, 1)``.

        This is the interpreter's default semantics for ``reduce`` nodes
        lowered without an explicit ``fn``.
        """
        return np.asarray(self.fn(values))[..., None]


MAP_OPS: dict[str, MapOp] = {
    "add": MapOp("add", 2, lambda a, b: a + b),
    "sub": MapOp("sub", 2, lambda a, b: a - b),
    "mul": MapOp("mul", 2, lambda a, b: a * b),
    "max": MapOp("max", 2, np.maximum),
    "min": MapOp("min", 2, np.minimum),
    "neg": MapOp("neg", 1, np.negative),
    "abs": MapOp("abs", 1, np.abs),
    "shift": MapOp("shift", 1, lambda a: a),  # power-of-two scaling
    "select": MapOp("select", 2, lambda a, b: np.where(a >= 0, a, b)),
}

REDUCE_OPS: dict[str, ReduceOp] = {
    "sum": ReduceOp("sum", lambda v: np.sum(v, axis=-1), 0.0),
    "max": ReduceOp("max", lambda v: np.max(v, axis=-1), -np.inf),
    "min": ReduceOp("min", lambda v: np.min(v, axis=-1), np.inf),
    "argmax": ReduceOp("argmax", lambda v: np.argmax(v, axis=-1), 0.0),
    "argmin": ReduceOp("argmin", lambda v: np.argmin(v, axis=-1), 0.0),
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
