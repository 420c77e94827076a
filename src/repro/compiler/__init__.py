"""The Taurus MapReduce compiler: allocation, unrolling, timing, P&R."""

from .allocate import (
    GraphResources,
    NodeCost,
    graph_resources,
    node_cost,
)
from .pipeline import BudgetError, CompiledDesign, compile_graph
from .place_route import GridSpec, Placement, place_and_route
from .unroll import UnrollPoint, unroll_sweep

__all__ = [
    "BudgetError",
    "GraphResources",
    "NodeCost",
    "graph_resources",
    "node_cost",
    "CompiledDesign",
    "compile_graph",
    "GridSpec",
    "Placement",
    "place_and_route",
    "UnrollPoint",
    "unroll_sweep",
]
