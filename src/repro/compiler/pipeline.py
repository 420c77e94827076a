"""Latency / throughput analysis and the compiled-design summary.

The latency model follows Section 5.1.3 exactly:

* a CU MapReduce takes ``1 (map) + log2(lanes) (reduce)`` cycles;
* every data movement between fabric elements costs ~5 cycles;
* entering/leaving the fabric crosses the PHV FIFO boundary (4 cycles each
  way);
* recurrent graphs multiply the step critical path by their temporal
  iteration count (the LSTM's 805 ns);
* graphs whose loops are not fully unrolled issue a packet every
  ``initiation_interval`` cycles — "either line-rate performance, or some
  known fraction thereof" (Table 7).

Folding: when a graph demands more CUs than the grid offers, the compiler
time-multiplexes it (fold factor F), shrinking area by ~F while multiplying
the initiation interval by F and adding pipeline-refill latency.
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..hw.area import cu_area_mm2, mu_area_mm2
from ..hw.params import (
    CLOCK_GHZ,
    CUGeometry,
    DEFAULT_CU_GEOMETRY,
    HOP_CYCLES,
    PHV_INTERFACE_CYCLES,
)
from ..hw.power import cu_power_mw, mu_power_mw
from ..mapreduce.ir import DataflowGraph
from .allocate import GraphResources, graph_resources

__all__ = [
    "BudgetError",
    "CompiledDesign",
    "compile_graph",
]


class BudgetError(ValueError):
    """A graph's weights need more MUs than the grid has.

    Raised by :func:`compile_graph`.  CU overflow never raises: CUs are
    time-multiplexable (the compiler folds the graph, trading initiation
    interval for area), while MU-resident weights must stay loaded for
    every pass, so MU overflow has no fold to fall back on.

    Attributes mirror the message so callers can reason about the
    overflow without string parsing.  This is the repo's one budget
    check; ``repro.analysis`` does not price designs.
    """

    def __init__(self, graph_name: str, needed: int, budget: int):
        self.graph_name = graph_name
        self.needed = needed
        self.budget = budget
        super().__init__(
            f"{graph_name}: needs {needed} MUs but the grid has {budget}; model "
            "weights exceed on-chip memory and cannot be time-multiplexed "
            "(Section 6: larger models need compression)"
        )


def _path_lengths(
    graph: DataflowGraph, geometry: CUGeometry
) -> tuple[int, int]:
    """(step_path, epilogue_extra) longest-path cycles through the graph.

    ``step_path`` covers the recurrent body (non-epilogue nodes);
    ``epilogue_extra`` is the additional depth of once-only epilogue nodes
    (e.g. the LSTM's action head after the final step).
    """
    resources = graph_resources(graph, geometry)
    dist: dict[int, int] = {}
    for node in graph.topo_order():
        cost = resources.per_node[node.node_id]
        data_preds = [p for p in node.preds if graph.nodes[p].kind != "const"]
        const_preds = [p for p in node.preds if graph.nodes[p].kind == "const"]
        best_pred = max((dist.get(p, 0) for p in data_preds), default=0)
        # Weight streams serialize with data arrival: the consuming CU pays
        # the MU access + hop before its first compute cycle.
        const_extra = sum(resources.per_node[p].latency_cycles for p in const_preds)
        dist[node.node_id] = best_pred + const_extra + cost.latency_cycles
    body = max(
        (dist[n.node_id] for n in graph.nodes.values() if not n.epilogue),
        default=0,
    )
    total = max(dist.values(), default=0)
    return body, total - body


@dataclass(frozen=True)
class CompiledDesign:
    """The compiler's answer for one model on one fabric configuration."""

    name: str
    geometry: CUGeometry
    n_cu: int
    n_mu: int
    fold_factor: int
    initiation_interval: int
    latency_cycles: int
    temporal_iterations: int

    @property
    def latency_ns(self) -> float:
        """End-to-end inference latency at the fabric clock."""
        return self.latency_cycles / CLOCK_GHZ

    @property
    def line_rate_fraction(self) -> float:
        """Fraction of 1 GPkt/s this design sustains (1.0 = line rate)."""
        return 1.0 / self.initiation_interval

    @property
    def throughput_gpkt_s(self) -> float:
        return CLOCK_GHZ * self.line_rate_fraction

    @property
    def area_mm2(self) -> float:
        """Area of the CUs/MUs doing useful work (Table 5's accounting)."""
        return self.n_cu * cu_area_mm2(self.geometry) + self.n_mu * mu_area_mm2()

    @property
    def power_mw(self) -> float:
        """Power with every mapped FU active and unused CUs disabled."""
        return self.n_cu * cu_power_mw(self.geometry) + self.n_mu * mu_power_mw()


def compile_graph(
    graph: DataflowGraph,
    geometry: CUGeometry = DEFAULT_CU_GEOMETRY,
    cu_budget: int | None = None,
    mu_budget: int | None = None,
) -> CompiledDesign:
    """Allocate, fold to fit, and time a dataflow graph.

    ``cu_budget``/``mu_budget`` default to unlimited (the Table 5 rows size
    the grid *after* compilation); pass the grid's capacity to model
    mapping onto a fixed 12x10 block.

    CU overflow is absorbed by time-multiplexing: the compiler folds the
    graph by ``ceil(n_cu / cu_budget)``, multiplying the initiation
    interval.  MU overflow raises :class:`BudgetError`: weights must stay
    resident across every folded pass, so there is no time/area trade to
    make (Section 6: larger models need compression).
    """
    resources: GraphResources = graph_resources(graph, geometry)
    n_cu, n_mu = resources.n_cu, resources.n_mu

    fold_factor = 1
    if cu_budget is not None and n_cu > cu_budget:
        fold_factor = math.ceil(n_cu / cu_budget)
        n_cu = math.ceil(n_cu / fold_factor)
    if mu_budget is not None and n_mu > mu_budget:
        raise BudgetError(graph.name, n_mu, mu_budget)

    body, epilogue = _path_lengths(graph, geometry)
    boundary = 2 * PHV_INTERFACE_CYCLES + HOP_CYCLES
    # The recurrent body repeats per history element; the epilogue and the
    # PHV boundary are paid once.  Folded passes refill the pipeline: one
    # extra issue slot per extra pass.
    latency = (
        body * graph.temporal_iterations + epilogue + boundary + (fold_factor - 1)
    )
    ii = graph.initiation_interval * fold_factor * graph.temporal_iterations
    return CompiledDesign(
        name=graph.name,
        geometry=geometry,
        n_cu=n_cu,
        n_mu=n_mu,
        fold_factor=fold_factor,
        initiation_interval=ii,
        latency_cycles=latency,
        temporal_iterations=graph.temporal_iterations,
    )
