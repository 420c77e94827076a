"""Resource allocation: dataflow nodes -> CU/MU counts and cycle costs.

Implements the paper's lowering rules (Sections 4, 5.1.3):

* an inner MapReduce (map chain + tree reduce) occupies one CU when the
  vector fits the lanes and the chain fits the stages;
* wider vectors split into ``ceil(width / lanes)`` partial CUs plus a merge;
* longer op chains split into ``ceil(chain / stages)`` CUs in series
  ("overly-large patterns ... are split into smaller patterns that fit in
  CUs and MUs");
* weights and lookup tables occupy MU banks (16 banks x 1024 x 8 bit).
"""

from __future__ import annotations

import math
from dataclasses import dataclass

from ..hw.params import (
    CUGeometry,
    DEFAULT_CU_GEOMETRY,
    DEFAULT_MU_BANKS,
    DEFAULT_MU_ENTRIES,
    HOP_CYCLES,
    MU_ACCESS_CYCLES,
)
from ..mapreduce.ir import DataflowGraph, Node
from ..mapreduce.ops import reduce_tree_depth

__all__ = ["NodeCost", "node_cost", "graph_resources", "GraphResources"]


#: Weight values one MU can hold at datapath width.
_MU_CAPACITY_VALUES = DEFAULT_MU_BANKS * DEFAULT_MU_ENTRIES


@dataclass(frozen=True)
class NodeCost:
    """Hardware footprint and pipeline latency of one dataflow node.

    ``cycles`` is the node's compute latency; ``hops`` counts the
    interconnect data movements it adds to the critical path (~5 cycles
    each, Section 5.1.3).
    """

    n_cu: int
    n_mu: int
    cycles: int
    hops: int

    @property
    def latency_cycles(self) -> int:
        return self.cycles + self.hops * HOP_CYCLES


def node_cost(node: Node, geometry: CUGeometry = DEFAULT_CU_GEOMETRY) -> NodeCost:
    """Cost of a single node under the given CU geometry."""
    lanes, stages = geometry.lanes, geometry.stages

    if node.kind in ("input", "output"):
        # PHV boundaries are accounted at the graph level.
        return NodeCost(0, 0, 0, 0)

    if node.kind == "const":
        # Tiny banks fit in the consumer CU's pipeline registers; only
        # larger weight sets occupy MUs and pay the access + hop cost.
        if node.weight_values <= geometry.n_fus:
            return NodeCost(0, 0, 0, 0)
        n_mu = math.ceil(node.weight_values / _MU_CAPACITY_VALUES)
        return NodeCost(0, max(n_mu, 1), MU_ACCESS_CYCLES, 1)

    if node.kind == "lut":
        n_mu = max(1, math.ceil(node.weight_values / _MU_CAPACITY_VALUES))
        return NodeCost(0, n_mu, MU_ACCESS_CYCLES, 1)

    if node.kind in ("dot", "mapreduce"):
        partials = math.ceil(node.width / lanes)
        chain = max(node.chain_ops, 1)
        series = max(1, math.ceil(chain / stages))
        if partials == 1:
            # Narrow instances pack side by side into one CU's lanes
            # ("sparse reductions" in the third stage, Fig. 8).
            per_cu = max(1, lanes // node.width)
            n_cu = math.ceil(node.parallel / per_cu) * series
        else:
            n_cu = node.parallel * partials * series
        cycles = chain + reduce_tree_depth(min(node.width, lanes), lanes)
        hops = series
        if partials > 1:
            # Partial sums merge in extra CUs (small packed tree reduces).
            per_cu = max(1, lanes // partials)
            n_cu += math.ceil(node.parallel / per_cu)
            cycles += 1 + reduce_tree_depth(partials, lanes)
            hops += 1
        return NodeCost(n_cu, 0, cycles, hops)

    if node.kind == "map":
        chain = max(node.chain_ops, 1)
        series = max(1, math.ceil(chain / stages))
        wide = math.ceil(node.width / lanes)
        n_cu = node.parallel * series * wide
        # Each CU in the series is a full pipeline pass (stage count deep).
        return NodeCost(n_cu, 0, series * stages, series)

    if node.kind == "gather":
        groups = math.ceil(node.width / lanes)
        depth = 1
        while groups > 1:
            depth += 1
            groups = math.ceil(groups / lanes)
        n_cu = max(1, math.ceil(node.width / lanes))
        return NodeCost(n_cu, 0, depth * stages, depth)

    if node.kind == "reduce":
        n_cu = max(1, math.ceil(node.width / lanes))
        cycles = 1 + reduce_tree_depth(min(node.width, lanes), lanes)
        extra = 0
        if node.width > lanes:
            cycles += 1 + reduce_tree_depth(math.ceil(node.width / lanes), lanes)
            extra = 1
        return NodeCost(n_cu, 0, cycles, 1 + extra)

    raise ValueError(f"unknown node kind {node.kind!r}")  # pragma: no cover


@dataclass(frozen=True)
class GraphResources:
    """Aggregate hardware demand of a dataflow graph."""

    n_cu: int
    n_mu: int
    per_node: dict


def graph_resources(
    graph: DataflowGraph, geometry: CUGeometry = DEFAULT_CU_GEOMETRY
) -> GraphResources:
    """Total CU/MU demand (temporal iterations reuse the same hardware)."""
    per_node = {node.node_id: node_cost(node, geometry) for node in graph.nodes.values()}
    return GraphResources(
        n_cu=sum(c.n_cu for c in per_node.values()),
        n_mu=sum(c.n_mu for c in per_node.values()),
        per_node=per_node,
    )
