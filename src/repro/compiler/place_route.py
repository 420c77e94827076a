"""Placement and routing onto the checkerboard grid.

The final target-dependent compilation step (Section 4): "the resulting
graph is placed and routed on the MapReduce block's interconnect."  The
grid interleaves CUs and MUs (3:1) joined by a static mesh; we place each
node's units greedily near their predecessors and route nets with shortest
paths over the mesh (networkx), verifying capacity and reporting hop
statistics.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import networkx as nx

from ..hw.params import (
    DEFAULT_CU_GEOMETRY,
    GRID_COLS,
    GRID_CU_TO_MU_RATIO,
    GRID_ROWS,
)
from ..mapreduce.ir import DataflowGraph
from .allocate import graph_resources
from .pipeline import compile_graph

__all__ = ["GridSpec", "Placement", "place_and_route"]


@dataclass(frozen=True)
class GridSpec:
    """Physical layout of one MapReduce block."""

    rows: int = GRID_ROWS
    cols: int = GRID_COLS
    cu_to_mu_ratio: int = GRID_CU_TO_MU_RATIO

    def unit_kind(self, row: int, col: int) -> str:
        """'cu' or 'mu' for the tile at (row, col).

        MUs are interspersed every ``ratio + 1`` tiles in raster order, which
        yields the paper's checkerboard-with-3:1 pattern.
        """
        index = row * self.cols + col
        return "mu" if index % (self.cu_to_mu_ratio + 1) == self.cu_to_mu_ratio else "cu"

    def mesh(self) -> nx.Graph:
        """The static switch fabric: a 2-D mesh over all tiles."""
        return nx.grid_2d_graph(self.rows, self.cols)

    def tiles(self, kind: str) -> list[tuple[int, int]]:
        return [
            (r, c)
            for r in range(self.rows)
            for c in range(self.cols)
            if self.unit_kind(r, c) == kind
        ]


@dataclass
class Placement:
    """Result of placing a dataflow graph on a grid."""

    assignments: dict[int, list[tuple[int, int]]] = field(default_factory=dict)
    routes: list[list[tuple[int, int]]] = field(default_factory=list)

    @property
    def n_tiles_used(self) -> int:
        return sum(len(tiles) for tiles in self.assignments.values())

    @property
    def max_route_hops(self) -> int:
        return max((max(0, len(path) - 1) for path in self.routes), default=0)


def place_and_route(graph: DataflowGraph) -> Placement:
    """Greedy placement + shortest-path routing on the paper's grid.

    The grid is the default :class:`GridSpec` (12x10, 3:1) and the CUs
    are the paper's 16x4 fix8 shape.

    Nodes are placed in topological order; each node's CUs/MUs take the
    free tiles nearest the centroid of its predecessors' tiles (keeping
    producer-consumer pairs adjacent, which is what the checkerboard layout
    is for).  The fold factor and the MU check are
    :func:`~repro.compiler.pipeline.compile_graph`'s against this grid, so
    weights that do not fit raise its
    :class:`~repro.compiler.pipeline.BudgetError`.
    """
    grid = GridSpec()
    resources = graph_resources(graph, DEFAULT_CU_GEOMETRY)

    free = {"cu": list(grid.tiles("cu")), "mu": list(grid.tiles("mu"))}
    fold = compile_graph(
        graph, DEFAULT_CU_GEOMETRY, cu_budget=len(free["cu"]), mu_budget=len(free["mu"])
    ).fold_factor

    mesh = grid.mesh()
    placement = Placement()

    def centroid(tiles: list[tuple[int, int]]) -> tuple[float, float]:
        if not tiles:
            return (grid.rows / 2, grid.cols / 2)
        return (
            sum(t[0] for t in tiles) / len(tiles),
            sum(t[1] for t in tiles) / len(tiles),
        )

    for node in graph.topo_order():
        cost = resources.per_node[node.node_id]
        n_cu = -(-cost.n_cu // fold) if cost.n_cu else 0
        n_mu = cost.n_mu
        pred_tiles = [
            tile
            for pred in node.preds
            for tile in placement.assignments.get(pred, [])
        ]
        anchor = centroid(pred_tiles)
        chosen: list[tuple[int, int]] = []
        for kind, count in (("cu", n_cu), ("mu", n_mu)):
            if not count:
                continue
            free[kind].sort(
                key=lambda t: (t[0] - anchor[0]) ** 2 + (t[1] - anchor[1]) ** 2
            )
            if count > len(free[kind]):
                raise ValueError(
                    f"{graph.name}: node {node.name!r} needs {count} {kind.upper()}s, "
                    f"{len(free[kind])} free"
                )
            taken, free[kind] = free[kind][:count], free[kind][count:]
            chosen.extend(taken)
        placement.assignments[node.node_id] = chosen
        # Route one net from each predecessor's first tile to ours.
        if chosen:
            for pred in node.preds:
                src_tiles = placement.assignments.get(pred, [])
                if src_tiles:
                    path = nx.shortest_path(mesh, src_tiles[0], chosen[0])
                    placement.routes.append(path)
    return placement
