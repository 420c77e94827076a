"""The MapReduce block: a configured grid executing packets.

:class:`MapReduceBlock` is the piece of hardware Fig. 7 shows — the
checkerboard CU/MU fabric behind a PHV FIFO interface.  It is configured
once with a compiled dataflow graph (the CGRA analogy of loading a bitstream)
and then processes one feature vector per packet, returning both the
numeric result and the cycle-accounted latency.  Throughput honours the
design's initiation interval: a partially-unrolled or folded program accepts
a packet only every ``II`` cycles, and the block's issue clock
(``_next_issue_cycle``) advances by ``II`` per packet.

For trace-scale runs, :meth:`MapReduceBlock.run_batch` pushes a ``(B, D)``
block of packets through the graph's vectorized interpreter in one pass and
accounts the batch the way the pipelined fabric would drain it: the first
result appears after the design latency, and each subsequent packet
completes one initiation interval later.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..compiler.pipeline import CompiledDesign, compile_graph
from ..mapreduce.ir import DataflowGraph
from .area import grid_composition
from .params import (
    DEFAULT_CU_GEOMETRY,
    GRID_COLS,
    GRID_CU_TO_MU_RATIO,
    GRID_ROWS,
)

__all__ = [
    "MapReduceBlock",
    "InferenceResult",
    "BatchInferenceResult",
    "RECONFIG_WORDS_PER_CYCLE",
    "RECONFIG_BASE_CYCLES",
    "CU_BUDGET",
    "MU_BUDGET",
]

#: Capacity of the paper's 12x10, 3:1 checkerboard block (90 CUs, 30 MUs).
#: Every program a block runs is compiled, and folded if need be, against
#: it.
CU_BUDGET, MU_BUDGET = grid_composition(GRID_ROWS, GRID_COLS, GRID_CU_TO_MU_RATIO)

#: Configuration words the control path streams into the grid per cycle
#: when swapping programs (the CGRA analogue of partial-bitstream load
#: bandwidth).
RECONFIG_WORDS_PER_CYCLE = 16

#: Fixed handshake cost of a program swap: quiesce the PHV FIFO, drain
#: in-flight packets, and flip the double-buffered configuration plane.
RECONFIG_BASE_CYCLES = 64

#: Compiled designs cached per block.  Sized for a realistic multi-app
#: working set; beyond it the oldest non-resident entry is evicted, so a
#: control loop that re-lowers a fresh graph per weight update cannot
#: grow the cache (and the graphs it pins) without bound.
DESIGN_CACHE_LIMIT = 16


@dataclass(frozen=True)
class InferenceResult:
    """One packet's trip through the fabric."""

    value: np.ndarray
    latency_ns: float


@dataclass(frozen=True)
class BatchInferenceResult:
    """A batch of packets drained through the pipelined fabric."""

    values: np.ndarray          # (B, out_width)
    latency_ns: float           # first result: the design latency
    initiation_interval: int


def _compile(graph: DataflowGraph) -> CompiledDesign:
    """``graph`` compiled for the paper's grid: 16x4 fix8 CUs, 12x10, 3:1."""
    return compile_graph(
        graph, DEFAULT_CU_GEOMETRY, cu_budget=CU_BUDGET, mu_budget=MU_BUDGET
    )


class MapReduceBlock:
    """A MapReduce block configured with one compiled program.

    ``graph`` is the dataflow program (from a
    :mod:`repro.mapreduce.frontend` lowering).  It runs on the paper's
    block: 16x4 fix8 CUs on the 12x10, 3:1 grid (:data:`CU_BUDGET` CUs,
    :data:`MU_BUDGET` MUs); a program that needs more CUs is folded.
    """

    def __init__(self, graph: DataflowGraph):
        self.graph = graph
        self.design: CompiledDesign = _compile(graph)
        # Compiled designs per program, so time-multiplexed swaps between
        # a working set of apps do not recompile on every switch.  Values
        # keep a strong reference to their graph: cache keys are object
        # identities, and a dead graph's id could be recycled.
        self._design_cache: dict[int, tuple[DataflowGraph, CompiledDesign]] = {
            id(graph): (graph, self.design)
        }
        self._next_issue_cycle = 0
        self.packets_processed = 0
        #: Program swaps performed by :meth:`reconfigure`.
        self.reconfigurations = 0
        #: Issue-clock cycles spent on accounted swaps (``account=True``).
        self.reconfig_cycles = 0

    # ------------------------------------------------------------------
    # Per-packet execution
    # ------------------------------------------------------------------
    def process(self, features: np.ndarray) -> InferenceResult:
        """Run one packet through the fabric at its next issue slot."""
        self._next_issue_cycle += self.design.initiation_interval
        self.packets_processed += 1
        value = self.graph.execute(np.asarray(features, dtype=np.float64))
        return InferenceResult(value=value, latency_ns=self.design.latency_ns)

    def run_batch(self, features: np.ndarray) -> BatchInferenceResult:
        """Stream a ``(B, D)`` block of packets through the fabric.

        Results come from the vectorized graph interpreter (bit-identical
        to per-packet :meth:`process`); timing models the pipelined drain:
        the batch issues at the block's next free issue slot, the first
        packet completes one design latency later, and every subsequent
        packet one initiation interval after its predecessor (the drain
        :func:`repro.runtime.sharded.drain_ns` models).  An empty batch
        issues nothing: the issue clock stays put.
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        values = self.graph.execute_batch(features)
        batch = features.shape[0]
        ii = self.design.initiation_interval
        self._next_issue_cycle += batch * ii
        self.packets_processed += batch
        return BatchInferenceResult(
            values=values, latency_ns=self.design.latency_ns, initiation_interval=ii
        )

    # ------------------------------------------------------------------
    # Reconfiguration (program swaps without a new bitstream)
    # ------------------------------------------------------------------
    def reconfig_cycles_for(self, graph: DataflowGraph) -> int:
        """Issue-clock cost of swapping ``graph`` onto this grid.

        A swap quiesces the block (:data:`RECONFIG_BASE_CYCLES`) and
        streams the program's configuration words in at
        :data:`RECONFIG_WORDS_PER_CYCLE` per cycle.
        """
        words = graph.config_words()
        return RECONFIG_BASE_CYCLES + -(-words // RECONFIG_WORDS_PER_CYCLE)

    def reconfigure(self, graph: DataflowGraph, account: bool = False) -> None:
        """Install a new program (or the same program with new weights).

        Weight updates from the control plane re-lower the model and swap
        the graph atomically between packets — the data plane never stalls
        (Section 5.2.3 measures the end-to-end update delay separately).

        With ``account=True`` the swap is charged to the block's issue
        clock (:meth:`reconfig_cycles_for`): this is how the multi-app
        fabric's time-multiplexed program switches show up in modeled
        drain.  Compiled designs are cached per program object, and every
        program is compiled for the block's 12x10 grid, so a program that
        folds onto it stays folded after a swap.
        """
        cached = self._design_cache.get(id(graph))
        if cached is None or cached[0] is not graph:
            design = _compile(graph)
            while len(self._design_cache) >= DESIGN_CACHE_LIMIT:
                oldest = next(
                    key
                    for key, (g, __) in self._design_cache.items()
                    if g is not self.graph
                )
                del self._design_cache[oldest]
            self._design_cache[id(graph)] = (graph, design)
        else:
            design = cached[1]
        if account:
            cycles = self.reconfig_cycles_for(graph)
            self._next_issue_cycle += cycles
            self.reconfig_cycles += cycles
        self.reconfigurations += 1
        self.graph = graph
        self.design = design

    @property
    def latency_ns(self) -> float:
        return self.design.latency_ns

    @property
    def throughput_gpkt_s(self) -> float:
        return self.design.throughput_gpkt_s
