"""The MapReduce block: a configured grid executing packets.

:class:`MapReduceBlock` is the piece of hardware Fig. 7 shows — the
checkerboard CU/MU fabric behind a PHV FIFO interface.  It is configured
once with a compiled dataflow graph (the CGRA analogy of loading a bitstream)
and then processes one feature vector per packet, returning both the
numeric result and the cycle-accounted latency.  Throughput honours the
design's initiation interval: a partially-unrolled or folded program accepts
a packet only every ``II`` cycles.

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
    CLOCK_GHZ,
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
    accepted_at_cycle: int


@dataclass(frozen=True)
class BatchInferenceResult:
    """A batch of packets drained through the pipelined fabric.

    ``duration_ns`` covers first-packet issue to last-packet completion
    (``latency + (B - 1) * II`` cycles), so ``throughput_pkt_s`` converges
    to the design's II-limited steady-state rate as the batch grows.
    ``accepted_at_cycle`` anchors the batch on the block's issue clock
    (a fabric still draining earlier work accepts the batch later), so
    callers can recover absolute completion times across interleaved
    :meth:`MapReduceBlock.process`/:meth:`MapReduceBlock.run_batch` calls.
    """

    values: np.ndarray          # (B, out_width)
    batch_size: int
    latency_ns: float           # first result (design latency + any stall)
    duration_ns: float          # first issue -> last completion
    initiation_interval: int
    accepted_at_cycle: int      # issue cycle of the batch's first packet

    @property
    def throughput_pkt_s(self) -> float:
        """II-accounted modelled drain rate for this batch."""
        if self.duration_ns <= 0:
            return 0.0
        return self.batch_size / (self.duration_ns * 1e-9)


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
    def process(self, features: np.ndarray, at_cycle: int | None = None) -> InferenceResult:
        """Run one packet through the fabric.

        ``at_cycle`` is the arrival cycle; issue honours the initiation
        interval (arrivals during a busy interval stall in the PHV FIFO).
        """
        arrival = self._next_issue_cycle if at_cycle is None else at_cycle
        issue = max(arrival, self._next_issue_cycle)
        self._next_issue_cycle = issue + self.design.initiation_interval
        self.packets_processed += 1
        value = self.graph.execute(np.asarray(features, dtype=np.float64))
        stall_ns = (issue - arrival) / CLOCK_GHZ
        return InferenceResult(
            value=value,
            latency_ns=self.design.latency_ns + stall_ns,
            accepted_at_cycle=issue,
        )

    def run_batch(
        self, features: np.ndarray, at_cycle: int | None = None
    ) -> BatchInferenceResult:
        """Stream a ``(B, D)`` block of packets through the fabric.

        Results come from the vectorized graph interpreter (bit-identical
        to per-packet :meth:`process`); timing models the pipelined drain:
        the batch issues at the block's next free issue slot (or stalls
        behind earlier work, as :meth:`process` does), the first packet
        completes one design latency later, and every subsequent packet
        one initiation interval after its predecessor.  An empty batch
        issues nothing: the issue clock stays put and it drains in 0 ns,
        as :func:`repro.runtime.sharded.drain_ns` models an idle block.
        """
        features = np.atleast_2d(np.asarray(features, dtype=np.float64))
        values = self.graph.execute_batch(features)
        batch = features.shape[0]
        ii = self.design.initiation_interval
        arrival = self._next_issue_cycle if at_cycle is None else at_cycle
        issue = max(arrival, self._next_issue_cycle)
        if batch:
            self._next_issue_cycle = issue + batch * ii
        self.packets_processed += batch
        # Same convention as process(): a stalled arrival pays the wait in
        # latency_ns, so arrival + latency_ns is time-to-first-result for
        # both APIs.
        stall_ns = (issue - arrival) / CLOCK_GHZ
        duration_cycles = self.design.latency_cycles + (batch - 1) * ii if batch else 0
        return BatchInferenceResult(
            values=values,
            batch_size=batch,
            latency_ns=self.design.latency_ns + stall_ns,
            duration_ns=duration_cycles / CLOCK_GHZ,
            initiation_interval=ii,
            accepted_at_cycle=issue,
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
