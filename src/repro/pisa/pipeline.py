"""The Taurus data-plane pipeline (Fig. 6).

Parse -> preprocessing MATs -> {MapReduce block | bypass} -> postprocessing
MATs -> scheduler.  Preprocessing decides (as PHV metadata) whether the
packet needs ML; non-ML packets take the bypass sub-queue and incur no
added latency.  A round-robin arbiter merges the two paths in front of the
postprocessing MATs.

Latency accounting: a parsed packet crosses ``n_mat_stages`` single-cycle
MAT stages plus the scheduler (the ~1 us baseline datacenter switch of
Section 5.1.2); ML packets additionally pay the MapReduce block's compiled
latency.

Two execution paths share these semantics:

* :meth:`TaurusPipeline.process` — the per-packet scalar loop, the
  semantic oracle;
* :meth:`TaurusPipeline.process_trace_batch` — the vectorized path,
  bit/stat-identical to running :meth:`process` per packet.  Every stage
  runs once per *span* of ``max(chunk_size, DEFAULT_TRACE_CHUNK)`` rows,
  in arrival order: the stateless ones (parse, MATs, bypass, decisions)
  because they look at one packet at a time, and the stateful ones (flow
  registers, MapReduce block) because a batch update of them equals the
  same packets one by one, wherever the stream is cut.

The batched path skips the work nothing in the pipeline could observe
(:meth:`TaurusPipeline._process_span`), so a short call pays only for the
stages this pipeline has.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from ..datasets.packets import TraceColumns, as_trace_columns, in_arrival_order
from ..fixpoint import FIX8
from ..hw.grid import MapReduceBlock
from ..mapreduce.ir import DataflowGraph
from .mat import MatchActionTable
from .packet import Packet
from .parser import Parser, default_layout, default_parser
from .phv import PHV, PHVBatch
from .registers import FlowFeatureAccumulator
from .scheduler import PacketQueue, RoundRobinArbiter

__all__ = [
    "PipelineResult",
    "TracePipelineResult",
    "TaurusPipeline",
    "DECISION_FORWARD",
    "DECISION_DROP",
    "DECISION_FLAG",
    "DEFAULT_TRACE_CHUNK",
    "action_postprocess",
    "port_bypass",
    "threshold_postprocess",
]

DECISION_FORWARD = 0
DECISION_FLAG = 1
DECISION_DROP = 2

#: Base one-way latency of the conventional switch stages (parse + MATs +
#: queueing), Section 5.1.2's "datacenter switch latency of 1 us".
BASE_SWITCH_LATENCY_NS = 1000.0

#: The batched path's default chunk, and the least rows per span: a span
#: bounds each pass of every stage, register updates and block passes
#: included, so a block pass is at most ``max(chunk_size, 8192)`` rows.
#: A span over the whole call measured 9-20 % slower at 32,768 rows (out
#: of cache).
DEFAULT_TRACE_CHUNK = 8192


def threshold_postprocess(
    threshold: float = 0.5,
) -> tuple[Callable[[np.ndarray], int], Callable[[np.ndarray], np.ndarray]]:
    """A matched (scalar, vectorized) postprocess pair for one threshold.

    Both flag a fabric score ``>= threshold`` (the anomaly use case);
    building them together keeps the two execution paths in lockstep.
    """

    def scalar(value: np.ndarray) -> int:
        return (
            DECISION_FLAG
            if float(np.atleast_1d(value)[0]) >= threshold
            else DECISION_FORWARD
        )

    def batch(values: np.ndarray) -> np.ndarray:
        return np.where(values[:, 0] >= threshold, DECISION_FLAG, DECISION_FORWARD)

    return scalar, batch


def action_postprocess(
    component: int = 0,
) -> tuple[Callable[[np.ndarray], int], Callable[[np.ndarray], np.ndarray]]:
    """A matched (scalar, vectorized) pair passing a fabric output through.

    For apps whose fabric output *is* the decision code — an argmax action
    index (the congestion LSTM), a nearest-centroid cluster id (the IoT
    KMeans) — the postprocess just reads output ``component`` as an int.
    Like :func:`threshold_postprocess` and :func:`port_bypass`, the pair
    is built together so the per-packet and batched paths cannot drift.
    """
    component = int(component)

    def scalar(value: np.ndarray) -> int:
        return int(np.atleast_1d(value)[component])

    def batch(values: np.ndarray) -> np.ndarray:
        return values[:, component].astype(np.int64)

    return scalar, batch


def port_bypass(
    ports, field: str = "dst_port"
) -> tuple[Callable[["PHV"], bool], Callable[["PHVBatch"], np.ndarray]]:
    """A matched (scalar, vectorized) bypass pair keyed on a header field.

    Packets whose ``field`` value is in ``ports`` (an int or an iterable
    of ints) skip the ML block — the "trusted service port" policy the
    telemetry tests model.  Like :func:`threshold_postprocess`, the pair
    is built together so the per-packet and batched paths cannot drift;
    install it as ``bypass_predicate=`` and ``bypass_predicate_batch=``.
    """
    if isinstance(ports, (int, np.integer)):
        ports = (ports,)
    wanted = np.array(sorted({int(p) for p in ports}), dtype=np.int64)
    wanted_set = frozenset(int(p) for p in wanted)

    def scalar(phv: PHV) -> bool:
        return int(phv.get(field)) in wanted_set

    def batch(batch: PHVBatch) -> np.ndarray:
        return np.isin(batch.int_column(field), wanted)

    return scalar, batch


def _never_bypass(phv: PHV) -> bool:
    """Default policy: every packet goes through ML."""
    return False


def _never_bypass_batch(batch: PHVBatch) -> np.ndarray:
    return np.zeros(batch.n, dtype=bool)


@dataclass
class PipelineResult:
    """Outcome of one packet's transit."""

    packet: Packet
    phv: PHV
    decision: int
    ml_score: float | None
    latency_ns: float
    bypassed: bool


@dataclass
class TracePipelineResult:
    """Columnar outcome of a whole trace's transit (arrival-time order).

    The batched twin of a ``list[PipelineResult]``: position ``i`` holds
    the ``i``-th processed packet's outcome; ``order`` maps positions back
    to the caller's original packet sequence.  ``ml_scores`` is NaN for
    bypassed packets (the scalar path's ``None``).
    """

    order: np.ndarray        # int64 [N] -> index into the input sequence
    times: np.ndarray        # float64 [N]
    decisions: np.ndarray    # int64 [N]
    ml_scores: np.ndarray    # float64 [N], NaN where bypassed
    latencies_ns: np.ndarray  # float64 [N]
    bypassed: np.ndarray     # bool [N]
    aggregates: dict[str, np.ndarray] = field(default_factory=dict)

    def __len__(self) -> int:
        return len(self.decisions)

    @property
    def flagged(self) -> int:
        return int(np.count_nonzero(self.decisions == DECISION_FLAG))

    @property
    def dropped(self) -> int:
        return int(np.count_nonzero(self.decisions == DECISION_DROP))


@dataclass
class TaurusPipeline:
    """A programmable switch pipeline with an attached MapReduce block.

    Parameters
    ----------
    block:
        The configured MapReduce block (or None for a plain PISA switch).
    feature_names:
        Names of the dense PHV feature region.
    bypass_predicate / bypass_predicate_batch:
        Decide from the parsed PHV whether the packet skips ML: the scalar
        hook for :meth:`process` (``PHV -> bool``), its vectorized twin
        for :meth:`process_trace_batch` (``PHVBatch -> bool[N]``).
        Default: everything goes through ML.
    postprocess / postprocess_batch:
        Map the fabric's numeric output to a decision code: the scalar
        hook (``values[W] -> int``) and its twin (``values[N, W] ->
        int[N]``).  Default: :func:`threshold_postprocess` at 0.5, which
        flags a score >= 0.5 (the anomaly use case).

        Hooks come in pairs: give both of a pair or neither, else the
        constructor raises ``ValueError``.  The scalar hook is the oracle
        and the twin must agree with it row for row; the batched path
        calls only the twin.
    program:
        The dataflow program this pipeline's packets must score through.
        ``None`` (the default) trusts whatever the block is configured
        with.  When set — the multi-app fabric sets it — both execution
        paths *steer* the shared block before any ML work: if another
        app's program is resident, the block reconfigures (with
        issue-clock accounting) first.  Per-packet results are unaffected
        by steering; only the modeled drain pays for the swaps.
    """

    block: MapReduceBlock | None
    feature_names: tuple[str, ...]
    bypass_predicate: Callable[[PHV], bool] | None = None
    postprocess: Callable[[np.ndarray], int] | None = None
    bypass_predicate_batch: Callable[[PHVBatch], np.ndarray] | None = None
    postprocess_batch: Callable[[np.ndarray], np.ndarray] | None = None
    program: DataflowGraph | None = None
    accumulator: FlowFeatureAccumulator = field(init=False, default_factory=FlowFeatureAccumulator)
    parser: Parser = field(init=False)
    preprocess_tables: list[MatchActionTable] = field(init=False, default_factory=list)
    postprocess_tables: list[MatchActionTable] = field(init=False, default_factory=list)
    ml_queue: PacketQueue = field(init=False)
    bypass_queue: PacketQueue = field(init=False)
    stats: dict[str, int] = field(
        init=False,
        default_factory=lambda: {"ml": 0, "bypass": 0, "flagged": 0, "dropped": 0},
    )

    def __post_init__(self) -> None:
        for hook in ("bypass_predicate", "postprocess"):
            scalar, batch = getattr(self, hook), getattr(self, f"{hook}_batch")
            if (scalar is None) != (batch is None):
                raise ValueError(
                    f"{hook} and {hook}_batch come as a pair: "
                    f"the scalar {hook} oracle and its vectorized twin"
                )
        if self.bypass_predicate is None:
            self.bypass_predicate = _never_bypass
            self.bypass_predicate_batch = _never_bypass_batch
        if self.postprocess is None:
            self.postprocess, self.postprocess_batch = threshold_postprocess(0.5)
        layout = default_layout(self.feature_names)
        self.parser = default_parser(layout)
        self.ml_queue = PacketQueue("mapreduce", capacity=8192)
        self.bypass_queue = PacketQueue("bypass", capacity=8192)
        self.arbiter = RoundRobinArbiter([self.ml_queue, self.bypass_queue])
        #: The snapshot :meth:`state_delta` last brought up to date — the
        #: one the accumulator's dirty mask is relative to.
        self._delta_base: dict | None = None

    # ------------------------------------------------------------------
    # Control-plane hooks
    # ------------------------------------------------------------------
    def install_preprocess(self, table: MatchActionTable) -> None:
        self.preprocess_tables.append(table)

    def install_postprocess(self, table: MatchActionTable) -> None:
        self.postprocess_tables.append(table)

    def steer(self) -> bool:
        """Ensure the (possibly shared) block runs this pipeline's program.

        Returns True when a swap happened.  Called by both execution paths
        immediately before ML work, so a block time-multiplexed between
        apps always scores a packet with the right program and the issue
        clock picks up the swap cost.  A no-op for pipelines without a
        pinned :attr:`program` (the single-app shape) or whose program is
        already resident.
        """
        if (
            self.program is None
            or self.block is None
            or self.block.graph is self.program
        ):
            return False
        self.block.reconfigure(self.program, account=True)
        return True

    # ------------------------------------------------------------------
    # Per-packet processing
    # ------------------------------------------------------------------
    def process(self, packet: Packet) -> PipelineResult:
        """One packet through parse/preprocess/ML-or-bypass/postprocess."""
        phv = self.parser.parse(packet)

        # Stateful feature accumulation (Section 3.1).
        aggregates = self.accumulator.update(
            packet.five_tuple,
            packet.size_bytes,
            urgent=bool(packet.headers.get("urgent_flag", 0)),
            now_s=packet.arrival_time,
        )
        for key, value in aggregates.items():
            packet.metadata[key] = float(value)

        # Flow-level model features ride in the dense PHV region.
        if packet.features is not None:
            phv.set_features(packet.features)

        for table in self.preprocess_tables:
            table.apply(phv)

        bypass = self.bypass_predicate(phv) or self.block is None
        phv.set("ml_bypass", 1 if bypass else 0)

        ml_score: float | None = None
        if bypass:
            self.bypass_queue.push(packet)
            self.stats["bypass"] += 1
            latency = BASE_SWITCH_LATENCY_NS
            decision = DECISION_FORWARD
        else:
            self.ml_queue.push(packet)
            self.stats["ml"] += 1
            self.steer()
            result = self.block.process(phv.feature_vector())
            ml_score = float(np.atleast_1d(result.value)[0])
            phv.set("ml_score", int(abs(ml_score) * 256) & 0xFFFF)
            latency = BASE_SWITCH_LATENCY_NS + result.latency_ns
            decision = self.postprocess(result.value)

        # Postprocessing rules may override the ML decision (safety bounds,
        # Section 3.2).  An explicit write to the PHV's decision field wins.
        phv.values.pop("decision", None)
        for table in self.postprocess_tables:
            table.apply(phv)
        if "decision" in phv.values:
            decision = int(phv.get("decision"))

        if decision == DECISION_DROP:
            self.stats["dropped"] += 1
        elif decision == DECISION_FLAG:
            self.stats["flagged"] += 1
        self.arbiter.select()  # merge point drains one packet per slot

        return PipelineResult(
            packet=packet,
            phv=phv,
            decision=decision,
            ml_score=ml_score,
            latency_ns=latency,
            bypassed=bypass,
        )

    def process_trace(self, packets: list[Packet]) -> list[PipelineResult]:
        """Convenience: run a list of packets in arrival order."""
        return [self.process(p) for p in sorted(packets, key=lambda p: p.arrival_time)]

    # ------------------------------------------------------------------
    # Batched trace processing
    # ------------------------------------------------------------------
    def process_trace_batch(
        self, trace, chunk_size: int = DEFAULT_TRACE_CHUNK
    ) -> TracePipelineResult:
        """The whole trace through the vectorized pipeline path.

        ``trace`` is a :class:`~repro.datasets.packets.PacketTrace` (its
        cached columns feed the pipeline directly), a
        :class:`~repro.datasets.packets.TraceColumns`, or a list of
        :class:`Packet` objects (columns are built on the fly).

        The trace is put in arrival order (one monotone check when it is
        already) and its five-tuple hashed, once per call; then packets
        stream through, one span of ``max(chunk_size, DEFAULT_TRACE_CHUNK)``
        rows at a time (see :meth:`_process_span`), so a span bounds every
        stage's pass, the register update and the block pass included, and
        below 8,192 rows ``chunk_size`` changes no stage's work.  Every
        observable effect — results, ``stats``, MAT counters, register
        contents, queue watermarks, the block's issue clock — matches the
        scalar loop exactly, whatever ``chunk_size``, and no result array
        is shared with a later call.
        """
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        order, columns = in_arrival_order(as_trace_columns(trace))
        n = columns.n
        hashes = columns.flow_hashes()  # once per call, not per chunk
        # Under the never-bypass default every row is an ML row.
        all_ml = self.block is not None and self.bypass_predicate_batch is _never_bypass_batch
        # Every packet starts forwarded, unscored and at the base latency;
        # each span writes its ML rows and overrides into these in place
        # (every row, when all are ML rows: nothing reads a fill).
        decisions = np.zeros(n, dtype=np.int64)
        if all_ml:
            scores, latencies = np.empty(n), np.empty(n)
        else:
            scores = np.full(n, np.nan)
            latencies = np.full(n, BASE_SWITCH_LATENCY_NS)
        bypassed = np.empty(n, dtype=bool)
        aggregates: dict[str, list[np.ndarray]] = {}

        span = max(chunk_size, DEFAULT_TRACE_CHUNK)
        for start in range(0, n, span):
            sl = slice(start, start + span)
            self._process_span(
                columns if span >= n else columns.slice(sl), hashes[sl], all_ml,
                decisions[sl], scores[sl], latencies[sl], bypassed[sl], aggregates,
            )

        return TracePipelineResult(
            order=order,
            times=columns.times,
            decisions=decisions,
            ml_scores=scores,
            latencies_ns=latencies,
            bypassed=bypassed,
            aggregates={
                key: parts[0] if len(parts) == 1 else np.concatenate(parts)
                for key, parts in aggregates.items()
            },
        )

    def _process_span(
        self, span: TraceColumns, hashes: np.ndarray, all_ml: bool,
        decisions: np.ndarray, scores: np.ndarray, latencies: np.ndarray, bypass: np.ndarray,
        aggregates: dict[str, list[np.ndarray]],
    ) -> None:
        """One span through every pipeline stage, vectorized.

        Each stage runs once over the span: the flow registers on all of
        its rows (appending their aggregates to ``aggregates``), the block
        on its ML rows.  ``hashes`` and the four outputs are the span's
        slices of the call's arrays, filled in place (``decisions`` arrives
        at forward; ``scores`` and ``latencies`` at NaN and the base
        latency, or unfilled when ``all_ml`` says every row is an ML row,
        as the call found it: then the block writes every row of both).

        Checked on every call against what the pipeline holds: only a
        postprocess table reads ``ml_bypass`` / ``ml_score`` or overrides
        ``decision``; under the never-bypass default every row is an ML
        row (no predicate, no gather); with no table either, a span whose
        every row has features sends them to the block without the PHV,
        whose parse then never runs (``parse_batch`` defers it to the
        first read, and still counts the packets)."""
        batch = self.parser.parse_batch(span.headers, span.payload_len)
        urgent = span.header("urgent_flag") != 0
        post = self.postprocess_tables
        direct = (
            all_ml and not self.preprocess_tables and not post
            and span.features is not None and span.has_features.all()
            # else set_features refuses; the layout, not the batch: reading
            # the batch would run its parse
            and span.features.shape[1] == len(self.parser.layout.feature_fields)
        )
        if not direct and span.features is not None and span.has_features.any():
            batch.set_features(span.features, where=span.has_features)

        for table in self.preprocess_tables:
            table.apply_batch(batch)

        # ``rows`` indexes the span's ML rows: all of them, or the gathered few.
        if all_ml:
            bypass[:] = False
            rows, n_ml = slice(None), span.n
        else:
            bypass[:] = True if self.block is None else self.bypass_predicate_batch(batch)
            rows = (~bypass).nonzero()[0]
            n_ml = len(rows)
        self.stats["bypass"] += span.n - n_ml
        self.stats["ml"] += n_ml
        agg = self.accumulator.update_batch(hashes, span.sizes, urgent, span.times)
        for key, values in agg.items():
            aggregates.setdefault(key, []).append(values)
        if n_ml:
            self.steer()
            features = FIX8.roundtrip(span.features) if direct else batch.feature_matrix()
            result = self.block.run_batch(features[rows])
            scores[rows] = result.values[:, 0]
            latencies[rows] = BASE_SWITCH_LATENCY_NS + result.latency_ns
            decisions[rows] = self.postprocess_batch(result.values)

        if post:
            batch.set_column("ml_bypass", bypass)
            if n_ml:
                batch.set_column(
                    "ml_score", (np.abs(scores[rows]) * 256).astype(np.int64) & 0xFFFF,
                    where=rows,
                )
            batch.clear("decision")
            for table in post:
                table.apply_batch(batch)
            overridden = batch.was_written("decision")
            if overridden.any():
                decisions[overridden] = batch.int_column("decision")[overridden]

        self.stats["dropped"] += int(np.count_nonzero(decisions == DECISION_DROP))
        self.stats["flagged"] += int(np.count_nonzero(decisions == DECISION_FLAG))
        self._account_queue_transit(bypass)

    def _account_queue_transit(self, bypass: np.ndarray) -> None:
        """Replicate the scalar per-packet queue/arbiter state updates.

        The scalar loop pushes each packet onto its sub-queue and
        immediately drains one via the round-robin arbiter, so queue depth
        never exceeds one and the arbiter always pops the packet just
        pushed.  Precondition: both queues are empty at the span
        boundary — only :meth:`process` pushes onto them, and it pops what
        it pushed.  That collapses the sequence to a closed form: the
        watermarks hit one and the turn follows the last packet.
        """
        m = len(bypass)
        if m == 0:
            return
        n_bypass = int(np.count_nonzero(bypass))
        if n_bypass < m:
            self.ml_queue.high_watermark = max(self.ml_queue.high_watermark, 1)
        if n_bypass:
            self.bypass_queue.high_watermark = max(
                self.bypass_queue.high_watermark, 1
            )
        last_queue = 1 if bypass[-1] else 0  # arbiter order: [ml, bypass]
        self.arbiter._turn = (last_queue + 1) % len(self.arbiter.queues)

    # ------------------------------------------------------------------
    # State transport (sharded runtime)
    # ------------------------------------------------------------------
    #: Register arrays carried by :meth:`state_snapshot`.
    _REGISTER_NAMES = ("packet_count", "byte_count", "urgent_count", "first_seen_ms")

    def state_snapshot(self) -> dict:
        """Every mutable observable as a picklable dict.

        This is how a forked shard worker ships its post-run pipeline
        state back to the parent process (queue *items* are excluded —
        the batched path never retains them, and packets need not be
        picklable).  ``restore_state`` is the inverse.
        """
        return {
            "stats": dict(self.stats),
            "registers": {
                name: getattr(self.accumulator, name).values.copy()
                for name in self._REGISTER_NAMES
            },
            "parser_packets": self.parser.packets_parsed,
            "tables": [
                (table.lookups, table.misses, [e.hits for e in table.entries])
                for table in (*self.preprocess_tables, *self.postprocess_tables)
            ],
            "queues": [
                (queue.drops, queue.high_watermark)
                for queue in (self.ml_queue, self.bypass_queue)
            ],
            "arbiter_turn": self.arbiter._turn,
            "block": self._block_state(),
        }

    def _block_state(self) -> dict | None:
        """The attached block's mutable counters, as a picklable dict."""
        if self.block is None:
            return None
        return {
            "next_issue_cycle": self.block._next_issue_cycle,
            "packets_processed": self.block.packets_processed,
            "reconfigurations": self.block.reconfigurations,
            "reconfig_cycles": self.block.reconfig_cycles,
            # Graphs hold closures and cannot cross the pipe, so the
            # resident program travels as "is it mine?" — the owning
            # pipeline re-installs it on restore.
            "program_resident": (
                self.program is not None and self.block.graph is self.program
            ),
        }

    def _restore_block(self, block_state: dict | None) -> None:
        """Install a :meth:`_block_state` payload onto the local block."""
        if self.block is None or block_state is None:
            return
        if (
            block_state["program_resident"]
            and self.program is not None
            and self.block.graph is not self.program
        ):
            # Re-install the program the (forked) twin left resident, so
            # later runs model reconfigurations identically across
            # executors.  The counter restore below overwrites the swap
            # this bookkeeping install records.
            self.block.reconfigure(self.program)
        self.block._next_issue_cycle = block_state["next_issue_cycle"]
        self.block.packets_processed = block_state["packets_processed"]
        self.block.reconfigurations = block_state["reconfigurations"]
        self.block.reconfig_cycles = block_state["reconfig_cycles"]

    def restore_state(self, snapshot: dict) -> None:
        """Install a :meth:`state_snapshot` taken from this pipeline's twin."""
        self._delta_base = None  # every register may have moved
        self.stats.update(snapshot["stats"])
        for name, values in snapshot["registers"].items():
            getattr(self.accumulator, name).values[:] = values
        self.parser.packets_parsed = snapshot["parser_packets"]
        tables = (*self.preprocess_tables, *self.postprocess_tables)
        if len(tables) != len(snapshot["tables"]):
            raise ValueError("snapshot does not match this pipeline's tables")
        for table, (lookups, misses, hits) in zip(tables, snapshot["tables"]):
            table.lookups = lookups
            table.misses = misses
            for entry, entry_hits in zip(table.entries, hits):
                entry.hits = entry_hits
        for queue, (drops, high_watermark) in zip(
            (self.ml_queue, self.bypass_queue), snapshot["queues"]
        ):
            queue.drops = drops
            queue.high_watermark = high_watermark
        self.arbiter._turn = snapshot["arbiter_turn"]
        self._restore_block(snapshot["block"])

    # ------------------------------------------------------------------
    # Incremental state transport (persistent shard pools)
    # ------------------------------------------------------------------
    def state_delta(self, base: dict) -> dict:
        """Sparse diff of the current state against a prior snapshot.

        A persistent pool worker ships its state *per chunk* rather than
        once per run; a full :meth:`state_snapshot` per chunk would copy
        every register array (the accumulator holds 64k slots by
        default), so this returns only what moved since ``base`` — the
        register slots whose values changed (index/value pairs), counter
        increments, and the handful of small absolute fields (arbiter
        turn, queue watermarks, block clock).  ``base`` — a
        :meth:`state_snapshot` dict — is **updated in place** to the
        current state, so the worker calls this once per chunk and every
        message stays bounded by the chunk's own footprint.
        :meth:`apply_state_delta` is the inverse.

        Against the ``base`` the previous call updated, only the register
        slots written since then are compared
        (:meth:`FlowFeatureAccumulator.take_dirty`), so the diff costs
        what the chunk touched; any other ``base`` gets the full scan.
        """
        touched = self.accumulator.take_dirty()
        tracked = base is self._delta_base
        self._delta_base = base
        registers: dict[str, tuple[np.ndarray, np.ndarray]] = {}
        for name in self._REGISTER_NAMES:
            current = getattr(self.accumulator, name).values
            prior = base["registers"][name]
            if tracked:
                changed = touched[current[touched] != prior[touched]]
            else:
                changed = np.flatnonzero(current != prior)
            if len(changed):
                values = current[changed].copy()
                registers[name] = (changed, values)
                prior[changed] = values
        stats: dict[str, int] = {}
        for key, value in self.stats.items():
            moved = value - base["stats"].get(key, 0)
            if moved:
                stats[key] = moved
                base["stats"][key] = value
        tables: list[tuple[int, int, list[int]]] = []
        for t, table in enumerate(
            (*self.preprocess_tables, *self.postprocess_tables)
        ):
            prior_lookups, prior_misses, prior_hits = base["tables"][t]
            hits = [entry.hits for entry in table.entries]
            tables.append(
                (
                    table.lookups - prior_lookups,
                    table.misses - prior_misses,
                    [now - before for now, before in zip(hits, prior_hits)],
                )
            )
            base["tables"][t] = (table.lookups, table.misses, hits)
        queues: list[tuple[int, int]] = []
        for q, queue in enumerate((self.ml_queue, self.bypass_queue)):
            prior_drops, __ = base["queues"][q]
            queues.append((queue.drops - prior_drops, queue.high_watermark))
            base["queues"][q] = (queue.drops, queue.high_watermark)
        parser_moved = self.parser.packets_parsed - base["parser_packets"]
        base["parser_packets"] = self.parser.packets_parsed
        base["arbiter_turn"] = self.arbiter._turn
        block_state = self._block_state()
        base["block"] = block_state
        return {
            "stats": stats,
            "registers": registers,
            "parser_packets": parser_moved,
            "tables": tables,
            "queues": queues,
            "arbiter_turn": self.arbiter._turn,
            "block": block_state,
        }

    def apply_state_delta(self, delta: dict) -> None:
        """Fold a worker's :meth:`state_delta` into this pipeline.

        Counters add, changed register slots overwrite, and the small
        absolute fields (arbiter turn, watermarks, block clock) install
        directly — applying a run's deltas in chunk order leaves this
        pipeline exactly where the worker's twin ended up.
        """
        for key, moved in delta["stats"].items():
            self.stats[key] = self.stats.get(key, 0) + moved
        for name, (indices, values) in delta["registers"].items():
            getattr(self.accumulator, name).values[indices] = values
            self.accumulator.dirty[indices] = True
        self.parser.packets_parsed += delta["parser_packets"]
        tables = (*self.preprocess_tables, *self.postprocess_tables)
        if len(tables) != len(delta["tables"]):
            raise ValueError("delta does not match this pipeline's tables")
        for table, (lookups, misses, hits) in zip(tables, delta["tables"]):
            table.lookups += lookups
            table.misses += misses
            for entry, entry_hits in zip(table.entries, hits):
                entry.hits += entry_hits
        for queue, (drops, high_watermark) in zip(
            (self.ml_queue, self.bypass_queue), delta["queues"]
        ):
            queue.drops += drops
            queue.high_watermark = high_watermark
        self.arbiter._turn = delta["arbiter_turn"]
        self._restore_block(delta["block"])

    @property
    def added_latency_ns(self) -> float:
        """Extra latency an ML packet pays vs the bypass path."""
        return 0.0 if self.block is None else self.block.latency_ns
