"""The lane runtime: flow-consistent sharded execution of the PISA pipeline.

The Taurus switch runs many compute units side by side; this runtime
brings the same dimension of parallelism to trace replay by partitioning
a packet trace across ``N`` lanes — each a MapReduce block plus the
:class:`~repro.pisa.TaurusPipeline` (parser, MATs, flow registers) of
every app resident on it — and deterministically merging their outputs.
One engine, :class:`LaneRunner`, owns the whole path and has two
constructors, :class:`ShardedRuntime` and
:class:`~repro.runtime.fabric.MultiAppFabric`; lanes, programs and —
with ``pool=`` — workers exist from construction.

**Why results stay bit-identical to one pipeline.**  Packets are sharded
by *register slot*: the flow key's FNV-1a hash modulo the accumulator's
slot count — exactly the index the flow registers use — then modulo the
lane count.  Every packet that would touch a given register slot
(including hash-collision neighbours) therefore lands on the same lane,
in arrival order, so each lane's register file evolves exactly as the
corresponding slots of a single shared register file would.  All other
per-packet state (parse, MAT actions, fabric scoring) is independent
across packets, and counters (stats, MAT hit/miss, parser totals) are
pure sums.  The merge scatters per-lane outputs back to global
arrival-time order and is asserted bit/stat-identical to the single-lane
oracle by ``tests/test_shard_runtime.py``.

Besides wall-clock throughput, the runtime models the *hardware* drain
rate of ``N`` parallel MapReduce blocks: each lane's block drains its
packets at the design's initiation-interval-limited rate concurrently,
so a run completes in the slowest lane's drain time
(:attr:`LaneRunner.last_drain_ns`) — the scale-out twin of one block's
drain (:func:`drain_ns`).

**Requests and pieces.**  A request is the unit of admission, deadline
and delivery: results come back, and ``on_result`` fires, once per
request, in order.  A *piece* is the unit of execution: a lane's
consecutive same-app, time-ordered slots, which may span requests (see
:meth:`LaneRunner._run_schedules`), scored in one call in process and
cut at ``chunk`` rows on the fork backend, where a piece is also the
unit of ack and replay.
"""

from __future__ import annotations

import sys
import threading
from collections import deque
from dataclasses import replace
from typing import Callable, Sequence

import numpy as np

from ..datasets.packets import TraceColumns, as_trace_columns, in_arrival_order
from ..hw.params import CLOCK_GHZ
from ..pisa.pipeline import (
    DEFAULT_TRACE_CHUNK,
    TaurusPipeline,
    TracePipelineResult,
)
from .executors import selects_fork
from .health import PoolHealth
from .pool import LaneWorker, ShardPool

__all__ = [
    "LaneRunner",
    "ShardedRuntime",
    "as_trace_columns",
    "concat_results",
    "empty_trace_result",
    "in_arrival_order",
    "scatter_merge",
    "merge_pipeline_state",
]


def empty_trace_result() -> TracePipelineResult:
    """A zero-packet :class:`TracePipelineResult` (the no-op run)."""
    return TracePipelineResult(
        order=np.zeros(0, dtype=np.int64),
        times=np.zeros(0, dtype=np.float64),
        decisions=np.zeros(0, dtype=np.int64),
        ml_scores=np.zeros(0, dtype=np.float64),
        latencies_ns=np.zeros(0, dtype=np.float64),
        bypassed=np.zeros(0, dtype=bool),
        aggregates={},
    )


def scatter_merge(
    columns: TraceColumns,
    parts,
    results: list[TracePipelineResult],
) -> TracePipelineResult:
    """Scatter per-part outputs to global positions, gather in time order.

    Each part is ``(global_indices, sub_columns)`` over ``columns`` and
    ``results[p]`` is that part's pipeline outcome: result row ``r``
    describes the packet at global input position
    ``indices[result.order[r]]``.  The merged result lists packets in
    global arrival order — exactly what one pipeline over the whole trace
    produces (stable sort makes equal timestamps deterministic, and
    same-slot packets keep their relative order because they share a
    part).  The parts are one app's lanes (for the sharded runtime, the
    shards of one trace).
    """
    n = columns.n
    order = np.argsort(columns.times, kind="stable")
    decisions = np.zeros(n, dtype=np.int64)
    scores = np.full(n, np.nan)
    latencies = np.zeros(n, dtype=np.float64)
    bypassed = np.zeros(n, dtype=bool)
    aggregates: dict[str, np.ndarray] = {}
    for (indices, __), result in zip(parts, results):
        if len(result) == 0:
            continue
        pos = indices[result.order]
        decisions[pos] = result.decisions
        scores[pos] = result.ml_scores
        latencies[pos] = result.latencies_ns
        bypassed[pos] = result.bypassed
        for key, values in result.aggregates.items():
            aggregates.setdefault(key, np.zeros(n, dtype=values.dtype))[
                pos
            ] = values
    return TracePipelineResult(
        order=order,
        times=columns.times[order],
        decisions=decisions[order],
        ml_scores=scores[order],
        latencies_ns=latencies[order],
        bypassed=bypassed[order],
        aggregates={key: values[order] for key, values in aggregates.items()},
    )


def concat_results(chunks: list[TracePipelineResult]) -> TracePipelineResult:
    """Consecutive chunk results of one time-sorted part, as one result.

    Chunks arrive time-sorted (each is a slice of the part's sorted
    columns), so every chunk's internal order is the identity and plain
    concatenation reproduces what one ``process_trace_batch`` call over
    the whole part returns.  Shared by the multi-app fabric's per-lane
    scheduler and the shard pool's chunked dispatch.
    """
    if not chunks:
        return empty_trace_result()
    if len(chunks) == 1:
        return chunks[0]
    n = sum(len(c) for c in chunks)
    return TracePipelineResult(
        order=np.arange(n, dtype=np.int64),
        times=np.concatenate([c.times for c in chunks]),
        decisions=np.concatenate([c.decisions for c in chunks]),
        ml_scores=np.concatenate([c.ml_scores for c in chunks]),
        latencies_ns=np.concatenate([c.latencies_ns for c in chunks]),
        bypassed=np.concatenate([c.bypassed for c in chunks]),
        aggregates={
            key: np.concatenate([c.aggregates[key] for c in chunks])
            for key in chunks[0].aggregates
        },
    )


def merge_pipeline_state(pipelines, arbiter_turn: int) -> dict:
    """Aggregate per-worker pipeline state as one pipeline would report it.

    Counters sum, register files sum (workers own disjoint slot sets),
    queue watermarks take the max, and the arbiter turn is supplied by the
    caller (the worker that processed the globally-last packet).
    """
    stats: dict[str, int] = {}
    for pipe in pipelines:
        for key, value in pipe.stats.items():
            stats[key] = stats.get(key, 0) + value
    registers = {
        name: sum(getattr(pipe.accumulator, name).values for pipe in pipelines)
        for name in TaurusPipeline._REGISTER_NAMES
    }
    tables = []
    n_tables = len(pipelines[0].preprocess_tables) + len(
        pipelines[0].postprocess_tables
    )
    for t in range(n_tables):
        shard_tables = [
            (pipe.preprocess_tables + pipe.postprocess_tables)[t]
            for pipe in pipelines
        ]
        tables.append(
            {
                "name": shard_tables[0].name,
                "lookups": sum(tab.lookups for tab in shard_tables),
                "misses": sum(tab.misses for tab in shard_tables),
                "hits": [
                    sum(hits)
                    for hits in zip(
                        *([e.hits for e in tab.entries] for tab in shard_tables)
                    )
                ],
            }
        )
    return {
        "stats": stats,
        "registers": registers,
        "tables": tables,
        "parser_packets": sum(p.parser.packets_parsed for p in pipelines),
        "block_packets": sum(
            0 if p.block is None else p.block.packets_processed
            for p in pipelines
        ),
        "block_issue_cycles": sum(
            0 if p.block is None else p.block._next_issue_cycle
            for p in pipelines
        ),
        "queues": {
            "ml": {
                "drops": sum(p.ml_queue.drops for p in pipelines),
                "high_watermark": max(
                    p.ml_queue.high_watermark for p in pipelines
                ),
            },
            "bypass": {
                "drops": sum(p.bypass_queue.drops for p in pipelines),
                "high_watermark": max(
                    p.bypass_queue.high_watermark for p in pipelines
                ),
            },
        },
        "arbiter_turn": arbiter_turn,
    }


def issue_cycles(blocks) -> list[int]:
    """Each block's issue clock (0 for a pipeline without a block)."""
    return [0 if block is None else block._next_issue_cycle for block in blocks]


def drain_ns(blocks, before: list[int]) -> float:
    """Modeled drain of what ``blocks`` issued since ``before``.

    A block that issued ``B`` packets drains in ``latency + (B - 1) * II``
    cycles — its last packet completes one tail latency after its final
    issue slot; blocks run concurrently, so the run drains with the
    slowest.
    """
    drains = [0.0]
    for block, start, now in zip(blocks, before, issue_cycles(blocks)):
        if now > start:
            design = block.design
            cycles = design.latency_cycles + (now - start) - design.initiation_interval
            drains.append(cycles / CLOCK_GHZ)
    return max(drains)


def last_part(parts, results, last_index: int) -> int | None:
    """The part that processed the packet at global position ``last_index``.

    A part's arrival-last packet sits at ``indices[result.order[-1]]``,
    so one comparison per part finds the owner of the globally-last
    packet — the pipeline whose arbiter turn the merged state reports.
    """
    for p, ((indices, __), result) in enumerate(zip(parts, results)):
        if len(result) and indices[result.order[-1]] == last_index:
            return p
    return None


def _fold(slots, chunk: int):
    """One lane's ``(app, columns, owner)`` slots as pieces of at most
    ``chunk`` rows: yields ``(app, spans)``, a span being a slot's
    ``(columns, start, stop)`` row range.

    Consecutive slots are one stream while the app stays the same and
    each slot's first time is at or after the previous slot's last; the
    stream is cut every ``chunk`` rows.  Only what is already queued is
    folded, and an empty slot yields nothing.
    """
    app, spans, rows, last = None, [], 0, None
    for slot_app, columns, __ in slots:
        if columns.n == 0:
            continue
        if spans and (slot_app != app or columns.times[0] < last):
            yield app, spans
            spans, rows = [], 0
        app, start = slot_app, 0
        while start < columns.n:
            stop = min(columns.n, start + chunk - rows)
            spans.append((columns, start, stop))
            rows += stop - start
            start = stop
            if rows == chunk:
                yield app, spans
                spans, rows = [], 0
        last = columns.times[-1]
    if spans:
        yield app, spans


def _join(spans) -> TraceColumns:
    """One piece's columns: a whole slot is the slot's own object, part
    of one slot a view, and rows of several slots one copy.  A header or
    feature block that a slot lacks reads as zeros there, as the parser
    and ``has_features`` already treat it."""
    parts = [
        columns if stop - start == columns.n else columns.slice(slice(start, stop))
        for columns, start, stop in spans
    ]
    if len(parts) == 1:
        return parts[0]
    features = None
    widths = [part.features.shape[1] for part in parts if part.features is not None]
    if widths:
        features = np.concatenate([
            np.zeros((part.n, widths[0])) if part.features is None else part.features
            for part in parts
        ])
    names = dict.fromkeys(name for part in parts for name in part.headers)
    return TraceColumns(
        times=np.concatenate([part.times for part in parts]),
        sizes=np.concatenate([part.sizes for part in parts]),
        payload_len=np.concatenate([part.payload_len for part in parts]),
        headers={
            name: np.concatenate([part.header(name) for part in parts])
            for name in names
        },
        features=features,
        has_features=np.concatenate([part.has_features for part in parts]),
    )


def _rows(result: TracePipelineResult, start: int, stop: int) -> TracePipelineResult:
    """Rows ``start:stop`` of a time-sorted result (identity order); the
    whole result comes back as the same object."""
    if start == 0 and stop == len(result):
        return result
    sl = slice(start, stop)
    return TracePipelineResult(
        order=np.arange(stop - start, dtype=np.int64),
        times=result.times[sl],
        decisions=result.decisions[sl],
        ml_scores=result.ml_scores[sl],
        latencies_ns=result.latencies_ns[sl],
        bypassed=result.bypassed[sl],
        aggregates={key: values[sl] for key, values in result.aggregates.items()},
    )


class _Tally:
    """Whose rows each scored piece of one run belongs to.

    Every lane reports its results in issue order (:meth:`scored`), and
    a result's rows belong to the lane's slots in that order: a piece
    may finish one slot and start the next, and a slot may take several
    pieces.  An owner is complete when each of its slots has all its
    rows, and owners are handed to ``on_done`` strictly in order, under
    the lock.
    """

    def __init__(self, schedules, owners: int, on_done):
        #: Per lane, the unfinished slots as ``[owner, rows to come]``.
        self._open = [
            deque([owner, columns.n] for __, columns, owner in slots)
            for slots in schedules
        ]
        self._pieces: list[dict[int, list]] = [{} for __ in range(owners)]
        self._slots = [0] * owners
        for lane, slots in enumerate(schedules):
            for __, __, owner in slots:
                self._pieces[owner].setdefault(lane, [])
                self._slots[owner] += 1
        self._next = 0
        self._on_done = on_done
        self._lock = threading.Lock()
        with self._lock:  # slots and owners with nothing to wait for
            for lane in range(len(schedules)):
                self._settle(lane)

    def scored(self, lane: int, result: TracePipelineResult) -> None:
        """The next ``len(result)`` rows of ``lane`` are in, split over
        its first unfinished slots by row count."""
        with self._lock:
            slots, start = self._open[lane], 0
            while start < len(result):
                slot = slots[0]
                stop = min(start + slot[1], len(result))
                self._pieces[slot[0]][lane].append(_rows(result, start, stop))
                slot[1] -= stop - start
                start = stop
                self._close(lane)
            self._settle(lane)

    def _close(self, lane: int) -> None:
        slots = self._open[lane]
        while slots and slots[0][1] == 0:
            self._slots[slots.popleft()[0]] -= 1

    def _settle(self, lane: int) -> None:
        self._close(lane)
        while self._next < len(self._slots) and self._slots[self._next] == 0:
            # No owner is handed over after one whose ``on_done`` raised.
            owner, self._next = self._next, len(self._slots)
            lanes, self._pieces[owner] = self._pieces[owner].items(), None
            self._on_done(owner, {s: concat_results(parts) for s, parts in lanes})
            self._next = owner + 1


class LaneRunner:
    """The lane runtime: traces in, merged arrival-ordered results out.

    A **lane** is one MapReduce block plus the pipelines of the apps
    resident on it, ``{app_index: pipeline}``; an app's **affinity** is
    the set of lanes holding a pipeline for it.  A request is one app's
    trace: coerced to columns, stably sorted by arrival time, partitioned
    by register slot over the app's lanes, queued behind the earlier
    requests' parts, scored, and merged back to arrival order.  **The
    one-part rule:** an app with a single lane has nothing to partition
    or scatter, so its result is that lane's own, with the caller-order
    mapping re-exposed.  :class:`ShardedRuntime` (one app, every lane
    affine to it) and :class:`~repro.runtime.fabric.MultiAppFabric`
    (apps time-sharing the lanes' blocks) construct this class.

    This process's pipelines are the only state of record on both
    backends: the in-process loop mutates them directly, the fork backend
    lands each chunk's state delta on them as the chunk is acked and never
    reads a worker's state back — which is what lets the pool re-fork a
    worker at exactly what landed, after a crash or a failed run (see
    :meth:`ShardPool.map_streams`).  ``executor`` / ``pool`` /
    ``pool_options`` are documented on :class:`ShardedRuntime`.
    """

    def __init__(
        self,
        lanes: Sequence[dict[int, TaurusPipeline]],
        executor: str = "auto",
        chunk_size: int = DEFAULT_TRACE_CHUNK,
        pool: bool | str = False,
        pool_options: dict | None = None,
    ):
        self.lanes = list(lanes)
        if not self.lanes:
            raise ValueError("shards must be positive")
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        self.shards = len(self.lanes)
        self.chunk_size = chunk_size
        forked = selects_fork(executor, pool, pool_options)
        self.pool_options = pool_options or {}
        self._lane_apps = [sorted(lane) for lane in self.lanes]
        self._app_lanes: dict[int, list[int]] = {}
        for s, ids in enumerate(self._lane_apps):
            for app in ids:
                self._app_lanes.setdefault(app, []).append(s)
        #: Per app, the register slot count its lanes share (the
        #: partition key's modulus).
        self._slots: dict[int, int] = {}
        for app, lane_ids in self._app_lanes.items():
            counts = {
                self.lanes[s][app].accumulator.packet_count.size for s in lane_ids
            }
            if len(counts) != 1:
                raise ValueError(
                    "shard pipelines must share one register slot count, got "
                    f"{sorted(counts)}"
                )
            self._slots[app] = counts.pop()
        #: Each lane's block (``None`` for a plain PISA pipeline).
        self._blocks = [
            lane[ids[0]].block for lane, ids in zip(self.lanes, self._lane_apps)
        ]
        #: Per app, the lane whose pipeline processed its globally-last
        #: packet so far (the app's merged arbiter turn is that one's).
        self._turn_lane: dict[int, int] = {}
        #: Modeled drain of the last run: the slowest lane's
        #: ``latency + (B - 1) * II``, program swaps included.
        self.last_drain_ns = 0.0
        #: The worker pool: forked here, reaped by :meth:`close`
        #: (``None`` without ``pool``: every run is in process).
        self.pool: ShardPool | None = self._spawn() if forked else None

    def lane_apps(self) -> list[list[int]]:
        """App indices served by each lane (the affinity map)."""
        return self._lane_apps

    def app_lanes(self, app_index: int) -> list[int]:
        """The lanes app ``app_index`` is affine to."""
        return self._app_lanes[app_index]

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    def _spawn(self) -> ShardPool:
        contexts = [LaneWorker(lane) for lane in self.lanes]
        # Pin the pristine post-build state *before* forking, so every
        # worker (and every crash replacement) inherits the rewind point
        # and per-run rewinds ship zero payload.
        for context in contexts:
            context.handle("mark", None)
        return ShardPool(contexts, **self.pool_options)

    @property
    def pool_health(self) -> PoolHealth | None:
        """The pool's :class:`~repro.runtime.health.PoolHealth` counters
        (crashes, hangs, restarts, replayed/degraded chunks) — the only
        place a transparently recovered worker failure is visible.
        ``None`` without a pool."""
        return None if self.pool is None else self.pool.health

    def rewind_state(self) -> None:
        """Rewind every lane pipeline (here and in the pool workers) to
        the pristine post-build mark, shipping no state, so a reused
        runtime behaves like a fresh one (see :meth:`ShardPool.rewind`).
        Needs a pool: the mark is pinned when its workers fork."""
        if self.pool is None:
            raise RuntimeError("rewinding requires persistent workers (pool=True)")
        self.pool.rewind()
        self._turn_lane.clear()

    reset_state = rewind_state

    def close(self) -> None:
        """Shut the worker pool down (no-op without one)."""
        if self.pool is not None:
            self.pool.close()

    def __enter__(self):
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    # ------------------------------------------------------------------
    # Requests: prepare, execute, merge
    # ------------------------------------------------------------------
    def _chunk(self, chunk_size: int | None) -> int:
        chunk = self.chunk_size if chunk_size is None else chunk_size
        if chunk <= 0:
            raise ValueError("chunk_size must be positive")
        return chunk

    def _prepare(self, app: int, trace):
        """One app's trace as ``(app, time-sorted columns, caller-order
        mapping, flow-consistent parts over the app's lanes)``, a part
        being a lane's ``(indices into the sorted columns, sub_columns)``.
        The columns drop ``labels`` / ``flow_ids``: no pipeline stage
        reads them, so no part copies them and no worker is sent them.
        """
        order, ordered = in_arrival_order(as_trace_columns(trace))
        if ordered.labels is not None or ordered.flow_ids is not None:
            ordered = replace(ordered, labels=None, flow_ids=None)
        n_lanes = len(self._app_lanes[app])
        if n_lanes == 1:
            parts = [(None, ordered)]  # the one-part rule: nothing to index
        else:
            assignments = ordered.shard_assignments(n_lanes, self._slots[app])
            parts = ordered.partition(assignments, n_lanes)
        return app, ordered, order, parts

    def _process(self, requests, chunk_size, on_result) -> list[TracePipelineResult]:
        """``(app, trace)`` requests, one after the other, as **one** run
        (the body of both ``process_traces``)."""
        chunk = self._chunk(chunk_size)
        prepared = []
        schedules: list[list[tuple[int, TraceColumns, int]]] = [[] for __ in self.lanes]
        for k, (app, trace) in enumerate(requests):
            prepared.append(self._prepare(app, trace))
            for s, (__, sub) in zip(self._app_lanes[app], prepared[k][3]):
                if sub.n:
                    schedules[s].append((app, sub, k))
        return self._execute(prepared, schedules, chunk, on_result)

    def _execute(self, prepared, schedules, chunk: int, on_result=None):
        """One run of ``schedules``, whose slots are owned by the entries
        of ``prepared`` (see :meth:`_prepare`): each entry's merged
        result, handed to ``on_result`` as soon as it is complete."""
        merged: list = [None] * len(prepared)

        def merge(k: int, lane_results: dict[int, TracePipelineResult]) -> None:
            merged[k] = self._merge(*prepared[k], lane_results)
            if on_result is not None:
                on_result(k, merged[k])

        # Both backends leave this process's lane blocks current (in
        # place, or by per-chunk delta), so the issue-clock (and the
        # fabric's swap) accounting reads the same counters either way.
        before = issue_cycles(self._blocks)
        self._run_schedules(schedules, chunk, len(prepared), merge)
        self.last_drain_ns = drain_ns(self._blocks, before)
        return merged

    def _merge(
        self,
        app: int,
        ordered: TraceColumns,
        order: np.ndarray,
        parts,
        scored: dict[int, TracePipelineResult],
    ) -> TracePipelineResult:
        """One app's lane outputs (``scored[lane]``; a lane that got none
        of its packets is absent) as a single arrival-ordered result.

        The scatter gathers over the *time-sorted* columns (so its
        internal order is the identity); the returned result re-exposes
        the caller-order mapping, exactly like one pipeline over the
        original trace.  Also notes which lane processed the app's
        globally-last packet (the merged arbiter turn is that lane's).
        """
        if ordered.n == 0:
            # No packet of this app ran: its arbiter turn stands.
            return empty_trace_result()
        lane_ids = self._app_lanes[app]
        if len(lane_ids) == 1:
            # One part over time-sorted columns: the lane's own result is
            # already the merge (identity indices, identity order).
            return replace(scored[lane_ids[0]], order=order)
        results = [scored.get(s) or empty_trace_result() for s in lane_ids]
        merged = scatter_merge(ordered, parts, results)
        lane_pos = last_part(parts, results, merged.order[-1])
        if lane_pos is not None:
            self._turn_lane[app] = lane_ids[lane_pos]
        return replace(merged, order=order)

    def _state(self, app: int) -> dict:
        """One app's pipeline state merged across its lanes (see
        :func:`merge_pipeline_state`); the arbiter turn follows the lane
        that processed the app's globally-last packet."""
        lane_ids = self._app_lanes[app]
        turn = self.lanes[self._turn_lane.get(app, lane_ids[0])][app]
        return merge_pipeline_state(
            [self.lanes[s][app] for s in lane_ids], turn.arbiter._turn
        )

    # ------------------------------------------------------------------
    # The schedule loop
    # ------------------------------------------------------------------
    def _run_schedules(
        self,
        schedules: Sequence[Sequence[tuple[int, TraceColumns, int]]],
        chunk: int,
        owners: int,
        on_done: Callable[[int, dict[int, TracePipelineResult]], None],
    ) -> None:
        """Score every lane's schedule as one run; per-owner lane results.

        ``schedules[s]`` lists lane ``s``'s ``(app, columns, owner)``
        slots in issue order; ``owner < owners`` names whose result the
        slot is a part of (a request of a batch, an app of a fabric run).

        A request is the unit of admission, deadline and delivery, but a
        *piece* is the unit of execution (and, on the fork backend, of
        ack and replay).  Consecutive slots of one lane are one stream
        while they are for the same app and each slot's first time is
        at or after the previous slot's last (:func:`_fold`), so a piece
        may span the end of one request and the start of the next.  A
        new app, or a time that goes backwards at a slot boundary,
        starts a new piece, so every piece is time-sorted and the
        pipeline's arrival sort is the identity.  In process a piece is
        the whole stream, one ``process_trace_batch(columns,
        chunk_size=chunk)`` call (lanes take turns piece by piece): as
        register updates and block passes equal any split of their rows
        and same-app slots swap no program, that equals one call per
        slot.  On the fork backend the stream is cut every ``chunk``
        rows.  The pool slices and ships piece ``k+1`` while the
        worker scores ``k``, and every lane works through its own
        schedule without waiting for the others.  A ``FaultPlan``
        ordinal, a replay and ``PoolHealth.replayed_chunks`` count
        pieces.  When a worker's handler raises on a piece, every owner
        with rows in it fails with the run, and the lane keeps exactly
        the pieces acked before it (other lanes keep everything).

        ``on_done(owner, {lane: result})`` — an owner's slots on one lane
        concatenated in issue order — fires as soon as that owner and
        every lower-numbered one are complete: at ack time on the fork
        backend, from the lanes' supervisor threads, one call at a time.
        """
        tally = _Tally(schedules, owners, on_done)
        if self.pool is None or not any(schedules):  # an empty run sends nothing
            # Uncut: ``process_trace_batch`` makes its own spans.
            pieces = [list(_fold(slots, sys.maxsize)) for slots in schedules]
            for k in range(max(map(len, pieces), default=0)):
                for s, lane in enumerate(pieces):
                    if k < len(lane):
                        app, spans = lane[k]
                        tally.scored(s, self._score(s, app, _join(spans), chunk))
            return
        streams = [
            (self._requests(slots, chunk), sum(1 for __ in _fold(slots, chunk)))
            for slots in schedules
        ]

        def acked(lane: int, __ordinal: int, response) -> None:
            # Land each chunk's incremental delta the moment it is acked
            # (one supervisor thread per lane; each touches only its own
            # lane's pipelines, so this part needs no lock).
            app, (result, delta) = response
            if delta is not None:
                self.lanes[lane][app].apply_state_delta(delta)
            tally.scored(lane, result)

        self.pool.map_streams(streams, on_result=acked, degrade=self._degrade)

    def _score(self, lane: int, app: int, columns: TraceColumns, chunk: int):
        """The in-process backend: this process's pipeline scores the piece."""
        return self.lanes[lane][app].process_trace_batch(columns, chunk_size=chunk)

    @staticmethod
    def _requests(slots, chunk: int):
        """Lazy piece building (:func:`_fold`) — pulled by the pool's
        writer threads, at most ``window`` requests ahead of the acks."""
        for app, spans in _fold(slots, chunk):
            yield ("chunk", (app, (_join(spans), True)))

    def _degrade(self, lane: int, kind: str, payload):
        # In-parent fallback when a lane's workers cannot be kept alive:
        # this process's pipeline already sits at the last acked chunk, so
        # the in-process backend continues on it.  delta=None — the state
        # change happened here.
        if kind != "chunk":
            raise RuntimeError(f"cannot degrade request kind {kind!r}")
        app, (columns, __) = payload
        return app, (self._score(lane, app, columns, max(columns.n, 1)), None)


class ShardedRuntime(LaneRunner):
    """``N`` parallel pipeline workers behind one ``process_trace`` call:
    the lane runtime with one app, every lane affine to it.

    Parameters
    ----------
    pipeline_factory:
        ``factory(shard_index) -> TaurusPipeline``; called once per shard
        at construction.  Each call must build an *independent* pipeline
        (own tables, accumulator, and MapReduce block) with identical
        configuration, and every accumulator must share one slot count
        (the partition key).
    shards:
        Number of workers.  ``1`` degenerates to the plain batched
        pipeline with no partition and no merge.
    executor:
        ``auto`` (default) | ``serial`` | ``fork``: a checked spelling of
        the ``pool`` choice — ``serial`` refuses a pool, ``fork`` needs
        one (see :func:`~repro.runtime.executors.selects_fork`).
    chunk_size:
        Default packets-per-chunk: the rows a pool piece carries.  In
        process, each lane's pipeline runs every stage once per span of
        ``max(chunk_size, DEFAULT_TRACE_CHUNK)`` rows, so below 8,192 it
        changes none of the switch model's work.
    pool:
        Falsy (default): every run scores in process.  Truthy (``True``,
        or the spellings ``"auto"`` / ``"fork"``): one
        :class:`~repro.runtime.pool.ShardPool` is forked now and serves
        every run — same merged results; close the runtime (context
        manager or :meth:`close`) to reap it.
    pool_options:
        Extra keyword arguments for the
        :class:`~repro.runtime.pool.ShardPool` (``window``, ``hang_timeout``,
        ``max_worker_crashes``, ``faults``, ...) — the fault-tolerance
        knobs, and the seam the failure-injection tests use.  Needs ``pool``.
    """

    def __init__(
        self,
        pipeline_factory: Callable[[int], TaurusPipeline],
        shards: int = 2,
        executor: str = "auto",
        chunk_size: int = DEFAULT_TRACE_CHUNK,
        pool: bool | str = False,
        pool_options: dict | None = None,
    ):
        self.pipelines = [pipeline_factory(i) for i in range(shards)]
        lanes = [{0: pipe} for pipe in self.pipelines]
        super().__init__(lanes, executor, chunk_size, pool, pool_options)
        self.slots = self._slots[0]

    def process_trace(
        self, trace, chunk_size: int | None = None
    ) -> TracePipelineResult:
        """The whole trace through all shards; merged, arrival-ordered —
        :meth:`process_traces` on a batch of one.

        ``trace`` is a :class:`~repro.datasets.packets.PacketTrace`, a
        :class:`~repro.datasets.packets.TraceColumns`, or a list of
        pipeline packets (converted).
        """
        return self.process_traces([trace], chunk_size)[0]

    def process_traces(
        self,
        traces: Sequence,
        chunk_size: int | None = None,
        on_result: Callable[[int, TracePipelineResult], None] | None = None,
    ) -> list[TracePipelineResult]:
        """Several traces, one after the other, as **one** run.

        Each trace is partitioned on its own and its parts queue behind
        the earlier traces' parts on their shards, so every shard sees
        exactly what back-to-back :meth:`process_trace` calls would show
        it — results and merged state are bit-identical — but a shard
        starts trace ``k+1`` while another is still on ``k``, and the
        pool's per-run costs are paid once.  A trace is the unit of
        admission, deadline and delivery: ``on_result(k, result)`` fires
        once per trace, as soon as trace ``k`` and every earlier one are
        merged (on the fork backend, from a pool supervisor thread, one
        call at a time).  A piece is the unit of execution — in process
        a shard's whole time-ordered queue, on the fork backend ``chunk``
        rows, also the unit of ack and replay — and it may span the end
        of one trace's part and the start of the next (see
        :meth:`_run_schedules`).  :attr:`last_drain_ns` covers the whole
        run.
        """
        return self._process([(0, trace) for trace in traces], chunk_size, on_result)

    def merged_state(self) -> dict:
        """Aggregate per-shard state as one pipeline would report it.

        Counters sum, register files sum (shards own disjoint slot sets),
        queue watermarks take the max, and the arbiter turn follows the
        shard that processed the globally-last packet (see
        :func:`merge_pipeline_state`).
        """
        return self._state(0)
