"""Multi-app fabric: time-multiplex compiled programs over one grid.

Taurus positions the MapReduce block as a *shared* ML fabric inside the
switch: several compiled dataflow programs can serve traffic from one
grid, swapped between packets the way a CGRA swaps programs (not
bitstreams).  :class:`MultiAppFabric` is that deployment shape for trace
replay:

* each registered :class:`FabricApp` bundles a compiled program
  (:class:`~repro.mapreduce.ir.DataflowGraph`), its PHV feature layout,
  and its decision hooks;
* apps are scheduled in *chunks* over shared grid lanes with an
  issue-clock-accounted scheduler (:func:`schedule_chunks`: round-robin,
  weighted stride, or the serial baseline), so the modeled drain reflects
  both interleaving and the reconfiguration cost of each program swap
  (:meth:`~repro.hw.grid.MapReduceBlock.reconfigure` with
  ``account=True``);
* with ``shards > 1`` the fabric extends the sharded runtime's
  factory-per-worker shape to *heterogeneous* per-lane programs: lanes
  are assigned app affinities, each app's trace is partitioned
  flow-consistently across its affine lanes, and an app whose lanes are
  exclusively its own never pays a reconfiguration (the thrash-free
  configuration when ``shards >= len(apps)``).

**Why per-app results are bit/stat-identical to running each app alone.**
Every app owns its pipelines (parser, MATs, flow registers, queues) on
each of its lanes — only the grid is shared.  Chunks of one app execute
in arrival order per lane (every policy preserves per-app FIFO), the
graph interpreter carries no state between batches, and a packet's
latency is the design latency of *its* program (steering swaps the
program in before any ML work, and an un-stalled issue pays no wait).
Interleaving therefore changes only the shared issue clock — the modeled
drain — never an app's decisions, scores, latencies, or register state.
``tests/test_multi_app_fabric.py`` property-tests this at shards ∈
{1, 2, 4} under every policy.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from typing import Callable, Sequence

import numpy as np

from ..datasets.packets import PacketTrace, TraceColumns
from ..hw.grid import MapReduceBlock
from ..hw.params import CLOCK_GHZ
from ..mapreduce.ir import DataflowGraph
from ..pisa.pipeline import (
    DEFAULT_TRACE_CHUNK,
    TaurusPipeline,
    TracePipelineResult,
)
from ..pisa.registers import FlowFeatureAccumulator
from .executors import selects_fork
from .sharded import (
    LaneRunner,
    as_trace_columns,
    drain_ns,
    empty_trace_result,
    in_arrival_order,
    issue_cycles,
    last_part,
    merge_pipeline_state,
    scatter_merge,
)

__all__ = [
    "FabricApp",
    "MultiAppFabric",
    "MultiAppResult",
    "SCHEDULING_POLICIES",
    "schedule_chunks",
]

#: Chunk-interleave policies: fair alternation, weight-proportional
#: stride scheduling, and the run-each-app-to-completion baseline.
SCHEDULING_POLICIES = ("round_robin", "weighted", "serial")


def schedule_chunks(
    counts: Sequence[int],
    weights: Sequence[float] | None = None,
    policy: str = "round_robin",
) -> list[int]:
    """Deterministic issue order of per-app chunks on one lane.

    ``counts[a]`` is how many chunks app ``a`` has queued; the returned
    list names the app issued at each slot (every app's chunks stay FIFO
    — only the interleave between apps changes).

    * ``round_robin`` — one chunk per app per pass, skipping finished apps;
    * ``weighted`` — stride scheduling: app ``a`` accumulates pass value
      ``1 / weights[a]`` per issued chunk and the lowest pass (ties to the
      lower app index) issues next, so issue frequency is proportional to
      weight;
    * ``serial`` — all of app 0, then all of app 1, ... (the baseline the
      multi-app benchmark compares against).
    """
    if policy not in SCHEDULING_POLICIES:
        raise ValueError(
            f"unknown policy {policy!r}; pick one of {SCHEDULING_POLICIES}"
        )
    counts = [int(c) for c in counts]
    if any(c < 0 for c in counts):
        raise ValueError("chunk counts must be non-negative")
    n = len(counts)
    order: list[int] = []
    if policy == "serial":
        for a in range(n):
            order.extend([a] * counts[a])
        return order
    if policy == "round_robin":
        remaining = list(counts)
        while any(remaining):
            for a in range(n):
                if remaining[a]:
                    order.append(a)
                    remaining[a] -= 1
        return order
    strides = [1.0] * n if weights is None else [float(w) for w in weights]
    if len(strides) != n:
        raise ValueError("weights must align with counts")
    if any(w <= 0 for w in strides):
        raise ValueError("weights must be positive")
    remaining = list(counts)
    passes = [1.0 / w for w in strides]
    while any(remaining):
        a = min(
            (i for i in range(n) if remaining[i]),
            key=lambda i: (passes[i], i),
        )
        order.append(a)
        remaining[a] -= 1
        passes[a] += 1.0 / strides[a]
    return order


@dataclass
class FabricApp:
    """One compiled application deployable on a shared grid.

    The program plus everything the switch needs to serve it: the PHV
    feature layout, decision hooks (scalar + vectorized twins, so both
    execution paths stay fast and identical), a scheduling ``weight`` for
    the weighted policy, and an optional flow-register file size.
    """

    name: str
    graph: DataflowGraph
    feature_names: tuple[str, ...]
    weight: float = 1.0
    slots: int | None = None
    bypass_predicate: Callable | None = None
    bypass_predicate_batch: Callable | None = None
    postprocess: Callable | None = None
    postprocess_batch: Callable | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("apps need a name")
        if self.weight <= 0:
            raise ValueError("weight must be positive")

    def build_pipeline(self, block: MapReduceBlock) -> TaurusPipeline:
        """An independent pipeline for this app around a (shared) block.

        The pipeline pins :attr:`graph` as its
        :attr:`~repro.pisa.TaurusPipeline.program`, so chunks steer the
        block back to this app's program whenever another app ran last.
        """
        kwargs: dict = {}
        if self.bypass_predicate is not None:
            kwargs["bypass_predicate"] = self.bypass_predicate
        if self.postprocess is not None:
            kwargs["postprocess"] = self.postprocess
        pipe = TaurusPipeline(
            block=block,
            feature_names=self.feature_names,
            bypass_predicate_batch=self.bypass_predicate_batch,
            postprocess_batch=self.postprocess_batch,
            program=self.graph,
            **kwargs,
        )
        if self.slots is not None:
            pipe.accumulator = FlowFeatureAccumulator(slots=self.slots)
        return pipe

    # ------------------------------------------------------------------
    # Common app shapes
    # ------------------------------------------------------------------
    @classmethod
    def from_quantized_dnn(
        cls,
        quantized,
        name: str = "anomaly",
        feature_names: tuple[str, ...] | None = None,
        threshold: float = 0.5,
        weight: float = 1.0,
        slots: int | None = None,
    ) -> "FabricApp":
        """A score-thresholding DNN app (the anomaly-detection shape).

        Lowers with exact activations, so fabric execution is bit-exact
        with the quantized model — the same lowering
        :class:`~repro.testbed.TaurusDataPlane` deploys.
        """
        from ..datasets.nslkdd import DNN_FEATURES
        from ..mapreduce.frontend import dnn_graph
        from ..pisa.pipeline import threshold_postprocess

        scalar_post, batch_post = threshold_postprocess(threshold)
        return cls(
            name=name,
            graph=dnn_graph(
                quantized, name=f"{name}_dnn", exact_activations=True
            ),
            feature_names=(
                DNN_FEATURES if feature_names is None else feature_names
            ),
            weight=weight,
            slots=slots,
            postprocess=scalar_post,
            postprocess_batch=batch_post,
        )

    @classmethod
    def from_lstm(
        cls,
        lstm,
        window_steps: int = 8,
        name: str = "congestion",
        weight: float = 1.0,
        slots: int | None = None,
    ) -> "FabricApp":
        """A recurrent action-head app (the Indigo congestion shape).

        The packet's feature payload is the flattened ``(T, D)``
        observation window (time-major, matching
        :func:`~repro.mapreduce.frontend.lstm_graph`); the fabric's
        output is the argmax action index, which the postprocess hooks
        pass through as the decision code.
        """
        from ..mapreduce.frontend import lstm_graph
        from ..pisa.pipeline import action_postprocess

        action_scalar, action_batch = action_postprocess()

        return cls(
            name=name,
            graph=lstm_graph(lstm, window_steps=window_steps, name=f"{name}_lstm"),
            feature_names=tuple(
                f"w{t}_{d}"
                for t in range(window_steps)
                for d in range(lstm.input_size)
            ),
            weight=weight,
            slots=slots,
            postprocess=action_scalar,
            postprocess_batch=action_batch,
        )

    @classmethod
    def from_kmeans(
        cls,
        kmeans,
        feature_names: tuple[str, ...] | None = None,
        name: str = "iot",
        weight: float = 1.0,
        slots: int | None = None,
    ) -> "FabricApp":
        """A nearest-centroid classifier app (the IoT-classification shape).

        The fabric's output is the cluster index, passed through as the
        decision code by the shared
        :func:`~repro.pisa.pipeline.action_postprocess` pair — both
        execution paths stay vectorized, no per-row fallback.
        """
        from ..mapreduce.frontend import kmeans_graph
        from ..pisa.pipeline import action_postprocess

        if kmeans.centroids is None:
            raise ValueError("KMeans must be fitted before deployment")
        scalar_post, batch_post = action_postprocess()
        if feature_names is None:
            from ..datasets import IOT_CLUSTER_FEATURES

            feature_names = IOT_CLUSTER_FEATURES
        dim = kmeans.centroids.shape[1]
        if len(feature_names) != dim:
            raise ValueError(
                f"model consumes {dim} features, got {len(feature_names)} names"
            )
        return cls(
            name=name,
            graph=kmeans_graph(kmeans, name=f"{name}_kmeans"),
            feature_names=tuple(feature_names),
            weight=weight,
            slots=slots,
            postprocess=scalar_post,
            postprocess_batch=batch_post,
        )


@dataclass
class MultiAppResult:
    """Outcome of one multi-app fabric run."""

    results: dict[str, TracePipelineResult]
    drain_ns: float
    reconfigurations: int
    reconfig_ns: float
    n_packets: int
    policy: str
    shards: int
    per_app_packets: dict[str, int] = field(default_factory=dict)

    @property
    def model_pkt_per_s(self) -> float:
        """Aggregate modeled drain throughput across all apps."""
        if self.drain_ns <= 0:
            return 0.0
        return self.n_packets / (self.drain_ns * 1e-9)


@dataclass
class _Lane:
    """One grid lane: a shared block plus this lane's per-app pipelines."""

    block: MapReduceBlock
    pipelines: dict[int, TaurusPipeline]


class MultiAppFabric:
    """``N`` compiled apps time-multiplexed over shared grid lanes.

    Parameters
    ----------
    apps:
        Initial :class:`FabricApp` registrations (more via
        :meth:`register` until the first run builds the lanes).
    shards:
        Grid lanes.  ``1`` is the paper's single shared block; more lanes
        give apps affine homes (``shards >= len(apps)`` eliminates
        reconfiguration thrash entirely while keeping one fabric).
    executor / chunk_size:
        As in :class:`~repro.runtime.ShardedRuntime`.
    policy:
        Default scheduling policy for :meth:`run` (see
        :func:`schedule_chunks`).
    pool:
        How long fork workers live, as in
        :class:`~repro.runtime.ShardedRuntime`: truthy keeps one worker
        per lane across runs (forked by the first run, which builds the
        lanes) instead of forking and reaping per run.  Close the fabric
        (context manager or :meth:`close`) when a pool is attached.
    pool_options:
        Extra keyword arguments for the lane
        :class:`~repro.runtime.pool.ShardPool` (fault-tolerance knobs:
        ``hang_timeout``, ``heartbeat_interval``, ``faults``, ...), as in
        :class:`~repro.runtime.ShardedRuntime`.
    """

    def __init__(
        self,
        apps: Sequence[FabricApp] = (),
        shards: int = 1,
        executor: str = "auto",
        chunk_size: int = DEFAULT_TRACE_CHUNK,
        policy: str = "round_robin",
        pool: bool | str = False,
        pool_options: dict | None = None,
    ):
        if shards <= 0:
            raise ValueError("shards must be positive")
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if policy not in SCHEDULING_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; pick one of {SCHEDULING_POLICIES}"
            )
        selects_fork(executor, pool, pool_options, shards)  # validate now
        self.shards = shards
        self.executor = executor
        self.chunk_size = chunk_size
        self.policy = policy
        self.apps: list[FabricApp] = []
        self._lanes: list[_Lane] | None = None
        self._runner: LaneRunner | None = None
        #: Per app, the lane whose pipeline processed its globally-last
        #: packet so far (the app's merged arbiter turn is that one's).
        self._turn_lane: dict[int, int] = {}
        self._pool_request = pool
        self._pool_options = pool_options
        #: Modeled drain of the last run (slowest lane; reconfiguration
        #: and interleave costs included).
        self.last_drain_ns = 0.0
        for app in apps:
            self.register(app)

    # ------------------------------------------------------------------
    # Worker lifecycle
    # ------------------------------------------------------------------
    @property
    def pool(self):
        """The persistent lane-worker pool (``None`` unless ``pool`` was
        set, and until the first run builds the lanes)."""
        return None if self._runner is None else self._runner.pool

    @property
    def pool_health(self):
        """The lane pool's :class:`~repro.runtime.health.PoolHealth`
        counters (``None`` without a persistent pool, or before the
        first run builds the lanes)."""
        return None if self.pool is None else self.pool.health

    def close(self) -> None:
        """Shut the persistent lane-worker pool down (no-op without one)."""
        if self._runner is not None:
            self._runner.close()

    def __enter__(self) -> "MultiAppFabric":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def reset_state(self) -> None:
        """Rewind every lane pipeline (and pool worker) to the pristine
        post-build mark, so a reused fabric behaves like a fresh one
        (see :meth:`ShardPool.rewind`)."""
        if self._runner is None:
            return
        self._runner.rewind()
        self._turn_lane.clear()

    # ------------------------------------------------------------------
    # Registration and lane topology
    # ------------------------------------------------------------------
    def register(self, app: FabricApp) -> None:
        """Add an app (before the first run compiles it onto the lanes)."""
        if self._lanes is not None:
            raise RuntimeError(
                "apps must be registered before the fabric's first run"
            )
        if any(existing.name == app.name for existing in self.apps):
            raise ValueError(f"duplicate app name {app.name!r}")
        self.apps.append(app)

    def lane_apps(self) -> list[list[int]]:
        """App indices served by each lane (the affinity map).

        With at least one lane per app, lane ``s`` is dedicated to app
        ``s % M`` — disjoint homes, zero reconfigurations.  With fewer
        lanes than apps, apps round-robin onto lanes (``a % N``) and each
        lane time-multiplexes its residents.
        """
        n_apps = len(self.apps)
        if n_apps == 0:
            return [[] for __ in range(self.shards)]
        if self.shards >= n_apps:
            return [[s % n_apps] for s in range(self.shards)]
        return [
            [a for a in range(n_apps) if a % self.shards == s]
            for s in range(self.shards)
        ]

    def app_lanes(self, app_index: int) -> list[int]:
        """The lanes app ``app_index`` is affine to."""
        return [
            s for s, ids in enumerate(self.lane_apps()) if app_index in ids
        ]

    def _ensure_lanes(self) -> list[_Lane]:
        if self._lanes is None:
            if not self.apps:
                raise ValueError("no apps registered")
            lanes = []
            for ids in self.lane_apps():
                block = MapReduceBlock(self.apps[ids[0]].graph)
                lanes.append(
                    _Lane(
                        block=block,
                        pipelines={
                            a: self.apps[a].build_pipeline(block) for a in ids
                        },
                    )
                )
            self._lanes = lanes
            self._runner = LaneRunner(
                [lane.pipelines for lane in lanes],
                self.executor,
                self._pool_request,
                self._pool_options,
            )
        return self._lanes

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(
        self,
        traces,
        policy: str | None = None,
        chunk_size: int | None = None,
    ) -> MultiAppResult:
        """Every app's trace through the shared fabric, per-app merged.

        ``traces`` maps app name to trace (a
        :class:`~repro.datasets.packets.PacketTrace`,
        :class:`~repro.datasets.packets.TraceColumns`, or packet list) or
        is a sequence aligned with the registration order.  Returns one
        arrival-ordered :class:`TracePipelineResult` per app,
        bit/stat-identical to running that app alone on its own trace.
        """
        policy = self.policy if policy is None else policy
        if policy not in SCHEDULING_POLICIES:
            raise ValueError(
                f"unknown policy {policy!r}; pick one of {SCHEDULING_POLICIES}"
            )
        chunk = self.chunk_size if chunk_size is None else chunk_size
        if chunk <= 0:
            raise ValueError("chunk_size must be positive")
        lanes = self._ensure_lanes()
        prepared = [
            self._prepare(a, trace)
            for a, trace in enumerate(self._resolve_traces(traces))
        ]

        # Per lane: FIFO chunk queues per resident app, interleaved by the
        # scheduling policy.
        schedules: list[list[tuple[int, TraceColumns, int]]] = []
        for s, lane in enumerate(lanes):
            per_app: dict[int, list[TraceColumns]] = {}
            for a in lane.pipelines:
                __, sub = prepared[a][3][self.app_lanes(a).index(s)]
                per_app[a] = [
                    sub.slice(slice(start, min(start + chunk, sub.n)))
                    for start in range(0, sub.n, chunk)
                ]
            ids = sorted(per_app)
            issue_order = schedule_chunks(
                [len(per_app[a]) for a in ids],
                weights=[self.apps[a].weight for a in ids],
                policy=policy,
            )
            queues = {a: iter(per_app[a]) for a in ids}
            schedules.append(
                [(ids[i], next(queues[ids[i]]), ids[i]) for i in issue_order]
            )

        # Both backends leave this process's lane blocks current (in
        # place, or by per-chunk delta), so the issue-clock and swap
        # accounting reads the same counters either way.
        blocks = [lane.block for lane in lanes]
        swaps = sum(block.reconfigurations for block in blocks)
        swap_cycles = sum(block.reconfig_cycles for block in blocks)
        merged = self._execute(prepared, schedules, chunk)
        per_app_packets = {
            app.name: prepared[a][1].n for a, app in enumerate(self.apps)
        }
        return MultiAppResult(
            results={app.name: merged[a] for a, app in enumerate(self.apps)},
            drain_ns=self.last_drain_ns,
            reconfigurations=sum(b.reconfigurations for b in blocks) - swaps,
            reconfig_ns=(sum(b.reconfig_cycles for b in blocks) - swap_cycles)
            / CLOCK_GHZ,
            n_packets=sum(per_app_packets.values()),
            policy=policy,
            shards=self.shards,
            per_app_packets=per_app_packets,
        )

    def process_traces(
        self,
        requests: Sequence[tuple[str, object]],
        chunk_size: int | None = None,
        on_result: Callable[[int, TracePipelineResult], None] | None = None,
    ) -> list[TracePipelineResult]:
        """``(app name, trace)`` requests, one after the other, as **one** run.

        Request ``k``'s parts queue behind the earlier requests' parts on
        its app's lanes, so each lane sees exactly what one :meth:`run`
        per request (the other apps idle) would show it — results and
        per-app state are bit-identical — while lanes work through their
        queues side by side.  ``on_result(k, result)`` and
        :attr:`last_drain_ns` are as in
        :meth:`ShardedRuntime.process_traces
        <repro.runtime.sharded.ShardedRuntime.process_traces>`.
        """
        chunk = self.chunk_size if chunk_size is None else chunk_size
        if chunk <= 0:
            raise ValueError("chunk_size must be positive")
        lanes = self._ensure_lanes()
        index = {app.name: a for a, app in enumerate(self.apps)}
        prepared = []
        schedules: list[list[tuple[int, TraceColumns, int]]] = [[] for __ in lanes]
        for k, (name, trace) in enumerate(requests):
            a = index[name]
            prepared.append(self._prepare(a, trace))
            for s, (__, sub) in zip(self.app_lanes(a), prepared[k][3]):
                if sub.n:
                    schedules[s].append((a, sub, k))
        return self._execute(prepared, schedules, chunk, on_result)

    def _execute(self, prepared, schedules, chunk: int, on_result=None):
        """One run of ``schedules``, whose slots are owned by the entries
        of ``prepared`` (see :meth:`_prepare`): each entry's merged
        result, handed to ``on_result`` as soon as it is complete."""
        merged: list = [None] * len(prepared)

        def merge(k: int, lane_results: dict[int, TracePipelineResult]) -> None:
            merged[k] = self._merge_app(*prepared[k], lane_results)
            if on_result is not None:
                on_result(k, merged[k])

        blocks = [lane.block for lane in self._lanes]
        before = issue_cycles(blocks)
        self._runner.run(schedules, chunk, len(prepared), merge)
        self.last_drain_ns = drain_ns(blocks, before)
        return merged

    # ------------------------------------------------------------------
    # Internals
    # ------------------------------------------------------------------
    def _resolve_traces(self, traces) -> list:
        if isinstance(traces, dict):
            missing = [app.name for app in self.apps if app.name not in traces]
            if missing:
                raise ValueError(f"missing traces for apps: {missing}")
            return [traces[app.name] for app in self.apps]
        traces = list(traces)
        if len(traces) != len(self.apps):
            raise ValueError(
                f"got {len(traces)} traces for {len(self.apps)} apps"
            )
        return traces

    def _prepare(self, app_index: int, trace):
        """One app's trace as ``(app, time-sorted columns, caller-order
        mapping, flow-consistent parts over the app's affine lanes)``."""
        order, ordered = in_arrival_order(as_trace_columns(trace))
        return app_index, ordered, order, self._partition(app_index, trace, ordered)

    def _app_slots(self, app_index: int) -> int:
        app = self.apps[app_index]
        if app.slots is not None:
            return app.slots
        lanes = self._ensure_lanes()
        pipe = lanes[self.app_lanes(app_index)[0]].pipelines[app_index]
        return pipe.accumulator.packet_count.size

    def _partition(
        self, app_index: int, trace, ordered: TraceColumns
    ) -> list[tuple[np.ndarray, TraceColumns]]:
        """Flow-consistent parts of one app's trace over its lanes.

        Part indices are positions into ``ordered`` (the time-sorted
        view), so the cached :meth:`PacketTrace.shard_columns` partition
        is only reusable when the trace's columns already are in arrival
        order — otherwise its indices would reference the unsorted
        layout and the scatter-merge would misplace rows.
        """
        n_lanes = len(self.app_lanes(app_index))
        slots = self._app_slots(app_index)
        if n_lanes == 1:
            return [(np.arange(ordered.n, dtype=np.int64), ordered)]
        if isinstance(trace, PacketTrace) and ordered is trace.columns():
            return trace.shard_columns(n_lanes, slots)
        assignments = ordered.shard_assignments(n_lanes, slots)
        return ordered.partition(assignments, n_lanes)

    def _merge_app(
        self,
        app_index: int,
        ordered: TraceColumns,
        order: np.ndarray,
        parts,
        scored: dict[int, TracePipelineResult],
    ) -> TracePipelineResult:
        """One app's lane outputs (``scored[lane]``; a lane that got none
        of its packets is absent) as a single arrival-ordered result.

        ``scatter_merge`` gathers over the *time-sorted* columns (so its
        internal order is the identity); the returned result re-exposes
        the caller-order mapping, exactly like one pipeline over the
        original trace.
        """
        if ordered.n == 0:
            # No packet of this app ran: its arbiter turn stands.
            return empty_trace_result()
        lane_ids = self.app_lanes(app_index)
        lane_results = [scored.get(s) or empty_trace_result() for s in lane_ids]
        merged = scatter_merge(ordered, parts, lane_results)
        # The globally-last packet fixes this app's merged arbiter turn.
        lane_pos = last_part(parts, lane_results, merged.order[-1])
        if lane_pos is not None:
            self._turn_lane[app_index] = lane_ids[lane_pos]
        return replace(merged, order=order)

    # ------------------------------------------------------------------
    # Merged observable state (verification: no cross-app leakage)
    # ------------------------------------------------------------------
    def app_state(self, name: str) -> dict:
        """One app's pipeline state merged across its lanes.

        Stats, registers, MAT counters, parser totals, and queue state
        aggregate exactly as a single pipeline would report them — the
        property tests compare this against the app running alone to
        prove no register/recurrent state leaks between apps.  Block
        counters are omitted: a lane's block is time-shared, so its
        packet/issue totals are a *fabric* observable, not a per-app one.
        """
        index = next(
            (a for a, app in enumerate(self.apps) if app.name == name), None
        )
        if index is None:
            raise KeyError(name)
        lanes = self._ensure_lanes()
        lane_ids = self.app_lanes(index)
        turn = lanes[self._turn_lane.get(index, lane_ids[0])].pipelines[index]
        state = merge_pipeline_state(
            [lanes[s].pipelines[index] for s in lane_ids], turn.arbiter._turn
        )
        state.pop("block_packets")
        state.pop("block_issue_cycles")
        return state
