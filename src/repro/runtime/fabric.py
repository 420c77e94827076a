"""Multi-app fabric: time-multiplex compiled programs over one grid.

Taurus positions the MapReduce block as a *shared* ML fabric inside the
switch: several compiled dataflow programs can serve traffic from one
grid, swapped between packets the way a CGRA swaps programs (not
bitstreams).  :class:`MultiAppFabric` is that deployment shape for trace
replay — the lane runtime (:class:`~repro.runtime.sharded.LaneRunner`)
constructed from apps, plus the round-robin interleave of
:meth:`MultiAppFabric.run`:

* each :class:`FabricApp` bundles a compiled program
  (:class:`~repro.mapreduce.ir.DataflowGraph`), its PHV feature layout,
  and its decision hooks;
* apps take turns in *chunks* on shared grid lanes — one chunk per app
  per pass, round-robin — with issue-clock accounting, so the modeled
  drain reflects both interleaving and the reconfiguration cost of each
  program swap (:meth:`~repro.hw.grid.MapReduceBlock.reconfigure` with
  ``account=True``); an app's back-to-back turns (once the others ran
  dry) are one pipeline call; running each app to completion instead is
  :meth:`MultiAppFabric.process_traces` with one request per app;
* with ``shards > 1`` lanes carry *heterogeneous* programs: lanes are
  assigned app affinities, each app's trace is partitioned
  flow-consistently across its affine lanes, and an app whose lanes are
  exclusively its own never pays a reconfiguration (the thrash-free
  configuration when ``shards >= len(apps)``).

**Why per-app results are bit/stat-identical to running each app alone.**
Every app owns its pipelines (parser, MATs, flow registers, queues) on
each of its lanes — only the grid is shared.  Chunks of one app execute
in arrival order per lane (the interleave keeps each app FIFO), the
graph interpreter carries no state between batches, and a packet's
latency is the design latency of *its* program (steering swaps the
program in before any ML work, and an un-stalled issue pays no wait).
Interleaving therefore changes only the shared issue clock — the modeled
drain — never an app's decisions, scores, latencies, or register state.
``tests/test_multi_app_fabric.py`` property-tests this at shards ∈
{1, 2, 4}.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Callable, Sequence

from ..datasets.packets import TraceColumns
from ..hw.grid import MapReduceBlock
from ..hw.params import CLOCK_GHZ
from ..mapreduce.ir import DataflowGraph
from ..pisa.pipeline import (
    DEFAULT_TRACE_CHUNK,
    TaurusPipeline,
    TracePipelineResult,
)
from .sharded import LaneRunner
from .sharded import scatter_merge  # noqa: F401 - the ledger's tracer patches it here by attribute

__all__ = ["FabricApp", "MultiAppFabric", "MultiAppResult"]


def _round_robin(queues: Sequence[list]) -> list:
    """The queues' items, one per queue per pass, skipping queues that
    ran dry: the issue order of one lane (each queue stays FIFO)."""
    return [
        queue[k]
        for k in range(max(map(len, queues), default=0))
        for queue in queues
        if k < len(queue)
    ]


@dataclass
class FabricApp:
    """One compiled application deployable on a shared grid.

    The program plus everything the switch needs to serve it: the PHV
    feature layout and decision hooks (scalar + vectorized twins, so both
    execution paths stay fast and identical).
    """

    name: str
    graph: DataflowGraph
    feature_names: tuple[str, ...]
    postprocess: Callable | None = None
    postprocess_batch: Callable | None = None

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("apps need a name")

    def build_pipeline(self, block: MapReduceBlock) -> TaurusPipeline:
        """An independent pipeline for this app around a (shared) block.

        The pipeline pins :attr:`graph` as its
        :attr:`~repro.pisa.TaurusPipeline.program`, so chunks steer the
        block back to this app's program whenever another app ran last.
        """
        return TaurusPipeline(
            block=block,
            feature_names=self.feature_names,
            postprocess=self.postprocess,
            postprocess_batch=self.postprocess_batch,
            program=self.graph,
        )

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
            postprocess=scalar_post,
            postprocess_batch=batch_post,
        )

    @classmethod
    def from_lstm(
        cls,
        lstm,
        window_steps: int = 8,
        name: str = "congestion",
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
            postprocess=action_scalar,
            postprocess_batch=action_batch,
        )

    @classmethod
    def from_kmeans(
        cls,
        kmeans,
        feature_names: tuple[str, ...] | None = None,
        name: str = "iot",
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


class MultiAppFabric(LaneRunner):
    """``N`` compiled apps time-multiplexed over shared grid lanes: the
    lane runtime with lanes from :meth:`FabricApp.build_pipeline`.

    With at least one lane per app, lane ``s`` is dedicated to app
    ``s % M`` — disjoint homes, zero reconfigurations.  With fewer lanes
    than apps, apps round-robin onto lanes (``a % N``) and each lane
    time-multiplexes its residents (:meth:`lane_apps` is that map).

    Parameters
    ----------
    apps:
        The :class:`FabricApp` programs to serve; at least one, names
        unique.
    shards:
        Grid lanes.  ``1`` is the paper's single shared block; more lanes
        give apps affine homes (``shards >= len(apps)`` eliminates
        reconfiguration thrash entirely while keeping one fabric).
    executor / chunk_size:
        As in :class:`~repro.runtime.ShardedRuntime`.
    pool:
        As in :class:`~repro.runtime.ShardedRuntime`: truthy forks one
        worker per lane now, serving every run until the fabric is
        closed (context manager or :meth:`close`); falsy runs in process.
    """

    def __init__(
        self,
        apps: Sequence[FabricApp] = (),
        shards: int = 1,
        executor: str = "auto",
        chunk_size: int = DEFAULT_TRACE_CHUNK,
        pool: bool | str = False,
    ):
        self.apps = list(apps)
        if not self.apps:
            raise ValueError("no apps registered")
        self._index = {app.name: a for a, app in enumerate(self.apps)}
        if len(self._index) != len(self.apps):
            raise ValueError(f"duplicate app name in {[app.name for app in self.apps]}")
        n_apps = len(self.apps)
        if shards >= n_apps:
            affinity = [[s % n_apps] for s in range(shards)]
        else:
            affinity = [
                [a for a in range(n_apps) if a % shards == s] for s in range(shards)
            ]
        lanes = []
        for ids in affinity:
            block = MapReduceBlock(self.apps[ids[0]].graph)
            lanes.append({a: self.apps[a].build_pipeline(block) for a in ids})
        super().__init__(lanes, executor, chunk_size, pool)

    # ------------------------------------------------------------------
    # Execution
    # ------------------------------------------------------------------
    def run(self, traces, chunk_size: int | None = None) -> MultiAppResult:
        """Every app's trace through the shared fabric, per-app merged.

        ``traces`` maps app name to trace (a
        :class:`~repro.datasets.packets.PacketTrace`,
        :class:`~repro.datasets.packets.TraceColumns`, or packet list) or
        is a sequence aligned with the registration order.  Returns one
        arrival-ordered :class:`TracePipelineResult` per app,
        bit/stat-identical to running that app alone on its own trace.
        """
        chunk = self._chunk(chunk_size)
        prepared = [
            self._prepare(a, trace)
            for a, trace in enumerate(self._resolve_traces(traces))
        ]

        # Per lane: each resident app's part as a FIFO queue of chunks,
        # issued round-robin.
        schedules: list[list[tuple[int, TraceColumns, int]]] = []
        for s, ids in enumerate(self.lane_apps()):
            queues = []
            for a in ids:
                __, sub = prepared[a][3][self.app_lanes(a).index(s)]
                queues.append([
                    (a, sub.slice(slice(start, min(start + chunk, sub.n))), a)
                    for start in range(0, sub.n, chunk)
                ])
            schedules.append(_round_robin(queues))

        blocks = self._blocks
        swaps = sum(block.reconfigurations for block in blocks)
        swap_cycles = sum(block.reconfig_cycles for block in blocks)
        merged = self._execute(prepared, schedules, chunk)
        return MultiAppResult(
            results={app.name: merged[a] for a, app in enumerate(self.apps)},
            drain_ns=self.last_drain_ns,
            reconfigurations=sum(b.reconfigurations for b in blocks) - swaps,
            reconfig_ns=(sum(b.reconfig_cycles for b in blocks) - swap_cycles)
            / CLOCK_GHZ,
            n_packets=sum(entry[1].n for entry in prepared),
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
        requests = list(requests)
        self._check_names(name for name, __ in requests)
        indexed = [(self._index[name], trace) for name, trace in requests]
        return self._process(indexed, chunk_size, on_result)

    def _check_names(self, names) -> None:
        unknown = sorted(set(names) - self._index.keys())
        if unknown:
            raise ValueError(
                f"requests for unknown apps {unknown}; registered: {list(self._index)}"
            )

    def _resolve_traces(self, traces) -> list:
        if isinstance(traces, dict):
            self._check_names(traces)
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
        state = self._state(self._index[name])
        state.pop("block_packets")
        state.pop("block_issue_cycles")
        return state
