"""The Taurus data-plane path for end-to-end runs.

Every packet is inferred *in the pipeline* at line rate, so detection needs
no rule installation and no controller round trip.  Multi-hundred-thousand-
packet traces stream through the dataflow graph's batched interpreter
(:meth:`DataflowGraph.execute_batch`) in configurable chunks: scoring runs
on the *graph path* — the same IR the fabric executes — not a shortcut
through the quantized model.  The exact-activation lowering makes the graph
bit-identical to :class:`~repro.fixpoint.quantize.QuantizedModel`, and
:meth:`TaurusDataPlane.verify_equivalence` now re-checks that over the
**full trace** per run (the old behaviour was a 32-sample spot check).

Two trace-scale entry points:

* :meth:`TaurusDataPlane.run` — the scoring shortcut: features go straight
  from the trace's cached columns into the graph interpreter.
* :meth:`TaurusDataPlane.run_switch` — the full switch model: the trace
  transits a complete :class:`~repro.pisa.TaurusPipeline` (vectorized
  parser, flow registers, MAT stages, bypass split, batched MapReduce
  scoring, decisions) via
  :meth:`~repro.pisa.TaurusPipeline.process_trace_batch`.

Both scale out: ``TaurusDataPlane(..., shards=N)`` partitions the trace
across ``N`` parallel pipeline/block workers (flow-consistent for the
switch path, so results stay bit-identical — see
:class:`~repro.runtime.ShardedRuntime`), in process or on forked workers.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets import PacketTrace
from ..datasets.nslkdd import DNN_FEATURES
from ..fixpoint import QuantizedModel
from ..hw.grid import MapReduceBlock
from ..mapreduce import dnn_graph
from ..pisa import DECISION_FLAG, TaurusPipeline, threshold_postprocess
from ..runtime import FabricApp, MultiAppFabric, MultiAppResult, ShardedRuntime
from ..runtime.executors import selects_fork

__all__ = ["DataPlaneResult", "TaurusDataPlane", "DEFAULT_CHUNK_SIZE"]

#: Packets per batched pass through the graph interpreter.  Large enough to
#: amortize per-node dispatch, small enough to keep intermediate arrays in
#: cache-friendly territory.
DEFAULT_CHUNK_SIZE = 8192


@dataclass
class DataPlaneResult:
    """Per-packet scoring of a trace through the Taurus path."""

    detected_percent: float
    f1_percent: float
    added_latency_ns: float
    n_packets: int
    flagged_packets: int


def _detection_result(
    preds: np.ndarray, labels: np.ndarray, added_latency_ns: float
) -> DataPlaneResult:
    """Detection / F1 accounting shared by the scoring and switch paths."""
    tp = int(np.sum((preds == 1) & (labels == 1)))
    fp = int(np.sum((preds == 1) & (labels == 0)))
    fn = int(np.sum((preds == 0) & (labels == 1)))
    precision = tp / max(tp + fp, 1)
    recall = tp / max(tp + fn, 1)
    f1 = (
        100.0 * 2 * precision * recall / (precision + recall)
        if precision + recall > 0
        else 0.0
    )
    return DataPlaneResult(
        detected_percent=100.0 * tp / max(tp + fn, 1),
        f1_percent=f1,
        added_latency_ns=added_latency_ns,
        n_packets=len(preds),
        flagged_packets=int(preds.sum()),
    )


class TaurusDataPlane:
    """The switch + MapReduce block as the testbed sees them.

    Parameters
    ----------
    quantized:
        The deployed (fix8) model; both graph lowerings derive from it.
    threshold:
        Decision threshold for the anomaly postprocess hook.
    shards:
        Parallel workers for trace-scale runs.  ``run_switch`` partitions
        by flow (register-slot-consistent, bit-identical results); on
        forked workers ``run``/``verify_equivalence`` split the
        stateless scoring pass into contiguous row blocks.  ``1`` keeps
        the single-pipeline path untouched.
    executor:
        Where chunks are scored: ``auto`` | ``serial`` (in process) |
        ``fork`` (forked workers).
    pool:
        Keep the fork workers **warm across calls**
        (:class:`~repro.runtime.ShardPool`).  ``run``, ``run_switch``,
        ``run_multi``, and ``verify_equivalence`` then reuse long-lived
        workers instead of forking and reaping per call; a per-run
        rewind keeps every result bit/stat-identical to run-scoped
        workers.  Use the data plane as a context manager (or call
        :meth:`close`) to shut pools down deterministically.
    pool_options:
        Extra keyword arguments forwarded to every
        :class:`~repro.runtime.ShardPool` this data plane builds
        (``hang_timeout``, ``max_chunk_retries``, ``faults``, ...).
        Requires ``pool=True`` or ``executor="fork"``.
    """

    def __init__(
        self,
        quantized: QuantizedModel,
        threshold: float = 0.5,
        shards: int = 1,
        executor: str = "auto",
        pool: bool = False,
        pool_options: dict | None = None,
    ):
        if shards <= 0:
            raise ValueError("shards must be positive")
        self._forked = selects_fork(executor, pool, pool_options, shards)
        self.quantized = quantized
        self.threshold = threshold
        self.shards = shards
        self.executor = executor
        self.pool = bool(pool)
        self.pool_options = pool_options
        self._pool_runtime: ShardedRuntime | None = None
        self._pool_fabrics: dict[tuple, MultiAppFabric] = {}
        self.block = MapReduceBlock(dnn_graph(quantized, name="anomaly_dnn"))
        # Exact-activation lowering: bit-identical to the quantized model,
        # used for trace-scale scoring and the equivalence check.
        self.exact_block = MapReduceBlock(
            dnn_graph(quantized, name="anomaly_dnn_exact", exact_activations=True)
        )
        self._shard_blocks: list[MapReduceBlock] | None = None
        #: Modeled parallel-fabric drain time of the last ``run_switch``
        #: (slowest shard's II-limited block drain; the hardware-scaling
        #: twin of wall-clock throughput).
        self.last_modeled_drain_ns = 0.0
        #: The :class:`~repro.runtime.MultiAppFabric` behind the last
        #: :meth:`run_multi` call (state inspection / repeated runs).
        self.last_fabric: MultiAppFabric | None = None

    def _exact_shard_blocks(self) -> list[MapReduceBlock]:
        """One exact-activation block per shard (compiled once, cached).

        Shard 0 reuses :attr:`exact_block`, so single-shard behaviour —
        including the block's issue clock — is unchanged from PR 2.
        """
        if self._shard_blocks is None:
            self._shard_blocks = [self.exact_block] + [
                MapReduceBlock(
                    dnn_graph(
                        self.quantized,
                        name=f"anomaly_dnn_exact_shard{i}",
                        exact_activations=True,
                    )
                )
                for i in range(1, self.shards)
            ]
        return self._shard_blocks

    # ------------------------------------------------------------------
    # Persistent pool plumbing
    # ------------------------------------------------------------------
    def _pooled_runtime(self) -> ShardedRuntime:
        """The warm sharded runtime behind ``pool=True`` (built once).

        The pristine post-build pipeline state is marked inside every
        worker at spawn and rewound before each run, so warm-pool runs
        keep :meth:`run_switch`'s fresh-pipelines-per-call semantics
        without shipping register files down the pipes.
        """
        if self._pool_runtime is None:
            blocks = self._exact_shard_blocks()
            self._pool_runtime = ShardedRuntime(
                lambda shard: self.build_pipeline(block=blocks[shard]),
                shards=self.shards,
                executor=self.executor,
                pool=True,
                pool_options=self.pool_options,
            )
        return self._pool_runtime

    @property
    def pool_health(self):
        """Crash/recovery counters of the warm pools (``None`` until built).

        Returns the :class:`~repro.runtime.PoolHealth` of the sharded
        runtime behind ``run``/``run_switch``/``verify_equivalence``.
        Fabric pools built by :meth:`run_multi` report their own health
        via ``last_fabric.pool_health``.
        """
        if self._pool_runtime is None:
            return None
        return self._pool_runtime.pool_health

    def close(self) -> None:
        """Shut down every persistent pool this data plane spawned."""
        if self._pool_runtime is not None:
            self._pool_runtime.close()
            self._pool_runtime = None
        for fabric in self._pool_fabrics.values():
            fabric.close()
        self._pool_fabrics.clear()

    def __enter__(self) -> "TaurusDataPlane":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _stream_scores(
        self, feats: np.ndarray, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> np.ndarray:
        """Score features through the batched graph path, in chunks.

        Scoring is stateless per row and read-only, so the fork backend
        splits the matrix into contiguous row blocks — one per worker —
        and streams each block chunk-by-chunk; results concatenate back
        in order, bit-identical to the in-process pass.
        """
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self._forked and len(feats) > chunk_size:
            return self._stream_scores_forked(feats, chunk_size)
        # Values only: go straight to the graph interpreter rather than
        # MapReduceBlock.run_batch, whose timing accounting would advance
        # the block's issue clock for what is a read-only scoring pass.
        graph = self.exact_block.graph
        scores = np.empty(len(feats), dtype=np.float64)
        for start in range(0, len(feats), chunk_size):
            chunk = feats[start : start + chunk_size]
            scores[start : start + len(chunk)] = graph.execute_batch(chunk)[:, 0]
        return scores

    def _stream_scores_forked(
        self, feats: np.ndarray, chunk_size: int
    ) -> np.ndarray:
        """The scoring pass on forked workers, chunk-pipelined.

        Each worker's row block ships as a stream of ``score`` requests:
        chunk ``k+1`` crosses the pipe while the worker's graph
        interpreter runs chunk ``k``.
        """
        runtime = self._pooled_runtime() if self.pool else self.build_runtime()
        bounds = np.linspace(
            0, len(feats), num=runtime.shards + 1, dtype=np.int64
        )

        def score_requests(lo: int, hi: int):
            for start in range(lo, hi, chunk_size):
                yield ("score", (0, feats[start : min(start + chunk_size, hi)]))

        streams = []
        for lo, hi in zip(bounds[:-1], bounds[1:]):
            lo, hi = int(lo), int(hi)
            n_chunks = -(-(hi - lo) // chunk_size) if hi > lo else 0
            streams.append((score_requests(lo, hi), n_chunks))
        with runtime.workers() as workers:
            responses = workers.map_streams(streams)
        return np.concatenate(
            [scores for parts in responses for __, scores in parts]
        )

    def run(
        self, trace: PacketTrace, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> DataPlaneResult:
        """Score every packet through the graph path, streamed in chunks."""
        columns = trace.columns()
        scores = self._stream_scores(columns.features, chunk_size)
        preds = (scores >= self.threshold).astype(np.int64)
        return _detection_result(preds, columns.labels, self.block.latency_ns)

    # ------------------------------------------------------------------
    # Full switch model
    # ------------------------------------------------------------------
    def build_pipeline(
        self,
        feature_names: tuple[str, ...] = DNN_FEATURES,
        block: MapReduceBlock | None = None,
    ) -> TaurusPipeline:
        """A complete PISA pipeline around the exact-activation block.

        Postprocess thresholds the fabric score at this data plane's
        ``threshold`` (scalar hook + vectorized twin, so both execution
        paths stay fast and identical).  ``block`` overrides the default
        :attr:`exact_block` (the sharded runtime hands each worker its
        own block).
        """
        scalar_post, batch_post = threshold_postprocess(self.threshold)
        return TaurusPipeline(
            block=self.exact_block if block is None else block,
            feature_names=feature_names,
            postprocess=scalar_post,
            postprocess_batch=batch_post,
        )

    def build_runtime(
        self, feature_names: tuple[str, ...] = DNN_FEATURES
    ) -> ShardedRuntime:
        """A sharded runtime over fresh pipelines (one per shard block)."""
        blocks = self._exact_shard_blocks()
        return ShardedRuntime(
            lambda shard: self.build_pipeline(feature_names, block=blocks[shard]),
            shards=self.shards,
            executor=self.executor,
            pool_options=None if self.pool else self.pool_options,
        )

    def run_switch(
        self, trace: PacketTrace, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> DataPlaneResult:
        """The trace through the *entire* switch model, batched.

        Unlike :meth:`run` (which shortcuts features into the graph
        interpreter), every packet transits parse -> flow registers ->
        preprocessing -> MapReduce -> postprocessing, and detection is
        scored from the pipeline's *decisions*.  Fresh pipelines are built
        per call so repeated runs see identical register state.  With
        ``shards > 1`` the trace is partitioned flow-consistently across
        the shard workers and merged bit-identically (the modeled
        parallel drain of the run lands in
        :attr:`last_modeled_drain_ns`).  With ``pool=True`` the warm
        workers serve the run instead: they are rewound to the pristine
        baseline first, so repeated calls still see identical register
        state — without paying a fork-and-reap per call.
        """
        if self.pool:
            runtime = self._pooled_runtime()
            runtime.rewind_state()
        else:
            runtime = self.build_runtime()
        outcome = runtime.process_trace(trace, chunk_size=chunk_size)
        self.last_modeled_drain_ns = runtime.last_drain_ns
        return self.detection_from_outcome(trace, outcome)

    def detection_from_outcome(self, trace, outcome) -> DataPlaneResult:
        """Score a pipeline outcome's FLAG decisions against ground truth.

        The shared decisions-to-detection conversion for every surface
        that replays a labeled trace through the switch model
        (:meth:`run_switch`, the multi-app scenario, ...).
        """
        labels = trace.columns().labels[outcome.order]
        preds = (outcome.decisions == DECISION_FLAG).astype(np.int64)
        return _detection_result(preds, labels, self.block.latency_ns)

    # ------------------------------------------------------------------
    # Multi-app fabric
    # ------------------------------------------------------------------
    def anomaly_app(self, name: str = "anomaly", weight: float = 1.0) -> FabricApp:
        """This data plane's anomaly detector as a registrable fabric app."""
        return FabricApp.from_quantized_dnn(
            self.quantized, name=name, threshold=self.threshold, weight=weight
        )

    def run_multi(
        self,
        apps,
        traces,
        policy: str = "round_robin",
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> MultiAppResult:
        """Several compiled apps time-multiplexed over this switch's grid.

        ``apps`` is a sequence of :class:`~repro.runtime.FabricApp` and
        ``traces`` maps app name to its trace (or is a sequence aligned
        with ``apps``).  The fabric inherits this data plane's ``shards``
        and ``executor``: with one shard, every app shares one grid and
        pays a modeled reconfiguration per program switch; with
        ``shards >= len(apps)``, each app gets affine lanes and the apps
        drain concurrently.  Per-app merged results are bit/stat-identical
        to running each app alone on its own trace slice; the modeled
        drain (including reconfiguration + interleave costs) lands in
        :attr:`last_modeled_drain_ns`.  With ``pool=True`` the fabric
        (lanes, compiled programs, *and* its lane workers) is cached per
        app set and reset to pristine state per call, so repeated
        multi-app runs skip both recompilation and per-run forking.
        """
        if self.pool:
            # Cache per app-name set so a serving loop that rebuilds its
            # FabricApp objects each call cannot accumulate one worker
            # pool per call; a name set served by *different* app objects
            # evicts (and closes) the stale fabric rather than silently
            # reusing the old programs.
            key = tuple(app.name for app in apps)
            fabric = self._pool_fabrics.get(key)
            if fabric is not None and any(
                cached is not app for cached, app in zip(fabric.apps, apps)
            ):
                fabric.close()
                fabric = None
            if fabric is None:
                fabric = MultiAppFabric(
                    apps,
                    shards=self.shards,
                    executor=self.executor,
                    chunk_size=chunk_size,
                    policy=policy,
                    pool=True,
                    pool_options=self.pool_options,
                )
                self._pool_fabrics[key] = fabric
            else:
                fabric.reset_state()
            outcome = fabric.run(traces, policy=policy, chunk_size=chunk_size)
        else:
            fabric = MultiAppFabric(
                apps,
                shards=self.shards,
                executor=self.executor,
                chunk_size=chunk_size,
                policy=policy,
                pool_options=self.pool_options,
            )
            outcome = fabric.run(traces)
        self.last_modeled_drain_ns = outcome.drain_ns
        self.last_fabric = fabric
        return outcome

    def verify_equivalence(
        self,
        trace: PacketTrace,
        n_samples: int | None = None,
        chunk_size: int = DEFAULT_CHUNK_SIZE,
    ) -> bool:
        """Check fabric execution matches the vectorized path bit-for-bit.

        Uses the graph with exact activations (the quantized model's own),
        as the fast path does.  By default the **entire trace** streams
        through the batched graph interpreter and is compared against the
        quantized model; pass ``n_samples`` to restrict the check to an
        evenly spaced subsample (the legacy spot-check).
        """
        feats = trace.columns().features
        if n_samples is not None:
            step = max(1, len(feats) // n_samples)
            feats = feats[::step][:n_samples]
        via_graph = self._stream_scores(feats, chunk_size)
        via_model = self.quantized(feats).reshape(-1)
        return bool(np.array_equal(via_graph, via_model))
