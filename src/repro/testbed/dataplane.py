"""The Taurus data-plane path for end-to-end runs.

Every packet is inferred *in the pipeline* at line rate, so detection needs
no rule installation and no controller round trip.  Multi-hundred-thousand-
packet traces stream through the dataflow graph's batched interpreter
(:meth:`DataflowGraph.execute_batch`) in configurable chunks: scoring runs
on the *graph path* — the same IR the fabric executes — not a shortcut
through the quantized model.  The exact-activation lowering makes the graph
bit-identical to :class:`~repro.fixpoint.quantize.QuantizedModel`, and
:meth:`TaurusDataPlane.verify_equivalence` re-checks that over the
**full trace**.

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
:class:`~repro.runtime.ShardedRuntime`), in process or, with
``pool=True``, on workers forked at construction and reaped by ``close()``.
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
    shards:
        Parallel workers for trace-scale runs.  ``run_switch`` partitions
        by flow (register-slot-consistent, bit-identical results); on
        the warm pool ``run``/``verify_equivalence`` split the stateless
        scoring pass into contiguous row blocks.  ``1`` keeps the
        single-pipeline path untouched.
    executor:
        ``auto`` | ``serial`` | ``fork``, checked against ``pool`` as in
        :class:`~repro.runtime.ShardedRuntime`.
    pool:
        Fork one warm :class:`~repro.runtime.ShardedRuntime` pool now;
        ``run``, ``run_switch`` and ``verify_equivalence`` then score on
        its workers, rewound per run so every result is bit/stat-identical
        to the in-process path.  Use the data plane as a context manager
        (or call :meth:`close`) to reap them; a call after that raises
        the pool's "closed" error.  ``run_multi`` runs in process either
        way (warm multi-app lanes are ``MultiAppFabric(pool=True)``).
    pool_options:
        Extra keyword arguments for that pool's
        :class:`~repro.runtime.ShardPool` (``hang_timeout``,
        ``max_chunk_retries``, ``faults``, ...).  Requires ``pool``.
    """

    #: Decision threshold of the anomaly postprocess hook.
    threshold = 0.5

    def __init__(
        self,
        quantized: QuantizedModel,
        shards: int = 1,
        executor: str = "auto",
        pool: bool = False,
        pool_options: dict | None = None,
    ):
        if shards <= 0:
            raise ValueError("shards must be positive")
        forked = selects_fork(executor, pool, pool_options)
        self.quantized = quantized
        self.shards = shards
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
        #: The warm runtime behind ``pool=True`` (``None`` without one).
        #: The pristine post-build state is marked in every worker at
        #: spawn, so a per-run rewind gives fresh-pipeline semantics
        #: without shipping register files down the pipes.
        self._runtime: ShardedRuntime | None = None
        if forked:
            blocks = self._exact_shard_blocks()
            self._runtime = ShardedRuntime(
                lambda shard: self.build_pipeline(block=blocks[shard]),
                shards=shards,
                executor=executor,
                pool=pool,
                pool_options=pool_options,
            )

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

    @property
    def pool_health(self):
        """The warm pool's :class:`~repro.runtime.health.PoolHealth` (``None``
        without ``pool``); a ``run_multi`` fabric has none."""
        return None if self._runtime is None else self._runtime.pool_health

    def close(self) -> None:
        """Reap the warm pool's workers (no-op without one)."""
        if self._runtime is not None:
            self._runtime.close()

    def __enter__(self) -> "TaurusDataPlane":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def _stream_scores(
        self, feats: np.ndarray, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> np.ndarray:
        """Score features through the batched graph path, in chunks.

        Scoring is stateless per row and read-only, so the warm pool
        splits the matrix into contiguous row blocks — one per worker —
        and streams each block chunk-by-chunk (chunk ``k+1`` crosses the
        pipe while the worker scores ``k``); results concatenate back in
        order, bit-identical to the in-process pass.
        """
        if chunk_size <= 0:
            raise ValueError("chunk_size must be positive")
        if self._runtime is not None and len(feats) > chunk_size:
            bounds = np.linspace(0, len(feats), num=self.shards + 1, dtype=np.int64)

            def score_requests(lo: int, hi: int):
                for start in range(lo, hi, chunk_size):
                    yield ("score", (0, feats[start : min(start + chunk_size, hi)]))

            streams = [
                (score_requests(int(lo), int(hi)), -(-int(hi - lo) // chunk_size))
                for lo, hi in zip(bounds[:-1], bounds[1:])
            ]
            responses = self._runtime.pool.map_streams(streams)
            return np.concatenate(
                [scores for parts in responses for __, scores in parts]
            )
        # Values only: go straight to the graph interpreter rather than
        # MapReduceBlock.run_batch, whose timing accounting would advance
        # the block's issue clock for what is a read-only scoring pass.
        graph = self.exact_block.graph
        scores = np.empty(len(feats), dtype=np.float64)
        for start in range(0, len(feats), chunk_size):
            chunk = feats[start : start + chunk_size]
            scores[start : start + len(chunk)] = graph.execute_batch(chunk)[:, 0]
        return scores

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
        """An in-process sharded runtime over fresh pipelines (one per
        shard block)."""
        blocks = self._exact_shard_blocks()
        return ShardedRuntime(
            lambda shard: self.build_pipeline(feature_names, block=blocks[shard]),
            shards=self.shards,
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
        state.
        """
        runtime = self._runtime
        if runtime is None:
            runtime = self.build_runtime()
        else:
            runtime.rewind_state()
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
    def anomaly_app(self, name: str = "anomaly") -> FabricApp:
        """This data plane's anomaly detector as a registrable fabric app."""
        return FabricApp.from_quantized_dnn(
            self.quantized, name=name, threshold=self.threshold
        )

    def run_multi(
        self, apps, traces, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> MultiAppResult:
        """Several compiled apps time-multiplexed over this switch's grid.

        ``apps`` is a sequence of :class:`~repro.runtime.FabricApp` and
        ``traces`` maps app name to its trace (or is a sequence aligned
        with ``apps``).  Each call builds one in-process fabric over this
        data plane's ``shards``: with one shard, the apps take round-robin
        turns on one grid, chunk by chunk, paying a modeled
        reconfiguration per program switch; with ``shards >= len(apps)``,
        each app gets affine lanes and the apps drain concurrently.  Per-app merged results are bit/stat-identical
        to running each app alone on its own trace slice; the modeled
        drain (including reconfiguration + interleave costs) lands in
        :attr:`last_modeled_drain_ns`.
        """
        fabric = MultiAppFabric(apps, shards=self.shards, chunk_size=chunk_size)
        outcome = fabric.run(traces)
        self.last_modeled_drain_ns = outcome.drain_ns
        return outcome

    def verify_equivalence(
        self, trace: PacketTrace, chunk_size: int = DEFAULT_CHUNK_SIZE
    ) -> bool:
        """Check fabric execution matches the vectorized path bit-for-bit.

        Uses the graph with exact activations (the quantized model's own),
        as the fast path does: the **entire trace** streams through the
        batched graph interpreter and is compared against the quantized
        model.
        """
        feats = trace.columns().features
        via_graph = self._stream_scores(feats, chunk_size)
        via_model = self.quantized(feats).reshape(-1)
        return bool(np.array_equal(via_graph, via_model))
