"""The Taurus data-plane path for end-to-end runs.

Every packet is inferred *in the pipeline* at line rate, so detection needs
no rule installation and no controller round trip.  One trace path,
:meth:`TaurusDataPlane.run_switch`, serves the testbed: the trace transits
a complete :class:`~repro.pisa.TaurusPipeline` (vectorized parser, flow
registers, MAT stages, bypass split, batched MapReduce scoring, decisions)
via :meth:`~repro.pisa.TaurusPipeline.process_trace_batch`, and detection
is scored from the pipeline's decisions.

The block runs the graph path — the same IR the fabric executes — lowered
with exact activations, so it is bit-identical to
:class:`~repro.fixpoint.quantize.QuantizedModel`;
:meth:`TaurusDataPlane.verify_equivalence` re-checks that over the **full
trace**.  ``TaurusDataPlane(..., shards=N)`` partitions the trace
flow-consistently across ``N`` in-process pipeline/block lanes, so results
stay bit-identical (see :class:`~repro.runtime.ShardedRuntime`).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..datasets import PacketTrace
from ..datasets.nslkdd import DNN_FEATURES
from ..fixpoint import QuantizedModel
from ..hw.grid import MapReduceBlock
from ..mapreduce import dnn_graph
from ..ml.metrics import detection_rate, f1_score
from ..pisa import (
    DECISION_FLAG,
    DEFAULT_TRACE_CHUNK,
    TaurusPipeline,
    threshold_postprocess,
)
from ..runtime import FabricApp, MultiAppFabric, MultiAppResult, ShardedRuntime

__all__ = ["DataPlaneResult", "TaurusDataPlane"]


@dataclass
class DataPlaneResult:
    """Per-packet scoring of a trace through the Taurus path."""

    detected_percent: float
    f1_percent: float
    added_latency_ns: float
    n_packets: int


class TaurusDataPlane:
    """The switch + MapReduce block as the testbed sees them.

    Parameters
    ----------
    quantized:
        The deployed (fix8) model, lowered once into :attr:`block`.
    shards:
        In-process pipeline/block lanes for :meth:`run_switch`, which
        partitions the trace by flow (register-slot-consistent,
        bit-identical results).  ``1`` keeps the single-pipeline path.
    """

    #: Decision threshold of the anomaly postprocess hook.
    threshold = 0.5

    def __init__(self, quantized: QuantizedModel, shards: int = 1):
        if shards <= 0:
            raise ValueError("shards must be positive")
        self.quantized = quantized
        self.shards = shards
        # Exact-activation lowering: bit-identical to the quantized model.
        # It has the hardware lowering's node kinds, chain ops and LUT
        # words, so its latency is the deployed design's too.
        self.block = MapReduceBlock(
            dnn_graph(quantized, name="anomaly_dnn", exact_activations=True)
        )
        # One block per lane, all running the one graph; lane 0 is `block`.
        self._lane_blocks = [self.block] + [
            MapReduceBlock(self.block.graph) for __ in range(1, shards)
        ]
        #: Modeled parallel-fabric drain time of the last ``run_switch``
        #: (slowest lane's II-limited block drain; the hardware-scaling
        #: twin of wall-clock throughput).
        self.last_modeled_drain_ns = 0.0

    def build_pipeline(self, block: MapReduceBlock) -> TaurusPipeline:
        """A complete PISA pipeline around ``block`` (one per lane).

        Postprocess thresholds the fabric score at this data plane's
        ``threshold`` (scalar hook + vectorized twin, so both execution
        paths stay fast and identical).
        """
        scalar_post, batch_post = threshold_postprocess(self.threshold)
        return TaurusPipeline(
            block=block,
            feature_names=DNN_FEATURES,
            postprocess=scalar_post,
            postprocess_batch=batch_post,
        )

    def run_switch(self, trace: PacketTrace) -> DataPlaneResult:
        """The trace through the *entire* switch model, batched.

        Every packet transits parse -> flow registers -> preprocessing ->
        MapReduce -> postprocessing, and detection is scored from the
        pipeline's *decisions*.  Fresh pipelines are built per call so
        repeated runs see identical register state.  With ``shards > 1``
        the trace is partitioned flow-consistently across the lanes and
        merged bit-identically (the modeled parallel drain of the run
        lands in :attr:`last_modeled_drain_ns`).
        """
        runtime = ShardedRuntime(
            lambda shard: self.build_pipeline(self._lane_blocks[shard]),
            shards=self.shards,
        )
        outcome = runtime.process_trace(trace)
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
        return DataPlaneResult(
            detected_percent=100.0 * detection_rate(labels, preds),
            f1_percent=100.0 * f1_score(labels, preds),
            added_latency_ns=self.block.latency_ns,
            n_packets=len(preds),
        )

    # ------------------------------------------------------------------
    # Multi-app fabric
    # ------------------------------------------------------------------
    def anomaly_app(self) -> FabricApp:
        """This data plane's anomaly detector as a registrable fabric app,
        named ``"anomaly"``."""
        return FabricApp.from_quantized_dnn(
            self.quantized, name="anomaly", threshold=self.threshold
        )

    def run_multi(self, apps, traces) -> MultiAppResult:
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
        fabric = MultiAppFabric(apps, shards=self.shards)
        outcome = fabric.run(traces)
        self.last_modeled_drain_ns = outcome.drain_ns
        return outcome

    def verify_equivalence(self, trace: PacketTrace) -> bool:
        """Check fabric execution matches the quantized model bit-for-bit.

        The **entire trace** streams through :attr:`block`'s graph in
        ``DEFAULT_TRACE_CHUNK``-row chunks and is compared against the
        quantized model.  Values only:
        the graph interpreter, not ``MapReduceBlock.run_batch``, whose
        timing accounting would advance the block's issue clock for what
        is a read-only pass.
        """
        feats = trace.columns().features
        graph = self.block.graph
        via_graph = np.empty(len(feats), dtype=np.float64)
        for start in range(0, len(feats), DEFAULT_TRACE_CHUNK):
            chunk = feats[start : start + DEFAULT_TRACE_CHUNK]
            via_graph[start : start + len(chunk)] = graph.execute_batch(chunk)[:, 0]
        via_model = self.quantized(feats).reshape(-1)
        return bool(np.array_equal(via_graph, via_model))
