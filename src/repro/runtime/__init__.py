"""Sharded, multi-app streaming runtime for trace-scale runs.

The scale-out layer above the batched pipeline is one lane runtime with
two constructors: flow-consistent sharding of one app across parallel
pipeline workers (:class:`ShardedRuntime`) and time-multiplexing of
several compiled apps over shared grid lanes (:class:`MultiAppFabric`).
Lanes, programs and — with ``pool=`` — workers exist from construction.
Requests are scored on one of two backends — an in-process loop, or,
with ``pool=``, workers forked at construction and reaped by ``close()``
with pipelined chunk dispatch (:class:`ShardPool`: per worker, a run
starts one writer thread that sends and one supervisor that receives,
and joins both before it returns).
Fork runs are crash-transparent:
EOF detects a dead worker and a per-response deadline a hung one, replacements
replay unacknowledged chunks, and deterministic fault injection
(:class:`FaultPlan`) exercises those paths in tests.
Several traces can share one run (``process_traces`` on either
runtime): each lane queues trace ``k+1``'s part behind ``k``'s, so no
lane idles between traces and results stay bit-identical to one run per
trace.  :class:`InferenceService` turns the pool-backed runtimes into an
always-on serving loop with explicit admission control, per-client
bounded queues, token-bucket rate limiting, overload policies, and
per-request time-to-decision accounting; it scores whatever is queued
as one such run and still delivers each request as it completes.
"""

from .executors import EXECUTORS, ForkWorker, WorkerCrash
from .faults import FAULT_KINDS, FaultEvent, FaultPlan
from .health import PoisonChunk, PoolError, PoolHealth, WorkerHealth
from .fabric import (
    SCHEDULING_POLICIES,
    FabricApp,
    MultiAppFabric,
    MultiAppResult,
    schedule_chunks,
)
from .pool import LaneWorker, PipelineShardWorker, ShardPool
from .service import (
    ACCEPTED,
    DEFERRED,
    OVERLOAD_POLICIES,
    SHED,
    Admission,
    ClientSpec,
    InferenceService,
    ServiceResult,
    ServiceStats,
    VirtualClock,
)
from .sharded import (
    ShardedRuntime,
    as_trace_columns,
    concat_results,
    empty_trace_result,
    merge_pipeline_state,
    scatter_merge,
)

__all__ = [
    "EXECUTORS",
    "ForkWorker",
    "WorkerCrash",
    "FAULT_KINDS",
    "FaultEvent",
    "FaultPlan",
    "PoisonChunk",
    "PoolError",
    "PoolHealth",
    "WorkerHealth",
    "SCHEDULING_POLICIES",
    "FabricApp",
    "MultiAppFabric",
    "MultiAppResult",
    "schedule_chunks",
    "LaneWorker",
    "PipelineShardWorker",
    "ShardPool",
    "ACCEPTED",
    "DEFERRED",
    "SHED",
    "OVERLOAD_POLICIES",
    "Admission",
    "ClientSpec",
    "InferenceService",
    "ServiceResult",
    "ServiceStats",
    "VirtualClock",
    "ShardedRuntime",
    "as_trace_columns",
    "concat_results",
    "empty_trace_result",
    "merge_pipeline_state",
    "scatter_merge",
]
