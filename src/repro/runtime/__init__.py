"""Sharded, multi-app streaming runtime for trace-scale runs.

The scale-out layer above the batched pipeline is one lane runtime with
two constructors: flow-consistent sharding of one app across parallel
pipeline workers (:class:`ShardedRuntime`) and time-multiplexing of
several compiled apps over shared grid lanes (:class:`MultiAppFabric`,
whose apps take round-robin turns on a lane, one chunk at a time).
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
trace.  :class:`InferenceService` turns either runtime, in process or
pooled, into an always-on serving loop with explicit admission control,
per-client bounded queues that shed at their bound, token-bucket rate
limiting, and per-request time-to-decision accounting; it scores
whatever is queued as one such run and still delivers each request as
it completes.

``__all__`` holds only names with a customer outside the tests (the
census is ``tests/test_service_surface.py``); anything else is imported
from the module that defines it.
"""

from .fabric import FabricApp, MultiAppFabric, MultiAppResult
from .faults import FaultPlan
from .pool import PipelineShardWorker, ShardPool
from .service import (
    ACCEPTED,
    DEFERRED,
    SHED,
    Admission,
    ClientSpec,
    InferenceService,
    ServiceResult,
    ServiceStats,
    VirtualClock,
)
from .sharded import ShardedRuntime, merge_pipeline_state

__all__ = [
    "FabricApp",
    "MultiAppFabric",
    "MultiAppResult",
    "FaultPlan",
    "PipelineShardWorker",
    "ShardPool",
    "ACCEPTED",
    "DEFERRED",
    "SHED",
    "Admission",
    "ClientSpec",
    "InferenceService",
    "ServiceResult",
    "ServiceStats",
    "VirtualClock",
    "ShardedRuntime",
    "merge_pipeline_state",
]
