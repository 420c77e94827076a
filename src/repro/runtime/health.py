"""Pool health accounting and the typed errors the recovery path raises.

Crash-transparent recovery means the caller's *results* never show a
failure — so the failure has to show up somewhere else.  That somewhere
is :class:`PoolHealth`: per-worker counters for crashes, hangs, restarts,
replayed chunks, and chunks the parent had to score in-process after the
worker could not be kept alive.  ``ShardedRuntime``, ``MultiAppFabric``,
and ``TaurusDataPlane`` surface the pool's health object so callers (and
tests) can assert that a run survived *and* see what it survived.

Two typed errors replace the old stringly aggregated ``RuntimeError``:

:class:`PoolError`
    Raised when a pooled run genuinely fails.  Carries the per-worker
    exception list (``worker_errors``) so callers can inspect which shard
    failed and why instead of parsing a semicolon-joined message.
:class:`PoisonChunk`
    Raised when one specific chunk kills every worker that touches it
    ``max_chunk_retries`` times over — the one failure recovery must not
    paper over, because retrying it forever would livelock the run.
"""

from __future__ import annotations

from dataclasses import dataclass, field

__all__ = ["PoolError", "PoisonChunk", "PoolHealth", "WorkerHealth"]


class PoolError(RuntimeError):
    """A pooled run failed; per-worker causes are in ``worker_errors``."""

    def __init__(self, message: str, worker_errors: dict[int, Exception] | None = None):
        super().__init__(message)
        self.worker_errors: dict[int, Exception] = dict(worker_errors or {})


class PoisonChunk(PoolError):
    """One chunk repeatedly killed its worker; recovery refuses to loop."""

    def __init__(self, worker_index: int, ordinal: int, crashes: int):
        self.worker_index = int(worker_index)
        self.ordinal = int(ordinal)
        self.crashes = int(crashes)
        super().__init__(
            f"chunk {self.ordinal} killed worker {self.worker_index} "
            f"{self.crashes} times; refusing further replay"
        )


@dataclass
class WorkerHealth:
    """Failure counters for one pool slot (stable across restarts)."""

    index: int
    crashes: int = 0        # worker died (EOF / torn frame / nonzero exit)
    hangs: int = 0          # watchdog SIGKILLed a stuck worker
    restarts: int = 0       # replacement workers forked mid-run or post-run
    replayed_chunks: int = 0   # chunks re-sent to a replacement worker
    degraded_chunks: int = 0   # chunks the parent scored in-process
    last_error: str = ""

    @property
    def healthy(self) -> bool:
        return self.crashes == 0 and self.hangs == 0 and self.degraded_chunks == 0


@dataclass
class PoolHealth:
    """Aggregated failure counters for a :class:`ShardPool`.

    One :class:`WorkerHealth` per slot; counters accumulate for the pool's
    whole life.  ``degraded`` means at least one chunk was scored
    in the parent because a slot could not be kept alive — results are
    still exact, but that shard ran without parallelism.
    """

    workers: list[WorkerHealth] = field(default_factory=list)

    @classmethod
    def for_pool(cls, size: int) -> "PoolHealth":
        return cls(workers=[WorkerHealth(index=i) for i in range(size)])

    def worker(self, index: int) -> WorkerHealth:
        return self.workers[index]

    @property
    def crashes(self) -> int:
        return sum(w.crashes for w in self.workers)

    @property
    def hangs(self) -> int:
        return sum(w.hangs for w in self.workers)

    @property
    def restarts(self) -> int:
        return sum(w.restarts for w in self.workers)

    @property
    def replayed_chunks(self) -> int:
        return sum(w.replayed_chunks for w in self.workers)

    @property
    def degraded_chunks(self) -> int:
        return sum(w.degraded_chunks for w in self.workers)

    @property
    def degraded(self) -> bool:
        return self.degraded_chunks > 0

    @property
    def healthy(self) -> bool:
        return all(w.healthy for w in self.workers)

    def snapshot(self) -> "PoolHealth":
        """Deep copy of the current counters.

        :meth:`InferenceService.stats` hands this copy back, so a caller
        holding a :class:`ServiceStats` never sees the live pool's
        supervisors move its numbers.
        """
        return PoolHealth(
            workers=[
                WorkerHealth(
                    index=w.index,
                    crashes=w.crashes,
                    hangs=w.hangs,
                    restarts=w.restarts,
                    replayed_chunks=w.replayed_chunks,
                    degraded_chunks=w.degraded_chunks,
                    last_error=w.last_error,
                )
                for w in self.workers
            ]
        )

    def summary(self) -> str:
        return (
            f"crashes={self.crashes} hangs={self.hangs} restarts={self.restarts} "
            f"replayed={self.replayed_chunks} degraded={self.degraded_chunks}"
        )
