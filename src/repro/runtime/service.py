"""Always-on inference serving over a lane runtime.

PR 5–7 built a substrate that can score traces fast and survive its own
workers dying; this module makes it *a service*.  The paper's end state is
a switch that scores every packet forever, so the missing robustness layer
is the one above the runtime: staying correct and bounded when **load**
misbehaves, not just when processes do.

:class:`InferenceService` wraps a single-app
:class:`~repro.runtime.sharded.ShardedRuntime` or a multi-tenant
:class:`~repro.runtime.fabric.MultiAppFabric` — scoring in process or on
its fork pool — behind the four-gate surface of a serving loop:

ingress
    :meth:`InferenceService.submit` — producers hand in packet chunks.
    Admission is **explicit**: every submit returns ``ACCEPTED``,
    ``DEFERRED`` (rate-limited; carries a retry-after), or ``SHED``
    (queue full or draining; dropped now) instead of ever blocking.
stream-results
    :meth:`InferenceService.take_results` — per-client bounded result
    buffers; every accepted request's fate (completed / expired /
    failed) eventually appears exactly once.
query-stats
    :meth:`InferenceService.stats` — cumulative counters, with a copy of
    the pool's :class:`PoolHealth` when there is a pool.
admin
    :meth:`InferenceService.start` / :meth:`InferenceService.drain` /
    :meth:`InferenceService.close` — lifecycle.  ``drain`` is the graceful
    bounded shutdown: stop admitting, finish in-flight work, flush
    results.

Boundedness discipline
----------------------
Every buffer in the service has a hard cap: per-client ingress queues
(``queue_depth``; a submit at the cap is shed), per-client result buffers
(``result_depth``, oldest dropped and counted), and the latency reservoir
(the last 4096 decisions).  Nothing in this module grows with offered
load.

Determinism contract
--------------------
Admission is a pure function of (clock, arrival order, queue occupancy),
so a seeded arrival schedule driven against a virtual ``clock=`` replays
to the exact same decisions.  Scoring order is recorded on each completed
result (``seq``), so an oracle runtime replaying the same chunks in
``seq`` order reproduces every accepted chunk's result bit for bit — even
when a :class:`~repro.runtime.faults.FaultPlan` is killing workers
underneath, because pool recovery is itself result-transparent.
"""

from __future__ import annotations

import threading
import time
from collections import deque
from dataclasses import dataclass, field
from typing import Callable

import numpy as np

from .health import PoolHealth
from .sharded import as_trace_columns

__all__ = [
    "ACCEPTED",
    "DEFERRED",
    "SHED",
    "Admission",
    "ClientSpec",
    "InferenceService",
    "ServiceResult",
    "ServiceStats",
    "VirtualClock",
]

ACCEPTED = "accepted"
DEFERRED = "deferred"
SHED = "shed"

#: Time-to-decision samples kept for the p50 / p99 in :meth:`stats`.
_LATENCY_SAMPLES = 4096


class VirtualClock:
    """A manually advanced clock for deterministic replay and tests."""

    def __init__(self, start: float = 0.0):
        self._now = float(start)

    def __call__(self) -> float:
        return self._now

    def advance(self, dt: float) -> float:
        if dt < 0:
            raise ValueError("time cannot move backwards")
        self._now += float(dt)
        return self._now

    def advance_to(self, t: float) -> float:
        if t < self._now:
            raise ValueError("time cannot move backwards")
        self._now = float(t)
        return self._now


@dataclass(frozen=True)
class Admission:
    """The ingress gate's explicit verdict on one submit."""

    status: str               # ACCEPTED | DEFERRED | SHED
    request_id: int
    client: str
    reason: str = ""          # "rate-limited" | "queue-full" | "draining" | ""
    retry_after_s: float = 0.0   # DEFERRED only: when the bucket refills

    @property
    def accepted(self) -> bool:
        return self.status == ACCEPTED


@dataclass
class ClientSpec:
    """One tenant's admission contract.

    ``rate``/``burst`` parameterize a token bucket in requests per second
    (``rate=None`` disables rate limiting).  ``app`` binds the client to a
    fabric app by name (required when the service wraps a
    ``MultiAppFabric``; ignored for a single-app runtime).
    """

    name: str
    app: str | None = None
    queue_depth: int = 8
    rate: float | None = None
    burst: float | None = None
    result_depth: int | None = None   # default: 4 * queue_depth

    def __post_init__(self) -> None:
        if not self.name:
            raise ValueError("clients need a name")
        if self.queue_depth <= 0:
            raise ValueError("queue_depth must be positive")
        if self.rate is not None and self.rate <= 0:
            raise ValueError("rate must be positive (or None)")
        if self.burst is not None and self.burst <= 0:
            raise ValueError("burst must be positive (or None)")
        if self.result_depth is not None and self.result_depth <= 0:
            raise ValueError("result_depth must be positive (or None)")


@dataclass(frozen=True)
class ServiceResult:
    """One accepted request's fate, delivered on the stream-results gate.

    ``status`` is ``"completed"`` (``result`` holds the per-chunk
    :class:`~repro.pisa.pipeline.TracePipelineResult`), ``"expired"``
    (deadline passed while queued; never scored), or ``"failed"`` (the
    runtime raised; ``error`` carries the message).  ``seq`` is the global
    scoring order — replaying completed chunks by ``seq`` through a fresh
    runtime reproduces ``result`` exactly.
    """

    request_id: int
    client: str
    status: str
    result: object = None
    seq: int = -1
    enqueued_at: float = 0.0
    decided_at: float = 0.0
    time_to_decision_s: float = 0.0
    n_packets: int = 0
    error: str = ""


_COUNTERS = (
    "submitted", "accepted", "deferred", "shed", "completed", "expired",
    "failed", "packets_in", "packets_out", "results_dropped",
)


@dataclass
class ServiceStats:
    """Counter snapshot from the query-stats gate.

    ``expired`` counts deadline violations (requests never scored).
    ``pool`` is a copy of the backing pool's :class:`PoolHealth` counters
    (``None`` when the runtime scores in process).
    """

    submitted: int = 0
    accepted: int = 0
    deferred: int = 0
    shed: int = 0
    completed: int = 0
    expired: int = 0
    failed: int = 0
    packets_in: int = 0
    packets_out: int = 0
    results_dropped: int = 0
    p50_decision_s: float = float("nan")
    p99_decision_s: float = float("nan")
    queue_depths: dict[str, int] = field(default_factory=dict)
    pool: PoolHealth | None = None

    def summary(self) -> str:
        lat = (
            f"p50={self.p50_decision_s * 1e3:.2f}ms "
            f"p99={self.p99_decision_s * 1e3:.2f}ms"
            if self.completed
            else "p50=? p99=?"
        )
        return (
            f"accepted={self.accepted} deferred={self.deferred} "
            f"shed={self.shed} completed={self.completed} "
            f"expired={self.expired} {lat}"
        )


@dataclass
class _Pending:
    request_id: int
    client: str
    app: str | None            # the client's fabric binding, read at submit
    columns: object            # TraceColumns
    enqueued_at: float
    deadline_at: float | None
    seq: int = -1              # scoring order, numbered at the pop


class _Bucket:
    """Token bucket; refilled lazily from the service clock."""

    def __init__(self, rate: float | None, burst: float | None, now: float):
        self.rate = rate
        self.burst = float(burst if burst is not None else max(1.0, rate or 1.0))
        self.tokens = self.burst
        self.stamp = now

    def admit(self, now: float) -> tuple[bool, float]:
        """(admitted, retry_after_s); consumes one token on admission."""
        if self.rate is None:
            return True, 0.0
        self.tokens = min(self.burst, self.tokens + (now - self.stamp) * self.rate)
        self.stamp = now
        if self.tokens >= 1.0:
            self.tokens -= 1.0
            return True, 0.0
        return False, (1.0 - self.tokens) / self.rate


class _ClientState:
    def __init__(self, spec: ClientSpec, now: float):
        self.spec = spec
        self.queue: deque[_Pending] = deque()           # bounded by admission
        depth = spec.result_depth or 4 * spec.queue_depth
        self.results: deque[ServiceResult] = deque(maxlen=depth)
        self.bucket = _Bucket(spec.rate, spec.burst, now)


class InferenceService:
    """The always-on serving loop over a lane runtime.

    ``backend`` is a ready :class:`ShardedRuntime` (single app: every
    client scores through the same switch program and shared flow state,
    in admission order) or a :class:`MultiAppFabric` (each client's
    :attr:`ClientSpec.app` names its program; states stay per-app), in
    process or on a fork pool.  The service only calls their
    ``process_traces`` and never rewinds — state accumulates across
    chunks exactly like a switch that never stops.

    There is one overload rule: a submit that finds its client's queue at
    ``queue_depth`` is shed.  Nothing admitted is ever scored partially.

    Two drive modes share all the logic:

    * **manual** — call :meth:`pump` yourself; with a :class:`VirtualClock`
      this is fully deterministic (the property tests and the oracle
      replay use it);
    * **threaded** — :meth:`start` spawns a dispatcher thread that pumps
      whenever work is queued (the benchmark and real producers use it).

    Admission takes only the service lock (never blocked by scoring), so
    the ingress gate keeps answering while the pool recovers a crashed
    worker mid-chunk; what it admits meanwhile is the next batch.
    """

    def __init__(
        self,
        backend,
        clients,
        *,
        chunk_size: int | None = None,
        clock: Callable[[], float] = time.monotonic,
        own_backend: bool = True,
    ):
        self.backend = backend
        self.chunk_size = chunk_size
        self.clock = clock
        self.own_backend = own_backend
        self._is_fabric = hasattr(backend, "apps")
        if self._is_fabric:
            names = {app.name for app in backend.apps}
            for spec in clients:
                if spec.app is None:
                    raise ValueError(f"client {spec.name!r} needs an app binding")
                if spec.app not in names:
                    raise ValueError(
                        f"client {spec.name!r} bound to unknown app {spec.app!r}"
                    )
        now = clock()
        self._clients: dict[str, _ClientState] = {}
        for spec in clients:
            if spec.name in self._clients:
                raise ValueError(f"duplicate client {spec.name!r}")
            self._clients[spec.name] = _ClientState(spec, now)
        if not self._clients:
            raise ValueError("at least one client is required")
        self._order = list(self._clients)   # round-robin dispatch order
        self._rr = 0
        self._lock = threading.Lock()
        self._work = threading.Condition(self._lock)
        self._dispatch_lock = threading.Lock()
        self._counts = dict.fromkeys(_COUNTERS, 0)
        self._latencies: deque[float] = deque(maxlen=_LATENCY_SAMPLES)
        self._next_id = 0
        self._seq = 0
        self._draining = False
        self._closed = False
        self._thread: threading.Thread | None = None

    # ------------------------------------------------------------------
    # Gate 1: ingress
    # ------------------------------------------------------------------
    def submit(self, client: str, trace, deadline_s: float | None = None) -> Admission:
        """Offer one packet chunk; returns the explicit admission verdict.

        Never blocks on queue space or scoring: the caller always gets an
        answer now, and backpressure is the answer (``DEFERRED`` with a
        retry-after when rate-limited, ``SHED`` when the queue bound or
        the drain gate says no).  A request still queued ``deadline_s``
        after this call is expired, not scored.
        """
        columns = as_trace_columns(trace)
        with self._lock:
            state = self._clients.get(client)
            if state is None:
                raise KeyError(f"unknown client {client!r}")
            now = self.clock()
            rid = self._next_id
            self._next_id += 1
            self._counts["submitted"] += 1
            if self._draining or self._closed:
                self._counts["shed"] += 1
                return Admission(SHED, rid, client, reason="draining")
            ok, retry_after = state.bucket.admit(now)
            if not ok:
                self._counts["deferred"] += 1
                return Admission(
                    DEFERRED, rid, client,
                    reason="rate-limited", retry_after_s=retry_after,
                )
            if len(state.queue) >= state.spec.queue_depth:
                self._counts["shed"] += 1
                return Admission(SHED, rid, client, reason="queue-full")
            state.queue.append(
                _Pending(
                    request_id=rid,
                    client=client,
                    app=state.spec.app,
                    columns=columns,
                    enqueued_at=now,
                    deadline_at=None if deadline_s is None else now + deadline_s,
                )
            )
            self._counts["accepted"] += 1
            self._counts["packets_in"] += columns.n
            self._work.notify_all()
            return Admission(ACCEPTED, rid, client)

    # ------------------------------------------------------------------
    # Dispatch (manual pump or the dispatcher thread)
    # ------------------------------------------------------------------
    def pump(self, max_requests: int | None = None) -> int:
        """Score up to ``max_requests`` queued requests; returns how many
        were decided (scored, expired, or failed).

        Everything queued right now is popped as one batch and scored as
        **one** backend run (``process_traces``), so lanes overlap
        consecutive requests and the pool's per-run costs are paid once
        per batch; each request is still delivered the moment it and its
        predecessors are decided, not at batch end.  Clients are served
        round-robin in registration order, so dispatch order — and
        therefore every completed result — is a deterministic function of
        the admission sequence.
        """
        decided = 0
        with self._dispatch_lock:
            while max_requests is None or decided < max_requests:
                popped, batch = self._pop_batch(
                    None if max_requests is None else max_requests - decided
                )
                if not popped:
                    break
                if batch:
                    self._decide(batch)
                decided += popped
        return decided

    def _pop_batch(self, limit: int | None) -> tuple[int, list[_Pending]]:
        """Pop what is queued (at most ``limit``), round-robin: ``(popped,
        the ones to score)``.  Deadlines are judged here — a request past
        its deadline is delivered ``expired`` and takes no ``seq``."""
        batch: list[_Pending] = []
        popped = 0
        with self._lock:
            now = self.clock()
            while limit is None or popped < limit:
                pending = self._pop_next()
                if pending is None:
                    break
                popped += 1
                if pending.deadline_at is not None and now > pending.deadline_at:
                    self._deliver(pending, "expired", now)
                    continue
                pending.seq = self._seq
                self._seq += 1
                batch.append(pending)
        return popped, batch

    def _pop_next(self) -> _Pending | None:
        for step in range(len(self._order)):
            state = self._clients[self._order[(self._rr + step) % len(self._order)]]
            if state.queue:
                self._rr = (self._rr + step + 1) % len(self._order)
                return state.queue.popleft()
        return None

    def _decide(self, batch: list[_Pending]) -> None:
        """One backend run for the whole batch (state carries over —
        always-on).  Whatever the backend raises, every request of the
        batch gets exactly one fate."""
        waiting = dict(enumerate(batch))  # batch index -> not yet delivered

        def completed(index: int, result) -> None:
            # On a pool this comes from its supervisor threads.
            with self._lock:
                self._deliver(waiting.pop(index), "completed", self.clock(), result)

        requests = [
            (pending.app, pending.columns) if self._is_fabric else pending.columns
            for pending in batch
        ]
        try:
            self.backend.process_traces(requests, self.chunk_size, completed)
        except Exception as exc:  # the dispatcher must outlive any backend failure
            error = f"{type(exc).__name__}: {exc}"
            with self._lock:
                now = self.clock()
                for pending in waiting.values():
                    self._deliver(pending, "failed", now, error=error)

    def _deliver(self, pending: _Pending, fate: str, now: float,
                 result=None, error: str = "") -> None:
        """Record one request's fate — counter, latency sample, result
        buffer.  The caller holds ``_lock``."""
        self._counts[fate] += 1
        ttd = now - pending.enqueued_at
        if fate == "completed":
            self._counts["packets_out"] += pending.columns.n
            self._latencies.append(ttd)
        results = self._clients[pending.client].results
        # deque(maxlen=) drops the head silently; count it first.
        if len(results) == results.maxlen:
            self._counts["results_dropped"] += 1
        results.append(
            ServiceResult(
                request_id=pending.request_id,
                client=pending.client,
                status=fate,
                result=result,
                seq=pending.seq,
                enqueued_at=pending.enqueued_at,
                decided_at=now,
                time_to_decision_s=ttd,
                n_packets=pending.columns.n if fate == "completed" else 0,
                error=error,
            )
        )

    # ------------------------------------------------------------------
    # Gate 2: stream-results
    # ------------------------------------------------------------------
    def take_results(
        self, client: str | None = None, max_items: int | None = None
    ) -> list[ServiceResult]:
        """Drain delivered results (one client, or all), oldest decision
        first: ``max_items`` takes the globally oldest, whoever owns them."""

        def age(result: ServiceResult) -> tuple[float, int]:
            return (result.decided_at, result.request_id)

        with self._lock:
            if client is None:
                names = self._order
            elif client in self._clients:
                names = [client]
            else:
                raise KeyError(f"unknown client {client!r}")
            buffers = [self._clients[name].results for name in names]
            out: list[ServiceResult] = []
            while max_items is None or len(out) < max_items:
                waiting = [results for results in buffers if results]
                if not waiting:
                    break
                out.append(min(waiting, key=lambda r: age(r[0])).popleft())
            if client is None:
                # A threaded dispatcher can deliver one client's results
                # slightly out of clock order; callers are promised sorted.
                out.sort(key=age)
            return out

    # ------------------------------------------------------------------
    # Gate 3: query-stats
    # ------------------------------------------------------------------
    def stats(self) -> ServiceStats:
        """Cumulative counters since construction."""
        with self._lock:
            p50 = p99 = float("nan")
            if self._latencies:
                p50 = float(np.percentile(self._latencies, 50))
                p99 = float(np.percentile(self._latencies, 99))
            health: PoolHealth | None = getattr(self.backend, "pool_health", None)
            return ServiceStats(
                **self._counts,
                p50_decision_s=p50,
                p99_decision_s=p99,
                queue_depths={
                    name: len(state.queue) for name, state in self._clients.items()
                },
                pool=None if health is None else health.snapshot(),
            )

    # ------------------------------------------------------------------
    # Gate 4: admin
    # ------------------------------------------------------------------
    def start(self) -> "InferenceService":
        """Spawn the dispatcher thread (idempotent)."""
        with self._lock:
            if self._closed:
                raise RuntimeError("service is closed")
            if self._thread is None or not self._thread.is_alive():
                self._thread = threading.Thread(
                    target=self._serve_loop,
                    name="inference-service",
                    daemon=True,
                )
                self._thread.start()
        return self

    def _serve_loop(self) -> None:
        while True:
            with self._work:
                if self._closed and not self._queued_locked():
                    return
                if not self._queued_locked():
                    # Bounded wait: re-checks closed/drain flags on a tick
                    # even if a notify is lost.
                    self._work.wait(timeout=0.05)
                    if self._closed and not self._queued_locked():
                        return
            self.pump()

    def _queued_locked(self) -> int:
        return sum(len(state.queue) for state in self._clients.values())

    @property
    def draining(self) -> bool:
        return self._draining

    def drain(self, timeout: float = 30.0) -> ServiceStats:
        """Graceful bounded shutdown of admission: stop admitting, finish
        everything in flight, then report.  Results stay available on the
        stream-results gate afterwards.

        With no dispatcher thread running, pending work is pumped inline;
        otherwise this waits (at most ``timeout`` seconds) for the thread
        to empty the queues.
        """
        with self._lock:
            self._draining = True
            self._work.notify_all()
            threaded = self._thread is not None and self._thread.is_alive()
        if not threaded:
            self.pump()
        else:
            deadline = time.monotonic() + timeout
            while time.monotonic() < deadline:
                with self._lock:
                    if not self._queued_locked():
                        break
                time.sleep(0.005)
            # One inline pump covers a dispatcher that died mid-drain.
            self.pump()
        return self.stats()

    def close(self, timeout: float = 30.0) -> None:
        """Drain, stop the dispatcher, and (if owned) close the backend."""
        with self._lock:
            if self._closed:
                return
        self.drain(timeout=timeout)
        with self._lock:
            self._closed = True
            self._work.notify_all()
            thread = self._thread
            self._thread = None
        if thread is not None:
            thread.join(timeout=timeout)
        if self.own_backend and hasattr(self.backend, "close"):
            self.backend.close()

    def __enter__(self) -> "InferenceService":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()
