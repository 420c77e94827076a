"""The fork backend: shard worker pools with pipelined chunk dispatch.

:class:`ShardPool` is ``N`` **pre-forked** workers, each holding a
pipeline (or fabric lane) inherited copy-on-write at spawn time, served
over a framed request/response pipe protocol
(:class:`~repro.runtime.executors.ForkWorker`).  Workers live as long
as their owner: forked when a ``pool=True`` runtime is built, reaped by
its ``close()``, so one fork serves every run.

Every request takes one path: for each worker a run starts a writer
thread, which pulls the caller's stream and sends each request down the
pipe while at most ``window`` of them are unacked, and a supervisor,
which receives the responses.  Both are joined before the run returns,
so an idle pool owns no thread in the parent.  Chunk ``k+1`` is being
sliced *and shipped* while the worker scores chunk ``k``.  Responses
stream back per chunk and carry incremental state deltas
(:meth:`~repro.pisa.TaurusPipeline.state_delta`), so the parent's
pipelines track the workers chunk by chunk and per-message cost stays
bounded by the chunk itself, not the register file.  The parent is the
only truth: no worker state is ever read back, and after a run every
worker that died or failed is re-forked from the parent's contexts.

Lifecycle: the pool is a context manager; ``close()`` is deterministic
(join the writer, EOF, reap — one bounded budget per worker with a
SIGKILL fallback, so an abandoned mid-trace run cannot hang shutdown).

Failure model: a dead worker surfaces as EOF on the framed protocol; a
*hung* worker — one that sends no response within ``hang_timeout`` of
its previous one — is SIGKILLed by the parent so it surfaces the same
way.  On every request both are **recovered from transparently**:
chunks ride a bounded ack window, so on a crash
the pool re-forks a replacement from the parent's pipelines — which the
eagerly-applied state deltas hold at exactly the last *acked* chunk —
replays the sent-but-unacked chunks, and continues; merged results are
bit-identical to an unfaulted run.  A chunk that kills its worker
repeatedly raises a typed :class:`~repro.runtime.health.PoisonChunk`;
when replacements keep dying (or fork itself fails) the pool *degrades*
instead, scoring the shard's remaining chunks in the parent process.
Every failure and recovery action is counted on
:attr:`ShardPool.health` (a :class:`~repro.runtime.health.PoolHealth`)
— the only place a survived crash is visible.  Deterministic crash
schedules for tests come from :mod:`repro.runtime.faults`.
"""

from __future__ import annotations

import os
import signal
import sys
import threading
import time
from collections import deque
from typing import Callable, Iterator, Sequence

from ..pisa.pipeline import TaurusPipeline
from .executors import (
    ERROR_REQUEST,
    FORK_MODES,
    ForkWorker,
    WorkerCrash,
    WorkerDispatchError,
)
from .faults import FAULT_REQUEST, FaultPlan
from .health import PoisonChunk, PoolError, PoolHealth

__all__ = ["ShardPool", "PipelineShardWorker", "LaneWorker"]


# ----------------------------------------------------------------------
# Worker contexts (what lives inside each worker, across runs)
# ----------------------------------------------------------------------
class PipelineShardWorker:
    """One pipeline inside a worker, plus its delta-tracking base.

    The ``handle()`` side of the pool protocol:

    * ``("chunk", (columns, want_delta))`` — one pre-sorted chunk through
      :meth:`~repro.pisa.TaurusPipeline.process_trace_batch`; returns
      ``(result, delta-or-None)``.
    * ``("score", features)`` — a read-only pass through the block's
      graph interpreter (no issue-clock accounting), the pool twin of
      ``TaurusDataPlane._stream_scores``'s in-process loop.
    * ``("mark", None)`` / ``("rewind", None)`` — zero-payload per-run
      reset: ``mark`` pins the current state *inside* the worker and
      ``rewind`` restores it, so a pool owner wanting fresh-run
      semantics doesn't ship the register file down the pipe every run.
      Marks set on the context **before** spawning are inherited by the
      forked workers (and by replacements, which re-fork from the
      parent's context).  No request returns the worker's state: the
      parent's twin of this pipeline, kept current by deltas, is the truth.
    """

    def __init__(self, pipeline: TaurusPipeline):
        self.pipeline = pipeline
        self._base: dict | None = None
        self._mark: dict | None = None

    def handle(self, kind: str, payload):
        if kind == "chunk":
            columns, want_delta = payload
            if want_delta and self._base is None:
                self._base = self.pipeline.state_snapshot()
            result = self.pipeline.process_trace_batch(
                columns, chunk_size=max(columns.n, 1)
            )
            delta = (
                self.pipeline.state_delta(self._base) if want_delta else None
            )
            return result, delta
        if kind == "score":  # noqa: rt-frame-unconsumed - produced by callers above the runtime package (apps submit scoring requests)
            return self.pipeline.block.graph.execute_batch(payload)[:, 0]
        if kind == "mark":
            self._mark = self.pipeline.state_snapshot()
            return True
        if kind == "rewind":
            if self._mark is None:
                raise RuntimeError("rewind without a mark")
            self.pipeline.restore_state(self._mark)
            self._base = None
            return True
        raise ValueError(f"unknown request kind {kind!r}")


class LaneWorker:
    """One lane behind the pool: a :class:`PipelineShardWorker` per app.

    A lane's pipelines share one block (a fabric lane) or there is just
    one (a shard).  Requests addressed to an app — ``(kind, (app,
    body))`` — are answered by that app's worker as ``(app, reply)``,
    which steers the shared block to the app's pinned program on the way;
    lane-wide requests (``payload is None``: mark / rewind) fan out and
    return ``{app: reply}``; no request reads a lane's state back.
    """

    def __init__(self, pipelines: dict[int, TaurusPipeline]):
        self.workers = {
            app: PipelineShardWorker(pipe) for app, pipe in pipelines.items()
        }

    def handle(self, kind: str, payload):
        if payload is None:
            return {
                app: worker.handle(kind, None)
                for app, worker in self.workers.items()
            }
        app, body = payload
        return app, self.workers[app].handle(kind, body)


# ----------------------------------------------------------------------
# Crash-transparent dispatch (one supervisor per shard)
# ----------------------------------------------------------------------
class _ShardRun:
    """Supervisor state for one worker's stream during a run.

    ``pending`` is the single source of truth for sent-but-unacked
    chunks — bounded by the pool window, so a crash can only ever force
    a window's worth of replay.  ``results`` is indexed by chunk ordinal
    so replayed chunks land back in their original slot.
    """

    def __init__(
        self,
        pool: "ShardPool",
        index: int,
        source: Iterator[tuple[str, object]],
        count: int,
        faults: FaultPlan | None,
    ):
        self.pool = pool
        self.index = index
        # The caller's iterator, unbuffered: exactly one thread pulls at
        # a time (the live attempt's writer, or degrade after joining it).
        self.source = source
        self.count = count
        self.faults = faults
        self.results: list = [None] * count
        self.pending: deque = deque()  # (ordinal, kind, payload)
        self.cv = threading.Condition()
        self.next_ordinal = 0
        self.collected = 0
        self.error: BaseException | None = None

    def wrap(self, ordinal: int, kind: str, payload):
        """Attach an injected fault to this dispatch, if one is scheduled."""
        if self.faults is not None:
            event = self.faults.take(self.index, ordinal)
            if event is not None:
                return (FAULT_REQUEST, (event.wire(), (kind, payload)))
        return (kind, payload)

    def pull(self, pulled: int) -> tuple[str, object]:
        """The caller's next request, ``pulled`` in.  A stream that ends
        before ``count`` is the caller's error, raised here rather than
        left to the deadline, which would kill a healthy worker."""
        try:
            return next(self.source)
        except StopIteration:
            raise PoolError(
                f"stream for worker {self.index} ended after "
                f"{pulled} of {self.count} requests"
            ) from None

    def ack(self) -> tuple[int, str, object]:
        """Pop the pending head (the chunk this response answers)."""
        with self.cv:
            entry = self.pending.popleft()
            self.cv.notify_all()
        return entry


class _WindowStream:
    """One dispatch attempt for a shard: replay first, then windowed sends.

    :meth:`write` is the attempt's writer thread, which the supervisor
    starts against the shard's current worker.  It re-sends the chunks
    the previous attempt had sent but not acked (already in
    ``run.pending``), then pulls fresh chunks from the caller's stream,
    gated so at most ``window`` chunks are ever in flight.  The
    supervisor marks the attempt ``dead`` on a crash; a dead attempt
    stops yielding promptly, parking any already-pulled chunk in
    ``pending`` for the next attempt to replay.  Exactly one attempt
    pulls from the source at a time — the supervisor retires the old
    worker (joining its writer) before starting a new attempt.
    """

    def __init__(self, run: _ShardRun):
        self.run = run
        with run.cv:
            self._replay = list(run.pending)
        self.dead = False

    def __iter__(self) -> "_WindowStream":
        return self

    def __next__(self) -> tuple[str, object]:
        run: _ShardRun = self.run
        if self.dead:
            raise StopIteration
        if self._replay:
            ordinal, kind, payload = self._replay.pop(0)
            return run.wrap(ordinal, kind, payload)
        with run.cv:
            while len(run.pending) >= run.pool.window and not self.dead:
                run.cv.wait(0.05)
            # Never pull past the expected count: the last pull then
            # happens-before the last ack, so once the supervisor is
            # done this thread is done with the caller's stream.
            pulled = run.next_ordinal
        if self.dead or pulled >= run.count:
            raise StopIteration
        # A short stream raises here; the writer echoes it as an abort.
        kind, payload = run.pull(pulled)
        with run.cv:
            ordinal = run.next_ordinal
            run.next_ordinal += 1
            # Append BEFORE the writer sends: once the bytes are on the
            # pipe the ack can race back, and it pops the pending head.
            run.pending.append((ordinal, kind, payload))
        if self.dead:
            # A crash raced the pull: leave the chunk parked in pending
            # (the next attempt replays it) and stop without sending.
            raise StopIteration
        return run.wrap(ordinal, kind, payload)

    def write(self, worker: ForkWorker) -> None:
        """The writer thread's body: send every request to ``worker``.

        A thread of its own so the supervisor never blocks on a full
        request pipe: a parent stuck in ``write`` (big chunk) and a child
        stuck in ``write`` (big response) would deadlock.
        """
        try:
            for kind, payload in self:
                worker.send(kind, payload)
        except WorkerCrash:
            pass  # the supervisor sees the EOF and reports it
        except BaseException as exc:
            # The stream's iterator raised, or a payload would not
            # pickle.  The supervisor is (or will be) blocked on the
            # response pipe, so the failure must travel *through the
            # worker*: echo it back as an abort response.  Nothing was
            # sent after the error, so the conversation stays in sync
            # and the worker stays usable.
            try:
                worker.send(ERROR_REQUEST, f"{type(exc).__name__}: {exc}")
            except WorkerCrash:
                pass


# ----------------------------------------------------------------------
# The pool
# ----------------------------------------------------------------------
class ShardPool:
    """``N`` persistent shard workers behind a chunk-dispatch protocol.

    Parameters
    ----------
    contexts:
        One worker context per shard (:class:`PipelineShardWorker`,
        :class:`LaneWorker`, or anything exposing
        ``handle(kind, payload)``).  Workers inherit their context
        copy-on-write at spawn.
    mode:
        ``auto`` | ``fork`` — two spellings of the one worker kind.
    window:
        Most sent-but-unacked requests per worker (2 = classic double
        buffering: chunk ``k+1`` ships while ``k`` scores) — which is
        also the most a crash can force the pool to replay.
    close_timeout:
        Per-worker bound on retiring a worker — joining its writer, then
        EOF and reap — before SIGKILL.
    hang_timeout:
        Per-response deadline, in seconds (positive): a worker that sends
        no response within this long of its previous one (or of the start
        of the run) is SIGKILLed and recovered like a crash.  Workers
        answer in order and the window keeps the next request queued, so
        this bounds each request, never the run; individual chunks must
        score well inside it.
    max_chunk_retries:
        Crashes attributed to one chunk before it is declared a
        :class:`~repro.runtime.health.PoisonChunk`.
    max_worker_crashes:
        Crashes of one slot within a single run before the pool stops
        re-forking and degrades that shard to in-parent scoring.
    retry_backoff:
        Base of the exponential pause before re-forking a replacement
        (doubles per consecutive crash, capped at 1 s).
    faults:
        Optional :class:`~repro.runtime.faults.FaultPlan` consulted at
        every :meth:`map_streams` dispatch (never by :meth:`broadcast`,
        so plans stay keyed on chunk ordinals) — deterministic failure
        injection for tests.
    """

    def __init__(
        self,
        contexts: Sequence,
        mode: str = "auto",
        window: int = 2,
        close_timeout: float = 5.0,
        *,
        hang_timeout: float = 30.0,
        max_chunk_retries: int = 3,
        max_worker_crashes: int = 5,
        retry_backoff: float = 0.05,
        faults: FaultPlan | None = None,
    ):
        if not contexts:
            raise ValueError("a pool needs at least one worker context")
        if window <= 0:
            raise ValueError("window must be positive")
        if hang_timeout is None or hang_timeout <= 0:
            raise ValueError(f"hang_timeout must be positive, got {hang_timeout!r}")
        if mode not in FORK_MODES:
            raise ValueError(
                f"unknown pool mode {mode!r}; pick one of {FORK_MODES}"
            )
        self.window = window
        self.close_timeout = close_timeout
        self.hang_timeout = hang_timeout
        self.max_chunk_retries = max_chunk_retries
        self.max_worker_crashes = max_worker_crashes
        self.retry_backoff = retry_backoff
        self.faults = faults
        self.health = PoolHealth.for_pool(len(contexts))
        self.contexts = list(contexts)
        self._closed = False
        self._lock = threading.Lock()
        #: The live dispatch attempt's writer per worker index (runs only).
        self._writers: dict[int, threading.Thread] = {}
        # Spawn sequentially into the live worker list so every child can
        # close its inherited copies of the earlier siblings' pipe fds —
        # otherwise a sibling's dup of a request-write end would keep
        # that worker from ever seeing EOF at close().
        self._workers: list[ForkWorker] = []
        try:
            for i in range(len(self.contexts)):
                self._workers.append(self._spawn(i))
        except BaseException:
            self.close()  # a failed fork must not strand earlier siblings
            raise

    # ------------------------------------------------------------------
    # Introspection / lifecycle
    # ------------------------------------------------------------------
    @property
    def shards(self) -> int:
        return len(self.contexts)

    @property
    def worker_pids(self) -> list[int | None]:
        return [worker.pid for worker in self._workers]

    def alive(self) -> list[bool]:
        return [worker.alive for worker in self._workers]

    def _spawn(self, index: int) -> ForkWorker:
        sibling_fds: list[int] = []
        for worker in self._workers:
            if worker.alive:
                sibling_fds.extend(worker.parent_fds)
        return ForkWorker(
            self.contexts[index], extra_close_fds=sibling_fds, index=index
        )

    def _start_attempt(self, run: _ShardRun) -> _WindowStream:
        """A new dispatch attempt for ``run``, its writer thread started
        against the shard's current worker."""
        attempt = _WindowStream(run)
        writer = threading.Thread(
            target=attempt.write, args=(self._workers[run.index],),
            name=f"pool-write-{run.index}", daemon=True,
        )
        with self._lock:  # close() never sees an unstarted writer
            writer.start()
            self._writers[run.index] = writer
        return attempt

    def _join_writer(self, index: int, deadline: float) -> None:
        """Join worker ``index``'s writer by ``deadline``.  One wedged in
        a pipe write (child mid-chunk, buffer full) is freed by killing
        the child, which EPIPEs the write."""
        with self._lock:
            writer = self._writers.pop(index, None)
        if writer is None:
            return
        writer.join(max(0.0, deadline - time.monotonic()))
        if writer.is_alive():
            self._workers[index].kill()
            writer.join(max(0.0, deadline - time.monotonic()))

    def _retire(self, index: int) -> None:
        """Join worker ``index``'s writer, then EOF and reap the child —
        one ``close_timeout`` deadline across every stage, so a wedged
        writer AND a stuck child never spend the budget once per stage."""
        deadline = time.monotonic() + self.close_timeout
        self._join_writer(index, deadline)
        self._workers[index].close(max(0.0, deadline - time.monotonic()))

    def restart(self, index: int) -> None:
        """Replace worker ``index`` with a fresh fork from the parent's
        current context (it re-inherits the parent's pipeline state, so
        a replaced worker resumes consistent with the parent): crash
        recovery and the post-run re-fork.  A closed pool only reaps."""
        self._retire(index)
        if not self._closed:  # noqa: rt-racy-field - monotonic bool; a supervisor reading stale False takes one extra recovery lap, harmlessly
            self._workers[index] = self._spawn(index)  # noqa: rt-racy-field - per-index worker replacement; list cell assignment is atomic under the GIL and each index is owned by its supervisor during recovery
            self.health.worker(index).restarts += 1  # noqa: rt-racy-field - advisory restart counter; per-index single writer during recovery

    def close(self) -> None:
        """Deterministic shutdown, safe under an abandoned mid-trace run.

        Retires every worker — writer joined, request pipe EOFed, child
        reaped — with a bounded SIGKILL fallback: no GC reliance, no
        unbounded joins.  A caller's stream is never touched from here:
        the run that owns it fails with the dead worker and closes it on
        its own thread.  Idempotent.
        """
        with self._lock:
            if self._closed:
                return
            self._closed = True
        if sys.is_finalizing():
            # Interpreter shutdown froze the daemon writer threads, which
            # may hold pipe-buffer locks — joining them would deadlock.
            # OS-level teardown only.
            for worker in self._workers:
                try:
                    os.kill(worker.pid, signal.SIGKILL)
                    os.waitpid(worker.pid, os.WNOHANG)
                except (OSError, ChildProcessError):
                    pass
            return
        for index in range(len(self._workers)):
            self._retire(index)

    def __enter__(self) -> "ShardPool":
        return self

    def __exit__(self, *exc_info) -> None:
        self.close()

    def __del__(self) -> None:
        try:
            self.close()
        except Exception:
            pass

    # ------------------------------------------------------------------
    # Dispatch
    # ------------------------------------------------------------------
    def broadcast(self, kind: str, payload=None) -> list:
        """The same request, ``(kind, payload)``, to every worker; returns
        the per-worker responses.

        Each request rides the :meth:`map_streams` path as a one-request
        stream, so a worker that dies holding it is replaced from the
        parent's context and the request replayed; only the
        :class:`FaultPlan` is skipped.
        """
        answers = self._dispatch(
            [(iter([(kind, payload)]), 1) for __ in range(self.shards)], None
        )
        return [answer for (answer,) in answers]

    def _note_crash(self, index: int, exc: WorkerCrash) -> None:
        """Record a worker death on the health surface."""
        worker_health = self.health.worker(index)
        if exc.hung:
            worker_health.hangs += 1  # noqa: rt-racy-field - advisory counter, one supervisor writer per index; healthy() reads are monotonic
        else:
            worker_health.crashes += 1  # noqa: rt-racy-field - advisory counter, one supervisor writer per index; healthy() reads are monotonic
        worker_health.last_error = str(exc)

    # ------------------------------------------------------------------
    # State consistency (shared by every pool=True surface)
    # ------------------------------------------------------------------
    def rewind(self) -> None:
        """Rewind parent contexts and workers to their pristine marks.

        Workers rewind their own inherited snapshots; this process's
        contexts rewind locally via the same handler, so nothing but the
        request itself crosses the pipes.
        """
        for context in self.contexts:
            context.handle("rewind", None)
        self.broadcast("rewind")

    def _raise_report(self, errors: dict[int, BaseException]) -> None:
        """Raise a failed run's errors as one typed report: a lone
        :class:`~repro.runtime.health.PoolError` (e.g. a ``PoisonChunk``)
        as itself, anything else as a :class:`PoolError` whose
        ``worker_errors`` maps worker index to the original exception."""
        if not errors:
            return
        if len(errors) == 1:
            (only,) = errors.values()
            if isinstance(only, PoolError):
                raise only
        raise PoolError(
            "shard pool run failed: "
            + "; ".join(str(errors[index]) for index in sorted(errors)),
            worker_errors=errors,
        )

    def map_streams(
        self,
        streams: Sequence[tuple[Iterator[tuple[str, object]], int] | None],
        *,
        on_result: Callable[[int, int, object], None] | None = None,
        degrade: Callable[[int, str, object], object] | None = None,
    ) -> list[list]:
        """Pipelined dispatch of one request stream per worker.

        ``streams[i]`` is ``(iterator of (kind, payload), expected
        response count)`` — or None/``(_, 0)`` for an idle worker.  Each
        stream is pulled by a writer thread the run starts for its
        worker, at most ``window`` requests ahead of the acks, so
        slicing, shipping and scoring overlap per worker and workers run
        concurrently.  A
        generator stream is closed here, on the caller's thread, once
        the run is over.  Responses return per worker **in request
        order**.

        ``on_result(index, ordinal, response)`` takes every response as
        it is acked instead (one caller thread per worker; the returned
        lists then hold ``None``).  Stateful callers use it to apply
        state deltas *eagerly*, which is what lets a crash replacement
        re-fork from the parent at exactly the last-acked chunk.

        A crashed or hung worker is **invisible to the caller**: the
        pool re-forks a replacement from the parent's context, replays
        the sent-but-unacked chunks, and merges bit-identical results —
        only :attr:`~ShardPool.health` shows the event.  A chunk that
        kills its worker more than ``max_chunk_retries`` times raises
        :class:`~repro.runtime.health.PoisonChunk`; past
        ``max_worker_crashes`` (or a failed re-fork) the shard degrades
        to in-parent scoring via ``degrade(index, kind, payload)`` (or
        the parent context itself when no callable is given).  A handler
        error inside a worker fails the run with a prefix: that worker's
        later responses are drained but never reach ``on_result``, so the
        parent keeps exactly the chunks before the failed one, and the
        worker is re-forked from it after the run.
        """
        return self._dispatch(streams, self.faults, on_result, degrade)

    def _dispatch(self, streams, faults, on_result=None, degrade=None):
        """The one request path: a supervisor per non-idle worker."""
        if self._closed:
            raise RuntimeError("pool is closed")
        if len(streams) != self.shards:
            raise ValueError(
                f"got {len(streams)} streams for {self.shards} workers"
            )
        runs = [
            _ShardRun(self, index, iter(entry[0]), entry[1], faults)
            for index, entry in enumerate(streams)
            if entry is not None and entry[1] > 0
        ]
        supervisors = [
            threading.Thread(
                target=self._supervise,
                args=(run, on_result, degrade),
                name=f"pool-supervise-{run.index}",
            )
            for run in runs
        ]
        for thread in supervisors:
            thread.start()
        for thread in supervisors:
            # Bounded slices; supervisors always terminate (recv has the
            # watchdog deadline, degraded mode runs in-process).
            while thread.is_alive():
                thread.join(1.0)
        for run in runs:
            close = getattr(run.source, "close", None)
            if close is not None:
                try:
                    close()
                except ValueError:
                    # Still executing on a writer that outlived a bounded
                    # close(); the generator finishes on that thread.
                    pass
        for run in runs:
            # The one post-run re-fork site: a dead worker, or one whose
            # run failed and so may be past what landed here.  A dispatch
            # error leaves its worker in step (everything sent was acked).
            stale = run.error is not None and not isinstance(
                run.error, WorkerDispatchError)
            try:
                if stale or not self._workers[run.index].alive:
                    self.restart(run.index)
            except OSError:
                pass  # best effort: the next run's crash recovery retries
        self._raise_report(
            {run.index: run.error for run in runs if run.error is not None}
        )
        out: list[list] = [[] for __ in range(self.shards)]
        for run in runs:
            out[run.index] = run.results
        return out

    def _supervise(
        self,
        run: _ShardRun,
        on_result: Callable[[int, int, object], None] | None,
        degrade: Callable[[int, str, object], object] | None,
    ) -> None:
        """Drain one shard's responses, recovering from worker deaths.

        Each response acks the pending head (responses arrive in request
        order).  On a crash: blame the pending head (the chunk the
        worker was holding), re-fork a replacement from the parent's
        last-acked state, replay the window, and continue — escalating
        to :class:`PoisonChunk` or degraded in-parent scoring when the
        crash budget runs out.  Every writer it starts is joined before
        it returns.
        """
        index = run.index
        crashes_this_run = 0
        retries: dict[int, int] = {}
        landing = True  # until the worker reports a handler error
        attempt = self._start_attempt(run)
        try:
            while run.collected < run.count:
                try:
                    response = self._workers[index].recv(self.hang_timeout)
                except WorkerCrash as exc:
                    attempt.dead = True  # noqa: rt-racy-field - deliberately unlatched kill flag; worst case one extra chunk parks in pending for replay
                    with run.cv:
                        run.cv.notify_all()
                    exc.last_acked = (
                        run.collected - 1 if run.collected else None
                    )
                    self._note_crash(index, exc)
                    if self._closed or not landing:
                        # Nothing more can land: the post-run site re-forks.
                        run.error = run.error or exc
                        return
                    crashes_this_run += 1
                    with run.cv:
                        head = (
                            run.pending[0][0]
                            if run.pending
                            else run.next_ordinal
                        )
                    retries[head] = retries.get(head, 0) + 1
                    if retries[head] > self.max_chunk_retries:
                        run.error = PoisonChunk(index, head, retries[head])
                        return
                    if crashes_this_run > self.max_worker_crashes:
                        self._degrade_shard(run, attempt, degrade, on_result)
                        return
                    time.sleep(min(
                        1.0,
                        self.retry_backoff * (2 ** (crashes_this_run - 1)),
                    ))
                    try:
                        self.restart(index)
                    except OSError as fork_exc:
                        self.health.worker(index).last_error = (
                            f"respawn failed: {fork_exc}"
                        )
                        self._degrade_shard(run, attempt, degrade, on_result)
                        return
                    with run.cv:
                        replay = len(run.pending)
                    self.health.worker(index).replayed_chunks += replay
                    attempt = self._start_attempt(run)
                    continue
                except WorkerDispatchError as exc:
                    # The caller's stream raised mid-dispatch.  The worker
                    # is healthy and in sync (every sent chunk was acked
                    # before the echoed abort); the run just can't finish.
                    run.error = exc
                    return
                except RuntimeError as exc:
                    # In-band handler failure: the conversation is still in
                    # sync, so this *is* the ack for the pending head.  Keep
                    # draining, landing nothing more (the prefix rule).
                    run.ack()
                    run.collected += 1
                    if run.error is None:
                        run.error = exc
                    landing = False
                    continue
                ordinal, __, __ = run.ack()
                run.collected += 1
                if not landing:
                    continue
                if on_result is None:
                    run.results[ordinal] = response
                else:
                    try:
                        on_result(index, ordinal, response)
                    except BaseException as exc:
                        if run.error is None:
                            run.error = exc
        except BaseException as exc:  # never strand map_streams' join
            run.error = exc
        finally:
            attempt.dead = True
            with run.cv:
                run.cv.notify_all()
            self._join_writer(index, time.monotonic() + self.close_timeout)

    def _degrade_shard(
        self,
        run: _ShardRun,
        attempt: _WindowStream,
        degrade: Callable[[int, str, object], object] | None,
        on_result: Callable[[int, int, object], None] | None,
    ) -> None:
        """Score the shard's remaining chunks in the parent process.

        Last-resort path when replacements keep dying or fork itself
        fails.  The parent's context sits at the last-acked chunk (the
        eager delta application keeps it there), so executing the
        pending window plus the rest of the stream inline yields exactly
        the results a healthy worker would have produced — the shard
        just loses its parallelism, counted per chunk on the health
        surface.
        """
        index = run.index
        attempt.dead = True
        with run.cv:
            run.cv.notify_all()
        # Retire the dead worker first (the post-run site re-forks it):
        # that joins its writer, so nothing else pulls the stream below.
        self._retire(index)
        worker_health = self.health.worker(index)

        def execute(ordinal: int, kind: str, payload) -> None:
            if degrade is not None:
                response = degrade(index, kind, payload)
            else:
                # Without a caller-provided fallback the parent context
                # executes the request directly — exact for stateless
                # kinds (e.g. "score"); stateful callers pass `degrade`
                # so deltas aren't double-applied.
                response = self.contexts[index].handle(kind, payload)
            run.collected += 1
            worker_health.degraded_chunks += 1  # noqa: rt-racy-field - advisory counter; degraded mode runs single-threaded for its shard
            if on_result is None:
                run.results[ordinal] = response
            else:
                on_result(index, ordinal, response)

        try:
            with run.cv:
                backlog = list(run.pending)
                run.pending.clear()
            for ordinal, kind, payload in backlog:
                execute(ordinal, kind, payload)
            while run.collected < run.count:
                if self._closed:
                    run.error = PoolError("pool closed during degraded run")
                    return
                ordinal = run.next_ordinal
                kind, payload = run.pull(ordinal)
                run.next_ordinal += 1  # noqa: rt-racy-field - degraded mode owns the run exclusively; the windowed writer was joined before entry
                execute(ordinal, kind, payload)
        except BaseException as exc:
            run.error = exc
