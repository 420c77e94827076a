"""The two ways to run shards, and the fork backend's worker process.

A trace reaches a pipeline through exactly one of two backends:

* **in-process** (``serial``) — a plain loop over shards / lanes in the
  calling thread.  The oracle path, the ``shards=1`` path, and the fork
  pool's degraded fallback are all this loop.
* **fork pool** (``fork``) — one pre-forked :class:`ForkWorker` per
  shard behind :class:`~repro.runtime.pool.ShardPool`.  Children inherit
  the parent's pipelines copy-on-write; chunks go down a framed pipe and
  results plus incremental state deltas come back.

``pool`` alone picks the backend: workers are forked when their owner is
constructed with a truthy ``pool`` and reaped by its ``close()``;
without one, every run is in process.  ``executor`` is a checked
spelling of the same choice (:func:`selects_fork`).
"""

from __future__ import annotations

import os
import pickle
import select
import signal
import struct
import sys
import threading
import time
from typing import Sequence

from .faults import FAULT_REQUEST

__all__ = [
    "EXECUTORS",
    "ERROR_REQUEST",
    "ForkWorker",
    "WorkerCrash",
    "WorkerDispatchError",
    "read_frame",
    "selects_fork",
    "write_frame",
]

#: Accepted values for the ``executor`` knob.
EXECUTORS = ("auto", "serial", "fork")

#: Spellings of the one worker kind: ``ShardPool(mode=)`` takes either,
#: and a truthy ``pool`` knob is ``True`` or either.
FORK_MODES = ("auto", "fork")


def selects_fork(executor: str, pool, pool_options) -> bool:
    """Validate an ``executor`` x ``pool`` selector; True for the fork pool.

    A truthy ``pool`` forks persistent workers, a falsy one scores in
    process, on every host.  ``executor`` only has to agree: ``"fork"``
    needs a truthy ``pool``, ``"serial"`` refuses one, ``"auto"`` follows
    it.  ``pool_options`` configure fork workers, so they need a pool too.
    """
    if executor not in EXECUTORS:
        raise ValueError(f"unknown executor {executor!r}; pick one of {EXECUTORS}")
    if pool and pool is not True and pool not in FORK_MODES:
        raise ValueError(
            f"unknown pool mode {pool!r}; pick True or one of {FORK_MODES}"
        )
    if pool and executor == "serial":
        raise ValueError(
            "executor='serial' scores in process and has no workers to keep "
            "warm; drop pool= or pick executor='fork'"
        )
    if not pool and executor == "fork":
        raise ValueError(
            "executor='fork' needs pool=True: workers are forked when the "
            "owner is built and reaped by its close()"
        )
    if pool_options and not pool:
        raise ValueError("pool_options requires pool=True")
    return bool(pool)


# ----------------------------------------------------------------------
# Worker protocol (the ShardPool substrate)
# ----------------------------------------------------------------------
#: Length-prefix framing for pickled messages over a pipe: 8-byte little-
#: endian payload size, then the payload.  Framing (rather than
#: read-to-EOF) is what lets one worker serve many requests over one pipe
#: pair.
_FRAME_HEADER = struct.Struct("<Q")

#: Request kind that reports a parent-side dispatch failure; the worker
#: echoes it back as an abort response, so a supervisor blocked on the
#: response pipe wakes with the error instead of hanging forever.
ERROR_REQUEST = "__error__"


def write_frame(sink, payload: bytes) -> None:
    """Write one framed message to a binary file object and flush it."""
    sink.write(_FRAME_HEADER.pack(len(payload)))
    sink.write(payload)
    sink.flush()


def _read_exact(source, n: int) -> bytes | None:
    """Read exactly ``n`` bytes; None on clean EOF at a frame boundary."""
    data = bytearray()
    while len(data) < n:
        piece = source.read(n - len(data))
        if not piece:
            return None if not data else bytes(data)
        data.extend(piece)
    return bytes(data)


def read_frame(source) -> bytes | None:
    """Read one framed message; None when the peer closed the pipe."""
    header = _read_exact(source, _FRAME_HEADER.size)
    if header is None or len(header) < _FRAME_HEADER.size:
        return None
    (length,) = _FRAME_HEADER.unpack(header)
    body = _read_exact(source, length)
    if body is None or len(body) < length:
        return None  # torn frame == dead peer, callers treat both as EOF
    return body


class WorkerDispatchError(RuntimeError):
    """The parent-side dispatch of a request stream failed mid-run.

    Raised by :meth:`ForkWorker.recv` when the worker echoes an
    :data:`ERROR_REQUEST` back — the stream's iterator raised, or a
    payload would not pickle.  The worker itself is healthy and the
    conversation is in sync (nothing was sent after the error), so no
    restart is needed, but the run cannot complete.
    """


class WorkerCrash(RuntimeError):
    """A persistent worker process died (or hung) mid-conversation.

    Structured so the recovery path can act on it rather than parse it:
    ``worker_index`` is the pool slot, ``exit_status`` follows
    :func:`os.waitstatus_to_exitcode` (negative values are ``-signum``),
    ``hung`` marks a watchdog SIGKILL of a stuck-but-live worker, and
    ``last_acked`` is the last chunk ordinal the worker answered before
    dying (``None`` when the owner doesn't track acks).
    """

    def __init__(
        self,
        pid: int,
        exit_status: int | None,
        detail: str = "",
        *,
        worker_index: int | None = None,
        hung: bool = False,
        last_acked: int | None = None,
    ):
        self.pid = pid
        self.exit_status = exit_status
        self.detail = detail
        self.worker_index = worker_index
        self.hung = hung
        self.last_acked = last_acked
        super().__init__()

    @property
    def signum(self) -> int | None:
        """The killing signal's number, or None for a plain exit."""
        if self.exit_status is not None and self.exit_status < 0:
            return -self.exit_status
        return None

    @property
    def signal_name(self) -> str | None:
        """The killing signal's name (``SIGKILL``), or None."""
        if self.signum is None:
            return None
        try:
            return signal.Signals(self.signum).name
        except ValueError:
            return f"signal {self.signum}"

    def __str__(self) -> str:
        if self.worker_index is not None:
            who = f"pool worker {self.worker_index} (pid {self.pid})"
        else:
            who = f"pool worker pid {self.pid}"
        if self.signum is not None:
            how = f"killed by {self.signal_name}"
        elif self.exit_status is None:
            how = "exit status unknown"
        else:
            how = f"exit status {self.exit_status}"
        verb = "hung past its deadline and was killed" if self.hung else "died"
        message = f"{who} {verb} ({how})"
        if self.last_acked is not None:
            message += f" after acking chunk {self.last_acked}"
        if self.detail:
            message += f": {self.detail}"
        return message


def _serve(
    context,
    request_fd: int,
    response_fd: int,
    heartbeat_interval: float | None = None,
) -> None:
    """A forked worker's request loop: framed pickles in, framed out.

    Runs until the parent closes the request pipe (EOF is the shutdown
    signal).  Handler exceptions are reported in-band — ``(False, msg)``
    — so one bad chunk doesn't kill the worker.

    With ``heartbeat_interval`` set, a daemon thread interleaves
    ``("beat", {"busy_s", "handled"})`` frames with responses (the
    response writer is serialized by a lock, so frames never tear).
    ``busy_s`` is how long the *current* request has been in flight —
    the parent-side watchdog uses it to tell a stuck worker from a slow
    chunk queue.

    ``FAULT_REQUEST`` frames carry an injected failure plus the real
    request; the failure is executed *here*, at the dispatch point, so
    tests can provoke every crash mode deterministically (see
    :mod:`repro.runtime.faults`).
    """
    state = {"busy_since": None, "handled": 0}
    tx_lock = threading.Lock()

    with os.fdopen(request_fd, "rb") as rx, os.fdopen(response_fd, "wb") as tx:

        def _send(response) -> None:
            blob = pickle.dumps(response, protocol=pickle.HIGHEST_PROTOCOL)
            with tx_lock:
                write_frame(tx, blob)

        def _handle(kind, payload):
            state["busy_since"] = time.monotonic()  # noqa: rt-racy-field - heartbeat telemetry tolerates staleness; dict item writes are atomic under the GIL
            try:
                try:
                    return (True, context.handle(kind, payload))
                except BaseException as exc:  # report, never unwind the loop
                    return (False, f"{type(exc).__name__}: {exc}")
            finally:
                state["busy_since"] = None
                state["handled"] += 1

        if heartbeat_interval:

            def _beat() -> None:
                while True:
                    time.sleep(heartbeat_interval)
                    since = state["busy_since"]
                    busy_s = 0.0 if since is None else time.monotonic() - since
                    try:
                        _send(("beat", {
                            "busy_s": busy_s,
                            "handled": state["handled"],
                        }))
                    except (OSError, ValueError):
                        return  # pipe gone: the worker is shutting down

            threading.Thread(target=_beat, daemon=True).start()

        while True:
            frame = read_frame(rx)
            if frame is None:
                return
            kind, payload = pickle.loads(frame)
            if kind == ERROR_REQUEST:
                # Parent-side dispatch failure: echo it back so the
                # parent's supervisor unblocks with the error.
                _send(("abort", payload))
                continue
            if kind == FAULT_REQUEST:
                (fault_kind, seconds), (kind, payload) = payload
                if fault_kind == "kill":
                    # A segfault between frames: die without a trace.
                    os.kill(os.getpid(), signal.SIGKILL)
                if fault_kind in ("hang", "delay"):
                    # Hold the chunk (busy, unresponsive).  A hang only
                    # ends when the watchdog SIGKILLs us; a delay is the
                    # benign twin that must NOT trip recovery.
                    state["busy_since"] = time.monotonic()
                    time.sleep(seconds)
                    state["busy_since"] = None
                if fault_kind == "torn_frame":
                    # Crash mid-write: promise a full frame, deliver half.
                    response = _handle(kind, payload)
                    blob = pickle.dumps(
                        response, protocol=pickle.HIGHEST_PROTOCOL
                    )
                    with tx_lock:
                        tx.write(_FRAME_HEADER.pack(len(blob)))
                        tx.write(blob[: max(1, len(blob) // 2)])
                        tx.flush()
                    os._exit(1)
            _send(_handle(kind, payload))


class ForkWorker:
    """One pre-forked child process serving requests over a pipe pair.

    The child inherits ``context`` copy-on-write at fork time and answers
    ``handle(kind, payload)`` requests until closed — the cross-process
    half of :class:`~repro.runtime.pool.ShardPool`.  Requests and
    responses are framed pickles; only per-chunk data crosses the pipes,
    never the context itself.

    ``extra_close_fds`` are parent-side pipe ends of *sibling* workers:
    the child must close its inherited copies, or a sibling would never
    see EOF when the parent closes its request pipe.
    """

    def __init__(
        self,
        context,
        extra_close_fds: Sequence[int] = (),
        *,
        heartbeat_interval: float | None = None,
        index: int | None = None,
    ):
        if not hasattr(os, "fork"):
            raise RuntimeError("ForkWorker requires os.fork (POSIX only)")
        request_read, request_write = os.pipe()
        response_read, response_write = os.pipe()
        sys.stdout.flush()
        sys.stderr.flush()
        try:
            pid = os.fork()
        except BaseException:
            # A failed fork (e.g. EAGAIN) must not leak the pipe pairs.
            for fd in (request_read, request_write, response_read, response_write):
                os.close(fd)
            raise
        if pid == 0:  # child
            status = 0
            try:
                os.close(request_write)
                os.close(response_read)
                for fd in extra_close_fds:
                    try:
                        os.close(fd)
                    except OSError:
                        pass
                _serve(context, request_read, response_write, heartbeat_interval)
            except BaseException:
                status = 1
            finally:
                os._exit(status)  # skip atexit/pytest teardown in the child
        os.close(request_read)
        os.close(response_write)
        self.pid = pid
        self.index = index
        self.heartbeat_interval = heartbeat_interval
        self._tx = os.fdopen(request_write, "wb")
        # Unbuffered: recv() select()s on the raw fd, and a buffered file
        # object could hold a frame select cannot see.
        self._rx = os.fdopen(response_read, "rb", buffering=0)
        self._exit_status: int | None = None

    @property
    def parent_fds(self) -> tuple[int, int]:
        """Parent-side fds a later sibling's child must close."""
        return (self._tx.fileno(), self._rx.fileno())

    @property
    def alive(self) -> bool:
        if self._exit_status is not None:
            return False
        pid, status = os.waitpid(self.pid, os.WNOHANG)
        if pid:
            self._exit_status = os.waitstatus_to_exitcode(status)  # noqa: rt-racy-field - reap() serializes on waitpid; a racing observer tolerates the ChildProcessError tie
            return False
        return True

    # ------------------------------------------------------------------
    # Conversation
    # ------------------------------------------------------------------
    def send(self, kind: str, payload) -> None:
        try:
            write_frame(
                self._tx,
                pickle.dumps((kind, payload), protocol=pickle.HIGHEST_PROTOCOL),
            )
        except (BrokenPipeError, OSError, ValueError) as exc:
            # ValueError: the pipe was closed under us (pool shutdown).
            raise WorkerCrash(
                self.pid,
                self.reap(),
                f"request pipe broke ({exc})",
                worker_index=self.index,
            ) from None

    def _next_frame(self, hang_timeout: float | None) -> bytes | None:
        """One frame off the response pipe, None on EOF/torn frame.

        With a ``hang_timeout``, waits on the raw fd via select and
        SIGKILLs the child if *nothing* (not even a heartbeat) arrives
        within the deadline — the watchdog's no-signs-of-life rule.
        """
        if hang_timeout is None:
            try:
                return read_frame(self._rx)
            except (OSError, ValueError):  # pipe closed (pool shutdown)
                return None
        deadline = time.monotonic() + hang_timeout
        while True:
            try:
                fd = self._rx.fileno()
            except ValueError:  # rx closed under us
                return None
            remaining = deadline - time.monotonic()
            if remaining <= 0:
                self.kill()
                raise WorkerCrash(
                    self.pid,
                    self.reap(),
                    f"no frames for {hang_timeout:.1f}s",
                    worker_index=self.index,
                    hung=True,
                )
            try:
                ready, __, __ = select.select([fd], [], [], min(remaining, 0.25))
            except (OSError, ValueError):
                return None
            if ready:
                try:
                    return read_frame(self._rx)
                except (OSError, ValueError):
                    return None

    def recv(self, hang_timeout: float | None = None):
        """The next response, in request order.

        Heartbeat frames are consumed transparently; each one restarts
        the ``hang_timeout`` clock, and a beat reporting a single request
        in flight for longer than ``hang_timeout`` gets the child
        SIGKILLed (the watchdog's stuck-worker rule).

        Raises :class:`WorkerCrash` if the child died (EOF / torn frame),
        was killed by the watchdog, or sent a frame that does not unpickle
        (then it is killed too), :class:`WorkerDispatchError` if the
        parent-side dispatch failed (echoed :data:`ERROR_REQUEST`), or
        ``RuntimeError`` if the child survived but its handler raised.
        """
        while True:
            frame = self._next_frame(hang_timeout)
            if frame is None:
                raise WorkerCrash(
                    self.pid,
                    self.reap(),
                    "response pipe closed",
                    worker_index=self.index,
                )
            try:
                status, payload = pickle.loads(frame)
            except Exception as exc:
                self.kill()
                raise WorkerCrash(
                    self.pid,
                    self.reap(),
                    f"garbled frame ({type(exc).__name__}: {exc})",
                    worker_index=self.index,
                ) from None
            if status == "beat":
                busy_s = float(payload.get("busy_s", 0.0))
                if hang_timeout is not None and busy_s > hang_timeout:
                    self.kill()
                    raise WorkerCrash(
                        self.pid,
                        self.reap(),
                        f"request in flight for {busy_s:.1f}s "
                        f"(deadline {hang_timeout:.1f}s)",
                        worker_index=self.index,
                        hung=True,
                    )
                continue
            if status == "abort":
                raise WorkerDispatchError(
                    f"dispatch to pool worker pid {self.pid} failed: {payload}"
                )
            if not status:
                raise RuntimeError(
                    f"pool worker pid {self.pid} failed: {payload}"
                )
            return payload

    def kill(self) -> None:
        """SIGKILL the child (idempotent; reap() collects the status)."""
        try:
            os.kill(self.pid, signal.SIGKILL)
        except (ProcessLookupError, PermissionError):
            pass

    # ------------------------------------------------------------------
    # Teardown
    # ------------------------------------------------------------------
    def reap(self, timeout: float = 1.0) -> int:
        """Wait for the child (bounded), SIGKILL past the deadline."""
        if self._exit_status is not None:
            return self._exit_status
        deadline = time.monotonic() + timeout
        while True:
            try:
                pid, status = os.waitpid(self.pid, os.WNOHANG)
            except ChildProcessError:
                self._exit_status = 0  # already reaped elsewhere
                return self._exit_status
            if pid:
                break
            if time.monotonic() >= deadline:
                try:
                    os.kill(self.pid, signal.SIGKILL)
                except ProcessLookupError:
                    pass
                try:
                    __, status = os.waitpid(self.pid, 0)
                except ChildProcessError:
                    # A concurrent reap (supervisor vs close()) won the
                    # race; keep its status if it landed first.
                    if self._exit_status is None:
                        self._exit_status = 0
                    return self._exit_status
                break
            time.sleep(0.002)
        self._exit_status = os.waitstatus_to_exitcode(status)
        return self._exit_status

    def close(self, timeout: float = 5.0) -> int:
        """Deterministic shutdown: EOF the request pipe, then reap.

        Safe to call repeatedly and regardless of worker state; a child
        stuck mid-chunk is SIGKILLed once ``timeout`` expires.  Returns
        the child's exit status.
        """
        for stream in (self._tx, self._rx):
            try:
                stream.close()
            except OSError:
                pass
        return self.reap(timeout)
