"""Lifecycle + identity tests for the shard worker pool.

:class:`~repro.runtime.ShardPool` is the fork backend: workers forked
when their owner is built and reaped by its ``close()``, fed pipelined
chunks.  These tests pin the contract down:

* runs on both backends (in-process, and the fork pool) are
  **bit/stat-identical** to the single-pipeline oracle, including
  per-chunk incremental state-delta transport;
* a run forks nothing and leaves no thread behind (its supervisors and
  writers are joined before it returns), an idle pool owns no parent
  thread, and ``close()`` leaves no child process and no pool thread —
  whether the run returned or raised, and even when a fork fails while
  the pool is being built;
* a killed worker is detected, reported with its exit status, and
  replaced by a fresh fork;
* pool close is deterministic — bounded, idempotent, and safe under an
  abandoned mid-trace run.
"""

from __future__ import annotations

import copy
import os
import signal
import sys
import threading
import time

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.hw import MapReduceBlock
from repro.mapreduce import dnn_graph
from repro.pisa import threshold_postprocess
from repro.runtime import PipelineShardWorker, ShardedRuntime, ShardPool
from repro.runtime.executors import ForkWorker, WorkerCrash
from repro.runtime.health import PoisonChunk
from repro.runtime.sharded import in_arrival_order, merge_pipeline_state

from test_shard_runtime import (
    MAX_SHARDS,
    _assert_equivalent,
    _deep_equal,
    _oracle,
    _packet,
    _pipeline,
    _random_columns,
    _reset,
    _runtime,
    fork_only,
)

HAS_FORK = hasattr(os, "fork")

#: This file's ids for the backends of ``test_shard_runtime.BACKENDS``:
#: ``fork`` has always meant the kept-warm pool here.
MODES = {"in-process": "serial", "fork": "fork"}


def mode_params(shard_counts=None):
    """One param per mode — or per ``(mode, shards)``, where the
    two-shard ids stay bare (``[fork]``), as before the shard axis."""
    return [
        pytest.param(
            mode,
            *(() if shards is None else (shards,)),
            id=mode if shards in (None, 2) else f"{mode}-{shards}",
            marks=() if mode == "in-process" else fork_only,
        )
        for mode in MODES
        for shards in (shard_counts or [None])
    ]


@pytest.fixture(scope="module")
def blocks(quantized_dnn):
    """Oracle block + one per shard, all identically configured."""
    return [
        MapReduceBlock(dnn_graph(quantized_dnn)) for _ in range(MAX_SHARDS + 1)
    ]


def _pooled_runtime(blocks, shards, slots, tables, mode, pool_options=None):
    return _runtime(blocks, shards, slots, tables, MODES[mode], pool_options)


def _spy_on_spawns(monkeypatch):
    """Record every worker pid forked while the patch is active."""
    import repro.runtime.pool as pool_module

    pids: list[int] = []
    real = pool_module.ForkWorker

    class Spy(real):
        def __init__(self, *args, **kwargs):
            super().__init__(*args, **kwargs)
            pids.append(self.pid)

    monkeypatch.setattr(pool_module, "ForkWorker", Spy)
    return pids


def _assert_gone(pids):
    for pid in pids:
        with pytest.raises(ProcessLookupError):
            os.kill(pid, 0)  # reaped, not leaked


class _Sleeper:
    """A worker context whose chunks take arbitrarily long (for close
    determinism under an abandoned run)."""

    def handle(self, kind, payload):
        if kind == "sleep":
            time.sleep(payload)
        return "done"


class _Echo:
    def handle(self, kind, payload):
        return payload


def _refuse_to_load():
    raise ValueError("cannot load")


class _Unloadable:
    """Pickles in the worker; loading it in the parent raises."""

    def __reduce__(self):
        return (_refuse_to_load, ())


class TestPoolIdentity:
    @pytest.mark.parametrize("mode", mode_params())
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_pool_matches_oracle(self, blocks, shards, mode):
        """One run == the single-pipeline oracle, every observable."""
        columns = _random_columns(seed=31, n=150)
        oracle = _oracle(blocks, slots=16, tables=True)
        runtime = _pooled_runtime(blocks, shards, slots=16, tables=True, mode=mode)
        with runtime:
            _assert_equivalent(oracle, runtime, columns)

    @pytest.mark.parametrize("mode, shards", mode_params((1, 2, 4)))
    def test_repeated_runs_match_fork_per_run(self, blocks, mode, shards):
        """Back-to-back runs accumulate state exactly like one pipeline.

        Warm workers accumulate their own state and ship it chunk-delta by
        chunk-delta; the in-process loop mutates it in place.  Both must
        track the oracle across runs.
        """
        oracle = _oracle(blocks, slots=16, tables=True)
        runtime = _pooled_runtime(blocks, shards, slots=16, tables=True, mode=mode)
        with runtime:
            for seed in (32, 33, 34):
                _assert_equivalent(
                    oracle, runtime, _random_columns(seed, 90), chunk_size=16
                )

    @fork_only
    def test_rewind_gives_fresh_run_semantics(self, blocks):
        """Rewinding to the mark per run == rebuilding pipelines per run."""
        runtime = _pooled_runtime(blocks, 2, slots=16, tables=True, mode="fork")
        with runtime:
            columns = _random_columns(seed=35, n=80)
            first = runtime.process_trace(columns, chunk_size=16)
            runtime.rewind_state()
            second = runtime.process_trace(columns, chunk_size=16)
            assert np.array_equal(first.decisions, second.decisions)
            assert np.array_equal(
                first.ml_scores, second.ml_scores, equal_nan=True
            )
            state = runtime.merged_state()
            # Two identical fresh runs, not one accumulated double run.
            assert state["parser_packets"] == columns.n


@fork_only
class TestRunScopedWorkers:
    """Workers live as long as their owner: forked at construction,
    reaped by ``close()``.  What is scoped to a run is one supervisor
    and one writer thread per shard; a run forks nothing, and once the
    owner is closed no child process and no pool thread is left —
    whether the run returned or raised."""

    @pytest.fixture()
    def new_threads(self, monkeypatch):
        """Thread census since the test began: calling it names the new
        threads still alive (earlier tests may have abandoned some of
        their own); ``.started`` names every thread started."""
        before = set(threading.enumerate())
        started: list[str] = []
        real_start = threading.Thread.start

        def start(thread):
            started.append(thread.name)
            real_start(thread)

        monkeypatch.setattr(threading.Thread, "start", start)

        def alive():
            return sorted(t.name for t in set(threading.enumerate()) - before)

        alive.started = started
        return alive

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_returning_run_leaves_nothing_behind(
        self, blocks, shards, monkeypatch, new_threads
    ):
        pids = _spy_on_spawns(monkeypatch)
        oracle = _oracle(blocks, slots=16, tables=True)
        with _pooled_runtime(blocks, shards, 16, True, mode="fork") as runtime:
            assert len(pids) == shards  # forked by the constructor
            _assert_equivalent(oracle, runtime, _random_columns(41, 90))
        assert len(pids) == shards
        _assert_gone(pids)
        assert new_threads() == []

    def test_raising_run_leaves_nothing_behind(
        self, blocks, monkeypatch, new_threads
    ):
        pids = _spy_on_spawns(monkeypatch)

        def boom(*args, **kwargs):
            raise ValueError("chunk exploded")

        def factory(i):
            _reset(blocks[i + 1])
            pipe = _pipeline(blocks[i + 1], 16, tables=True)
            if i == 1:
                pipe.process_trace_batch = boom  # inherited by the fork
            return pipe

        with ShardedRuntime(factory, shards=2, pool=True) as runtime:
            with pytest.raises(RuntimeError, match="chunk exploded"):
                runtime.process_trace(_random_columns(42, 90), chunk_size=16)
            # The failed lane is re-forked after the run.
            assert len(pids) == 3
        _assert_gone(pids)
        assert new_threads() == []

    @staticmethod
    def _two_app_fabric(quantized_dnn, seed):
        """A two-shard pooled fabric of two anomaly-DNN apps, and a trace."""
        from repro.datasets import expand_to_packets, generate_connections
        from repro.runtime import FabricApp, MultiAppFabric

        trace = expand_to_packets(
            generate_connections(60, seed=seed), max_packets=200, seed=seed
        )
        apps = [
            FabricApp.from_quantized_dnn(quantized_dnn, name=name)
            for name in ("a", "b")
        ]
        fabric = MultiAppFabric(apps, shards=2, chunk_size=32, pool=True)
        return fabric, trace

    def test_fabric_run_leaves_nothing_behind(
        self, quantized_dnn, monkeypatch, new_threads
    ):
        pids = _spy_on_spawns(monkeypatch)
        fabric, trace = self._two_app_fabric(quantized_dnn, 43)
        with fabric:
            fabric.run([trace, trace])
            with pytest.raises(ValueError, match="missing traces"):
                fabric.run({"a": trace})
        assert len(pids) == 2
        _assert_gone(pids)
        assert new_threads() == []

    @staticmethod
    def _assert_run_census(run, runner, new_threads):
        """A freshly built two-shard owner holds no parent thread;
        ``run()`` starts exactly one supervisor and one writer per shard
        and leaves none of them behind — returning or raising."""
        assert new_threads() == []  # workers forked, no thread resident
        per_run = [
            "pool-supervise-0", "pool-supervise-1", "pool-write-0", "pool-write-1"
        ]
        for __ in range(2):
            del new_threads.started[:]
            run()
            assert sorted(new_threads.started) == per_run
            assert new_threads() == []

        def poisoned(slots, chunk):
            raise RuntimeError("staging blew up")
            yield

        runner()._requests = poisoned
        del new_threads.started[:]
        with pytest.raises(RuntimeError, match="staging blew up"):
            run()
        assert sorted(new_threads.started) == per_run
        assert new_threads() == []

    def test_run_threads_live_inside_the_run(self, blocks, new_threads):
        columns = _random_columns(44, 90)
        with _pooled_runtime(blocks, 2, 16, True, mode="fork") as runtime:
            self._assert_run_census(
                lambda: runtime.process_trace(columns, chunk_size=16),
                lambda: runtime,
                new_threads,
            )

    def test_fabric_run_threads_live_inside_the_run(
        self, quantized_dnn, new_threads
    ):
        fabric, trace = self._two_app_fabric(quantized_dnn, 45)
        with fabric:
            self._assert_run_census(
                lambda: fabric.run([trace, trace]),
                lambda: fabric,
                new_threads,
            )


class TestPoolLifecycle:
    @pytest.mark.skipif(not HAS_FORK, reason="fork pool needs POSIX")
    def test_killed_worker_recovered_transparently(self, blocks):
        """SIGKILLing a worker mid-run no longer fails the run: the pool
        re-forks a replacement from parent state, replays the unacked
        chunks, and the merged result matches the oracle bit-for-bit.
        The crash is visible only on the health surface."""
        oracle = _oracle(blocks, 16, False)
        runtime = _pooled_runtime(blocks, 2, slots=16, tables=False, mode="fork")
        with runtime:
            victim = runtime.pool.worker_pids[0]
            os.kill(victim, signal.SIGKILL)
            _assert_equivalent(
                oracle, runtime, _random_columns(36, 60), chunk_size=16
            )
            assert runtime.pool.worker_pids[0] != victim
            assert runtime.pool.alive() == [True, True]
            health = runtime.pool_health
            assert health is runtime.pool.health
            assert health.worker(0).crashes == 1
            assert health.restarts >= 1
            # The replacement keeps serving follow-up runs correctly.
            _assert_equivalent(
                oracle, runtime, _random_columns(37, 60), chunk_size=16
            )

    @fork_only
    def test_worker_killed_before_rewind_is_replaced(self, blocks):
        """Control requests ride the recovering path too: a worker found
        dead by ``rewind`` is re-forked from the (already rewound) parent
        context and the request replayed, instead of failing the call."""
        oracle = _oracle(blocks, 16, True)
        columns = _random_columns(38, 90)
        with _pooled_runtime(blocks, 2, 16, True, mode="fork") as runtime:
            runtime.process_trace(_random_columns(39, 60), chunk_size=16)
            victim = runtime.pool.worker_pids[0]
            os.kill(victim, signal.SIGKILL)
            runtime.rewind_state()
            assert runtime.pool.worker_pids[0] != victim
            assert runtime.pool.alive() == [True, True]
            assert runtime.pool_health.crashes == 1
            _assert_equivalent(oracle, runtime, columns, chunk_size=16)

    @pytest.mark.skipif(
        not sys.platform.startswith("linux"),
        reason="counts fds via /proc (Linux) and needs fork",
    )
    def test_fork_failure_closes_pipes_and_reaps_children(
        self, blocks, monkeypatch
    ):
        """An ``EAGAIN`` on the second fork while a ``pool=True`` runtime
        builds its workers must not leak the pipe pairs or leave the
        first child unreaped."""
        import errno

        real_fork = os.fork
        calls = {"n": 0}
        spawned: list[int] = []

        def flaky_fork():
            calls["n"] += 1
            if calls["n"] == 2:
                raise OSError(errno.EAGAIN, "Resource temporarily unavailable")
            pid = real_fork()
            if pid:
                spawned.append(pid)
            return pid

        def open_fds():
            return len(os.listdir("/proc/self/fd"))

        before = open_fds()
        monkeypatch.setattr(os, "fork", flaky_fork)
        with pytest.raises(OSError, match="unavailable"):
            _pooled_runtime(blocks, 2, slots=16, tables=False, mode="fork")
        monkeypatch.setattr(os, "fork", real_fork)
        assert open_fds() == before, "fork failure leaked pipe fds"
        assert len(spawned) == 1
        with pytest.raises(ChildProcessError):
            os.waitpid(spawned[0], os.WNOHANG)  # reaped, not stranded

    @pytest.mark.skipif(not HAS_FORK, reason="fork pool needs POSIX")
    def test_worker_crash_carries_exit_status(self):
        worker = ForkWorker(_Sleeper(), index=0)
        try:
            os.kill(worker.pid, signal.SIGKILL)
            with pytest.raises(WorkerCrash) as info:
                worker.send("sleep", 0.0)  # a broken pipe, or EOF below
                worker.recv(5.0)
            assert info.value.exit_status == -signal.SIGKILL
            assert info.value.signal_name == "SIGKILL"
            assert info.value.worker_index == 0
            # Human-readable report: signal by name, not a negative int.
            assert "SIGKILL" in str(info.value)
            assert str(worker.pid) in str(info.value)
        finally:
            worker.close(0.5)

    @staticmethod
    def _in_background(pool, streams):
        """``pool.map_streams(streams)`` on a started caller thread, the
        way an abandoned run leaves it; ``outcome`` gets its ``value`` or
        ``error``."""
        outcome: dict = {}

        def run():
            try:
                outcome["value"] = pool.map_streams(streams)
            except BaseException as exc:
                outcome["error"] = exc

        caller = threading.Thread(target=run)
        caller.start()
        return caller, outcome

    @staticmethod
    def _assert_failed(caller, outcome):
        caller.join(5.0)
        assert not caller.is_alive()
        assert isinstance(outcome.get("error"), RuntimeError)

    @pytest.mark.skipif(not HAS_FORK, reason="fork pool needs POSIX")
    def test_close_is_deterministic_under_abandoned_run(self):
        """Requests in flight, responses never collected, workers stuck
        mid-chunk: close() must still return within its bound and leave
        no child behind."""
        pool = ShardPool([_Sleeper(), _Sleeper()], mode="fork", close_timeout=0.5)
        pids = list(pool.worker_pids)
        caller, outcome = self._in_background(pool, [
            (iter([("sleep", 30.0), ("sleep", 30.0)]), 2),  # one queued behind
            (iter([("sleep", 30.0)]), 1),
        ])
        time.sleep(0.2)  # workers are now parked inside their chunks
        t0 = time.perf_counter()
        pool.close()
        assert time.perf_counter() - t0 < 4.0
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)  # reaped, not leaked
        pool.close()  # idempotent
        self._assert_failed(caller, outcome)
        with pytest.raises(RuntimeError, match="closed"):
            pool.broadcast("sleep", 0.0)

    @pytest.mark.skipif(not HAS_FORK, reason="fork pool needs POSIX")
    def test_close_timeout_is_one_end_to_end_budget(self):
        """``close_timeout`` bounds a slot's *whole* teardown — writer
        join, reap, and worker close share one deadline instead of each
        burning a full budget in sequence (worst case used to be ~3x)."""
        pool = ShardPool([_Sleeper()], mode="fork", close_timeout=0.6)
        caller, outcome = self._in_background(
            pool, [(iter([("sleep", 30.0), ("sleep", 30.0)]), 2)]
        )
        time.sleep(0.2)
        t0 = time.perf_counter()
        pool.close()
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.5, (
            f"close took {elapsed:.2f}s; budget must be end-to-end, "
            "not per teardown phase"
        )
        self._assert_failed(caller, outcome)

    @fork_only
    def test_close_while_caller_stream_is_mid_next(self):
        """``close()`` from another thread while a run's generator is
        executing (on the writer thread) stays inside its budget and
        never touches the generator; the run fails with its worker."""
        entered, release = threading.Event(), threading.Event()
        thrown: list[BaseException] = []

        def stream():
            try:
                yield ("sleep", 0.0)
                entered.set()
                release.wait(10.0)
                yield ("sleep", 0.0)
            except BaseException as exc:
                thrown.append(exc)
                raise

        pool = ShardPool([_Sleeper()], mode="fork", close_timeout=0.5)
        caller, outcome = self._in_background(pool, [(stream(), 2)])
        try:
            assert entered.wait(5.0)
            t0 = time.perf_counter()
            pool.close()
            assert time.perf_counter() - t0 < 1.5
            assert thrown == []
            self._assert_failed(caller, outcome)
            assert thrown == []
        finally:
            release.set()
            caller.join(5.0)

    @fork_only
    @pytest.mark.parametrize("mode", ["fork"])  # the one worker kind left
    def test_dispatch_stream_failure_surfaces_not_hangs(self, mode):
        """A request stream whose iterator raises mid-run must fail the
        run promptly (echoed through the worker as an abort) instead of
        stranding the collector on a response that will never come — and
        the worker must stay usable."""

        def bad_stream():
            yield ("echo", 1)
            raise RuntimeError("staging blew up")

        with ShardPool([_Echo()], mode=mode) as pool:
            with pytest.raises(RuntimeError, match="staging blew up"):
                pool.map_streams([(bad_stream(), 3)])
            assert pool.alive() == [True]
            # The conversation stayed in sync: new runs still work.
            assert pool.map_streams([(iter([("echo", 7)]), 1)]) == [[7]]

    @fork_only
    @pytest.mark.parametrize(
        "shards, failing", [(1, 1), (1, 2), (1, 3), (2, 2)],
        ids=["chunk1", "chunk2", "chunk3", "two-shards"],
    )
    def test_failed_lane_keeps_the_chunks_before_the_failure(
        self, blocks, tmp_path, shards, failing
    ):
        """The prefix rule: a hook that raises in shard 0's worker on its
        ``failing``-th chunk of 16 leaves shard 0 with exactly its earlier
        chunks and shard 1 with everything; nothing is read back from a
        worker, and without a rewind the next run continues from there."""
        # Armed by a file, not a call count alone: the re-forked worker
        # inherits the parent's count and would raise again.
        armed = tmp_path / "armed"
        armed.touch()
        calls = []
        __, threshold = threshold_postprocess(0.5)

        def hook(values):
            calls.append(None)
            if len(calls) == failing and armed.exists():
                raise ValueError(f"hook raised on chunk {failing}")
            return threshold(values)

        def factory(i):
            pipe = _pipeline(blocks[i + 1], 16, tables=True)
            if i == 0:
                pipe.postprocess_batch = hook
            return pipe

        columns = _random_columns(seed=61, n=48 * shards)
        __, ordered = in_arrival_order(columns)
        lanes = ordered.shard_assignments(shards, 16)
        first = np.flatnonzero(lanes == 0)
        assert len(first) > 16 * (failing - 1)
        oracle = _oracle(blocks, slots=16, tables=True)
        landed = np.union1d(first[: 16 * (failing - 1)], np.flatnonzero(lanes != 0))
        oracle.process_trace_batch(ordered.take(landed), chunk_size=16)
        for block in blocks[1 : shards + 1]:
            _reset(block)
        with ShardedRuntime(factory, shards=shards, executor="fork", pool=True) as runtime:
            with pytest.raises(RuntimeError, match=f"hook raised on chunk {failing}"):
                runtime.process_trace(columns, chunk_size=16)
            armed.unlink()
            assert _deep_equal(
                runtime.merged_state(),
                merge_pipeline_state([oracle], oracle.arbiter._turn),
            )
            _assert_equivalent(oracle, runtime, _random_columns(seed=62, n=90))

    @pytest.mark.skipif(not HAS_FORK, reason="fork pool needs POSIX")
    def test_idle_multi_worker_close_is_fast_eof(self):
        """Regression: initial workers inherited earlier siblings'
        parent-side pipe fds, so closing worker 0's request pipe never
        EOFed it while a later sibling lived — close() of a healthy idle
        pool degraded to close_timeout + SIGKILL per worker."""
        pool = ShardPool(
            [_Sleeper(), _Sleeper(), _Sleeper()], mode="fork", close_timeout=5.0
        )
        assert pool.broadcast("ping") == ["done", "done", "done"]
        t0 = time.perf_counter()
        pool.close()
        assert time.perf_counter() - t0 < 2.0, "EOF shutdown degraded to SIGKILL"
        # Clean EOF exits, not signal deaths.
        assert [worker._exit_status for worker in pool._workers] == [0, 0, 0]

    @fork_only
    @pytest.mark.parametrize("mode", ["fork"])  # the one worker kind left
    def test_worker_exception_is_in_band(self, mode):
        """A handler exception fails the run in band (no crash) and the
        pool stays usable: the worker is re-forked after the run."""

        class Fragile:
            def handle(self, kind, payload):
                if kind == "boom":
                    raise ValueError("chunk exploded")
                return payload

        with ShardPool([Fragile()], mode=mode) as pool:
            with pytest.raises(RuntimeError, match="chunk exploded"):
                pool.broadcast("boom")
            assert pool.alive() == [True]
            assert pool.broadcast("echo", 41) == [41]

    @fork_only
    def test_broadcast_sends_one_shared_payload(self):
        """A list or tuple as long as the pool is still one payload: a
        lane request's ``(app, body)`` on a two-worker pool is not split."""
        with ShardPool([_Echo(), _Echo()]) as pool:
            assert pool.broadcast("echo", ("a", "b")) == [("a", "b")] * 2
            assert pool.broadcast("echo", [1, 2]) == [[1, 2]] * 2
            assert pool.broadcast("echo") == [None, None]

    @fork_only
    def test_short_stream_fails_the_run_not_the_worker(self):
        """A stream that ends before its promised count fails the run as a
        dispatch error, at once: the healthy worker is neither timed out
        nor killed, and serves the next run."""
        with ShardPool([_Echo()], hang_timeout=1.0) as pool:
            pid = pool.worker_pids[0]
            caller, outcome = self._in_background(
                pool, [(iter([("echo", 1)]), 2)]
            )
            caller.join(5.0)
            assert not caller.is_alive(), "a short stream hung the run"
            assert "ended after 1 of 2 requests" in str(outcome.get("error"))
            assert pool.health.hangs == pool.health.crashes == 0
            assert pool.worker_pids == [pid]
            assert pool.map_streams([(iter([("echo", 7)]), 1)]) == [[7]]

    @fork_only
    def test_garbled_frame_is_a_crash(self):
        """A response the parent cannot unpickle kills and replaces its
        worker like any crash: the chunk is replayed, and one that garbles
        every time is a ``PoisonChunk``; the pool serves the next run."""

        class Garbler:
            def handle(self, kind, payload):
                return _Unloadable() if kind == "garble" else payload

        with ShardPool([Garbler()], max_chunk_retries=1, retry_backoff=0.01) as pool:
            with pytest.raises(PoisonChunk):
                pool.map_streams([(iter([("echo", 1), ("garble", None)]), 2)])
            assert pool.health.crashes >= 1
            assert pool.map_streams([(iter([("echo", 7)]), 1)]) == [[7]]

    def test_pool_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            ShardPool([])
        with pytest.raises(ValueError, match="unknown pool mode"):
            ShardPool([_Sleeper()], mode="hyperdrive")
        with pytest.raises(ValueError, match="window"):
            ShardPool([_Sleeper()], window=0)
        for hang_timeout in (None, 0, -1.0):
            with pytest.raises(ValueError, match="hang_timeout"):
                ShardPool([_Sleeper()], hang_timeout=hang_timeout)


# ----------------------------------------------------------------------
# state_delta diffs only the slots written since the last delta
# ----------------------------------------------------------------------
def _full_scan_registers(pipe, base) -> dict:
    """The register part of ``state_delta`` as it was before the dirty
    mask: compare every slot of every array; updates ``base`` in place."""
    registers = {}
    for name in pipe._REGISTER_NAMES:
        current = getattr(pipe.accumulator, name).values
        prior = base["registers"][name]
        changed = np.flatnonzero(current != prior)
        if len(changed):
            registers[name] = (changed, current[changed].copy())
            prior[changed] = current[changed]
    return registers


class TestSparseStateDelta:
    SLOTS = 32

    def _pair(self, blocks):
        """Two identically configured pipelines on their own blocks."""
        for block in blocks[:2]:
            _reset(block)
        return [_pipeline(block, self.SLOTS, tables=True) for block in blocks[:2]]

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        steps=st.lists(
            st.sampled_from(
                ["chunk", "chunk", "scalar", "delta", "delta", "restore",
                 "apply", "rebase", "clear"]
            ),
            min_size=1, max_size=14,
        ),
        seed=st.integers(0, 10**6),
    )
    def test_equals_the_full_scan_under_any_interleaving(self, blocks, steps, seed):
        pipe, twin = self._pair(blocks)
        rng = np.random.default_rng(seed)
        pristine = pipe.state_snapshot()
        twin_base = twin.state_snapshot()
        base = pipe.state_snapshot()
        shadow = copy.deepcopy(base)  # the full scan's own base
        for step in [*steps, "delta"]:
            if step == "chunk":
                pipe.process_trace_batch(
                    _random_columns(int(rng.integers(1 << 30)), int(rng.integers(0, 20)))
                )
            elif step == "scalar":
                for __ in range(int(rng.integers(1, 4))):
                    pipe.process(_packet(rng, float(rng.uniform(0, 0.01))))
            elif step == "restore":  # what a worker's rewind does
                pipe.restore_state(pristine)
            elif step == "apply":  # a twin's chunk lands here as a delta
                twin.process_trace_batch(_random_columns(int(rng.integers(1 << 30)), 9))
                pipe.apply_state_delta(twin.state_delta(twin_base))
            elif step == "rebase":  # a base state_delta has never seen
                base = pipe.state_snapshot()
                shadow = copy.deepcopy(base)
            elif step == "clear":
                pipe.accumulator.byte_count.clear()
            else:
                delta = pipe.state_delta(base)
                assert _deep_equal(delta["registers"], _full_scan_registers(pipe, shadow))
                for indices, __ in delta["registers"].values():
                    assert np.all(np.diff(indices) > 0)
                assert _deep_equal(base["registers"], shadow["registers"])
                assert _deep_equal(base["registers"], pipe.state_snapshot()["registers"])

    def test_a_second_base_is_never_diffed_sparsely(self, blocks):
        """The mask is relative to one base; any other gets the full scan."""
        pipe, __ = self._pair(blocks)
        first, second = pipe.state_snapshot(), pipe.state_snapshot()
        pipe.process_trace_batch(_random_columns(5, 12))
        moved = pipe.state_delta(first)["registers"]
        assert moved and _deep_equal(pipe.state_delta(second)["registers"], moved)
        assert pipe.state_delta(second)["registers"] == {}

    def test_mask_stays_one_slot_file_when_nobody_asks(self, blocks):
        pipe, __ = self._pair(blocks)
        mask = pipe.accumulator.dirty
        for seed in range(5):
            pipe.process_trace_batch(_random_columns(seed, 40))
        assert pipe.accumulator.dirty is mask
        assert mask.shape == (self.SLOTS,) and mask.dtype == bool

    @settings(
        max_examples=15, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        steps=st.lists(
            st.sampled_from(["chunk", "chunk", "chunk", "quiet", "rewind"]),
            min_size=1, max_size=12,
        ),
        seed=st.integers(0, 10**6),
    )
    def test_worker_round_trips_leave_parent_equal_to_worker(self, blocks, steps, seed):
        """The pool protocol end to end, in process: every chunk's
        ``(result, delta)`` applied to the parent's twin keeps it equal to
        the worker's pipeline — through rewinds and delta-less chunks."""
        worker_pipe, parent = self._pair(blocks)
        worker = PipelineShardWorker(worker_pipe)
        worker.handle("mark", None)
        pristine = parent.state_snapshot()
        rng = np.random.default_rng(seed)
        synced = True
        for step in steps:
            if step == "rewind":
                worker.handle("rewind", None)
                parent.restore_state(pristine)
                synced = True
                continue
            columns = _random_columns(int(rng.integers(1 << 30)), int(rng.integers(0, 24)))
            result, delta = worker.handle("chunk", (columns, step == "chunk"))
            assert len(result) == columns.n
            if delta is None:
                # Caught up by the next delta — unless no base exists yet
                # (deltas then start after this chunk, until the rewind).
                synced = synced and worker._base is not None
            elif synced:
                parent.apply_state_delta(delta)
                assert _deep_equal(parent.state_snapshot(), worker.pipeline.state_snapshot())
