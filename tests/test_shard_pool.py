"""Lifecycle + identity tests for the shard worker pool.

:class:`~repro.runtime.ShardPool` is the fork backend: pre-forked workers
that live for one run or are kept warm across runs, fed pipelined
chunks.  These tests pin the contract down:

* runs on every backend (in-process, fork workers for one run, fork
  workers kept warm) are **bit/stat-identical** to the single-pipeline
  oracle, including per-chunk incremental state-delta transport;
* a fork run that does not keep its workers leaves nothing behind — no
  child process, no pool thread — whether it returns or raises;
* a killed worker is detected, reported with its exit status, and
  replaced by a fresh fork;
* pool close is deterministic — bounded, idempotent, and safe under an
  abandoned mid-trace run;
* the ``pool=True`` surfaces on :class:`TaurusDataPlane`
  (``run`` / ``run_switch`` / ``run_multi`` / ``verify_equivalence``)
  match their run-scoped twins call for call.
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
from repro.runtime import PipelineShardWorker, ShardPool, WorkerCrash

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
MODES = {"in-process": "serial", "fork-run": "fork", "fork": "pool"}


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


class _Sleeper:
    """A worker context whose chunks take arbitrarily long (for close
    determinism under an abandoned run)."""

    def handle(self, kind, payload):
        if kind == "sleep":
            time.sleep(payload)
        return "done"


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

        Fresh forks per run start from the parent's accumulated state;
        warm workers accumulate their own and ship it chunk-delta by
        chunk-delta; the in-process loop mutates it in place.  All three
        must track the oracle across runs.
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
    """``executor="fork"`` without ``pool``: the workers' lifetime is one
    run, and the run cleans up after itself on every exit path.  A warm
    pool keeps its workers and writers, and a run adds one supervisor
    thread per shard for as long as it lasts."""

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

    @staticmethod
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

    @staticmethod
    def _assert_gone(pids):
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)  # reaped, not leaked

    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_returning_run_leaves_nothing_behind(
        self, blocks, shards, monkeypatch, new_threads
    ):
        pids = self._spy_on_spawns(monkeypatch)
        oracle = _oracle(blocks, slots=16, tables=True)
        runtime = _pooled_runtime(blocks, shards, 16, True, mode="fork-run")
        _assert_equivalent(oracle, runtime, _random_columns(41, 90))
        assert len(pids) == shards
        self._assert_gone(pids)
        assert new_threads() == []
        assert runtime.pool is None and runtime.pool_health is None

    def test_raising_run_leaves_nothing_behind(
        self, blocks, monkeypatch, new_threads
    ):
        pids = self._spy_on_spawns(monkeypatch)
        runtime = _pooled_runtime(blocks, 2, 16, True, mode="fork-run")

        def boom(*args, **kwargs):
            raise ValueError("chunk exploded")

        runtime.pipelines[1].process_trace_batch = boom  # inherited by the fork
        with pytest.raises(RuntimeError, match="chunk exploded"):
            runtime.process_trace(_random_columns(42, 90), chunk_size=16)
        assert len(pids) == 2
        self._assert_gone(pids)
        assert new_threads() == []

    @staticmethod
    def _two_app_fabric(quantized_dnn, seed, **backend):
        """A two-shard fork fabric of two anomaly-DNN apps, and a trace."""
        from repro.datasets import expand_to_packets, generate_connections
        from repro.runtime import FabricApp, MultiAppFabric

        trace = expand_to_packets(
            generate_connections(60, seed=seed), max_packets=200, seed=seed
        )
        apps = [
            FabricApp.from_quantized_dnn(quantized_dnn, name=name)
            for name in ("a", "b")
        ]
        fabric = MultiAppFabric(
            apps, shards=2, chunk_size=32, executor="fork", **backend
        )
        return fabric, trace

    def test_fabric_run_leaves_nothing_behind(
        self, quantized_dnn, monkeypatch, new_threads
    ):
        pids = self._spy_on_spawns(monkeypatch)
        fabric, trace = self._two_app_fabric(quantized_dnn, 43)
        fabric.run([trace, trace])
        assert len(pids) == 2
        self._assert_gone(pids)
        assert new_threads() == []
        with pytest.raises(ValueError, match="missing traces"):
            fabric.run({"a": trace})  # raises before any fork
        assert len(pids) == 2

    @staticmethod
    def _assert_warm_run_census(run, runner, new_threads):
        """``run()`` on a warm two-shard pool starts one supervisor per
        shard and nothing else, and leaves no thread behind — returning
        or raising."""
        run()  # workers forked, writers resident
        resident = new_threads()
        del new_threads.started[:]
        run()
        assert sorted(new_threads.started) == [
            "pool-supervise-0", "pool-supervise-1"
        ]
        assert new_threads() == resident

        def poisoned(slots, chunk):
            raise RuntimeError("staging blew up")
            yield

        runner()._requests = poisoned
        with pytest.raises(RuntimeError, match="staging blew up"):
            run()
        assert "chunk-prefetch" not in new_threads.started
        assert new_threads() == resident

    def test_warm_run_adds_one_thread_per_shard(self, blocks, new_threads):
        columns = _random_columns(44, 90)
        with _pooled_runtime(blocks, 2, 16, True, mode="fork") as runtime:
            self._assert_warm_run_census(
                lambda: runtime.process_trace(columns, chunk_size=16),
                lambda: runtime,
                new_threads,
            )

    def test_warm_fabric_run_adds_one_thread_per_shard(
        self, quantized_dnn, new_threads
    ):
        fabric, trace = self._two_app_fabric(quantized_dnn, 45, pool=True)
        with fabric:
            self._assert_warm_run_census(
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

    @pytest.mark.skipif(not HAS_FORK, reason="fork pool needs POSIX")
    def test_worker_crash_carries_exit_status(self):
        pool = ShardPool([_Sleeper()], mode="fork", close_timeout=0.5)
        with pool:
            os.kill(pool.worker_pids[0], signal.SIGKILL)
            pool.submit(0, "sleep", 0.0)
            with pytest.raises(WorkerCrash) as info:
                pool.collect(0)
            assert info.value.exit_status == -signal.SIGKILL
            assert info.value.signal_name == "SIGKILL"
            assert info.value.worker_index == 0
            # Human-readable report: signal by name, not a negative int.
            assert "SIGKILL" in str(info.value)
            assert str(pool.worker_pids[0]) in str(info.value)

    @pytest.mark.skipif(not HAS_FORK, reason="fork pool needs POSIX")
    def test_close_is_deterministic_under_abandoned_run(self):
        """Requests in flight, responses never collected, workers stuck
        mid-chunk: close() must still return within its bound and leave
        no child behind."""
        pool = ShardPool([_Sleeper(), _Sleeper()], mode="fork", close_timeout=0.5)
        pids = list(pool.worker_pids)
        pool.submit(0, "sleep", 30.0)
        pool.submit(0, "sleep", 30.0)  # queued behind the first
        pool.submit(1, "sleep", 30.0)
        time.sleep(0.2)  # workers are now parked inside their chunks
        t0 = time.perf_counter()
        pool.close()
        assert time.perf_counter() - t0 < 4.0
        for pid in pids:
            with pytest.raises(ProcessLookupError):
                os.kill(pid, 0)  # reaped, not leaked
        pool.close()  # idempotent
        with pytest.raises(RuntimeError, match="closed"):
            pool.submit(0, "sleep", 0.0)

    @pytest.mark.skipif(not HAS_FORK, reason="fork pool needs POSIX")
    def test_close_timeout_is_one_end_to_end_budget(self):
        """``close_timeout`` bounds a slot's *whole* teardown — writer
        join, reap, and worker close share one deadline instead of each
        burning a full budget in sequence (worst case used to be ~3x)."""
        pool = ShardPool([_Sleeper()], mode="fork", close_timeout=0.6)
        pool.submit(0, "sleep", 30.0)
        pool.submit(0, "sleep", 30.0)  # writer parked behind a stuck worker
        time.sleep(0.2)
        t0 = time.perf_counter()
        pool.close()
        elapsed = time.perf_counter() - t0
        assert elapsed < 1.5, (
            f"close took {elapsed:.2f}s; budget must be end-to-end, "
            "not per teardown phase"
        )

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
        outcome: dict = {}

        def run():
            try:
                outcome["value"] = pool.map_streams([(stream(), 2)])
            except BaseException as exc:
                outcome["error"] = exc

        caller = threading.Thread(target=run)
        caller.start()
        try:
            assert entered.wait(5.0)
            t0 = time.perf_counter()
            pool.close()
            assert time.perf_counter() - t0 < 1.5
            assert thrown == []
            caller.join(5.0)
            assert not caller.is_alive()
            assert thrown == []
            assert isinstance(outcome.get("error"), RuntimeError)
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

        class Echo:
            def handle(self, kind, payload):
                return payload

        def bad_stream():
            yield ("echo", 1)
            raise RuntimeError("staging blew up")

        with ShardPool([Echo()], mode=mode) as pool:
            with pytest.raises(RuntimeError, match="staging blew up"):
                pool.map_streams([(bad_stream(), 3)])
            assert pool.alive() == [True]
            # The conversation stayed in sync: new runs still work.
            assert pool.map_streams([(iter([("echo", 7)]), 1)]) == [[7]]

    @pytest.mark.skipif(not HAS_FORK, reason="fork pool needs POSIX")
    def test_failed_run_resyncs_parent_from_workers(self, blocks):
        """A run that fails after some chunks executed worker-side must
        not leave this process's pipelines behind the workers: the next
        (successful) run still matches the oracle exactly."""
        oracle = _oracle(blocks, slots=16, tables=True)
        runtime = _pooled_runtime(blocks, 2, slots=16, tables=True, mode="fork")
        with runtime:
            columns = _random_columns(seed=61, n=80)
            # Poison one chunk payload so dispatch fails mid-run on one
            # shard while other chunks have already executed.
            runner = runtime
            real_requests = runner._requests

            def poisoned(schedule, chunk):
                for i, request in enumerate(real_requests(schedule, chunk)):
                    if i == 1:
                        raise RuntimeError("poisoned chunk")
                    yield request

            runner._requests = poisoned
            with pytest.raises(RuntimeError):
                runtime.process_trace(columns, chunk_size=16)
            del runner._requests
            # The invariant the resync maintains: this process's
            # pipelines equal the workers', observable for observable,
            # even though the failed run's deltas were discarded.
            snapshots = runtime.pool.broadcast("snapshot")
            for pipe, per_app in zip(runtime.pipelines, snapshots):
                mine, theirs = pipe.state_snapshot(), per_app[0]
                assert mine["stats"] == theirs["stats"]
                for name, values in theirs["registers"].items():
                    assert np.array_equal(mine["registers"][name], values)
                assert mine["parser_packets"] == theirs["parser_packets"]
                assert mine["tables"] == theirs["tables"]
                assert mine["block"] == theirs["block"]
            # And after a rewind the pool serves a pristine run again.
            runtime.rewind_state()
            _assert_equivalent(oracle, runtime, columns, chunk_size=16)

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
        assert [slot.worker._exit_status for slot in pool._slots] == [0, 0, 0]

    @fork_only
    @pytest.mark.parametrize("mode", ["fork"])  # the one worker kind left
    def test_worker_exception_is_in_band(self, mode):
        """A handler exception fails the run but leaves the worker alive
        and the conversation in sync."""

        class Fragile:
            def handle(self, kind, payload):
                if kind == "boom":
                    raise ValueError("chunk exploded")
                return payload

        with ShardPool([Fragile()], mode=mode) as pool:
            with pytest.raises(RuntimeError, match="chunk exploded"):
                pool.broadcast("boom")
            assert pool.alive() == [True]
            assert pool.broadcast("echo", [41]) == [41]

    @fork_only
    def test_heartbeats_never_interleave_with_responses(self):
        """Heartbeat and response frames share one pipe, serialized by the
        worker's tx lock.  A one-microsecond switch interval, inherited by
        the fork, lets the heartbeat thread preempt a 4 KiB response
        between its header and body, so a dropped lock garbles a frame
        (with the lock dropped, ten rounds failed 20 runs of 20; one round
        failed 7 of 10)."""

        class Payload:
            def handle(self, kind, payload):
                return bytes([payload % 251]) * 4096

        requests = 3000
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            pool = ShardPool([Payload()], heartbeat_interval=0.0002)
        finally:
            sys.setswitchinterval(interval)
        with pool:
            for __ in range(10):
                stream = (("echo", i) for i in range(requests))
                (responses,) = pool.map_streams([(stream, requests)])
                assert responses == [bytes([i % 251]) * 4096 for i in range(requests)]
            assert pool.health.crashes == 0

    def test_pool_validation(self):
        with pytest.raises(ValueError, match="at least one"):
            ShardPool([])
        with pytest.raises(ValueError, match="unknown pool mode"):
            ShardPool([_Sleeper()], mode="hyperdrive")
        with pytest.raises(ValueError, match="window"):
            ShardPool([_Sleeper()], window=0)


class TestPooledDataPlane:
    @pytest.fixture()
    def small_trace(self, train_test_split):
        from repro.datasets import expand_to_packets

        __, test = train_test_split
        return expand_to_packets(test, max_packets=400, seed=51)

    def test_run_switch_repeated_matches_fork_per_run(
        self, quantized_dnn, small_trace
    ):
        from repro.testbed.dataplane import TaurusDataPlane

        plain = TaurusDataPlane(quantized_dnn, shards=2, executor="fork")
        # Heartbeats on (the default), then a quiet pool without them.
        for pool_options in (None, {"heartbeat_interval": None}):
            with TaurusDataPlane(
                quantized_dnn, shards=2, executor="fork", pool=True,
                pool_options=pool_options,
            ) as pooled:
                for __ in range(3):
                    expected = plain.run_switch(small_trace, chunk_size=64)
                    assert expected == pooled.run_switch(small_trace, chunk_size=64)
                    assert (
                        plain.last_modeled_drain_ns == pooled.last_modeled_drain_ns
                    )

    def test_run_and_verify_through_pool(self, quantized_dnn, small_trace):
        from repro.testbed.dataplane import TaurusDataPlane

        plain = TaurusDataPlane(quantized_dnn, shards=2)
        with TaurusDataPlane(quantized_dnn, shards=2, pool=True) as pooled:
            assert plain.run(small_trace, chunk_size=32) == pooled.run(
                small_trace, chunk_size=32
            )
            assert pooled.verify_equivalence(small_trace, chunk_size=32)

    def test_run_multi_reuses_and_resets_the_fabric(
        self, quantized_dnn, small_trace
    ):
        from repro.testbed.dataplane import TaurusDataPlane

        plain = TaurusDataPlane(quantized_dnn, shards=2)
        with TaurusDataPlane(quantized_dnn, shards=2, pool=True) as pooled:
            apps = [pooled.anomaly_app(), pooled.anomaly_app(name="anomaly2")]
            traces = [small_trace, small_trace]
            expected = plain.run_multi(apps, traces, chunk_size=64)
            first = pooled.run_multi(apps, traces, chunk_size=64)
            assert pooled.last_fabric is not None
            fabric = pooled.last_fabric
            second = pooled.run_multi(apps, traces, chunk_size=64)
            assert pooled.last_fabric is fabric  # cached, not rebuilt
            for outcome in (first, second):
                for name in expected.results:
                    assert np.array_equal(
                        expected.results[name].decisions,
                        outcome.results[name].decisions,
                    )
                    assert np.array_equal(
                        expected.results[name].ml_scores,
                        outcome.results[name].ml_scores,
                        equal_nan=True,
                    )
                assert outcome.drain_ns == expected.drain_ns
                assert outcome.reconfigurations == expected.reconfigurations


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
                assert _deep_equal(parent.state_snapshot(), worker.handle("snapshot", None))
