"""Always-on inference service: admission, overload, and fault composition.

The serving contract under test:

* admission is **explicit and deterministic** — a seeded bursty arrival
  schedule replayed against a virtual clock yields the exact same
  ACCEPTED / DEFERRED / SHED sequence every time, queues never exceed
  their bound (a submit at the bound is shed), and the counters account
  for every submit exactly;
* accepted chunks are **bit-identical to the batch oracle** — a fresh
  runtime replaying the completed chunks in recorded ``seq`` order
  reproduces every result exactly, *including* when a
  :class:`~repro.runtime.FaultPlan` is killing pool workers mid-service;
* shutdown is a graceful bounded drain;
* :class:`TestServiceStateMachine` drives all of it at once — submits,
  pumps, clock steps, injected failures, drain and close in any order —
  against a model that predicts every verdict, queue depth and ``seq``.
"""

import os
import threading
from collections import Counter, deque

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st
from hypothesis.stateful import (
    RuleBasedStateMachine,
    invariant,
    precondition,
    rule,
    run_state_machine_as_test,
)

from repro.hw import MapReduceBlock
from repro.mapreduce import dnn_graph
from repro.runtime import (
    ACCEPTED,
    DEFERRED,
    SHED,
    ClientSpec,
    FaultPlan,
    InferenceService,
    ShardedRuntime,
    VirtualClock,
)
from repro.runtime.health import PoolError, PoolHealth
from repro.runtime.service import _COUNTERS as COUNTERS
from repro.testbed import bursty_schedule, chunk_columns, replay_virtual, replay_wall

from test_shard_runtime import (
    BACKENDS,
    FIVE_TUPLE,
    backend_cases,
    _deep_equal,
    _oracle,
    _pipeline,
    _random_columns,
    _reset,
)

HAS_FORK = hasattr(os, "fork")
fork_only = pytest.mark.skipif(not HAS_FORK, reason="fault injection needs fork")

FAST_WATCHDOG = {"hang_timeout": 0.75, "retry_backoff": 0.01}

SLOTS = 32
CHUNK = 16


@pytest.fixture(scope="module")
def blocks(quantized_dnn):
    """Oracle block + up to four shard blocks, identically configured."""
    return [MapReduceBlock(dnn_graph(quantized_dnn)) for __ in range(5)]


def _runtime(blocks, shards=2, pool=None, pool_options=None) -> ShardedRuntime:
    """In process by default; ``pool`` picks a backend of
    ``test_shard_runtime.BACKENDS`` (``"fork"`` and ``"pool"`` are the
    fork pool's two spellings; the service closes it)."""
    for block in blocks[1 : shards + 1]:
        _reset(block)
    return ShardedRuntime(
        lambda i: _pipeline(blocks[i + 1], SLOTS, tables=False),
        shards=shards,
        pool_options=pool_options,
        **BACKENDS[pool or "serial"],
    )


def _service(backend, *, clock, depth=4, **spec_kw):
    return InferenceService(
        backend,
        [ClientSpec(name="tenant", queue_depth=depth, **spec_kw)],
        chunk_size=CHUNK,
        clock=clock,
    )


def _chunks(seed=11, n=160, size=20):
    return chunk_columns(_random_columns(seed=seed, n=n), size)


def _results_equal(a, b) -> bool:
    return (
        np.array_equal(a.order, b.order)
        and np.array_equal(a.times, b.times)
        and np.array_equal(a.decisions, b.decisions)
        and np.array_equal(a.ml_scores, b.ml_scores, equal_nan=True)
        and np.array_equal(a.latencies_ns, b.latencies_ns)
        and np.array_equal(a.bypassed, b.bypassed)
        and a.aggregates.keys() == b.aggregates.keys()
        and all(
            np.array_equal(a.aggregates[k], b.aggregates[k])
            for k in a.aggregates
        )
    )


# ----------------------------------------------------------------------
# PoolHealth.snapshot(): the copy stats() hands back
# ----------------------------------------------------------------------
class TestHealthWindows:
    def test_snapshot_is_a_deep_copy(self):
        health = PoolHealth.for_pool(2)
        mark = health.snapshot()
        health.worker(0).crashes += 3
        health.worker(1).replayed_chunks += 7
        assert mark.crashes == 0 and mark.replayed_chunks == 0
        assert health.crashes == 3 and health.replayed_chunks == 7


# ----------------------------------------------------------------------
# Admission control (virtual clock, manual pump)
# ----------------------------------------------------------------------
class TestAdmission:
    def test_reject_new_sheds_at_the_bound(self, blocks):
        clock = VirtualClock()
        with _service(_runtime(blocks), clock=clock, depth=2) as svc:
            chunks = _chunks()
            verdicts = [svc.submit("tenant", c).status for c in chunks[:4]]
            assert verdicts == [ACCEPTED, ACCEPTED, SHED, SHED]
            assert svc.stats().queue_depths["tenant"] == 2
            svc.pump(max_requests=1)
            assert svc.submit("tenant", chunks[4]).status == ACCEPTED

    def test_token_bucket_defers_with_retry_after(self, blocks):
        clock = VirtualClock()
        with _service(
            _runtime(blocks), clock=clock, depth=8, rate=10.0, burst=2.0
        ) as svc:
            chunks = _chunks()
            assert svc.submit("tenant", chunks[0]).accepted
            assert svc.submit("tenant", chunks[1]).accepted
            third = svc.submit("tenant", chunks[2])
            assert third.status == DEFERRED
            assert third.reason == "rate-limited"
            assert third.retry_after_s == pytest.approx(0.1)
            clock.advance(third.retry_after_s)
            assert svc.submit("tenant", chunks[2]).accepted
            assert svc.stats().deferred == 1

    def test_deadline_expires_queued_requests(self, blocks):
        clock = VirtualClock()
        with _service(_runtime(blocks), clock=clock, depth=8) as svc:
            chunks = _chunks()
            svc.submit("tenant", chunks[0], deadline_s=0.5)
            svc.submit("tenant", chunks[1], deadline_s=10.0)
            clock.advance(1.0)
            svc.pump()
            results = svc.take_results("tenant")
            assert [r.status for r in results] == ["expired", "completed"]
            stats = svc.stats()
            assert stats.expired == 1
            assert stats.completed == 1

    def test_draining_sheds_new_submits(self, blocks):
        clock = VirtualClock()
        with _service(_runtime(blocks), clock=clock) as svc:
            chunks = _chunks()
            svc.submit("tenant", chunks[0])
            stats = svc.drain()
            assert stats.completed == 1 and stats.queue_depths["tenant"] == 0
            late = svc.submit("tenant", chunks[1])
            assert late.status == SHED and late.reason == "draining"

    def test_unknown_client_raises(self, blocks):
        clock = VirtualClock()
        with _service(_runtime(blocks), clock=clock) as svc:
            with pytest.raises(KeyError):
                svc.submit("stranger", _chunks()[0])


@pytest.mark.parametrize(
    "counts, knobs, match",
    [
        ({"a": 5}, {"base_rate": 0.0}, "base_rate"),
        ({"a": 5}, {"burst_factor": 0.5}, "burst_factor"),
        ({"a": 5}, {"burst_every": -3}, "burst_every"),
        ({"a": 5}, {"burst_len": -2}, "burst_len"),
        ({"a": -5}, {}, "counts"),
    ],
)
def test_bursty_schedule_rejects_out_of_range_arguments(counts, knobs, match):
    """Bug: a negative burst knob silently turned bursts off and a negative
    count silently dropped its client."""
    with pytest.raises(ValueError, match=match):
        bursty_schedule(counts, **knobs)


# ----------------------------------------------------------------------
# Satellite: exact accounting under a seeded bursty arrival schedule
# ----------------------------------------------------------------------
def _run_schedule(blocks, seed):
    clock = VirtualClock()
    specs = [
        ClientSpec(
            name="alpha", queue_depth=3, rate=150.0, burst=4.0,
            result_depth=256,
        ),
        ClientSpec(name="beta", queue_depth=2, result_depth=256),
    ]
    svc = InferenceService(
        _runtime(blocks), specs, chunk_size=CHUNK, clock=clock,
    )
    chunks = {
        "alpha": _chunks(seed=seed, n=120, size=10),
        "beta": _chunks(seed=seed + 1, n=80, size=10),
    }
    schedule = bursty_schedule(
        {name: len(c) for name, c in chunks.items()},
        seed=seed, base_rate=400.0, burst_factor=20.0,
        burst_every=6, burst_len=4,
    )
    admissions = []
    for start in range(0, len(schedule), 3):  # one pump after every third arrival
        group = schedule[start : start + 3]
        admissions += replay_virtual(svc, group, chunks, clock)
        if len(group) == 3:
            svc.pump(max_requests=1)
    depths = svc.stats().queue_depths
    svc.drain()
    stats = svc.stats()
    results = svc.take_results()
    svc.close()
    return admissions, stats, results, depths


class TestExactAccounting:
    @settings(
        max_examples=6, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(seed=st.integers(min_value=0, max_value=10**6))
    def test_counters_account_for_every_submit(self, blocks, seed):
        admissions, stats, results, depths = _run_schedule(blocks, seed)
        by_status = {
            status: sum(1 for a in admissions if a.status == status)
            for status in (ACCEPTED, DEFERRED, SHED)
        }
        assert stats.submitted == len(admissions)
        assert stats.accepted == by_status[ACCEPTED]
        assert stats.deferred == by_status[DEFERRED]
        assert stats.shed == by_status[SHED]
        # Every accepted request's fate is delivered exactly once.
        assert stats.completed + stats.expired == stats.accepted
        fates = {r.request_id for r in results}
        accepted_ids = {a.request_id for a in admissions if a.accepted}
        assert fates == accepted_ids
        # Bounded queues: never deeper than the admission-time cap.
        assert all(depth <= 3 for depth in depths.values())
        assert stats.queue_depths == {"alpha": 0, "beta": 0}

    def test_schedule_replays_identically(self, blocks):
        first = _run_schedule(blocks, seed=1234)[0]
        second = _run_schedule(blocks, seed=1234)[0]
        assert [(a.status, a.client, a.reason) for a in first] == [
            (a.status, a.client, a.reason) for a in second
        ]

    def test_queue_never_exceeds_bound_mid_run(self, blocks):
        clock = VirtualClock()
        with _service(_runtime(blocks), clock=clock, depth=3) as svc:
            chunks = _chunks(n=200, size=10)
            for i, chunk in enumerate(chunks):
                clock.advance(0.001)
                svc.submit("tenant", chunk)
                assert svc.stats().queue_depths["tenant"] <= 3
                if i % 4 == 3:
                    svc.pump(max_requests=1)


# ----------------------------------------------------------------------
# The service as a state machine: a model predicts every verdict, queue
# depth and ``seq``; failures are injected through one shim backend
# ----------------------------------------------------------------------
DEPTHS = {"alpha": 2, "beta": 3}  # alpha is also rate-limited
RATE, BURST = 40.0, 2.0
STEPS, MAX_SIZE = 20, 24


class _Shim:
    """A runtime plus one failure armed for its next run: ``("raise", k)``
    scores the first ``k`` requests, then raises (``k=0``: before
    scoring); ``("callback", k)`` hands the runtime an ``on_result`` that
    raises on request ``k``."""

    def __init__(self, runtime):
        self.runtime, self.armed = runtime, None

    def process_traces(self, requests, chunk_size=None, on_result=None):
        # Unarmed is a callback that never raises.
        kind, k = self.armed or ("callback", len(requests))
        self.armed = None
        if kind == "raise":
            self.runtime.process_traces(requests[:k], chunk_size, on_result)
            raise RuntimeError(f"raised after {k} results")

        def flaky(index, result):
            if index == k:
                raise KeyError("lost callback")
            on_result(index, result)

        self.runtime.process_traces(requests, chunk_size, flaky)

    def close(self):
        self.runtime.close()


def _service_machine(blocks, pool=None):
    trace = _random_columns(seed=31, n=STEPS * 4 * MAX_SIZE)

    class ServiceMachine(RuleBasedStateMachine):
        def __init__(self):
            super().__init__()
            self.faults = FaultPlan() if pool else None
            options = pool and {"faults": self.faults, **FAST_WATCHDOG}
            self.shim = _Shim(_runtime(blocks, pool=pool, pool_options=options))
            self.clock = VirtualClock()
            self.svc = InferenceService(
                self.shim,
                [ClientSpec(name="alpha", queue_depth=DEPTHS["alpha"], rate=RATE,
                            burst=BURST, result_depth=256),
                 ClientSpec(name="beta", queue_depth=DEPTHS["beta"], result_depth=256)],
                chunk_size=CHUNK, clock=self.clock,
            )
            self.oracle = _oracle(blocks, SLOTS, tables=False)
            self.queues = {name: deque() for name in DEPTHS}
            self.tokens, self.stamp, self.draining = BURST, 0.0, False
            self.rr = self.seq = self.rows = 0
            self.verdicts = Counter()
            self.chunks = {}  # accepted request id -> its columns
            self.expect = {}  # request id -> (status, seq), predicted at the pop
            self.fates = {}   # request id -> its delivered ServiceResult
            self.exact_below = float("inf")  # seqs the oracle still vouches for

        def teardown(self):
            self.svc.close()

        def _token(self, now):
            self.tokens = min(BURST, self.tokens + (now - self.stamp) * RATE)
            self.stamp = now
            if self.tokens < 1.0:
                return False
            self.tokens -= 1.0
            return True

        def _pop(self, limit):
            """Round-robin from ``rr``; deadlines are judged at the pop."""
            names, popped, batch = list(DEPTHS), 0, []
            while limit is None or popped < limit:
                turns = [(self.rr + step) % 2 for step in range(2)]
                ready = [turn for turn in turns if self.queues[names[turn]]]
                if not ready:
                    break
                self.rr = (ready[0] + 1) % 2
                rid, deadline_at = self.queues[names[ready[0]]].popleft()
                popped += 1
                if deadline_at is not None and self.clock() > deadline_at:
                    self.expect[rid] = ("expired", -1)
                else:
                    self.expect[rid] = ("completed", self.seq)
                    self.seq += 1
                    batch.append(rid)
            return popped, batch

        @rule(client=st.sampled_from(sorted(DEPTHS)), deadline=st.none() | st.sampled_from(
            [0.0, 0.01]), burst=st.lists(st.integers(1, MAX_SIZE), min_size=1, max_size=4))
        def submit(self, client, deadline, burst):
            """A burst of back-to-back submits: the bucket and the bound bite."""
            for size in burst:
                chunk = trace.slice(slice(self.rows, self.rows + size))
                self.rows += size
                verdict, now = self.svc.submit(client, chunk, deadline_s=deadline), self.clock()
                if self.draining:
                    want = (SHED, "draining")
                elif client == "alpha" and not self._token(now):
                    want = (DEFERRED, "rate-limited")
                elif len(self.queues[client]) >= DEPTHS[client]:
                    want = (SHED, "queue-full")
                else:
                    want = (ACCEPTED, "")
                    deadline_at = None if deadline is None else now + deadline
                    self.queues[client].append((verdict.request_id, deadline_at))
                    self.chunks[verdict.request_id] = chunk
                assert (verdict.status, verdict.reason, verdict.request_id) == (
                    *want, sum(self.verdicts.values()))
                self.verdicts[want[0]] += 1

        @rule(dt=st.sampled_from([0.004, 0.03, 0.2]))
        def advance(self, dt):
            self.clock.advance(dt)

        @precondition(lambda self: any(self.queues.values()))
        @rule(limit=st.none() | st.integers(1, 4), fail=st.none() | st.tuples(
            st.sampled_from(["raise", "callback"]), st.integers(0, 3)))
        def pump(self, limit, fail):
            self.shim.armed = fail
            popped, batch = self._pop(limit)
            assert self.svc.pump(limit) == popped
            self.shim.armed = None
            if fail and batch:
                kind, k = fail
                for rid in batch[k:]:
                    self.expect[rid] = ("failed", self.expect[rid][1])
                if kind == "callback" and k < len(batch):  # it scored, then was lost
                    self.exact_below = min(self.exact_below, self.expect[batch[k]][1])

        @precondition(lambda self: self.faults is not None)
        @rule(worker=st.integers(0, 1), ordinal=st.integers(0, 1))
        def kill(self, worker, ordinal):
            self.faults.add(worker=worker, ordinal=ordinal, kind="kill")

        @precondition(lambda self: sum(self.verdicts.values()) >= 8)
        @rule(close=st.booleans())
        def drain(self, close):
            self.draining = True
            self._pop(None)
            if close:
                self.svc.close()
            else:
                self.svc.drain()
            self._collect()
            assert self.fates.keys() == self.chunks.keys(), "a fate is missing"

        def _collect(self):
            for record in sorted(self.svc.take_results(), key=lambda r: r.seq):
                rid, result = record.request_id, record.result
                assert rid not in self.fates, f"request {rid} delivered twice"
                self.fates[rid] = record
                if record.status == "completed":
                    chunk = self.chunks[rid]
                    assert np.array_equal(result.times, chunk.times[result.order])
                    if record.seq < self.exact_below:
                        expected = self.oracle.process_trace_batch(chunk, chunk_size=CHUNK)
                        assert _results_equal(expected, result)

        @invariant()
        def accounted(self):
            self._collect()
            stats, fates = self.svc.stats(), Counter(s for s, __ in self.expect.values())
            queued = {name: len(queue) for name, queue in self.queues.items()}
            assert stats.queue_depths == queued
            assert all(queued[name] <= depth for name, depth in DEPTHS.items())
            assert stats.submitted == stats.accepted + stats.deferred + stats.shed
            assert stats.accepted == (
                stats.completed + stats.failed + stats.expired + sum(queued.values()))
            assert (stats.accepted, stats.deferred, stats.shed) == (
                self.verdicts[ACCEPTED], self.verdicts[DEFERRED], self.verdicts[SHED])
            assert (stats.completed, stats.failed, stats.expired) == (
                fates["completed"], fates["failed"], fates["expired"])
            assert {rid: (r.status, r.seq) for rid, r in self.fates.items()} == self.expect

    return ServiceMachine


class TestServiceStateMachine:
    def test_in_process(self, blocks):
        run_state_machine_as_test(
            _service_machine(blocks),
            settings=settings(max_examples=100, stateful_step_count=STEPS, deadline=None),
        )

    @fork_only
    def test_on_the_pool_with_kills(self, blocks):
        run_state_machine_as_test(
            _service_machine(blocks, pool="pool"),
            settings=settings(max_examples=10, stateful_step_count=STEPS, deadline=None),
        )

    def test_close_from_a_second_thread(self, blocks):
        """A started service closed from another thread while a producer
        submits: ``>=`` while it runs (a batch may be in flight), ``==``
        and one fate per accepted request after close."""
        import time as _time

        chunks = _chunks(seed=13, n=6000, size=10)
        svc = InferenceService(
            _runtime(blocks),
            [ClientSpec(name="alpha", queue_depth=2, rate=500.0, burst=4.0,
                        result_depth=len(chunks)),
             ClientSpec(name="beta", queue_depth=3, result_depth=len(chunks))],
            chunk_size=CHUNK,
        ).start()
        admissions, running = [], []

        def produce():
            for i, chunk in enumerate(chunks):
                admissions.append(svc.submit(("alpha", "beta")[i % 2], chunk))
                running.append(svc.stats())
                _time.sleep(0.0005)

        producer = threading.Thread(target=produce)
        closer = threading.Thread(target=svc.close)
        producer.start()
        _time.sleep(0.1)
        closer.start()
        for thread in (closer, producer):
            thread.join(timeout=15.0)
            assert not thread.is_alive(), "close deadlocked"
        for stats in running:
            assert stats.submitted == stats.accepted + stats.deferred + stats.shed
            assert stats.accepted >= (stats.completed + stats.failed + stats.expired
                                      + sum(stats.queue_depths.values()))
        stats = svc.stats()
        accepted = sorted(a.request_id for a in admissions if a.accepted)
        assert stats.accepted == stats.completed == len(accepted)
        assert not any(stats.queue_depths.values())
        assert sorted(r.request_id for r in svc.take_results()) == accepted


# ----------------------------------------------------------------------
# Satellite: accepted chunks bit-identical to the oracle, faults active
# ----------------------------------------------------------------------
def _serve_and_replay(blocks, pool, pool_options=None, shards=2):
    """Serve chunks through a pooled service, then replay the completed
    sequence on the fresh single-pipeline oracle; returns result pairs."""
    clock = VirtualClock()
    chunks = _chunks(seed=29, n=240, size=24)
    svc = _service(
        _runtime(blocks, shards=shards, pool=pool, pool_options=pool_options),
        clock=clock, depth=len(chunks),
    )
    admissions = []
    for chunk in chunks:
        clock.advance(0.002)
        admissions.append(svc.submit("tenant", chunk))
    assert all(a.accepted for a in admissions)
    svc.drain()
    results = [r for r in svc.take_results() if r.status == "completed"]
    stats = svc.stats()
    svc.close()
    assert len(results) == len(chunks)

    oracle = _oracle(blocks, SLOTS, tables=False)
    pairs = []
    for record in sorted(results, key=lambda r: r.seq):
        expected = oracle.process_trace_batch(
            chunks[record.request_id], chunk_size=CHUNK
        )
        pairs.append((expected, record.result))
    return pairs, stats


class TestServedResultsIdentity:
    @pytest.mark.parametrize("backend, shards", backend_cases())
    def test_served_results_match_oracle(self, blocks, backend, shards):
        """Every accepted chunk's result == the oracle replaying the
        recorded scoring order, whichever backend scores the requests."""
        pairs, __ = _serve_and_replay(blocks, pool=backend, shards=shards)
        assert all(_results_equal(e, g) for e, g in pairs)

    @fork_only
    def test_crash_injected_service_matches_oracle(self, blocks):
        """A worker SIGKILLed mid-service recovers transparently: every
        accepted chunk's result still matches the unfaulted oracle."""
        # Ordinals count per map_streams run, and every service request is
        # its own run — ordinal 0 is each worker's first chunk of the
        # first request it serves after the plan is armed.
        plan = (
            FaultPlan()
            .add(worker=0, ordinal=0, kind="kill")
            .add(worker=1, ordinal=0, kind="kill")
        )
        pairs, stats = _serve_and_replay(
            blocks, pool="pool",
            pool_options={"faults": plan, **FAST_WATCHDOG},
        )
        assert stats.pool is not None and stats.pool.crashes >= 2
        assert stats.pool.restarts >= 2
        assert all(_results_equal(e, g) for e, g in pairs)

    @fork_only
    def test_admission_keeps_answering_during_recovery(self, blocks):
        """The ingress gate answers while the pool replaces a dead worker:
        a hang fault stalls scoring ~0.75 s, but submits stay instant."""
        import time as _time

        plan = FaultPlan().add(worker=0, ordinal=0, kind="hang", seconds=30.0)
        chunks = _chunks(seed=5, n=120, size=24)
        svc = _service(
            _runtime(blocks, pool="pool",
                     pool_options={"faults": plan, **FAST_WATCHDOG}),
            clock=VirtualClock(), depth=len(chunks),
        )
        try:
            for chunk in chunks[:2]:
                svc.submit("tenant", chunk)
            svc.start()
            _time.sleep(0.2)  # dispatcher is now stuck in the hang window
            t0 = _time.monotonic()
            verdict = svc.submit("tenant", chunks[2])
            elapsed = _time.monotonic() - t0
            assert verdict.accepted
            assert elapsed < 0.2, "admission blocked behind recovery"
            svc.drain()
            done = [r for r in svc.take_results() if r.status == "completed"]
            assert len(done) == 3
            assert svc.stats().pool.hangs >= 1
        finally:
            svc.close()


# ----------------------------------------------------------------------
# Multi-tenant fabric serving (anomaly DNN + IoT KMeans)
# ----------------------------------------------------------------------
class TestMultiTenantFabric:
    def test_two_tenant_fabric_identity(self, quantized_dnn):
        """Two clients on two apps through one pooled fabric: every
        completed chunk matches a fresh fabric replaying the recorded
        scoring order — the IoT KMeans app rides the shared
        ``action_postprocess`` hook pair (no per-row fallback)."""
        from repro.datasets import iot_cluster_dataset, iot_packet_trace
        from repro.ml import KMeans
        from repro.runtime import FabricApp, MultiAppFabric

        feats, __ = iot_cluster_dataset(400, seed=3)
        km = KMeans(n_clusters=5, seed=0).fit(feats)

        def make_fabric(pool):
            return MultiAppFabric(
                [
                    FabricApp.from_quantized_dnn(quantized_dnn),
                    FabricApp.from_kmeans(km),
                ],
                shards=2,
                pool=pool,
            )

        anomaly_chunks = _chunks(seed=17, n=120, size=20)
        iot_chunks = chunk_columns(iot_packet_trace(120, seed=4), 20)
        clock = VirtualClock()
        svc = InferenceService(
            make_fabric(HAS_FORK),
            [
                ClientSpec(name="secops", app="anomaly", queue_depth=16),
                ClientSpec(name="iot-floor", app="iot", queue_depth=16),
            ],
            chunk_size=CHUNK,
            clock=clock,
        )
        submitted = {}
        for a, b in zip(anomaly_chunks, iot_chunks):
            clock.advance(0.001)
            ra = svc.submit("secops", a)
            submitted[ra.request_id] = ("anomaly", a)
            rb = svc.submit("iot-floor", b)
            submitted[rb.request_id] = ("iot", b)
        svc.drain()
        results = [r for r in svc.take_results() if r.status == "completed"]
        assert len(results) == len(submitted)
        kmeans_decisions = np.concatenate(
            [
                r.result.decisions
                for r in results
                if submitted[r.request_id][0] == "iot"
            ]
        )
        assert set(np.unique(kmeans_decisions)) <= set(range(5))
        assert len(np.unique(kmeans_decisions)) >= 2  # nontrivial clustering
        svc.close()

        oracle = make_fabric(None)
        for rec in sorted(results, key=lambda r: r.seq):
            app, cols = submitted[rec.request_id]
            empty = cols.slice(slice(0, 0))
            traces = {
                a.name: (cols if a.name == app else empty)
                for a in oracle.apps
            }
            expected = oracle.run(traces, chunk_size=CHUNK).results[app]
            assert _results_equal(expected, rec.result)
        oracle.close()


# ----------------------------------------------------------------------
# Lifecycle: threaded dispatch, graceful drain
# ----------------------------------------------------------------------
class TestLifecycle:
    def test_threaded_service_round_trip(self, blocks):
        import time as _time

        svc = _service(_runtime(blocks), clock=_time.monotonic, depth=8)
        try:
            svc.start()
            chunks = _chunks(n=80, size=20)
            for chunk in chunks:
                assert svc.submit("tenant", chunk).accepted
            deadline = _time.monotonic() + 10.0
            collected = []
            while len(collected) < len(chunks) and _time.monotonic() < deadline:
                collected.extend(svc.take_results("tenant"))
                _time.sleep(0.01)
            assert len(collected) == len(chunks)
            assert all(r.status == "completed" for r in collected)
            assert all(r.time_to_decision_s >= 0 for r in collected)
        finally:
            svc.close()

        # The same behind the wall-clock producer: a bursty two-client
        # schedule whose bursts overrun the queues on most hosts — which
        # arrivals are shed is up to the host, the contract is not.
        chunks = {
            "alpha": _chunks(seed=3, n=600, size=20),
            "beta": _chunks(seed=4, n=400, size=20),
        }
        schedule = bursty_schedule(
            {name: len(c) for name, c in chunks.items()},
            seed=7, base_rate=1000.0, burst_factor=20.0, burst_every=6, burst_len=4,
        )
        svc = InferenceService(
            _runtime(blocks),
            [ClientSpec(name=name, queue_depth=3, result_depth=len(c))
             for name, c in chunks.items()],
            chunk_size=CHUNK, clock=_time.monotonic,
        )
        try:
            svc.start()
            admissions = replay_wall(svc, schedule, chunks)
            svc.drain(timeout=10.0)
            results = svc.take_results()
        finally:
            svc.close()
        assert [a.client for a in admissions] == [a.client for a in schedule]
        assert all(a.status in (ACCEPTED, DEFERRED, SHED) for a in admissions)
        accepted = {
            verdict.request_id: chunks[arrival.client][arrival.chunk]
            for verdict, arrival in zip(admissions, schedule) if verdict.accepted
        }
        assert accepted
        assert sorted(r.request_id for r in results) == sorted(accepted)
        oracle = _oracle(blocks, SLOTS, tables=False)
        for record in sorted(results, key=lambda r: r.seq):
            assert record.status == "completed"
            expected = oracle.process_trace_batch(
                accepted[record.request_id], chunk_size=CHUNK
            )
            assert _results_equal(expected, record.result)

    def test_close_is_idempotent_and_closes_backend(self, blocks):
        clock = VirtualClock()
        runtime = _runtime(blocks, pool="pool" if HAS_FORK else None)
        svc = _service(runtime, clock=clock)
        svc.submit("tenant", _chunks()[0])
        svc.close()
        svc.close()
        assert runtime.pool is None or runtime.pool._closed

    def test_results_buffer_is_bounded(self, blocks):
        clock = VirtualClock()
        with InferenceService(
            _runtime(blocks),
            [ClientSpec(name="tenant", queue_depth=4, result_depth=2)],
            chunk_size=CHUNK,
            clock=clock,
        ) as svc:
            chunks = _chunks(n=80, size=20)
            for chunk in chunks[:4]:
                svc.submit("tenant", chunk)
            svc.pump()
            results = svc.take_results("tenant")
            assert len(results) == 2  # oldest two were dropped, counted
            assert svc.stats().results_dropped == 2

    def test_max_items_takes_the_globally_oldest_first(self, blocks):
        """Regression: with no client named, ``max_items`` filled up from
        the first-registered client and sorted afterwards, handing out a
        newer result while an older one stayed queued."""
        clock = VirtualClock()
        with InferenceService(
            _runtime(blocks),
            [ClientSpec(name="A", queue_depth=4), ClientSpec(name="B", queue_depth=4)],
            chunk_size=CHUNK,
            clock=clock,
        ) as svc:
            chunks = _chunks()
            svc.submit("B", chunks[0])
            svc.pump()  # B decided at t=0
            clock.advance(1.0)
            svc.submit("A", chunks[1])
            svc.pump()  # A decided at t=1
            (first,) = svc.take_results(max_items=1)
            assert (first.client, first.decided_at) == ("B", 0.0)
            (rest,) = svc.take_results()
            assert (rest.client, rest.decided_at) == ("A", 1.0)

    def test_failed_request_reports_its_time_to_decision(self):
        """A run the pool gives up on is delivered as ``failed`` with the
        same accounting as every other fate, and the service carries on."""

        class FailsOnce:
            calls = 0

            def process_traces(self, requests, chunk_size=None, on_result=None):
                self.calls += 1
                if self.calls == 1:
                    raise PoolError("every worker is gone")
                for k, columns in enumerate(requests):
                    on_result(k, columns.n)

        clock = VirtualClock()
        with _service(FailsOnce(), clock=clock) as svc:
            chunks = _chunks()
            svc.submit("tenant", chunks[0])
            svc.submit("tenant", chunks[1])
            clock.advance(0.25)
            # One request per run: a failed run fails its whole batch.
            assert svc.pump(max_requests=1) == 1
            assert svc.pump() == 1
            failed, completed = svc.take_results("tenant")
            assert (failed.status, failed.seq) == ("failed", 0)
            assert failed.error == "PoolError: every worker is gone"
            assert failed.time_to_decision_s == failed.decided_at - failed.enqueued_at
            assert failed.time_to_decision_s == 0.25
            assert (completed.status, completed.seq) == ("completed", 1)
            assert completed.result == chunks[1].n
            stats = svc.stats()
            assert (stats.failed, stats.completed) == (1, 1)


# ----------------------------------------------------------------------
# Batched dispatch: pump() on a backlog is one run, and changes nothing
# ----------------------------------------------------------------------

def _cut(columns, plan):
    """Consecutive pieces of ``columns``, one per ``(size, one_flow)``; a
    one-flow piece has a single five-tuple, so it lands on one shard."""
    pieces, start = [], 0
    for size, one_flow in plan:
        piece = columns.slice(slice(start, start + size))
        start += size
        if one_flow and size:
            piece = piece.take(np.arange(size))  # own arrays: edited below
            for name in FIVE_TUPLE:
                piece.headers[name][:] = piece.headers[name][0]
        pieces.append(piece)
    return pieces


def _drive(svc, offers, state_of, one_at_a_time):
    """Submit every ``(client, columns)`` offer, then dispatch: the whole
    backlog per ``pump()``, or ``pump(max_requests=1)`` until dry."""
    for client, columns in offers:
        svc.submit(client, columns)
    if one_at_a_time:
        while svc.pump(max_requests=1):
            pass
    else:
        svc.pump()
    stats = svc.stats()
    results = {r.request_id: r for r in svc.take_results()}
    state = state_of()
    svc.close()
    return results, stats, state


def _assert_same_service_outcome(batched, single):
    (got, got_stats, got_state), (want, want_stats, want_state) = batched, single
    assert got.keys() == want.keys()
    for rid, expected in want.items():
        record = got[rid]
        assert (record.status, record.seq, record.n_packets) == (
            expected.status, expected.seq, expected.n_packets
        ), rid
        if expected.status == "completed":
            assert _results_equal(expected.result, record.result), rid
    for name in COUNTERS:
        assert getattr(got_stats, name) == getattr(want_stats, name), name
    assert _deep_equal(got_state, want_state)


request_plans = st.lists(
    st.tuples(
        st.sampled_from(["alpha", "beta"]),
        st.integers(min_value=0, max_value=3 * CHUNK),
        st.booleans(),
    ),
    min_size=1, max_size=9,
)


class TestBatchEqualsOneAtATime:
    """``pump()`` on the whole backlog (one backend run) against
    ``pump(max_requests=1)`` in a loop (one run per request): same
    results per request, same ``seq``, same merged state, same counters."""

    @staticmethod
    def _two_clients(backend, depth):
        # Depth 2 sheds part of most plans, so SHED is inside the comparison.
        return InferenceService(
            backend,
            [ClientSpec(name=name, queue_depth=depth, result_depth=64)
             for name in ("alpha", "beta")],
            chunk_size=CHUNK,
            clock=VirtualClock(),
        )

    @pytest.mark.parametrize("backend, shards", backend_cases())
    @settings(
        max_examples=5, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(plan=request_plans, seed=st.integers(0, 10**6),
           depth=st.sampled_from([2, 8]))
    def test_sharded_runtime(self, blocks, backend, shards, plan, seed, depth):
        columns = _random_columns(seed=seed, n=sum(size for __, size, __ in plan))
        pieces = _cut(columns, [(size, one) for __, size, one in plan])
        offers = [(client, piece) for (client, __, __), piece in zip(plan, pieces)]
        outcomes = []
        for one_at_a_time in (False, True):
            runtime = _runtime(blocks, shards=shards, pool=backend)
            outcomes.append(
                _drive(self._two_clients(runtime, depth), offers,
                       runtime.merged_state, one_at_a_time)
            )
        _assert_same_service_outcome(*outcomes)

    @pytest.fixture(scope="class")
    def tenants(self, quantized_dnn):
        """(fabric apps factory, per-app packet columns) for two tenants."""
        from repro.datasets import iot_cluster_dataset, iot_packet_trace
        from repro.ml import KMeans
        from repro.runtime import FabricApp

        feats, __ = iot_cluster_dataset(400, seed=3)
        km = KMeans(n_clusters=5, seed=0).fit(feats)
        traces = {
            "alpha": _random_columns(seed=41, n=27 * CHUNK),
            "beta": chunk_columns(iot_packet_trace(27 * CHUNK, seed=4), 27 * CHUNK)[0],
        }

        def apps():
            return [FabricApp.from_quantized_dnn(quantized_dnn),
                    FabricApp.from_kmeans(km)]

        return apps, traces

    @pytest.mark.parametrize(
        "backend, shards",
        [pytest.param(name, shards, id=f"{name}-{shards}",
                      marks=() if name == "serial" else fork_only)
         for name in ("serial", "pool") for shards in (1, 2)],
    )
    @settings(
        max_examples=4, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(plan=request_plans, depth=st.sampled_from([2, 8]))
    def test_two_tenant_fabric(self, tenants, backend, shards, plan, depth):
        from repro.runtime import MultiAppFabric

        apps, traces = tenants
        offers, cursor = [], {"alpha": 0, "beta": 0}
        for client, size, __ in plan:
            start = cursor[client]
            cursor[client] += size
            offers.append((client, traces[client].slice(slice(start, start + size))))
        outcomes = []
        for one_at_a_time in (False, True):
            fabric = MultiAppFabric(apps(), shards=shards, **BACKENDS[backend])
            svc = InferenceService(
                fabric,
                [ClientSpec(name="alpha", app="anomaly", queue_depth=depth,
                            result_depth=64),
                 ClientSpec(name="beta", app="iot", queue_depth=depth,
                            result_depth=64)],
                chunk_size=CHUNK,
                clock=VirtualClock(),
            )
            outcomes.append(
                _drive(
                    svc, offers,
                    lambda: {name: fabric.app_state(name) for name in ("anomaly", "iot")},
                    one_at_a_time,
                )
            )
        _assert_same_service_outcome(*outcomes)

    @fork_only
    @pytest.mark.parametrize("seed", [3, 11])
    def test_faults_past_ordinal_zero_are_transparent(self, blocks, seed):
        """Kills and torn frames on a lane's later chunks — unreachable
        while every request was its own run — still leave every result
        equal to the unfaulted one-at-a-time service's."""
        rng = np.random.default_rng(seed)
        plan_of_requests = [("alpha", 24, False)] * 10
        columns = _random_columns(seed=seed, n=240)
        pieces = _cut(columns, [(size, one) for __, size, one in plan_of_requests])
        offers = [("alpha", piece) for piece in pieces]
        faults = FaultPlan()
        scheduled = []
        for worker in (0, 1):
            for ordinal, kind in zip(
                rng.choice(np.arange(1, 8), size=2, replace=False),
                ("kill", "torn_frame"),
            ):
                faults.add(worker=worker, ordinal=int(ordinal), kind=kind)
                scheduled.append((worker, int(ordinal), kind))
        faulted = _runtime(
            blocks, pool="pool", pool_options={"faults": faults, **FAST_WATCHDOG}
        )
        batched = _drive(self._two_clients(faulted, 16), offers,
                         faulted.merged_state, one_at_a_time=False)
        assert sorted(faults.fired) == sorted(scheduled)
        assert batched[1].pool.crashes >= 4
        assert batched[1].pool.replayed_chunks >= 1
        oracle = _runtime(blocks)
        single = _drive(self._two_clients(oracle, 16), offers,
                        oracle.merged_state, one_at_a_time=True)
        assert all(r.status == "completed" for r in batched[0].values())
        # Pool health differs by design; everything else must not.
        _assert_same_service_outcome(batched, single)


class TestBatchDelivery:
    """What a batch may not change: per-request delivery, exactly-once
    fates under failure, ``max_requests``, deadlines judged at the pop."""

    @fork_only
    def test_results_stream_out_in_seq_order_before_the_batch_ends(self, blocks):
        import threading
        import time as _time

        chunks = _chunks(seed=7, n=6 * CHUNK, size=CHUNK)  # one chunk each
        # One lane, so chunk ordinal k is request k: stall the last one.
        plan = FaultPlan().add(
            worker=0, ordinal=len(chunks) - 1, kind="delay", seconds=1.0
        )
        svc = _service(
            _runtime(blocks, shards=1, pool="pool", pool_options={"faults": plan}),
            clock=_time.monotonic, depth=len(chunks),
        )
        try:
            for chunk in chunks:
                assert svc.submit("tenant", chunk).accepted
            pumping = threading.Thread(target=svc.pump)
            pumping.start()
            early = []
            deadline = _time.monotonic() + 10.0
            while not early and _time.monotonic() < deadline:
                early = svc.take_results("tenant")
                _time.sleep(0.002)
            still_pumping = pumping.is_alive()
            pumping.join(timeout=30.0)
            assert not pumping.is_alive()
            assert early and still_pumping, "nothing delivered before batch end"
            assert plan.fired == [(0, len(chunks) - 1, "delay")]
            results = early + svc.take_results("tenant")
            assert [r.seq for r in results] == list(range(len(chunks)))
            assert all(r.status == "completed" for r in results)
            decided = [r.decided_at for r in results]
            assert decided == sorted(decided)
            assert decided[-1] - decided[0] >= 0.5  # not stamped at batch end
        finally:
            svc.close()

    @fork_only
    def test_poison_chunk_fails_the_rest_of_its_batch_once_each(self, blocks):
        poisoned = 2
        columns = _random_columns(seed=23, n=8 * CHUNK)
        chunks = [columns.slice(slice(k * CHUNK, (k + 1) * CHUNK)) for k in range(8)]
        for chunk in chunks:  # one chunk per lane per request: ordinal == request
            assert set(chunk.shard_assignments(2, SLOTS)) == {0, 1}
        plan = FaultPlan().add(worker=0, ordinal=poisoned, kind="kill", times=100)
        runtime = _runtime(
            blocks, pool="pool", pool_options={"faults": plan, **FAST_WATCHDOG}
        )
        clock = VirtualClock()
        with _service(runtime, clock=clock, depth=8) as svc:
            first = [svc.submit("tenant", chunk) for chunk in chunks[:5]]
            clock.advance(0.25)
            assert svc.pump() == 5
            results = svc.take_results("tenant")
            assert [r.request_id for r in results] == [a.request_id for a in first]
            assert [r.status for r in results] == ["completed"] * poisoned + [
                "failed"] * (5 - poisoned)
            assert [r.seq for r in results] == list(range(5))
            for r in results[poisoned:]:
                assert r.error.startswith("PoisonChunk: ")
                assert r.time_to_decision_s == r.decided_at - r.enqueued_at == 0.25
            queued = svc.submit("tenant", chunks[5])
            stats = svc.stats()
            assert (stats.completed, stats.failed) == (poisoned, 5 - poisoned)
            assert stats.accepted == (
                stats.completed + stats.failed + stats.expired
                + sum(stats.queue_depths.values())
            )
            # This process's lanes are the truth (lane 0 kept its chunks
            # before the poison, lane 1 all five; the poisoned worker was
            # re-forked from them): an in-process runtime restored to
            # them is the oracle for what the dispatcher serves next.
            plan.add(worker=0, ordinal=poisoned, kind="delay")  # disarm the kill
            oracle = _runtime(blocks)
            for mine, theirs in zip(oracle.pipelines, runtime.pipelines):
                mine.restore_state(theirs.state_snapshot())
            svc.submit("tenant", chunks[6])
            assert svc.pump() == 2
            after = svc.take_results("tenant")
            assert [r.status for r in after] == ["completed", "completed"]
            assert after[0].request_id == queued.request_id
            for record, chunk in zip(after, chunks[5:7]):
                expected = oracle.process_trace(chunk, chunk_size=CHUNK)
                assert _results_equal(expected, record.result)
            assert _deep_equal(
                runtime.merged_state()["registers"],
                oracle.merged_state()["registers"],
            )

    def test_any_backend_exception_fails_the_batch_and_service_lives(self):
        """Not only ``PoolError``: whatever the backend raises, delivered
        requests stay completed, the rest fail once, dispatch carries on."""

        class RaisesMidBatch:
            calls = 0

            def process_traces(self, requests, chunk_size=None, on_result=None):
                self.calls += 1
                for k, columns in enumerate(requests):
                    if self.calls == 1 and k == 1:
                        raise ValueError("bad lane")
                    on_result(k, columns.n)

        clock = VirtualClock()
        with _service(RaisesMidBatch(), clock=clock, depth=8) as svc:
            chunks = _chunks()
            for chunk in chunks[:3]:
                svc.submit("tenant", chunk)
            assert svc.pump() == 3
            done, failed, also_failed = svc.take_results("tenant")
            assert (done.status, done.seq) == ("completed", 0)
            assert [(r.status, r.seq, r.error) for r in (failed, also_failed)] == [
                ("failed", 1, "ValueError: bad lane"),
                ("failed", 2, "ValueError: bad lane"),
            ]
            svc.submit("tenant", chunks[3])
            assert svc.pump() == 1
            (later,) = svc.take_results("tenant")
            assert (later.status, later.seq) == ("completed", 3)
            stats = svc.stats()
            assert (stats.accepted, stats.completed, stats.failed) == (4, 2, 2)

    @pytest.mark.parametrize("backend", ["serial", pytest.param("pool", marks=fork_only)])
    def test_a_lost_delivery_never_shifts_results_onto_other_requests(
        self, blocks, backend
    ):
        """A completion callback that raises on request ``k`` (on a pool
        the supervisor only records it and keeps acking): ``k`` and every
        later request fail once, none is handed its neighbour's result."""

        class LosesOne:
            def __init__(self, runtime, lost):
                self.runtime, self.lost = runtime, lost

            def process_traces(self, requests, chunk_size=None, on_result=None):
                def flaky(k, result):
                    if k == self.lost:
                        self.lost = None
                        raise KeyError("mislaid")
                    on_result(k, result)

                return self.runtime.process_traces(requests, chunk_size, flaky)

            def close(self):
                self.runtime.close()

        lost = 1
        chunks = _chunks(seed=29, n=6 * 40, size=40)  # several chunks per lane
        runtime = _runtime(blocks, pool=backend)
        oracle = _runtime(blocks)
        with _service(LosesOne(runtime, lost), clock=VirtualClock(), depth=8) as svc:
            for chunk in chunks[:5]:
                svc.submit("tenant", chunk)
            assert svc.pump() == 5
            results = svc.take_results("tenant")
            assert [r.seq for r in results] == list(range(5))
            assert [r.status for r in results] == ["completed"] * lost + [
                "failed"] * (5 - lost)
            assert all("mislaid" in r.error for r in results[lost:])
            # Both backends have scored the whole batch when the callback
            # raises: in process a lane scores its time-ordered queue in
            # one call, and a pool's lanes run on to the end of the batch.
            scored = 5
            expected = [
                oracle.process_trace(c, chunk_size=CHUNK)
                for c in chunks[:scored] + chunks[5:]
            ]
            for record, theirs in zip(results[:lost], expected):
                assert _results_equal(theirs, record.result)
            svc.submit("tenant", chunks[5])
            assert svc.pump() == 1
            (later,) = svc.take_results("tenant")
            assert (later.status, later.seq) == ("completed", 5)
            assert _results_equal(expected[-1], later.result)
            assert _deep_equal(runtime.merged_state(), oracle.merged_state())
            stats = svc.stats()
            assert (stats.accepted, stats.completed, stats.failed) == (6, lost + 1, 5 - lost)

    def test_threaded_dispatcher_survives_a_raising_backend(self):
        import time as _time

        class RaisesOnce:
            calls = 0

            def process_traces(self, requests, chunk_size=None, on_result=None):
                self.calls += 1
                if self.calls == 1:
                    raise RuntimeError("lane fell over")
                for k, columns in enumerate(requests):
                    on_result(k, columns.n)

        svc = _service(RaisesOnce(), clock=_time.monotonic, depth=8)
        try:
            svc.start()
            chunks = _chunks()
            svc.submit("tenant", chunks[0])
            deadline = _time.monotonic() + 10.0
            fates = []
            while len(fates) < 2 and _time.monotonic() < deadline:
                if len(fates) == 1 and svc.stats().accepted == 1:
                    svc.submit("tenant", chunks[1])
                fates.extend(svc.take_results("tenant"))
                _time.sleep(0.005)
            assert [r.status for r in fates] == ["failed", "completed"]
        finally:
            svc.close()

    def test_max_requests_decides_exactly_that_many(self, blocks):
        clock = VirtualClock()
        with _service(_runtime(blocks), clock=clock, depth=8) as svc:
            for chunk in _chunks()[:6]:
                svc.submit("tenant", chunk)
            assert svc.pump(max_requests=4) == 4
            assert svc.stats().queue_depths["tenant"] == 2
            assert [r.seq for r in svc.take_results("tenant")] == [0, 1, 2, 3]
            assert svc.pump(max_requests=4) == 2
            assert [r.seq for r in svc.take_results("tenant")] == [4, 5]

    def test_expired_requests_take_no_seq_and_are_not_scored(self, blocks):
        clock = VirtualClock()
        with _service(_runtime(blocks), clock=clock, depth=8) as svc:
            chunks = _chunks()
            svc.submit("tenant", chunks[0])
            svc.submit("tenant", chunks[1], deadline_s=0.5)
            svc.submit("tenant", chunks[2])
            clock.advance(1.0)
            assert svc.pump() == 3
            by_id = {r.request_id: r for r in svc.take_results("tenant")}
            assert [(by_id[i].status, by_id[i].seq) for i in range(3)] == [
                ("completed", 0), ("expired", -1), ("completed", 1),
            ]
            stats = svc.stats()
            assert stats.packets_out == chunks[0].n + chunks[2].n
            oracle = _oracle(blocks, SLOTS, tables=False)
            for i in (0, 2):  # the expired chunk never touched the state
                expected = oracle.process_trace_batch(chunks[i], chunk_size=CHUNK)
                assert _results_equal(expected, by_id[i].result)
