"""Failure-injection and robustness tests.

The paper argues the data plane must stay correct under hostile or
degenerate conditions; these tests stress the substrates the same way:
saturating inputs, adversarial flows, register collisions, queue overflow,
and mid-stream weight swaps — and, for the worker pool, deterministic
crash injection: seeded :class:`~repro.runtime.FaultPlan` kill / hang /
torn-frame events must leave pooled runs **bit-identical** to the
unfaulted oracle, with the damage visible only on the pool's health
surface (plus the poison-chunk and degraded-mode escape hatches when
recovery cannot help).
"""

import os

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings, strategies as st

from repro.datasets import DNN_FEATURES
from repro.fixpoint import FIX8
from repro.hw import MapReduceBlock
from repro.mapreduce import dnn_graph
from repro.pisa import (
    FlowFeatureAccumulator,
    Packet,
    PacketQueue,
    TaurusPipeline,
)
from repro.runtime import FaultPlan, ShardPool, ShardedRuntime
from repro.runtime.faults import FaultEvent
from repro.runtime.health import PoisonChunk, PoolError
from repro.runtime.sharded import merge_pipeline_state

from test_shard_runtime import (
    _assert_equivalent,
    _assert_same_result,
    _deep_equal,
    _oracle,
    _pipeline,
    _random_columns,
    _reset,
    _runtime,
    _sorted_requests,
)

HAS_FORK = hasattr(os, "fork")
fork_only = pytest.mark.skipif(not HAS_FORK, reason="fault injection needs fork")

#: Watchdog knobs fast enough for tests: chunks score in milliseconds,
#: so a 0.75 s per-response deadline catches injected hangs quickly
#: without ever tripping on real work.
FAST_WATCHDOG = {"hang_timeout": 0.75, "retry_backoff": 0.01}


class TestSaturatingInputs:
    def test_extreme_features_never_crash(self, quantized_dnn):
        """Adversarial feature values saturate cleanly, never overflow."""
        graph = dnn_graph(quantized_dnn)
        for value in (1e9, -1e9, 0.0, np.inf, -np.inf):
            features = np.full(6, np.nan_to_num(value))
            out = graph.execute(features)
            assert np.all(np.isfinite(out))
            assert 0.0 <= float(out[0]) <= 1.0  # sigmoid output range

    def test_fixed_point_saturation_is_total(self, quantized_dnn):
        """Every representable input maps to a valid score (no wrap)."""
        graph = dnn_graph(quantized_dnn)
        rng = np.random.default_rng(0)
        for __ in range(50):
            features = rng.uniform(FIX8.min_value, FIX8.max_value, size=6)
            out = graph.execute(features)
            assert 0.0 <= float(out[0]) <= 1.0


class TestPipelineRobustness:
    def _pipeline(self, quantized_dnn):
        block = MapReduceBlock(dnn_graph(quantized_dnn))
        return TaurusPipeline(block=block, feature_names=DNN_FEATURES)

    def test_missing_features_handled(self, quantized_dnn):
        """Packets without a feature payload still transit (zeros)."""
        pipe = self._pipeline(quantized_dnn)
        packet = Packet(headers={"protocol": 0}, payload_len=10)
        result = pipe.process(packet)
        assert result.ml_score is not None

    def test_malformed_protocol(self, quantized_dnn):
        pipe = self._pipeline(quantized_dnn)
        packet = Packet(headers={"protocol": 255}, payload_len=10,
                        features=np.zeros(6))
        result = pipe.process(packet)  # unknown protocol -> default parse
        assert result.decision in (0, 1, 2)

    def test_flow_register_collision_storm(self):
        """Millions of flows over a small register array degrade gracefully
        (aggregates are approximate, never crash)."""
        acc = FlowFeatureAccumulator(slots=64)
        rng = np.random.default_rng(1)
        for i in range(2000):
            key = tuple(int(v) for v in rng.integers(0, 2**32, size=5))
            aggregates = acc.update(key, size_bytes=100, urgent=False, now_s=i * 1e-6)
            assert aggregates["flow_pkts"] >= 1

    def test_queue_overflow_drops_not_crashes(self):
        queue = PacketQueue("q", capacity=4)
        for i in range(10):
            queue.push(i)
        assert queue.drops == 6
        assert len(queue) == 4


class TestWeightSwapUnderTraffic:
    def test_mid_stream_reconfigure(self, quantized_dnn, trained_dnn, train_test_split):
        """Weight updates swap atomically between packets; scores stay valid
        before and after (the Section 5.2.3 update path)."""
        from repro.datasets import dnn_feature_matrix
        from repro.fixpoint import quantize_model

        train, __ = train_test_split
        block = MapReduceBlock(dnn_graph(quantized_dnn))
        x = dnn_feature_matrix(train)[:20]
        before = [float(block.process(row).value[0]) for row in x[:10]]
        # Retrain briefly and push new weights.
        trained_dnn.fit(dnn_feature_matrix(train)[:500], train.labels[:500], epochs=1)
        new_q = quantize_model(trained_dnn, dnn_feature_matrix(train)[:128])
        block.reconfigure(dnn_graph(new_q))
        after = [float(block.process(row).value[0]) for row in x[10:]]
        for score in before + after:
            assert 0.0 <= score <= 1.0


class TestDegenerateWorkloads:
    @staticmethod
    def _only(label, seed):
        """The connections of one label out of a generated 400."""
        from repro.datasets import ConnectionDataset, generate_connections

        full = generate_connections(400, seed=seed)
        keep = full.labels == label
        return ConnectionDataset(full.features[keep], full.labels[keep], full.attack_types[keep])

    def test_all_benign_trace(self):
        from repro.datasets import expand_to_packets
        from repro.testbed import ControlPlaneBaseline
        from repro.ml import anomaly_detection_dnn

        ds = self._only(0, seed=3)
        trace = expand_to_packets(ds, max_packets=2000, seed=3)
        model = anomaly_detection_dnn(seed=0)  # untrained
        result = ControlPlaneBaseline(model=model, seed=0).run(trace, 1e-2)
        assert result.detected_percent == 0.0  # nothing to detect

    def test_all_anomalous_trace(self, quantized_dnn):
        from repro.datasets import expand_to_packets
        from repro.testbed import TaurusDataPlane

        ds = self._only(1, seed=4)
        trace = expand_to_packets(ds, max_packets=2000, seed=4)
        result = TaurusDataPlane(quantized_dnn).run_switch(trace)
        assert result.n_packets == len(trace.packets)
        assert 0.0 <= result.detected_percent <= 100.0

    def test_single_packet_trace(self):
        from repro.datasets import expand_to_packets, generate_connections

        ds = generate_connections(5, seed=5)
        trace = expand_to_packets(ds, max_packets=1, seed=5)
        assert len(trace) == 1


# ---------------------------------------------------------------------------
# Crash-transparent pool runs (deterministic fault injection)
# ---------------------------------------------------------------------------

MAX_FAULT_SHARDS = 4


@pytest.fixture(scope="module")
def blocks(quantized_dnn):
    """Oracle block + one per shard, all identically configured."""
    return [
        MapReduceBlock(dnn_graph(quantized_dnn))
        for _ in range(MAX_FAULT_SHARDS + 1)
    ]


def _pooled_runtime(blocks, shards, pool_options=None):
    return _runtime(
        blocks, shards, slots=16, tables=True, backend="pool",
        pool_options=pool_options,
    )


class _Echo:
    """Minimal pool context for pool-level fault tests."""

    def handle(self, kind, payload):
        return payload


class TestFaultPlan:
    """The plan itself: validation, consumption, seeded sampling."""

    def test_unknown_kind_rejected(self):
        with pytest.raises(ValueError, match="unknown fault kind"):
            FaultEvent("segfault")

    def test_times_must_be_positive(self):
        with pytest.raises(ValueError):
            FaultEvent("kill", times=0)

    def test_events_consume_per_take(self):
        plan = FaultPlan().add(0, 1, "kill").add(1, 0, "delay", seconds=0.1)
        assert len(plan) == 2
        assert plan.take(0, 1).kind == "kill"
        assert plan.take(0, 1) is None  # consumed
        assert plan.take(0, 0) is None  # never armed
        assert plan.take(1, 0).seconds == 0.1
        assert plan.fired == [(0, 1, "kill"), (1, 0, "delay")]

    def test_times_replays_the_same_event(self):
        plan = FaultPlan().add(0, 2, "kill", times=3)
        assert all(plan.take(0, 2) is not None for _ in range(3))
        assert plan.take(0, 2) is None

    def test_random_is_deterministic_and_in_grid(self):
        a = FaultPlan.random(99, workers=4, chunks=8, events=5)
        b = FaultPlan.random(99, workers=4, chunks=8, events=5)
        assert len(a) == len(b) == 5
        assert sorted(a._events) == sorted(b._events)
        for (worker, ordinal), event in a._events.items():
            assert 0 <= worker < 4 and 0 <= ordinal < 8
            assert event.kind in ("kill", "hang", "torn_frame")


@fork_only
class TestCrashTransparentRuns:
    """The tentpole contract: a mid-run worker failure is invisible to
    the caller — results, stats, and merged state are bit-identical to
    an unfaulted run, and the crash shows up only in ``pool.health``."""

    @pytest.mark.parametrize("kind", ["kill", "torn_frame"])
    @pytest.mark.parametrize("shards", [2, 4])
    def test_single_crash_identity(self, blocks, shards, kind):
        plan = FaultPlan().add(1, 1, kind)
        oracle = _oracle(blocks, slots=16, tables=True)
        runtime = _pooled_runtime(
            blocks, shards, pool_options=dict(FAST_WATCHDOG, faults=plan)
        )
        with runtime:
            _assert_equivalent(
                oracle, runtime, _random_columns(seed=101, n=150)
            )
            health = runtime.pool_health
            assert plan.fired == [(1, 1, kind)]
            assert health.worker(1).crashes == 1
            assert health.worker(1).restarts >= 1
            assert health.replayed_chunks >= 1
            assert runtime.pool.alive() == [True] * shards

    @pytest.mark.parametrize("shards", [2, 4])
    def test_hang_identity(self, blocks, shards):
        """A hung worker is killed by the watchdog (no response within the
        deadline) and recovered exactly like a crash."""
        plan = FaultPlan().add(0, 1, "hang")  # sleeps "forever"
        oracle = _oracle(blocks, slots=16, tables=True)
        runtime = _pooled_runtime(
            blocks, shards, pool_options=dict(FAST_WATCHDOG, faults=plan)
        )
        with runtime:
            _assert_equivalent(
                oracle, runtime, _random_columns(seed=102, n=150)
            )
            health = runtime.pool_health
            assert health.worker(0).hangs == 1
            assert health.crashes == 0  # a hang is not an exit
            assert runtime.pool.alive() == [True] * shards

    def test_control_requests_do_not_consume_the_plan(self, blocks):
        """Plans are keyed on ``map_streams`` dispatch ordinals: ``rewind``
        (a ``broadcast``) takes the same path but never a fault event."""
        plan = FaultPlan().add(0, 0, "kill")
        oracle = _oracle(blocks, slots=16, tables=True)
        runtime = _pooled_runtime(
            blocks, 2, pool_options=dict(FAST_WATCHDOG, faults=plan)
        )
        with runtime:
            runtime.rewind_state()
            runtime.rewind_state()
            assert plan.fired == [] and len(plan) == 1
            _assert_equivalent(oracle, runtime, _random_columns(seed=113, n=90))
            assert plan.fired == [(0, 0, "kill")]
            assert runtime.pool_health.crashes == 1

    def test_delay_fault_is_benign(self, blocks):
        """``delay`` shifts timing without breaking anything — the
        negative control for the watchdog (no kill below the deadline).
        The deadline is per response, not per run: three consecutive
        0.4 s delays on one worker add up past the 0.75 s deadline, but
        no single response is late."""
        one = FaultPlan().add(0, 0, "delay", seconds=0.2)
        three = FaultPlan()
        for ordinal in range(3):
            three.add(0, ordinal, "delay", seconds=0.4)
        for plan in (one, three):
            oracle = _oracle(blocks, slots=16, tables=True)
            runtime = _pooled_runtime(
                blocks, 2, pool_options=dict(FAST_WATCHDOG, faults=plan)
            )
            with runtime:
                _assert_equivalent(
                    oracle, runtime, _random_columns(seed=103, n=100)
                )
                health = runtime.pool_health
                assert len(plan) == 0  # every delay fired
                assert health.healthy
                assert health.crashes == health.hangs == 0

    def test_crash_on_first_and_last_chunk(self, blocks):
        """Boundary ordinals: death before any ack and death on the
        final chunk both recover (nothing-acked and everything-acked
        replay windows)."""
        plan = FaultPlan().add(0, 0, "kill").add(1, 3, "torn_frame")
        oracle = _oracle(blocks, slots=16, tables=True)
        runtime = _pooled_runtime(
            blocks, 2, pool_options=dict(FAST_WATCHDOG, faults=plan)
        )
        with runtime:
            _assert_equivalent(
                oracle, runtime, _random_columns(seed=104, n=150)
            )
            assert runtime.pool_health.crashes == len(plan.fired)

    def test_back_to_back_runs_after_recovery(self, blocks):
        """A recovered pool keeps accumulating state correctly: the run
        *after* the crash still matches the oracle chunk-delta for
        chunk-delta."""
        plan = FaultPlan().add(0, 1, "kill")
        oracle = _oracle(blocks, slots=16, tables=True)
        runtime = _pooled_runtime(
            blocks, 2, pool_options=dict(FAST_WATCHDOG, faults=plan)
        )
        with runtime:
            for seed in (105, 106, 107):
                _assert_equivalent(
                    oracle, runtime, _random_columns(seed=seed, n=90)
                )
            assert runtime.pool_health.crashes == 1  # only the injected one

    @settings(
        max_examples=5,
        deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(
        seed=st.integers(min_value=0, max_value=2**31 - 1),
        shards=st.sampled_from([1, 2, 4]),
    )
    def test_random_fault_plans_identity(self, blocks, seed, shards):
        """Property: *any* seeded plan of kill/hang/torn-frame events is
        invisible in the results."""
        plan = FaultPlan.random(seed, workers=shards, chunks=3, events=2)
        oracle = _oracle(blocks, slots=16, tables=True)
        runtime = _pooled_runtime(
            blocks, shards, pool_options=dict(FAST_WATCHDOG, faults=plan)
        )
        with runtime:
            _assert_equivalent(
                oracle, runtime, _random_columns(seed=seed % 1000, n=150)
            )
            health = runtime.pool_health
            # Consumed events bound observed failures from above: an
            # event wrapped onto a chunk headed for an already-dying
            # worker is consumed but never executes.
            assert health.crashes + health.hangs <= len(plan.fired)
            if plan.fired:
                assert health.crashes + health.hangs >= 1


@fork_only
class TestPoisonChunkAndDegradedMode:
    """The escape hatches when replay cannot converge."""

    def test_poison_chunk_raises_typed_error(self):
        # The same chunk kills every replacement: after
        # ``max_chunk_retries`` replays the pool must stop blaming the
        # worker and indict the chunk.
        plan = FaultPlan().add(0, 1, "kill", times=10)
        pool = ShardPool(
            [_Echo(), _Echo()], mode="fork",
            max_chunk_retries=2, retry_backoff=0.01, faults=plan,
        )
        try:
            streams = [
                (iter([("echo", i) for i in range(3)]), 3) for _ in range(2)
            ]
            with pytest.raises(PoisonChunk) as info:
                pool.map_streams(streams)
            assert isinstance(info.value, PoolError)
            assert info.value.worker_index == 0
            assert info.value.ordinal == 1
            assert "refusing further replay" in str(info.value)
            # The pool survives the indictment: both workers live, and a
            # fault-free run still completes.
            assert pool.alive() == [True, True]
            assert pool.map_streams(
                [(iter([("echo", 7)]), 1), (iter([("echo", 8)]), 1)]
            ) == [[7], [8]]
        finally:
            pool.close()

    def test_nothing_lands_after_a_handler_error(self):
        """The prefix rule holds through a later crash: once a worker's
        handler raised, nothing more from its lane lands — not even by
        degrading, which this pool does on its first crash."""

        class Fragile:
            def handle(self, kind, payload):
                if kind == "boom":
                    raise ValueError("chunk exploded")
                return payload

        landed = []
        plan = FaultPlan().add(0, 1, "kill")
        with ShardPool([Fragile()], faults=plan, max_worker_crashes=0) as pool:
            with pytest.raises(RuntimeError, match="chunk exploded"):
                pool.map_streams(
                    [(iter([("boom", 0), ("echo", 1), ("echo", 2)]), 3)],
                    on_result=lambda index, ordinal, response: landed.append(ordinal),
                )
            assert landed == [] and plan.fired == [(0, 1, "kill")]
            assert pool.health.worker(0).degraded_chunks == 0
            assert pool.map_streams([(iter([("echo", 7)]), 1)]) == [[7]]

    def test_repeated_crashes_degrade_to_in_parent_scoring(self, blocks):
        """Past ``max_worker_crashes`` the shard falls back to scoring
        in the parent — slower, still bit-identical, and counted on the
        health surface."""
        # ``times=2`` guarantees a second death whether or not the first
        # attempt had already shipped chunk 2 to the dying worker (a
        # consumed-but-never-executed event does not re-fire on replay).
        plan = FaultPlan().add(0, 1, "kill").add(0, 2, "kill", times=2)
        oracle = _oracle(blocks, slots=16, tables=True)
        runtime = _pooled_runtime(
            blocks, 2,
            pool_options=dict(FAST_WATCHDOG, faults=plan, max_worker_crashes=1),
        )
        with runtime:
            _assert_equivalent(
                oracle, runtime, _random_columns(seed=108, n=150)
            )
            health = runtime.pool_health
            assert health.worker(0).degraded_chunks >= 1
            assert health.degraded
            # The shard was re-forked after the degraded run: the pool
            # still serves (and accumulates) follow-up runs exactly.
            _assert_equivalent(
                oracle, runtime, _random_columns(seed=109, n=90)
            )

    def test_fork_failure_degrades_instead_of_failing(self, blocks):
        """If re-forking a replacement itself fails (fd/memory pressure),
        the run still completes in-parent rather than erroring out."""
        plan = FaultPlan().add(0, 1, "kill")
        oracle = _oracle(blocks, slots=16, tables=True)
        runtime = _pooled_runtime(
            blocks, 2, pool_options=dict(FAST_WATCHDOG, faults=plan)
        )
        with runtime:
            original_spawn = runtime.pool._spawn

            def failing_spawn(index):
                raise OSError("fork: resource temporarily unavailable")

            runtime.pool._spawn = failing_spawn
            try:
                _assert_equivalent(
                    oracle, runtime, _random_columns(seed=110, n=150)
                )
            finally:
                runtime.pool._spawn = original_spawn
            assert runtime.pool_health.worker(0).degraded_chunks >= 1


@fork_only
class TestSpanningPieces:
    """A fork lane's piece may span requests: it is replayed whole and
    fails whole, while requests are still delivered once and in order.
    One lane, 10-row requests, 16-row pieces: piece 1 holds the end of
    request 1, all of request 2 and the start of request 3."""

    SIZES = [10] * 6

    @pytest.mark.parametrize("kind", ["kill", "hang"])
    def test_fault_on_a_spanning_piece_is_invisible(self, blocks, kind):
        plan = FaultPlan().add(0, 1, kind)
        __, requests = _sorted_requests(seed=120, sizes=self.SIZES)
        oracle = _oracle(blocks, slots=16, tables=True)
        expected = [oracle.process_trace_batch(r, chunk_size=16) for r in requests]
        delivered = []
        runtime = _pooled_runtime(
            blocks, 1, pool_options=dict(FAST_WATCHDOG, faults=plan, window=1)
        )
        with runtime:
            got = runtime.process_traces(
                requests, chunk_size=16,
                on_result=lambda k, result: delivered.append(k),
            )
            state = runtime.merged_state()
            health = runtime.pool_health
        assert delivered == list(range(len(requests)))
        for k, (result, want) in enumerate(zip(got, expected)):
            _assert_same_result(result, want, f"request {k} ")
        assert _deep_equal(state, merge_pipeline_state([oracle], oracle.arbiter._turn))
        assert plan.fired == [(0, 1, kind)]
        assert health.crashes + health.hangs == 1
        # Window 1: the one piece in flight is replayed, not its requests.
        assert health.replayed_chunks == 1

    def test_handler_error_on_a_spanning_piece_fails_its_owners(self, blocks):
        """The worker raises on piece 1: requests 1–3 have rows in it and
        none is delivered; the lane keeps exactly piece 0."""
        ordered, requests = _sorted_requests(seed=121, sizes=self.SIZES)

        def factory(i):
            pipe = _pipeline(blocks[1], 16, tables=True)
            score, calls = pipe.process_trace_batch, []

            def flaky(columns, chunk_size):
                calls.append(columns.n)  # the forked worker's own count
                if len(calls) == 2:
                    raise ValueError("piece exploded")
                return score(columns, chunk_size=chunk_size)

            pipe.process_trace_batch = flaky
            return pipe

        _reset(blocks[1])
        delivered = []
        with ShardedRuntime(factory, shards=1, pool=True) as runtime:
            with pytest.raises(RuntimeError, match="piece exploded"):
                runtime.process_traces(
                    requests, chunk_size=16,
                    on_result=lambda k, result: delivered.append(k),
                )
            state = runtime.merged_state()
        assert delivered == [0]
        oracle = _oracle(blocks, slots=16, tables=True)
        oracle.process_trace_batch(ordered.slice(slice(0, 16)), chunk_size=16)
        assert _deep_equal(state, merge_pipeline_state([oracle], oracle.arbiter._turn))


class TestFaultConfigValidation:
    def test_thread_mode_rejects_faults(self):
        """There is no thread mode left to inject faults into: the pool
        refuses the mode itself."""
        with pytest.raises(ValueError, match="unknown pool mode 'thread'"):
            ShardPool([_Echo()], mode="thread", faults=FaultPlan())
