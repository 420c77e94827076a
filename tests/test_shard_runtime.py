"""Property tests: the sharded runtime == the single-pipeline oracle, exactly.

:class:`~repro.runtime.ShardedRuntime` partitions a trace flow-consistently
across N independent pipelines and merges their outputs; these tests drive
identical workloads through :meth:`TaurusPipeline.process_trace_batch` (the
PR-2 oracle) and the runtime at shards ∈ {1, 2, 4} and assert every
observable matches bit/stat-for-bit — merged decisions, scores, latencies,
bypass flags, aggregates, stats, MAT counters, register contents, parser
and block counters, queue watermarks, and the arbiter turn — across
TCP/UDP mixes, register-collision traces, and both backends (the
in-process loop, and the fork pool under both of its spellings).
"""

from __future__ import annotations

import os
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import DNN_FEATURES, expand_to_packets
from repro.datasets.packets import PacketTrace, TraceColumns
from repro.hw import MapReduceBlock
from repro.mapreduce import dnn_graph
from repro.pisa import (
    Action,
    DECISION_DROP,
    DECISION_FORWARD,
    FlowFeatureAccumulator,
    MatchActionTable,
    MatchKind,
    Packet,
    TableEntry,
    TaurusPipeline,
    threshold_postprocess,
)
from repro.runtime import FabricApp, MultiAppFabric, ShardPool, ShardedRuntime
from repro.runtime.sharded import in_arrival_order, merge_pipeline_state, scatter_merge

MAX_SHARDS = 4
HAS_FORK = hasattr(os, "fork")
fork_only = pytest.mark.skipif(not HAS_FORK, reason="fork workers need POSIX")

#: The ways to run shards, as ``ShardedRuntime`` / ``MultiAppFabric``
#: keyword arguments: the in-process loop, and the fork pool (forked at
#: construction, reaped by ``close()``) spelled as the cost ledger spells
#: it and by ``pool`` alone.
BACKENDS = {
    "serial": {"executor": "serial"},
    "fork": {"executor": "fork", "pool": "fork"},
    "pool": {"pool": True},
}


def backend_cases(shard_counts=(1, 2, 4)):
    """``(backend, shards)`` params over every backend and shard count.

    The two-shard cases keep the bare backend name as their id
    (``[fork]``), so ids recorded before the shard axis existed still
    name the same case.
    """
    return [
        pytest.param(
            name,
            shards,
            id=name if shards == 2 else f"{name}-{shards}",
            marks=() if name == "serial" else fork_only,
        )
        for name in BACKENDS
        for shards in shard_counts
    ]


@pytest.fixture(scope="module")
def blocks(quantized_dnn):
    """Oracle block + one per shard, all identically configured."""
    return [
        MapReduceBlock(dnn_graph(quantized_dnn)) for _ in range(MAX_SHARDS + 1)
    ]


def _reset(block: MapReduceBlock) -> None:
    block._next_issue_cycle = 0
    block.packets_processed = 0


def _install_tables(pipe: TaurusPipeline) -> None:
    """Pre/postprocess MATs covering all four match kinds."""
    pre_exact = MatchActionTable(
        name="pre_exact", key_fields=("protocol", "dst_port"), kind=MatchKind.EXACT
    )
    pre_exact.install(
        TableEntry(
            {"protocol": 0, "dst_port": 80},
            Action.set_const("tag", "seq", 1),
            priority=1,
        )
    )
    pre_exact.install(
        TableEntry({"protocol": 1}, Action.set_const("udp", "seq", 2), priority=5)
    )
    pre_range = MatchActionTable(
        name="pre_range", key_fields=("src_port",), kind=MatchKind.RANGE
    )
    pre_range.install(
        TableEntry(
            {"src_port": (2000, 40000)},
            Action.set_const("boost", DNN_FEATURES[0], 1.25),
        )
    )
    post_ternary = MatchActionTable(
        name="post_ternary", key_fields=("src_ip",), kind=MatchKind.TERNARY
    )
    post_ternary.install(
        TableEntry(
            {"src_ip": (0x0A000000, 0xFF000000)},
            Action.set_const("drop10", "decision", DECISION_DROP),
            priority=3,
        )
    )
    post_lpm = MatchActionTable(
        name="post_lpm", key_fields=("dst_ip",), kind=MatchKind.LPM
    )
    post_lpm.install(
        TableEntry(
            {"dst_ip": (0xC0A80000, 16)},
            Action.set_const("lan_ok", "decision", DECISION_FORWARD),
        )
    )
    pipe.install_preprocess(pre_exact)
    pipe.install_preprocess(pre_range)
    pipe.install_postprocess(post_ternary)
    pipe.install_postprocess(post_lpm)


def _pipeline(block, slots: int, tables: bool) -> TaurusPipeline:
    scalar_post, batch_post = threshold_postprocess(0.5)
    pipe = TaurusPipeline(
        block=block,
        feature_names=DNN_FEATURES,
        postprocess=scalar_post,
        postprocess_batch=batch_post,
    )
    # Small register files force flow collisions; slot-consistent sharding
    # must keep colliding flows together.
    pipe.accumulator = FlowFeatureAccumulator(slots=slots)
    if tables:
        _install_tables(pipe)
    return pipe


def _oracle(blocks, slots: int, tables: bool) -> TaurusPipeline:
    _reset(blocks[0])
    return _pipeline(blocks[0], slots, tables)


def _runtime(
    blocks, shards: int, slots: int, tables: bool, backend: str = "serial",
    pool_options: dict | None = None,
) -> ShardedRuntime:
    """A runtime on ``backend``; close it (``with``) when it forks."""
    for block in blocks[1 : shards + 1]:
        _reset(block)
    return ShardedRuntime(
        lambda i: _pipeline(blocks[i + 1], slots, tables),
        shards=shards,
        pool_options=pool_options,
        **BACKENDS[backend],
    )


def _packet(rng: np.random.Generator, t: float) -> Packet:
    protocol = int(rng.choice([0, 0, 1, 7]))
    features = None if rng.random() < 0.1 else rng.uniform(-3.0, 3.0, size=6)
    return Packet(
        headers={
            "protocol": protocol,
            "src_ip": int(rng.choice([0x0A000001, 0x0A0000FF, 0x0B000001, 3])),
            "dst_ip": int(rng.choice([0xC0A80A0A, 0xC0A90A0A, 17])),
            "src_port": int(rng.choice([1024, 2222, 40000, 55555])),
            "dst_port": int(rng.choice([22, 53, 80, 3306, 9999])),
            "urgent_flag": int(rng.random() < 0.3),
            "seq": int(rng.integers(0, 100)),
        },
        payload_len=int(rng.integers(0, 1400)),
        arrival_time=t,
        features=features,
    )


def _random_columns(seed: int, n: int) -> TraceColumns:
    rng = np.random.default_rng(seed)
    # Duplicate timestamps on purpose: merge order must stay stable.
    times = np.round(rng.uniform(0.0, 0.01, size=n), 4)
    return TraceColumns.from_packets([_packet(rng, float(t)) for t in times])


def _deep_equal(got, want) -> bool:
    """Nested dict / list / tuple / ndarray / scalar equality (pipeline
    snapshots, state deltas, merged state); arrays must share a dtype."""
    if isinstance(want, dict):
        return (
            isinstance(got, dict)
            and got.keys() == want.keys()
            and all(_deep_equal(got[k], want[k]) for k in want)
        )
    if isinstance(want, (list, tuple)):
        return len(got) == len(want) and all(
            _deep_equal(g, w) for g, w in zip(got, want)
        )
    if isinstance(want, np.ndarray) or isinstance(got, np.ndarray):
        return np.asarray(got).dtype == np.asarray(want).dtype and np.array_equal(
            got, want
        )
    return got == want


def _assert_same_result(got, want, label=""):
    """All six result arrays and every aggregate: same dtype, same values."""
    pairs = {
        name: (getattr(got, name), getattr(want, name))
        for name in ("order", "times", "decisions", "ml_scores", "latencies_ns", "bypassed")
    }
    assert got.aggregates.keys() == want.aggregates.keys(), label
    pairs.update({k: (got.aggregates[k], want.aggregates[k]) for k in want.aggregates})
    for name, (g, w) in pairs.items():
        assert g.dtype == w.dtype, f"{label}{name} dtype"
        assert np.array_equal(g, w, equal_nan=True), f"{label}{name} diverged"


def _assert_equivalent(oracle: TaurusPipeline, runtime: ShardedRuntime, columns,
                       chunk_size: int = 16):
    expected = oracle.process_trace_batch(columns, chunk_size=chunk_size)
    merged = runtime.process_trace(columns, chunk_size=chunk_size)
    _assert_same_result(merged, expected)

    state = runtime.merged_state()
    assert state["stats"] == oracle.stats
    for name, values in state["registers"].items():
        assert np.array_equal(
            values, getattr(oracle.accumulator, name).values
        ), f"register {name} diverged"
    oracle_tables = oracle.preprocess_tables + oracle.postprocess_tables
    assert len(state["tables"]) == len(oracle_tables)
    for table_state, table in zip(state["tables"], oracle_tables):
        assert table_state["lookups"] == table.lookups, table.name
        assert table_state["misses"] == table.misses, table.name
        assert table_state["hits"] == [e.hits for e in table.entries], table.name
    assert state["parser_packets"] == oracle.parser.packets_parsed
    assert state["block_packets"] == oracle.block.packets_processed
    assert state["block_issue_cycles"] == oracle.block._next_issue_cycle
    for name, queue in (("ml", oracle.ml_queue), ("bypass", oracle.bypass_queue)):
        assert state["queues"][name]["drops"] == queue.drops
        assert state["queues"][name]["high_watermark"] == queue.high_watermark
    assert state["arbiter_turn"] == oracle.arbiter._turn
    return expected, merged


class TestShardMergeDeterminism:
    @pytest.mark.parametrize("shards", [1, 2, 4])
    def test_all_match_kinds_with_collisions(self, blocks, shards):
        """TCP/UDP mix, all four MAT kinds, colliding flow registers."""
        columns = _random_columns(seed=1, n=160)
        oracle = _oracle(blocks, slots=16, tables=True)
        runtime = _runtime(blocks, shards, slots=16, tables=True)
        expected, __ = _assert_equivalent(oracle, runtime, columns)
        assert len({int(d) for d in expected.decisions}) >= 2

    @pytest.mark.parametrize("backend, shards", backend_cases())
    def test_executors_agree(self, blocks, backend, shards):
        """Every backend produces the oracle's exact state.

        The fork backends additionally prove worker-state write-back:
        registers, counters, and the block clock mutate in a child
        process and must land back in the parent's pipelines, chunk
        delta by chunk delta.
        """
        columns = _random_columns(seed=2, n=120)
        oracle = _oracle(blocks, slots=8, tables=True)
        with _runtime(blocks, shards, slots=8, tables=True, backend=backend) as runtime:
            _assert_equivalent(oracle, runtime, columns)

    def test_sequential_runs_accumulate_state(self, blocks):
        """Back-to-back traces keep register state, like one pipeline."""
        oracle = _oracle(blocks, slots=16, tables=False)
        runtime = _runtime(blocks, 2, slots=16, tables=False)
        for seed in (3, 4):
            _assert_equivalent(oracle, runtime, _random_columns(seed, 60))

    def test_packet_trace_partitions_cached(self, blocks, train_test_split):
        """PacketTrace input takes the one partition path, like columns."""
        __, test = train_test_split
        trace = expand_to_packets(test, max_packets=400, seed=9)
        oracle = _oracle(blocks, slots=64, tables=True)
        runtime = _runtime(blocks, 2, slots=64, tables=True)
        _assert_equivalent(oracle, runtime, trace, chunk_size=64)

    def test_more_shards_than_flows(self, blocks):
        """Shards beyond the flow count leave some workers empty."""
        rng = np.random.default_rng(6)
        packets = [_packet(rng, float(t)) for t in np.linspace(0, 0.01, 30)]
        for p in packets:  # collapse to one five-tuple -> one busy shard
            p.headers.update(src_ip=9, dst_ip=9, src_port=9, dst_port=9, protocol=0)
        columns = TraceColumns.from_packets(packets)
        oracle = _oracle(blocks, slots=16, tables=False)
        runtime = _runtime(blocks, 4, slots=16, tables=False)
        _assert_equivalent(oracle, runtime, columns)
        busy = [p.stats["ml"] + p.stats["bypass"] for p in runtime.pipelines]
        assert sorted(busy)[:3] == [0, 0, 0]

    @pytest.mark.parametrize("one_flow", [False, True], ids=["two-busy", "one-busy"])
    def test_hashes_once_plus_once_per_busy_lane(self, blocks, monkeypatch, one_flow):
        """A 2-lane request hashes its five-tuples once to partition, and
        each lane that got packets hashes its part once more."""
        import repro.pisa.registers as registers

        columns = _random_columns(seed=8, n=90)
        if one_flow:
            for name in ("src_ip", "dst_ip", "src_port", "dst_port", "protocol"):
                columns.headers[name][:] = 9
        calls = []
        kernel = registers.fnv1a_columns
        monkeypatch.setattr(
            registers, "fnv1a_columns", lambda cols: calls.append(1) or kernel(cols)
        )
        runtime = _runtime(blocks, 2, slots=16, tables=False)
        runtime.process_trace(columns, chunk_size=7)
        busy = sum(p.stats["ml"] + p.stats["bypass"] > 0 for p in runtime.pipelines)
        assert busy == (1 if one_flow else 2)
        assert len(calls) == 1 + busy

    def test_empty_trace(self, blocks):
        runtime = _runtime(blocks, 2, slots=16, tables=False)
        out = runtime.process_trace(TraceColumns.from_packets([]))
        assert len(out) == 0
        assert runtime.last_drain_ns == 0.0

    def test_modeled_drain_shrinks_with_shards(self, blocks):
        columns = _random_columns(seed=7, n=200)
        drains = {}
        for shards in (1, 4):
            runtime = _runtime(blocks, shards, slots=1024, tables=False)
            runtime.process_trace(columns)
            drains[shards] = runtime.last_drain_ns
        assert 0 < drains[4] < drains[1]

    def test_validation(self, blocks):
        with pytest.raises(ValueError):
            _runtime(blocks, 0, slots=16, tables=False)
        with pytest.raises(ValueError):
            ShardedRuntime(
                lambda i: _pipeline(blocks[i + 1], slots=16 + i, tables=False),
                shards=2,
            )

    @given(
        st.integers(min_value=0, max_value=10_000),
        st.integers(2, 36),
        st.sampled_from([1, 2, 4]),
    )
    @settings(max_examples=8, deadline=None)
    def test_property_random_workloads(self, blocks, seed, n, shards):
        """Randomized workloads: the merge never diverges from the oracle."""
        columns = _random_columns(seed=seed, n=n)
        oracle = _oracle(blocks, slots=8, tables=True)
        runtime = _runtime(blocks, shards, slots=8, tables=True)
        _assert_equivalent(oracle, runtime, columns, chunk_size=5)


class TestShardedDataPlane:
    def test_run_switch_matches_single_shard(self, quantized_dnn, train_test_split):
        """TaurusDataPlane(shards=N) is the same machine, end to end."""
        from repro.testbed.dataplane import TaurusDataPlane

        __, test = train_test_split
        trace = expand_to_packets(test, max_packets=500, seed=21)
        base = TaurusDataPlane(quantized_dnn)
        expected = base.run_switch(trace)
        # 8: more lanes than CPUs, some nearly empty.
        for shards in (8, 3):
            with TaurusDataPlane(quantized_dnn, shards=shards, pool=HAS_FORK) as sharded:
                assert expected == sharded.run_switch(trace)
                assert 0 < sharded.last_modeled_drain_ns < base.last_modeled_drain_ns
                # The scoring shortcut agrees too, sharded (small chunks
                # force the multi-worker row-block split on the pool).
                assert base.run(trace, chunk_size=64) == sharded.run(trace, chunk_size=64)
                assert sharded.verify_equivalence(trace, chunk_size=64)

    def test_shards_validated(self, quantized_dnn):
        from repro.testbed.dataplane import TaurusDataPlane

        with pytest.raises(ValueError):
            TaurusDataPlane(quantized_dnn, shards=0)


class TestArbiterMergeWithBypass:
    """The merged arbiter turn under ``shards > 1`` must follow the shard
    that processed the globally-last packet — observable only when the
    bypass split makes per-shard turns diverge."""

    @staticmethod
    def _bypass_pipeline(block, slots: int) -> TaurusPipeline:
        scalar_post, batch_post = threshold_postprocess(0.5)

        def bypass_scalar(phv) -> bool:
            return int(phv.get("protocol")) == 1

        def bypass_batch(batch):
            return batch.int_column("protocol") == 1

        pipe = TaurusPipeline(
            block=block,
            feature_names=DNN_FEATURES,
            bypass_predicate=bypass_scalar,
            bypass_predicate_batch=bypass_batch,
            postprocess=scalar_post,
            postprocess_batch=batch_post,
        )
        pipe.accumulator = FlowFeatureAccumulator(slots=slots)
        return pipe

    @staticmethod
    def _two_flow_packets(last_protocol: int):
        """Alternating packets of an ML flow (proto 0) and a bypass flow
        (proto 1) that provably land on *different* shards, ending on the
        requested flow."""
        rng = np.random.default_rng(41)
        ml_headers = {
            "protocol": 0, "src_ip": 0x0A000001, "dst_ip": 0xC0A80A0A,
            "src_port": 1024, "dst_port": 80,
        }
        for port in range(2000, 2600):
            bypass_headers = {
                "protocol": 1, "src_ip": 0x0B000001, "dst_ip": 0xC0A90A0A,
                "src_port": port, "dst_port": 53,
            }
            probe = []
            for headers in (ml_headers, bypass_headers):
                packet = _packet(rng, 0.0)
                packet.headers.update(headers)
                probe.append(packet)
            assignments = TraceColumns.from_packets(probe).shard_assignments(
                2, 16
            )
            if assignments[0] != assignments[1]:
                break
        else:  # pragma: no cover - FNV would have to collide 600 times
            pytest.fail("could not split the two flows across shards")
        packets = []
        for i, t in enumerate(np.linspace(0.0, 0.01, 41)):
            headers = (
                ml_headers
                if (i + last_protocol) % 2 == 0
                else bypass_headers
            )
            packet = _packet(rng, float(t))
            packet.headers.update(headers)
            packets.append(packet)
        assert packets[-1].headers["protocol"] == last_protocol
        return packets

    @pytest.mark.parametrize("last_protocol", [0, 1])
    def test_merged_turn_tracks_globally_last_packet(
        self, blocks, last_protocol
    ):
        # The final packet pins the merged turn: protocol 0 drains the ML
        # queue (turn -> bypass), protocol 1 the bypass queue (turn -> ml).
        columns = TraceColumns.from_packets(
            self._two_flow_packets(last_protocol)
        )
        _reset(blocks[0])
        oracle = self._bypass_pipeline(blocks[0], 16)
        for block in blocks[1:3]:
            _reset(block)
        runtime = ShardedRuntime(
            lambda i: self._bypass_pipeline(blocks[i + 1], 16), shards=2
        )
        expected = oracle.process_trace_batch(columns, chunk_size=16)
        merged = runtime.process_trace(columns, chunk_size=16)
        assert np.array_equal(expected.bypassed, merged.bypassed)
        state = runtime.merged_state()
        assert state["arbiter_turn"] == oracle.arbiter._turn
        assert state["arbiter_turn"] == (last_protocol + 1) % 2
        # Each flow's shard saw only its own path, so per-shard turns
        # genuinely diverge — the merge has a real choice to make.
        turns = {pipe.arbiter._turn for pipe in runtime.pipelines}
        assert turns == {0, 1}
        assert state["queues"]["ml"]["high_watermark"] == 1
        assert state["queues"]["bypass"]["high_watermark"] == 1


def _columns_of(rows: int):
    """A stand-in for a slot's columns: the tally reads only ``n``."""
    from types import SimpleNamespace

    return SimpleNamespace(n=rows)


def _one_row_result():
    """A one-row :class:`TracePipelineResult` (one row of a piece)."""
    from repro.pisa.pipeline import TracePipelineResult

    return TracePipelineResult(
        order=np.zeros(1, dtype=np.int64),
        times=np.zeros(1),
        decisions=np.zeros(1, dtype=np.int64),
        ml_scores=np.zeros(1),
        latencies_ns=np.zeros(1),
        bypassed=np.zeros(1, dtype=bool),
        aggregates={},
    )


class TestRuntimePrimitives:
    @fork_only
    def test_fork_worker_failure_raises(self, blocks):
        """A worker whose handler raises fails the pooled run in the
        parent, with the worker's message."""

        def boom(*args, **kwargs):
            raise ValueError("shard exploded")

        def factory(i):
            pipe = _pipeline(blocks[i + 1], 16, tables=False)
            if i == 0:
                pipe.process_trace_batch = boom  # inherited by the fork
            return pipe

        with ShardedRuntime(factory, shards=2, pool=True) as runtime:
            with pytest.raises(RuntimeError, match="shard exploded"):
                runtime.process_trace(_random_columns(seed=8, n=40))

    def test_tally_hands_owners_over_once_in_order_under_contention(self):
        """More lane threads than cores, a tiny switch interval: every
        owner is completed exactly once, in order, with all its pieces."""
        import threading

        from repro.runtime.sharded import _Tally

        lanes, owners, per_slot = 6, 150, 3
        schedules = [[(0, _columns_of(per_slot), owner) for owner in range(owners)]] * lanes
        handed: list[tuple[int, dict]] = []
        tally = _Tally(
            schedules, owners,
            lambda owner, results: handed.append((owner, results)),
        )
        piece = _one_row_result()

        def lane_thread(lane: int) -> None:
            for __ in range(owners * per_slot):
                tally.scored(lane, piece)

        threads = [threading.Thread(target=lane_thread, args=(s,)) for s in range(lanes)]
        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            for thread in threads:
                thread.start()
            for thread in threads:
                thread.join(timeout=30.0)
        finally:
            sys.setswitchinterval(interval)
        assert not any(thread.is_alive() for thread in threads)
        assert [owner for owner, __ in handed] == list(range(owners))
        assert all(sorted(results) == list(range(lanes)) for __, results in handed)

    def test_tally_hands_nobody_over_after_a_raising_on_done(self):
        from repro.runtime.sharded import _Tally

        handed: list[int] = []

        def on_done(owner, results):
            handed.append(owner)
            if owner == 1:
                raise KeyError("mislaid")

        tally = _Tally([[(0, _columns_of(1), owner) for owner in range(4)]], 4, on_done)
        tally.scored(0, _one_row_result())
        with pytest.raises(KeyError):
            tally.scored(0, _one_row_result())
        tally.scored(0, _one_row_result())
        tally.scored(0, _one_row_result())
        assert handed == [0, 1]

    def test_unknown_executor_rejected(self, blocks):
        with pytest.raises(ValueError, match="unknown executor"):
            ShardedRuntime(
                lambda i: _pipeline(blocks[i + 1], 16, False),
                executor="hyperdrive",
            )


class TestBackendSelection:
    """``pool`` picks the backend and ``executor`` must agree with it:
    workers are forked when their owner is built and reaped by its
    ``close()``; without a pool every run is in process, on every host."""

    @staticmethod
    def _factory(blocks):
        return lambda i: _pipeline(blocks[i + 1], 16, False)

    def test_thread_is_rejected_everywhere(self, blocks, quantized_dnn):
        """The thread executor and the thread pool mode are gone: every
        surface that takes the knobs refuses the word."""
        from repro.runtime import FabricApp
        from repro.testbed.dataplane import TaurusDataPlane

        app = FabricApp.from_quantized_dnn(quantized_dnn)
        for knobs in ({"executor": "thread"}, {"pool": "thread"}):
            with pytest.raises(ValueError, match="thread"):
                ShardedRuntime(self._factory(blocks), **knobs)
            with pytest.raises(ValueError, match="thread"):
                MultiAppFabric([app], **knobs)
            with pytest.raises(ValueError, match="thread"):
                TaurusDataPlane(quantized_dnn, **knobs)
        with pytest.raises(ValueError, match="thread"):
            ShardPool([object()], mode="thread")

    def test_serial_executor_contradicts_a_pool(self, blocks):
        with pytest.raises(ValueError, match="serial"):
            ShardedRuntime(self._factory(blocks), executor="serial", pool=True)

    def test_fork_executor_needs_a_pool(self, blocks, quantized_dnn):
        from repro.testbed.dataplane import TaurusDataPlane

        app = FabricApp.from_quantized_dnn(quantized_dnn)
        for build in (
            lambda **knobs: ShardedRuntime(self._factory(blocks), **knobs),
            lambda **knobs: TaurusDataPlane(quantized_dnn, shards=2, **knobs),
        ):
            for knobs in ({}, {"pool_options": {"hang_timeout": 1.0}}):
                with pytest.raises(ValueError, match="pool=True"):
                    build(executor="fork", **knobs)
        with pytest.raises(ValueError, match="pool=True"):
            MultiAppFabric([app], shards=2, executor="fork")

    def test_pool_options_need_a_fork_backend_by_name(self, blocks):
        with pytest.raises(ValueError, match="pool_options requires pool"):
            ShardedRuntime(
                self._factory(blocks), pool_options={"hang_timeout": 1.0}
            )

    @fork_only
    @pytest.mark.parametrize("pool", [True, "auto", "fork"])
    def test_truthy_pool_spellings_keep_workers(self, blocks, pool):
        with ShardedRuntime(self._factory(blocks), shards=1, pool=pool) as runtime:
            assert runtime.pool.alive() == [True]  # one shard still forks
        assert runtime.pool.alive() == [False]

    def test_falsy_pool_keeps_no_workers(
        self, blocks, quantized_dnn, train_test_split, monkeypatch
    ):
        """With ``os.fork`` refusing, every surface still runs two shards
        with the default ``executor`` — in process, equal to the oracle."""
        from repro.testbed.dataplane import TaurusDataPlane

        def no_fork():
            raise OSError("forking is off in this test")

        monkeypatch.setattr(os, "fork", no_fork)
        columns = _random_columns(seed=14, n=90)
        for block in blocks[1:3]:
            _reset(block)
        runtime = ShardedRuntime(self._factory(blocks), shards=2)
        assert runtime.pool is None
        _assert_equivalent(_oracle(blocks, slots=16, tables=False), runtime, columns)

        app = FabricApp.from_quantized_dnn(quantized_dnn)
        expected = app.build_pipeline(MapReduceBlock(app.graph)).process_trace_batch(
            columns, chunk_size=16
        )
        fabric = MultiAppFabric([app], shards=2, chunk_size=16)
        assert fabric.pool is None
        _assert_same_result(fabric.run([columns]).results[app.name], expected)

        trace = expand_to_packets(train_test_split[1], max_packets=300, seed=15)
        base = TaurusDataPlane(quantized_dnn)
        sharded = TaurusDataPlane(quantized_dnn, shards=2)
        assert sharded.pool_health is None
        assert sharded.run_switch(trace) == base.run_switch(trace)
        assert sharded.run(trace, chunk_size=64) == base.run(trace, chunk_size=64)
        assert sharded.verify_equivalence(trace, chunk_size=64)


class TestTwoConstructors:
    """``ShardedRuntime`` and ``MultiAppFabric`` are one engine: the same
    one-app workload through both equals one plain pipeline, so the merge
    and state path is covered once, by construction."""

    TRACE_KINDS = ("sorted", "reversed", "ties", "packet_trace", "packets", "empty")

    @pytest.fixture(scope="class")
    def app(self, quantized_dnn):
        return FabricApp.from_quantized_dnn(quantized_dnn, slots=8)  # collisions

    @pytest.fixture(scope="class")
    def records(self, train_test_split):
        return expand_to_packets(train_test_split[1], max_packets=40, seed=5)

    @staticmethod
    def _pipeline(app):
        return app.build_pipeline(MapReduceBlock(app.graph))

    @staticmethod
    def _trace(kind, seed, n, records):
        rng = np.random.default_rng(seed)
        if kind == "empty":
            return []
        if kind == "packet_trace":  # an unsorted PacketTrace
            picks = rng.permutation(len(records.packets))[:n]
            return PacketTrace(
                [records.packets[i] for i in picks], records.flows,
                records.duration, records.offered_gbps,
            )
        # "ties": two distinct timestamps, so long unsorted equal-time runs.
        times = np.round(rng.uniform(0.0, 0.01, size=n), 2 if kind == "ties" else 4)
        packets = [_packet(rng, float(t)) for t in times]
        if kind == "packets":
            return packets
        columns = TraceColumns.from_packets(packets)
        if kind == "ties":
            return columns
        order = np.argsort(columns.times, kind="stable")
        return columns.take(order[::-1] if kind == "reversed" else order)

    @given(
        st.integers(0, 10_000),
        st.integers(1, 36),
        st.sampled_from([1, 2, 3]),
        st.sampled_from(["serial", "fork"] if HAS_FORK else ["serial"]),
        st.sampled_from(TRACE_KINDS),
        st.booleans(),
    )
    @settings(max_examples=12, deadline=None)
    def test_property_same_workload_same_everything(
        self, app, records, seed, n, shards, backend, kind, batch
    ):
        trace = self._trace(kind, seed, n, records)
        requests = [trace, [], trace] if batch else [trace]
        oracle = self._pipeline(app)
        expected = [oracle.process_trace_batch(t, chunk_size=5) for t in requests]
        want = merge_pipeline_state([oracle], oracle.arbiter._turn)
        with ShardedRuntime(
            lambda s: self._pipeline(app), shards=shards, chunk_size=5, **BACKENDS[backend]
        ) as runtime, MultiAppFabric(
            [app], shards=shards, chunk_size=5, **BACKENDS[backend]
        ) as fabric:
            if batch:
                via_runtime = runtime.process_traces(requests)
                via_fabric = fabric.process_traces([(app.name, t) for t in requests])
            else:
                via_runtime = [runtime.process_trace(trace)]
                via_fabric = [fabric.run({app.name: trace}).results[app.name]]
        for k, result in enumerate(expected):
            _assert_same_result(via_runtime[k], result, f"runtime[{k}] ")
            _assert_same_result(via_fabric[k], result, f"fabric[{k}] ")
        assert _deep_equal(runtime.merged_state(), want)
        for counter in ("block_packets", "block_issue_cycles"):
            want.pop(counter)  # a fabric lane's block is time-shared
        assert _deep_equal(fabric.app_state(app.name), want)
        assert runtime.last_drain_ns == fabric.last_drain_ns

    def test_one_lane_result_is_the_one_part_scatter(self, app):
        """The one-part rule returns the lane's own result; the oracle is
        ``scatter_merge`` over that one part, called directly."""
        from dataclasses import replace

        columns = _random_columns(seed=12, n=50)
        merged = MultiAppFabric([app], chunk_size=16).run([columns]).results[app.name]
        order, ordered = in_arrival_order(columns)
        lane = self._pipeline(app).process_trace_batch(ordered, chunk_size=16)
        part = (np.arange(ordered.n, dtype=np.int64), ordered)
        scattered = replace(scatter_merge(ordered, [part], [lane]), order=order)
        _assert_same_result(merged, scattered, "one part ")

    @fork_only
    def test_pool_exists_from_construction(self, app):
        with MultiAppFabric([app], shards=2, pool=True) as fabric:
            assert fabric.pool.alive() == [True, True]  # before any run
            assert fabric.pool_health is fabric.pool.health
        assert fabric.pool.alive() == [False, False]

    @pytest.mark.parametrize("pooled", [False, pytest.param(True, marks=fork_only)])
    def test_one_rewind_rule(self, app, pooled):
        """``rewind_state`` / ``reset_state`` are one method on both
        constructors: it needs persistent workers — before the first run
        as much as after it — and forgets the turn lane."""
        knobs = {"pool": True} if pooled else {}
        columns = _random_columns(seed=13, n=60)
        for make, run, state in (
            (
                lambda: ShardedRuntime(lambda s: self._pipeline(app), shards=2, **knobs),
                lambda rt: rt.process_trace(columns, chunk_size=16),
                lambda rt: rt.merged_state(),
            ),
            (
                lambda: MultiAppFabric([app], shards=2, **knobs),
                lambda rt: rt.run([columns], chunk_size=16),
                lambda rt: rt.app_state(app.name),
            ),
        ):
            with make() as rt:
                assert type(rt).reset_state is type(rt).rewind_state
                pristine = state(rt)
                for rewind in (rt.rewind_state, rt.reset_state):
                    if not pooled:  # before the first run, then after one
                        with pytest.raises(RuntimeError, match="persistent workers"):
                            rewind()
                    run(rt)
                    assert rt._turn_lane and not _deep_equal(state(rt), pristine)
                    if pooled:
                        rewind()
                        assert not rt._turn_lane and _deep_equal(state(rt), pristine)


def _sorted_requests(seed: int, sizes) -> tuple[TraceColumns, list[TraceColumns]]:
    """One time-sorted trace and its consecutive slices of ``sizes``
    rows: no request boundary goes back in time, so a lane's queued
    slots are one stream the fork backend may fold."""
    __, ordered = in_arrival_order(_random_columns(seed, int(sum(sizes))))
    bounds = np.cumsum([0, *sizes])
    return ordered, [ordered.slice(slice(a, b)) for a, b in zip(bounds[:-1], bounds[1:])]


class TestFoldedPieces:
    """A fork lane cuts its queued slots into pieces of ``chunk`` rows
    that may span requests (``LaneRunner._run_schedules``): what that
    ships, and that it changes no observable."""

    BOUNDARIES = ("sorted", "tied", "overlap", "reversed")

    @pytest.fixture(scope="class")
    def apps(self, quantized_dnn):
        return [
            FabricApp.from_quantized_dnn(quantized_dnn, name="a", slots=8),
            FabricApp.from_quantized_dnn(quantized_dnn, name="b", threshold=0.3, slots=8),
        ]

    @staticmethod
    def _pipeline(app):
        return app.build_pipeline(MapReduceBlock(app.graph))

    @staticmethod
    def _traces(plan, seed):
        """One trace per ``(app, n, boundary, bare)`` of ``plan``.  Each
        request's own rows are shuffled; its earliest time relative to
        the request before it is ``boundary``: after its last, equal to
        it, inside its span, or before its first.  A ``bare`` request
        has no ``urgent_flag`` column."""
        rng = np.random.default_rng(seed)
        traces, first, last = [], 1.0, 1.0
        for __, n, boundary, bare in plan:
            if n == 0:
                traces.append([])
                continue
            start = {
                "sorted": last + 1e-3,
                "tied": last,
                "overlap": (first + last) / 2,
                "reversed": first - 0.02,
            }[boundary]
            times = start + np.round(rng.uniform(0.0, 0.01, size=n), 3)
            times[0] = start
            first, last = start, float(times.max())
            columns = TraceColumns.from_packets(
                [_packet(rng, float(t)) for t in rng.permutation(times)]
            )
            if bare:
                del columns.headers["urgent_flag"]
            traces.append(columns)
        return traces

    @staticmethod
    def _batch(make, requests, chunk, state):
        """``process_traces`` on a fresh ``make()``: results, the
        ``on_result`` order, the state and ``last_drain_ns``."""
        delivered = []
        with make() as rt:
            results = rt.process_traces(
                requests, chunk_size=chunk,
                on_result=lambda k, result: delivered.append(k),
            )
            return results, delivered, state(rt), rt.last_drain_ns

    @classmethod
    def _assert_folding_changes_nothing(cls, make, requests, chunk, state):
        """The batch on ``make(pool=True)`` and in process equals
        back-to-back one-request runs on one in-process ``make()``."""
        oracle = make()
        alone = [oracle.process_traces([r], chunk_size=chunk)[0] for r in requests]
        serial = cls._batch(make, requests, chunk, state)
        forked = cls._batch(lambda: make(pool=True), requests, chunk, state)
        for label, (results, delivered, got, __) in (("in process", serial), ("fork", forked)):
            assert delivered == list(range(len(requests))), label
            for k, (result, expected) in enumerate(zip(results, alone)):
                _assert_same_result(result, expected, f"{label}[{k}] ")
            assert _deep_equal(got, state(oracle)), label
        assert forked[3] == serial[3]

    @fork_only
    @given(
        plan=st.lists(
            st.tuples(
                st.sampled_from([0, 1]),
                st.integers(0, 12),
                st.sampled_from(BOUNDARIES),
                st.booleans(),
            ),
            min_size=1,
            max_size=8,
        ),
        seed=st.integers(0, 10_000),
        chunk=st.sampled_from([3, 5, 8]),
    )
    @settings(max_examples=15, deadline=None)
    def test_property_folding_changes_nothing(self, apps, plan, seed, chunk):
        """A batch on a 2-lane fork runtime and on a 1-lane two-app fork
        fabric equals the in-process batch and back-to-back one-request
        runs: results with their dtypes, state, ``last_drain_ns`` and
        the ``on_result`` order."""
        traces = self._traces(plan, seed)
        self._assert_folding_changes_nothing(
            lambda **knobs: ShardedRuntime(
                lambda s: self._pipeline(apps[0]), shards=2, **knobs
            ),
            traces, chunk, ShardedRuntime.merged_state,
        )
        self._assert_folding_changes_nothing(
            lambda **knobs: MultiAppFabric(apps, shards=1, **knobs),
            [(apps[a].name, t) for (a, *__), t in zip(plan, traces)], chunk,
            lambda rt: [rt.app_state(app.name) for app in apps],
        )

    @staticmethod
    def _spy(rt):
        """Record, per ``_requests`` call, the lane's slots and the
        columns of every piece it ships."""
        shipped = []
        requests = rt._requests

        def spy(slots, chunk):
            pieces = []
            shipped.append((slots, pieces))
            for request in requests(slots, chunk):
                kind, (__, (columns, __)) = request
                assert kind == "chunk"
                pieces.append(columns)
                yield request

        rt._requests = spy
        return shipped

    @fork_only
    def test_a_lane_ships_full_chunk_pieces(self, apps):
        """32 requests of 64 rows over 2 lanes: each lane ships
        ``ceil(lane rows / 64)`` pieces, not one half chunk per request,
        and no piece carries ``labels`` or ``flow_ids``."""
        __, requests = _sorted_requests(seed=21, sizes=[64] * 32)
        assert all(r.labels is not None and r.flow_ids is not None for r in requests)
        with ShardedRuntime(
            lambda s: self._pipeline(apps[0]), shards=2, chunk_size=64, pool=True
        ) as rt:
            shipped = self._spy(rt)
            rt.process_traces(requests)
        assert len(shipped) == 2
        for slots, pieces in shipped:
            rows = sum(columns.n for __, columns, __ in slots)
            assert len(slots) == 32 and rows > 64
            assert len(pieces) == -(-rows // 64)
            assert [p.n for p in pieces[:-1]] == [64] * (len(pieces) - 1)
            assert all(p.labels is None and p.flow_ids is None for p in pieces)

    @fork_only
    def test_a_backwards_boundary_starts_a_piece(self, apps):
        """Two requests fold into one piece when the second starts at or
        after the first's last time, and ship apart when it goes back."""
        __, (early, late) = _sorted_requests(seed=22, sizes=[10, 10])
        assert late.times[0] >= early.times[-1] and early.times[0] < late.times[-1]
        with ShardedRuntime(
            lambda s: self._pipeline(apps[0]), shards=1, chunk_size=64, pool=True
        ) as rt:
            shipped = self._spy(rt)
            rt.process_traces([early, late])
            rt.process_traces([late, early])
        assert [[p.n for p in pieces] for __, pieces in shipped] == [[20], [10, 10]]

    @fork_only
    def test_a_slot_that_is_one_piece_ships_as_itself(self, apps):
        """A slot of exactly ``chunk`` rows is shipped as its own columns
        (no copy), as is every slot of a lane whose apps alternate: a new
        app starts a new piece."""
        __, traces = _sorted_requests(seed=23, sizes=[64, 64, 10, 10, 10, 10])
        with MultiAppFabric(apps, shards=1, chunk_size=64, pool=True) as fabric:
            shipped = self._spy(fabric)
            fabric.process_traces(
                [(apps[k % 2].name, trace) for k, trace in enumerate(traces)]
            )
            fabric.run({app.name: trace for app, trace in zip(apps, traces)})
        for slots, pieces in shipped:
            assert len(pieces) == len(slots)
            assert all(p is columns for p, (__, columns, __) in zip(pieces, slots))
