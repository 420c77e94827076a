"""Property tests: batched pipeline == scalar per-packet loop, exactly.

The scalar :meth:`TaurusPipeline.process` is the semantic oracle; these
tests drive the same packets through :meth:`process_trace_batch` and
assert every observable is identical — decisions, ML scores, latencies,
bypass flags, stats counters, MAT lookup/miss/hit counters, flow-register
contents, parser counts, the MapReduce block's issue clock, queue
watermarks, and the arbiter's turn.
"""

from __future__ import annotations

import dataclasses

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.datasets import DNN_FEATURES, expand_to_packets
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
    Primitive,
    TableEntry,
    TaurusPipeline,
    from_record,
    port_bypass,
    threshold_postprocess,
)


@pytest.fixture(scope="module")
def block_pair(quantized_dnn):
    """Two identically configured MapReduce blocks (one per path)."""
    return (
        MapReduceBlock(dnn_graph(quantized_dnn)),
        MapReduceBlock(dnn_graph(quantized_dnn)),
    )


def _reset(block: MapReduceBlock) -> None:
    block._next_issue_cycle = 0
    block.packets_processed = 0


def _pipeline(block, slots=64, **kwargs) -> TaurusPipeline:
    pipe = TaurusPipeline(block=block, feature_names=DNN_FEATURES, **kwargs)
    # Small register file so flows collide (the scalar oracle must agree
    # on collision behaviour, not just the clean case).
    pipe.accumulator = FlowFeatureAccumulator(slots=slots)
    return pipe


def _pipeline_pair(block_pair, **kwargs):
    a, b = block_pair
    _reset(a)
    _reset(b)
    return _pipeline(a, **kwargs), _pipeline(b, **kwargs)


def _install_all_kind_tables(pipe: TaurusPipeline) -> None:
    """Pre/postprocess MATs covering all four match kinds."""
    pre_exact = MatchActionTable(
        name="pre_exact", key_fields=("protocol", "dst_port"), kind=MatchKind.EXACT
    )
    # Full-key entry plus a wildcard entry that outranks it.
    pre_exact.install(
        TableEntry(
            {"protocol": 0, "dst_port": 80}, Action.set_const("tag", "seq", 1),
            priority=1,
        )
    )
    pre_exact.install(
        TableEntry({"protocol": 1}, Action.set_const("udp", "seq", 2), priority=5)
    )
    pre_range = MatchActionTable(
        name="pre_range", key_fields=("src_port",), kind=MatchKind.RANGE
    )
    # Writes a model feature — preprocessing shapes what the fabric sees.
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
    # A generic VLIW action: both slots, scalar and batched, must read
    # the pre-action PHV.
    post_generic = MatchActionTable(
        name="post_generic", key_fields=("dst_port",), kind=MatchKind.EXACT
    )
    post_generic.install(
        TableEntry(
            {"dst_port": 3306},
            Action(
                "swapish",
                [
                    Primitive("ml_score", lambda p: p.get("decision") + 1,
                              batch_fn=lambda b, m: b.column("decision") + 1),
                    Primitive("decision", lambda p: p.get("ml_score") % 3,
                              batch_fn=lambda b, m: b.column("ml_score") % 3),
                ],
            ),
        )
    )
    pipe.install_preprocess(pre_exact)
    pipe.install_preprocess(pre_range)
    pipe.install_postprocess(post_ternary)
    pipe.install_postprocess(post_lpm)
    pipe.install_postprocess(post_generic)


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


def _random_packets(seed: int, n: int) -> list[Packet]:
    rng = np.random.default_rng(seed)
    # Duplicate timestamps on purpose: both paths must sort stably.
    times = np.round(rng.uniform(0.0, 0.01, size=n), 4)
    return [_packet(rng, float(t)) for t in times]


def _clone(packets: list[Packet]) -> list[Packet]:
    return [
        Packet(
            headers=dict(p.headers),
            payload_len=p.payload_len,
            arrival_time=p.arrival_time,
            features=None if p.features is None else p.features.copy(),
            truth_label=p.truth_label,
            flow_id=p.flow_id,
        )
        for p in packets
    ]


def _assert_equivalent(pa, pb, packets_a, trace_b, chunk_size=16):
    scalar = pa.process_trace(packets_a)
    batch = pb.process_trace_batch(trace_b, chunk_size=chunk_size)

    assert np.array_equal(
        np.array([r.decision for r in scalar]), batch.decisions
    ), "decisions diverged"
    assert np.array_equal(
        np.array([np.nan if r.ml_score is None else r.ml_score for r in scalar]),
        batch.ml_scores,
        equal_nan=True,
    ), "ml_scores diverged"
    assert np.array_equal(
        np.array([r.latency_ns for r in scalar]), batch.latencies_ns
    ), "latencies diverged"
    assert np.array_equal(
        np.array([r.bypassed for r in scalar]), batch.bypassed
    ), "bypass flags diverged"

    assert pa.stats == pb.stats
    assert pa.parser.packets_parsed == pb.parser.packets_parsed
    for ta, tb in zip(
        pa.preprocess_tables + pa.postprocess_tables,
        pb.preprocess_tables + pb.postprocess_tables,
    ):
        assert (ta.lookups, ta.misses) == (tb.lookups, tb.misses), ta.name
        assert [e.hits for e in ta.entries] == [e.hits for e in tb.entries], ta.name
    for reg in ("packet_count", "byte_count", "urgent_count", "first_seen_ms"):
        assert np.array_equal(
            getattr(pa.accumulator, reg).values,
            getattr(pb.accumulator, reg).values,
        ), reg
    if pa.block is not None:
        assert pa.block._next_issue_cycle == pb.block._next_issue_cycle
        assert pa.block.packets_processed == pb.block.packets_processed
    for qa, qb in ((pa.ml_queue, pb.ml_queue), (pa.bypass_queue, pb.bypass_queue)):
        assert (len(qa), qa.drops, qa.high_watermark) == (
            len(qb), qb.drops, qb.high_watermark,
        )
    assert pa.arbiter._turn == pb.arbiter._turn
    return scalar, batch


class TestBatchEqualsScalar:
    def test_all_match_kinds_with_collisions(self, block_pair):
        """TCP/UDP mix, all four MAT kinds, colliding flow registers."""
        pa, pb = _pipeline_pair(block_pair, slots=16)
        _install_all_kind_tables(pa)
        _install_all_kind_tables(pb)
        packets = _random_packets(seed=1, n=200)
        scalar, batch = _assert_equivalent(pa, pb, packets, _clone(packets))
        # The workload must actually exercise the interesting paths.
        assert 0 < batch.dropped
        assert len({r.decision for r in scalar}) >= 2

    def test_metadata_written_back(self, block_pair):
        pa, pb = _pipeline_pair(block_pair)
        packets_a = _random_packets(seed=2, n=60)
        packets_b = _clone(packets_a)
        pa.process_trace(packets_a)
        pb.process_trace_batch(packets_b, chunk_size=13)
        for a, b in zip(packets_a, packets_b):
            assert a.metadata == b.metadata

    def test_bypass_predicate_fallback(self, block_pair):
        """A scalar predicate is honoured row by row once it has its batch
        twin; :func:`port_bypass` builds the pair together."""
        scalar_bypass, batch_bypass = port_bypass(22)
        pa, pb = _pipeline_pair(
            block_pair,
            bypass_predicate=scalar_bypass,
            bypass_predicate_batch=batch_bypass,
        )
        packets = _random_packets(seed=3, n=80)
        scalar, batch = _assert_equivalent(pa, pb, packets, _clone(packets))
        assert batch.bypassed.any() and not batch.bypassed.all()

    def test_bypass_predicate_vectorized(self, block_pair):
        pa, pb = _pipeline_pair(
            block_pair,
            bypass_predicate=lambda phv: phv.get("dst_port") == 22,
            bypass_predicate_batch=lambda batch: batch.column("dst_port") == 22,
        )
        packets = _random_packets(seed=4, n=80)
        _assert_equivalent(pa, pb, packets, _clone(packets))

    def test_custom_postprocess_pair(self, block_pair):
        threshold = 0.25
        pa, pb = _pipeline_pair(
            block_pair,
            postprocess=lambda value: (
                DECISION_DROP
                if float(np.atleast_1d(value)[0]) >= threshold
                else DECISION_FORWARD
            ),
            postprocess_batch=lambda values: np.where(
                values[:, 0] >= threshold, DECISION_DROP, DECISION_FORWARD
            ),
        )
        packets = _random_packets(seed=5, n=50)
        scalar, batch = _assert_equivalent(pa, pb, packets, _clone(packets))
        assert batch.dropped > 0

    @pytest.mark.parametrize("hook", [
        "bypass_predicate", "bypass_predicate_batch", "postprocess", "postprocess_batch",
    ])
    def test_unpaired_hook_rejected(self, block_pair, hook):
        """A hook without its twin once let the two paths decide the same
        packets differently (a batch twin ran beside the default scalar
        threshold); either half alone is refused."""
        twin = hook[: -len("_batch")] if hook.endswith("_batch") else f"{hook}_batch"
        with pytest.raises(ValueError, match=twin):
            TaurusPipeline(
                block=block_pair[0], feature_names=DNN_FEATURES,
                **{hook: lambda x: np.full(len(x), DECISION_DROP)},
            )

    def test_batch_path_never_calls_a_scalar_hook(self, block_pair):
        """Scalar hooks and primitive ``fn``s that raise, beside working
        twins: the batched path runs the twins alone and still matches
        the oracle."""
        def explode(*args):
            raise AssertionError("the batched path called a scalar callable")

        scalar_bypass, batch_bypass = port_bypass(22)
        scalar_post, batch_post = threshold_postprocess(0.25)
        a, b = block_pair
        _reset(a)
        _reset(b)
        pa = _pipeline(a, slots=16, bypass_predicate=scalar_bypass,
                       bypass_predicate_batch=batch_bypass, postprocess=scalar_post,
                       postprocess_batch=batch_post)
        pb = _pipeline(b, slots=16, bypass_predicate=explode,
                       bypass_predicate_batch=batch_bypass, postprocess=explode,
                       postprocess_batch=batch_post)
        _install_all_kind_tables(pa)
        _install_all_kind_tables(pb)
        for table in pb.preprocess_tables + pb.postprocess_tables:
            for action in [table.default_action, *(e.action for e in table.entries)]:
                action.primitives[:] = [
                    dataclasses.replace(p, fn=explode) for p in action.primitives
                ]
        packets = _random_packets(seed=8, n=200)
        __, batch = _assert_equivalent(pa, pb, packets, _clone(packets))
        assert batch.bypassed.any() and batch.dropped > 0

    def test_no_block_all_bypass(self):
        pa = TaurusPipeline(block=None, feature_names=DNN_FEATURES)
        pb = TaurusPipeline(block=None, feature_names=DNN_FEATURES)
        packets = _random_packets(seed=6, n=40)
        scalar, batch = _assert_equivalent(pa, pb, packets, _clone(packets))
        assert batch.bypassed.all()

    def test_chunk_size_invariance(self, block_pair):
        packets = _random_packets(seed=7, n=90)
        reference = None
        for chunk_size in (1, 7, 90, 4096):
            __, pb = _pipeline_pair(block_pair)
            out = pb.process_trace_batch(_clone(packets), chunk_size=chunk_size)
            if reference is None:
                reference = out
            else:
                assert np.array_equal(reference.decisions, out.decisions)
                assert np.array_equal(
                    reference.ml_scores, out.ml_scores, equal_nan=True
                )
                assert np.array_equal(reference.latencies_ns, out.latencies_ns)

    def test_empty_trace(self, block_pair):
        __, pb = _pipeline_pair(block_pair)
        out = pb.process_trace_batch([])
        assert len(out) == 0
        assert pb.stats == {"ml": 0, "bypass": 0, "flagged": 0, "dropped": 0}

    def test_packet_trace_input_matches_from_record(self, block_pair, train_test_split):
        """A PacketTrace's cached columns == scalar over from_record()."""
        __, test = train_test_split
        trace = expand_to_packets(test, max_packets=400, seed=9)
        pa, pb = _pipeline_pair(block_pair)
        _install_all_kind_tables(pa)
        _install_all_kind_tables(pb)
        packets = [from_record(p) for p in trace.packets]
        _assert_equivalent(pa, pb, packets, trace, chunk_size=64)

    def test_negative_header_values(self, block_pair):
        """A negative five-tuple component hashes as its 64-bit
        two's-complement bytes on both paths, so both agree."""
        pa, pb = _pipeline_pair(block_pair, slots=16)
        packets = _random_packets(seed=8, n=60)
        for k, packet in enumerate(packets):
            field = ("src_ip", "dst_ip", "src_port", "dst_port", "protocol")[k % 5]
            packet.headers[field] = -1 - (k % 3) * 0x7FFF_0000
        scalar, __ = _assert_equivalent(pa, pb, packets, _clone(packets), chunk_size=7)
        assert len(scalar) == 60

    @pytest.mark.parametrize("chunk_size", [1, 7, 64, 90])
    def test_hashes_once_per_call(self, block_pair, monkeypatch, chunk_size):
        """The five-tuple is hashed once per ``process_trace_batch`` call,
        whatever the chunk size."""
        import repro.pisa.registers as registers

        calls = []
        kernel = registers.fnv1a_columns
        monkeypatch.setattr(
            registers, "fnv1a_columns", lambda cols: calls.append(1) or kernel(cols)
        )
        __, pb = _pipeline_pair(block_pair)
        pb.process_trace_batch(_random_packets(seed=10, n=90), chunk_size=chunk_size)
        assert len(calls) == 1

    @given(st.integers(min_value=0, max_value=10_000), st.integers(2, 36))
    @settings(max_examples=12, deadline=None)
    def test_property_random_workloads(self, block_pair, seed, n):
        """Randomized workloads: the batched path never diverges."""
        pa, pb = _pipeline_pair(block_pair, slots=8)
        _install_all_kind_tables(pa)
        _install_all_kind_tables(pb)
        packets = _random_packets(seed=seed, n=n)
        _assert_equivalent(pa, pb, packets, _clone(packets), chunk_size=5)
