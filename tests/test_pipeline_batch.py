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

from repro.datasets import DNN_FEATURES, TraceColumns, expand_to_packets
from repro.hw import MapReduceBlock
from repro.fixpoint import quantize_model
from repro.mapreduce import dnn_graph
from repro.ml import DNN
from repro.pisa import (
    Action,
    DECISION_DROP,
    DECISION_FORWARD,
    DEFAULT_TRACE_CHUNK,
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
from repro.pisa.parser import Parser
from repro.pisa.phv import PHVBatch


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


#: The ports :func:`_random_columns` draws, and the one it bypasses.
PORTS, BYPASS_PORT = (22, 53, 80, 3306, 9999), 22


def _random_columns(seed: int, n: int) -> TraceColumns:
    """A columnar trace drawn like :func:`_packet`, out of time order,
    whose packets in the middle tenth of the time range are all TCP to
    ``BYPASS_PORT`` — so under ``port_bypass(BYPASS_PORT)`` small chunks
    there carry no ML row."""
    rng = np.random.default_rng(seed)
    times = np.round(rng.uniform(0.0, 1.0, size=n), 5)
    middle = (times >= 0.45) & (times < 0.55)
    protocol = np.where(middle, 0, rng.choice([0, 0, 1, 7], size=n))
    dst_port = np.where(middle, BYPASS_PORT, rng.choice(PORTS, size=n))
    has_features = rng.random(n) >= 0.1
    payload_len = rng.integers(0, 1400, size=n)
    return TraceColumns(
        times=times,
        sizes=54 + payload_len,
        payload_len=payload_len,
        headers={
            "protocol": protocol,
            "src_ip": rng.choice([0x0A000001, 0x0A0000FF, 0x0B000001, 3], size=n),
            "dst_ip": rng.choice([0xC0A80A0A, 0xC0A90A0A, 17], size=n),
            "src_port": rng.choice([1024, 2222, 40000, 55555], size=n),
            "dst_port": dst_port,
            "urgent_flag": (rng.random(n) < 0.3).astype(np.int64),
            "seq": rng.integers(0, 100, size=n),
        },
        features=np.where(has_features[:, None], rng.uniform(-3.0, 3.0, size=(n, 6)), 0.0),
        has_features=has_features,
    )


#: More than two spans, the last one partial.
SPANNED_ROWS = 2 * DEFAULT_TRACE_CHUNK + 1234
#: Chunk sizes below, equal to and above ``DEFAULT_TRACE_CHUNK``; 777
#: divides no span, so each span ends in a partial chunk.
SPANNED_CHUNKS = (64, 777, DEFAULT_TRACE_CHUNK, DEFAULT_TRACE_CHUNK + 3000)


def _spanned_pipeline(block: MapReduceBlock) -> TaurusPipeline:
    _reset(block)
    scalar_bypass, batch_bypass = port_bypass(BYPASS_PORT)
    pipe = _pipeline(
        block, bypass_predicate=scalar_bypass, bypass_predicate_batch=batch_bypass
    )
    _install_all_kind_tables(pipe)
    return pipe


def _assert_same_state(a: dict, b: dict) -> None:
    """Two :meth:`TaurusPipeline.state_snapshot` dicts are equal."""
    assert a.keys() == b.keys()
    for key in a:
        if key == "registers":
            for name, values in a[key].items():
                assert np.array_equal(values, b[key][name]), name
        else:
            assert a[key] == b[key], key


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
        """The flow aggregates the scalar loop writes into each packet's
        ``metadata`` are the batched ``aggregates`` row that ``order``
        maps back to that packet."""
        pa, pb = _pipeline_pair(block_pair)
        packets = _random_packets(seed=2, n=60)
        pa.process_trace(packets)
        out = pb.process_trace_batch(_clone(packets), chunk_size=13)
        assert set(out.aggregates) == set(packets[0].metadata)
        for i, k in enumerate(out.order):
            row = {key: float(column[i]) for key, column in out.aggregates.items()}
            assert packets[k].metadata == row

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
        """Every observable is the same whatever the chunk size, on a trace
        of more than two spans whose middle holds chunks with no ML row."""
        columns = _random_columns(seed=7, n=SPANNED_ROWS)
        reference = None
        for chunk_size in (*SPANNED_CHUNKS, 1):
            pipe = _spanned_pipeline(block_pair[0])
            out = pipe.process_trace_batch(columns, chunk_size=chunk_size)
            state = pipe.state_snapshot()
            if reference is None:
                reference = out, state
                assert out.bypassed.any() and not out.bypassed.all()
                assert out.dropped > 0
                continue
            expected, expected_state = reference
            for name in ("order", "times", "decisions", "ml_scores", "latencies_ns", "bypassed"):
                assert np.array_equal(
                    getattr(expected, name), getattr(out, name), equal_nan=name == "ml_scores"
                ), (chunk_size, name)
            assert expected.aggregates.keys() == out.aggregates.keys()
            for key, values in expected.aggregates.items():
                assert np.array_equal(values, out.aggregates[key]), (chunk_size, key)
            _assert_same_state(expected_state, state)

    @pytest.mark.parametrize("chunk_size", SPANNED_CHUNKS)
    def test_stages_run_once_per_span_or_chunk(self, block_pair, monkeypatch, chunk_size):
        """Every stage runs once per span of ``max(chunk_size,
        DEFAULT_TRACE_CHUNK)`` rows, whatever ``chunk_size``: parse, every
        MAT and the registers on all of the span's rows, the block on
        exactly the span's ML rows, so no block pass is larger than a
        span."""
        pipe = _spanned_pipeline(block_pair[0])
        calls: dict[str, list[int]] = {}  # stage -> rows per call (0: uncounted)

        def count(owner, attr, name, rows=lambda *args: 0):
            original = getattr(owner, attr)

            def counted(*args):
                calls.setdefault(name, []).append(rows(*args))
                return original(*args)

            monkeypatch.setattr(owner, attr, counted)

        count(pipe.parser, "parse_batch", "parse")
        for t, table in enumerate(pipe.preprocess_tables + pipe.postprocess_tables):
            count(table, "apply_batch", f"mat{t}")
        count(pipe.accumulator, "update_batch", "registers", lambda hashes, *rest: len(hashes))
        count(pipe.block, "run_batch", "block", lambda features, *rest: len(features))
        out = pipe.process_trace_batch(
            _random_columns(seed=12, n=SPANNED_ROWS), chunk_size=chunk_size
        )

        span = max(chunk_size, DEFAULT_TRACE_CHUNK)
        spans = [
            slice(lo, min(lo + span, SPANNED_ROWS)) for lo in range(0, SPANNED_ROWS, span)
        ]
        assert len(calls.pop("parse")) == len(spans)
        for t in range(5):
            assert len(calls.pop(f"mat{t}")) == len(spans)
        assert calls.pop("registers") == [sl.stop - sl.start for sl in spans]
        ml_rows = [int(np.count_nonzero(~out.bypassed[sl])) for sl in spans]
        block_rows = calls.pop("block")
        assert block_rows == [rows for rows in ml_rows if rows]
        assert max(block_rows) <= span
        assert not calls

    def test_empty_trace(self, block_pair, quantized_dnn):
        """An empty call on a ``program=``-pinned pipeline whose block holds
        another program moves nothing: no steer, no clock, no counter."""
        block = block_pair[0]
        _reset(block)
        resident = block.graph
        pipe = _pipeline(block, program=dnn_graph(quantized_dnn))
        before = pipe.state_snapshot()
        out = pipe.process_trace_batch([])
        assert len(out) == 0 and out.aggregates == {}
        assert pipe.stats == {"ml": 0, "bypass": 0, "flagged": 0, "dropped": 0}
        assert block.graph is resident
        _assert_same_state(before, pipe.state_snapshot())

    @pytest.mark.parametrize("chunk_size", [7, 64])
    def test_all_bypass_call_never_steers(self, block_pair, quantized_dnn, chunk_size):
        """A call whose every chunk bypasses, on a ``program=``-pinned
        pipeline whose block holds another program, neither steers nor
        moves the block's clock or counters."""
        block = block_pair[0]
        _reset(block)
        resident = block.graph
        pipe = _pipeline(
            block, program=dnn_graph(quantized_dnn),
            bypass_predicate=lambda phv: True,
            bypass_predicate_batch=lambda batch: np.ones(batch.n, dtype=bool),
        )
        before = pipe.state_snapshot()["block"]
        out = pipe.process_trace_batch(_random_packets(seed=13, n=90), chunk_size=chunk_size)
        assert out.bypassed.all()
        assert pipe.stats["ml"] == 0 and pipe.stats["bypass"] == 90
        assert block.graph is resident
        assert pipe.state_snapshot()["block"] == before

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


# ----------------------------------------------------------------------
# The small call: stages the pipeline does not have are skipped.
# ----------------------------------------------------------------------
#: Rows per call: one packet, one chunk, exactly one span, one span and a row.
COVERAGE_ROWS = (1, 64, DEFAULT_TRACE_CHUNK, DEFAULT_TRACE_CHUNK + 1)


@pytest.fixture(scope="module")
def small_block_pair():
    """Two blocks of a one-layer DNN: the per-packet oracle interprets
    five nodes a packet, so it can run 8,193 packets a case."""
    rng = np.random.default_rng(5)
    model = quantize_model(DNN([6, 1], output="sigmoid", seed=5), rng.uniform(-3.0, 3.0, (256, 6)))
    return MapReduceBlock(dnn_graph(model)), MapReduceBlock(dnn_graph(model))


def _coverage_packets(seed: int, all_features: bool, n: int = COVERAGE_ROWS[-1]) -> list[Packet]:
    """``n`` packets at strictly increasing times (so every prefix is the
    time-sorted first rows of a longer trace); about a tenth carry no
    features unless ``all_features``."""
    rng = np.random.default_rng(seed)
    times = np.cumsum(rng.uniform(1e-6, 1e-4, size=n))
    packets = [_packet(rng, float(t)) for t in times]
    if all_features:
        for packet in packets:
            if packet.features is None:
                packet.features = rng.uniform(-3.0, 3.0, size=6)
    return packets


def _score_table() -> MatchActionTable:
    """A postprocess table keyed on the ``ml_score`` PHV field."""
    table = MatchActionTable(name="low_score", key_fields=("ml_score",), kind=MatchKind.RANGE)
    table.install(
        TableEntry({"ml_score": (1, 127)}, Action.set_const("drop_low", "decision", DECISION_DROP))
    )
    return table


def _block_shuffled(rows: tuple[int, ...], rng: np.random.Generator) -> np.ndarray:
    """A permutation of ``range(rows[-1])`` that shuffles only between
    consecutive sizes of ``rows``, so every prefix holds the same packets."""
    edges = (0, *rows)
    return np.concatenate([lo + rng.permutation(hi - lo) for lo, hi in zip(edges, edges[1:])])


def _coverage_case(blocks, rows, *, tables="none", bypass=False, all_features=True,
                   unsorted=False, score_table=False, seed=21):
    """Per-packet ``process`` over ``rows[-1]`` packets is the oracle for
    every size in ``rows`` (results, aggregates and the state snapshot
    taken after that many packets); ``process_trace_batch`` runs each
    prefix on a fresh twin pipeline.  Returns the oracle's results."""
    def build(block):
        kwargs = {}
        if bypass:
            scalar_bypass, batch_bypass = port_bypass((22, 53))
            kwargs = {"bypass_predicate": scalar_bypass, "bypass_predicate_batch": batch_bypass}
        if block is not None:
            _reset(block)
        pipe = _pipeline(block, **kwargs)
        if tables != "none":
            _install_all_kind_tables(pipe)
            if tables == "post":
                pipe.preprocess_tables.clear()
            elif tables == "pre":
                pipe.postprocess_tables.clear()
        if score_table:
            pipe.install_postprocess(_score_table())
        return pipe

    packets = _coverage_packets(seed, all_features, rows[-1])
    columns = TraceColumns.from_packets(_clone(packets))
    perm = np.arange(len(packets))
    if unsorted:
        perm = _block_shuffled(rows, np.random.default_rng(seed))
        columns = columns.take(perm)

    scalar_pipe = build(blocks[0])
    scalar, snapshots = [], {}
    for k, packet in enumerate(packets, 1):
        scalar.append(scalar_pipe.process(packet))
        if k in rows:
            snapshots[k] = scalar_pipe.state_snapshot()

    for k in rows:
        pipe = build(blocks[1])
        out = pipe.process_trace_batch(columns.slice(slice(0, k)))
        expected = scalar[:k]
        assert np.array_equal(perm[:k][out.order], np.arange(k)), k
        assert np.array_equal(out.decisions, [r.decision for r in expected]), k
        assert np.array_equal(
            out.ml_scores,
            [np.nan if r.ml_score is None else r.ml_score for r in expected],
            equal_nan=True,
        ), k
        assert np.array_equal(out.latencies_ns, [r.latency_ns for r in expected]), k
        assert np.array_equal(out.bypassed, [r.bypassed for r in expected]), k
        for key, column in out.aggregates.items():
            assert np.array_equal(column, [p.metadata[key] for p in packets[:k]]), (k, key)
        _assert_same_state(snapshots[k], pipe.state_snapshot())
    return scalar


#: Four shapes at every size of ``COVERAGE_ROWS``: the bare pipeline (its
#: features go straight to the block), every stage at once, a table that
#: reads the block's ``ml_score`` behind an out-of-order trace, no block.
SPAN_SHAPES = {
    "bare": {},
    "every-stage": {"tables": "both", "bypass": True, "all_features": False},
    "score-table-unsorted": {"score_table": True, "bypass": True, "unsorted": True},
    "no-block": {"tables": "both", "all_features": False},
}


class TestSmallCall:
    @pytest.mark.parametrize("all_features", [True, False], ids=["all-features", "some-features"])
    @pytest.mark.parametrize("bypass", [False, True], ids=["never-bypass", "port-bypass"])
    @pytest.mark.parametrize("tables", ["none", "pre", "post", "both"])
    def test_every_shape_equals_per_packet_process(self, small_block_pair, tables, bypass,
                                                   all_features):
        """Whichever stages the pipeline has — MATs before and after the
        block, a bypass hook, features on every row or on some — a call of
        1 or 64 rows equals ``process`` per packet."""
        scalar = _coverage_case(small_block_pair, COVERAGE_ROWS[:2], tables=tables,
                                bypass=bypass, all_features=all_features)
        assert any(r.bypassed for r in scalar) == bypass

    @pytest.mark.parametrize("shape", SPAN_SHAPES)
    def test_span_sizes_equal_per_packet_process(self, small_block_pair, shape):
        """At 1, 64, 8,192 (one whole span) and 8,193 rows (a second span
        of one row)."""
        blocks = (None, None) if shape == "no-block" else small_block_pair
        scalar = _coverage_case(blocks, COVERAGE_ROWS, **SPAN_SHAPES[shape])
        if shape == "score-table-unsorted":
            assert any(r.decision == DECISION_DROP for r in scalar)

    @pytest.mark.parametrize("all_features", [True, False], ids=["direct-features", "phv-features"])
    @pytest.mark.parametrize("rows", [64, DEFAULT_TRACE_CHUNK + 1], ids=["one-span", "two-spans"])
    def test_a_kept_result_survives_the_next_call(self, block_pair, all_features, rows):
        """A result kept from one call, aggregates included, is not touched
        by the next call on the same pipeline — whether one span's
        aggregates went out without a concatenate and the features reached
        the block straight from the trace, or not."""
        def columns(seed):
            cols = _random_columns(seed, rows)
            return dataclasses.replace(cols, has_features=np.ones(rows, dtype=bool)) if all_features else cols

        block = block_pair[0]
        _reset(block)
        pipe = _pipeline(block)
        first = pipe.process_trace_batch(columns(31))
        kept = dataclasses.replace(
            first,
            **{
                f.name: np.copy(getattr(first, f.name))
                for f in dataclasses.fields(first) if f.name != "aggregates"
            },
            aggregates={key: column.copy() for key, column in first.aggregates.items()},
        )
        pipe.process_trace_batch(columns(32))
        for f in dataclasses.fields(first):
            if f.name != "aggregates":
                assert np.array_equal(
                    getattr(first, f.name), getattr(kept, f.name), equal_nan=True
                ), f.name
        assert first.aggregates.keys() == kept.aggregates.keys()
        for key, column in kept.aggregates.items():
            assert np.array_equal(first.aggregates[key], column), key

    def test_a_direct_span_is_never_parsed(self, block_pair, monkeypatch):
        """The bare pipeline with features on every row sends them to the
        block without the PHV: ``parse_batch`` still counts the span's
        packets, but its walk never runs.  A table that reads the PHV
        brings the walk back, once per span."""
        walks = []
        walk = Parser._walk
        monkeypatch.setattr(Parser, "_walk", lambda parser, *args: walks.append(walk(parser, *args)))
        _reset(block_pair[0])
        pipe = _pipeline(block_pair[0])
        columns = TraceColumns.from_packets(_coverage_packets(43, True, 100))
        pipe.process_trace_batch(columns)
        assert walks == [] and pipe.parser.packets_parsed == 100
        pipe.install_postprocess(_score_table())
        pipe.process_trace_batch(columns)
        assert len(walks) == 1 and pipe.parser.packets_parsed == 200

    @pytest.mark.parametrize("tables", ["none", "post"])
    def test_only_a_reader_gets_the_phv_writes(self, block_pair, monkeypatch, tables):
        """With no table and the never-bypass default, a call writes no
        ``ml_bypass`` / ``ml_score``, clears no ``decision`` and copies no
        features into the PHV: nothing there could read them.  A
        postprocess table brings all three writes back."""
        writes = []

        def record(name, original):
            def recorded(batch, field, *args, **kwargs):
                writes.append((name, field if isinstance(field, str) else None))
                return original(batch, field, *args, **kwargs)
            return recorded

        for method in ("set_column", "clear", "set_features"):
            monkeypatch.setattr(PHVBatch, method, record(method, getattr(PHVBatch, method)))
        _reset(block_pair[0])
        pipe = _pipeline(block_pair[0])
        if tables == "post":
            pipe.install_postprocess(_score_table())
        pipe.process_trace_batch(TraceColumns.from_packets(_coverage_packets(41, True, 100)))
        phv_writes = set(writes) - {("set_column", "payload_len")}  # the parser's own
        if tables == "none":
            assert phv_writes == set()
        else:
            assert {("set_column", "ml_bypass"), ("set_column", "ml_score"),
                    ("clear", "decision")} <= phv_writes
            assert ("set_features", None) in phv_writes
