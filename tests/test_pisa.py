"""Tests for the PISA switch substrate."""

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pisa import (
    MAX_OPS_PER_STAGE,
    Action,
    FlowFeatureAccumulator,
    MatchActionTable,
    MatchKind,
    Packet,
    PacketQueue,
    Primitive,
    RegisterArray,
    RoundRobinArbiter,
    TableEntry,
    default_layout,
    default_parser,
    fnv1a_columns,
)
from repro.pisa.phv import PHV, PHVBatch, PHVLayout


def _phv(**values):
    layout = default_layout(("f0", "f1"))
    phv = PHV(layout)
    for k, v in values.items():
        phv.set(k, v)
    return phv


class TestPHV:
    def test_layout_rejects_duplicates(self):
        with pytest.raises(ValueError):
            PHVLayout(fields=(("a", 8), ("a", 8)))

    def test_layout_rejects_unknown_features(self):
        with pytest.raises(ValueError):
            PHVLayout(fields=(("a", 8),), feature_fields=("b",))

    def test_header_fields_masked_to_width(self):
        phv = _phv()
        phv.set("protocol", 0x1FF)  # 8-bit field
        assert phv.get("protocol") == 0xFF

    def test_feature_vector_quantized(self):
        phv = _phv()
        phv.set_features(np.array([0.26, -100.0]))
        vec = phv.feature_vector()
        assert vec[0] == pytest.approx(0.25)  # fix8 roundtrip
        assert vec[1] == -8.0                 # clipped to format range

    def test_set_features_length_check(self):
        phv = _phv()
        with pytest.raises(ValueError):
            phv.set_features(np.zeros(3))

    def test_unknown_field_raises(self):
        phv = _phv()
        with pytest.raises(KeyError):
            phv.get("no_such_field")

    def test_feature_field_set_stores_float(self):
        phv = _phv()
        phv.set("f0", 3)
        phv.set("f1", np.int64(7))
        assert [(phv.get(f), type(phv.get(f))) for f in ("f0", "f1")] == [
            (3.0, float), (7.0, float)]


_LAYOUT = default_layout(("f0", "f1"))
_FIELDS = [name for name, __ in _LAYOUT.fields]
_HEADERS = [name for name in _FIELDS if name not in _LAYOUT.feature_fields]


def _typed(phv):
    return {name: (value, type(value)) for name, value in phv.values.items()}


@st.composite
def _phv_ops(draw):
    """A row count and a random sequence of PHVBatch writes."""
    n = draw(st.integers(0, 6))
    masks = st.lists(st.booleans(), min_size=n, max_size=n).map(
        lambda bits: np.array(bits, dtype=bool))
    ops = []
    for __ in range(draw(st.integers(0, 12))):
        kind = draw(st.sampled_from(["set", "set", "set", "clear", "features"]))
        where = draw(st.none() | masks)
        rows = n if where is None else int(where.sum())
        if kind == "clear":
            ops.append(("clear", draw(st.sampled_from(_FIELDS))))
        elif kind == "features":
            size = draw(st.sampled_from([n, rows]))
            matrix = draw(st.lists(
                st.lists(st.floats(-1e6, 1e6), min_size=2, max_size=2),
                min_size=size, max_size=size))
            ops.append(("features", np.array(matrix, dtype=np.float64).reshape(size, 2), where))
        else:
            name = draw(st.sampled_from(_FIELDS))
            # Negative and over-width ints, and floats that int() truncates.
            value = draw(st.sampled_from([
                st.integers(-(1 << 40), 1 << 40),
                st.floats(-1e9, 1e9, allow_nan=False),
            ]))
            form = draw(st.sampled_from(["scalar", "full", "selected"]))
            if form == "scalar":
                values = draw(value)
            else:
                size = n if form == "full" else rows
                values = draw(st.lists(value, min_size=size, max_size=size))
            ops.append(("set", name, form, values, where))
    return n, ops


class TestPHVBatchMatchesScalarPHV:
    @settings(max_examples=200, deadline=None)
    @given(_phv_ops())
    def test_property_ops_match_scalar(self, case):
        n, ops = case
        batch = PHVBatch(_LAYOUT, n)
        rows = [PHV(_LAYOUT) for __ in range(n)]
        for op in ops:
            if op[0] == "clear":
                batch.clear(op[1])
                for phv in rows:
                    phv.values.pop(op[1], None)
            elif op[0] == "features":
                __, matrix, where = op
                batch.set_features(matrix, where=where)
                picked = range(n) if where is None else np.flatnonzero(where)
                full = len(matrix) == n
                for k, i in enumerate(picked):
                    rows[i].set_features(matrix[i if full else k])
            else:
                __, name, form, values, where = op
                batch.set_column(name, np.array(values) if form != "scalar" else values,
                                 where=where)
                picked = range(n) if where is None else np.flatnonzero(where)
                for k, i in enumerate(picked):
                    rows[i].set(name, values if form == "scalar" else
                                values[i if form == "full" else k])
        for i, phv in enumerate(rows):
            assert _typed(batch.to_phv(i)) == _typed(phv), f"row {i}"
        for name in _FIELDS:
            column = batch.column(name)
            assert column.tolist() == [phv.get(name) for phv in rows]
            assert batch.was_written(name).tolist() == [name in phv.values for phv in rows]
            with pytest.raises(ValueError):
                column[...] = 1
        assert batch.feature_matrix().tolist() == [phv.feature_vector().tolist() for phv in rows]

    @pytest.mark.parametrize("call", [
        lambda b: b.column("nope"),
        lambda b: b.int_column("nope"),
        lambda b: b.set_column("nope", 1),
        lambda b: b.was_written("nope"),
        lambda b: b.clear("nope"),
        lambda b: b.set_column("nope", np.zeros(2), where=np.ones(2, dtype=bool)),
        lambda b: b.layout.width_of("nope"),
        lambda b: PHV(_LAYOUT).get("nope"),
        lambda b: PHV(_LAYOUT).set("nope", 1),
    ])
    def test_unknown_field_raises_key_error(self, call):
        with pytest.raises(KeyError):
            call(PHVBatch(_LAYOUT, 2))


class TestParser:
    def test_tcp_path_extracts_ports(self):
        layout = default_layout(("f0",))
        parser = default_parser(layout)
        packet = Packet(headers={"protocol": 0, "src_port": 1234, "dst_port": 80,
                                 "urgent_flag": 1, "src_ip": 1, "dst_ip": 2, "seq": 9})
        phv = parser.parse(packet)
        assert phv.get("src_port") == 1234
        assert phv.get("urgent_flag") == 1

    def test_udp_path_skips_tcp_fields(self):
        layout = default_layout(("f0",))
        parser = default_parser(layout)
        packet = Packet(headers={"protocol": 1, "src_port": 53, "urgent_flag": 1})
        phv = parser.parse(packet)
        assert phv.get("src_port") == 53
        assert phv.get("urgent_flag") == 0  # not extracted on the UDP path

    def test_unknown_protocol_takes_default(self):
        layout = default_layout(("f0",))
        parser = default_parser(layout)
        phv = parser.parse(Packet(headers={"protocol": 7}))
        assert phv.get("src_port") == 0

    def test_payload_len_recorded(self):
        layout = default_layout(("f0",))
        parser = default_parser(layout)
        phv = parser.parse(Packet(headers={"protocol": 0}, payload_len=777))
        assert phv.get("payload_len") == 777

    def test_bad_transition_target_rejected(self):
        from repro.pisa import ParseState, Parser

        with pytest.raises(ValueError):
            Parser(
                default_layout(("f0",)),
                {"start": ParseState(name="start", default_next="nowhere")},
            )


class TestParserLoopDetection:
    def _looping_parser(self):
        from repro.pisa import ParseState, Parser

        return Parser(
            default_layout(("f0",)),
            {
                "start": ParseState(name="start", default_next="spin"),
                "spin": ParseState(name="spin", default_next="start"),
            },
        )

    def test_scalar_parse_raises(self):
        parser = self._looping_parser()
        with pytest.raises(RuntimeError, match="parse graph loop detected"):
            parser.parse(Packet(headers={"protocol": 0}))

    def test_batch_parse_raises(self):
        parser = self._looping_parser()
        with pytest.raises(RuntimeError, match="parse graph loop detected"):
            parser.parse_batch(
                {"protocol": np.zeros(4, dtype=np.int64)},
                np.zeros(4, dtype=np.int64),
            )

    def test_batch_parse_of_no_packets_through_a_cycle(self):
        """Zero rows through a cyclic graph parse to an empty batch, as they
        do through an acyclic one; the loop guard once took the max of an
        empty visit count and raised ``ValueError``."""
        parser = self._looping_parser()
        out = parser.parse_batch(
            {"protocol": np.zeros(0, dtype=np.int64)}, np.zeros(0, dtype=np.int64)
        )
        assert out.n == 0 and out.headers.shape[1] == 0
        assert parser.packets_parsed == 0

    def test_select_loop_detected(self):
        """A loop reached through a select branch also trips the guard."""
        from repro.pisa import ParseState, Parser

        parser = Parser(
            default_layout(("f0",)),
            {
                "start": ParseState(
                    name="start", select="protocol",
                    transitions={0: "start"}, default_next=None,
                ),
            },
        )
        with pytest.raises(RuntimeError, match="parse graph loop detected"):
            parser.parse(Packet(headers={"protocol": 0}))

    def _select_cycle_parser(self, loop_value):
        from repro.pisa import ParseState, Parser

        return Parser(
            default_layout(("f0",)),
            {
                "start": ParseState(name="start", extracts=["src_ip"], select="protocol",
                                    transitions={loop_value: "spin"}, default_next="accept"),
                "spin": ParseState(name="spin", extracts=["seq"], default_next="start"),
                "accept": ParseState(name="accept", extracts=["dst_port"]),
            },
        )

    def test_cycle_taken_by_some_packets_raises_on_both_paths(self):
        parser = self._select_cycle_parser(loop_value=6)
        packets = [Packet(headers={"protocol": p, "src_ip": 4}) for p in (17, 6, 1)]
        with pytest.raises(RuntimeError, match="parse graph loop detected"):
            parser.parse(packets[1])
        with pytest.raises(RuntimeError, match="parse graph loop detected"):
            parser.parse_batch(*_columns(packets))

    def test_cycle_no_packet_traverses_parses_on_both_paths(self):
        parser = self._select_cycle_parser(loop_value=99)
        packets = [Packet(headers={"protocol": p, "seq": 3, "dst_port": 80}, payload_len=p)
                   for p in (17, 6, 1)]
        out = parser.parse_batch(*_columns(packets))
        for i, packet in enumerate(packets):
            assert _typed(out.to_phv(i)) == _typed(parser.parse(packet))


def _columns(packets, names=None):
    """``parse_batch`` arguments for ``packets`` (absent headers read 0)."""
    names = names or sorted({name for p in packets for name in p.headers})
    headers = {name: np.array([int(p.headers.get(name, 0)) for p in packets], dtype=np.int64)
               for name in names}
    return headers, np.array([p.payload_len for p in packets], dtype=np.int64)


@st.composite
def _parse_dags(draw):
    """A random acyclic parse graph over ``_LAYOUT`` and packets to run it on.

    States only transition to later states (or terminate through ``None``),
    and packets carry negative and over-width values.
    """
    from repro.pisa import ParseState, Parser

    k = draw(st.integers(1, 6))
    names = [f"s{i}" for i in range(k)]
    states = {}
    for i, name in enumerate(names):
        later = st.none() | st.sampled_from(names[i + 1:]) if i + 1 < k else st.none()
        select = draw(st.none() | st.sampled_from(_HEADERS))
        states[name] = ParseState(
            name=name,
            extracts=draw(st.lists(st.sampled_from(_FIELDS), max_size=4)),
            select=select,
            transitions=draw(st.dictionaries(st.integers(-2, 3), later, max_size=3))
            if select else {},
            default_next=draw(later),
        )
    # Select fields always carry small values, so packets split at selects.
    selects = {state.select for state in states.values()} - {None}
    present = sorted(set(draw(st.lists(st.sampled_from(_FIELDS)))) | selects)
    small, wide = st.integers(-2, 3), st.integers(-(1 << 40), 1 << 40)
    headers = st.fixed_dictionaries(
        {f: small if f in selects else small | wide for f in present})
    packets = draw(st.lists(
        st.builds(Packet, headers=headers, payload_len=st.integers(0, 1 << 17)), max_size=12))
    return Parser(_LAYOUT, states, start="s0"), packets, present


class TestParseGraphs:
    def test_feature_extract_matches_scalar_values_and_types(self):
        """A parse graph may extract straight into the feature region: both
        paths then hold the same float, not the scalar path an int."""
        from repro.pisa import ParseState, Parser

        parser = Parser(_LAYOUT, {"start": ParseState(name="start", extracts=["f0", "seq"])})
        packets = [Packet(headers={"f0": v, "seq": v}) for v in (3, -5, 1 << 33)]
        out = parser.parse_batch(*_columns(packets))
        for i, packet in enumerate(packets):
            assert _typed(out.to_phv(i)) == _typed(parser.parse(packet))
        assert out.to_phv(0).values["f0"] == 3.0

    def test_unknown_extract_rejected_at_construction(self):
        from repro.pisa import ParseState, Parser

        with pytest.raises(KeyError):
            Parser(_LAYOUT, {"start": ParseState(name="start", extracts=["nope"])})

    @settings(max_examples=150, deadline=None)
    @given(_parse_dags())
    def test_property_batch_matches_scalar_on_random_dags(self, case):
        parser, packets, present = case
        out = parser.parse_batch(*_columns(packets, present))
        expected = [parser.parse(packet) for packet in packets]
        assert out.n == len(packets)
        for i, phv in enumerate(expected):
            assert _typed(out.to_phv(i)) == _typed(phv), f"packet {i}"
        for name in _FIELDS:  # rows a packet's path never extracts read 0
            assert out.column(name).tolist() == [phv.get(name) for phv in expected]


class TestBatchParser:
    def test_batch_matches_scalar_paths(self):
        layout = default_layout(("f0",))
        scalar = default_parser(layout)
        batch_parser = default_parser(layout)
        packets = [
            Packet(headers={"protocol": 0, "src_port": 1234, "dst_port": 80,
                            "urgent_flag": 1, "src_ip": 1, "dst_ip": 2, "seq": 9},
                   payload_len=10),
            Packet(headers={"protocol": 1, "src_port": 53, "urgent_flag": 1},
                   payload_len=20),
            Packet(headers={"protocol": 7, "src_port": 9}, payload_len=30),
        ]
        n = len(packets)
        field_names = {name for p in packets for name in p.headers}
        headers = {
            name: np.array([int(p.headers.get(name, 0)) for p in packets],
                           dtype=np.int64)
            for name in field_names
        }
        payload = np.array([p.payload_len for p in packets], dtype=np.int64)
        out = batch_parser.parse_batch(headers, payload)
        for i, packet in enumerate(packets):
            expected = scalar.parse(packet)
            materialized = out.to_phv(i)
            assert materialized.values == expected.values, f"packet {i}"
        assert batch_parser.packets_parsed == n


class TestActions:
    def test_vliw_width_enforced(self):
        prims = [Primitive("ml_score", lambda phv: 1.0, batch_fn=lambda b, m: 1.0)] * (
            MAX_OPS_PER_STAGE + 1)
        with pytest.raises(ValueError):
            Action("too_wide", prims)

    def test_primitive_needs_its_batch_twin(self):
        with pytest.raises(ValueError, match="batch_fn"):
            Primitive("ml_score", lambda phv: 1.0, batch_fn=None)
        with pytest.raises(TypeError, match="batch_fn"):
            Primitive("ml_score", lambda phv: 1.0)

    def test_vliw_reads_before_writes(self):
        """All slots see the pre-action PHV (true VLIW semantics), on the
        scalar PHV and on the selected rows of a batch alike."""
        action = Action(
            "swapish",
            [
                Primitive("ml_score", lambda p: p.get("decision") + 1,
                          batch_fn=lambda b, m: b.column("decision") + 1),
                Primitive("decision", lambda p: p.get("ml_score") % 4,
                          batch_fn=lambda b, m: b.column("ml_score") % 4),
            ],
        )
        phv = _phv(ml_score=5)
        action.apply(phv)
        assert phv.get("ml_score") == 1   # old decision (0) + 1
        assert phv.get("decision") == 1   # old score (5) % 4
        batch = PHVBatch(_LAYOUT, 3)
        batch.set_column("ml_score", np.array([5, 6, 7]))
        batch.set_column("decision", np.array([0, 2, 3]))
        mask = np.array([True, False, True])
        action.apply_batch(batch, mask)
        assert batch.column("ml_score").tolist() == [1, 6, 4]
        assert batch.column("decision").tolist() == [1, 2, 3]

    def test_batch_vliw_reads_before_writes(self):
        """A slot reading a live column view still sees the pre-action
        value when an earlier slot writes that column."""
        swap = Action("swap", [
            Primitive("src_port", lambda p: p.get("dst_port"),
                      batch_fn=lambda b, m: b.column("dst_port")),
            Primitive("dst_port", lambda p: p.get("src_port"),
                      batch_fn=lambda b, m: b.column("src_port")),
        ])
        batch = PHVBatch(_LAYOUT, 3)
        batch.set_column("src_port", np.array([1, 2, 3]))
        mask = np.array([True, False, True])
        swap.apply_batch(batch, mask)
        expected = [_phv(src_port=p) for p in (1, 2, 3)]
        for phv, hit in zip(expected, mask):
            if hit:
                swap.apply(phv)
        assert [batch.to_phv(i).values for i in range(3)] == [p.values for p in expected]

    def test_set_const_helper(self):
        phv = _phv()
        Action.set_const("drop", "decision", 2).apply(phv)
        assert phv.get("decision") == 2


class TestMAT:
    def _table(self, kind=MatchKind.EXACT):
        return MatchActionTable(
            name="t", key_fields=("dst_port",), kind=kind, max_entries=4
        )

    def test_exact_match_hit(self):
        table = self._table()
        table.install(TableEntry({"dst_port": 80}, Action.set_const("f", "decision", 1)))
        phv = _phv(dst_port=80)
        table.apply(phv)
        assert phv.get("decision") == 1
        assert table.entries[0].hits == 1

    def test_miss_uses_default(self):
        table = self._table()
        phv = _phv(dst_port=22)
        table.apply(phv)
        assert table.misses == 1

    def test_capacity_enforced(self):
        table = self._table()
        for port in range(4):
            table.install(TableEntry({"dst_port": port}, Action.noop()))
        with pytest.raises(RuntimeError):
            table.install(TableEntry({"dst_port": 99}, Action.noop()))

    def test_non_key_field_rejected(self):
        table = self._table()
        with pytest.raises(ValueError):
            table.install(TableEntry({"src_port": 1}, Action.noop()))

    def test_ternary_priority(self):
        table = MatchActionTable(
            name="t", key_fields=("dst_port",), kind=MatchKind.TERNARY
        )
        table.install(
            TableEntry({"dst_port": (0, 0)}, Action.set_const("lo", "decision", 1), priority=1)
        )
        table.install(
            TableEntry({"dst_port": (80, 0xFFFF)}, Action.set_const("hi", "decision", 2), priority=10)
        )
        phv = _phv(dst_port=80)
        table.apply(phv)
        assert phv.get("decision") == 2  # higher priority wins

    def test_lpm(self):
        table = MatchActionTable(name="t", key_fields=("src_ip",), kind=MatchKind.LPM)
        table.install(
            TableEntry({"src_ip": (0x0A000000, 8)}, Action.set_const("n", "decision", 1))
        )
        hit = _phv(src_ip=0x0A01FFFF)
        table.apply(hit)
        assert hit.get("decision") == 1
        miss = _phv(src_ip=0x0B000000)
        table.apply(miss)
        assert miss.get("decision") == 0

    def test_range(self):
        table = MatchActionTable(name="t", key_fields=("dst_port",), kind=MatchKind.RANGE)
        table.install(
            TableEntry({"dst_port": (1024, 2048)}, Action.set_const("e", "decision", 1))
        )
        inside = _phv(dst_port=1500)
        table.apply(inside)
        assert inside.get("decision") == 1

    def test_remove_all(self):
        table = self._table()
        table.install(TableEntry({"dst_port": 1}, Action.noop()))
        assert table.remove_all() == 1
        assert table.occupancy == 0

    def test_install_keeps_priority_then_insertion_order(self):
        """bisect-based install == full re-sort: ties keep install order."""
        table = MatchActionTable(
            name="t", key_fields=("dst_port",), kind=MatchKind.TERNARY,
            max_entries=16,
        )
        entries = [
            TableEntry({"dst_port": (i, 0xFFFF)}, Action.noop(f"a{i}"), priority=p)
            for i, p in enumerate([1, 5, 1, 9, 5, 0])
        ]
        for e in entries:
            table.install(e)
        names = [e.action.name for e in table.entries]
        assert names == ["a3", "a1", "a4", "a0", "a2", "a5"]

    def test_exact_index_consulted_and_wildcard_wins_by_position(self):
        table = MatchActionTable(
            name="t", key_fields=("protocol", "dst_port"), kind=MatchKind.EXACT
        )
        table.install(
            TableEntry({"protocol": 0, "dst_port": 80},
                       Action.set_const("full", "decision", 1), priority=1)
        )
        table.install(
            TableEntry({"protocol": 0},
                       Action.set_const("wild", "decision", 2), priority=9)
        )
        hit = _phv(protocol=0, dst_port=80)
        table.apply(hit)
        # The wildcard entry has higher priority, so it must win even
        # though the full-key entry sits in the hash index.
        assert hit.get("decision") == 2
        other = _phv(protocol=0, dst_port=22)
        table.apply(other)
        assert other.get("decision") == 2
        miss = _phv(protocol=3, dst_port=80)
        table.apply(miss)
        assert table.misses == 1

    def test_constructor_entries_sorted_by_priority(self):
        """Entries passed at construction get the same priority order
        install() maintains (the old code only repaired on first sort)."""
        low = TableEntry({"dst_port": (0, 0)}, Action.set_const("lo", "decision", 1),
                         priority=1)
        high = TableEntry({"dst_port": (80, 0xFFFF)},
                          Action.set_const("hi", "decision", 2), priority=10)
        table = MatchActionTable(
            name="t", key_fields=("dst_port",), kind=MatchKind.TERNARY,
            entries=[low, high],
        )
        phv = _phv(dst_port=80)
        table.apply(phv)
        assert phv.get("decision") == 2

    def test_batch_column_views_are_read_only(self):
        from repro.pisa.phv import PHVBatch

        batch = PHVBatch(default_layout(("f0", "f1")), 4)
        batch.set_column("dst_port", np.array([1, 2, 3, 4]))
        for name in ("dst_port", "src_port"):  # written and never-written
            with pytest.raises(ValueError):
                batch.column(name)[0] = 99
        assert batch.column("dst_port")[0] == 1

    def test_lookup_batch_counters_match_scalar(self):
        def build():
            t = MatchActionTable(
                name="t", key_fields=("dst_port",), kind=MatchKind.RANGE
            )
            t.install(TableEntry({"dst_port": (0, 100)}, Action.noop(), priority=1))
            t.install(TableEntry({"dst_port": (50, 200)}, Action.noop(), priority=9))
            return t
        scalar_t, batch_t = build(), build()
        ports = [10, 60, 150, 999, 60]
        for port in ports:
            scalar_t.lookup(_phv(dst_port=port))
        from repro.pisa.phv import PHVBatch
        batch = PHVBatch(default_layout(("f0", "f1")), len(ports))
        batch.set_column("dst_port", np.array(ports))
        batch_t.lookup_batch(batch)
        assert (scalar_t.lookups, scalar_t.misses) == (batch_t.lookups, batch_t.misses)
        assert [e.hits for e in scalar_t.entries] == [e.hits for e in batch_t.entries]


class TestRegisters:
    def test_saturating_add(self):
        reg = RegisterArray(size=8, width_bits=4)
        key = (1, 2, 3, 4, 5)
        for __ in range(100):
            reg.add(key)
        assert reg.read(key) == 15  # saturates at 2^4 - 1

    def test_add_saturates_exactly_at_width(self):
        """One big add clips to 2^width_bits - 1, not a wrapped value."""
        reg = RegisterArray(size=4, width_bits=8)
        key = (9, 9, 9, 9, 9)
        assert reg.add(key, amount=1_000_000) == 255
        assert reg.add(key, amount=1) == 255  # stays pinned at the ceiling

    def test_write_saturates_at_width(self):
        reg = RegisterArray(size=4, width_bits=16)
        key = (1, 1, 1, 1, 1)
        reg.write(key, 1 << 40)
        assert reg.read(key) == (1 << 16) - 1
        reg.write(key, 123)
        assert reg.read(key) == 123

    def test_deterministic_indexing(self):
        reg = RegisterArray(size=1024)
        key = (10, 20, 30, 40, 50)
        assert reg.index_of(key) == reg.index_of(key)

    def test_flow_accumulator(self):
        acc = FlowFeatureAccumulator(slots=256)
        key = (1, 2, 3, 4, 6)
        first = acc.update(key, size_bytes=100, urgent=True, now_s=1.0)
        second = acc.update(key, size_bytes=200, urgent=False, now_s=1.5)
        assert first["flow_pkts"] == 1
        assert second["flow_pkts"] == 2
        assert second["flow_bytes"] == 300
        assert second["flow_urgent"] == 1
        assert second["flow_duration_ms"] == 500

    def test_collisions_possible_with_small_array(self):
        reg = RegisterArray(size=2)
        keys = [(i, 0, 0, 0, 0) for i in range(20)]
        indices = {reg.index_of(k) for k in keys}
        assert indices <= {0, 1}

    @given(st.data())
    @settings(max_examples=150, deadline=None)
    def test_vectorized_hash_matches_scalar(self, data):
        """``fnv1a_columns`` == the scalar ``_fnv1a`` per row, whatever
        each column's byte width (0..8, so every fold of zero high bytes),
        dtype, sign or stride."""
        from repro.pisa.registers import _fnv1a

        n_cols = data.draw(st.integers(0, 6), label="columns")
        n_rows = data.draw(st.integers(0, 300), label="rows")
        cols = []
        for __ in range(n_cols):
            dtype = data.draw(st.sampled_from([np.int64, np.int32, np.uint16]))
            info = np.iinfo(dtype)
            width = data.draw(st.integers(0, info.bits // 8), label="byte width")
            high = min(info.max, (1 << (8 * width)) - 1)
            # Negative values read as full-width two's complement (8 bytes).
            low = info.min if width == info.bits // 8 else 0
            seed = data.draw(st.integers(0, 2**32 - 1), label="seed")
            rng = np.random.default_rng(seed)
            col = rng.integers(low, high, size=2 * n_rows, dtype=dtype, endpoint=True)
            if n_rows and high:
                col[rng.integers(2 * n_rows)] = high  # the width is reached
            cols.append(col[::2] if data.draw(st.booleans(), label="strided")
                        else col[:n_rows])
        rows = list(zip(*cols)) if cols else []
        assert np.array_equal(
            fnv1a_columns(cols),
            np.array([_fnv1a(row) for row in rows], dtype=np.uint64),
        )

    def test_negative_component_hashes_as_twos_complement(self):
        from repro.pisa.registers import _fnv1a

        assert _fnv1a((-1, -(2**63))) == _fnv1a((2**64 - 1, 2**63))
        assert RegisterArray(size=77).index_of((-5, 0, 0, 0, 0)) == (
            _fnv1a((2**64 - 5, 0, 0, 0, 0)) % 77
        )

    def test_update_batch_matches_sequential_updates(self):
        """Order-respecting batch accumulation == N scalar updates,
        including collisions, saturation, and first-seen tracking."""
        rng = np.random.default_rng(5)
        n = 300
        keys = [tuple(int(v) for v in rng.integers(0, 8, size=5)) for __ in range(n)]
        sizes = rng.integers(64, 1500, size=n)
        urgent = rng.random(n) < 0.4
        times = np.sort(rng.uniform(0.0, 2.0, size=n))

        scalar_acc = FlowFeatureAccumulator(slots=16)
        # Tiny byte-count width so saturation actually engages mid-run.
        scalar_acc.byte_count = RegisterArray(16, width_bits=12)
        batch_acc = FlowFeatureAccumulator(slots=16)
        batch_acc.byte_count = RegisterArray(16, width_bits=12)

        scalar_out = [
            scalar_acc.update(keys[i], int(sizes[i]), bool(urgent[i]), float(times[i]))
            for i in range(n)
        ]
        cols = [np.array([k[j] for k in keys], dtype=np.int64) for j in range(5)]
        batch_out = batch_acc.update_batch(fnv1a_columns(cols), sizes, urgent, times)

        for field_name in ("flow_pkts", "flow_bytes", "flow_urgent", "flow_duration_ms"):
            assert np.array_equal(
                np.array([o[field_name] for o in scalar_out]),
                batch_out[field_name],
            ), field_name
        for reg in ("packet_count", "byte_count", "urgent_count", "first_seen_ms"):
            assert np.array_equal(
                getattr(scalar_acc, reg).values, getattr(batch_acc, reg).values
            ), reg

    def test_update_batch_split_equals_one_shot(self):
        """Chunked batches carry register state across the boundary: the
        aggregates, all four registers and the dirty mask equal one batch
        over the same rows, with saturation engaging mid-run."""
        rng = np.random.default_rng(9)
        n = 100
        hashes = fnv1a_columns([rng.integers(0, 4, size=n) for __ in range(5)])
        sizes = rng.integers(64, 1500, size=n)
        urgent = rng.random(n) < 0.5
        times = np.sort(rng.uniform(0.0, 1.0, size=n))

        def preloaded() -> FlowFeatureAccumulator:
            """Half the slots a few counts below saturation."""
            acc = FlowFeatureAccumulator(slots=8)
            near = np.arange(0, 8, 2)
            acc.packet_count.values[near] = acc.packet_count.max_value - 3
            acc.byte_count.values[near] = acc.byte_count.max_value - 2000
            acc.first_seen_ms.values[near] = 7
            acc.take_dirty()
            return acc

        one = preloaded()
        whole = one.update_batch(hashes, sizes, urgent, times)
        assert (one.packet_count.values == one.packet_count.max_value).any()
        assert (one.byte_count.values == one.byte_count.max_value).any()
        for cuts in ((60,), (1, 2, 50, 99), tuple(range(1, n))):
            two = preloaded()
            parts = [
                two.update_batch(hashes[sl], sizes[sl], urgent[sl], times[sl])
                for sl in map(slice, (0, *cuts), (*cuts, n))
            ]
            for field_name in whole:
                assert np.array_equal(
                    whole[field_name], np.concatenate([p[field_name] for p in parts])
                ), (cuts, field_name)
            for reg in ("packet_count", "byte_count", "urgent_count", "first_seen_ms"):
                assert np.array_equal(
                    getattr(one, reg).values, getattr(two, reg).values
                ), (cuts, reg)
            assert np.array_equal(one.dirty, two.dirty), cuts

    @pytest.mark.parametrize("slots", [1 << 16, (1 << 16) + 1], ids=["uint16-key", "int64-key"])
    def test_update_batch_at_the_radix_key_boundary(self, slots):
        """At 65,536 slots the slot key sorts as uint16, one slot more and
        it sorts as int64.  Both equal sequential updates on keys that
        collide, and cutting one call into chunks of 1, 7, 64 or N packets
        leaves the same aggregates and registers."""
        rng = np.random.default_rng(1)
        candidates = rng.integers(0, 1 << 16, size=(1 << 19, 5))
        slot = fnv1a_columns(candidates.T) % np.uint64(slots)
        __, inverse, counts = np.unique(slot[:4096], return_inverse=True, return_counts=True)
        pool = np.concatenate([candidates[:4096][counts[inverse] >= 2], candidates[:64]])  # collide
        ends = candidates[(slot == 0) | (slot == slots - 1)]  # the first and last slot
        n = 600
        keys = np.concatenate([pool[rng.integers(0, len(pool), size=n - 2 * len(ends))], ends, ends])
        keys = keys[rng.permutation(n)]
        hashes = fnv1a_columns(keys.T)
        sizes = rng.integers(64, 1500, size=n)
        urgent = rng.random(n) < 0.3
        times = np.sort(rng.uniform(0.0, 2.0, size=n))
        keys_in_slot: dict[int, set] = {}
        for key, h in zip(map(tuple, keys.tolist()), hashes):
            keys_in_slot.setdefault(int(h) % slots, set()).add(key)
        assert max(map(len, keys_in_slot.values())) >= 2  # collisions engage
        assert {0, slots - 1} <= keys_in_slot.keys()

        scalar = FlowFeatureAccumulator(slots=slots)
        expected = [
            scalar.update(tuple(keys[i].tolist()), int(sizes[i]), bool(urgent[i]), float(times[i]))
            for i in range(n)
        ]
        registers = ("packet_count", "byte_count", "urgent_count", "first_seen_ms")
        for chunk in (1, 7, 64, n):
            acc = FlowFeatureAccumulator(slots=slots)
            parts = [
                acc.update_batch(hashes[s : s + chunk], sizes[s : s + chunk],
                                 urgent[s : s + chunk], times[s : s + chunk])
                for s in range(0, n, chunk)
            ]
            for field_name in expected[0]:
                got = np.concatenate([part[field_name] for part in parts])
                want = np.array([out[field_name] for out in expected])
                assert np.array_equal(got, want), (chunk, field_name)
            for reg in registers:
                assert np.array_equal(
                    getattr(acc, reg).values, getattr(scalar, reg).values
                ), (chunk, reg)
            assert np.array_equal(acc.dirty, scalar.dirty), chunk


class TestScheduler:
    def test_queue_watermark(self):
        q = PacketQueue("q", capacity=10)
        for i in range(7):
            q.push(i)
        q.pop()
        assert q.high_watermark == 7

    def test_round_robin_interleaves(self):
        a = PacketQueue("a")
        b = PacketQueue("b")
        for i in range(3):
            a.push(f"a{i}")
            b.push(f"b{i}")
        arb = RoundRobinArbiter([a, b])
        order = arb.drain()
        assert order == ["a0", "b0", "a1", "b1", "a2", "b2"]

    def test_round_robin_skips_empty(self):
        a = PacketQueue("a")
        b = PacketQueue("b")
        b.push("only")
        arb = RoundRobinArbiter([a, b])
        assert arb.select() == "only"
        assert arb.select() is None

    # ------------------------------------------------------------------
    # PacketQueue deque regression (pop was list.pop(0): O(N^2) drains)
    # ------------------------------------------------------------------
    def test_packet_queue_fifo_drop_watermark_semantics(self):
        q = PacketQueue("q", capacity=3)
        assert q.push(1) and q.push(2) and q.push(3)
        assert not q.push(4)  # tail-drop at capacity
        assert q.drops == 1
        assert q.pop() == 1  # FIFO head
        assert q.push(5)
        assert [q.pop(), q.pop(), q.pop()] == [2, 3, 5]
        assert q.high_watermark == 3  # survives the drain
        assert q.drops == 1
        with pytest.raises(IndexError):
            q.pop()

    def test_packet_queue_full_trace_drain_is_linear(self):
        """200k push/pop pairs must complete promptly — the old
        ``list.pop(0)`` head-pop made this quadratic (tens of seconds)."""
        import time

        q = PacketQueue("q", capacity=300_000)
        t0 = time.perf_counter()
        for i in range(200_000):
            q.push(i)
        for i in range(200_000):
            assert q.pop() == i
        assert time.perf_counter() - t0 < 5.0
        assert q.high_watermark == 200_000

    # ------------------------------------------------------------------
    # Round-robin fairness on uneven / bursty queue mixes
    # ------------------------------------------------------------------
    def test_round_robin_uneven_backlogs_alternate_until_exhaustion(self):
        a = PacketQueue("a")
        b = PacketQueue("b")
        for i in range(9):
            a.push(f"a{i}")
        for i in range(3):
            b.push(f"b{i}")
        arb = RoundRobinArbiter([a, b])
        order = arb.drain()
        # Strict alternation while both are backlogged, then the longer
        # queue drains alone — no starvation, no double-serving.
        assert order[:6] == ["a0", "b0", "a1", "b1", "a2", "b2"]
        assert order[6:] == [f"a{i}" for i in range(3, 9)]

    def test_round_robin_bursty_arrivals_share_fairly(self):
        """Bursts landing on one queue must not starve the other: while
        both queues hold packets, service strictly alternates."""
        rng = np.random.default_rng(7)
        a = PacketQueue("a", capacity=10_000)
        b = PacketQueue("b", capacity=10_000)
        arb = RoundRobinArbiter([a, b])
        served: list[str] = []
        for __ in range(400):
            # Bursty offered load: one queue gets a burst, the other a
            # trickle, swapping at random.
            burst, trickle = (a, b) if rng.random() < 0.5 else (b, a)
            for __ in range(int(rng.integers(0, 8))):
                burst.push(burst.name)
            if rng.random() < 0.5:
                trickle.push(trickle.name)
            both_busy = len(a) > 0 and len(b) > 0
            item = arb.select()
            if both_busy and served and len(a) and len(b):
                assert item != served[-1], "double-served a busy mix"
            if item is not None:
                served.append(item)
        served += arb.drain()
        assert served.count("a") == 0 or served.count("b") > 0
        # Everything offered was eventually served.
        assert len(a) == 0 and len(b) == 0

    def test_round_robin_counts_match_offered_load(self):
        """Equal standing backlogs get exactly equal service."""
        a = PacketQueue("a", capacity=2000)
        b = PacketQueue("b", capacity=2000)
        for i in range(500):
            a.push(("a", i))
            b.push(("b", i))
        arb = RoundRobinArbiter([a, b])
        first_half = [arb.select() for __ in range(500)]
        names = [name for name, __ in first_half]
        assert names.count("a") == 250
        assert names.count("b") == 250
        # And FIFO within each queue.
        assert [i for name, i in first_half if name == "a"] == list(range(250))
