"""The compiled MAT stage against the scalar oracle.

An exact table compiles a hash index (scalar path) and a sorted-code index
(batched path) lazily, once per control-plane change.  The compile must be
invalidated by every ``install`` / ``remove_all`` — including those that
happen *after* lookups already forced a build — and must run exactly once
per change.  Beyond that, every kind of table must resolve a batch exactly
as ``N`` scalar lookups would: winners, counters, and the PHV left behind
by the actions.  Rules the data plane could not match are rejected at
``install``.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from repro.pisa import (
    Action,
    MatchActionTable,
    MatchKind,
    PHV,
    PHVBatch,
    PHVLayout,
    TableEntry,
)

LAYOUT = PHVLayout(fields=(("dst_port", 16), ("protocol", 8), ("mark", 8)))


def _phv(dst_port: int, protocol: int = 0) -> PHV:
    phv = PHV(LAYOUT)
    phv.set("dst_port", dst_port)
    phv.set("protocol", protocol)
    return phv


def _batch(dst_ports, protocols=None) -> PHVBatch:
    batch = PHVBatch(LAYOUT, len(dst_ports))
    batch.set_column("dst_port", np.asarray(dst_ports, dtype=np.int64))
    batch.set_column(
        "protocol",
        np.zeros(len(dst_ports), dtype=np.int64)
        if protocols is None
        else np.asarray(protocols, dtype=np.int64),
    )
    return batch


def _table() -> MatchActionTable:
    table = MatchActionTable(
        name="acl", key_fields=("dst_port", "protocol"), kind=MatchKind.EXACT
    )
    table.install(TableEntry({"dst_port": 80, "protocol": 0}, Action.noop()))
    return table


class TestExactIndexInvalidation:
    def test_install_after_scalar_lookup_is_visible(self):
        table = _table()
        assert table.lookup(_phv(80)) is table.entries[0].action  # builds index
        assert table.lookup(_phv(443)) is table.default_action
        misses_before = table.misses

        late = TableEntry({"dst_port": 443, "protocol": 0}, Action.noop())
        table.install(late)
        assert table.lookup(_phv(443)) is late.action
        assert late.hits == 1
        assert table.misses == misses_before

    def test_install_after_batch_lookup_is_visible(self):
        table = _table()
        first = table.lookup_batch(_batch([80, 443]))  # builds index
        assert list(first) == [0, -1]

        late = TableEntry({"dst_port": 443, "protocol": 0}, Action.noop())
        table.install(late)
        winners = table.lookup_batch(_batch([80, 443, 7]))
        positions = {
            int(w): None if w < 0 else table.entries[int(w)]
            for w in winners
        }
        assert table.entries[int(winners[0])].match["dst_port"] == 80
        assert table.entries[int(winners[1])] is late
        assert int(winners[2]) == -1
        assert late.hits == 1
        del positions

    def test_scalar_and_batch_agree_after_interleaved_installs(self):
        """Interleave installs and lookups; both paths stay in lockstep."""
        table = _table()
        ports = [80, 443, 8080, 22, 7]
        for round_no, port in enumerate([443, 8080, 22]):
            table.lookup_batch(_batch(ports))  # force an index build
            table.install(
                TableEntry({"dst_port": port, "protocol": 0}, Action.noop())
            )
            scalar = [
                -1 if table._find(_phv(p)) is None
                else table.entries.index(table._find(_phv(p)))
                for p in ports
            ]
            batch = [int(w) for w in table.lookup_batch(_batch(ports))]
            assert scalar == batch, f"diverged after install round {round_no}"

    def test_late_wildcard_outranks_indexed_entry_in_both_paths(self):
        """A higher-priority partial-key entry installed after lookups must
        beat the full-key index hit (position order is the tiebreak)."""
        table = _table()
        table.lookup(_phv(80))  # index built with only the full-key entry
        wildcard = TableEntry({"protocol": 0}, Action.noop(), priority=9)
        table.install(wildcard)

        assert table._find(_phv(80)) is wildcard
        winners = table.lookup_batch(_batch([80, 443]))
        assert table.entries[int(winners[0])] is wildcard
        assert table.entries[int(winners[1])] is wildcard

    def test_remove_all_after_lookup_invalidates(self):
        table = _table()
        assert int(table.lookup_batch(_batch([80]))[0]) == 0
        assert table.remove_all() == 1
        assert table.lookup(_phv(80)) is table.default_action
        assert list(table.lookup_batch(_batch([80]))) == [-1]


class TestCompileOncePerInstall:
    def test_compiles_once_per_control_plane_change(self, monkeypatch):
        compiles = []
        compile_table = MatchActionTable._compile

        def counting(table):
            compiles.append(table.name)
            compile_table(table)

        monkeypatch.setattr(MatchActionTable, "_compile", counting)
        table = _table()
        for __ in range(3):
            table.lookup_batch(_batch([80, 443]))
            table.apply_batch(_batch([80]))
        table.lookup(_phv(80))  # the scalar path shares the compile
        assert len(compiles) == 1

        table.install(TableEntry({"dst_port": 443, "protocol": 0}, Action.noop()))
        assert len(compiles) == 1  # lazy: nothing compiles until a lookup
        for __ in range(3):
            assert list(table.lookup_batch(_batch([443, 7]))) == [1, -1]
        assert len(compiles) == 2

        table.remove_all()
        for __ in range(3):
            assert list(table.lookup_batch(_batch([443]))) == [-1]
        assert len(compiles) == 3


class TestRuleValidation:
    """A rule the data plane could not match fails at ``install`` (and at
    construction), never at the first lookup that reaches it."""

    @pytest.mark.parametrize("kind, spec", [
        (MatchKind.EXACT, (80, 0xFFFF)),
        (MatchKind.EXACT, "http"),
        (MatchKind.EXACT, float("nan")),
        (MatchKind.TERNARY, 80),
        (MatchKind.TERNARY, (80, 0xFFFF, 1)),
        (MatchKind.TERNARY, (80, None)),
        (MatchKind.LPM, (0x0A000000, 40)),
        (MatchKind.LPM, (0x0A000000, 33)),
        (MatchKind.LPM, (0x0A000000, -1)),
        (MatchKind.LPM, 0x0A000000),
        (MatchKind.RANGE, 1024),
        (MatchKind.RANGE, (1024,)),
    ], ids=lambda v: v if isinstance(v, str) else repr(v))
    def test_malformed_spec_is_rejected(self, kind, spec):
        table = MatchActionTable(name="t", key_fields=("dst_port",), kind=kind)
        with pytest.raises(ValueError, match=kind):
            table.install(TableEntry({"dst_port": spec}, Action.noop()))
        assert table.occupancy == 0
        with pytest.raises(ValueError, match=kind):
            MatchActionTable(
                name="t", key_fields=("dst_port",), kind=kind,
                entries=[TableEntry({"dst_port": spec}, Action.noop())],
            )

    def test_constructor_entries_on_non_key_fields_are_rejected(self):
        with pytest.raises(ValueError, match="non-key"):
            MatchActionTable(
                name="t", key_fields=("dst_port",),
                entries=[TableEntry({"src_port": 1}, Action.noop())],
            )

    @pytest.mark.parametrize("kind, spec", [
        (MatchKind.EXACT, 80),
        (MatchKind.EXACT, np.int64(80)),
        (MatchKind.EXACT, -1),  # never matches a header field, but valid
        (MatchKind.TERNARY, (80, 0xFFFF)),
        (MatchKind.TERNARY, [80, -1]),
        (MatchKind.LPM, (0x0A000000, 0)),
        (MatchKind.LPM, (0x0A000000, 32)),
        (MatchKind.RANGE, (2048, 1024)),  # empty, but valid
    ])
    def test_wellformed_spec_is_accepted(self, kind, spec):
        table = MatchActionTable(name="t", key_fields=("dst_port",), kind=kind)
        table.install(TableEntry({"dst_port": spec}, Action.noop()))
        table.lookup(_phv(80))
        table.lookup_batch(_batch([80, 443]))


# ----------------------------------------------------------------------
# Property: the batched stage equals N scalar stages
# ----------------------------------------------------------------------
#: A 16-bit, an 8-bit and a 48-bit header plus a feature field: a full key
#: is 80 bits wide, and the feature field's values are signed floats that
#: ``int()`` truncates.
ORACLE_LAYOUT = PHVLayout(
    fields=(("a", 16), ("b", 8), ("wide", 48), ("feat", 8), ("mark", 8)),
    feature_fields=("feat",),
)
KEY = ("a", "b", "wide", "feat")
#: What packets carry.  Entries draw from the same small pools, so full
#: keys hit, collide (duplicates) and nearly hit (every field's value is
#: some entry's, the combination is nobody's).
PACKET_VALUES = {
    "a": (80, 65535),
    "b": (0, 17),
    "wide": (1 << 40, (1 << 48) - 1),
    "feat": (-3.5, 0.25, 2.9),
}
#: Entry values no packet here carries: outside the field's width,
#: negative, and (exact tables only) outside int64 altogether.
UNMATCHABLE = (-1, 1 << 50)
BEYOND_INT64 = 1 << 70


def _value(field_name: str, kind: str) -> st.SearchStrategy:
    pool = [int(v) for v in PACKET_VALUES[field_name]]
    extra = list(UNMATCHABLE) + ([BEYOND_INT64] if kind == MatchKind.EXACT else [])
    return st.sampled_from(pool * 6 + extra)  # mostly values packets carry


def _spec(field_name: str, kind: str) -> st.SearchStrategy:
    value = _value(field_name, kind)
    if kind == MatchKind.EXACT:
        return value
    if kind == MatchKind.TERNARY:
        return st.tuples(value, st.sampled_from((0, 0xFF, 0xFF00, -1, -16)))
    if kind == MatchKind.LPM:
        return st.tuples(value, st.integers(0, 32))
    return st.tuples(value, value)  # RANGE, possibly empty


@st.composite
def _rule(draw, kind: str) -> tuple[dict, int, int]:
    """(match, priority, action number): mostly full keys, some wildcards."""
    fields = draw(st.sampled_from((KEY, KEY, None)))
    if fields is None:
        fields = draw(st.lists(st.sampled_from(KEY), unique=True))
    match = {f: draw(_spec(f, kind)) for f in fields}
    return match, draw(st.integers(0, 2)), draw(st.integers(0, 3))


def _action(number: int) -> Action:
    """0 is a noop; the others write ``mark`` (a header) or ``feat``."""
    if number == 0:
        return Action.noop()
    if number == 3:
        return Action.set_const("f", "feat", -1.5)
    return Action.set_const(f"m{number}", "mark", number)


@st.composite
def _rows(draw, entries: list[TableEntry]) -> list[tuple[dict, bool]]:
    """Packets as (key values, ``mark`` pre-written?).  Each key field
    copies the value of some installed entry (a different one per field
    half the time) where that value is one a packet can carry, so keys
    hit, near-miss and miss."""
    rows = []
    for __ in range(draw(st.integers(0, 24))):
        values = {f: draw(st.sampled_from(v)) for f, v in PACKET_VALUES.items()}
        if entries:
            per_field = draw(st.booleans())
            source = draw(st.sampled_from(entries))
            for f in KEY:
                if per_field:
                    source = draw(st.sampled_from(entries))
                spec = source.match.get(f)
                value = spec[0] if isinstance(spec, tuple) else spec
                if value in [int(v) for v in PACKET_VALUES[f]]:
                    # A feature's float truncates back to the entry's value.
                    values[f] = value + (0.25 if value >= 0 else -0.25) * (f == "feat")
        rows.append((values, draw(st.booleans())))
    return rows


def _oracle_batch(rows) -> PHVBatch:
    batch = PHVBatch(ORACLE_LAYOUT, len(rows))
    for f in KEY:
        batch.set_column(f, np.array([values[f] for values, __ in rows], dtype=np.float64))
    batch.set_column("mark", 9, where=np.array([marked for __, marked in rows], dtype=bool))
    return batch


def _counters(table: MatchActionTable) -> tuple:
    return table.lookups, table.misses, [e.hits for e in table.entries]


class TestCompiledStageMatchesScalarOracle:
    @pytest.mark.parametrize("kind", MatchKind.ALL)
    @settings(max_examples=60, deadline=None)
    @given(data=st.data())
    def test_batch_equals_scalar(self, kind, data):
        default = data.draw(st.sampled_from((0, 2)), label="default action")
        scalar, batched = (
            MatchActionTable(name="t", key_fields=KEY, kind=kind, max_entries=64,
                             default_action=_action(default))
            for __ in range(2)
        )
        # Rounds of: maybe flush, install 0-40 rules, run one batch.
        for __ in range(data.draw(st.integers(1, 3), label="rounds")):
            if data.draw(st.booleans(), label="remove_all"):
                assert scalar.remove_all() == batched.remove_all()
            rules = data.draw(st.lists(_rule(kind), max_size=40), label="rules")
            for match, priority, number in rules:
                if batched.occupancy == batched.max_entries:
                    break
                for table in (scalar, batched):
                    table.install(TableEntry(dict(match), _action(number), priority))
            rows = data.draw(_rows(scalar.entries), label="rows")
            self._check_batch(scalar, batched, _oracle_batch(rows))

    @staticmethod
    def _check_batch(scalar, batched, batch):
        phvs = [batch.to_phv(i) for i in range(batch.n)]
        winners = batched.lookup_batch(batch)
        position = {id(entry): pos for pos, entry in enumerate(scalar.entries)}
        expected = [position.get(id(scalar._find(phv)), -1) for phv in phvs]
        assert winners.tolist() == expected
        for phv in phvs:
            scalar.lookup(phv)
        assert _counters(batched) == _counters(scalar)

        batched.apply_batch(batch)
        for phv in phvs:
            scalar.apply(phv)
        assert _counters(batched) == _counters(scalar)
        for name, __ in ORACLE_LAYOUT.fields:
            written = [name in phv.values for phv in phvs]
            assert batch.was_written(name).tolist() == written, name
            assert batch.column(name).tolist() == [phv.get(name) for phv in phvs], name
