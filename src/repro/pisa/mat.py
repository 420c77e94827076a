"""Match-action tables.

The workhorse of PISA pipelines: a key built from PHV fields is matched
(exact / ternary / LPM / range) against installed entries; the winning
entry's action runs in the stage's VLIW slots.  Flow-rule installation is
the control plane's (slow) interface to the data plane — the baseline path
Taurus's weight updates replace.

Two lookup paths share the same winner semantics (highest priority, then
installation order):

* the scalar :meth:`MatchActionTable.lookup`, which consults a hash index
  for exact tables and falls back to a priority-ordered scan otherwise;
* the batched :meth:`MatchActionTable.lookup_batch`, which resolves a whole
  :class:`~repro.pisa.phv.PHVBatch` at once — through the table's compiled
  form for exact tables, broadcast mask comparisons priority-resolved with
  ``argmax`` for ternary/LPM/range.

An exact table is compiled once per control-plane change (the first lookup
after an ``install`` / ``remove_all``): every full-key entry becomes one
dense integer code — per key field the value's rank among the entries'
distinct values, the ranks combined mixed-radix and re-ranked after each
field so a code never outgrows the entry count — held as a sorted array of
codes beside the winning entry's position.  A batch is then resolved with
one ``searchsorted`` per field (plus one per field after the first for the
combined code) and an equality check, whatever the key's width or sign.
One ``bincount`` of the winners gives the miss count, the per-entry hit
counts and the action groups ``apply_batch`` runs.
"""

from __future__ import annotations

import bisect
from dataclasses import dataclass, field

import numpy as np

from .actions import Action
from .phv import PHV, PHVBatch

__all__ = ["MatchKind", "TableEntry", "MatchActionTable"]

_INT64 = np.iinfo(np.int64)


class MatchKind:
    EXACT = "exact"
    TERNARY = "ternary"
    LPM = "lpm"
    RANGE = "range"

    ALL = (EXACT, TERNARY, LPM, RANGE)


@dataclass
class TableEntry:
    """One installed flow rule.

    ``match`` maps field name -> match spec:
      exact: value | ternary: (value, mask) | lpm: (prefix, length) |
      range: (lo, hi) inclusive.
    """

    match: dict[str, object]
    action: Action
    priority: int = 0
    hits: int = 0


@dataclass
class MatchActionTable:
    """A single MAT with a declared match key and bounded capacity."""

    name: str
    key_fields: tuple[str, ...]
    kind: str = MatchKind.EXACT
    max_entries: int = 4096
    default_action: Action = field(default_factory=Action.noop)
    entries: list[TableEntry] = field(default_factory=list)
    lookups: int = 0
    misses: int = 0
    #: Exact tables: full-key entry -> position of the winning entry.
    _exact_index: dict[tuple, int] = field(
        default_factory=dict, repr=False, compare=False
    )
    #: Exact tables: positions of entries with wildcarded key fields.
    _partial_positions: list[int] = field(
        default_factory=list, repr=False, compare=False
    )
    #: Exact tables, compiled: per key field, the sorted distinct values of
    #: the indexed full-key entries.
    _field_values: list[np.ndarray] = field(
        default_factory=list, repr=False, compare=False
    )
    #: Exact tables, compiled: per key field after the first, the sorted
    #: mixed-radix codes of the key prefixes that end at that field.
    _prefix_codes: list[np.ndarray] = field(
        default_factory=list, repr=False, compare=False
    )
    #: Exact tables, compiled: full-key code -> position of the winning entry.
    _code_winner: np.ndarray = field(
        default_factory=lambda: np.empty(0, dtype=np.int64), repr=False, compare=False
    )
    #: Index needs rebuilding before the next lookup (set by installs so
    #: bulk rule pushes pay one O(n) rebuild, not one per entry).
    _index_dirty: bool = field(default=True, repr=False, compare=False)

    def __post_init__(self) -> None:
        if self.kind not in MatchKind.ALL:
            raise ValueError(f"unknown match kind {self.kind!r}")
        if not self.key_fields:
            raise ValueError("a MAT needs at least one key field")
        for entry in self.entries:
            self._check(entry)
        # Constructor-provided entries may arrive in any order; every
        # lookup path assumes priority order (ties keep given order).
        self.entries.sort(key=lambda e: -e.priority)

    # ------------------------------------------------------------------
    # Control-plane interface
    # ------------------------------------------------------------------
    def install(self, entry: TableEntry) -> None:
        """Install a rule (raises when the table is full, as TCAMs do)."""
        if len(self.entries) >= self.max_entries:
            raise RuntimeError(f"table {self.name!r} is full ({self.max_entries})")
        self._check(entry)
        # Keep entries ordered by priority (highest wins, ties keep
        # installation order) without re-sorting the whole list per insert.
        bisect.insort(self.entries, entry, key=lambda e: -e.priority)
        self._index_dirty = True

    def remove_all(self) -> int:
        """Flush the table; returns the number of removed entries."""
        n = len(self.entries)
        self.entries.clear()
        self._index_dirty = True
        return n

    def _check(self, entry: TableEntry) -> None:
        """Reject a rule the data plane could not match (``ValueError``)."""
        missing = set(entry.match) - set(self.key_fields)
        if missing:
            raise ValueError(f"match on non-key fields: {sorted(missing)}")
        for fname, spec in entry.match.items():
            try:
                if self.kind == MatchKind.EXACT:
                    int(spec)  # type: ignore[arg-type]
                    continue
                first, second = spec  # type: ignore[misc]
                int(first), int(second)
            except (TypeError, ValueError, OverflowError):
                shape = {
                    MatchKind.EXACT: "an integer",
                    MatchKind.TERNARY: "(value, mask)",
                    MatchKind.LPM: "(prefix, length)",
                    MatchKind.RANGE: "(lo, hi)",
                }[self.kind]
                raise ValueError(
                    f"table {self.name!r}: {self.kind} spec for {fname!r} "
                    f"must be {shape}, got {spec!r}"
                ) from None
            if self.kind == MatchKind.LPM and not 0 <= int(second) <= 32:
                raise ValueError(
                    f"table {self.name!r}: {self.kind} length for {fname!r} must be "
                    f"in [0, 32], got {second!r}"
                )

    def _ensure_index(self) -> None:
        """Compile the table if a control-plane change left it stale."""
        if self._index_dirty:
            self._compile()

    def _compile(self) -> None:
        """Build the scalar hash index and the batched sorted-code index."""
        self._exact_index = {}
        self._partial_positions = []
        self._field_values = []
        self._prefix_codes = []
        self._code_winner = np.empty(0, dtype=np.int64)
        self._index_dirty = False
        if self.kind != MatchKind.EXACT:
            return
        key_set = set(self.key_fields)
        for pos, entry in enumerate(self.entries):
            if set(entry.match) == key_set:
                key = tuple(int(entry.match[f]) for f in self.key_fields)
                # First (highest-priority) entry for a duplicate key wins.
                self._exact_index.setdefault(key, pos)
            else:
                self._partial_positions.append(pos)
        # A key outside int64 can never equal a row of an int64 column.
        indexed = [
            (key, pos)
            for key, pos in self._exact_index.items()
            if all(_INT64.min <= v <= _INT64.max for v in key)
        ]
        if not indexed:
            return
        keys = np.array([key for key, __ in indexed], dtype=np.int64)
        code = np.zeros(len(indexed), dtype=np.int64)
        for j in range(len(self.key_fields)):
            values = np.unique(keys[:, j])
            code = code * len(values) + np.searchsorted(values, keys[:, j])
            self._field_values.append(values)
            if j:
                # Re-rank so the next field's radix cannot overflow a code.
                prefixes = np.unique(code)
                code = np.searchsorted(prefixes, code)
                self._prefix_codes.append(prefixes)
        self._code_winner = np.empty(len(indexed), dtype=np.int64)
        self._code_winner[code] = [pos for __, pos in indexed]

    @property
    def occupancy(self) -> int:
        return len(self.entries)

    # ------------------------------------------------------------------
    # Data-plane lookup
    # ------------------------------------------------------------------
    def _matches(self, entry: TableEntry, phv: PHV) -> bool:
        for fname in self.key_fields:
            if fname not in entry.match:
                continue  # wildcard
            value = int(phv.get(fname))
            spec = entry.match[fname]
            if self.kind == MatchKind.EXACT:
                if value != int(spec):  # type: ignore[arg-type]
                    return False
            elif self.kind == MatchKind.TERNARY:
                want, mask = spec  # type: ignore[misc]
                if (value & int(mask)) != (int(want) & int(mask)):
                    return False
            elif self.kind == MatchKind.LPM:
                prefix, length = spec  # type: ignore[misc]
                shift = 32 - int(length)
                if (value >> shift) != (int(prefix) >> shift):
                    return False
            else:  # RANGE
                lo, hi = spec  # type: ignore[misc]
                if not int(lo) <= value <= int(hi):
                    return False
        return True

    def _find(self, phv: PHV) -> TableEntry | None:
        """The winning entry (lowest position in priority order), if any."""
        if self.kind == MatchKind.EXACT and self.entries:
            self._ensure_index()
            key = tuple(int(phv.get(f)) for f in self.key_fields)
            best = self._exact_index.get(key)
            for pos in self._partial_positions:  # ascending positions
                if best is not None and pos > best:
                    break
                if self._matches(self.entries[pos], phv):
                    best = pos if best is None else min(best, pos)
                    break
            return None if best is None else self.entries[best]
        for entry in self.entries:
            if self._matches(entry, phv):
                return entry
        return None

    def lookup(self, phv: PHV) -> Action:
        """Find the winning entry's action (or the default on a miss)."""
        self.lookups += 1
        entry = self._find(phv)
        if entry is not None:
            entry.hits += 1
            return entry.action
        self.misses += 1
        return self.default_action

    def apply(self, phv: PHV) -> None:
        """Lookup then run the action — one pipeline stage's work."""
        self.lookup(phv).apply(phv)

    # ------------------------------------------------------------------
    # Batched data-plane lookup
    # ------------------------------------------------------------------
    def _winners_exact(self, cols: dict[str, np.ndarray], n: int) -> np.ndarray:
        """Look the batch's key columns up in the compiled sorted codes."""
        winner = np.full(n, -1, dtype=np.int64)
        if len(self._code_winner):
            hit = np.ones(n, dtype=bool)
            code = np.zeros(n, dtype=np.int64)
            for j, (fname, values) in enumerate(zip(self.key_fields, self._field_values)):
                found, rank = _rank(values, cols[fname])
                hit &= found
                code = code * len(values) + rank
                if j:
                    found, code = _rank(self._prefix_codes[j - 1], code)
                    hit &= found
            winner = np.where(hit, self._code_winner[code], winner)
        # Wildcarded entries can still outrank an index hit when they sit
        # earlier in priority order.
        for pos in self._partial_positions:
            entry = self.entries[pos]
            cond = np.ones(n, dtype=bool)
            for fname in self.key_fields:
                if fname in entry.match:
                    cond &= cols[fname] == int(entry.match[fname])  # type: ignore[arg-type]
            better = cond & ((winner < 0) | (pos < winner))
            winner[better] = pos
        return winner

    def _winners_masked(self, cols: dict[str, np.ndarray], n: int) -> np.ndarray:
        """Broadcast mask comparison per entry, priority via ``argmax``."""
        matched = np.ones((len(self.entries), n), dtype=bool)
        for pos, entry in enumerate(self.entries):
            row = matched[pos]
            for fname in self.key_fields:
                if fname not in entry.match:
                    continue  # wildcard
                col = cols[fname]
                spec = entry.match[fname]
                if self.kind == MatchKind.TERNARY:
                    want, mask = spec  # type: ignore[misc]
                    row &= (col & int(mask)) == (int(want) & int(mask))
                elif self.kind == MatchKind.LPM:
                    prefix, length = spec  # type: ignore[misc]
                    shift = 32 - int(length)
                    row &= (col >> shift) == (int(prefix) >> shift)
                else:  # RANGE
                    lo, hi = spec  # type: ignore[misc]
                    row &= (col >= int(lo)) & (col <= int(hi))
        any_hit = matched.any(axis=0)
        # Entries are priority-ordered, so the first matching row wins.
        return np.where(any_hit, matched.argmax(axis=0), np.int64(-1))

    def _resolve(self, batch: PHVBatch) -> tuple[np.ndarray, np.ndarray]:
        """Winner per packet (-1 = miss) and ``bincount(winner + 1)``, with
        the counters advanced from that count."""
        n = batch.n
        self.lookups += n
        self._ensure_index()
        if not self.entries or n == 0:
            winner = np.full(n, -1, dtype=np.int64)
        else:
            cols = {f: batch.int_column(f) for f in self.key_fields}
            if self.kind == MatchKind.EXACT:
                winner = self._winners_exact(cols, n)
            else:
                winner = self._winners_masked(cols, n)
        counts = np.bincount(winner + 1, minlength=len(self.entries) + 1)
        self.misses += int(counts[0])
        # Array methods, not ``np.`` wrappers: this runs once per stage
        # per chunk, and the wrappers are Python calls.
        for pos in counts[1:].nonzero()[0]:
            self.entries[pos].hits += int(counts[pos + 1])
        return winner, counts

    def lookup_batch(self, batch: PHVBatch) -> np.ndarray:
        """Winning entry position per packet (-1 = miss), plus accounting.

        Exact tables are resolved through the compiled sorted codes (built
        once per ``install`` / ``remove_all``), then the wildcarded entries
        that outrank a code hit; other kinds through broadcast masks.  Stat
        counters (``lookups``/``misses``/per-entry ``hits``) advance exactly
        as ``N`` scalar lookups would, all from one ``bincount``.
        """
        return self._resolve(batch)[0]

    def apply_batch(self, batch: PHVBatch) -> None:
        """Batched lookup + grouped action application (one stage's work).

        The lookup's ``bincount`` names the action groups: each non-empty
        bin (misses first, then entries in priority order) runs its action
        once on its rows; actions without primitives, such as the default
        noop, are skipped.
        """
        winner, counts = self._resolve(batch)
        for slot in counts.nonzero()[0]:
            action = self.default_action if slot == 0 else self.entries[slot - 1].action
            if action.primitives:
                action.apply_batch(batch, winner == slot - 1)


def _rank(values: np.ndarray, x: np.ndarray) -> tuple[np.ndarray, np.ndarray]:
    """Where each ``x`` sits in the sorted ``values``: (present, index), the
    index clipped into range so misses stay safe to gather with."""
    index = np.minimum(values.searchsorted(x), len(values) - 1)
    return values[index] == x, index
