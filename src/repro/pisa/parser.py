"""Programmable packet parser (parse graph -> PHV).

PISA parsers walk a state machine, extracting header fields into the PHV
(Gibb et al., "Design principles for packet parsers").  We model the parse
graph explicitly: states extract fields and branch on a select field.
"""

from __future__ import annotations

from collections import deque
from graphlib import CycleError, TopologicalSorter
from dataclasses import dataclass, field

import numpy as np

from .packet import Packet
from .phv import PHV, PHVBatch, PHVLayout

__all__ = ["ParseState", "Parser", "default_layout", "default_parser"]


@dataclass
class ParseState:
    """One parser state: extract fields, then branch on a select field."""

    name: str
    extracts: list[str] = field(default_factory=list)
    select: str | None = None
    transitions: dict[int, str] = field(default_factory=dict)
    default_next: str | None = None  # None terminates parsing


class Parser:
    """A parse graph executed per packet.

    Parameters
    ----------
    layout:
        PHV layout fields are extracted into.
    states:
        Parse states, keyed by name; parsing starts at ``start``.

    The graph is compiled once, here: each state's extracts are resolved to
    their PHV slots and width masks, and the graph is checked for a cycle.
    ``states`` must not be mutated afterwards.
    """

    def __init__(self, layout: PHVLayout, states: dict[str, ParseState], start: str = "start"):
        if start not in states:
            raise ValueError(f"missing start state {start!r}")
        graph = {n: {*s.transitions.values(), s.default_next} - {None} for n, s in states.items()}
        unknown = set().union(*graph.values()) - states.keys()
        if unknown:
            raise ValueError(f"transition to unknown state {min(unknown)!r}")
        self.layout = layout
        self.states = states
        self.start = start
        self.packets_parsed = 0
        try:
            TopologicalSorter(graph).prepare()
            self._loops = False
        except CycleError:
            self._loops = True
        # Per state: its extracts as (field, *slot) and their written-mask
        # rows.  An extract naming no layout field is a KeyError here.
        self._plan = {}
        for name, state in states.items():
            slots = [(f, *layout.slots[f]) for f in state.extracts]
            self._plan[name] = slots, np.array([slot[3] for slot in slots], dtype=np.intp)

    def parse(self, packet: Packet) -> PHV:
        """Walk the parse graph, producing the packet's PHV."""
        phv = PHV(self.layout)
        state_name: str | None = self.start
        visited = 0
        while state_name is not None:
            visited += 1
            if visited > len(self.states) + 1:
                raise RuntimeError("parse graph loop detected")
            state = self.states[state_name]
            for fname in state.extracts:
                phv.set(fname, packet.headers.get(fname, 0))
            if state.select is not None:
                key = int(packet.headers.get(state.select, 0))
                state_name = state.transitions.get(key, state.default_next)
            else:
                state_name = state.default_next
        phv.set("payload_len", packet.payload_len)
        self.packets_parsed += 1
        return phv

    def parse_batch(
        self, headers: dict[str, np.ndarray], payload_len: np.ndarray
    ) -> PHVBatch:
        """Parse ``N`` packets at once from columnar header fields.

        The graph is evaluated once per reachable (state, packet mask)
        pair; the start state runs unmasked and a select fans the mask out
        per transition value.  Each extract is one write into the batch's
        header block — whole rows in an unmasked state, else through
        ``np.putmask`` (twice as fast as a ``where=`` ufunc at 2,048
        rows) — or its feature block, and a state's written rows are set
        in one step.  Results are bit-identical to
        :meth:`parse` per packet.  The per-packet loop guard runs only when
        the graph has a cycle (in a DAG no packet can visit more states
        than there are) and there are rows: zero rows walk no state.
        """
        n = len(payload_len)
        batch = PHVBatch(self.layout, n)
        block, features, written = batch.headers, batch.features, batch.written
        zeros = np.zeros(n, dtype=np.int64)
        # Non-int64 columns convert with int() truncation semantics.
        headers = {name: col.astype(np.int64, copy=False) for name, col in headers.items()}
        visited = np.zeros(n, dtype=np.int64) if self._loops else None
        work: deque[tuple[str, np.ndarray | bool]] = deque([(self.start, True)] if n else ())
        while work:
            state_name, mask = work.popleft()
            state = self.states[state_name]
            extracts, rows = self._plan[state_name]
            if visited is not None:
                visited += mask
                if visited.max() > len(self.states) + 1:
                    raise RuntimeError("parse graph loop detected")
            for fname, feature, index, __, width_mask, __ in extracts:
                col = headers.get(fname, zeros)
                if feature:
                    np.copyto(features[:, index], col, where=mask)
                elif mask is True:
                    np.bitwise_and(col, width_mask, out=block[index])
                else:
                    np.putmask(block[index], mask, col & width_mask)
            if len(rows):
                written[rows] = True if mask is True else written[rows] | mask
            if state.select is not None:
                key = headers.get(state.select, zeros)
                remaining = np.ones(n, dtype=bool) if mask is True else mask
                for value, target in state.transitions.items():
                    sub = (key == value) & remaining
                    if sub.any():
                        remaining = remaining & ~sub
                        if target is not None:
                            work.append((target, sub))
                if state.default_next is not None and remaining.any():
                    work.append((state.default_next, remaining))
            elif state.default_next is not None:
                work.append((state.default_next, mask))
        batch.set_column("payload_len", payload_len)
        self.packets_parsed += n
        return batch


def default_layout(feature_names: tuple[str, ...]) -> PHVLayout:
    """The standard Taurus PHV: 5-tuple + flags + a dense feature region."""
    header_fields = (
        ("src_ip", 32),
        ("dst_ip", 32),
        ("src_port", 16),
        ("dst_port", 16),
        ("protocol", 8),
        ("urgent_flag", 1),
        ("seq", 32),
        ("payload_len", 16),
        ("ml_bypass", 1),
        ("ml_score", 16),
        ("decision", 2),
    )
    feature_fields = tuple((name, 8) for name in feature_names)
    return PHVLayout(
        fields=header_fields + feature_fields,
        feature_fields=feature_names,
    )


def default_parser(layout: PHVLayout) -> Parser:
    """Ethernet -> IPv4 -> {TCP, UDP} parse graph."""
    states = {
        "start": ParseState(
            name="start",
            extracts=["src_ip", "dst_ip", "protocol"],
            select="protocol",
            transitions={0: "tcp", 1: "udp"},
            default_next="accept",
        ),
        "tcp": ParseState(
            name="tcp",
            extracts=["src_port", "dst_port", "urgent_flag", "seq"],
            default_next="accept",
        ),
        "udp": ParseState(
            name="udp",
            extracts=["src_port", "dst_port"],
            default_next="accept",
        ),
        "accept": ParseState(name="accept"),
    }
    return Parser(layout, states)
