"""Purity/effects classification of dataflow-graph nodes.

Classification reuses :mod:`repro.analysis.ir_verify`'s bytecode scan of
node callables (``dis``-level, no execution) plus a mirrored scan for
*reads*:

``state-write``
    The node's semantics assign a non-reserved state key
    (``state[key] = ...``).
``state-read``
    No writes, but the semantics subscript or ``.get`` a non-reserved
    key — the node's value depends on carried state.
``temporal``
    No data-state coupling, but the node is iteration-coupled all the
    same: it reads the reserved ``iteration`` counter, opts into the
    state kwarg, or is an epilogue node (exists only after the last
    iteration).
``stateless``
    Pure: output depends only on the node's data inputs.
"""

from __future__ import annotations

import dis
from dataclasses import dataclass, field
from typing import Callable

from ..mapreduce.ir import DataflowGraph, Node
from .ir_verify import (
    RESERVED_STATE_KEYS,
    _node_is_stateful,
    _node_state_keys,
)

__all__ = ["NodeEffects", "GraphEffects", "analyze_effects"]

EFFECTS = ("stateless", "state-read", "state-write", "temporal")


@dataclass(frozen=True)
class NodeEffects:
    """The effects classification of one node."""

    node_id: int
    name: str
    kind: str
    effect: str
    state_reads: tuple[str, ...] = ()
    state_writes: tuple[str, ...] = ()


@dataclass
class GraphEffects:
    """Every node's :class:`NodeEffects`, keyed by node id."""

    graph: str
    effects: dict[int, NodeEffects] = field(default_factory=dict)

    def effect_of(self, name: str) -> NodeEffects:
        """Effects record of the (unique) node with this name."""
        matches = [e for e in self.effects.values() if e.name == name]
        if len(matches) != 1:
            raise KeyError(f"{len(matches)} nodes named {name!r}")
        return matches[0]


def _read_subscript_keys(fn: Callable) -> set[str]:
    """String keys read via ``x[key]`` or ``x.get(key, ...)`` in ``fn``.

    Mirrors ``ir_verify._written_subscript_keys``: ``BINARY_SUBSCR``
    preceded by a string ``LOAD_CONST`` is a literal subscript read, and
    a string ``LOAD_CONST`` immediately after a ``get`` attribute/method
    load is a ``state.get("key")`` access.  Non-Python callables scan as
    empty (same graceful degradation as the write scan).
    """
    try:
        instructions = list(dis.get_instructions(fn))
    except TypeError:
        return set()
    keys: set[str] = set()
    prev = None
    for ins in instructions:
        if (
            ins.opname == "BINARY_SUBSCR"
            and prev is not None
            and prev.opname == "LOAD_CONST"
            and isinstance(prev.argval, str)
        ):
            keys.add(prev.argval)
        if (
            ins.opname == "LOAD_CONST"
            and isinstance(ins.argval, str)
            and prev is not None
            and prev.opname in ("LOAD_ATTR", "LOAD_METHOD")
            and prev.argval == "get"
        ):
            keys.add(ins.argval)
        prev = ins
    return keys


def _node_read_keys(node: Node) -> set[str]:
    keys: set[str] = set()
    for fn in (node.fn, node.batch_fn):
        if fn is not None and getattr(fn, "wants_state", False):
            keys |= _read_subscript_keys(fn)
    return keys


def _classify(node: Node) -> NodeEffects:
    writes = _node_state_keys(node) - RESERVED_STATE_KEYS
    reads = _node_read_keys(node) - RESERVED_STATE_KEYS
    reads_iteration = "iteration" in _node_read_keys(node)
    if writes:
        effect = "state-write"
    elif reads:
        effect = "state-read"
    elif node.epilogue or reads_iteration or _node_is_stateful(node):
        effect = "temporal"
    else:
        effect = "stateless"
    return NodeEffects(
        node_id=node.node_id,
        name=node.name,
        kind=node.kind,
        effect=effect,
        state_reads=tuple(sorted(reads)),
        state_writes=tuple(sorted(writes)),
    )


def analyze_effects(graph: DataflowGraph) -> GraphEffects:
    """Classify every node of ``graph``."""
    return GraphEffects(
        graph=graph.name,
        effects={
            node.node_id: _classify(node) for node in graph.topo_order()
        },
    )
