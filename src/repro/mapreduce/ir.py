"""Streaming-dataflow IR for MapReduce programs.

Section 4: "Programs are compiled to a streaming dataflow graph: from this
hierarchy, innermost loops become SIMD operations within a CU, and outer
loops are mapped over multiple CUs."  A :class:`DataflowGraph` is that
intermediate form: a DAG of typed nodes, each of which lowers to one or more
CUs/MUs.  The graph is *executable* (the functional CGRA simulation runs
it node by node) and *analyzable* (the compiler derives area, latency, and
throughput from its structure).

Node kinds
----------
``input``      packet features arriving from the PHV
``const``      a weight bank resident in MUs
``dot``        matrix-vector multiply + bias (map of multiplies + tree
               reduce) — the perceptron primitive of Fig. 3
``mapreduce``  an op-chain map followed by a tree reduce per instance
               (e.g. squared distances)
``map``        an element-wise op chain (activations, scaling, updates)
``gather``     merge scalars from parallel CUs into one dense vector
``reduce``     a vector-to-scalar reduction (sum/max/argmax/...)
``lut``        an MU-resident lookup table
``output``     result written back into the PHV

Execution semantics
-------------------
Every node has one meaning over a stream of packets: its ``fn`` takes
``(B, width)`` arrays, one row per packet, and returns ``(B, out)`` (or
``(B,)``) whose row ``b`` depends on row ``b`` of its inputs alone.  A
``reduce`` node may leave ``fn`` out and name a
:data:`~repro.mapreduce.ops.REDUCE_OPS` entry instead.

The node-at-a-time interpreter is the *reference*.
:meth:`DataflowGraph.execute_batch` runs it on a ``(B, D)`` block, and
:meth:`DataflowGraph.execute` on one feature vector as a one-row block.
A lowering may also attach a compiled :attr:`DataflowGraph.kernel` — one
function computing the whole graph on a batch, bit-identical to the
interpreter in its values and in the ``state`` it leaves — which
``execute_batch`` runs whenever no ``observer`` is attached and ``state``
holds no recurrent entries.  Passing an ``observer`` (or calling
``execute``) always runs the reference.

Epilogue contract
-----------------
For recurrent graphs (``temporal_iterations > 1``) nodes marked
``epilogue=True`` run exactly **once**, after the last temporal iteration —
e.g. the LSTM's action head, which reads the final hidden state.  Epilogue
nodes may only feed other epilogue nodes (their values do not exist during
earlier iterations); :meth:`DataflowGraph.add` rejects wiring that
violates this at build time.
The compiler's latency model prices the epilogue the same way: once, after
``body * temporal_iterations`` cycles (see ``compiler/pipeline.py``).

Input contract
--------------
Input-node values are handed to node ``fn`` callables as
**read-only** views (``arr.flags.writeable = False``): every ``input`` node
shares the same features array, so a mutating callable would silently
corrupt sibling consumers.  Node callables must treat all arguments as
immutable and allocate fresh arrays for their outputs.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable

import numpy as np

from .ops import REDUCE_OPS

__all__ = ["Node", "DataflowGraph", "NODE_KINDS", "NODE_DESCRIPTOR_WORDS", "RESERVED_STATE_KEYS"]

#: State key the interpreter itself owns (the temporal loop counter).
RESERVED_STATE_KEYS = frozenset({"iteration"})

#: Configuration words per node descriptor (opcode, routing, lane masks)
#: streamed into the grid when a program is loaded.  Weight banks add their
#: resident values on top — see :meth:`DataflowGraph.config_words`.
NODE_DESCRIPTOR_WORDS = 4

NODE_KINDS = (
    "input",
    "const",
    "dot",
    "mapreduce",
    "map",
    "gather",
    "reduce",
    "lut",
    "output",
)


@dataclass
class Node:
    """One dataflow node.

    Attributes
    ----------
    parallel:
        Independent instances mapped side by side (the outer-map factor;
        e.g. one instance per neuron in a Dense layer).
    width:
        Vector width consumed by each instance (the inner SIMD factor).
    chain_ops:
        Length of the dependent element-wise op chain (``map``/``mapreduce``
        nodes); determines how many CU stage slots the chain needs.
    reduce_op:
        Reduction operator name for ``dot``/``mapreduce``/``reduce`` nodes.
    fn:
        Functional semantics over a batch: called with ``(B, width)``
        input arrays (one row per packet, plus ``state`` when the
        callable sets ``wants_state``), returns ``(B, out_width)`` or
        ``(B,)``.  Arguments are read-only; implementations must not
        mutate them.  ``reduce`` nodes may omit ``fn`` entirely, in which
        case the interpreter applies the named
        :data:`~repro.mapreduce.ops.REDUCE_OPS` entry.
    weight_values:
        Number of constant values this node keeps in MUs (``const``/``lut``).
    value_range:
        Declared real-valued output range ``(lo, hi)``.  On ``input`` nodes
        it is a *precondition* on arriving data (what the preprocessing
        MATs deliver); on compute nodes it is a frontend certification of
        the node's output bound.  ``repro.analysis.ranges`` trusts these
        declarations (and the execution-probe / property tests check them
        dynamically); ``None`` means unbounded.
    transfer:
        Name of a registered abstract transfer function in
        :data:`repro.analysis.ranges.TRANSFERS` describing this node's
        interval semantics (e.g. ``"roundtrip"``, ``"dot"``, ``"relu"``).
        Nodes without one (and without ``value_range``) analyze as
        unbounded.
    payload:
        Structured analysis facts the transfer reads: weight/bias arrays,
        the saturating output format, LUT domains, declared state-key
        ranges.  Opaque to the interpreter.
    waivers:
        Check IDs (e.g. ``"an-may-saturate"``) the lowering explicitly
        waives on this node; the analysis downgrades matching findings to
        info severity so by-design saturation does not fail the CI gate.
    """

    node_id: int
    kind: str
    name: str = ""
    preds: list[int] = field(default_factory=list)
    parallel: int = 1
    width: int = 1
    chain_ops: int = 0
    reduce_op: str | None = None
    fn: Callable[..., np.ndarray] | None = None
    weight_values: int = 0
    payload: Any = None
    value_range: tuple[float, float] | None = None
    transfer: str | None = None
    waivers: tuple[str, ...] = ()
    #: Epilogue nodes run once after the last temporal iteration (e.g. the
    #: LSTM's action head) rather than inside the recurrent step.
    epilogue: bool = False

    def __post_init__(self) -> None:
        if self.kind not in NODE_KINDS:
            raise ValueError(f"unknown node kind {self.kind!r}")
        if self.parallel <= 0 or self.width <= 0:
            raise ValueError("parallel and width must be positive")
        if self.value_range is not None:
            lo, hi = self.value_range
            if not lo <= hi:
                raise ValueError(
                    f"value_range lo must not exceed hi, got ({lo}, {hi})"
                )


@dataclass
class DataflowGraph:
    """A DAG of :class:`Node` objects plus temporal metadata.

    ``temporal_iterations`` models recurrences (the LSTM executes its step
    subgraph once per history element, reusing the same hardware), and
    ``initiation_interval`` is the packet-issue interval in cycles (1 =
    line rate; the compiler raises it when a kernel is only partially
    unrolled, Table 7).
    """

    name: str
    nodes: dict[int, Node] = field(default_factory=dict)
    temporal_iterations: int = 1
    initiation_interval: int = 1
    _next_id: int = 0
    #: Compiled batch function ``kernel(features, state) -> (B, out)``, or
    #: ``None`` (interpret): bit-identical to interpreting the nodes on
    #: ``(B, D)`` float64 features from a fresh ``state``, in what it
    #: returns and in what it leaves in ``state`` (``iteration`` apart).
    #: Attached by a lowering once the graph is complete; :meth:`add`
    #: drops it, because it no longer describes the graph.
    kernel: Callable[[np.ndarray, dict], np.ndarray] | None = field(
        default=None, repr=False, compare=False
    )

    # ------------------------------------------------------------------
    # Construction
    # ------------------------------------------------------------------
    def add(self, kind: str, preds: list[Node] | None = None, **kwargs) -> Node:
        """Append a node; ``preds`` are upstream nodes.

        Rejects a non-epilogue node consuming an epilogue predecessor at
        build time: epilogue values only exist after the last temporal
        iteration, so such a consumer would read a value that is not
        there yet.
        """
        node = Node(
            node_id=self._next_id,
            kind=kind,
            preds=[p.node_id for p in (preds or [])],
            **kwargs,
        )
        if not node.epilogue:
            for pred in preds or []:
                if pred.epilogue:
                    raise ValueError(
                        f"epilogue node {pred.name!r} feeds "
                        f"non-epilogue node {node.name!r}"
                    )
        self.nodes[node.node_id] = node
        self._next_id += 1
        self.kernel = None
        return node

    # ------------------------------------------------------------------
    # Structure
    # ------------------------------------------------------------------
    def topo_order(self) -> list[Node]:
        """Nodes in dependency order (raises on cycles)."""
        indegree = {nid: 0 for nid in self.nodes}
        succs: dict[int, list[int]] = {nid: [] for nid in self.nodes}
        for node in self.nodes.values():
            for pred in node.preds:
                indegree[node.node_id] += 1
                succs[pred].append(node.node_id)
        ready = [nid for nid, deg in indegree.items() if deg == 0]
        order: list[Node] = []
        while ready:
            nid = ready.pop()
            order.append(self.nodes[nid])
            for succ in succs[nid]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        if len(order) != len(self.nodes):
            raise ValueError("dataflow graph contains a cycle")
        return order

    def inputs(self) -> list[Node]:
        return [n for n in self.nodes.values() if n.kind == "input"]

    def outputs(self) -> list[Node]:
        return [n for n in self.nodes.values() if n.kind == "output"]

    def config_words(self) -> int:
        """Size of this program's configuration stream, in words.

        Reconfiguring the grid (a CGRA loads a new program between
        packets, not a new bitstream) streams one fixed-size descriptor
        per node plus every MU-resident constant (weight banks, LUT
        tables).  The multi-app fabric prices time-multiplexed program
        swaps from this: a bigger model takes proportionally longer to
        swap in (see :meth:`repro.hw.grid.MapReduceBlock.reconfigure`).
        """
        return sum(
            NODE_DESCRIPTOR_WORDS + node.weight_values
            for node in self.nodes.values()
        )

    # ------------------------------------------------------------------
    # Functional execution
    # ------------------------------------------------------------------
    def execute(self, features: np.ndarray, state: dict | None = None) -> np.ndarray:
        """Run the graph functionally on one ``(D,)`` feature vector.

        The vector runs as a one-row batch through the reference
        interpreter (never the compiled :attr:`kernel`), and row 0 comes
        back.  ``state`` carries values across :attr:`temporal_iterations`
        for recurrent graphs, with a leading batch axis of 1 (the LSTM's
        ``h`` is ``(1, hidden)``).  Input of any other rank is a
        ``ValueError``: one answer cannot stand for several packets.
        """
        features = np.array(features, dtype=np.float64)  # private copy
        if features.ndim != 1:
            raise ValueError(
                f"execute expects (D,) features, got shape {features.shape}"
            )
        features = features[None]
        features.flags.writeable = False
        return self._interpret(features, state)[0]

    def execute_batch(
        self,
        features: np.ndarray,
        state: dict | None = None,
        observer: Callable[[Node, np.ndarray, int], None] | None = None,
    ) -> np.ndarray:
        """Run the graph on a ``(B, D)`` block of feature vectors at once.

        Row ``b`` of the result is what :meth:`execute` returns for packet
        ``b``.  Recurrent state is batched the same way (``state["h"]`` is
        ``(B, hidden)`` for the LSTM), and epilogue nodes run once after
        the final temporal iteration.

        ``observer(node, value, iteration)`` is called with every node's
        stored value as it is computed — the hook ``repro.analysis``'s
        execution probe uses to check the 2-D value contract and inferred
        widths.  Observers must treat ``value`` as read-only.  Without an
        observer, a graph carrying a compiled :attr:`kernel` runs that
        instead of the interpreter (same values, same ``state`` left, no
        per-node dispatch) — unless ``state`` already holds entries besides
        ``iteration``: a kernel starts its recurrence from nothing.
        """
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2:
            raise ValueError(
                f"execute_batch expects (B, D) features, got shape "
                f"{features.shape}"
            )
        state = state if state is not None else {}
        if observer is None and self.kernel is not None and state.keys() <= RESERVED_STATE_KEYS:
            state["iteration"] = self.temporal_iterations - 1
            return self.kernel(features, state)
        features = features.copy()  # private: nodes see a read-only view
        features.flags.writeable = False
        return self._interpret(features, state, observer)

    def _interpret(
        self,
        features: np.ndarray,
        state: dict | None,
        observer: Callable[[Node, np.ndarray, int], None] | None = None,
    ) -> np.ndarray:
        """The reference interpreter over a read-only ``(B, D)`` block.

        Every stored value is ``(B, width)``.  Keeping the temporal loop,
        epilogue skipping, and structural node dispatch in one place is
        deliberate: the epilogue bug this module once carried came from
        semantics drifting between duplicated loops.
        """
        empty = np.empty((features.shape[0], 0))
        state = state if state is not None else {}
        values: dict[int, np.ndarray] = {}
        result: np.ndarray | None = None
        order = self.topo_order()
        for iteration in range(self.temporal_iterations):
            state["iteration"] = iteration
            last = iteration == self.temporal_iterations - 1
            for node in order:
                if node.epilogue and not last:
                    continue
                if node.kind == "input":
                    value = features
                elif node.kind == "const":
                    value = empty
                else:
                    args = [
                        values[p]
                        for p in node.preds
                        if self.nodes[p].kind != "const"
                    ]
                    if node.kind == "gather":
                        value = np.concatenate(args, axis=1)
                    elif node.kind == "output":
                        value = args[0] if args else empty
                        result = value
                    else:
                        value = _as_batch_2d(_run_node(node, args, state))
                values[node.node_id] = value
                if observer is not None:
                    observer(node, value, iteration)
        if result is None:
            raise ValueError("graph has no output node")
        return result

    def __len__(self) -> int:
        return len(self.nodes)


def _as_batch_2d(value: np.ndarray) -> np.ndarray:
    """Normalize a batched node value to ``(B, width)``."""
    value = np.asarray(value)
    if value.ndim == 1:
        return value[:, None]
    return value


def _run_node(node: Node, args: list[np.ndarray], state: dict) -> np.ndarray:
    """One node on a batch: its ``fn``, or a named reduce."""
    if node.fn is not None:
        return node.fn(*args, **_state_kwarg(node.fn, state))
    if node.kind == "reduce" and node.reduce_op in REDUCE_OPS:
        return REDUCE_OPS[node.reduce_op].batched(args[0])
    raise ValueError(f"node {node.name!r} has no semantics")


def _state_kwarg(fn: Callable, state: dict) -> dict:
    """Pass mutable state only to callables that want it."""
    if getattr(fn, "wants_state", False):
        return {"state": state}
    return {}
