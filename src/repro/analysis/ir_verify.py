"""Pass-based static verification of :class:`DataflowGraph` programs.

:func:`verify_graph` runs three pass families and returns the union of
their findings as :class:`~repro.analysis.diagnostics.Diagnostic` records:

structure
    Orphaned compute nodes, a missing or duplicated output, dead nodes,
    and state-key collisions.  Pure graph traversal; always runs.  Cycles
    and epilogue wiring are not checked here: ``topo_order`` raises on
    the first and ``DataflowGraph.add`` on the second.
shape
    Width inference propagated in topo order.  Each node kind has an
    output-width rule (``dot``/``mapreduce`` produce ``parallel`` values,
    ``gather`` the sum of its inputs, ``reduce`` one, ``map``/``lut``
    their declared width); consuming widths are checked where the kind
    pins them.  State-carrying nodes (``wants_state``) have *unknown*
    width — their semantics may slice or re-shape (the LSTM's
    ``cell_update`` consumes ``4H`` gate pre-activations and emits ``H``)
    — and unknown propagates rather than guessing.
probe (optional, ``probe=True``)
    A tiny concrete execution: a 3-row batch (zeros plus two seeded
    random rows on the fixed-point grid) through ``execute_batch`` with
    an observer, checking the 2-D ``(B, width)`` value contract, inferred
    vs. actual widths, and fixed-point grid drift on the outputs; a
    compiled kernel is run against its nodes on ~500 more rows
    (saturating, NaN / inf, several tiles; the kernel under
    ``np.errstate(invalid="raise")``), values and state left behind.  Seeded and O(nodes · iterations), so it is a
    static check in spirit: no trace data, no model dependence.

Budgets are not priced here: ``compile_graph`` raises a typed
``BudgetError`` on a design that does not fit.
"""

from __future__ import annotations

import dis
from typing import Callable

import numpy as np

from ..fixpoint import FIX8, FixedPointFormat
from ..mapreduce.ir import RESERVED_STATE_KEYS, DataflowGraph, Node
from ..mapreduce.ops import REDUCE_OPS
from .diagnostics import Diagnostic, Severity

__all__ = ["verify_graph"]

#: Node kinds that must consume at least one predecessor.
_CONSUMER_KINDS = frozenset(
    {"dot", "mapreduce", "map", "gather", "reduce", "lut", "output"}
)

#: The probe's drift grid: outputs must sit on multiples of 2**-12,
#: which contains every shipped format's grid (frac_bits <= 12).
_DRIFT_GRID_BITS = 12


# ======================================================================
# Public API
# ======================================================================
def verify_graph(
    graph: DataflowGraph,
    fmt: FixedPointFormat = FIX8,
    probe: bool = True,
) -> list[Diagnostic]:
    """Statically verify one dataflow graph; returns all findings.

    ``probe`` enables the concrete 3-row execution probe (skipped
    automatically while structural or shape errors make execution
    meaningless).
    """
    diags = _check_structure(graph)
    widths: dict[int, int | None] = {}
    diags += _check_shapes(graph, widths)
    if probe and not any(d.severity >= Severity.ERROR for d in diags):
        diags += _probe(graph, widths, fmt)
    return diags


# ======================================================================
# Structure passes
# ======================================================================
def _check_structure(graph: DataflowGraph) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    src = graph.name

    def report(check: str, severity: Severity, msg: str, node: Node | None = None):
        diags.append(Diagnostic(
            check, severity, msg, src,
            node=None if node is None else node.node_id,
            node_name=None if node is None else (node.name or None),
        ))

    outputs = graph.outputs()
    for node in graph.nodes.values():
        if node.kind in _CONSUMER_KINDS and not node.preds:
            report("ir-orphan", Severity.ERROR,
                   f"{node.kind} node has no predecessors to consume", node)

    if not outputs:
        report("ir-no-output", Severity.ERROR,
               "graph has no output node; execute() raises")
    elif len(outputs) > 1:
        report("ir-multi-output", Severity.WARNING,
               f"graph has {len(outputs)} output nodes; execute() "
               "returns only the last in topo order")

    # -- liveness: everything an output reads, transitively --------------
    live = {n.node_id for n in outputs}
    stack = list(live)
    while stack:
        for pred in graph.nodes[stack.pop()].preds:
            if pred not in live:
                live.add(pred)
                stack.append(pred)
    for node in graph.nodes.values():
        if node.kind != "output" and node.node_id not in live:
            report("ir-dead-node", Severity.WARNING,
                   "no path from this node to any output; its value "
                   "is computed and discarded", node)

    # -- state keys ------------------------------------------------------
    writes: dict[str, Node] = {}
    for node in graph.nodes.values():
        for key in _node_state_keys(node):
            if key in RESERVED_STATE_KEYS:
                report("ir-state-collision", Severity.ERROR,
                       f"writes reserved state key {key!r} (owned by the "
                       "temporal loop)", node)
            elif key in writes and writes[key].node_id != node.node_id:
                report("ir-state-collision", Severity.ERROR,
                       f"state key {key!r} is also written by node "
                       f"{writes[key].name!r}; the last writer in topo "
                       "order silently wins", node)
            else:
                writes[key] = node
    return diags


def _node_state_keys(node: Node) -> set[str]:
    """State keys this node's semantics assign (bytecode scan)."""
    return _written_subscript_keys(node.fn) if _node_is_stateful(node) else set()


def _written_subscript_keys(fn: Callable) -> set[str]:
    """String keys stored by ``x[key] = ...`` anywhere in ``fn``.

    ``STORE_SUBSCR`` pops ``(value, container, key)``; when the key was
    pushed by the immediately preceding ``LOAD_CONST`` it is a literal
    string we can recover.  Non-Python callables scan as empty.
    """
    try:
        instructions = list(dis.get_instructions(fn))
    except TypeError:
        return set()
    keys: set[str] = set()
    prev = None
    for ins in instructions:
        if (
            ins.opname == "STORE_SUBSCR"
            and prev is not None
            and prev.opname == "LOAD_CONST"
            and isinstance(prev.argval, str)
        ):
            keys.add(prev.argval)
        prev = ins
    return keys


# ======================================================================
# Shape / width inference
# ======================================================================
def _node_is_stateful(node: Node) -> bool:
    return getattr(node.fn, "wants_state", False)


def _check_shapes(
    graph: DataflowGraph, widths: dict[int, int | None]
) -> list[Diagnostic]:
    """Propagate output widths in topo order; fill ``widths`` in place.

    ``None`` means *unknown* (state-carrying semantics may reshape); an
    unknown input disables the consuming check rather than guessing.
    """
    diags: list[Diagnostic] = []
    src = graph.name

    def report(check: str, msg: str, node: Node):
        diags.append(Diagnostic(
            check, Severity.ERROR, msg, src,
            node=node.node_id, node_name=node.name or None,
        ))

    for node in graph.topo_order():
        pred_widths = [
            widths.get(p) for p in node.preds if graph.nodes[p].kind != "const"
        ]
        in_width = (
            sum(pred_widths) if pred_widths and None not in pred_widths
            else None
        )

        if node.kind == "input":
            widths[node.node_id] = node.width
            continue
        if node.kind == "const":
            widths[node.node_id] = 0
            continue

        if _has_no_semantics(node):
            report("ir-no-semantics",
                   f"{node.kind} node has neither fn nor a known "
                   "reduce_op; the interpreter raises on it", node)

        if _node_is_stateful(node):
            # Stateful semantics may slice/reshape (cell_update: 4H -> H).
            widths[node.node_id] = None
            continue

        if node.kind in ("dot", "mapreduce"):
            if in_width is not None and in_width != node.width:
                report("ir-width-mismatch",
                       f"consumes {in_width} values but declares "
                       f"width={node.width}; the lowered CU lanes would "
                       "read past (or waste) the gathered vector", node)
            widths[node.node_id] = node.parallel
        elif node.kind == "map":
            # Maps may slice their input (conv window extraction), so the
            # consuming width is unchecked; the output is the declared width.
            widths[node.node_id] = node.width
        elif node.kind == "lut":
            if in_width is not None and in_width != node.width:
                report("ir-width-mismatch",
                       f"consumes {in_width} values but declares "
                       f"width={node.width}; one table read per lane "
                       "needs matching widths", node)
            widths[node.node_id] = node.width
        elif node.kind == "gather":
            if in_width is not None and in_width != node.width:
                report("ir-gather-width",
                       f"declares width={node.width} but its inputs "
                       f"total {in_width} values", node)
            widths[node.node_id] = (
                in_width if in_width is not None else node.width
            )
        elif node.kind == "reduce":
            if in_width is not None and in_width != node.width:
                report("ir-width-mismatch",
                       f"reduces {in_width} values but declares "
                       f"width={node.width}", node)
            widths[node.node_id] = 1
        elif node.kind == "output":
            if in_width is not None and node.width != in_width:
                report("ir-width-mismatch",
                       f"declares width={node.width} but its "
                       f"predecessor produces {in_width} values", node)
            widths[node.node_id] = in_width
        else:  # pragma: no cover - NODE_KINDS is closed
            widths[node.node_id] = None
    return diags


def _has_no_semantics(node: Node) -> bool:
    if node.kind in ("input", "const", "gather", "output"):
        return False  # structural; the interpreter handles them inline
    if node.fn is not None:
        return False
    return not (node.kind == "reduce" and node.reduce_op in REDUCE_OPS)


# ======================================================================
# Execution probe
# ======================================================================
_PROBE_ROWS = 3


def _probe(
    graph: DataflowGraph,
    widths: dict[int, int | None],
    fmt: FixedPointFormat,
) -> list[Diagnostic]:
    """Execute a seeded 3-row batch under an observer and cross-check."""
    diags: list[Diagnostic] = []
    src = graph.name
    inputs = graph.inputs()
    if not inputs:
        return diags
    dim = max(n.width for n in inputs)

    rng = np.random.default_rng(0)
    features = np.zeros((_PROBE_ROWS, dim))
    features[1:] = fmt.roundtrip(rng.uniform(-2.0, 2.0, size=(2, dim)))

    seen: set[tuple[str, int]] = set()

    def report_once(check: str, severity: Severity, msg: str, node: Node):
        if (check, node.node_id) in seen:
            return
        seen.add((check, node.node_id))
        diags.append(Diagnostic(
            check, severity, msg, src,
            node=node.node_id, node_name=node.name or None,
        ))

    def observer(node: Node, value: np.ndarray, iteration: int) -> None:
        value = np.asarray(value)
        if value.ndim != 2 or value.shape[0] != _PROBE_ROWS:
            report_once(
                "ir-non-2d", Severity.ERROR,
                f"batched value has shape {value.shape}, violating the "
                f"(B, width) contract (B={_PROBE_ROWS})", node)
            return
        inferred = widths.get(node.node_id)
        if inferred is not None and value.shape[1] != inferred:
            report_once(
                "ir-probe-width", Severity.ERROR,
                f"produces {value.shape[1]} values per row but the "
                f"declared/inferred width is {inferred}", node)

    try:
        batch_out = graph.execute_batch(features, state={}, observer=observer)
        differing = _kernel_divergence(graph, dim, fmt) if graph.kernel is not None else []
    except Exception as exc:  # noqa: BLE001 - any failure is the finding
        diags.append(Diagnostic(
            "ir-probe-failure", Severity.ERROR,
            f"the probe raised {type(exc).__name__}: {exc}", src,
        ))
        return diags

    if differing:
        diags.append(Diagnostic(
            "ir-batch-divergence", Severity.ERROR,
            f"over {_KERNEL_PROBE_ROWS} probe rows the compiled kernel and its nodes "
            f"disagree on {', '.join(differing)}; they must be bit-identical in "
            "what they return and in the state they leave", src,
        ))

    # Fixed-point drift: outputs must sit on the 2**-12 grid, which
    # contains every format with frac_bits <= 12 (fix8/fix16 and all
    # calibrated variants).  Raw float leakage (un-roundtripped biases,
    # exact activations) lands off-grid.
    scaled = batch_out * float(1 << _DRIFT_GRID_BITS)
    off = float(np.max(np.abs(scaled - np.rint(scaled)), initial=0.0))
    if off > 1e-6:
        diags.append(Diagnostic(
            "ir-fixpoint-drift", Severity.WARNING,
            f"outputs are off the 2^-{_DRIFT_GRID_BITS} fixed-point grid "
            f"by up to {off / (1 << _DRIFT_GRID_BITS):.3g}; some value "
            "skipped its format roundtrip (raw float leakage)", src,
        ))
    return diags


#: Rows of the kernel-vs-nodes probe, 3 x 161 + 20: the shipped LSTM kernel's
#: tile is 161 rows, so the batch crosses it thrice and ends on a ragged tile.
_KERNEL_PROBE_ROWS = 503


def _kernel_divergence(graph: DataflowGraph, dim: int, fmt: FixedPointFormat) -> list[str]:
    """Where a compiled kernel and its nodes differ: the output, state keys
    (an output can hide a wrong intermediate: one raw unit of error in the
    LSTM's ``h`` rarely moves its argmax).  Seeded rows: on / off grid, at
    and beyond ``fmt``'s limits, NaN, +/-inf."""
    rng = np.random.default_rng(1)
    edges = np.array([fmt.min_value, fmt.max_value, np.nan, np.inf, -np.inf, 0.0])
    edges = np.append(edges, 4 * edges[:2])
    features = rng.uniform(-2.0, 2.0, size=(_KERNEL_PROBE_ROWS, dim))
    features[::2] = fmt.roundtrip(features[::2])
    features[: edges.size] = edges[:, None]
    scattered = rng.random(features.shape) < 0.05
    features[scattered] = rng.choice(edges, size=int(scattered.sum()))
    # A kernel's lookups saturate their index, so one into a table short of
    # its format's raw domain reads a neighbour's entry instead of raising.
    for fmt_, table in getattr(graph.kernel, "tables", ()):
        domain = fmt_.raw_max - fmt_.raw_min + 1
        if table.size != domain:
            raise ValueError(f"a kernel table has {table.size} entries for "
                             f"{fmt_.name}'s {domain} raw values")
    fused_state, node_state = {}, {}
    # A kernel's lookups saturate any index, so a NaN reaching its index
    # cast (an input that skipped its clip) would read entry 0 in silence:
    # on the probe rows that cast raises instead.
    with np.errstate(invalid="raise"):
        fused = graph.execute_batch(features, state=fused_state)
    pairs = {"the output": (
        fused, graph.execute_batch(features, state=node_state, observer=lambda *args: None),
    )}
    for key in sorted(fused_state.keys() | node_state.keys()):
        pairs[f"state[{key!r}]"] = (fused_state.get(key), node_state.get(key))

    def same(a, b) -> bool:  # a key only one side wrote compares None to a value
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)

    return [name for name, (a, b) in pairs.items() if not same(a, b)]
