"""Pass-based static verification of :class:`DataflowGraph` programs.

:func:`verify_graph` runs four pass families and returns the union of
their findings as :class:`~repro.analysis.diagnostics.Diagnostic` records:

structure
    Cycles, malformed input/const/output wiring, orphaned compute nodes,
    unreachable and dead nodes, state-key collisions, epilogue/temporal
    misuse.  Pure graph traversal; always runs.
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
    vs. actual widths, batch/scalar bit-identity, and fixed-point grid
    drift on the outputs; a compiled kernel is run against its nodes on
    ~500 more rows (saturating, NaN / inf, several row tiles), values and
    state left behind.  Seeded and O(nodes · iterations), so it is a
    static check in spirit: no trace data, no model dependence.
budgets (optional, ``config=`` given)
    Statically price the graph's CU/MU/config-word footprint against a
    :class:`~repro.core.TaurusConfig`-shaped object (anything with
    ``n_cus``/``n_mus``) *before* ``compile_graph``: MU overflow is an
    error (weights cannot fold), CU folding and sub-line-rate are
    advisory (the compiler handles them, at a cost worth knowing).

:func:`verify_fabric` adds the cross-app checks for a
:class:`~repro.runtime.fabric.MultiAppFabric` bundle: duplicate app
names, aggregate MU residency, and state-key overlap.
"""

from __future__ import annotations

import dis
import math
from typing import Callable, Iterable

import numpy as np

from ..fixpoint import FIX8, FixedPointFormat
from ..hw.params import CUGeometry, DEFAULT_CU_GEOMETRY
from ..mapreduce.ir import RESERVED_STATE_KEYS, DataflowGraph, Node
from ..mapreduce.ops import REDUCE_OPS
from .diagnostics import Diagnostic, Severity

__all__ = ["verify_graph", "verify_fabric"]

#: Node kinds that must consume at least one predecessor.
_CONSUMER_KINDS = frozenset(
    {"dot", "mapreduce", "map", "gather", "reduce", "lut", "output"}
)

#: Reconfiguration cost above which a program swap is called out
#: (cycles; ~4 µs at 1 GHz — comparable to draining a deep queue).
_CONFIG_STREAM_CYCLES = 4096

#: The probe's drift grid: outputs must sit on multiples of 2**-12,
#: which contains every shipped format's grid (frac_bits <= 12).
_DRIFT_GRID_BITS = 12


# ======================================================================
# Public API
# ======================================================================
def verify_graph(
    graph: DataflowGraph,
    config=None,
    geometry: CUGeometry = DEFAULT_CU_GEOMETRY,
    fmt: FixedPointFormat = FIX8,
    probe: bool = True,
    suppress: Iterable[str] = (),
) -> list[Diagnostic]:
    """Statically verify one dataflow graph; returns all findings.

    ``config`` (anything exposing ``n_cus``/``n_mus``) enables the budget
    prechecks; ``probe`` enables the concrete 3-row execution probe
    (skipped automatically while structural errors make execution
    meaningless).  ``suppress`` drops findings by check ID.
    """
    diags: list[Diagnostic] = []
    diags += _check_structure(graph)
    had_errors = any(d.severity >= Severity.ERROR for d in diags)

    widths: dict[int, int | None] = {}
    if not _has_cycle(graph):
        if not _has_dangling_preds(graph):
            diags += _check_shapes(graph, widths)
            shape_errors = any(
                d.severity >= Severity.ERROR for d in diags
            )
            if probe and not had_errors and not shape_errors:
                diags += _probe(graph, widths, fmt)
        if config is not None:
            diags += _check_budgets(graph, config, geometry)

    suppress = set(suppress)
    return [d for d in diags if d.check_id not in suppress]


def verify_fabric(
    apps,
    config=None,
    suppress: Iterable[str] = (),
) -> list[Diagnostic]:
    """Cross-app checks for a multi-app bundle.

    ``apps`` is any iterable of objects with ``name`` and ``graph``
    attributes (e.g. :class:`~repro.runtime.fabric.FabricApp`).  Per-graph
    findings are *not* repeated here — run :func:`verify_graph` on each
    app's graph for those.
    """
    from ..compiler.allocate import graph_resources

    apps = list(apps)
    diags: list[Diagnostic] = []
    source = "fabric[" + ",".join(app.name for app in apps) + "]"

    seen: dict[str, int] = {}
    for i, app in enumerate(apps):
        if app.name in seen:
            diags.append(Diagnostic(
                "fabric-duplicate-app", Severity.ERROR,
                f"apps #{seen[app.name]} and #{i} are both named "
                f"{app.name!r}; per-app results and state would alias",
                source, node_name=app.name,
            ))
        else:
            seen[app.name] = i

    keys_by_app = [
        (app.name, _graph_state_keys(app.graph)) for app in apps
    ]
    for i, (name_a, keys_a) in enumerate(keys_by_app):
        for name_b, keys_b in keys_by_app[i + 1:]:
            shared = sorted(keys_a & keys_b)
            if shared:
                diags.append(Diagnostic(
                    "fabric-state-overlap", Severity.INFO,
                    f"apps {name_a!r} and {name_b!r} both persist state "
                    f"key(s) {shared}; state is isolated per app, but "
                    "merged dumps/deltas become ambiguous",
                    source, node_name=name_a,
                ))

    if config is not None:
        total_mu = sum(
            graph_resources(app.graph).n_mu for app in apps
        )
        if total_mu > config.n_mus:
            diags.append(Diagnostic(
                "fabric-mu-residency", Severity.WARNING,
                f"apps need {total_mu} MUs together but the grid has "
                f"{config.n_mus}; they cannot co-reside, so every swap "
                "re-streams weight banks",
                source,
            ))

    suppress = set(suppress)
    return [d for d in diags if d.check_id not in suppress]


# ======================================================================
# Structure passes
# ======================================================================
def _has_cycle(graph: DataflowGraph) -> bool:
    """Kahn's algorithm over the existing nodes.

    Self-contained rather than delegating to ``graph.topo_order()``: the
    verifier must stay diagnosable on exactly the malformed graphs (e.g.
    dangling predecessor ids) that make ``topo_order`` blow up.
    """
    indegree = {nid: 0 for nid in graph.nodes}
    succs: dict[int, list[int]] = {nid: [] for nid in graph.nodes}
    for node in graph.nodes.values():
        for pred in node.preds:
            if pred in succs:  # dangling preds are _check_structure's job
                indegree[node.node_id] += 1
                succs[pred].append(node.node_id)
    ready = [nid for nid, deg in indegree.items() if deg == 0]
    visited = 0
    while ready:
        nid = ready.pop()
        visited += 1
        for nxt in succs[nid]:
            indegree[nxt] -= 1
            if indegree[nxt] == 0:
                ready.append(nxt)
    return visited != len(graph.nodes)


def _has_dangling_preds(graph: DataflowGraph) -> bool:
    return any(
        pred not in graph.nodes
        for node in graph.nodes.values()
        for pred in node.preds
    )


def _successors(graph: DataflowGraph) -> dict[int, list[int]]:
    succs: dict[int, list[int]] = {nid: [] for nid in graph.nodes}
    for node in graph.nodes.values():
        for pred in node.preds:
            if pred in succs:
                succs[pred].append(node.node_id)
    return succs


def _closure(start: Iterable[int], edges: dict[int, list[int]]) -> set[int]:
    seen = set(start)
    stack = list(seen)
    while stack:
        for nxt in edges.get(stack.pop(), ()):
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return seen


def _check_structure(graph: DataflowGraph) -> list[Diagnostic]:
    diags: list[Diagnostic] = []
    src = graph.name

    def report(check: str, severity: Severity, msg: str, node: Node | None = None):
        diags.append(Diagnostic(
            check, severity, msg, src,
            node=None if node is None else node.node_id,
            node_name=None if node is None else (node.name or None),
        ))

    if _has_cycle(graph):
        report("ir-cycle", Severity.ERROR,
               "the dataflow graph contains a cycle; execution and "
               "compilation both reject it")
        return diags  # everything below assumes a DAG

    succs = _successors(graph)
    outputs = graph.outputs()

    # -- input/const/output wiring -------------------------------------
    for node in graph.nodes.values():
        dangling = [p for p in node.preds if p not in graph.nodes]
        if dangling:
            report("ir-malformed-io", Severity.ERROR,
                   f"references missing predecessor id(s) {dangling}", node)
        if node.kind in ("input", "const") and node.preds:
            report("ir-malformed-io", Severity.ERROR,
                   f"{node.kind} nodes are sources and cannot have "
                   "predecessors", node)
        if node.kind == "output" and succs[node.node_id]:
            report("ir-malformed-io", Severity.ERROR,
                   "output nodes are sinks; feeding another node means "
                   "the consumer reads the PHV write-back", node)
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

    # -- reachability ---------------------------------------------------
    forward = _closure((n.node_id for n in graph.inputs()), succs)
    preds_of = {nid: list(graph.nodes[nid].preds) for nid in graph.nodes}
    backward = _closure((n.node_id for n in outputs), preds_of)
    for node in graph.nodes.values():
        if node.kind not in ("input", "const") and node.node_id not in forward:
            report("ir-unreachable", Severity.WARNING,
                   "no input reaches this node; it recomputes a "
                   "constant for every packet", node)
        if node.kind != "output" and node.node_id not in backward:
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

    # -- epilogue / temporal --------------------------------------------
    epilogue_nodes = [n for n in graph.nodes.values() if n.epilogue]
    for node in graph.nodes.values():
        if node.epilogue:
            continue
        for pred in node.preds:
            if pred in graph.nodes and graph.nodes[pred].epilogue:
                report("ir-epilogue-order", Severity.ERROR,
                       f"consumes epilogue node "
                       f"{graph.nodes[pred].name!r}, whose value does "
                       "not exist before the last iteration", node)
    for node in epilogue_nodes:
        if node.kind in ("input", "const"):
            report("ir-epilogue-io", Severity.WARNING,
                   f"{node.kind} nodes are iteration-invariant; the "
                   "epilogue marker only delays their consumers", node)
    if epilogue_nodes and graph.temporal_iterations == 1:
        report("ir-epilogue-inert", Severity.INFO,
               f"{len(epilogue_nodes)} epilogue node(s) with "
               "temporal_iterations == 1: the marker is inert")
    if graph.temporal_iterations > 1 and not _graph_wants_state(graph):
        report("ir-temporal-no-state", Severity.WARNING,
               f"{graph.temporal_iterations} temporal iterations but no "
               "node carries state; every iteration recomputes the same "
               "values")
    return diags


def _graph_wants_state(graph: DataflowGraph) -> bool:
    return any(
        getattr(fn, "wants_state", False)
        for node in graph.nodes.values()
        for fn in (node.fn, node.batch_fn)
        if fn is not None
    )


def _node_state_keys(node: Node) -> set[str]:
    """State keys this node's semantics assign (bytecode scan)."""
    keys: set[str] = set()
    for fn in (node.fn, node.batch_fn):
        if fn is not None and getattr(fn, "wants_state", False):
            keys |= _written_subscript_keys(fn)
    return keys


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


def _graph_state_keys(graph: DataflowGraph) -> set[str]:
    keys: set[str] = set()
    for node in graph.nodes.values():
        keys |= _node_state_keys(node)
    return keys


# ======================================================================
# Shape / width inference
# ======================================================================
def _node_is_stateful(node: Node) -> bool:
    return any(
        getattr(fn, "wants_state", False)
        for fn in (node.fn, node.batch_fn)
        if fn is not None
    )


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
        data_preds = [
            p for p in node.preds
            if p in graph.nodes and graph.nodes[p].kind != "const"
        ]
        pred_widths = [widths.get(p) for p in data_preds]
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
                   f"{node.kind} node has neither fn/batch_fn nor a "
                   "known reduce_op; both interpreters raise on it", node)

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
    if node.fn is not None or node.batch_fn is not None:
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
            f"execute_batch raised {type(exc).__name__}: {exc}", src,
        ))
        return diags

    if differing:
        diags.append(Diagnostic(
            "ir-batch-divergence", Severity.ERROR,
            f"over {_KERNEL_PROBE_ROWS} probe rows the compiled kernel and its nodes "
            f"disagree on {', '.join(differing)}; they must be bit-identical in "
            "what they return and in the state they leave", src,
        ))

    # Batch/scalar bit-identity (the execute_batch contract).
    for b in range(_PROBE_ROWS):
        try:
            scalar_out = np.atleast_1d(graph.execute(features[b], state={}))
        except Exception as exc:  # noqa: BLE001
            diags.append(Diagnostic(
                "ir-probe-failure", Severity.ERROR,
                f"execute raised {type(exc).__name__}: {exc}", src,
            ))
            return diags
        if scalar_out.shape != batch_out[b].shape or not np.array_equal(
            scalar_out, batch_out[b], equal_nan=True
        ):
            diags.append(Diagnostic(
                "ir-batch-divergence", Severity.ERROR,
                f"probe row {b}: execute gives {scalar_out!r} but "
                f"execute_batch row gives {batch_out[b]!r}; the paths "
                "must be bit-identical", src,
            ))
            break

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


#: Rows of the kernel-vs-nodes probe, 3 x 166 + 5: the shipped LSTM kernel's
#: tile is 166 rows, so the batch crosses it twice and ends on a ragged tile.
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
    fused_state, node_state = {}, {}
    pairs = {"the output": (
        graph.execute_batch(features, state=fused_state),
        graph.execute_batch(features, state=node_state, observer=lambda *args: None),
    )}
    for key in sorted(fused_state.keys() | node_state.keys()):
        pairs[f"state[{key!r}]"] = (fused_state.get(key), node_state.get(key))

    def same(a, b) -> bool:  # a key only one side wrote compares None to a value
        a, b = np.asarray(a), np.asarray(b)
        return a.shape == b.shape and a.dtype == b.dtype and np.array_equal(a, b, equal_nan=True)

    return [name for name, (a, b) in pairs.items() if not same(a, b)]


# ======================================================================
# Budget prechecks
# ======================================================================
def _check_budgets(
    graph: DataflowGraph, config, geometry: CUGeometry
) -> list[Diagnostic]:
    from ..compiler.allocate import graph_resources
    from ..hw.grid import RECONFIG_BASE_CYCLES, RECONFIG_WORDS_PER_CYCLE

    diags: list[Diagnostic] = []
    src = graph.name
    res = graph_resources(graph, geometry)

    if res.n_mu > config.n_mus:
        diags.append(Diagnostic(
            "budget-mu-overflow", Severity.ERROR,
            f"needs {res.n_mu} MUs but the grid has {config.n_mus}; "
            "weights cannot time-multiplex, so compile_graph raises "
            "(Section 6: larger models need compression)", src,
        ))

    fold = 1
    if res.n_cu > config.n_cus:
        fold = math.ceil(res.n_cu / config.n_cus)
        diags.append(Diagnostic(
            "budget-cu-fold", Severity.INFO,
            f"needs {res.n_cu} CUs but the grid has {config.n_cus}; the "
            f"compiler will fold x{fold}, multiplying the initiation "
            "interval accordingly", src,
        ))

    ii = graph.initiation_interval * fold * graph.temporal_iterations
    if ii > 1:
        diags.append(Diagnostic(
            "budget-line-rate", Severity.INFO,
            f"sustains 1/{ii} of line rate on this grid "
            f"(II {graph.initiation_interval} x fold {fold} x "
            f"{graph.temporal_iterations} temporal iterations)", src,
        ))

    words = graph.config_words()
    cycles = RECONFIG_BASE_CYCLES + math.ceil(
        words / RECONFIG_WORDS_PER_CYCLE
    )
    if cycles > _CONFIG_STREAM_CYCLES:
        diags.append(Diagnostic(
            "budget-config-stream", Severity.INFO,
            f"configuration stream is {words} words (~{cycles} cycles "
            "per swap); time-multiplexing this program is expensive", src,
        ))
    return diags
