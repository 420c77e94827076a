"""Abstract-interpretation range/saturation analysis for the fixed-point IR.

The execution probe in :mod:`repro.analysis.ir_verify` samples three rows;
it can show a program *does* saturate, never that it *cannot*.  This pass
answers the second question: it propagates a per-node value interval (an
over-approximation of every value the node can produce, for any input
satisfying the declared preconditions) through the dataflow graph and
checks each quantization point statically.

Interval sources, in raw fixed-point terms where a format is known
(:attr:`~repro.fixpoint.formats.FixedPointFormat.raw_min` /
``raw_max``):

* ``input`` nodes carry a declared ``value_range`` — the precondition the
  preprocessing MATs establish (threaded from the frontends' datasets and
  calibration formats).
* ``const`` nodes carry their resident bank in ``payload["values"]``;
  their interval is exact.
* Compute nodes name an abstract transfer (:data:`TRANSFERS`) via
  ``Node.transfer``, with parameters (weights, formats, clip bounds, LUT
  domains) in ``Node.payload``.  ``dot``/``mapreduce`` transfers do exact
  interval arithmetic over the weight bank; ``lut`` transfers check
  domain coverage; roundtrip points check saturation.  A node with neither a transfer nor
  a declared ``value_range`` analyzes as unbounded (``TOP``) — sound,
  never wrong, just uninformative.
* Stateful nodes iterate: state-key intervals start at ``[0, 0]`` (the
  interpreters zero-initialize carried state) and are joined across
  abstract passes until a fixed point, with widening to ``TOP`` when a
  key is still growing after :data:`WIDEN_AFTER` passes.  Writes are
  bounded by ``payload["state_ranges"]`` declarations, by
  ``payload["state_writes"][key] == "output"`` (the node stores its own
  output), or by the node's ``value_range``.

Findings (all carried as :class:`~repro.analysis.diagnostics.Diagnostic`):

``an-may-saturate``
    A value interval entering a saturating format conversion exceeds the
    representable range; the hardware clips.  Lowerings waive this on
    calibrated dot nodes where clipping outliers is the design
    (TFLite-style calibration) — waived findings downgrade to info.
``an-lut-oob``
    A LUT's index interval is not covered by its table domain.

Soundness contract (property-tested): for any input batch inside the
declared input ranges, every value observed via
``execute_batch(observer=)`` lies inside the node's predicted interval.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

from ..fixpoint import FIX8, FixedPointFormat
from ..mapreduce.ir import DataflowGraph, Node
from .diagnostics import CHECKS, Diagnostic, Severity
from .ir_verify import RESERVED_STATE_KEYS, _node_state_keys

__all__ = ["Interval", "TOP", "RangeReport", "analyze_ranges", "TRANSFERS"]

_INF = float("inf")

#: Abstract passes before unstable state keys are widened to ``TOP``.
WIDEN_AFTER = 8


@dataclass(frozen=True)
class Interval:
    """A closed real-valued interval ``[lo, hi]`` (``inf`` = unbounded)."""

    lo: float
    hi: float

    def __post_init__(self) -> None:
        if not self.lo <= self.hi:
            raise ValueError(f"interval lo must not exceed hi: [{self.lo}, {self.hi}]")

    def join(self, other: "Interval") -> "Interval":
        """Smallest interval containing both (the lattice join)."""
        return Interval(min(self.lo, other.lo), max(self.hi, other.hi))

    @property
    def bounded(self) -> bool:
        return math.isfinite(self.lo) and math.isfinite(self.hi)

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return f"[{self.lo:g}, {self.hi:g}]"


#: The unbounded interval (lattice top).
TOP = Interval(-_INF, _INF)

_ZERO = Interval(0.0, 0.0)


@dataclass
class RangeReport:
    """The analysis result for one graph.

    ``intervals`` maps node id to its proven output interval (sound for
    every temporal iteration); ``state`` holds the per-key fixed point;
    ``passes`` counts abstract iterations until convergence.
    """

    graph: str
    intervals: dict[int, Interval]
    state: dict[str, Interval]
    diagnostics: list[Diagnostic]
    passes: int


# ======================================================================
# Analysis context
# ======================================================================
class _Ctx:
    """Per-pass analysis state handed to transfer functions."""

    def __init__(self, graph: DataflowGraph, state: dict[str, Interval], emit: bool) -> None:
        self.graph = graph
        self.state = state
        self._emit = emit
        self.diagnostics: list[Diagnostic] = []
        self._seen: set[tuple[str, int]] = set()

    def report(self, check: str, message: str, node: Node) -> None:
        """Record a finding once per (check, node), honoring waivers."""
        if not self._emit or (check, node.node_id) in self._seen:
            return
        self._seen.add((check, node.node_id))
        severity = CHECKS[check].severity
        if check in node.waivers:
            severity = Severity.INFO
            message += " (waived at lowering)"
        self.diagnostics.append(Diagnostic(
            check, severity, message, self.graph.name,
            node=node.node_id, node_name=node.name or None,
        ))


def _payload(node: Node) -> dict:
    return node.payload if isinstance(node.payload, dict) else {}


def _rt_interval(iv: Interval, fmt: FixedPointFormat) -> Interval:
    """Image of an interval under ``fmt.roundtrip`` (monotone, so exact)."""
    return Interval(float(fmt.roundtrip(iv.lo)), float(fmt.roundtrip(iv.hi)))


def _saturation_check(ctx: _Ctx, node: Node, iv: Interval, fmt: FixedPointFormat) -> None:
    if fmt.covers(iv.lo, iv.hi):
        return
    raw_lo, raw_hi = (
        fmt.raw_interval(iv.lo, iv.hi) if iv.bounded else ("-inf", "+inf")
    )
    ctx.report(
        "an-may-saturate",
        f"value interval {iv} (raw [{raw_lo}, {raw_hi}]) exceeds "
        f"{fmt}'s representable raw range [{fmt.raw_min}, {fmt.raw_max}]; "
        "the hardware clips",
        node,
    )


# ======================================================================
# Transfer functions
# ======================================================================
TransferFn = Callable[[_Ctx, Node, list[Interval]], Interval]

TRANSFERS: dict[str, TransferFn] = {}


def _transfer(name: str) -> Callable[[TransferFn], TransferFn]:
    def register(fn: TransferFn) -> TransferFn:
        TRANSFERS[name] = fn
        return fn
    return register


def _arg(args: list[Interval]) -> Interval:
    return args[0] if args else TOP


@_transfer("identity")
@_transfer("slice")
def _t_identity(ctx: _Ctx, node: Node, args: list[Interval]) -> Interval:
    # A slice/permutation of lanes produces a subset of the input values.
    return _arg(args)


@_transfer("roundtrip")
def _t_roundtrip(ctx: _Ctx, node: Node, args: list[Interval]) -> Interval:
    fmt = _payload(node).get("fmt", FIX8)
    iv = _arg(args)
    _saturation_check(ctx, node, iv, fmt)
    return _rt_interval(iv, fmt)


@_transfer("clip")
def _t_clip(ctx: _Ctx, node: Node, args: list[Interval]) -> Interval:
    # An explicit algorithmic clamp is intentional semantics, not
    # saturation — no finding.
    lo, hi = _payload(node)["clip"]
    iv = _arg(args)
    out = Interval(float(np.clip(iv.lo, lo, hi)), float(np.clip(iv.hi, lo, hi)))
    fmt = _payload(node).get("fmt")
    return _rt_interval(out, fmt) if fmt is not None else out


@_transfer("affine")
def _t_affine(ctx: _Ctx, node: Node, args: list[Interval]) -> Interval:
    payload = _payload(node)
    scale = float(payload.get("scale", 1.0))
    offset = float(payload.get("offset", 0.0))
    iv = _arg(args)
    ends = sorted([_mul(scale, iv.lo), _mul(scale, iv.hi)])
    out = Interval(ends[0] + offset, ends[1] + offset)
    if "clip" in payload:
        lo, hi = payload["clip"]
        out = Interval(float(np.clip(out.lo, lo, hi)), float(np.clip(out.hi, lo, hi)))
    fmt = payload.get("fmt")
    if fmt is not None:
        _saturation_check(ctx, node, out, fmt)
        out = _rt_interval(out, fmt)
    return out


def _mul(coeff: float, value: float) -> float:
    """Interval-endpoint product with the 0 * inf = 0 convention."""
    return 0.0 if coeff == 0.0 else coeff * value


@_transfer("state_read")
def _t_state_read(ctx: _Ctx, node: Node, args: list[Interval]) -> Interval:
    out: Interval | None = None
    for key in _payload(node)["keys"]:
        iv = ctx.state.get(key, _ZERO)
        out = iv if out is None else out.join(iv)
    return out if out is not None else TOP


@_transfer("state_accum")
def _t_state_accum(ctx: _Ctx, node: Node, args: list[Interval]) -> Interval:
    """Read a state key, add the input element-wise, store the result.

    The canonical recurrent accumulator — the shape the widening loop
    exists for.  Pair with ``payload["state_writes"] = {key: "output"}``.
    """
    payload = _payload(node)
    carried = ctx.state.get(payload["key"], _ZERO)
    iv = _arg(args)
    out = Interval(carried.lo + iv.lo, carried.hi + iv.hi)
    fmt = payload.get("fmt")
    if fmt is not None:
        _saturation_check(ctx, node, out, fmt)
        out = _rt_interval(out, fmt)
    return out


@_transfer("dot")
def _t_dot(ctx: _Ctx, node: Node, args: list[Interval]) -> Interval:
    """Matrix-vector multiply + bias against a resident weight bank.

    Exact interval arithmetic: per output row, the positive and negative
    weight mass bound the accumulator from the input interval.  With a
    saturating output format the pre-clip interval is checked
    (``an-may-saturate``).
    """
    payload = _payload(node)
    weights = np.atleast_2d(np.asarray(payload["weights"], dtype=np.float64))
    bias = payload.get("bias")
    in_fmt: FixedPointFormat | None = payload.get("in_fmt")
    fmt: FixedPointFormat | None = payload.get("fmt")

    x = _arg(args)
    if in_fmt is not None:
        # The node quantizes on entry; roundtrip endpoints are exact.
        x = _rt_interval(x, in_fmt)

    pos = np.clip(weights, 0.0, None).sum(axis=-1)
    neg = np.clip(weights, None, 0.0).sum(axis=-1)
    lo_rows = np.array([_mul(p, x.lo) for p in pos]) + np.array(
        [_mul(n, x.hi) for n in neg]
    )
    hi_rows = np.array([_mul(p, x.hi) for p in pos]) + np.array(
        [_mul(n, x.lo) for n in neg]
    )
    if bias is not None:
        b = np.asarray(bias, dtype=np.float64).reshape(-1)
        lo_rows = lo_rows + b
        hi_rows = hi_rows + b
    acc = Interval(float(lo_rows.min()), float(hi_rows.max()))

    if fmt is not None:
        _saturation_check(ctx, node, acc, fmt)
        if payload.get("requantize") == "shift":
            # Per-channel shift requantization rounds within half an
            # output LSB of the real value before saturating.
            pad = fmt.resolution / 2.0
            return Interval(
                float(np.clip(acc.lo - pad, fmt.min_value, fmt.max_value)),
                float(np.clip(acc.hi + pad, fmt.min_value, fmt.max_value)),
            )
        return _rt_interval(acc, fmt)
    return acc


@_transfer("sq_dist")
def _t_sq_dist(ctx: _Ctx, node: Node, args: list[Interval]) -> Interval:
    """Per-row squared distance to a resident bank, summed over lanes."""
    payload = _payload(node)
    bank = np.atleast_2d(np.asarray(payload["bank"], dtype=np.float64))
    in_fmt: FixedPointFormat = payload["in_fmt"]
    fmt: FixedPointFormat = payload["fmt"]

    x = _rt_interval(_arg(args), in_fmt)
    d_lo = np.minimum(np.abs(x.lo - bank), np.abs(x.hi - bank))
    d_lo = np.where((bank >= x.lo) & (bank <= x.hi), 0.0, d_lo)
    d_hi = np.maximum(np.abs(x.lo - bank), np.abs(x.hi - bank))
    acc = Interval(
        float((d_lo**2).sum(axis=-1).min()), float((d_hi**2).sum(axis=-1).max())
    )
    _saturation_check(ctx, node, acc, fmt)
    return _rt_interval(acc, fmt)


@_transfer("lut")
def _t_lut(ctx: _Ctx, node: Node, args: list[Interval]) -> Interval:
    """MU table read: index interval must sit inside the table domain."""
    payload = _payload(node)
    lo, hi = payload["domain"]
    iv = _arg(args)
    if iv.lo < lo - 1e-9 or iv.hi > hi + 1e-9:
        entries = node.weight_values or "?"
        ctx.report(
            "an-lut-oob",
            f"index interval {iv} leaves the table domain [{lo:g}, {hi:g}] "
            f"({entries} entries); reads would alias the clamp rows",
            node,
        )
    fmt = payload.get("fmt")
    if "range" in payload:
        out = Interval(*payload["range"])
        return _rt_interval(out, fmt) if fmt is not None else out
    if fmt is not None:
        return Interval(fmt.min_value, fmt.max_value)
    return TOP


# -- activations -------------------------------------------------------
def _activation_transfer(
    name: str, fn: Callable, lo: float, hi: float, monotone: bool
) -> None:
    global_range = Interval(lo, hi)

    def apply(ctx: _Ctx, node: Node, args: list[Interval]) -> Interval:
        iv = _arg(args)
        out = _fn_image(fn, iv, global_range, monotone)
        fmt = _payload(node).get("fmt")
        if fmt is not None:
            _saturation_check(ctx, node, out, fmt)
            out = _rt_interval(out, fmt)
        return out

    TRANSFERS[name] = apply


def _fn_image(
    fn: Callable, iv: Interval, global_range: Interval, monotone: bool
) -> Interval:
    """Sound image of an interval under a scalar activation.

    Monotone activations are exact via endpoint evaluation.  The
    Taylor-series variants are only approximately monotone (range
    reduction can wiggle at segment joins), so they are sampled on a
    dense grid with a Lipschitz pad; both are intersected with the
    activation's global output range, which bounds unbounded inputs too.
    """
    if not iv.bounded:
        return global_range
    if monotone:
        lo = float(np.min(fn(np.asarray([iv.lo]))))
        hi = float(np.max(fn(np.asarray([iv.hi]))))
    else:
        xs = np.linspace(iv.lo, iv.hi, 513)
        ys = np.asarray(fn(xs), dtype=np.float64)
        pad = 2.0 * (iv.hi - iv.lo) / 512 if iv.hi > iv.lo else 0.0
        lo, hi = float(ys.min()) - pad, float(ys.max()) + pad
    return Interval(
        float(np.clip(lo, global_range.lo, global_range.hi)),
        float(np.clip(hi, global_range.lo, global_range.hi)),
    )


def _register_activations() -> None:
    from ..ml.activations import (
        ACTIVATIONS,
        leaky_relu,
        relu,
        sigmoid,
        sigmoid_piecewise,
        sigmoid_taylor,
        tanh,
        tanh_piecewise,
        tanh_taylor,
    )

    _activation_transfer("relu", relu, 0.0, _INF, monotone=True)
    _activation_transfer("leaky_relu", leaky_relu, -_INF, _INF, monotone=True)
    _activation_transfer("sigmoid", sigmoid, 0.0, 1.0, monotone=True)
    _activation_transfer("tanh", tanh, -1.0, 1.0, monotone=True)
    _activation_transfer("sigmoid_pw", sigmoid_piecewise, 0.0, 1.0, monotone=True)
    _activation_transfer("tanh_pw", tanh_piecewise, -1.0, 1.0, monotone=True)
    _activation_transfer("sigmoid_exp", sigmoid_taylor, 0.0, 1.0, monotone=False)
    _activation_transfer("tanh_exp", tanh_taylor, -1.0, 1.0, monotone=False)
    _activation_transfer(
        "act_lut", ACTIVATIONS["act_lut"].fn, -1.0, 1.0, monotone=True
    )


_register_activations()


# ======================================================================
# Propagation
# ======================================================================
def _node_interval(ctx: _Ctx, node: Node, args: list[Interval]) -> Interval:
    if node.kind == "input":
        return Interval(*node.value_range) if node.value_range else TOP
    if node.kind == "const":
        values = _payload(node).get("values")
        if values is not None:
            arr = np.asarray(values, dtype=np.float64)
            return Interval(float(arr.min()), float(arr.max()))
        return TOP
    if node.kind == "gather":
        out: Interval | None = None
        for iv in args:
            out = iv if out is None else out.join(iv)
        return out if out is not None else TOP
    if node.kind == "output":
        return _arg(args)

    if node.transfer is not None:
        if node.transfer not in TRANSFERS:
            raise KeyError(
                f"node {node.name!r} names unknown transfer {node.transfer!r}"
            )
        out = TRANSFERS[node.transfer](ctx, node, args)
    elif node.kind == "reduce" and node.reduce_op is not None:
        out = _reduce_interval(ctx, node, _arg(args))
    else:
        out = TOP
    if node.value_range is not None:
        # A frontend certification tightens whatever the transfer proved
        # (the probe / property tests check declarations dynamically).
        declared = Interval(*node.value_range)
        out = Interval(
            min(max(out.lo, declared.lo), declared.hi),
            max(min(out.hi, declared.hi), declared.lo),
        )
    return out


def _reduce_interval(ctx: _Ctx, node: Node, iv: Interval) -> Interval:
    # Reductions collapse the *input* lanes; the fan-in width (not the
    # node's own output width) scales the sum and bounds the arg index.
    preds = [
        p for p in node.preds if ctx.graph.nodes[p].kind != "const"
    ]
    fan_in = max(
        sum(ctx.graph.nodes[p].width for p in preds), 1
    )
    if node.reduce_op == "sum":
        return Interval(_mul(float(fan_in), iv.lo), _mul(float(fan_in), iv.hi))
    if node.reduce_op in ("max", "min"):
        return iv
    if node.reduce_op in ("argmax", "argmin"):
        return Interval(0.0, float(fan_in - 1))
    return TOP


def _write_interval(
    node: Node, key: str, out: Interval
) -> Interval:
    payload = _payload(node)
    declared = payload.get("state_ranges", {})
    if key in declared:
        return Interval(*declared[key])
    if payload.get("state_writes", {}).get(key) == "output":
        return out
    if node.value_range is not None:
        return Interval(*node.value_range)
    return TOP


def _propagate(
    graph: DataflowGraph,
    order: list[Node],
    state: dict[str, Interval],
    emit: bool,
) -> tuple[dict[int, Interval], dict[str, Interval], _Ctx]:
    """One abstract pass; returns node intervals + per-key write bounds."""
    ctx = _Ctx(graph, state, emit)
    intervals: dict[int, Interval] = {}
    writes: dict[str, Interval] = {}
    for node in order:
        args = [
            intervals[p]
            for p in node.preds
            if graph.nodes[p].kind != "const"
        ]
        out = _node_interval(ctx, node, args)
        intervals[node.node_id] = out
        for key in _node_state_keys(node) - RESERVED_STATE_KEYS:
            bound = _write_interval(node, key, out)
            writes[key] = writes[key].join(bound) if key in writes else bound
    return intervals, writes, ctx


def analyze_ranges(graph: DataflowGraph) -> RangeReport:
    """Run the abstract interpreter over one graph.

    A roundtrip point that names no format of its own (``payload["fmt"]``)
    assumes the fix8 datapath.
    """
    order = graph.topo_order()
    state_keys = set()
    for node in order:
        state_keys |= _node_state_keys(node) - RESERVED_STATE_KEYS
    state: dict[str, Interval] = {key: _ZERO for key in state_keys}

    passes = 0
    limit = max(graph.temporal_iterations, 1)
    while True:
        passes += 1
        _, writes, _ = _propagate(graph, order, state, emit=False)
        merged = {
            key: state[key].join(writes.get(key, state[key]))
            for key in state
        }
        if merged == state or passes >= limit:
            state = merged
            break
        if passes >= WIDEN_AFTER:
            # Still growing with iterations to spare: widen unstable keys
            # to TOP; the next pass is then stable by absorption.
            state = {
                key: (state[key] if merged[key] == state[key] else TOP)
                for key in state
            }
            continue
        state = merged

    # The fixed-point state over-approximates every iteration's state and
    # all transfers are inclusion-monotone, so one final emitting pass
    # yields intervals sound for the whole temporal execution.
    intervals, __, ctx = _propagate(graph, order, state, emit=True)
    return RangeReport(
        graph=graph.name,
        intervals=intervals,
        state=state,
        diagnostics=ctx.diagnostics,
        passes=passes,
    )

