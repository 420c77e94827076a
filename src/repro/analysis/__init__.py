"""Static verification of dataflow programs and runtime sources.

Taurus programs historically had one late gate: ``compile_graph`` (and,
worse, runtime execution) was where shape mismatches and structural
defects surfaced.  Homunculus (PAPERS.md) checks a data-plane ML
pipeline because it is about to change it; this package is that layer
for the reproduction, and it keeps only checks that catch something —
every catalog entry is fired by a seeded bug in
``tests/test_analysis_yield.py``:

* :func:`verify_graph` — a pass-based verifier over the
  :class:`~repro.mapreduce.ir.DataflowGraph` IR: shape/width inference in
  topo order, structural lints (missing or duplicated outputs, orphaned
  and dead nodes, state-key collisions), and an optional execution probe
  that checks kernel/node bit-identity, the 2-D value contract, and
  fixed-point format drift.  Every lowering gates on its structural half
  (``frontend._verified``); budgets are ``compile_graph``'s
  (``BudgetError``).
* :func:`analyze_ranges` — an abstract interpreter proving per-node
  value intervals (in raw fixed-point units) through every graph:
  saturation and LUT domain-coverage warnings, with per-node waivers for
  saturation that is the quantization scheme by design.
* :func:`analyze_concurrency` — one pass over the runtime sources: one
  parse, a CFG-based interprocedural lockset analysis (thread entry-point
  discovery, per-statement must-locksets through helper calls, race
  verdicts, lock-order inversions, condition-variable discipline), the
  framed pipe protocol, and the per-function fork-safety checks (flush
  before fork, ``os._exit`` in forked children, pipe-fd ownership,
  unbounded waits and queues).  Types are read from annotations and
  constructor calls, never propagated, so an unannotated value is
  untyped.

Everything surfaces as :class:`Diagnostic` records with stable check IDs
(see :data:`CHECKS`), severities, and node/line provenance.  The CLI —
``python -m repro.analysis`` — runs the whole battery over the shipped
app graphs and the runtime sources and is wired into CI as a lint gate
(``--format=sarif`` for code scanning).
"""

from .concurrency import analyze_concurrency, analyze_concurrency_sources
from .diagnostics import CHECKS, CheckSpec, Diagnostic, Severity, worst_severity
from .ir_verify import verify_graph
from .ranges import TOP, Interval, RangeReport, analyze_ranges

__all__ = [
    "CHECKS",
    "CheckSpec",
    "Diagnostic",
    "Interval",
    "RangeReport",
    "Severity",
    "TOP",
    "analyze_concurrency",
    "analyze_concurrency_sources",
    "analyze_ranges",
    "verify_graph",
    "worst_severity",
]
