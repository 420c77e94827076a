"""Static verification of dataflow programs and runtime sources.

Taurus programs historically had one late gate: ``compile_graph`` (and,
worse, runtime execution) was where shape mismatches, budget overflows and
structural defects surfaced.  Homunculus (PAPERS.md) argues the data-plane
ML pipeline should be checked against switch constraints *at compile
time*; this package is that layer for the reproduction:

* :func:`verify_graph` — a pass-based verifier over the
  :class:`~repro.mapreduce.ir.DataflowGraph` IR: shape/width inference in
  topo order, structural lints (cycles, dead nodes, state-key collisions,
  epilogue/temporal misuse), budget prechecks against a
  :class:`~repro.core.TaurusConfig` *before* ``compile_graph``, and an
  optional execution probe that checks batch/scalar bit-identity, 2-D
  value discipline, and fixed-point format drift.
* :func:`verify_fabric` — cross-app prechecks for
  :class:`~repro.runtime.fabric.MultiAppFabric` bundles (duplicate app
  names, state-key overlap, aggregate MU residency).
* :func:`lint_source` / :func:`lint_paths` — an AST-based fork-safety
  lint for runtime sources (fds/locks captured across ``fork``, missing
  ``os._exit`` in forked children, unbounded joins on close paths,
  inconsistent lock-acquisition orders across functions).
* :func:`analyze_ranges` — an abstract interpreter proving per-node
  value intervals (in raw fixed-point units) through every graph:
  saturation, wide-accumulator overflow, and LUT domain-coverage
  warnings, plus bit-width-narrowing opportunities, with per-node
  waivers for saturation that is the quantization scheme by design.
* :func:`analyze_concurrency` — a CFG-based interprocedural lockset
  analysis over the runtime sources: thread entry-point discovery,
  per-statement must-locksets through helper calls and aliasing, a
  shared-field access map with race verdicts (``rt-racy-field``,
  ``rt-lockset-inconsistent``), condition-variable discipline
  (``rt-cv-wait-no-predicate``, ``rt-cv-notify-unheld``), and a message
  state machine over the framed pipe protocol (``rt-frame-unconsumed``,
  ``rt-ack-window-order``).

Everything surfaces as :class:`Diagnostic` records with stable check IDs
(see :data:`CHECKS`), severities, and node/line provenance.  The CLI —
``python -m repro.analysis`` — runs the whole battery over the shipped
app graphs and the runtime sources and is wired into CI as a lint gate
(``--format=json`` for the machine-readable artifact).
"""

from .concurrency import analyze_concurrency, analyze_concurrency_sources
from .diagnostics import CHECKS, CheckSpec, Diagnostic, Severity, worst_severity
from .fork_lint import lint_paths, lint_source
from .ir_verify import verify_fabric, verify_graph
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
    "lint_paths",
    "lint_source",
    "verify_fabric",
    "verify_graph",
    "worst_severity",
]
