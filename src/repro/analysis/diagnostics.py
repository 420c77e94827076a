"""Diagnostic records and the check catalog.

Every analyzer finding is a :class:`Diagnostic`: a stable check ID (the
catalog key in :data:`CHECKS`), a severity, a human-readable message, and
provenance — the graph node or source line the finding anchors to.  A
finding in a linted source is waived on its line with
``# noqa: rt-pipe-ownership - reason``; a graph node waives a range check
through ``Node.waivers`` (the finding drops to info).

Severity semantics
------------------
``error``
    The program will raise, diverge, or silently corrupt results at
    runtime.  Lowering-time verification raises on these.
``warning``
    Suspect by construction — legal today, but the kind of thing that has
    bitten us before.  The CI gate fails on warnings and errors.
``info``
    A finding waived at lowering, kept for the audit.  Hidden unless
    asked for; never fails a gate.
"""

from __future__ import annotations

from dataclasses import dataclass
from enum import IntEnum
from typing import Iterable

__all__ = [
    "CHECKS",
    "CheckSpec",
    "Diagnostic",
    "Severity",
    "worst_severity",
]


class Severity(IntEnum):
    """Ordered so ``max()`` over findings yields the gate-relevant one."""

    INFO = 0
    WARNING = 1
    ERROR = 2

    def __str__(self) -> str:  # pragma: no cover - cosmetic
        return self.name.lower()


@dataclass(frozen=True)
class CheckSpec:
    """One catalog entry: what a check ID means and how severe it is."""

    check_id: str
    severity: Severity
    category: str  # "shape" | "structure" | "range" | "fork-safety" | "concurrency"
    summary: str


#: The check catalog.  README's "Static analysis" section documents these;
#: every entry is fired by at least one seeded bug in
#: ``tests/test_analysis_yield.py`` (a test holds the table to the catalog).
CHECKS: dict[str, CheckSpec] = {
    spec.check_id: spec
    for spec in [
        # -- shape / dtype -------------------------------------------------
        CheckSpec("ir-width-mismatch", Severity.ERROR, "shape",
                  "a node's fan-in width disagrees with what its predecessors produce"),
        CheckSpec("ir-gather-width", Severity.ERROR, "shape",
                  "a gather's declared width is not the sum of its inputs"),
        CheckSpec("ir-no-semantics", Severity.ERROR, "shape",
                  "a compute node has neither fn nor a named reduce op"),
        CheckSpec("ir-non-2d", Severity.ERROR, "shape",
                  "a probed node value leaks out of the (B, width) 2-D contract"),
        CheckSpec("ir-probe-width", Severity.ERROR, "shape",
                  "a probed node value's width disagrees with the inferred width"),
        CheckSpec("ir-batch-divergence", Severity.ERROR, "shape",
                  "a compiled kernel and its nodes disagree bit-for-bit on the probe"),
        CheckSpec("ir-fixpoint-drift", Severity.WARNING, "shape",
                  "graph outputs leave the fixed-point grid (raw float leakage)"),
        CheckSpec("ir-probe-failure", Severity.ERROR, "shape",
                  "the execution probe raised; the graph cannot run as built"),
        # -- structure -----------------------------------------------------
        CheckSpec("ir-no-output", Severity.ERROR, "structure",
                  "the graph has no output node; execute() would raise"),
        CheckSpec("ir-multi-output", Severity.WARNING, "structure",
                  "several output nodes; execute() returns only the last in topo order"),
        CheckSpec("ir-orphan", Severity.ERROR, "structure",
                  "a compute node has no predecessors to consume"),
        CheckSpec("ir-dead-node", Severity.WARNING, "structure",
                  "no path from this node to any output; its value is discarded"),
        CheckSpec("ir-state-collision", Severity.ERROR, "structure",
                  "two nodes write the same state key (or a reserved key)"),
        # -- range analysis (repro.analysis.ranges) -------------------------
        CheckSpec("an-may-saturate", Severity.WARNING, "range",
                  "a value interval entering a saturating format conversion "
                  "exceeds the representable range; the hardware clips"),
        CheckSpec("an-lut-oob", Severity.WARNING, "range",
                  "a LUT's index interval is not covered by its table domain"),
        # -- runtime fork safety (the runtime pass, per function) ----------
        CheckSpec("rt-fork-flush", Severity.ERROR, "fork-safety",
                  "os.fork() without flushing stdout/stderr first duplicates "
                  "buffered output into the child"),
        CheckSpec("rt-fork-child-exit", Severity.ERROR, "fork-safety",
                  "a forked child branch lacks os._exit(); it would unwind into "
                  "the parent's teardown (atexit, pytest)"),
        CheckSpec("rt-pipe-ownership", Severity.ERROR, "fork-safety",
                  "an os.pipe() fd is never closed or wrapped by os.fdopen in "
                  "its function; error paths leak it"),
        CheckSpec("rt-unbounded-recv", Severity.WARNING, "fork-safety",
                  "recv() or join() with no timeout parks the caller forever "
                  "if the worker dies"),
        # -- runtime concurrency (the runtime pass's locksets, protocol) ---
        CheckSpec("rt-racy-field", Severity.WARNING, "concurrency",
                  "a shared field is written from one thread and touched from "
                  "another with no lock held on at least one access"),
        CheckSpec("rt-lockset-inconsistent", Severity.WARNING, "concurrency",
                  "every access to a shared field holds some lock, but no "
                  "single lock is common to all of them — the accesses do not "
                  "actually exclude each other"),
        CheckSpec("rt-lock-order", Severity.ERROR, "concurrency",
                  "two locks are acquired in opposite orders (through helper "
                  "calls too); concurrent callers can deadlock"),
        CheckSpec("rt-cv-wait-no-predicate", Severity.WARNING, "concurrency",
                  "Condition.wait() outside a while-predicate loop; spurious "
                  "wakeups and missed notifies make the wait unsound"),
        CheckSpec("rt-cv-notify-unheld", Severity.ERROR, "concurrency",
                  "Condition.notify()/notify_all() without holding the "
                  "condition's lock; CPython raises RuntimeError at runtime"),
        CheckSpec("rt-frame-unconsumed", Severity.WARNING, "concurrency",
                  "a framed-pipe message kind is produced on one side of the "
                  "protocol with no matching consumer on the peer side (or "
                  "consumed but never produced)"),
        CheckSpec("rt-ack-window-order", Severity.ERROR, "concurrency",
                  "an ack window's head is popped without notifying its "
                  "condition variable; the windowed producer stays parked"),
    ]
}


@dataclass(frozen=True)
class Diagnostic:
    """One analyzer finding with provenance.

    ``source`` is the graph name, fabric bundle name, or file path;
    ``node``/``node_name`` locate IR findings, ``line`` locates source
    findings.
    """

    check_id: str
    severity: Severity
    message: str
    source: str
    node: int | None = None
    node_name: str | None = None
    line: int | None = None

    def format(self) -> str:
        """``source[:line|:node]: severity: [check-id] message``."""
        where = self.source
        if self.line is not None:
            where += f":{self.line}"
        elif self.node is not None:
            label = self.node_name or str(self.node)
            where += f":{label}"
        return f"{where}: {self.severity}: [{self.check_id}] {self.message}"


def worst_severity(diagnostics: Iterable[Diagnostic]) -> Severity | None:
    """The gate-relevant severity of a finding set (None when empty)."""
    severities = [d.severity for d in diagnostics]
    return max(severities) if severities else None
