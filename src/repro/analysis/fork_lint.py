"""AST-based fork-safety lint for the runtime sources.

The sharded runtime forks workers, wires pipe pairs, and joins collector
threads — each a pattern this repo has been bitten by before the current
discipline was adopted.  This lint encodes that discipline so regressions
are caught in CI rather than as hangs and leaked fds (every check here is
fired by a seeded bug in ``tests/test_analysis_yield.py``):

``rt-fork-flush``
    ``os.fork()`` duplicates the process *including* stdio buffers; any
    buffered output is then written twice.  Every function that forks
    must flush stdout/stderr first.
``rt-fork-child-exit``
    A forked child that falls off the end of its branch unwinds into the
    parent's teardown (atexit handlers, pytest finalizers) — the child
    must leave via ``os._exit``.
``rt-pipe-ownership``
    Every fd from ``os.pipe()`` must be closed (``os.close``) or have
    its ownership transferred (``os.fdopen``) within the same function,
    so error paths cannot leak it.
``rt-unbounded-recv``
    A ``recv()`` or ``join()`` call with no timeout argument parks the
    caller forever if the worker dies without closing its end — the exact
    hang the pool's watchdog exists to prevent, and on a close path a
    stuck interpreter exit.  Loop on ``join(t)`` + ``is_alive()`` to wait
    indefinitely but interruptibly.
``rt-unbounded-queue``
    The serving loop's boundedness discipline, machine-enforced: a
    ``queue.Queue()`` constructed without a ``maxsize`` grows with
    offered load until the process dies, and a ``put()`` with no timeout
    (and not ``block=False``) parks its caller forever once a bounded
    queue fills against a dead consumer.  Every queue in the runtime
    must carry a cap and every blocking put a deadline
    (``queue.SimpleQueue`` cannot be bounded at all, so it is always
    flagged).

Lock-acquisition order (``rt-lock-order``) is a lockset property and
lives in :mod:`repro.analysis.concurrency`.

Findings are :class:`~repro.analysis.diagnostics.Diagnostic` records with
file/line provenance.  Suppress a finding by appending ``# noqa`` (all
checks) or ``# noqa: rt-pipe-ownership`` (listed checks) to its line.
"""

from __future__ import annotations

import ast
from pathlib import Path
from typing import Iterable

from .cfg import Aliases, function_body_nodes, suppressed
from .diagnostics import Diagnostic, Severity

__all__ = ["lint_source", "lint_paths"]


def lint_source(source: str, path: str = "<string>") -> list[Diagnostic]:
    """Lint one Python source text; returns fork-safety findings."""
    tree = ast.parse(source, filename=path)
    aliases = Aliases(tree)
    lines = source.splitlines()
    diags: list[Diagnostic] = []

    def report(check: str, severity: Severity, msg: str, line: int) -> None:
        if not suppressed(lines, line, check):
            diags.append(Diagnostic(check, severity, msg, path, line=line))

    for fn in (
        node
        for node in ast.walk(tree)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
    ):
        body = function_body_nodes(fn)
        calls = [n for n in body if isinstance(n, ast.Call)]
        resolved = [(c, aliases.resolve(c.func)) for c in calls]

        fork_calls = [c for c, name in resolved if name == "os.fork"]
        if fork_calls:
            _lint_fork(fn, calls, resolved, fork_calls, report)
        _lint_pipes(body, resolved, report)
        _lint_unbounded_recv(fn, calls, report)
        _lint_unbounded_queue(fn, calls, resolved, report)
    return diags


def _lint_fork(fn, calls, resolved, fork_calls, report) -> None:
    first_fork = min(c.lineno for c in fork_calls)
    flush_lines = [
        c.lineno
        for c in calls
        if isinstance(c.func, ast.Attribute) and c.func.attr == "flush"
    ]
    if not any(line < first_fork for line in flush_lines):
        report(
            "rt-fork-flush", Severity.ERROR,
            f"{fn.name}() calls os.fork() without flushing stdout/stderr "
            "first; buffered output is duplicated into the child",
            first_fork,
        )
    if not any(name == "os._exit" for __, name in resolved):
        report(
            "rt-fork-child-exit", Severity.ERROR,
            f"{fn.name}() forks but never calls os._exit(); a child that "
            "returns unwinds into the parent's teardown (atexit, pytest)",
            first_fork,
        )


def _lint_pipes(body, resolved, report) -> None:
    owned: set[str] = set()
    for call, name in resolved:
        if name in ("os.close", "os.fdopen"):
            for arg in call.args:
                if isinstance(arg, ast.Name):
                    owned.add(arg.id)
    for node in body:
        if not (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
        ):
            continue
        if next(
            (n for c, n in resolved if c is node.value), None
        ) != "os.pipe":
            continue
        target = node.targets[0]
        fd_names = (
            [e.id for e in target.elts if isinstance(e, ast.Name)]
            if isinstance(target, (ast.Tuple, ast.List))
            else []
        )
        leaked = [fd for fd in fd_names if fd not in owned]
        if leaked:
            report(
                "rt-pipe-ownership", Severity.ERROR,
                f"pipe fd(s) {leaked} never reach os.close/os.fdopen in "
                "this function; an error path leaks them",
                node.lineno,
            )


def _lint_unbounded_recv(fn, calls, report) -> None:
    """Flag blocking waits that a dead peer can never satisfy.

    The runtime's receive APIs accept a ``hang_timeout`` precisely so a
    crashed worker surfaces as :class:`WorkerCrash` instead of a parked
    parent, and every ``join()`` must be bounded so supervision and
    teardown stay interruptible.
    """
    for call in calls:
        if (
            isinstance(call.func, ast.Attribute)
            and call.func.attr in ("recv", "join")
            and not (call.args or call.keywords)
        ):
            report(
                "rt-unbounded-recv", Severity.WARNING,
                f"{fn.name}() calls {call.func.attr}() with no timeout; a "
                "dead worker parks this caller forever — pass a bound "
                "(loop on join(t)/is_alive() to wait indefinitely)",
                call.lineno,
            )


#: Queue factories that accept a ``maxsize`` bound.
_BOUNDABLE_QUEUES = frozenset(
    {
        "queue.Queue",
        "queue.LifoQueue",
        "queue.PriorityQueue",
        "multiprocessing.Queue",
        "multiprocessing.JoinableQueue",
    }
)


def _lint_unbounded_queue(fn, calls, resolved, report) -> None:
    """Flag queues without a size bound and puts without a deadline.

    Bounded queues are the serving loop's backpressure primitive; an
    unbounded one silently converts overload into memory growth.  A
    blocking ``put()`` with no timeout is the dual failure: once the
    queue *is* bounded, a dead consumer parks the producer forever.
    ``put_nowait`` / ``put(..., block=False)`` / ``put(..., timeout=t)``
    are all fine.
    """
    for call, name in resolved:
        if name in _BOUNDABLE_QUEUES:
            bounded = bool(call.args) or any(
                kw.arg == "maxsize" for kw in call.keywords
            )
            if not bounded:
                report(
                    "rt-unbounded-queue", Severity.WARNING,
                    f"{fn.name}() builds {name.rsplit('.', 1)[-1]}() with no "
                    "maxsize; offered load grows it without bound — cap it",
                    call.lineno,
                )
        elif name in ("queue.SimpleQueue", "multiprocessing.SimpleQueue"):
            report(
                "rt-unbounded-queue", Severity.WARNING,
                f"{fn.name}() builds SimpleQueue(), which cannot be "
                "bounded; use Queue(maxsize=...) instead",
                call.lineno,
            )
    for call in calls:
        if not (
            isinstance(call.func, ast.Attribute) and call.func.attr == "put"
        ):
            continue
        # put(item, block=True, timeout=None): bounded iff a timeout is
        # given (positionally or by keyword) or block is False.
        has_timeout = len(call.args) >= 3 or any(
            kw.arg == "timeout" and not (
                isinstance(kw.value, ast.Constant) and kw.value.value is None
            )
            for kw in call.keywords
        )
        nonblocking = (
            len(call.args) >= 2
            and isinstance(call.args[1], ast.Constant)
            and call.args[1].value is False
        ) or any(
            kw.arg == "block"
            and isinstance(kw.value, ast.Constant)
            and kw.value.value is False
            for kw in call.keywords
        )
        if not (has_timeout or nonblocking):
            report(
                "rt-unbounded-queue", Severity.WARNING,
                f"{fn.name}() calls put() with no timeout; a dead consumer "
                "parks this producer on a full queue forever — pass "
                "timeout= or block=False",
                call.lineno,
            )


def lint_paths(paths: Iterable[str | Path]) -> list[Diagnostic]:
    """Lint files and/or directories (recursing into ``*.py``)."""
    files: list[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    diags: list[Diagnostic] = []
    for file in files:
        diags.extend(
            lint_source(file.read_text(encoding="utf-8"), str(file))
        )
    return diags
