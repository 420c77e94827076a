"""AST groundwork for the runtime-source analysis: aliases, noqa, and a
statement-level control-flow graph with a must-dataflow solver.

:mod:`repro.analysis.concurrency` needs import-alias resolution
(``os.fork`` vs ``from os import fork as f``), per-line ``# noqa``
suppression, and scope-respecting AST walks; this module is that
groundwork, plus the piece the lockset analysis is built on: a
:class:`CFG` per function and :func:`must_fixpoint`, a forward dataflow
solver whose join is set **intersection** — the meet of the lockset
lattice (a lock is held at a program point iff it is held on *every*
path reaching it).

The lattice contract matters enough to be tested on its own: ``TOP_SET``
(the "every lock" top element, represented as ``None``) is the identity
of :func:`join_must`, the meet is commutative/associative/idempotent,
and the fixpoint is independent of worklist order — the hypothesis
property tests drive :func:`must_fixpoint` over randomly generated
branch/merge graphs of :class:`CFGNode` (worklist order varied by
permuting successor lists) and check the solution equals the
brute-force intersection over all paths.
"""

from __future__ import annotations

import ast
from typing import Callable, Sequence

__all__ = [
    "Aliases",
    "CFG",
    "CFGNode",
    "TOP_SET",
    "build_cfg",
    "function_body_nodes",
    "join_must",
    "must_fixpoint",
    "suppressed",
    "terminal_name",
]


# ----------------------------------------------------------------------
# Alias / name helpers
# ----------------------------------------------------------------------
class Aliases:
    """Best-effort import resolution: local name -> canonical dotted name."""

    def __init__(self, tree: ast.AST) -> None:
        self.modules: dict[str, str] = {}
        self.names: dict[str, str] = {}
        for node in ast.walk(tree):
            if isinstance(node, ast.Import):
                for alias in node.names:
                    root = alias.name.split(".")[0]
                    if alias.asname:
                        self.modules[alias.asname] = alias.name
                    else:
                        self.modules[root] = root
            elif isinstance(node, ast.ImportFrom) and node.module:
                for alias in node.names:
                    self.names[alias.asname or alias.name] = (
                        f"{node.module}.{alias.name}"
                    )

    def resolve(self, func: ast.expr) -> str | None:
        """Canonical name of a call target (``os.fork``), or None."""
        if isinstance(func, ast.Name):
            return self.names.get(func.id)
        if isinstance(func, ast.Attribute) and isinstance(func.value, ast.Name):
            module = self.modules.get(func.value.id)
            if module is not None:
                return f"{module}.{func.attr}"
        return None


def terminal_name(expr: ast.expr) -> str | None:
    """The rightmost simple name of an expression (``a.b.c`` -> ``c``)."""
    if isinstance(expr, ast.Name):
        return expr.id
    if isinstance(expr, ast.Attribute):
        return expr.attr
    return None


def function_body_nodes(fn: ast.AST) -> list[ast.AST]:
    """Every AST node in ``fn``'s own body, excluding nested scopes."""
    nodes: list[ast.AST] = []
    stack: list[ast.AST] = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        nodes.append(node)
        if isinstance(
            node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda)
        ):
            continue  # nested scopes are analyzed as their own functions
        stack.extend(ast.iter_child_nodes(node))
    return nodes


def suppressed(lines: Sequence[str], lineno: int, check: str) -> bool:
    """``# noqa`` (all) or ``# noqa: id1, id2`` (listed) on the line.

    A listed waiver may carry an inline justification after the check ID
    (``# noqa: rt-racy-field - bool flag, GIL-atomic``) — everything
    after the first whitespace in each comma-separated item is the
    human-readable reason, not part of the ID.
    """
    if not 1 <= lineno <= len(lines):
        return False
    line = lines[lineno - 1]
    marker = line.find("# noqa")
    if marker < 0:
        return False
    rest = line[marker + len("# noqa"):].strip()
    if not rest.startswith(":"):
        return True
    listed = {
        item.strip().split()[0]
        for item in rest[1:].split(",")
        if item.strip()
    }
    return check in listed


# ----------------------------------------------------------------------
# Statement-level CFG
# ----------------------------------------------------------------------
class CFGNode:
    """One CFG node: a statement, or a synthetic acquire/release/join.

    ``kind`` is ``"stmt"`` for real statements (``stmt`` holds the AST
    node), ``"acquire"``/``"release"`` for the lock effects a ``with``
    block desugars into (``stmt`` holds the ``withitem``'s context
    expression), or ``"entry"``/``"exit"``/``"join"`` for the synthetic
    skeleton.
    """

    __slots__ = ("kind", "stmt", "succs", "index")

    def __init__(self, kind: str, stmt: ast.AST | None = None):
        self.kind = kind
        self.stmt = stmt
        self.succs: list[CFGNode] = []
        self.index = -1  # assigned by CFG for stable iteration order

    def link(self, succ: "CFGNode") -> None:
        if succ not in self.succs:
            self.succs.append(succ)


class CFG:
    """Control-flow graph of one function body.

    ``entry``/``exit`` bracket the body; ``nodes`` is every node in a
    deterministic order (used by the dataflow worklist so results do not
    depend on set iteration order).
    """

    def __init__(self, entry: CFGNode, exit_node: CFGNode, nodes: list[CFGNode]):
        self.entry = entry
        self.exit = exit_node
        self.nodes = nodes
        for index, node in enumerate(nodes):
            node.index = index


class _Builder:
    """Recursive CFG construction over a statement list."""

    def __init__(self) -> None:
        self.nodes: list[CFGNode] = []
        self.exit = self._new("exit")
        self._loop_stack: list[tuple[CFGNode, CFGNode]] = []  # (head, after)

    def _new(self, kind: str, stmt: ast.AST | None = None) -> CFGNode:
        node = CFGNode(kind, stmt)
        self.nodes.append(node)
        return node

    def build(self, body: Sequence[ast.stmt]) -> CFG:
        entry = self._new("entry")
        tails = self._suite(body, [entry])
        for tail in tails:
            tail.link(self.exit)
        # Keep exit last for readability of dumps.
        self.nodes.remove(self.exit)
        self.nodes.append(self.exit)
        return CFG(entry, self.exit, self.nodes)

    def _suite(self, body: Sequence[ast.stmt], preds: list[CFGNode]) -> list[CFGNode]:
        """Wire a statement list after ``preds``; returns the live tails."""
        current = preds
        for stmt in body:
            if not current:
                break  # unreachable after return/raise/break/continue
            current = self._stmt(stmt, current)
        return current

    def _stmt(self, stmt: ast.stmt, preds: list[CFGNode]) -> list[CFGNode]:
        if isinstance(stmt, ast.If):
            cond = self._new("stmt", stmt)
            for p in preds:
                p.link(cond)
            then_tails = self._suite(stmt.body, [cond])
            else_tails = self._suite(stmt.orelse, [cond]) if stmt.orelse else [cond]
            return then_tails + else_tails
        if isinstance(stmt, (ast.While, ast.For, ast.AsyncFor)):
            head = self._new("stmt", stmt)
            for p in preds:
                p.link(head)
            after = self._new("join", stmt)
            self._loop_stack.append((head, after))
            body_tails = self._suite(stmt.body, [head])
            self._loop_stack.pop()
            for tail in body_tails:
                tail.link(head)  # back edge
            head.link(after)  # loop may not run (or condition fails)
            else_tails = self._suite(stmt.orelse, [after]) if stmt.orelse else [after]
            return else_tails
        if isinstance(stmt, (ast.With, ast.AsyncWith)):
            acquires: list[CFGNode] = []
            current = preds
            for item in stmt.items:
                acq = self._new("acquire", item.context_expr)
                for p in current:
                    p.link(acq)
                acquires.append(acq)
                current = [acq]
            body_tails = self._suite(stmt.body, current)
            # Release in reverse acquisition order on normal exit.  Paths
            # that leave via return/raise keep the lock held up to the
            # statement itself, which is what lockset queries care about.
            for item in reversed(stmt.items):
                rel = self._new("release", item.context_expr)
                for tail in body_tails:
                    tail.link(rel)
                body_tails = [rel]
            return body_tails
        if isinstance(stmt, ast.Try):
            head = self._new("stmt", stmt)
            for p in preds:
                p.link(head)
            body_tails = self._suite(stmt.body, [head])
            handler_tails: list[CFGNode] = []
            for handler in stmt.handlers:
                hnode = self._new("join", handler)
                # An exception may surface at any point in the body, so
                # the handler's in-state must join the try head (the most
                # conservative predecessor for a must-analysis).
                head.link(hnode)
                handler_tails += self._suite(handler.body, [hnode])
            else_tails = (
                self._suite(stmt.orelse, body_tails) if stmt.orelse else body_tails
            )
            tails = else_tails + handler_tails
            if stmt.finalbody:
                fin = self._new("join", stmt)
                for tail in tails:
                    tail.link(fin)
                head.link(fin)  # an unhandled exception also runs finally
                return self._suite(stmt.finalbody, [fin])
            return tails
        if isinstance(stmt, (ast.Return, ast.Raise)):
            node = self._new("stmt", stmt)
            for p in preds:
                p.link(node)
            node.link(self.exit)
            return []
        if isinstance(stmt, ast.Break):
            node = self._new("stmt", stmt)
            for p in preds:
                p.link(node)
            if self._loop_stack:
                node.link(self._loop_stack[-1][1])
            else:
                node.link(self.exit)
            return []
        if isinstance(stmt, ast.Continue):
            node = self._new("stmt", stmt)
            for p in preds:
                p.link(node)
            if self._loop_stack:
                node.link(self._loop_stack[-1][0])
            else:
                node.link(self.exit)
            return []
        node = self._new("stmt", stmt)
        for p in preds:
            p.link(node)
        return [node]


def build_cfg(fn: ast.FunctionDef | ast.AsyncFunctionDef) -> CFG:
    """The statement-level CFG of one function's own body."""
    return _Builder().build(fn.body)


# ----------------------------------------------------------------------
# Must-dataflow (intersection join) over a CFG
# ----------------------------------------------------------------------
#: Top of the must lattice: "every fact holds" (the state of unvisited
#: nodes).  Represented as None so real (finite) sets never alias it.
TOP_SET = None


def join_must(a: frozenset | None, b: frozenset | None) -> frozenset | None:
    """Lattice meet: set intersection, with :data:`TOP_SET` as identity."""
    if a is TOP_SET:
        return b
    if b is TOP_SET:
        return a
    return a & b


def must_fixpoint(
    cfg: CFG,
    init: frozenset,
    transfer: Callable[[CFGNode, frozenset], frozenset],
) -> dict[CFGNode, frozenset]:
    """Forward must-analysis: IN[n] for every node, join = intersection.

    ``init`` seeds the entry node (the caller's lockset at the callsite
    for interprocedural propagation).  ``transfer(node, in_state)``
    returns the node's OUT state.  Returns the IN map; unreachable nodes
    stay at :data:`TOP_SET` and are omitted.
    """
    in_state: dict[CFGNode, frozenset | None] = {cfg.entry: init}
    work = [cfg.entry]
    while work:
        node = work.pop()
        out = transfer(node, in_state[node])  # queued only once set
        for succ in node.succs:
            merged = join_must(in_state.get(succ, TOP_SET), out)
            if merged != in_state.get(succ, TOP_SET):
                in_state[succ] = merged
                work.append(succ)
    return {n: s for n, s in in_state.items() if s is not TOP_SET}

