"""Lockset race detection + IPC protocol conformance for the runtime.

The runtime is genuinely concurrent: per-shard supervisor threads gated
on pending-window condition variables (``pool.py``), a child heartbeat
thread sharing a tx lock with the request loop (``executors.py``), and a
service whose admission and scoring paths deliberately take separate
locks (``service.py``).  The fork-safety lint catches *patterns*; this
module is a real interprocedural analysis over the same sources (every
check here is fired by a seeded bug in ``tests/test_analysis_yield.py``):

1. **Thread discovery.**  Every ``threading.Thread(target=...)`` call is
   resolved to its target function (methods, nested functions, module
   functions).  Each spawned target roots an analysis context with role
   ``thread:<name>``; the public surface of each class roots a shared
   ``api:<Class>`` role (any caller thread), and helpers reached from
   neither become their own roots.

2. **Locksets.**  A statement-level CFG per function (``repro.analysis
   .cfg``) carries a *must*-lockset — the set of lock regions held on
   every path — through ``with self._lock:`` acquisitions, condition
   variables (acquiring a ``threading.Condition(self._lock)`` also
   acquires its underlying lock), helper calls (context-sensitive on
   the entry lockset), and aliasing (``run.cv`` and ``self.cv`` resolve
   to the same ``(_ShardRun, cv)`` region via annotations and
   constructor-call type inference).

3. **Shared-field race verdicts.**  Every ``obj.attr`` access on a
   resolvable class is recorded as ``(region, read/write, lockset,
   role)``; closure variables shared with spawned nested functions are
   tracked the same way.  A field written at all and touched from ≥2
   roles must have a *common* lock across every access: if some access
   holds nothing → ``rt-racy-field``; if every access holds *a* lock
   but no lock is common → ``rt-lockset-inconsistent``.  ``__init__``
   runs happen-before every spawn and are excluded.

4. **Lock order.**  At each ``with`` acquisition every region already
   in the must-lockset gives one edge, held → acquired (through helper
   calls too: ``pump`` holding ``_dispatch_lock`` reaches ``_pop_batch``
   taking ``_lock``).  A pair acquired in both orders is the AB/BA
   deadlock, reported once (``rt-lock-order``).  Taking a
   ``Condition(self._lock)`` while holding ``self._lock`` is re-entry,
   not an edge.

5. **Condition-variable discipline.**  ``rt-cv-wait-no-predicate``
   (a ``wait()`` not re-checked in an enclosing ``while``) and
   ``rt-cv-notify-unheld`` (``notify`` without the condition's lock in
   the dataflow lockset — CPython raises RuntimeError at runtime).

6. **Framed-pipe protocol conformance.**  Message kinds are extracted
   direction-aware — request producers (yielded/returned/comprehension
   ``(kind, payload)`` tuples, ``send``/``broadcast``/``handle`` calls
   with constant kinds), request consumers (``kind == ...``
   comparisons), response producers (tuples passed to ``_send``/
   ``_post``), response consumers (``status == ...``) — and every kind
   must appear on both sides of its direction
   (``rt-frame-unconsumed``).  An ack window (a deque in a class with a
   condition variable) whose head is popped in a function that never
   notifies leaves the windowed producer parked until its poll timeout
   (``rt-ack-window-order``); unguarded window touches are plain
   ``rt-racy-field`` verdicts.

Findings are :class:`~repro.analysis.diagnostics.Diagnostic` records;
the ``# noqa: <check-id> - justification`` waiver discipline from the
fork lint applies, anchored at one deterministic line per finding (the
first unlocked write, else the first unlocked access) so a single
per-line waiver retires exactly one verdict.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable

from .cfg import (
    Aliases,
    build_cfg,
    function_body_nodes,
    must_fixpoint,
    suppressed,
    terminal_name,
)
from .diagnostics import Diagnostic, Severity

__all__ = ["analyze_concurrency", "analyze_concurrency_sources"]


# ----------------------------------------------------------------------
# Type vocabulary
# ----------------------------------------------------------------------
#: Canonical constructor names whose instances synchronize internally —
#: method calls on them are not shared-state accesses.
_LOCK_CTORS = {"threading.Lock", "threading.RLock"}
_CONDITION_CTORS = {"threading.Condition"}
_THREADSAFE_CTORS = {
    "threading.Event",
    "threading.Semaphore",
    "threading.BoundedSemaphore",
    "threading.Barrier",
    "queue.Queue",
    "queue.LifoQueue",
    "queue.PriorityQueue",
    "queue.SimpleQueue",
    "multiprocessing.Queue",
    "multiprocessing.SimpleQueue",
}
_DEQUE_CTORS = {"collections.deque"}

#: Method calls that mutate their receiver (container/file mutators).
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert",
    "pop", "popleft", "remove", "clear", "add", "discard", "update",
    "setdefault", "sort", "reverse", "rotate", "write", "flush",
    "truncate", "writelines",
})

#: Attribute kinds whose accesses are never recorded as shared state.
_SYNC_KINDS = frozenset({"lock", "condition", "threadsafe"})


@dataclass
class _TypeInfo:
    """What we know about an attribute's or local's value."""

    kind: str            # "lock" | "condition" | "threadsafe" | "class" | "plain"
    cls: str | None = None     # class name when kind == "class"
    assoc: str | None = None   # condition: the lock attr it wraps (same class)


_PLAIN = _TypeInfo("plain")


@dataclass
class _ClassModel:
    name: str
    file: "_FileModel"
    node: ast.ClassDef
    attrs: dict[str, _TypeInfo] = field(default_factory=dict)
    methods: dict[str, str] = field(default_factory=dict)  # name -> qualname

    def condition_attrs(self) -> list[tuple[str, str | None]]:
        return [
            (attr, info.assoc)
            for attr, info in self.attrs.items()
            if info.kind == "condition"
        ]


@dataclass
class _FuncModel:
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    file: "_FileModel"
    cls: str | None            # owning class name, if a method
    encloser: str | None       # qualname of the enclosing function, if nested
    locals_: dict[str, _TypeInfo] = field(default_factory=dict)
    bound: set[str] = field(default_factory=set)   # params + assigned names
    nested: dict[str, str] = field(default_factory=dict)  # name -> qualname
    spawns: bool = False       # a threading.Thread(...) appears in its body

    @property
    def name(self) -> str:
        return self.qualname.rsplit(".", 1)[-1]


@dataclass
class _FileModel:
    path: str
    tree: ast.Module
    lines: list[str]
    aliases: Aliases
    parents: dict[ast.AST, ast.AST] = field(default_factory=dict)
    constants: dict[str, str] = field(default_factory=dict)  # NAME -> str value
    classes: dict[str, _ClassModel] = field(default_factory=dict)
    module_funcs: dict[str, str] = field(default_factory=dict)  # name -> qualname


@dataclass(frozen=True)
class _Access:
    region: tuple[str, str]
    write: bool
    lockset: frozenset
    role: str
    path: str
    line: int


class _Program:
    """The whole analyzed file set: classes, functions, constants."""

    def __init__(self) -> None:
        self.files: list[_FileModel] = []
        self.classes: dict[str, _ClassModel] = {}
        self.functions: dict[str, _FuncModel] = {}
        self.constants: dict[str, str] = {}


# ----------------------------------------------------------------------
# Program construction
# ----------------------------------------------------------------------
def _build_program(sources: list[tuple[str, str]]) -> _Program:
    program = _Program()
    for path, text in sources:
        tree = ast.parse(text, filename=path)
        model = _FileModel(
            path=path,
            tree=tree,
            lines=text.splitlines(),
            aliases=Aliases(tree),
        )
        for node in ast.walk(tree):
            for child in ast.iter_child_nodes(node):
                model.parents[child] = node
        _collect_constants(model)
        _collect_defs(model, program)
        program.files.append(model)
    for model in program.files:
        for cls in model.classes.values():
            _infer_attr_types(cls, program)
    for func in program.functions.values():
        _infer_local_types(func, program)
    for func in program.functions.values():
        func.spawns = any(
            _is_thread_ctor(node, func.file.aliases)
            for node in function_body_nodes(func.node)
            if isinstance(node, ast.Call)
        )
    return program


def _collect_constants(model: _FileModel) -> None:
    for stmt in model.tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id.isupper()
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            model.constants[stmt.targets[0].id] = stmt.value.value


def _collect_defs(model: _FileModel, program: _Program) -> None:
    def add_func(node, cls_name, encloser, qualname) -> _FuncModel:
        func = _FuncModel(qualname, node, model, cls_name, encloser)
        program.functions[qualname] = func
        for child in function_body_nodes(node):
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = add_func(child, cls_name, qualname, f"{qualname}.{child.name}")
                func.nested[child.name] = inner.qualname
        return func

    for stmt in model.tree.body:
        if isinstance(stmt, ast.ClassDef):
            cls = _ClassModel(stmt.name, model, stmt)
            model.classes[stmt.name] = cls
            program.classes[stmt.name] = cls
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{stmt.name}.{item.name}"
                    cls.methods[item.name] = qualname
                    add_func(item, stmt.name, None, qualname)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            model.module_funcs[stmt.name] = stmt.name
            add_func(stmt, None, None, stmt.name)
    program.constants.update(model.constants)


def _annotation_class(annotation: ast.expr | None, program: _Program) -> str | None:
    """The class a parameter/return annotation names, if we model it."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        name = annotation.value.strip().strip("'\"")
    else:
        name = terminal_name(annotation)
    if name is not None and name in program.classes:
        return name
    return None


def _value_type(
    value: ast.expr, func: _FuncModel | None, program: _Program,
    aliases: Aliases,
) -> _TypeInfo | None:
    """Infer the type of an assigned expression, or None if unknown."""
    if isinstance(value, ast.Call):
        canonical = aliases.resolve(value.func)
        if canonical in _LOCK_CTORS:
            return _TypeInfo("lock")
        if canonical in _CONDITION_CTORS:
            assoc = None
            if value.args:
                arg = value.args[0]
                if (
                    isinstance(arg, ast.Attribute)
                    and isinstance(arg.value, ast.Name)
                    and arg.value.id == "self"
                ):
                    assoc = arg.attr
            return _TypeInfo("condition", assoc=assoc)
        if canonical in _THREADSAFE_CTORS:
            return _TypeInfo("threadsafe")
        if canonical in _DEQUE_CTORS:
            return _TypeInfo("plain")
        ctor = terminal_name(value.func)
        if isinstance(value.func, ast.Name):
            if value.func.id == "deque":
                return _TypeInfo("plain")
            if value.func.id in program.classes:
                return _TypeInfo("class", cls=value.func.id)
        # ClassName.classmethod(...) / typed_expr.method(...) with a
        # return annotation naming a modeled class.
        if isinstance(value.func, ast.Attribute) and ctor is not None:
            owner = None
            base = value.func.value
            if isinstance(base, ast.Name) and base.id in program.classes:
                owner = base.id
            elif func is not None:
                owner = _expr_class(base, func, program)
            if owner is not None:
                method = program.classes[owner].methods.get(ctor)
                if method is not None:
                    returns = program.functions[method].node.returns
                    cls = _annotation_class(returns, program)
                    if cls is not None:
                        return _TypeInfo("class", cls=cls)
        return None
    if func is not None:
        cls = _expr_class(value, func, program)
        if cls is not None:
            return _TypeInfo("class", cls=cls)
        info = _expr_info(value, func, program)
        if info is not None and info.kind in _SYNC_KINDS:
            return info
    return None


def _infer_attr_types(cls: _ClassModel, program: _Program) -> None:
    """Attribute types from ``self.x = ...`` across every method."""
    aliases = cls.file.aliases
    for method_name, qualname in cls.methods.items():
        func = program.functions[qualname]
        params = {
            arg.arg: _annotation_class(arg.annotation, program)
            for arg in func.node.args.args + func.node.args.kwonlyargs
        }
        for node in function_body_nodes(func.node):
            target = None
            value = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            if not (
                isinstance(target, ast.Attribute)
                and isinstance(target.value, ast.Name)
                and target.value.id == "self"
            ):
                continue
            info = _value_type(value, None, program, aliases)
            if info is None and isinstance(value, ast.Name):
                cls_name = params.get(value.id)
                if cls_name is not None:
                    info = _TypeInfo("class", cls=cls_name)
            existing = cls.attrs.get(target.attr)
            if existing is None or (
                existing.kind == "plain" and info is not None
            ):
                cls.attrs[target.attr] = info or _PLAIN


def _infer_local_types(func: _FuncModel, program: _Program) -> None:
    """Local variable types: annotations, constructor calls, typed attrs."""
    args = func.node.args
    for arg in args.args + args.posonlyargs + args.kwonlyargs:
        func.bound.add(arg.arg)
        cls = _annotation_class(arg.annotation, program)
        if cls is not None:
            func.locals_[arg.arg] = _TypeInfo("class", cls=cls)
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            func.bound.add(extra.arg)
    # Two passes so `b = a.method()` sees `a = Ctor()` regardless of
    # textual order inside loops.
    for _ in range(2):
        for node in function_body_nodes(func.node):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
                func.bound.add(node.id)
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                func.bound.add(node.name)
            target = None
            value = None
            if isinstance(node, ast.Assign) and len(node.targets) == 1:
                target, value = node.targets[0], node.value
            elif isinstance(node, ast.AnnAssign) and node.value is not None:
                target, value = node.target, node.value
            if not isinstance(target, ast.Name):
                continue
            info = _value_type(value, func, program, func.file.aliases)
            if info is not None and target.id not in func.locals_:
                func.locals_[target.id] = info


def _is_thread_ctor(call: ast.Call, aliases: Aliases) -> bool:
    return aliases.resolve(call.func) == "threading.Thread"


# ----------------------------------------------------------------------
# Expression → type / region resolution
# ----------------------------------------------------------------------
def _lookup_var(func: _FuncModel, name: str, program: _Program):
    """Resolve a name through the lexical function chain.

    Returns ``(defining_func, info)`` — ``info`` may be None for a bound
    but untyped variable — or None if the name is unbound in the chain.
    """
    current: _FuncModel | None = func
    while current is not None:
        if name in current.bound:
            return current, current.locals_.get(name)
        current = (
            program.functions.get(current.encloser)
            if current.encloser
            else None
        )
    return None


def _expr_info(
    expr: ast.expr, func: _FuncModel, program: _Program
) -> _TypeInfo | None:
    """The :class:`_TypeInfo` of an expression, if resolvable."""
    if isinstance(expr, ast.Name):
        if expr.id == "self" and func.cls is not None:
            return _TypeInfo("class", cls=func.cls)
        hit = _lookup_var(func, expr.id, program)
        return hit[1] if hit else None
    if isinstance(expr, ast.Attribute):
        base_cls = _expr_class(expr.value, func, program)
        if base_cls is not None:
            return program.classes[base_cls].attrs.get(expr.attr)
        return None
    if isinstance(expr, ast.Call):
        return _value_type(expr, func, program, func.file.aliases)
    return None


def _expr_class(expr: ast.expr, func: _FuncModel, program: _Program) -> str | None:
    info = _expr_info(expr, func, program)
    if info is not None and info.kind == "class":
        return info.cls
    return None


def _region_of(
    expr: ast.expr, func: _FuncModel, program: _Program
) -> tuple[tuple[str, str], _TypeInfo] | None:
    """The abstract memory region an lvalue-ish expression names.

    ``self.attr`` / ``typed.attr`` → ``(Class, attr)``; a closure
    variable of a thread-spawning encloser → ``(func:<qualname>, var)``.
    """
    if isinstance(expr, ast.Attribute):
        base_cls = _expr_class(expr.value, func, program)
        if base_cls is not None:
            info = program.classes[base_cls].attrs.get(expr.attr, _PLAIN)
            return (base_cls, expr.attr), info
        return None
    if isinstance(expr, ast.Name) and expr.id != "self":
        hit = _lookup_var(func, expr.id, program)
        if hit is None:
            return None
        definer, info = hit
        if definer.spawns:
            return (f"func:{definer.qualname}", expr.id), (info or _PLAIN)
        return None
    return None


def _lock_regions(
    expr: ast.expr, func: _FuncModel, program: _Program
) -> frozenset:
    """The lock regions acquiring ``expr`` (a ``with`` item) holds.

    A condition also holds its associated lock.  Unresolvable
    expressions whose terminal name looks lock-ish fall back to a
    name-keyed region so untyped test fixtures still participate.
    """
    target = expr.func if isinstance(expr, ast.Call) else expr
    resolved = _region_of(target, func, program)
    if resolved is not None:
        region, info = resolved
        if info.kind == "lock":
            return frozenset({region})
        if info.kind == "condition":
            regions = {region}
            if info.assoc is not None:
                regions.add((region[0], info.assoc))
            return frozenset(regions)
        return frozenset()
    name = terminal_name(target)
    if name is not None and any(
        marker in name.lower() for marker in ("lock", "cv", "cond", "mutex")
    ):
        return frozenset({("<untyped>", name)})
    return frozenset()


def _condition_region(
    expr: ast.expr, func: _FuncModel, program: _Program
) -> tuple[tuple[str, str], str | None] | None:
    """``(region, assoc-lock-attr)`` if ``expr`` is condition-typed."""
    resolved = _region_of(expr, func, program)
    if resolved is None:
        return None
    region, info = resolved
    if info.kind != "condition":
        return None
    return region, info.assoc


# ----------------------------------------------------------------------
# Thread-root discovery
# ----------------------------------------------------------------------
def _resolve_callable(
    expr: ast.expr, func: _FuncModel, program: _Program
) -> str | None:
    """The qualname a callable expression refers to, if resolvable."""
    if isinstance(expr, ast.Name):
        current: _FuncModel | None = func
        while current is not None:
            if expr.id in current.nested:
                return current.nested[expr.id]
            current = (
                program.functions.get(current.encloser)
                if current.encloser
                else None
            )
        return func.file.module_funcs.get(expr.id)
    if isinstance(expr, ast.Attribute):
        base_cls = _expr_class(expr.value, func, program)
        if base_cls is not None:
            return program.classes[base_cls].methods.get(expr.attr)
    return None


def _discover_thread_roots(program: _Program) -> dict[str, str]:
    """qualname → role for every resolvable ``Thread(target=...)``."""
    roots: dict[str, str] = {}
    for func in program.functions.values():
        for node in function_body_nodes(func.node):
            if not (isinstance(node, ast.Call) and _is_thread_ctor(node, func.file.aliases)):
                continue
            target = next(
                (kw.value for kw in node.keywords if kw.arg == "target"), None
            )
            if target is None and node.args:
                target = node.args[0]
            if target is None:
                continue
            qualname = _resolve_callable(target, func, program)
            if qualname is not None:
                short = qualname.rsplit(".", 1)[-1]
                roots[qualname] = f"thread:{short}"
    return roots


# ----------------------------------------------------------------------
# The context-sensitive lockset analysis
# ----------------------------------------------------------------------
class _Analysis:
    def __init__(self, program: _Program):
        self.program = program
        self.accesses: list[_Access] = []
        self.point_diags: dict[tuple, Diagnostic] = {}
        #: (held, acquired) lock regions -> first (path, line, qualname).
        self.lock_edges: dict[tuple, tuple[str, int, str]] = {}
        #: (qualname, role) → entry locksets already queued/processed.
        self.seen: dict[tuple[str, str], set[frozenset]] = {}
        self.work: list[tuple[str, str, frozenset]] = []
        self.cfg_cache: dict[str, object] = {}

    # -- worklist ------------------------------------------------------
    def enqueue(self, qualname: str, role: str, lockset: frozenset) -> None:
        func = self.program.functions.get(qualname)
        if func is None or func.name in ("__init__", "__post_init__"):
            return
        key = (qualname, role)
        locksets = self.seen.setdefault(key, set())
        if lockset in locksets:
            return
        if len(locksets) >= 6:
            # Context cap: merge every entry state into its intersection
            # (the conservative lockset) instead of exploding.
            merged = frozenset.intersection(lockset, *locksets)
            if merged in locksets:
                return
            lockset = merged
        locksets.add(lockset)
        self.work.append((qualname, role, lockset))

    def run(self, roots: Iterable[tuple[str, str]]) -> None:
        for qualname, role in roots:
            self.enqueue(qualname, role, frozenset())
        while self.work:
            qualname, role, lockset = self.work.pop()
            self._process(qualname, role, lockset)
        # Helpers reached from no root (private, called only from
        # __init__, or spawned in unresolvable ways) self-root so their
        # accesses still participate in verdicts.
        pending = [
            q for q in sorted(self.program.functions)
            if q not in {k for (k, _r) in self.seen}
        ]
        while pending:
            qualname = pending.pop(0)
            if any(k == qualname for (k, _r) in self.seen):
                continue
            func = self.program.functions[qualname]
            if func.name in ("__init__", "__post_init__"):
                continue
            owner = func.cls or Path(func.file.path).stem
            self.enqueue(qualname, f"api:{owner}", frozenset())
            while self.work:
                q, role, lockset = self.work.pop()
                self._process(q, role, lockset)

    # -- one context ---------------------------------------------------
    def _process(self, qualname: str, role: str, entry: frozenset) -> None:
        func = self.program.functions[qualname]
        cfg = self.cfg_cache.get(qualname)
        if cfg is None:
            cfg = build_cfg(func.node)
            self.cfg_cache[qualname] = cfg

        def transfer(node, state):
            if node.kind == "acquire":
                return state | _lock_regions(node.stmt, func, self.program)
            if node.kind == "release":
                return state - _lock_regions(node.stmt, func, self.program)
            return state

        in_states = must_fixpoint(cfg, entry, transfer)
        for node, state in in_states.items():
            if node.kind == "acquire":
                self._note_lock_order(node.stmt, state, func)
            elif node.kind == "stmt" and node.stmt is not None:
                self._scan_statement(node.stmt, state, func, role)

    def _note_lock_order(
        self, expr: ast.expr, held: frozenset, func: _FuncModel
    ) -> None:
        """One edge per held region -> acquired region; a region already
        held (a condition over a held lock) is re-entry, not an edge."""
        acquired = _lock_regions(expr, func, self.program)
        site = (func.file.path, expr.lineno, func.qualname)
        for inner in acquired:
            for outer in held - acquired:
                edge = (outer, inner)
                if edge not in self.lock_edges or site < self.lock_edges[edge]:
                    self.lock_edges[edge] = site

    def _scan_statement(
        self, stmt: ast.AST, lockset: frozenset, func: _FuncModel, role: str
    ) -> None:
        program = self.program
        parents: dict[ast.AST, ast.AST] = {}
        stack: list[ast.AST] = [stmt]
        nodes: list[ast.AST] = []
        while stack:
            node = stack.pop()
            nodes.append(node)
            if isinstance(
                node,
                (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef, ast.Lambda),
            ) and node is not stmt:
                continue  # nested scopes are their own contexts
            # Compound statements own nested statement lists that the CFG
            # visits separately; only scan this statement's headline
            # expressions.
            children = (
                _headline_children(node) if node is stmt else ast.iter_child_nodes(node)
            )
            for child in children:
                parents[child] = node
                stack.append(child)

        for node in nodes:
            if isinstance(node, ast.Call):
                self._scan_call(node, lockset, func, role)
            target = None
            if isinstance(node, ast.Attribute):
                target = node
            elif (
                isinstance(node, ast.Name)
                and node.id != "self"
                and not isinstance(parents.get(node), ast.Attribute)
            ):
                target = node
            if target is None:
                continue
            resolved = _region_of(target, func, program)
            if resolved is None:
                continue
            region, info = resolved
            if info.kind in _SYNC_KINDS:
                continue
            write = _classify_access(target, parents, func, program)
            if write is None:
                continue
            self.accesses.append(
                _Access(
                    region=region,
                    write=write,
                    lockset=lockset,
                    role=role,
                    path=func.file.path,
                    line=getattr(target, "lineno", func.node.lineno),
                )
            )

    def _scan_call(
        self, call: ast.Call, lockset: frozenset, func: _FuncModel, role: str
    ) -> None:
        program = self.program
        # Condition-variable discipline.
        if isinstance(call.func, ast.Attribute):
            cond = _condition_region(call.func.value, func, program)
            if cond is not None:
                region, assoc = cond
                if call.func.attr in ("wait", "wait_for"):
                    if not _inside_while(call, func):
                        self._point(
                            "rt-cv-wait-no-predicate", Severity.WARNING,
                            f"{_region_name(region)}.wait() is not re-checked in "
                            "an enclosing while-predicate loop; spurious wakeups "
                            "and missed notifies make this wait unsound",
                            func.file, call.lineno,
                        )
                elif call.func.attr in ("notify", "notify_all"):
                    held = region in lockset or (
                        assoc is not None and (region[0], assoc) in lockset
                    )
                    if not held:
                        self._point(
                            "rt-cv-notify-unheld", Severity.ERROR,
                            f"{_region_name(region)}.{call.func.attr}() without "
                            "holding the condition's lock; CPython raises "
                            "RuntimeError('cannot notify on un-acquired lock')",
                            func.file, call.lineno,
                        )
        if _is_thread_ctor(call, func.file.aliases):
            return  # spawned targets root their own thread contexts
        callee = _resolve_call_target(call, func, program)
        if callee is not None:
            self.enqueue(callee, role, lockset)

    def _point(
        self, check: str, severity: Severity, message: str,
        file: _FileModel, line: int,
    ) -> None:
        key = (check, file.path, line)
        if key in self.point_diags:
            return
        if suppressed(file.lines, line, check):
            return
        self.point_diags[key] = Diagnostic(
            check, severity, message, file.path, line=line
        )


def _headline_children(stmt: ast.AST) -> list[ast.AST]:
    """A compound statement's own expressions, not its nested suites."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith)):
        return []  # withitems are acquire/release pseudo-nodes
    if isinstance(stmt, ast.Try):
        return []
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        return []
    return list(ast.iter_child_nodes(stmt))


def _classify_access(
    node: ast.AST, parents: dict, func: _FuncModel, program: _Program
) -> bool | None:
    """Whether an attribute/name occurrence writes its region.

    Returns None for occurrences that should not be recorded
    (initialization bindings, the base of a deeper attribute that
    resolves on its own, ...).
    """
    ctx = getattr(node, "ctx", None)
    parent = parents.get(node)
    if isinstance(ctx, (ast.Store, ast.Del)):
        if isinstance(node, ast.Name):
            # A plain rebind in the defining function is initialization
            # (pre-spawn); a Store in a *nested* function is a nonlocal
            # write worth recording.  _region_of only yields closure
            # regions, so distinguish by definer.
            hit = _lookup_var(func, node.id, program)
            if hit is not None and hit[0] is func:
                return None
        if isinstance(parent, (ast.With, ast.AsyncWith, ast.withitem)):
            return None
        return True
    # Subscript store / load on the object: self.x[i] = v / self.x[i].
    if isinstance(parent, ast.Subscript) and parent.value is node:
        return isinstance(parent.ctx, (ast.Store, ast.Del))
    # Mutator method call: self.x.append(...)
    if (
        isinstance(parent, ast.Attribute)
        and parent.value is node
        and parent.attr in _MUTATORS
    ):
        grand = parents.get(parent)
        if isinstance(grand, ast.Call) and grand.func is parent:
            # Method calls on class-typed values are handled by
            # propagation into the method, not as raw mutations.
            info = _expr_info(node, func, program)
            if info is None or info.kind != "class":
                return True
    return False


def _inside_while(node: ast.AST, func: _FuncModel) -> bool:
    """Is ``node`` lexically inside a ``while`` loop of this function?"""
    parents = func.file.parents
    current = parents.get(node)
    while current is not None and current is not func.node:
        if isinstance(current, ast.While):
            return True
        if isinstance(current, (ast.FunctionDef, ast.AsyncFunctionDef)):
            break
        current = parents.get(current)
    return False


def _resolve_call_target(
    call: ast.Call, func: _FuncModel, program: _Program
) -> str | None:
    if isinstance(call.func, ast.Name):
        qualname = _resolve_callable(call.func, func, program)
        if qualname is not None and qualname in program.functions:
            return qualname
        return None
    if isinstance(call.func, ast.Attribute):
        return _resolve_callable(call.func, func, program)
    return None


def _constructed_as_deque(cls: _ClassModel, attr: str) -> bool:
    for node in ast.walk(cls.node):
        target = None
        value = None
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            target, value = node.targets[0], node.value
        elif isinstance(node, ast.AnnAssign) and node.value is not None:
            target, value = node.target, node.value
        if not (
            isinstance(target, ast.Attribute)
            and isinstance(target.value, ast.Name)
            and target.value.id == "self"
            and target.attr == attr
        ):
            continue
        if isinstance(value, ast.Call):
            name = terminal_name(value.func)
            if name == "deque":
                return True
    return False


def _region_name(region: tuple[str, str]) -> str:
    return f"{region[0]}.{region[1]}"


# ----------------------------------------------------------------------
# Race verdicts
# ----------------------------------------------------------------------
def _race_verdicts(
    accesses: list[_Access], files: dict[str, _FileModel]
) -> list[Diagnostic]:
    by_region: dict[tuple[str, str], list[_Access]] = {}
    for access in accesses:
        by_region.setdefault(access.region, []).append(access)
    diags: list[Diagnostic] = []
    for region in sorted(by_region):
        group = by_region[region]
        roles = {a.role for a in group}
        if len(roles) < 2 or not any(a.write for a in group):
            continue
        if region[0].startswith("func:") and not any(
            role.startswith("thread:") for role in roles
        ):
            # A closure cell is per-invocation: different API entry
            # points reaching the defining function get *different*
            # cells, so only a thread spawned by the invocation itself
            # can race on one.
            continue
        common = frozenset.intersection(*(a.lockset for a in group))
        if common:
            continue
        unlocked = sorted(
            (a for a in group if not a.lockset),
            key=lambda a: (not a.write, a.path, a.line),
        )
        if unlocked:
            anchor = unlocked[0]
            check = "rt-racy-field"
            detail = (
                "with no lock held at "
                f"{Path(anchor.path).name}:{anchor.line}"
            )
        else:
            anchor = sorted(
                group, key=lambda a: (not a.write, a.path, a.line)
            )[0]
            check = "rt-lockset-inconsistent"
            locks = sorted(
                {_region_name(r) for a in group for r in a.lockset}
            )
            detail = (
                "under locks with no common member "
                f"({', '.join(locks)})"
            )
        writers = sorted({a.role for a in group if a.write})
        readers = sorted(roles - set(writers)) or writers
        message = (
            f"shared field {_region_name(region)} is written from "
            f"{', '.join(writers)} and accessed from {', '.join(readers)} "
            f"{detail}"
        )
        model = files.get(anchor.path)
        if model is not None and suppressed(model.lines, anchor.line, check):
            continue
        diags.append(
            Diagnostic(
                check, Severity.WARNING, message, anchor.path, line=anchor.line
            )
        )
    return diags


# ----------------------------------------------------------------------
# Protocol conformance (framed pipe message state machine)
# ----------------------------------------------------------------------
#: Calls whose constant string argument produces a *request* kind.
_REQUEST_CALLS = frozenset({"send", "broadcast", "submit", "handle"})
#: Calls whose tuple argument produces a *response*.
_RESPONSE_CALLS = frozenset({"_send", "_post"})
#: Variable names whose comparisons consume request / response kinds.
_REQUEST_VARS = frozenset({"kind"})
_RESPONSE_VARS = frozenset({"status"})


def _const_str(expr: ast.expr, program: _Program) -> str | None:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.Name):
        return program.constants.get(expr.id)
    if isinstance(expr, ast.Attribute):
        return program.constants.get(expr.attr)
    return None


class _ProtocolModel:
    def __init__(self) -> None:
        #: kind -> first (path, line) per table
        self.produced_req: dict[str, tuple[str, int]] = {}
        self.consumed_req: dict[str, tuple[str, int]] = {}
        self.produced_resp: dict[str, tuple[str, int]] = {}
        self.consumed_resp: dict[str, tuple[str, int]] = {}

    @staticmethod
    def _note(table: dict, kind: str, path: str, line: int) -> None:
        if kind not in table or (path, line) < table[kind]:
            table[kind] = (path, line)


def _extract_protocol(program: _Program) -> _ProtocolModel:
    proto = _ProtocolModel()
    for model in program.files:
        parents = model.parents
        for node in ast.walk(model.tree):
            # -- producers: (kind, payload) tuples in streaming position
            if (
                isinstance(node, ast.Tuple)
                and len(node.elts) == 2
                and _const_str(node.elts[0], program) is not None
            ):
                kind = _const_str(node.elts[0], program)
                parent = parents.get(node)
                direction = None
                if isinstance(parent, (ast.Yield, ast.Return)):
                    direction = "request"
                elif isinstance(
                    parent, (ast.GeneratorExp, ast.ListComp, ast.SetComp)
                ) and getattr(parent, "elt", None) is node:
                    direction = "request"
                elif isinstance(parent, ast.Call) and node in parent.args:
                    callee = terminal_name(parent.func)
                    if callee in _RESPONSE_CALLS:
                        direction = "response"
                if direction == "request":
                    proto._note(proto.produced_req, kind, model.path, node.lineno)
                elif direction == "response":
                    proto._note(proto.produced_resp, kind, model.path, node.lineno)
            # -- producers: send/broadcast/submit/handle with const kind
            if isinstance(node, ast.Call):
                callee = terminal_name(node.func)
                if callee in _REQUEST_CALLS:
                    for arg in node.args:
                        kind = _const_str(arg, program)
                        if kind is not None:
                            proto._note(
                                proto.produced_req, kind, model.path, node.lineno
                            )
                            break
            # -- consumers: kind == "..." / status == "...".  Only bare
            # names count: frame dispatch always unpacks the tuple into
            # locals, while `self.status`-style attribute compares are
            # unrelated state machines (admission verdicts, fault kinds).
            if isinstance(node, ast.Compare) and len(node.comparators) == 1:
                if not isinstance(node.ops[0], (ast.Eq, ast.NotEq)):
                    continue
                left_name = (
                    node.left.id if isinstance(node.left, ast.Name) else None
                )
                kind = _const_str(node.comparators[0], program)
                if kind is None or left_name is None:
                    # symmetric: "..." == kind
                    right = node.comparators[0]
                    if (
                        isinstance(right, ast.Name)
                        and right.id in (_REQUEST_VARS | _RESPONSE_VARS)
                    ):
                        left_name = right.id
                        kind = _const_str(node.left, program)
                if kind is None or left_name is None:
                    continue
                if left_name in _REQUEST_VARS:
                    proto._note(proto.consumed_req, kind, model.path, node.lineno)
                elif left_name in _RESPONSE_VARS:
                    proto._note(proto.consumed_resp, kind, model.path, node.lineno)
    return proto


def _protocol_verdicts(
    program: _Program, files: dict[str, _FileModel]
) -> list[Diagnostic]:
    proto = _extract_protocol(program)
    # Only meaningful when the file set actually speaks the protocol.
    if not (
        proto.produced_req or proto.consumed_req
        or proto.produced_resp or proto.consumed_resp
    ):
        return []
    diags: list[Diagnostic] = []

    def report(kind: str, site: tuple[str, int], message: str) -> None:
        path, line = site
        model = files.get(path)
        if model is not None and suppressed(
            model.lines, line, "rt-frame-unconsumed"
        ):
            return
        diags.append(
            Diagnostic(
                "rt-frame-unconsumed", Severity.WARNING, message, path, line=line
            )
        )

    for kind in sorted(set(proto.produced_req) - set(proto.consumed_req)):
        report(
            kind, proto.produced_req[kind],
            f"request kind {kind!r} is produced but no peer-side consumer "
            "matches it (no `kind == ...` dispatch); the worker would "
            "raise on it",
        )
    for kind in sorted(set(proto.consumed_req) - set(proto.produced_req)):
        report(
            kind, proto.consumed_req[kind],
            f"request kind {kind!r} has a consumer but no producer in the "
            "analyzed sources; dead protocol arm or a producer outside "
            "the audited set",
        )
    for kind in sorted(set(proto.produced_resp) - set(proto.consumed_resp)):
        report(
            kind, proto.produced_resp[kind],
            f"response kind {kind!r} is produced but never consumed "
            "(no `status == ...` match); the collector would misparse it",
        )
    for kind in sorted(set(proto.consumed_resp) - set(proto.produced_resp)):
        report(
            kind, proto.consumed_resp[kind],
            f"response kind {kind!r} has a consumer but no producer in "
            "the analyzed sources",
        )
    return diags


# ----------------------------------------------------------------------
# Lock order and the ack window
# ----------------------------------------------------------------------
def _lock_order_verdicts(
    edges: dict[tuple, tuple[str, int, str]], files: dict[str, _FileModel]
) -> list[Diagnostic]:
    """One finding per lock pair taken in both orders, at the later site."""
    diags: list[Diagnostic] = []
    for (outer, inner), site in sorted(edges.items()):
        back = edges.get((inner, outer))
        if back is None or back < site:
            continue  # no inversion, or reported from the other edge
        path, line, qualname = back
        model = files.get(path)
        if model is not None and suppressed(model.lines, line, "rt-lock-order"):
            continue
        diags.append(Diagnostic(
            "rt-lock-order", Severity.ERROR,
            f"{qualname}() takes {_region_name(outer)} while holding "
            f"{_region_name(inner)}, but {site[2]}() "
            f"({Path(site[0]).name}:{site[1]}) takes them in the opposite "
            "order; concurrent callers deadlock holding one each",
            path, line=line,
        ))
    return diags


def _ack_window_verdicts(program: _Program) -> list[Diagnostic]:
    """A window head pop must notify the gating condition in the same
    function: the ack transition is what wakes the windowed producer."""
    windows = {
        (cls.name, attr)
        for cls in program.classes.values()
        if cls.condition_attrs()
        for attr, info in cls.attrs.items()
        if info.kind == "plain" and _constructed_as_deque(cls, attr)
    }
    diags: list[Diagnostic] = []
    for func in program.functions.values():
        body = function_body_nodes(func.node)
        calls = [
            n for n in body
            if isinstance(n, ast.Call) and isinstance(n.func, ast.Attribute)
        ]
        pops = [
            (call, _region_of(call.func.value, func, program))
            for call in calls
            if call.func.attr == "popleft"
        ]
        pops = [(call, hit[0]) for call, hit in pops if hit and hit[0] in windows]
        if not pops or any(c.func.attr in ("notify", "notify_all") for c in calls):
            continue
        call, region = pops[0]
        if suppressed(func.file.lines, call.lineno, "rt-ack-window-order"):
            continue
        diags.append(Diagnostic(
            "rt-ack-window-order", Severity.ERROR,
            f"ack window {_region_name(region)} pops its head without "
            "notifying the gating condition variable; the windowed "
            "producer stays parked until its poll timeout",
            func.file.path, line=call.lineno,
        ))
    return diags


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def analyze_concurrency_sources(
    sources: list[tuple[str, str]]
) -> list[Diagnostic]:
    """Run the full concurrency battery over ``(path, text)`` pairs."""
    program = _build_program(sources)
    files = {model.path: model for model in program.files}

    roots: list[tuple[str, str]] = []
    thread_roots = _discover_thread_roots(program)
    for qualname, role in sorted(thread_roots.items()):
        roots.append((qualname, role))
    for qualname in sorted(program.functions):
        func = program.functions[qualname]
        if qualname in thread_roots:
            continue
        name = func.name
        if name in ("__init__", "__post_init__"):
            continue
        public = not name.startswith("_") or (
            name.startswith("__") and name.endswith("__")
        )
        if public and func.encloser is None:
            owner = func.cls or Path(func.file.path).stem
            roots.append((qualname, f"api:{owner}"))

    analysis = _Analysis(program)
    analysis.run(roots)

    diags = list(analysis.point_diags.values())
    diags += _race_verdicts(analysis.accesses, files)
    diags += _protocol_verdicts(program, files)
    diags += _lock_order_verdicts(analysis.lock_edges, files)
    diags += _ack_window_verdicts(program)
    diags.sort(key=lambda d: (d.source, d.line or 0, d.check_id))
    return diags


def analyze_concurrency(paths: Iterable[str | Path]) -> list[Diagnostic]:
    """Analyze files and/or directories (recursing into ``*.py``)."""
    files: list[Path] = []
    for path in paths:
        path = Path(path)
        if path.is_dir():
            files.extend(sorted(path.rglob("*.py")))
        else:
            files.append(path)
    sources = [
        (str(file), file.read_text(encoding="utf-8")) for file in files
    ]
    return analyze_concurrency_sources(sources)
