"""One pass over the runtime sources: fork safety, locksets, the pipe protocol.

The runtime is genuinely concurrent: per-run writer and supervisor
threads gated on pending-window condition variables (``pool.py``), and a
service whose admission and scoring paths deliberately take separate
locks (``service.py``).  It also forks single-threaded workers and wires
pipe pairs (``executors.py``).
This module parses the sources once into one program model and runs
every ``rt-*`` check over it (each is fired by a seeded bug in
``tests/test_analysis_yield.py``):

1. **Types are read, never propagated.**  A value's type comes from an
   annotation (a parameter, ``x: T = ...``, ``self.x: T = ...``, or a
   resolvable callee's return annotation; ``T | None``, ``Optional[T]``
   and string annotations read as ``T``), from a constructor call
   (``Cls(...)``, ``threading.Lock()``, ``Condition(self._lock)``,
   ``queue.Queue(...)``, ``deque(...)``), or from ``self.x = param`` with
   ``param`` annotated.  Nothing else is typed: ``b = a.attr`` leaves
   ``b`` untyped, and an untyped value is neither a lock nor a shared
   field.  Where the analysis needs a type, the runtime carries an
   annotation.

2. **Thread discovery.**  Every ``threading.Thread(target=...)`` call is
   resolved to its target function (methods, nested functions, module
   functions).  Each spawned target roots an analysis context with role
   ``thread:<name>``; the public surface of each class roots a shared
   ``api:<Class>`` role (any caller thread), and helpers reached from
   neither become their own roots.  Shared state is a typed receiver's
   fields: a closure variable is never a region, so a thread target
   shares state through ``self`` (every runtime thread targets a method).

3. **Locksets.**  A statement-level CFG per function (``repro.analysis
   .cfg``) carries a *must*-lockset — the set of lock regions held on
   every path — through ``with`` acquisitions, condition variables
   (acquiring a ``threading.Condition(self._lock)`` also acquires its
   underlying lock), and helper calls (context-sensitive on the entry
   lockset).  ``run.cv`` and ``self.cv`` name the same ``(_ShardRun,
   cv)`` region when both are typed ``_ShardRun``.  A lock-typed
   parameter or local is keyed by its name within its module.

4. **Shared-field race verdicts.**  Every ``obj.attr`` access on a typed
   receiver is recorded as ``(region, read/write, lockset, role)``.  A
   field written at all and touched from ≥2 roles must have a *common*
   lock across every access: if some access holds nothing →
   ``rt-racy-field``; if every access holds *a* lock but no lock is
   common → ``rt-lockset-inconsistent``.  ``__init__`` runs
   happen-before every spawn and are excluded.

5. **Lock order.**  At each ``with`` acquisition every region already in
   the must-lockset gives one edge, held → acquired (through helper
   calls too: ``pump`` holding ``_dispatch_lock`` reaches ``_pop_batch``
   taking ``_lock``).  A pair acquired in both orders is the AB/BA
   deadlock, reported once (``rt-lock-order``).  Taking a
   ``Condition(self._lock)`` while holding ``self._lock`` is re-entry,
   not an edge.

6. **Condition-variable discipline.**  ``rt-cv-wait-no-predicate`` (a
   ``wait()`` not re-checked in an enclosing ``while``) and
   ``rt-cv-notify-unheld`` (``notify`` without the condition's lock in
   the dataflow lockset — CPython raises RuntimeError at runtime).

7. **Framed-pipe protocol conformance.**  Message kinds are extracted
   direction-aware — request producers (yielded/returned/comprehension
   ``(kind, payload)`` tuples, ``send``/``broadcast``/``handle`` calls
   with constant kinds), request consumers (``kind == ...``
   comparisons), response producers (tuples passed to ``_send``/
   ``_post``), response consumers (``status == ...``) — and every kind
   must appear on both sides of its direction (``rt-frame-unconsumed``).
   An ack window (a deque in a class with a condition variable) whose
   head is popped in a function that never notifies leaves the windowed
   producer parked until its poll timeout (``rt-ack-window-order``);
   unguarded window touches are plain ``rt-racy-field`` verdicts.

8. **Fork safety, per function.**  ``rt-fork-flush`` (``os.fork()`` with
   no earlier ``flush()``: buffered stdio is written twice),
   ``rt-fork-child-exit`` (a forking function that never calls
   ``os._exit``: the child unwinds into the parent's teardown),
   ``rt-pipe-ownership`` (an ``os.pipe()`` fd that never reaches
   ``os.close``/``os.fdopen`` in its function) and ``rt-unbounded-recv``
   (``recv()``/``join()`` with no timeout: a dead worker parks the
   caller forever).

Findings are :class:`~repro.analysis.diagnostics.Diagnostic` records.
A finding is waived by ``# noqa: <check-id> - justification`` on its
anchor line — one deterministic line per finding (for races, the first
unlocked write, else the first unlocked access) — so a single per-line
waiver retires exactly one verdict.
"""

from __future__ import annotations

import ast
from dataclasses import dataclass, field
from pathlib import Path
from typing import Iterable, Iterator

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
#: Canonical constructor names and the kind of value they build.  Lock,
#: condition and thread-safe values synchronize internally — method calls
#: on them are not shared-state accesses.
_KINDS = {
    "threading.Lock": "lock",
    "threading.RLock": "lock",
    "threading.Condition": "condition",
    "collections.deque": "deque",
    **dict.fromkeys(
        (
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
        ),
        "threadsafe",
    ),
}

#: Method calls that mutate their receiver (container/file mutators).
_MUTATORS = frozenset({
    "append", "appendleft", "extend", "extendleft", "insert",
    "pop", "popleft", "remove", "clear", "add", "discard", "update",
    "setdefault", "sort", "reverse", "rotate", "write", "flush",
    "truncate", "writelines",
})

#: Kinds whose accesses are never recorded as shared state.
_SYNC_KINDS = frozenset({"lock", "condition", "threadsafe"})


@dataclass
class _TypeInfo:
    """What we know about an attribute's or local's value."""

    kind: str            # "lock" | "condition" | "threadsafe" | "deque" | "class" | "plain"
    cls: str | None = None     # class name when kind == "class"
    assoc: str | None = None   # condition: the lock attr it wraps (same class)


_PLAIN = _TypeInfo("plain")


@dataclass
class _ClassModel:
    name: str
    attrs: dict[str, _TypeInfo] = field(default_factory=dict)
    methods: dict[str, str] = field(default_factory=dict)  # name -> qualname


@dataclass
class _FuncModel:
    qualname: str
    node: ast.FunctionDef | ast.AsyncFunctionDef
    file: "_FileModel"
    cls: str | None            # owning class name, if a method
    encloser: str | None       # qualname of the enclosing function, if nested
    body: list[ast.AST]        # its own AST nodes, nested scopes excluded
    locals_: dict[str, _TypeInfo] = field(default_factory=dict)
    bound: set[str] = field(default_factory=set)   # params + assigned names
    nested: dict[str, str] = field(default_factory=dict)  # name -> qualname

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
        _collect_constants(model, program)
        _collect_defs(model, program)
        program.files.append(model)
    # Parameters first (``self.x = param`` reads them), then attributes
    # (a local's callee return type may hang off one), then locals.
    for func in program.functions.values():
        _read_param_types(func, program)
    for cls in program.classes.values():
        _read_attr_types(cls, program)
    for func in program.functions.values():
        _read_local_types(func, program)
    return program


def _collect_constants(model: _FileModel, program: _Program) -> None:
    for stmt in model.tree.body:
        if (
            isinstance(stmt, ast.Assign)
            and len(stmt.targets) == 1
            and isinstance(stmt.targets[0], ast.Name)
            and stmt.targets[0].id.isupper()
            and isinstance(stmt.value, ast.Constant)
            and isinstance(stmt.value.value, str)
        ):
            program.constants[stmt.targets[0].id] = stmt.value.value


def _collect_defs(model: _FileModel, program: _Program) -> None:
    def add_func(node, cls_name, encloser, qualname) -> _FuncModel:
        func = _FuncModel(
            qualname, node, model, cls_name, encloser, function_body_nodes(node)
        )
        program.functions[qualname] = func
        for child in func.body:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                inner = add_func(child, cls_name, qualname, f"{qualname}.{child.name}")
                func.nested[child.name] = inner.qualname
        return func

    for stmt in model.tree.body:
        if isinstance(stmt, ast.ClassDef):
            cls = _ClassModel(stmt.name)
            program.classes[stmt.name] = cls
            for item in stmt.body:
                if isinstance(item, (ast.FunctionDef, ast.AsyncFunctionDef)):
                    qualname = f"{stmt.name}.{item.name}"
                    cls.methods[item.name] = qualname
                    add_func(item, stmt.name, None, qualname)
        elif isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef)):
            model.module_funcs[stmt.name] = stmt.name
            add_func(stmt, None, None, stmt.name)


def _named_type(
    expr: ast.expr, program: _Program, aliases: Aliases
) -> _TypeInfo | None:
    """The type a (possibly module-qualified) name denotes, if modeled."""
    kind = _KINDS.get(aliases.resolve(expr))
    if kind is not None:
        return _TypeInfo(kind)
    name = None
    if isinstance(expr, ast.Name):
        name = expr.id
    elif isinstance(expr, ast.Attribute) and isinstance(expr.value, ast.Name):
        if expr.value.id in aliases.modules:
            name = expr.attr
    if name in program.classes:
        return _TypeInfo("class", cls=name)
    return None


def _annotation_type(
    annotation: ast.expr | None, program: _Program, aliases: Aliases
) -> _TypeInfo | None:
    """An annotation's type: ``T``, ``T | None``, ``Optional[T]``, ``"T"``."""
    if annotation is None:
        return None
    if isinstance(annotation, ast.Constant) and isinstance(annotation.value, str):
        try:
            annotation = ast.parse(annotation.value, mode="eval").body
        except SyntaxError:
            return None
    if isinstance(annotation, ast.BinOp) and isinstance(annotation.op, ast.BitOr):
        return (
            _annotation_type(annotation.left, program, aliases)
            or _annotation_type(annotation.right, program, aliases)
        )
    if (
        isinstance(annotation, ast.Subscript)
        and terminal_name(annotation.value) == "Optional"
    ):
        return _annotation_type(annotation.slice, program, aliases)
    return _named_type(annotation, program, aliases)


def _call_type(
    call: ast.Call, func: _FuncModel, program: _Program
) -> _TypeInfo | None:
    """A constructor call's type, or its resolved callee's return annotation."""
    info = _named_type(call.func, program, func.file.aliases)
    if info is not None:
        if info.kind == "condition" and call.args and _is_self_attr(call.args[0]):
            info.assoc = call.args[0].attr
        return info
    callee = _resolve_callable(call.func, func, program)
    if callee is None:
        return None
    target = program.functions[callee]
    return _annotation_type(target.node.returns, program, target.file.aliases)


def _is_self_attr(expr: ast.expr) -> bool:
    return (
        isinstance(expr, ast.Attribute)
        and isinstance(expr.value, ast.Name)
        and expr.value.id == "self"
    )


def _assignments(func: _FuncModel) -> list[tuple]:
    """``(target, value, annotation)`` for each one-target assignment in
    ``func``'s own body, in source order."""
    found = []
    for node in func.body:
        if isinstance(node, ast.Assign) and len(node.targets) == 1:
            found.append((node, node.targets[0], node.value, None))
        elif isinstance(node, ast.AnnAssign):
            found.append((node, node.target, node.value, node.annotation))
    found.sort(key=lambda item: (item[0].lineno, item[0].col_offset))
    return [item[1:] for item in found]


def _assigned_type(
    value: ast.expr | None, annotation: ast.expr | None,
    func: _FuncModel, program: _Program,
) -> _TypeInfo | None:
    info = _annotation_type(annotation, program, func.file.aliases)
    if info is None and isinstance(value, ast.Call):
        info = _call_type(value, func, program)
    return info


def _read_param_types(func: _FuncModel, program: _Program) -> None:
    args = func.node.args
    for arg in args.posonlyargs + args.args + args.kwonlyargs:
        func.bound.add(arg.arg)
        info = _annotation_type(arg.annotation, program, func.file.aliases)
        if info is not None:
            func.locals_[arg.arg] = info
    for extra in (args.vararg, args.kwarg):
        if extra is not None:
            func.bound.add(extra.arg)


def _read_attr_types(cls: _ClassModel, program: _Program) -> None:
    """Attribute types from ``self.x = ...`` across every method; the
    first typed assignment wins."""
    for qualname in cls.methods.values():
        func = program.functions[qualname]
        for target, value, annotation in _assignments(func):
            if not _is_self_attr(target):
                continue
            info = _assigned_type(value, annotation, func, program)
            if info is None and isinstance(value, ast.Name):
                info = func.locals_.get(value.id)  # self.x = param
            existing = cls.attrs.get(target.attr)
            if existing is None or (existing.kind == "plain" and info is not None):
                cls.attrs[target.attr] = info or _PLAIN


def _read_local_types(func: _FuncModel, program: _Program) -> None:
    """Local types from annotations and calls; the first typed binding wins."""
    for node in func.body:
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Store):
            func.bound.add(node.id)
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            func.bound.add(node.name)
    for target, value, annotation in _assignments(func):
        if isinstance(target, ast.Name) and target.id not in func.locals_:
            info = _assigned_type(value, annotation, func, program)
            if info is not None:
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
        current = program.functions.get(current.encloser) if current.encloser else None
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
        return _call_type(expr, func, program)
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

    ``self.attr`` / ``typed.attr`` → ``(Class, attr)``; a lock-typed
    name → ``(module, name)``.
    """
    if isinstance(expr, ast.Attribute):
        base_cls = _expr_class(expr.value, func, program)
        if base_cls is not None:
            info = program.classes[base_cls].attrs.get(expr.attr, _PLAIN)
            return (base_cls, expr.attr), info
        return None
    if isinstance(expr, ast.Name) and expr.id != "self":
        info = _expr_info(expr, func, program)
        if info is not None and info.kind in ("lock", "condition"):
            return (Path(func.file.path).stem, expr.id), info
    return None


def _lock_regions(
    expr: ast.expr, func: _FuncModel, program: _Program
) -> frozenset:
    """The lock regions acquiring ``expr`` (a ``with`` item) holds; a
    condition also holds its associated lock.  Untyped: none."""
    target = expr.func if isinstance(expr, ast.Call) else expr
    resolved = _region_of(target, func, program)
    if resolved is None:
        return frozenset()
    region, info = resolved
    if info.kind not in ("lock", "condition"):
        return frozenset()
    if info.assoc is None:
        return frozenset({region})
    return frozenset({region, (region[0], info.assoc)})


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
            current = program.functions.get(current.encloser) if current.encloser else None
        return func.file.module_funcs.get(expr.id)
    if isinstance(expr, ast.Attribute):
        base = expr.value
        if (
            isinstance(base, ast.Name)
            and base.id in program.classes
            and _lookup_var(func, base.id, program) is None
        ):
            return program.classes[base.id].methods.get(expr.attr)  # Cls.method
        base_cls = _expr_class(base, func, program)
        if base_cls is not None:
            return program.classes[base_cls].methods.get(expr.attr)
    return None


def _discover_thread_roots(program: _Program) -> dict[str, str]:
    """qualname → role for every resolvable ``Thread(target=...)``."""
    roots: dict[str, str] = {}
    for func in program.functions.values():
        for node in func.body:
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
        self._drain()
        # Helpers reached from no root (private, called only from
        # __init__, or spawned in unresolvable ways) self-root so their
        # accesses still participate in verdicts.
        for qualname, func in sorted(self.program.functions.items()):
            if not any(seen == qualname for seen, __ in self.seen):
                self.enqueue(qualname, _api_role(func), frozenset())
                self._drain()

    def _drain(self) -> None:
        while self.work:
            self._process(*self.work.pop())

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
            if not isinstance(node, ast.Attribute):
                continue  # only fields are shared; a name is a lock at most
            resolved = _region_of(node, func, program)
            if resolved is None:
                continue
            region, info = resolved
            if info.kind in _SYNC_KINDS:
                continue
            write = _classify_access(node, parents, func, program)
            if write is None:
                continue
            self.accesses.append(
                _Access(
                    region=region,
                    write=write,
                    lockset=lockset,
                    role=role,
                    path=func.file.path,
                    line=node.lineno,
                )
            )

    def _scan_call(
        self, call: ast.Call, lockset: frozenset, func: _FuncModel, role: str
    ) -> None:
        program = self.program
        # Condition-variable discipline.
        if isinstance(call.func, ast.Attribute):
            resolved = _region_of(call.func.value, func, program)
            if resolved is not None and resolved[1].kind == "condition":
                region, assoc = resolved[0], resolved[1].assoc
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
        callee = _resolve_callable(call.func, func, program)
        if callee is not None:
            self.enqueue(callee, role, lockset)

    def _point(
        self, check: str, severity: Severity, message: str,
        file: _FileModel, line: int,
    ) -> None:
        key = (check, file.path, line)
        if key not in self.point_diags:
            self.point_diags[key] = Diagnostic(
                check, severity, message, file.path, line=line
            )


def _public(name: str) -> bool:
    """Part of a class's (or module's) callable surface; ``__init__`` runs
    before any spawn and is never a root."""
    if name in ("__init__", "__post_init__"):
        return False
    return not name.startswith("_") or (name.startswith("__") and name.endswith("__"))


def _api_role(func: _FuncModel) -> str:
    """The shared role of a class's (or module's) public surface."""
    return f"api:{func.cls or Path(func.file.path).stem}"


def _headline_children(stmt: ast.AST) -> list[ast.AST]:
    """A compound statement's own expressions, not its nested suites."""
    if isinstance(stmt, (ast.If, ast.While)):
        return [stmt.test]
    if isinstance(stmt, (ast.For, ast.AsyncFor)):
        return [stmt.target, stmt.iter]
    if isinstance(stmt, (ast.With, ast.AsyncWith, ast.Try, ast.FunctionDef,
                         ast.AsyncFunctionDef, ast.ClassDef)):
        return []  # withitems are acquire/release pseudo-nodes; scopes are their own
    return list(ast.iter_child_nodes(stmt))


def _classify_access(
    node: ast.AST, parents: dict, func: _FuncModel, program: _Program
) -> bool | None:
    """Whether an attribute occurrence writes its region.

    Returns None for occurrences that should not be recorded (a ``with
    ... as self.x`` binding).
    """
    ctx = getattr(node, "ctx", None)
    parent = parents.get(node)
    if isinstance(ctx, (ast.Store, ast.Del)):
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
            # A method call on a class-typed value is analysed inside
            # the callee, not as a raw mutation.
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


def _region_name(region: tuple[str, str]) -> str:
    return f"{region[0]}.{region[1]}"


# ----------------------------------------------------------------------
# Race verdicts
# ----------------------------------------------------------------------
def _race_verdicts(accesses: list[_Access]) -> list[Diagnostic]:
    by_region: dict[tuple[str, str], list[_Access]] = {}
    for access in accesses:
        by_region.setdefault(access.region, []).append(access)
    diags: list[Diagnostic] = []
    for region in sorted(by_region):
        group = by_region[region]
        roles = {a.role for a in group}
        if len(roles) < 2 or not any(a.write for a in group):
            continue
        if frozenset.intersection(*(a.lockset for a in group)):
            continue
        unlocked = [a for a in group if not a.lockset]
        anchor = min(unlocked or group, key=lambda a: (not a.write, a.path, a.line))
        if unlocked:
            check = "rt-racy-field"
            detail = f"with no lock held at {Path(anchor.path).name}:{anchor.line}"
        else:
            check = "rt-lockset-inconsistent"
            locks = sorted({_region_name(r) for a in group for r in a.lockset})
            detail = f"under locks with no common member ({', '.join(locks)})"
        writers = sorted({a.role for a in group if a.write})
        readers = sorted(roles - set(writers)) or writers
        message = (
            f"shared field {_region_name(region)} is written from "
            f"{', '.join(writers)} and accessed from {', '.join(readers)} "
            f"{detail}"
        )
        diags.append(
            Diagnostic(check, Severity.WARNING, message, anchor.path, line=anchor.line)
        )
    return diags


# ----------------------------------------------------------------------
# Protocol conformance (framed pipe message state machine)
# ----------------------------------------------------------------------
#: Calls whose constant string argument produces a *request* kind.
_REQUEST_CALLS = frozenset({"send", "broadcast", "handle"})
#: Calls whose tuple argument produces a *response*.
_RESPONSE_CALLS = frozenset({"_send", "_post"})
#: Bare names whose ``==`` comparisons consume a kind, per direction.
_CONSUMER_VARS = {"kind": "request", "status": "response"}

#: One message per (direction, side) whose kind the other side lacks.
_UNMATCHED = {
    ("request", "produced"): "request kind {!r} is produced but no peer-side "
    "consumer matches it (no `kind == ...` dispatch); the worker would raise on it",
    ("request", "consumed"): "request kind {!r} has a consumer but no producer in "
    "the analyzed sources; dead protocol arm or a producer outside the audited set",
    ("response", "produced"): "response kind {!r} is produced but never consumed "
    "(no `status == ...` match); the collector would misparse it",
    ("response", "consumed"): "response kind {!r} has a consumer but no producer "
    "in the analyzed sources",
}


def _const_str(expr: ast.expr, program: _Program) -> str | None:
    if isinstance(expr, ast.Constant) and isinstance(expr.value, str):
        return expr.value
    if isinstance(expr, ast.Name):
        return program.constants.get(expr.id)
    if isinstance(expr, ast.Attribute):
        return program.constants.get(expr.attr)
    return None


def _protocol_verdicts(program: _Program) -> list[Diagnostic]:
    """Every message kind must appear on both sides of its direction."""
    #: (direction, side) -> kind -> first (path, line)
    sites: dict[tuple[str, str], dict[str, tuple[str, int]]] = {
        key: {} for key in _UNMATCHED
    }

    def note(direction: str, side: str, kind: str, path: str, line: int) -> None:
        table = sites[direction, side]
        if kind not in table or (path, line) < table[kind]:
            table[kind] = (path, line)

    for model in program.files:
        for node in ast.walk(model.tree):
            # -- producers: (kind, payload) tuples in streaming position
            if isinstance(node, ast.Tuple) and len(node.elts) == 2:
                kind = _const_str(node.elts[0], program)
                parent = model.parents.get(node)
                streamed = isinstance(parent, (ast.Yield, ast.Return)) or (
                    isinstance(parent, (ast.GeneratorExp, ast.ListComp, ast.SetComp))
                    and parent.elt is node
                )
                replied = (
                    isinstance(parent, ast.Call)
                    and node in parent.args
                    and terminal_name(parent.func) in _RESPONSE_CALLS
                )
                if kind is not None and (streamed or replied):
                    direction = "request" if streamed else "response"
                    note(direction, "produced", kind, model.path, node.lineno)
            # -- producers: send/broadcast/handle with const kind
            if isinstance(node, ast.Call) and terminal_name(node.func) in _REQUEST_CALLS:
                kinds = [_const_str(arg, program) for arg in node.args]
                kind = next((k for k in kinds if k is not None), None)
                if kind is not None:
                    note("request", "produced", kind, model.path, node.lineno)
            # -- consumers: kind == "..." / status == "...", either way
            # round.  Only bare names count: frame dispatch always unpacks
            # the tuple into locals, while `self.status`-style attribute
            # compares are unrelated state machines (admission verdicts).
            if (
                isinstance(node, ast.Compare)
                and len(node.comparators) == 1
                and isinstance(node.ops[0], (ast.Eq, ast.NotEq))
            ):
                for name, other in (
                    (node.left, node.comparators[0]), (node.comparators[0], node.left)
                ):
                    kind = _const_str(other, program)
                    if (
                        isinstance(name, ast.Name)
                        and name.id in _CONSUMER_VARS
                        and kind is not None
                    ):
                        note(_CONSUMER_VARS[name.id], "consumed", kind, model.path, node.lineno)
                        break

    diags: list[Diagnostic] = []
    for (direction, side), message in _UNMATCHED.items():
        other = sites[direction, "consumed" if side == "produced" else "produced"]
        for kind, (path, line) in sorted(sites[direction, side].items()):
            if kind not in other:
                diags.append(Diagnostic(
                    "rt-frame-unconsumed", Severity.WARNING, message.format(kind),
                    path, line=line,
                ))
    return diags


# ----------------------------------------------------------------------
# Lock order and the ack window
# ----------------------------------------------------------------------
def _lock_order_verdicts(
    edges: dict[tuple, tuple[str, int, str]]
) -> list[Diagnostic]:
    """One finding per lock pair taken in both orders, at the later site."""
    diags: list[Diagnostic] = []
    for (outer, inner), site in sorted(edges.items()):
        back = edges.get((inner, outer))
        if back is None or back < site:
            continue  # no inversion, or reported from the other edge
        path, line, qualname = back
        diags.append(Diagnostic(
            "rt-lock-order", Severity.ERROR,
            f"{qualname}() takes {_region_name(outer)} while holding "
            f"{_region_name(inner)}, but {site[2]}() "
            f"({Path(site[0]).name}:{site[1]}) takes them in the opposite "
            "order; concurrent callers deadlock holding one each",
            path, line=line,
        ))
    return diags


def _ack_window_verdict(
    func: _FuncModel, calls: list[ast.Call], windows: set, program: _Program
) -> Iterator[Diagnostic]:
    """A window head pop must notify the gating condition in the same
    function: the ack transition is what wakes the windowed producer."""
    methods = [call.func.attr for call in calls if isinstance(call.func, ast.Attribute)]
    if "notify" in methods or "notify_all" in methods:
        return
    for call in calls:
        if isinstance(call.func, ast.Attribute) and call.func.attr == "popleft":
            hit = _region_of(call.func.value, func, program)
            if hit is not None and hit[0] in windows:
                yield Diagnostic(
                    "rt-ack-window-order", Severity.ERROR,
                    f"ack window {_region_name(hit[0])} pops its head without "
                    "notifying the gating condition variable; the windowed "
                    "producer stays parked until its poll timeout",
                    func.file.path, line=call.lineno,
                )
                return


# ----------------------------------------------------------------------
# Fork safety
# ----------------------------------------------------------------------
def _fork_verdicts(func: _FuncModel, calls: list[ast.Call]) -> Iterator[Diagnostic]:
    """The fork-safety checks over one function's own body."""
    name, aliases = func.name, func.file.aliases
    resolved = [(call, aliases.resolve(call.func)) for call in calls]

    def finding(check: str, severity: Severity, message: str, line: int):
        return Diagnostic(check, severity, message, func.file.path, line=line)

    forks = [call.lineno for call, canonical in resolved if canonical == "os.fork"]
    if forks:
        first = min(forks)
        if not any(call.lineno < first and _method(call) == "flush" for call in calls):
            yield finding(
                "rt-fork-flush", Severity.ERROR,
                f"{name}() calls os.fork() without flushing stdout/stderr "
                "first; buffered output is duplicated into the child", first,
            )
        if not any(canonical == "os._exit" for __, canonical in resolved):
            yield finding(
                "rt-fork-child-exit", Severity.ERROR,
                f"{name}() forks but never calls os._exit(); a child that "
                "returns unwinds into the parent's teardown (atexit, pytest)", first,
            )
    owned = {
        arg.id
        for call, canonical in resolved
        if canonical in ("os.close", "os.fdopen")
        for arg in call.args
        if isinstance(arg, ast.Name)
    }
    for node in func.body:
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.value, ast.Call)
            and aliases.resolve(node.value.func) == "os.pipe"
            and isinstance(node.targets[0], (ast.Tuple, ast.List))
        ):
            leaked = [
                e.id for e in node.targets[0].elts
                if isinstance(e, ast.Name) and e.id not in owned
            ]
            if leaked:
                yield finding(
                    "rt-pipe-ownership", Severity.ERROR,
                    f"pipe fd(s) {leaked} never reach os.close/os.fdopen in "
                    "this function; an error path leaks them", node.lineno,
                )
    for call in calls:
        method = _method(call)
        if method in ("recv", "join") and not (call.args or call.keywords):
            yield finding(
                "rt-unbounded-recv", Severity.WARNING,
                f"{name}() calls {method}() with no timeout; a dead worker "
                "parks this caller forever — pass a bound (loop on "
                "join(t)/is_alive() to wait indefinitely)", call.lineno,
            )


def _method(call: ast.Call) -> str | None:
    return call.func.attr if isinstance(call.func, ast.Attribute) else None


# ----------------------------------------------------------------------
# Entry points
# ----------------------------------------------------------------------
def analyze_concurrency_sources(
    sources: list[tuple[str, str]]
) -> list[Diagnostic]:
    """Every ``rt-*`` check over ``(path, text)`` pairs, in one pass."""
    program = _build_program(sources)

    thread_roots = _discover_thread_roots(program)
    roots = sorted(thread_roots.items()) + [
        (qualname, _api_role(func))
        for qualname, func in sorted(program.functions.items())
        if qualname not in thread_roots and func.encloser is None and _public(func.name)
    ]

    analysis = _Analysis(program)
    analysis.run(roots)

    diags = list(analysis.point_diags.values())
    diags += _race_verdicts(analysis.accesses)
    diags += _protocol_verdicts(program)
    diags += _lock_order_verdicts(analysis.lock_edges)
    windows = {
        (cls.name, attr)
        for cls in program.classes.values()
        if any(info.kind == "condition" for info in cls.attrs.values())
        for attr, info in cls.attrs.items()
        if info.kind == "deque"
    }
    for func in program.functions.values():
        calls = [node for node in func.body if isinstance(node, ast.Call)]
        diags += _ack_window_verdict(func, calls, windows, program)
        diags += _fork_verdicts(func, calls)

    lines = {model.path: model.lines for model in program.files}
    diags = [d for d in diags if not suppressed(lines[d.source], d.line, d.check_id)]
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
