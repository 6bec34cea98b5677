"""lock-guard: shared mutable state must stay behind its lock.

The PR 5 audit found :meth:`BatchSolver._ensure_pool` publishing
``self._pool`` outside ``self._pool_lock`` while ``close()`` tore it
down under the lock — a double-create race invisible to generic
linters because it depends on *which attributes this class guards*.
This rule recovers that contract by inference instead of annotation:

* a class that creates a ``threading.Lock``/``RLock`` attribute is a
  *locked class*;
* every attribute mutated at least once inside ``with self.<lock>:``
  is *guarded*;
* any mutation of a guarded attribute outside a lock context is a
  finding.

``__init__``/``__post_init__`` are construction (no concurrent reader
can exist yet) and are exempt.  Methods named ``*_locked`` follow the
repo convention of "caller holds the lock" and count as locked
context.

The same inference runs at module scope: modules that create a
module-level lock (the default engine, the default metrics registry)
get their guarded *globals* inferred from ``with <LOCK>:`` blocks,
with ``symtable`` deciding whether a name in a function is actually
the module global or a shadowing local.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .core import Finding, ModuleContext, Rule, dotted_name, self_attr

#: method names that mutate their receiver in place
MUTATORS = frozenset({
    "append", "extend", "insert", "remove", "pop", "popitem", "clear",
    "add", "discard", "update", "setdefault", "move_to_end", "sort",
    "reverse", "appendleft", "popleft", "__setitem__", "__delitem__",
})

_LOCK_FACTORIES = frozenset({"Lock", "RLock"})
_INIT_METHODS = frozenset({"__init__", "__post_init__", "__new__"})


def _is_lock_call(node: ast.AST) -> bool:
    """``threading.Lock()`` / ``Lock()`` / ``threading.RLock()`` ..."""
    if not isinstance(node, ast.Call):
        return False
    name = dotted_name(node.func)
    return name is not None and name.split(".")[-1] in _LOCK_FACTORIES


def _is_lock_factory_ref(node: ast.AST) -> bool:
    """A *reference* to the factory (``default_factory=threading.Lock``)."""
    name = dotted_name(node)
    return name is not None and name.split(".")[-1] in _LOCK_FACTORIES


class _Event:
    __slots__ = ("attr", "line", "locked", "method")

    def __init__(self, attr: str, line: int, locked: bool, method: str):
        self.attr = attr
        self.line = line
        self.locked = locked
        self.method = method


def _mutated_targets(stmt: ast.AST) -> Iterator[ast.AST]:
    """Target expressions a statement writes to (incl. tuple unpack)."""
    if isinstance(stmt, ast.Assign):
        targets = stmt.targets
    elif isinstance(stmt, (ast.AugAssign, ast.AnnAssign)):
        targets = [stmt.target]
    elif isinstance(stmt, ast.Delete):
        targets = stmt.targets
    else:
        return
    stack = list(targets)
    while stack:
        t = stack.pop()
        if isinstance(t, (ast.Tuple, ast.List)):
            stack.extend(t.elts)
        elif isinstance(t, ast.Starred):
            stack.append(t.value)
        else:
            yield t


class LockGuardRule(Rule):
    id = "lock-guard"
    title = "mutations of lock-guarded state outside the lock"

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if isinstance(node, ast.ClassDef):
                findings.extend(self._check_class(ctx, node))
        findings.extend(self._check_module_globals(ctx))
        return findings

    # -- instance attributes ------------------------------------------
    def _check_class(
        self, ctx: ModuleContext, cls: ast.ClassDef
    ) -> Iterator[Finding]:
        methods = [
            n for n in cls.body
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        locks = self._lock_attrs(cls, methods)
        if not locks:
            return
        events: list[_Event] = []
        for m in methods:
            if m.name in _INIT_METHODS:
                continue
            base_locked = m.name.endswith("_locked")
            self._collect(m, m.name, locks, base_locked, events,
                          self._self_events)
        guarded = {e.attr for e in events if e.locked} - locks
        for e in events:
            if e.attr in guarded and not e.locked:
                yield ctx.finding(
                    e.line, self.id,
                    f"{cls.name}.{e.method} mutates self.{e.attr} outside "
                    f"the lock, but other code guards it with "
                    f"`with self.<lock>:` — same shape as the "
                    f"_ensure_pool double-create race",
                )

    def _lock_attrs(self, cls: ast.ClassDef, methods) -> set[str]:
        locks: set[str] = set()
        # dataclass-style: `lock: threading.Lock = field(default_factory=...)`
        for stmt in cls.body:
            if isinstance(stmt, ast.AnnAssign) and isinstance(
                stmt.target, ast.Name
            ):
                ann = ast.unparse(stmt.annotation)
                if ann.split(".")[-1] in _LOCK_FACTORIES:
                    locks.add(stmt.target.id)
                elif isinstance(stmt.value, ast.Call):
                    for kw in stmt.value.keywords:
                        if kw.arg == "default_factory" and (
                            _is_lock_factory_ref(kw.value)
                        ):
                            locks.add(stmt.target.id)
        # assignment style: `self._lock = threading.Lock()` anywhere
        for m in methods:
            for node in ast.walk(m):
                if isinstance(node, ast.Assign) and _is_lock_call(node.value):
                    for t in node.targets:
                        attr = self_attr(t)
                        if attr is not None:
                            locks.add(attr)
        return locks

    def _self_events(
        self, stmt: ast.AST, locks: set[str], locked: bool, method: str,
        events: list[_Event],
    ) -> None:
        for t in _mutated_targets(stmt):
            attr = self_attr(t)
            if attr is None and isinstance(t, ast.Subscript):
                attr = self_attr(t.value)
            if attr is not None and attr not in locks:
                events.append(_Event(attr, t.lineno, locked, method))
        if isinstance(stmt, ast.Call) and isinstance(
            stmt.func, ast.Attribute
        ) and stmt.func.attr in MUTATORS:
            attr = self_attr(stmt.func.value)
            if attr is not None and attr not in locks:
                events.append(_Event(attr, stmt.lineno, locked, method))

    # -- module globals -----------------------------------------------
    def _check_module_globals(self, ctx: ModuleContext) -> Iterator[Finding]:
        mod_locks: set[str] = set()
        mod_names: set[str] = set()
        for stmt in ctx.tree.body:
            targets: list[ast.AST] = []
            if isinstance(stmt, ast.Assign):
                targets = list(stmt.targets)
            elif isinstance(stmt, ast.AnnAssign):
                targets = [stmt.target]
            for t in targets:
                if isinstance(t, ast.Name):
                    mod_names.add(t.id)
                    value = getattr(stmt, "value", None)
                    if value is not None and _is_lock_call(value):
                        mod_locks.add(t.id)
        if not mod_locks:
            return
        events: list[_Event] = []
        funcs = [
            n for n in ast.walk(ctx.tree)
            if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))
        ]
        for fn in funcs:
            scope = ctx.function_scope(fn)

            def is_global(name: str) -> bool:
                if name not in mod_names or name in mod_locks:
                    return False
                if scope is None:
                    return True
                try:
                    sym = scope.lookup(name)
                except KeyError:
                    return True
                return sym.is_global() or not sym.is_assigned()

            base_locked = fn.name.endswith("_locked")
            self._collect(
                fn, fn.name, mod_locks, base_locked, events,
                lambda stmt, locks, locked, method, evs: (
                    self._global_events(
                        stmt, locks, locked, method, evs, is_global
                    )
                ),
            )
        guarded = {e.attr for e in events if e.locked}
        for e in events:
            if e.attr in guarded and not e.locked:
                yield ctx.finding(
                    e.line, self.id,
                    f"{e.method}() mutates module global {e.attr} outside "
                    f"the module lock that guards it elsewhere",
                )

    def _global_events(
        self, stmt: ast.AST, locks: set[str], locked: bool, method: str,
        events: list[_Event], is_global,
    ) -> None:
        for t in _mutated_targets(stmt):
            name = None
            if isinstance(t, ast.Name):
                name = t.id
            elif isinstance(t, ast.Subscript) and isinstance(
                t.value, ast.Name
            ):
                name = t.value.id
            if name is not None and is_global(name):
                events.append(_Event(name, t.lineno, locked, method))
        if isinstance(stmt, ast.Call) and isinstance(
            stmt.func, ast.Attribute
        ) and stmt.func.attr in MUTATORS and isinstance(
            stmt.func.value, ast.Name
        ) and is_global(stmt.func.value.id):
            events.append(
                _Event(stmt.func.value.id, stmt.lineno, locked, method)
            )

    # -- shared walker ------------------------------------------------
    def _collect(
        self, fn, method: str, locks: set[str], base_locked: bool,
        events: list[_Event], emit,
    ) -> None:
        """Walk ``fn`` tracking `with <lock>:` containment lexically.

        Does not descend into nested function definitions: a closure
        created under the lock runs later, when the lock is no longer
        held, so inheriting the locked flag would be wrong both ways —
        its body is simply out of scope for lexical inference.
        """

        def lock_in_items(node: ast.With | ast.AsyncWith) -> bool:
            for item in node.items:
                expr = item.context_expr
                attr = self_attr(expr)
                if attr is not None and attr in locks:
                    return True
                if isinstance(expr, ast.Name) and expr.id in locks:
                    return True
            return False

        def visit(node: ast.AST, locked: bool) -> None:
            for child in ast.iter_child_nodes(node):
                if isinstance(
                    child,
                    (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda),
                ):
                    continue
                emit(child, locks, locked, method, events)
                if isinstance(child, (ast.With, ast.AsyncWith)):
                    visit(child, locked or lock_in_items(child))
                else:
                    visit(child, locked)

        visit(fn, base_locked)
