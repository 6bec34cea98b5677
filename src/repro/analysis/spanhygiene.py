"""span-hygiene: tracing spans must be scoped, and kept out of kernels.

The tracing layer (:mod:`repro.obs.trace`) is built around ``with``
blocks: a span that is entered is always exited, on every path,
exception or not, and its parent/child nesting mirrors the call
structure.  The escape hatches (``.start()``/``.end()``) exist only for
the rare lifetime that genuinely cannot be expressed as a block, and
every manual pair is a leak waiting for an early return.  This rule
flags:

* ``.start()`` / ``.end()`` calls on a name bound from ``span(...)``
  or ``measured_span(...)`` — and the chained forms
  ``span(...).start()`` — use ``with span(...)`` instead;
* any span-factory call in a **kernel-domain** module (``kernels/``,
  ``dynamic/``, or a ``# repro: domain=kernel`` marker): kernel inner
  loops are the one place span overhead could actually show, so the
  default is *no spans at all*.  The blessed boundary spans (compile
  on a digest miss, dynamic repair and compaction — once per call, never
  per edge) carry ``# repro: ignore[RULE]`` suppressions whose
  justifications document exactly why they are safe;
* the **piggyback boundary**: a handler that collects spans with
  ``with collecting(ctx) as NAME`` must only attach them to a response
  envelope (``env["spans"] = ...``) under an ``if NAME:``-style guard.
  ``collecting`` yields ``None`` when the inbound envelope carried no
  trace context — shipping unconditionally would either crash on the
  ``None`` or bolt an empty list onto every response, and the guard is
  what keeps the untraced path allocation-free.

Unrelated ``.start()`` calls (timers, threads, processes) are not
flagged: only names the module itself bound from a span factory count.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .core import Finding, ModuleContext, Rule

#: the factory callables of repro.obs.trace, by terminal name — calls
#: like ``span(...)``, ``trace.span(...)`` and ``T.measured_span(...)``
#: all resolve through one of these.
_FACTORIES = frozenset({"span", "measured_span"})

#: the modules that *implement* tracing: their internal ``start``/
#: ``end`` plumbing is the machinery itself, not usage.
_DEFINING = ("obs/trace.py",)


def _factory_call(node: ast.AST) -> str | None:
    """The factory name when ``node`` is a ``span(...)``-shaped call."""
    if not isinstance(node, ast.Call):
        return None
    func = node.func
    if isinstance(func, ast.Name) and func.id in _FACTORIES:
        return func.id
    if isinstance(func, ast.Attribute) and func.attr in _FACTORIES:
        return func.attr
    return None


class SpanHygieneRule(Rule):
    id = "span-hygiene"
    title = "unscoped span lifetimes; spans in kernel-domain modules"

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        if ctx.rel.replace("\\", "/").endswith(_DEFINING):
            return
        kernel = "kernel" in ctx.domains
        span_names: set[str] = set()
        for node in ast.walk(ctx.tree):
            factory = _factory_call(node)
            if factory is not None and kernel:
                yield ctx.finding(
                    node, self.id,
                    f"{factory}() in a kernel-domain module — kernels "
                    f"must stay span-free; a once-per-call boundary span "
                    f"needs a justified span-hygiene suppression",
                )
        # bindings first (two passes): a use may precede its binding in
        # source order (closures, methods defined above __init__)
        for node in ast.walk(ctx.tree):
            if isinstance(node, (ast.Assign, ast.AnnAssign)):
                value = getattr(node, "value", None)
                if _factory_call(value) is None:
                    continue
                targets = (
                    node.targets
                    if isinstance(node, ast.Assign)
                    else [node.target]
                )
                for target in targets:
                    if isinstance(target, ast.Name):
                        span_names.add(target.id)
        for node in ast.walk(ctx.tree):
            if not (
                isinstance(node, ast.Call)
                and isinstance(node.func, ast.Attribute)
                and node.func.attr in ("start", "end")
            ):
                continue
            owner = node.func.value
            manual = (
                isinstance(owner, ast.Name) and owner.id in span_names
            ) or _factory_call(owner) is not None
            if manual:
                yield ctx.finding(
                    node, self.id,
                    f"manual span .{node.func.attr}() — an early return "
                    f"or exception leaks the span; use `with span(...)` "
                    f"so exit is guaranteed on every path",
                )
        yield from self._check_piggyback(ctx)

    def _check_piggyback(self, ctx: ModuleContext) -> Iterable[Finding]:
        """Flag ``env["spans"] = ...`` that references a ``collecting``
        capture without a truthiness guard on that capture."""
        collected: set[str] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, (ast.With, ast.AsyncWith)):
                continue
            for item in node.items:
                call = item.context_expr
                if not isinstance(call, ast.Call):
                    continue
                func = call.func
                name = (
                    func.id
                    if isinstance(func, ast.Name)
                    else func.attr
                    if isinstance(func, ast.Attribute)
                    else None
                )
                if name == "collecting" and isinstance(
                    item.optional_vars, ast.Name
                ):
                    collected.add(item.optional_vars.id)
        if not collected:
            return
        # every node inside the body of an `if` whose test mentions a
        # collected name counts as guarded
        guarded: set[int] = set()
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.If):
                continue
            test_names = {
                n.id
                for n in ast.walk(node.test)
                if isinstance(n, ast.Name)
            }
            if not (test_names & collected):
                continue
            for stmt in node.body:
                for sub in ast.walk(stmt):
                    guarded.add(id(sub))
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Assign):
                continue
            ships = any(
                isinstance(target, ast.Subscript)
                and isinstance(target.slice, ast.Constant)
                and target.slice.value == "spans"
                for target in node.targets
            )
            if not ships:
                continue
            value_names = {
                n.id
                for n in ast.walk(node.value)
                if isinstance(n, ast.Name)
            }
            if value_names & collected and id(node) not in guarded:
                yield ctx.finding(
                    node, self.id,
                    "spans piggybacked without an inbound-context guard "
                    "— `collecting()` yields None for untraced "
                    "envelopes; wrap the attach in `if <collected>:` so "
                    "the disabled path stays allocation-free",
                )
