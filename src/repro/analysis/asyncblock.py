"""async-blocking: the event loop must never run blocking work.

The service layer is a single asyncio loop multiplexing every client;
one synchronous engine solve or socket read inside an ``async def``
stalls *all* connections (the micro-batcher's throughput claims in
``benchmarks/bench_service_throughput.py`` assume the loop only ever
schedules).  The repo's idiom is
``await loop.run_in_executor(None, partial(fn, ...))`` — passing the
*function object* — which this rule naturally exempts because no call
node appears inside the async body.

Flagged inside ``async def`` bodies in ``service``-domain modules:

* known blocking calls: ``time.sleep``, blocking socket methods,
  ``subprocess.*``, ``open``/``os.system``/``urlopen``;
* engine solves: any ``<...engine...>.solve*()`` call — the batch
  engine is synchronous by design, services must route it through the
  executor (the micro-batcher) instead;
* CPU-bound wire parsing (``hypergraph_from_wire`` & friends, and
  ``decode_frame``/``decode_header``): deserializing a multi-MB
  instance builds numpy arrays, and ``json.loads`` of a multi-MB JSON
  header alone takes tens of milliseconds — just as loop-hostile as a
  sleep;
* calls to *same-module sync helpers* that themselves do any of the
  above (one transitive hop) — the helper indirection is exactly how
  the pre-fix ``server._op_solve`` hid its on-loop parse behind
  ``self._parse_instance``.
"""

from __future__ import annotations

import ast
from typing import Iterable, Iterator

from .core import Finding, ModuleContext, Rule, dotted_name

#: fully-dotted call names that block (suffix-matched on the chain)
BLOCKING_CALLS = frozenset({
    "time.sleep",
    "socket.create_connection",
    "socket.getaddrinfo",
    "subprocess.run",
    "subprocess.call",
    "subprocess.check_call",
    "subprocess.check_output",
    "subprocess.Popen",
    "os.system",
    "os.popen",
    "urllib.request.urlopen",
})

#: method names that block on a socket/file regardless of receiver
BLOCKING_ATTRS = frozenset({
    "recv", "recv_into", "recvfrom", "accept", "sendall", "makefile",
})

#: bare names that block
BLOCKING_NAMES = frozenset({"open", "input"})

#: repo-specific CPU-bound functions — building a wire instance or a
#: kernel compilation is pure numpy churn and must run on the executor
CPU_BOUND = frozenset({
    "decode_frame",
    "decode_header",
    "hypergraph_from_wire",
    "dynamic_from_wire",
    "compile_instance",
})

#: receiver-chain substrings that identify the batch engine
_ENGINE_HINTS = ("engine", "solver")


def _blocking_reason(call: ast.Call) -> str | None:
    """Why this call blocks the loop, or ``None`` if it doesn't."""
    name = dotted_name(call.func)
    if name is not None:
        if name in BLOCKING_NAMES:
            return f"blocking builtin {name}()"
        tail2 = ".".join(name.split(".")[-2:])
        if tail2 in BLOCKING_CALLS or name in BLOCKING_CALLS:
            return f"blocking call {tail2}()"
        leaf = name.split(".")[-1]
        if leaf in CPU_BOUND:
            return f"CPU-bound wire/compile call {leaf}()"
    if isinstance(call.func, ast.Attribute):
        attr = call.func.attr
        if attr in BLOCKING_ATTRS:
            return f"blocking socket/file method .{attr}()"
        base = dotted_name(call.func.value) or ""
        if attr.startswith("solve") and any(
            h in base.lower() for h in _ENGINE_HINTS
        ):
            return f"synchronous engine solve {base}.{attr}()"
    return None


def _sync_defs(tree: ast.Module) -> dict[tuple[str, str], ast.FunctionDef]:
    """Sync defs keyed by ``(scope, name)``.

    ``scope`` is the enclosing class name for methods and ``""`` for
    module-level functions, so the blocking ``ServiceClient.call`` never
    taints the same-named coroutine ``AsyncServiceClient.call``.
    """
    defs: dict[tuple[str, str], ast.FunctionDef] = {}
    for stmt in tree.body:
        if isinstance(stmt, ast.FunctionDef):
            defs.setdefault(("", stmt.name), stmt)
        elif isinstance(stmt, ast.ClassDef):
            for sub in stmt.body:
                if isinstance(sub, ast.FunctionDef):
                    defs.setdefault((stmt.name, sub.name), sub)
    return defs


def _own_calls(fn: ast.AST) -> Iterator[ast.Call]:
    """Call nodes lexically inside ``fn``, not in nested defs."""
    stack = list(ast.iter_child_nodes(fn))
    while stack:
        node = stack.pop()
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            continue
        if isinstance(node, ast.Call):
            yield node
        stack.extend(ast.iter_child_nodes(node))


class AsyncBlockingRule(Rule):
    id = "async-blocking"
    title = "blocking calls inside async def bodies"
    domains = frozenset({"service"})

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        # pass 1: sync helpers that block (one transitive hop)
        tainted: dict[tuple[str, str], str] = {}
        for key, fn in _sync_defs(ctx.tree).items():
            for call in _own_calls(fn):
                reason = _blocking_reason(call)
                if reason is not None:
                    tainted[key] = reason
                    break

        findings: list[Finding] = []
        # async defs with the class that lexically encloses them
        async_defs: list[tuple[str, ast.AsyncFunctionDef]] = []
        for stmt in ctx.tree.body:
            if isinstance(stmt, ast.AsyncFunctionDef):
                async_defs.append(("", stmt))
            elif isinstance(stmt, ast.ClassDef):
                async_defs.extend(
                    (stmt.name, sub) for sub in ast.walk(stmt)
                    if isinstance(sub, ast.AsyncFunctionDef)
                )
        for cls_name, node in async_defs:
            for call in _own_calls(node):
                reason = _blocking_reason(call)
                if reason is not None:
                    findings.append(ctx.finding(
                        call, self.id,
                        f"async {node.name}() performs {reason} on the "
                        f"event loop — route it through "
                        f"run_in_executor(None, partial(...))",
                    ))
                    continue
                callee = self._local_callee(call, cls_name)
                if callee is not None and callee in tainted:
                    findings.append(ctx.finding(
                        call, self.id,
                        f"async {node.name}() calls {callee[1]}(), a sync "
                        f"helper that performs {tainted[callee]} — run it "
                        f"on the executor instead",
                    ))
        return findings

    @staticmethod
    def _local_callee(call: ast.Call, cls_name: str) -> tuple[str, str] | None:
        """``(scope, name)`` of a same-module helper being called."""
        if isinstance(call.func, ast.Name):
            return ("", call.func.id)
        if (
            isinstance(call.func, ast.Attribute)
            and isinstance(call.func.value, ast.Name)
            and call.func.value.id in ("self", "cls")
            and cls_name
        ):
            return (cls_name, call.func.attr)
        return None
