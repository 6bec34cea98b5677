"""repro.api — the unified, capability-aware solver API.

One declarative :class:`SolverRegistry` replaces the old pair of
name→callable dicts and the if/elif dispatch chains: every algorithm
self-registers with :func:`register_solver`, declaring its domain,
capabilities and auto-selection traits, and ``known_methods()`` and
the default portfolio are *generated* from that metadata.

Requests are typed: a frozen :class:`SolveOptions` (method expression,
seed, time budget, backend) normalizes to one canonical
:class:`MethodExpr`, which also feeds the engine's cache key.  Results
are rich: :class:`SolveResult` wraps the matching with provenance —
winning solver, wall time, lower bound and optimality gap, cache-hit
flag, per-entry portfolio statistics.

Quick start
-----------
>>> from repro.api import solve, SolveOptions, Portfolio, Refine
>>> result = solve(problem, method="EVG+ls")          # doctest: +SKIP
>>> result = solve(problem, options=SolveOptions(     # doctest: +SKIP
...     method=Portfolio("SGH", Refine("EVG")), seed=7))
>>> result.makespan, result.winner, result.gap        # doctest: +SKIP

``solve`` routes through the shared default engine, so single calls hit
the same content-addressed result cache as batch runs and sweeps.
"""

from __future__ import annotations

from typing import Any

from . import solvers as _builtin_solvers  # noqa: F401  (registers)
from .errors import CapabilityError, UnknownSolverError
from .methods import (
    AUTO,
    Auto,
    EntryStat,
    MethodExpr,
    Portfolio,
    Refine,
    Solver,
    parse_method,
)
from .options import SolveOptions
from .registry import (
    SolverRegistry,
    SolverSpec,
    get_registry,
    register_solver,
)
from .result import SolveResult

__all__ = [
    "solve",
    "SolveOptions",
    "SolveResult",
    "SolverRegistry",
    "SolverSpec",
    "register_solver",
    "get_registry",
    "known_methods",
    "registry_table",
    "MethodExpr",
    "Solver",
    "Refine",
    "Portfolio",
    "Auto",
    "AUTO",
    "parse_method",
    "EntryStat",
    "UnknownSolverError",
    "CapabilityError",
]


def solve(
    instance: Any, *, options: SolveOptions | None = None, **fields: Any
) -> SolveResult:
    """Solve one instance through the default engine.

    ``instance`` is a :class:`~repro.sched.model.SchedulingProblem` or a
    :class:`~repro.core.hypergraph.TaskHypergraph`.  Pass a prepared
    :class:`SolveOptions` via ``options=`` or its fields as keyword
    arguments (``method=``, ``seed=``, ``time_budget=``, ``backend=``),
    not both.  Returns a :class:`SolveResult`.
    """
    from ..engine.batch import default_engine

    return default_engine().solve(instance, options=options, **fields)


def known_methods() -> list[str]:
    """Every method name ``solve`` accepts (generated from the
    registry, plus the ``auto``/``portfolio`` pseudo-methods)."""
    return get_registry().known_methods()


def registry_table() -> str:
    """Markdown table of every registered solver (used by API.md and
    the ``semimatch solvers`` CLI command)."""
    return get_registry().table_markdown()
