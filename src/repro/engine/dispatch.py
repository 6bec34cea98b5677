"""Hypergraph-level solve dispatch, driven by the solver registry.

Both the user-facing :func:`repro.sched.solve` and the batch engine's
worker processes call :func:`solve_hypergraph`, so sequential and pooled
solving are guaranteed to agree bit-for-bit.  Since the unified API
landed, this module is a thin execution shim: method strings parse into
:class:`~repro.api.MethodExpr` trees (``Solver``/``Refine``/
``Portfolio``/``Auto``), options normalize into a canonical
:class:`~repro.api.SolveOptions`, and evaluation walks the expression
against the capability-aware registry — the old if/elif chains are gone.

Dispatch semantics (unchanged, now registry queries):

* ``method="auto"`` — the registry's recommended solver for the
  instance trait: SINGLEPROC-UNIT instances get the exact polynomial
  algorithm, everything else the strongest heuristic the paper
  recommends for its weight class (EVG weighted, VGH unit,
  expected-greedy bipartite);
* any registered name or alias (``"SGH"``, ``"EVG"``,
  ``"sorted-greedy"``, ...) forces that solver; bipartite solvers are
  lifted and guarded against MULTIPROC instances;
* composable strings work everywhere: ``"EVG+ls"``,
  ``"portfolio(SGH,grasp)"``;
* ``method="portfolio"`` races the generated default line-up and keeps
  the best makespan (see :func:`solve_portfolio`).

``known_methods()`` and the default portfolio line-up are generated
from the registry — registering a solver makes it instantly available
here, in portfolio mode, in sweeps and in the CLI.
"""

from __future__ import annotations

import time
from typing import Sequence

from ..api.methods import EvalContext, Outcome, evaluate
from ..api.options import SolveOptions
from ..api.registry import get_registry
from ..core.hypergraph import TaskHypergraph
from ..core.semimatching import HyperSemiMatching
from ..obs.trace import span

__all__ = [
    "known_methods",
    "solve_hypergraph",
    "solve_hypergraph_outcome",
    "solve_portfolio",
]


def known_methods() -> list[str]:
    """Every name :func:`solve_hypergraph` accepts (registry-generated)."""
    return get_registry().known_methods()


def _context(options: SolveOptions) -> EvalContext:
    deadline = (
        time.perf_counter() + options.time_budget
        if options.time_budget is not None
        else None
    )
    return EvalContext(
        registry=get_registry(),
        seed=options.seed,
        deadline=deadline,
        backend=options.backend,
    )


def solve_hypergraph_outcome(
    hg: TaskHypergraph, options: SolveOptions
) -> Outcome:
    """Evaluate normalized ``options`` on ``hg``, with provenance.

    The engine's unit of work: returns the matching plus the winning
    solver and per-entry portfolio statistics.  Accepts a
    :class:`~repro.dynamic.DynamicInstance` in place of a hypergraph
    (duck-typed to avoid an import cycle): its compiled snapshot of the
    current version is the instance solved.
    """
    if not isinstance(hg, TaskHypergraph) and hasattr(hg, "to_hypergraph"):
        hg = hg.to_hypergraph()
    options = options.normalized()
    with span("engine.dispatch") as sp:
        outcome = evaluate(hg, options.method, _context(options))
        if sp.recording:
            sp.set(method=str(options.method), winner=outcome.winner)
    return outcome


def solve_hypergraph(
    hg: TaskHypergraph,
    *,
    method: str = "auto",
    refine: bool = False,
    portfolio: Sequence[str] | None = None,
    seed: int = 0,
    backend: str = "numpy",
) -> HyperSemiMatching:
    """Solve one hypergraph instance and return the bare matching.

    ``refine=True`` post-processes heuristic solutions with
    :func:`repro.algorithms.local_search` (never worsens the makespan).
    ``seed`` only affects the randomised methods (``"grasp"`` and any
    portfolio entry using it); every other method is deterministic.
    ``backend`` selects the kernel execution path for backend-aware
    solvers ("numpy" kernels vs the "python" oracle — bit-identical).
    """
    options = SolveOptions(
        method=method,
        refine=refine,
        portfolio=tuple(portfolio) if portfolio is not None else None,
        seed=seed,
        backend=backend,
    )
    return solve_hypergraph_outcome(hg, options).matching


def solve_portfolio(
    hg: TaskHypergraph,
    *,
    algorithms: Sequence[str] | None = None,
    refine: bool = False,
    seed: int = 0,
    backend: str = "numpy",
) -> HyperSemiMatching:
    """Race ``algorithms`` on one instance and keep the best makespan.

    ``algorithms`` defaults to the registry-generated line-up,
    ``get_registry().default_portfolio()``.  By construction the result is never
    worse than any single constituent algorithm; ties keep the earliest
    entry, so the outcome is deterministic for a fixed line-up and seed.
    """
    lineup = (
        tuple(algorithms)
        if algorithms is not None
        else get_registry().default_portfolio()
    )
    options = SolveOptions(
        portfolio=lineup, refine=refine, seed=seed, backend=backend
    )
    return solve_hypergraph_outcome(hg, options).matching
