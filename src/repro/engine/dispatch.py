"""Hypergraph-level solve dispatch, driven by the solver registry.

Both the user-facing :func:`repro.sched.solve` and the batch engine's
worker processes evaluate requests through
:func:`solve_hypergraph_outcome`, so sequential and pooled solving agree
bit-for-bit.  A request is a :class:`~repro.api.SolveOptions`; its
``method`` parses into a :class:`~repro.api.MethodExpr` tree
(``Solver``/``Refine``/``Portfolio``/``Auto``) and evaluation walks that
tree against the capability-aware registry:

* ``method="auto"`` — the registry's recommended solver for the
  instance trait: SINGLEPROC-UNIT instances get the exact polynomial
  algorithm, everything else the strongest heuristic the paper
  recommends for its weight class (EVG weighted, VGH unit,
  expected-greedy bipartite);
* any registered name or alias (``"SGH"``, ``"EVG"``,
  ``"sorted-greedy"``, ...) forces that solver; bipartite solvers are
  lifted and guarded against MULTIPROC instances;
* ``"X+ls"`` (``Refine(X)``) post-processes ``X`` with local search;
* ``"portfolio(SGH,grasp)"`` (``Portfolio(...)``) races the entries and
  keeps the best makespan; bare ``"portfolio"`` races the generated
  default line-up.

``known_methods()`` and the default portfolio line-up are generated
from the registry — registering a solver makes it instantly available
here, in portfolio mode, in sweeps and in the CLI.
"""

from __future__ import annotations

import time
from typing import Any

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
    options: SolveOptions | None = None,
    **fields: Any,
) -> HyperSemiMatching:
    """Solve one hypergraph instance and return the bare matching.

    Pass a prepared :class:`~repro.api.SolveOptions` via ``options=`` or
    its fields as keywords (``method=``, ``seed=``, ``time_budget=``,
    ``backend=``), not both.
    """
    options = SolveOptions.merge(options, fields)
    return solve_hypergraph_outcome(hg, options).matching
