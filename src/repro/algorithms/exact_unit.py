"""Exact polynomial-time algorithm for SINGLEPROC-UNIT (paper Section IV-A).

The paper's conceptually simple exact scheme: a makespan of ``D`` is
feasible iff the bipartite graph ``G_D`` — ``D`` copies of every processor,
same neighbourhoods — has a matching covering all tasks.  Equivalently
(and how we implement it): a *capacitated* matching with per-processor
capacity ``D`` covers all tasks.

Two search strategies over ``D``:

* ``"linear"`` — the paper's main loop: try ``D = 1, 2, 3, ...`` until
  feasible; total cost ``O(sqrt(|V1|) |E| M_opt^2)`` as analysed in the
  paper;
* ``"bisection"`` — the improvement the paper notes in passing: bracket
  with the sorted-greedy upper bound and binary search, for a
  ``log(M_opt)`` number of matching runs.

The matching black box is :func:`repro.matching.kuhn_matching`, which
takes the per-processor capacity ``D`` natively instead of materialising
``D`` copies of every processor.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.bipartite import BipartiteGraph
from ..core.errors import InfeasibleError, SolverError
from ..core.semimatching import SemiMatching
from ..matching import kuhn_matching
from .greedy_bipartite import sorted_greedy

__all__ = ["exact_singleproc_unit", "ExactUnitReport", "feasible_makespan"]


@dataclass(frozen=True)
class ExactUnitReport:
    """Result of the exact algorithm plus search diagnostics.

    Attributes
    ----------
    matching:
        An optimal semi-matching (makespan equals ``optimal_makespan``).
    optimal_makespan:
        The minimum achievable makespan ``M_opt``.
    probes:
        The sequence of ``(D, feasible)`` probes the search performed —
        exposed so tests and benchmarks can count matching invocations.
    """

    matching: SemiMatching
    optimal_makespan: int
    probes: tuple[tuple[int, bool], ...]


def feasible_makespan(graph: BipartiteGraph, deadline: int):
    """Decide whether makespan ``<= deadline`` is feasible for a unit graph.

    Returns the maximum capacity-``deadline`` matching as a
    :class:`~repro.matching.MatchingResult`; the deadline is feasible iff
    the matching is left-perfect.
    """
    if deadline < 1:
        raise ValueError("deadline must be at least 1")
    return kuhn_matching(
        graph.n_tasks,
        graph.n_procs,
        graph.task_ptr,
        graph.task_adj,
        cap=deadline,
    )


def exact_singleproc_unit(
    graph: BipartiteGraph,
    *,
    strategy: str = "bisection",
) -> ExactUnitReport:
    """Minimum-makespan semi-matching for a unit-weight bipartite graph.

    Raises :class:`SolverError` on weighted graphs (the weighted problem
    is NP-complete; use the heuristics or the exhaustive solver) and
    :class:`InfeasibleError` when some task has no eligible processor.
    """
    if not graph.is_unit:
        raise SolverError(
            "the exact algorithm only applies to SINGLEPROC-UNIT; "
            "got a weighted graph"
        )
    if graph.n_tasks == 0:
        empty = SemiMatching(graph, np.empty(0, dtype=np.int64))
        return ExactUnitReport(empty, 0, ())
    graph.validate(require_total=True)
    if strategy not in ("linear", "bisection"):
        raise ValueError(
            f"strategy must be 'linear' or 'bisection', got {strategy!r}"
        )

    probes: list[tuple[int, bool]] = []

    def probe(d: int):
        # capacity short-circuit: d*p slots cannot host n tasks.  This
        # keeps the paper's linear scan from paying for matching runs that
        # are infeasible by counting alone.
        if d * graph.n_procs < graph.n_tasks:
            probes.append((d, False))
            return None
        res = feasible_makespan(graph, d)
        ok = res.is_left_perfect()
        probes.append((d, ok))
        return res if ok else None

    if strategy == "linear":
        d = 1
        while True:
            res = probe(d)
            if res is not None:
                break
            d += 1
    else:
        # Lower bracket: every task needs one unit somewhere, so
        # ceil(n / p) is always a valid lower bound; sorted-greedy gives a
        # feasible upper bracket.
        ub = int(round(sorted_greedy(graph).makespan))
        lo = max(1, -(-graph.n_tasks // graph.n_procs))
        hi = max(lo, ub)
        res_hi = None
        while lo < hi:
            mid = (lo + hi) // 2
            r = probe(mid)
            if r is not None:
                hi = mid
                res_hi = r
            else:
                lo = mid + 1
        d = hi
        res = res_hi if res_hi is not None else probe(d)
        if res is None:  # pragma: no cover - greedy UB is always feasible
            raise InfeasibleError("no feasible makespan found below bracket")

    matching = SemiMatching.from_proc_assignment(graph, res.match_of_left)
    return ExactUnitReport(
        matching=matching, optimal_makespan=int(d), probes=tuple(probes)
    )
