"""A 2-approximation for weighted SINGLEPROC (extension).

The paper's conclusion calls for "algorithms with guarantees"; for the
bipartite (SINGLEPROC) case the classical answer is the restricted-
assignment specialisation of Lenstra, Shmoys and Tardos' rounding (the
paper cites the same lineage: Graham et al.'s 2-approximation, improved to
``2 - 1/p`` by Shchepin and Vakhania).  This module implements the
LP-rounding scheme:

1. binary-search the target makespan ``T`` over the distinct candidate
   values; for each ``T`` solve the feasibility LP over edges with
   ``w(e) <= T``::

       sum_{u} x_iu = 1            for every task i
       sum_{i} w_iu x_iu <= T      for every processor u
       x >= 0

2. at the smallest feasible ``T*`` (which lower-bounds the optimum), take
   a *vertex* solution: integrally-assigned tasks keep their processor;
   the support of the fractional tasks is a pseudo-forest, so the
   fractional tasks admit a perfect matching into distinct processors
   (found here with the library's own Kuhn engine);

3. matched tasks add at most one extra job of weight ``<= T*`` per
   processor, so the result is at most ``2 T* <= 2 OPT``.

The returned report records ``T*`` so callers can verify the certificate
``makespan <= 2 T*`` (the tests do).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.bipartite import BipartiteGraph
from ..core.errors import InfeasibleError, SolverError
from ..core.semimatching import SemiMatching
from ..matching import kuhn_matching

__all__ = ["lst_approximation", "LSTReport"]


@dataclass(frozen=True)
class LSTReport:
    """Result of the LP-rounding 2-approximation.

    ``threshold`` is the smallest LP-feasible target ``T*`` — a valid
    lower bound on the optimal makespan, so
    ``matching.makespan <= 2 * threshold`` certifies the factor.
    """

    matching: SemiMatching
    threshold: float
    lp_rounds: int

    @property
    def certified_ratio(self) -> float:
        """``makespan / threshold`` — guaranteed ``<= 2`` up to rounding."""
        return self.matching.makespan / self.threshold


def _lp_feasible(graph: BipartiteGraph, t: float):
    """Solve the feasibility LP for target ``t``; return the edge values
    (aligned with CSR edges; ineligible edges forced to 0) or ``None``."""
    from scipy.optimize import linprog
    from scipy.sparse import coo_matrix, hstack

    n, p, m = graph.n_tasks, graph.n_procs, graph.n_edges
    eligible = graph.weights <= t + 1e-12
    if not np.all(
        np.diff(graph.task_ptr)
        > 0  # defensive; validated upstream
    ):
        return None
    # every task needs at least one eligible edge
    owner = np.repeat(np.arange(n, dtype=np.int64), np.diff(graph.task_ptr))
    has_opt = np.zeros(n, dtype=bool)
    has_opt[owner[eligible]] = True
    if not np.all(has_opt):
        return None

    idx = np.flatnonzero(eligible)
    k = idx.size
    a_eq = coo_matrix(
        (np.ones(k), (owner[idx], np.arange(k))), shape=(n, k)
    ).tocsr()
    a_ub = coo_matrix(
        (graph.weights[idx], (graph.task_adj[idx], np.arange(k))),
        shape=(p, k),
    ).tocsr()
    res = linprog(
        np.zeros(k),
        A_eq=a_eq,
        b_eq=np.ones(n),
        A_ub=a_ub,
        b_ub=np.full(p, t),
        bounds=[(0, 1)] * k,
        method="highs",
    )
    if not res.success:
        return None
    x = np.zeros(m)
    x[idx] = res.x
    return x


def lst_approximation(
    graph: BipartiteGraph, *, tol: float = 1e-9
) -> LSTReport:
    """2-approximate minimum-makespan semi-matching for weighted graphs.

    Works on unit graphs too (where the exact algorithm is preferable).
    Raises :class:`InfeasibleError` when some task has no edge.
    """
    graph.validate(require_total=True)
    if graph.n_tasks == 0:
        return LSTReport(
            SemiMatching(graph, np.empty(0, dtype=np.int64)), 0.0, 0
        )

    # Candidate thresholds: the optimum is one of these loads' partial
    # sums; binary searching the sorted distinct edge weights times a
    # per-processor multiplicity grid is overkill — searching the LP over
    # the continuous range with the classic trick (candidates = distinct
    # load values at LP feasibility breakpoints) is approximated by a
    # numeric bisection between the trivial brackets, then tightened to
    # the largest relevant edge weight below T*.
    cheapest = np.array(
        [graph.task_edge_weights(i).min() for i in range(graph.n_tasks)]
    )
    lo = max(float(cheapest.max()), float(cheapest.sum()) / graph.n_procs)
    hi = float(graph.weights.sum())
    rounds = 0

    x_best = _lp_feasible(graph, hi)
    if x_best is None:  # pragma: no cover - hi is always feasible
        raise InfeasibleError("feasibility LP failed at the trivial bound")
    t_best = hi
    # numeric bisection to relative precision
    while hi - lo > max(tol, 1e-6 * max(1.0, lo)):
        mid = 0.5 * (lo + hi)
        rounds += 1
        x = _lp_feasible(graph, mid)
        if x is None:
            lo = mid
        else:
            hi = mid
            x_best, t_best = x, mid

    edge_of_task = _round_vertex_solution(graph, x_best)
    matching = SemiMatching(graph, edge_of_task)
    return LSTReport(matching=matching, threshold=t_best, lp_rounds=rounds)


def _round_vertex_solution(
    graph: BipartiteGraph, x: np.ndarray
) -> np.ndarray:
    """LST rounding: keep integral tasks, match fractional ones."""
    n = graph.n_tasks
    edge_of_task = np.full(n, -1, dtype=np.int64)
    frac_tasks: list[int] = []
    for i in range(n):
        lo_e, hi_e = int(graph.task_ptr[i]), int(graph.task_ptr[i + 1])
        vals = x[lo_e:hi_e]
        k = int(np.argmax(vals))
        if vals[k] >= 1.0 - 1e-6:
            edge_of_task[i] = lo_e + k
        else:
            frac_tasks.append(i)

    if frac_tasks:
        # Perfect-matching the fractional tasks into their support.
        support_nbrs: list[np.ndarray] = []
        support_edges: list[np.ndarray] = []
        for i in frac_tasks:
            lo_e, hi_e = int(graph.task_ptr[i]), int(graph.task_ptr[i + 1])
            mask = x[lo_e:hi_e] > 1e-9
            support_nbrs.append(graph.task_adj[lo_e:hi_e][mask])
            support_edges.append(np.arange(lo_e, hi_e)[mask])
        deg = np.array([len(s) for s in support_nbrs])
        ptr = np.zeros(len(frac_tasks) + 1, dtype=np.int64)
        np.cumsum(deg, out=ptr[1:])
        adj = (
            np.concatenate(support_nbrs)
            if support_nbrs
            else np.empty(0, dtype=np.int64)
        )
        res = kuhn_matching(len(frac_tasks), graph.n_procs, ptr, adj)
        if not res.is_left_perfect():  # pragma: no cover - theory says no
            raise SolverError(
                "LP support did not admit a perfect matching of the "
                "fractional tasks; the LP solution was not a vertex"
            )
        for j, i in enumerate(frac_tasks):
            u = int(res.match_of_left[j])
            local = np.flatnonzero(support_nbrs[j] == u)[0]
            edge_of_task[i] = int(support_edges[j][local])

    return edge_of_task
