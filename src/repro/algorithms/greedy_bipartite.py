"""Greedy semi-matching heuristics for bipartite graphs (paper Section IV-B).

Four heuristics, in increasing order of sophistication:

* :func:`basic_greedy` (Algorithm 1) — visit tasks in index order, assign
  each to the eligible processor of least resulting load ``l(u) + w``;
* :func:`sorted_greedy` — same, visiting tasks by non-decreasing degree
  (tasks with fewer choices commit first);
* :func:`double_sorted` (Algorithm 2) — sorted visiting plus a
  processor-in-degree tie-break;
* :func:`expected_greedy` (Algorithm 3) — sorted visiting on *expected*
  loads ``o(u)``: each unassigned task spreads its weight uniformly over
  its options, and committing a task collapses that distribution.

The paper analyses the unit-weight case; all four extend verbatim to
weighted edges (each edge contributes its own weight), which this module
implements so the same code serves SINGLEPROC as well.

All heuristics run in ``O(|E|)`` time (plus the initial ``O(n log n)``
sort) and return a :class:`repro.core.SemiMatching`.
"""

from __future__ import annotations

import numpy as np

from ..core.bipartite import BipartiteGraph
from ..core.errors import InfeasibleError
from ..core.semimatching import SemiMatching
from .._util import stable_argsort

__all__ = [
    "basic_greedy",
    "sorted_greedy",
    "double_sorted",
    "expected_greedy",
    "greedy_assign",
]


def _check_feasible(graph: BipartiteGraph) -> None:
    if np.any(np.diff(graph.task_ptr) == 0):
        bad = int(np.flatnonzero(np.diff(graph.task_ptr) == 0)[0])
        raise InfeasibleError(f"task {bad} has no eligible processor")


def _visit_order(graph: BipartiteGraph, sort_by_degree: bool) -> np.ndarray:
    if sort_by_degree:
        return stable_argsort(graph.task_degrees())
    return np.arange(graph.n_tasks, dtype=np.int64)


def greedy_assign(
    graph: BipartiteGraph,
    order: np.ndarray,
    *,
    lookahead: bool = True,
    proc_degree_tiebreak: bool = False,
) -> SemiMatching:
    """Shared greedy core: assign tasks in ``order`` to min-key edges.

    The key of edge ``e = (v, u)`` is the load ``l(u)`` (pseudocode-literal,
    ``lookahead=False``) or the resulting load ``l(u) + w(e)``
    (``lookahead=True``; identical selections on unit weights).  With
    ``proc_degree_tiebreak`` ties are broken towards processors of smaller
    in-degree, the double-sorted rule; following Algorithm 2's ``<=``
    comparison the *last* edge wins among full ties, whereas the plain rule
    keeps the first.
    """
    _check_feasible(graph)
    loads = np.zeros(graph.n_procs, dtype=np.float64)
    edge_of_task = np.empty(graph.n_tasks, dtype=np.int64)
    pdeg = graph.proc_degrees().astype(np.float64)
    ptr, adj, w = graph.task_ptr, graph.task_adj, graph.weights

    for v in order:
        lo, hi = int(ptr[v]), int(ptr[v + 1])
        nbrs = adj[lo:hi]
        keys = loads[nbrs] + (w[lo:hi] if lookahead else 0.0)
        if proc_degree_tiebreak:
            # primary: key; secondary: processor in-degree; ties: last wins
            # (mirrors Algorithm 2's `<=` update condition).
            rev = np.arange(hi - lo, 0, -1, dtype=np.float64)
            k = int(np.lexsort((rev, pdeg[nbrs], keys))[0])
        else:
            k = int(np.argmin(keys))
        e = lo + k
        edge_of_task[v] = e
        loads[adj[e]] += w[e]

    return SemiMatching(graph, edge_of_task)


def basic_greedy(
    graph: BipartiteGraph, *, lookahead: bool = True
) -> SemiMatching:
    """Algorithm 1: tasks in index order, least resulting load ``l(u) + w``.

    ``O(|E|)``.  No approximation guarantee — Fig. 3's family drives it a
    factor ``k`` from optimal for any ``k``.
    """
    return greedy_assign(
        graph, _visit_order(graph, sort_by_degree=False), lookahead=lookahead
    )


def sorted_greedy(
    graph: BipartiteGraph, *, lookahead: bool = True
) -> SemiMatching:
    """Sorted-greedy: tasks by non-decreasing degree, then as basic-greedy.

    Scheduling constrained tasks first fixes the Fig. 1 toy failure of
    basic-greedy; Fig. 3 still defeats it.
    """
    return greedy_assign(
        graph, _visit_order(graph, sort_by_degree=True), lookahead=lookahead
    )


def double_sorted(
    graph: BipartiteGraph, *, lookahead: bool = True
) -> SemiMatching:
    """Algorithm 2: sorted-greedy plus processor-in-degree tie-breaking."""
    return greedy_assign(
        graph,
        _visit_order(graph, sort_by_degree=True),
        lookahead=lookahead,
        proc_degree_tiebreak=True,
    )


def expected_greedy(
    graph: BipartiteGraph,
    *,
    sort_by_degree: bool = True,
) -> SemiMatching:
    """Algorithm 3: greedy on expected loads ``o(u)``.

    ``o(u)`` starts as the expected load of ``u`` if every task chose one
    of its options uniformly at random (edge ``(v, u)`` contributes
    ``w(v,u)/d_v``).  Assigning ``v`` to ``u`` collapses the distribution:
    ``u`` receives the full weight, ``v``'s other options lose their
    share.  On termination ``o`` equals the actual loads, so the running
    maximum of ``o`` is the makespan.  ``O(|E|)``.
    """
    _check_feasible(graph)
    ptr, adj, w = graph.task_ptr, graph.task_adj, graph.weights
    deg = graph.task_degrees().astype(np.float64)

    o = np.zeros(graph.n_procs, dtype=np.float64)
    contrib = w / np.repeat(deg, np.diff(ptr))  # w(e)/d_v per edge
    np.add.at(o, adj, contrib)

    edge_of_task = np.empty(graph.n_tasks, dtype=np.int64)
    for v in _visit_order(graph, sort_by_degree):
        lo, hi = int(ptr[v]), int(ptr[v + 1])
        nbrs = adj[lo:hi]
        k = int(np.argmin(o[nbrs]))
        e = lo + k
        edge_of_task[v] = e
        # collapse: chosen edge realises its full weight, siblings vanish
        o[nbrs] -= contrib[lo:hi]
        o[adj[e]] += w[e]

    return SemiMatching(graph, edge_of_task)
