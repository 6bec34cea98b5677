"""Infeasibility certificates for the exact algorithm (extension).

When the paper's exact SINGLEPROC-UNIT algorithm finds that deadline ``D``
is infeasible, it simply increments ``D``.  This module makes the
infeasibility *checkable*: by the deficiency version of Hall's theorem, a
capacity-``D`` matching misses some task iff there is a task set ``A``
whose neighbourhood is too small, ``|A| > D * |N(A)|``.  The standard
constructive witness: from any unmatched task, the set of tasks reachable
by alternating paths in a *maximum* matching, together with its
neighbourhood, violates the inequality.

:func:`hall_violator` extracts such a pair, and
:func:`deadline_certificate` packages the dichotomy: either an optimal
assignment for deadline ``D`` or a violating pair proving none exists.
The violator also yields the tight local lower bound
``ceil(|A| / |N(A)|)`` on the optimal makespan.
"""

from __future__ import annotations

from collections import deque
from dataclasses import dataclass

import numpy as np

from ..core.bipartite import BipartiteGraph
from ..core.errors import SolverError
from ..core.semimatching import SemiMatching
from .exact_unit import feasible_makespan

__all__ = ["hall_violator", "deadline_certificate", "DeadlineCertificate"]


@dataclass(frozen=True)
class DeadlineCertificate:
    """Outcome of a certified deadline-``D`` feasibility test.

    Exactly one of ``matching`` / ``violator`` is set.  When infeasible,
    ``violator = (tasks, procs)`` satisfies ``len(tasks) > D * len(procs)``
    and every edge of every task in ``tasks`` lands inside ``procs`` —
    anyone can re-check this in linear time.
    """

    deadline: int
    matching: SemiMatching | None
    violator: tuple[np.ndarray, np.ndarray] | None

    @property
    def feasible(self) -> bool:
        return self.matching is not None

    def lower_bound(self) -> int:
        """``ceil(|A| / |N(A)|)`` — a certified bound on the optimum."""
        if self.violator is None:
            raise SolverError("feasible deadlines carry no violator bound")
        tasks, procs = self.violator
        if len(procs) == 0:
            raise SolverError("violator with empty neighbourhood")
        return -(-len(tasks) // len(procs))

    def verify(self, graph: BipartiteGraph) -> None:
        """Re-check the certificate from scratch (used in tests)."""
        if self.matching is not None:
            assert self.matching.makespan <= self.deadline
            return
        tasks, procs = self.violator
        proc_set = set(int(u) for u in procs)
        for t in tasks:
            nbrs = set(int(u) for u in graph.task_neighbors(int(t)))
            assert nbrs <= proc_set, "violator neighbourhood leaks"
        assert len(tasks) > self.deadline * len(procs), "not a violator"


def hall_violator(
    graph: BipartiteGraph, deadline: int
) -> tuple[np.ndarray, np.ndarray] | None:
    """A deficiency-Hall witness for capacity-``deadline``, or ``None``.

    Returns ``(tasks, procs)`` with ``len(tasks) > deadline * len(procs)``
    and ``N(tasks) ⊆ procs`` iff no deadline-``deadline`` schedule exists.
    """
    if not graph.is_unit:
        raise SolverError("Hall certificates apply to unit graphs only")
    res = feasible_makespan(graph, deadline)
    if res.is_left_perfect():
        return None
    return _violator_from_matching(graph, deadline, res.match_of_left)


def _violator_from_matching(
    graph: BipartiteGraph, deadline: int, match_of_task: np.ndarray
) -> tuple[np.ndarray, np.ndarray]:
    """The Hall violator grown from a maximum, non-left-perfect matching."""
    # Alternating BFS from every unmatched task over the maximum matching:
    # task -> any neighbour; processor -> all its matched tasks.
    tasks_of_proc: list[list[int]] = [[] for _ in range(graph.n_procs)]
    for v in np.flatnonzero(match_of_task >= 0).tolist():
        tasks_of_proc[int(match_of_task[v])].append(v)

    seen_t = (match_of_task < 0) & (graph.task_degrees() > 0)
    seen_p = np.zeros(graph.n_procs, dtype=bool)
    q: deque[int] = deque(np.flatnonzero(seen_t).tolist())
    while q:
        v = q.popleft()
        for u in graph.task_neighbors(v):
            u = int(u)
            if seen_p[u]:
                continue
            seen_p[u] = True
            for w in tasks_of_proc[u]:
                if not seen_t[w]:
                    seen_t[w] = True
                    q.append(w)

    tasks = np.flatnonzero(seen_t)
    procs = np.flatnonzero(seen_p)
    # Reachable processors are all saturated (else the matching were not
    # maximum), and reachable tasks' neighbourhoods stay inside them.
    assert len(tasks) > deadline * len(procs), (
        "internal error: BFS region is not a Hall violator; "
        "was the matching maximum?"
    )
    return tasks, procs


def deadline_certificate(
    graph: BipartiteGraph, deadline: int
) -> DeadlineCertificate:
    """Certified feasibility test: a schedule or a Hall violator.

    Runs the matching once: an infeasible deadline's violator is grown
    from the same maximum matching that proved it infeasible.
    """
    if not graph.is_unit:
        raise SolverError("deadline certificates apply to unit graphs only")
    graph.validate(require_total=True)
    res = feasible_makespan(graph, deadline)
    if res.is_left_perfect():
        return DeadlineCertificate(
            deadline=deadline,
            matching=SemiMatching.from_proc_assignment(
                graph, res.match_of_left
            ),
            violator=None,
        )
    violator = _violator_from_matching(graph, deadline, res.match_of_left)
    return DeadlineCertificate(
        deadline=deadline, matching=None, violator=violator
    )
