"""GRASP metaheuristic for MULTIPROC (extension).

The paper's future work asks for stronger algorithms; the natural
metaheuristic on top of its building blocks is GRASP — *greedy randomised
adaptive search procedure*:

1. **construction**: a randomised variant of sorted-greedy-hyp — instead
   of always taking the best configuration, draw uniformly from the
   restricted candidate list (RCL) of configurations whose resulting
   bottleneck is within ``alpha`` of the best;
2. **improvement**: the library's vector-lex local search;
3. repeat for ``iterations`` independent starts and keep the best.

``alpha = 0`` degenerates to deterministic SGH + local search; larger
``alpha`` trades construction quality for diversity.  The default
settings beat every single-shot heuristic of the paper on the weighted
benchmark families at a few times their cost (see
``benchmarks/bench_grasp.py``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.errors import InfeasibleError
from ..core.hypergraph import TaskHypergraph
from ..core.semimatching import HyperSemiMatching
from ..kernels import check_backend, compile_instance
from .._util import as_rng, stable_argsort
from .local_search import local_search

__all__ = ["grasp", "GraspReport", "randomized_greedy"]


@dataclass(frozen=True)
class GraspReport:
    """Best matching found plus per-iteration diagnostics."""

    matching: HyperSemiMatching
    iteration_makespans: tuple[float, ...]
    best_iteration: int

    @property
    def best_makespan(self) -> float:
        return self.matching.makespan


def randomized_greedy(
    hg: TaskHypergraph,
    *,
    alpha: float = 0.1,
    seed: int | np.random.Generator | None = None,
    backend: str = "numpy",
) -> HyperSemiMatching:
    """One randomised sorted-greedy-hyp construction.

    For each task (by non-decreasing degree) the RCL holds every
    configuration whose resulting bottleneck is within
    ``best + alpha * max(best, 1)``; the choice is uniform over the RCL.
    Both backends compute identical candidate keys (hence identical
    RCLs), so for a fixed seed they draw identical assignments.
    """
    if alpha < 0:
        raise ValueError("alpha must be non-negative")
    check_backend(backend)
    if np.any(np.diff(hg.task_ptr) == 0):
        bad = int(np.flatnonzero(np.diff(hg.task_ptr) == 0)[0])
        raise InfeasibleError(f"task {bad} has no configuration")
    rng = as_rng(seed)
    loads = np.zeros(hg.n_procs, dtype=np.float64)
    assign = np.empty(hg.n_tasks, dtype=np.int64)
    hptr, hprocs, w = hg.hedge_ptr, hg.hedge_procs, hg.hedge_w

    if backend == "numpy":
        ci = compile_instance(hg)
        tptr = hg.task_ptr
        gptr, gpins, ghedge = ci.g_ptr, ci.g_pins, ci.g_hedge
        pin_w = np.repeat(w[ghedge], ci.g_size)
        for v in stable_argsort(hg.task_degrees()):
            a, b = tptr[v], tptr[v + 1]
            p0 = gptr[a]
            # max(l(u)) + w == max(l(u) + w): fold the lookahead into
            # the reduceat so one call yields every candidate's key
            keys = np.maximum.reduceat(
                loads[gpins[p0 : gptr[b]]] + pin_w[p0 : gptr[b]],
                gptr[a:b] - p0,
            )
            best = keys.min()
            rcl = np.flatnonzero(keys <= best + alpha * max(best, 1.0))
            k = a + int(rng.choice(rcl))
            h = int(ghedge[k])
            assign[v] = h
            loads[hprocs[hptr[h] : hptr[h + 1]]] += w[h]
        return HyperSemiMatching(hg, assign)

    for v in stable_argsort(hg.task_degrees()):
        hedges = hg.task_hedge_ids(v)
        keys = np.array(
            [
                loads[hprocs[hptr[h] : hptr[h + 1]]].max() + w[h]
                for h in hedges
            ]
        )
        best = keys.min()
        rcl = np.flatnonzero(keys <= best + alpha * max(best, 1.0))
        h = int(hedges[rng.choice(rcl)])
        assign[v] = h
        loads[hprocs[hptr[h] : hptr[h + 1]]] += w[h]

    return HyperSemiMatching(hg, assign)


def grasp(
    hg: TaskHypergraph,
    *,
    iterations: int = 8,
    alpha: float = 0.1,
    seed: int | np.random.Generator | None = None,
    improve: bool = True,
    max_ls_moves: int = 200,
    backend: str = "numpy",
) -> GraspReport:
    """Multi-start randomised greedy with local-search improvement.

    Deterministic given ``seed``.  Never returns a worse makespan than
    the best single construction it performed.  Each iteration's local
    search makes at most ``max_ls_moves`` moves.
    """
    if iterations < 1:
        raise ValueError("iterations must be at least 1")
    check_backend(backend)
    rng = as_rng(seed)
    best: HyperSemiMatching | None = None
    best_iter = 0
    history: list[float] = []
    for it in range(iterations):
        m = randomized_greedy(
            hg, alpha=alpha if it else 0.0, seed=rng, backend=backend
        )
        if improve:
            m = local_search(
                m, max_moves=max_ls_moves, backend=backend
            ).matching
        history.append(m.makespan)
        if best is None or m.makespan < best.makespan:
            best = m
            best_iter = it
    return GraspReport(
        matching=best,
        iteration_makespans=tuple(history),
        best_iteration=best_iter,
    )
