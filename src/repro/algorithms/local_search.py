"""Local-search refinement of hypergraph semi-matchings (extension).

The paper's conclusion lists algorithms with guarantees and stronger
heuristics as future work; this module contributes the natural next step:
a hill-climbing pass over a greedy solution.

A *move* re-assigns one task from its current configuration to another.
Moves are accepted when they improve the full load vector in the
descending-lexicographic order of Section IV-D3 (so the bottleneck never
worsens and strictly improves whenever possible, and plateau-shuffling is
impossible — the vector order is a strict well-order, guaranteeing
termination).  Candidate tasks are drawn from the current bottleneck
processors only, which keeps each round linear in the size of the touched
neighbourhood.

Like the greedy heuristics, the search runs on two backends.
``backend="numpy"`` enumerates each round's candidate moves with array
ops and evaluates them in chunks through the batched move-evaluation
kernel (:func:`repro.kernels.batch_lex_signs`); both moves are always
configurations of the same task, so each move is compared over the
task's precompiled pin-union (sound by the multiset lemma), rows padded
with ``-inf`` to the chunk width.  The first improving move in scan
order is applied — exactly the move the ``backend="python"`` loop
accepts — so both backends walk the same move sequence and return
bit-identical results.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..core.hypergraph import TaskHypergraph
from ..core.loadvec import lex_compare_multisets
from ..core.semimatching import HyperSemiMatching
from ..kernels import (
    check_backend,
    compile_instance,
    first_lex_improving,
    flat_ranges,
)

__all__ = ["local_search", "LocalSearchReport"]

#: Moves evaluated per kernel batch: large enough to amortize the array
#: ops, small enough not to waste work when an early move improves.
_CHUNK = 64


@dataclass(frozen=True)
class LocalSearchReport:
    """Refined matching plus search statistics."""

    matching: HyperSemiMatching
    moves: int
    rounds: int
    initial_makespan: float
    final_makespan: float


def _move_delta(
    loads: np.ndarray,
    old_pins: np.ndarray,
    old_w: float,
    new_pins: np.ndarray,
    new_w: float,
) -> int:
    """Compare loads-after-move against loads-before over the affected set."""
    aff = np.union1d(old_pins, new_pins)
    before = loads[aff]
    after = before.copy()
    after[np.searchsorted(aff, old_pins)] -= old_w
    after[np.searchsorted(aff, new_pins)] += new_w
    return lex_compare_multisets(after, before)


def local_search(
    start: HyperSemiMatching,
    *,
    max_rounds: int = 1000,
    backend: str = "numpy",
) -> LocalSearchReport:
    """Improve ``start`` by single-task reconfiguration moves.

    Each round scans the tasks touching a current bottleneck processor and
    applies the first vector-improving move found; rounds repeat until a
    full scan finds no improving move or ``max_rounds`` is reached.
    Both backends apply the identical move sequence (see module docs).
    """
    check_backend(backend)
    if backend == "python":
        return _local_search_python(start, max_rounds)
    return _local_search_numpy(start, max_rounds)


def _local_search_python(
    start: HyperSemiMatching, max_rounds: int
) -> LocalSearchReport:
    hg: TaskHypergraph = start.hypergraph
    hptr, hprocs, w = hg.hedge_ptr, hg.hedge_procs, hg.hedge_w
    proc_ptr, proc_hedges = hg.proc_ptr, hg.proc_hedges
    assign = start.hedge_of_task.copy()
    loads = start.loads()
    initial_mk = start.makespan

    moves = 0
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        improved = False
        mk = loads.max()
        bottleneck = np.flatnonzero(loads >= mk - 1e-12)
        # tasks whose current configuration touches a bottleneck processor
        cand_tasks: set[int] = set()
        for u in bottleneck:
            lo, hi = proc_ptr[u], proc_ptr[u + 1]
            for h in proc_hedges[lo:hi]:
                if assign[hg.hedge_task[h]] == h:
                    cand_tasks.add(int(hg.hedge_task[h]))
        for v in sorted(cand_tasks):
            h_old = int(assign[v])
            old_pins = hprocs[hptr[h_old] : hptr[h_old + 1]]
            for h_new in hg.task_hedge_ids(v):
                h_new = int(h_new)
                if h_new == h_old:
                    continue
                new_pins = hprocs[hptr[h_new] : hptr[h_new + 1]]
                if (
                    _move_delta(loads, old_pins, w[h_old], new_pins, w[h_new])
                    < 0
                ):
                    loads[old_pins] -= w[h_old]
                    loads[new_pins] += w[h_new]
                    assign[v] = h_new
                    moves += 1
                    improved = True
                    break
            if improved:
                break
        if not improved:
            break

    final = HyperSemiMatching(hg, assign)
    return LocalSearchReport(
        matching=final,
        moves=moves,
        rounds=rounds,
        initial_makespan=initial_mk,
        final_makespan=final.makespan,
    )


def _local_search_numpy(
    start: HyperSemiMatching, max_rounds: int
) -> LocalSearchReport:
    hg: TaskHypergraph = start.hypergraph
    ci = compile_instance(hg)
    hptr, hprocs, w = hg.hedge_ptr, hg.hedge_procs, hg.hedge_w
    g_w = w[ci.g_hedge]
    assign = start.hedge_of_task.copy()
    loads = start.loads()
    initial_mk = start.makespan

    moves = 0
    rounds = 0
    while rounds < max_rounds:
        rounds += 1
        mv = _first_improving_move(hg, ci, g_w, assign, loads)
        if mv is None:
            break
        v, h_new = mv
        h_old = int(assign[v])
        loads[hprocs[hptr[h_old] : hptr[h_old + 1]]] -= w[h_old]
        loads[hprocs[hptr[h_new] : hptr[h_new + 1]]] += w[h_new]
        assign[v] = h_new
        moves += 1

    final = HyperSemiMatching(hg, assign)
    return LocalSearchReport(
        matching=final,
        moves=moves,
        rounds=rounds,
        initial_makespan=initial_mk,
        final_makespan=final.makespan,
    )


def _first_improving_move(
    hg: TaskHypergraph,
    ci,
    gw: np.ndarray,
    assign: np.ndarray,
    loads: np.ndarray,
) -> tuple[int, int] | None:
    """The first vector-improving move in the Python scan order, found
    by chunked batch evaluation; ``None`` when the round has none.
    ``gw`` is ``hg``'s weights in grouped order."""
    mk = loads.max()
    bottleneck = np.flatnonzero(loads >= mk - 1e-12)
    # candidate tasks: assigned configurations touching a bottleneck proc
    proc_ptr = hg.proc_ptr
    hs = hg.proc_hedges[
        flat_ranges(
            proc_ptr[bottleneck],
            proc_ptr[bottleneck + 1] - proc_ptr[bottleneck],
        )
    ]
    ts = hg.hedge_task[hs]
    cand = np.unique(ts[assign[ts] == hs])  # sorted ascending, like the loop
    if cand.size == 0:
        return None

    # every (task, alternative configuration) pair, in scan order:
    # tasks ascending, a task's candidates in task_hedge_ids order
    deg = hg.task_ptr[cand + 1] - hg.task_ptr[cand]
    mv_gpos = flat_ranges(hg.task_ptr[cand], deg)
    mv_task = np.repeat(cand, deg)
    mv_hnew = ci.g_hedge[mv_gpos]
    keep = mv_hnew != assign[mv_task]
    mv_gpos, mv_task, mv_hnew = mv_gpos[keep], mv_task[keep], mv_hnew[keep]
    if mv_task.size == 0:
        return None
    mv_old_gpos = ci.hedge_gpos[assign[mv_task]]

    gptr, gsize = ci.g_ptr, ci.g_size
    uptr, uprocs, pin_pos = ci.u_ptr, ci.u_procs, ci.g_pin_pos
    for c0 in range(0, mv_task.size, _CHUNK):
        c1 = min(c0 + _CHUNK, mv_task.size)
        vs = mv_task[c0:c1]
        m = c1 - c0
        u0 = uptr[vs]
        lens = uptr[vs + 1] - u0
        kmax = int(lens.max())
        rows = np.repeat(np.arange(m), lens)
        cols = flat_ranges(np.zeros(m, dtype=np.int64), lens)
        before = np.full((m, kmax), -np.inf)
        before[rows, cols] = loads[uprocs[flat_ranges(u0, lens)]]
        after = before.copy()
        # withdraw the current configuration, then realise the new one
        # (the -=/+= order matches the Python oracle on shared pins)
        og = mv_old_gpos[c0:c1]
        olens = gsize[og]
        orow = np.repeat(np.arange(m), olens)
        opos = pin_pos[flat_ranges(gptr[og], olens)]
        after[orow, opos] -= np.repeat(gw[og], olens)
        ng = mv_gpos[c0:c1]
        nlens = gsize[ng]
        nrow = np.repeat(np.arange(m), nlens)
        npos = pin_pos[flat_ranges(gptr[ng], nlens)]
        after[nrow, npos] += np.repeat(gw[ng], nlens)

        i = first_lex_improving(after, before)
        if i is not None:
            return int(vs[i]), int(mv_hnew[c0 + i])
    return None
