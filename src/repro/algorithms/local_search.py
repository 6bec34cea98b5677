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
processors only, which keeps each move linear in the size of the touched
neighbourhood.

Each move is the first improving one of a scan over every task on a
bottleneck processor, ascending, a task's configurations in
:meth:`TaskHypergraph.task_hedge_ids` order, in batches of
``SCAN_PREFIX`` tasks and then 64, through the move scan of
:mod:`repro.kernels.moves`.  Incremental repair runs the same scan but
takes one bottleneck processor's tasks at a time, to stay near the
processor it lowers; the order decides which improving move comes
first, so one order for both would change the answers here.
``backend="python"`` runs the scalar rule the vectorized scan is held
to: both make the same moves, bit for bit.

At most ``max_moves`` moves are made; a search that stops there has
not confirmed a local optimum and reports ``capped``.  Through the
engine, ``SolveResult.stats`` carries ``ls_moves`` and ``ls_capped`` of
the search whose result is the answer (GRASP's best iteration, a
portfolio's winning entry), and neither when no search produced it.
"""

from __future__ import annotations

from contextlib import contextmanager
from contextvars import ContextVar
from dataclasses import dataclass
from typing import Iterator

import numpy as np

from ..core.hypergraph import TaskHypergraph
from ..core.semimatching import HyperSemiMatching
from ..kernels import check_backend, compile_instance, flat_ranges
from ..kernels.moves import (
    SCAN_PREFIX,
    compiled_rows,
    first_improving_move,
    first_improving_move_python,
)

__all__ = ["local_search", "LocalSearchReport", "search_stats", "tally_moves"]

#: Tasks per scan batch after the first ``SCAN_PREFIX``: enough to
#: amortize the array ops, few enough to waste little past an early pick
_STEP = 64

#: the tally of the solve in progress (see :func:`tally_moves`)
_TALLY: ContextVar[list | None] = ContextVar("ls_tally", default=None)


@dataclass(frozen=True)
class LocalSearchReport:
    """Refined matching plus search statistics (``capped``: the search
    stopped at its move budget, not at a local optimum)."""

    matching: HyperSemiMatching
    moves: int
    capped: bool
    initial_makespan: float
    final_makespan: float


@contextmanager
def tally_moves() -> Iterator[list]:
    """Yields a list that ends holding the report of every local search
    run in the block, for :func:`search_stats`."""
    tally: list = []
    token = _TALLY.set(tally)
    try:
        yield tally
    finally:
        _TALLY.reset(token)


def search_stats(tally: list, answer: HyperSemiMatching) -> dict:
    """``ls_moves`` and ``ls_capped`` of the search in ``tally`` whose
    result is ``answer`` (the very object), or nothing when none is."""
    for rep in tally:
        if rep.matching is answer:
            return {"ls_moves": rep.moves, "ls_capped": rep.capped}
    return {}


def local_search(
    start: HyperSemiMatching,
    *,
    max_moves: int = 1000,
    backend: str = "numpy",
) -> LocalSearchReport:
    """Improve ``start`` by single-task reconfiguration moves.

    Each step scans the tasks touching a current bottleneck processor and
    applies the first vector-improving move found; steps repeat until a
    full scan finds no improving move or ``max_moves`` moves are made.
    Both backends apply the identical move sequence (see module docs).
    """
    check_backend(backend)
    hg: TaskHypergraph = start.hypergraph
    # the processor index first: building the pin shifts re-prices the
    # cached compilation, which counts the index once built
    proc_ptr, proc_hedges, hedge_task = (
        hg.proc_ptr, hg.proc_hedges, hg.hedge_task
    )
    ck = compile_instance(hg)
    rows = compiled_rows(ck)
    scan = (
        first_improving_move if backend == "numpy"
        else first_improving_move_python
    )
    assign = start.hedge_of_task.copy()
    # the current configuration of each task, as an index among its own
    cfg = ck.hedge_gpos[assign] - rows.task_lo
    loads = start.loads()
    initial_mk = start.makespan

    moves = 0
    while moves < max_moves:
        mk = loads.max()
        bottleneck = np.flatnonzero(loads >= mk - 1e-12)
        # candidate tasks: assigned configurations touching a bottleneck
        # processor, ascending
        hs = proc_hedges[
            flat_ranges(
                proc_ptr[bottleneck],
                proc_ptr[bottleneck + 1] - proc_ptr[bottleneck],
            )
        ]
        ts = hedge_task[hs]
        cand = np.unique(ts[assign[ts] == hs])
        # in batches: the first SCAN_PREFIX tasks, then _STEP at a time
        ends = [*range(SCAN_PREFIX, cand.shape[0], _STEP), cand.shape[0]]
        mv = None
        for lo, hi in zip([0, *ends], ends):
            mv = scan(rows, loads, cfg, cand[lo:hi]) if hi > lo else None
            if mv is not None:
                break
        if mv is None:
            break
        v, c = mv
        old = rows.task_lo.item(v) + cfg.item(v)
        new = rows.task_lo.item(v) + c
        loads[rows.row_pins(old)] -= rows.row_w[old]
        loads[rows.row_pins(new)] += rows.row_w[new]
        cfg[v] = c
        assign[v] = ck.g_hedge[new]
        moves += 1

    final = HyperSemiMatching(hg, assign)
    report = LocalSearchReport(
        matching=final,
        moves=moves,
        capped=moves == max_moves,
        initial_makespan=initial_mk,
        final_makespan=final.makespan,
    )
    tally = _TALLY.get()
    if tally is not None:
        tally.append(report)
    return report
