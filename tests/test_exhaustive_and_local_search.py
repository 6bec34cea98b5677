"""Tests for the exhaustive oracle and the local-search refinement."""

import importlib
from itertools import product
from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    exhaustive_multiproc,
    exhaustive_singleproc,
    local_search,
    sorted_greedy_hyp,
)
from repro.core import HyperSemiMatching, SolverError, TaskHypergraph
from repro.kernels.moves import (
    first_improving_move,
    first_improving_move_python,
)

from strategies import random_hypergraph, task_hypergraphs


def brute_force_makespan(hg: TaskHypergraph) -> float:
    """Plain enumeration, no pruning — the oracle's oracle."""
    best = np.inf
    options = [hg.task_hedge_ids(i).tolist() for i in range(hg.n_tasks)]
    for pick in product(*options):
        loads = np.zeros(hg.n_procs)
        for h in pick:
            loads[hg.hedge_proc_set(h)] += hg.hedge_w[h]
        best = min(best, loads.max() if loads.size else 0.0)
    return float(best)


class TestExhaustive:
    def test_matches_plain_enumeration(self):
        rng = np.random.default_rng(23)
        for _ in range(25):
            hg = random_hypergraph(rng, max_tasks=5, max_procs=4)
            assert exhaustive_multiproc(hg).makespan == pytest.approx(
                brute_force_makespan(hg)
            )

    def test_node_limit(self):
        rng = np.random.default_rng(1)
        hg = random_hypergraph(rng, max_tasks=8, max_procs=5)
        with pytest.raises(SolverError, match="node_limit"):
            exhaustive_multiproc(hg, node_limit=1)

    def test_empty(self):
        hg = TaskHypergraph.from_hyperedges(0, 2, [], [])
        assert exhaustive_multiproc(hg).makespan == 0.0

    def test_initial_upper_bound_does_not_break_optimality(self):
        hg = TaskHypergraph.from_configurations(
            [[[0], [1]], [[0]]], n_procs=2
        )
        m = exhaustive_multiproc(hg, initial_upper_bound=10.0)
        assert m.makespan == 1.0

    def test_singleproc_wrapper(self):
        from repro.core import BipartiteGraph

        g = BipartiteGraph.from_neighbor_lists(
            [[0, 1], [0], [1]], n_procs=2,
            weights=[[3.0, 1.0], [2.0], [2.0]],
        )
        m = exhaustive_singleproc(g)
        # optimal: T0->P1(1), T1->P0(2), T2->P1(2) -> makespan 3
        assert m.makespan == 3.0


class TestLocalSearch:
    def test_never_worsens(self):
        rng = np.random.default_rng(31)
        for _ in range(30):
            hg = random_hypergraph(rng)
            start = sorted_greedy_hyp(hg)
            rep = local_search(start)
            assert rep.final_makespan <= rep.initial_makespan + 1e-9
            assert rep.matching.makespan == rep.final_makespan

    def test_fixes_bad_assignment(self):
        # both tasks piled on P0 by hand; one move fixes it
        hg = TaskHypergraph.from_configurations(
            [[[0], [1]], [[0], [2]]], n_procs=3
        )
        bad = HyperSemiMatching(hg, np.array([0, 2]))
        assert bad.makespan == 2.0
        rep = local_search(bad)
        assert rep.final_makespan == 1.0
        assert rep.moves >= 1

    def test_respects_max_moves(self):
        hg = TaskHypergraph.from_configurations(
            [[[0], [1]], [[0], [2]]], n_procs=3
        )
        bad = HyperSemiMatching(hg, np.array([0, 2]))
        rep = local_search(bad, max_moves=0)
        assert rep.moves == 0 and rep.capped
        assert rep.final_makespan == bad.makespan
        # one move is all it needs: the budget of one caps the search,
        # a budget of two lets it confirm the local optimum
        one, two = (local_search(bad, max_moves=k) for k in (1, 2))
        assert (one.moves, one.capped) == (1, True)
        assert (two.moves, two.capped) == (1, False)
        assert np.array_equal(
            one.matching.hedge_of_task, two.matching.hedge_of_task
        )

    def test_already_optimal_stops_immediately(self):
        hg = TaskHypergraph.from_configurations(
            [[[0]], [[1]]], n_procs=2
        )
        start = HyperSemiMatching(hg, np.array([0, 1]))
        rep = local_search(start)
        assert rep.moves == 0 and not rep.capped


@given(task_hypergraphs(max_tasks=5, max_procs=4, weighted=True))
@settings(max_examples=25, deadline=None)
def test_local_search_stays_above_optimum(hg):
    """Property: refinement keeps validity and never beats the optimum."""
    opt = exhaustive_multiproc(hg).makespan
    rep = local_search(sorted_greedy_hyp(hg))
    assert rep.final_makespan + 1e-9 >= opt
    assert rep.final_makespan <= rep.initial_makespan + 1e-9


@given(
    seed=st.integers(0, 10_000),
    decimal=st.booleans(),
    max_moves=st.sampled_from([3, 1000]),
)
@settings(max_examples=60, deadline=None)
def test_numpy_scan_matches_the_scalar_rule_move_for_move(
    seed, decimal, max_moves
):
    """From a random start, every batch the vectorized scan reads picks
    the scalar rule's move, and the python backend makes the same
    moves.  Integer weights make equal maxima common; decimal ones
    (inexact in binary) make the order of the per-pin float operations
    decide moves.  Up to 40 tasks fill more than the first batch."""
    rng = np.random.default_rng(seed)
    hg = random_hypergraph(rng, max_tasks=40, max_procs=8)
    if decimal:
        hg = hg.with_weights(
            rng.choice([0.1, 0.2, 0.3, 0.7], size=hg.n_hedges)
        )
    deg = np.diff(hg.task_ptr)
    pick = (rng.random(hg.n_tasks) * deg).astype(np.int64)
    start = HyperSemiMatching(hg, hg.task_hedges[hg.task_ptr[:-1] + pick])
    scans = []

    def checked(rows, loads, assign, tasks):
        move = first_improving_move(rows, loads, assign, tasks)
        assert move == first_improving_move_python(rows, loads, assign, tasks)
        scans.append(move)
        return move

    module = importlib.import_module("repro.algorithms.local_search")
    with mock.patch.object(module, "first_improving_move", checked):
        fast = local_search(start, max_moves=max_moves)
    slow = local_search(start, max_moves=max_moves, backend="python")
    assert sum(move is not None for move in scans) == fast.moves
    assert (fast.moves, fast.capped) == (slow.moves, slow.capped)
    np.testing.assert_array_equal(
        fast.matching.hedge_of_task, slow.matching.hedge_of_task
    )
    np.testing.assert_array_equal(
        fast.matching.loads(), slow.matching.loads()
    )


def test_engine_reports_the_move_budget():
    """``SolveResult.stats`` carries ``ls_moves`` and ``ls_capped`` of
    the search that produced the answer, also on a cache hit, and
    nothing when no search did."""
    from repro.engine import BatchSolver, ResultCache
    from repro.generators import generate_multiproc

    hg = generate_multiproc(1280, 256, g=32, seed=0)
    refined = local_search(sorted_greedy_hyp(hg))
    # SGH+ls makes moves here but keeps SGH's makespan, so the
    # portfolio's tie goes to its first entry, which ran no search
    tie = generate_multiproc(64, 16, family="hilo", g=4, seed=0)
    tied = local_search(sorted_greedy_hyp(tie))
    assert tied.moves and tied.final_makespan == tied.initial_makespan
    with BatchSolver(max_workers=1, cache=ResultCache()) as engine:
        fresh, hit = (engine.solve(hg, method="SGH+ls") for _ in range(2))
        sgh = engine.solve(hg, method="SGH")
        race = engine.solve(tie, method="portfolio(SGH,SGH+ls)")
    assert hit.cache_hit and not fresh.cache_hit
    for res in (fresh, hit):
        assert res.stats["ls_moves"] == refined.moves > 0
        assert res.stats["ls_capped"] is refined.capped is False
    assert race.winner == "SGH"
    for res in (sgh, race):
        assert "ls_moves" not in res.stats
        assert "ls_capped" not in res.stats


def test_grasp_reports_its_best_iterations_search():
    """GRASP's counters are its best iteration's, not the tally of all
    eight: here some iterations stop at the budget, the best one
    converges."""
    from repro.algorithms import grasp
    from repro.algorithms.local_search import search_stats, tally_moves
    from repro.generators import generate_multiproc

    hg = generate_multiproc(64, 16, family="fewgmanyg", g=4, seed=0)
    with tally_moves() as tally:
        rep = grasp(hg, seed=0, max_ls_moves=100)
    assert len(tally) == 8 and any(r.capped for r in tally)
    best = tally[rep.best_iteration]
    assert best.matching is rep.matching and not best.capped
    assert search_stats(tally, rep.matching) == {
        "ls_moves": best.moves,
        "ls_capped": False,
    }
    assert search_stats(tally, sorted_greedy_hyp(hg)) == {}
