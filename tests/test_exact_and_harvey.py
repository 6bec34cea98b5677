"""Tests for the exact SINGLEPROC-UNIT algorithm and Harvey et al.'s
optimal semi-matching — cross-validated against each other and against
the exhaustive oracle."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.algorithms import (
    exact_singleproc_unit,
    exhaustive_singleproc,
    feasible_makespan,
    harvey_optimal_semi_matching,
)
from repro.core import BipartiteGraph, InfeasibleError, SolverError
from repro.generators import fig3_family

from strategies import bipartite_graphs, random_bipartite


class TestExactBasics:
    def test_trivial_perfect(self):
        g = BipartiteGraph.from_neighbor_lists([[0], [1]], n_procs=2)
        rep = exact_singleproc_unit(g)
        assert rep.optimal_makespan == 1
        assert rep.matching.makespan == 1.0

    def test_forced_stacking(self):
        # three tasks, one processor: optimum is 3
        g = BipartiteGraph.from_neighbor_lists([[0]] * 3, n_procs=1)
        for strategy in ("linear", "bisection"):
            rep = exact_singleproc_unit(g, strategy=strategy)
            assert rep.optimal_makespan == 3

    def test_matching_achieves_reported_makespan(self):
        g = fig3_family(4)
        rep = exact_singleproc_unit(g)
        assert rep.matching.makespan == rep.optimal_makespan == 1

    def test_weighted_rejected(self):
        g = BipartiteGraph.from_neighbor_lists(
            [[0]], n_procs=1, weights=[[2.0]]
        )
        with pytest.raises(SolverError, match="weighted"):
            exact_singleproc_unit(g)

    def test_infeasible_rejected(self):
        g = BipartiteGraph.from_edges(1, 1, [], [])
        with pytest.raises(Exception):
            exact_singleproc_unit(g)

    def test_empty_instance(self):
        g = BipartiteGraph.from_edges(0, 2, [], [])
        rep = exact_singleproc_unit(g)
        assert rep.optimal_makespan == 0

    def test_unknown_strategy(self):
        g = BipartiteGraph.from_neighbor_lists([[0]], n_procs=1)
        with pytest.raises(ValueError, match="strategy"):
            exact_singleproc_unit(g, strategy="newton")

    def test_probes_recorded(self):
        g = BipartiteGraph.from_neighbor_lists([[0]] * 4, n_procs=1)
        lin = exact_singleproc_unit(g, strategy="linear")
        # linear scan probes 1, 2, 3, 4
        assert [d for d, _ in lin.probes] == [1, 2, 3, 4]
        assert [ok for _, ok in lin.probes] == [False, False, False, True]
        bis = exact_singleproc_unit(g, strategy="bisection")
        assert len(bis.probes) <= len(lin.probes)

    def test_feasible_makespan_deadline_guard(self):
        g = BipartiteGraph.from_neighbor_lists([[0]], n_procs=1)
        with pytest.raises(ValueError):
            feasible_makespan(g, 0)

    def test_feasibility_monotone(self):
        g = random_bipartite(np.random.default_rng(5), 10, 3)
        opt = exact_singleproc_unit(g).optimal_makespan
        assert not feasible_makespan(g, max(1, opt - 1)).is_left_perfect() \
            or opt == 1
        assert feasible_makespan(g, opt).is_left_perfect()
        assert feasible_makespan(g, opt + 1).is_left_perfect()


class TestHarvey:
    def test_weighted_rejected(self):
        g = BipartiteGraph.from_neighbor_lists(
            [[0]], n_procs=1, weights=[[2.0]]
        )
        with pytest.raises(SolverError, match="unit"):
            harvey_optimal_semi_matching(g)

    def test_fig3_optimal(self):
        for k in range(1, 6):
            assert harvey_optimal_semi_matching(fig3_family(k)).makespan == 1

    def test_minimises_total_flow_cost_too(self):
        """Harvey et al.'s optimality is stronger than min-makespan: the
        returned loads also minimise sum l(l+1)/2.  Check against a full
        enumeration on a small graph."""
        from itertools import product

        g = random_bipartite(np.random.default_rng(11), 6, 3)
        m = harvey_optimal_semi_matching(g)
        loads = m.loads()
        cost = float(np.sum(loads * (loads + 1) / 2))
        best = np.inf
        choices = [g.task_neighbors(i).tolist() for i in range(g.n_tasks)]
        for pick in product(*choices):
            lv = np.zeros(g.n_procs)
            for u in pick:
                lv[u] += 1
            best = min(best, float(np.sum(lv * (lv + 1) / 2)))
        assert cost == pytest.approx(best)


@pytest.mark.parametrize("strategy", ["linear", "bisection"])
def test_strategies_agree(strategy):
    rng = np.random.default_rng(17)
    for _ in range(15):
        g = random_bipartite(rng, 12, 5)
        rep = exact_singleproc_unit(g, strategy=strategy)
        ref = exhaustive_singleproc(g)
        assert rep.optimal_makespan == ref.makespan
        assert rep.matching.makespan == rep.optimal_makespan


@given(bipartite_graphs(max_tasks=9, max_procs=5))
@settings(max_examples=40, deadline=None)
def test_exact_equals_harvey_equals_exhaustive(g):
    """Property: three independent exact algorithms agree."""
    a = exact_singleproc_unit(g).optimal_makespan
    b = harvey_optimal_semi_matching(g).makespan
    c = exhaustive_singleproc(g).makespan
    assert a == b == c
