"""Tests for the Section IV-D hypergraph greedy heuristics."""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.algorithms import (
    averaged_work_bound,
    exhaustive_multiproc,
    expected_greedy_hyp,
    expected_vector_greedy_hyp,
    sorted_greedy_hyp,
    vector_greedy_hyp,
)
from repro.core import TaskHypergraph
from repro.core.errors import InfeasibleError
from repro.kernels import compile_instance
from repro.kernels import ops as kernel_ops

from strategies import task_hypergraphs

ALL_HYP = [
    sorted_greedy_hyp,
    vector_greedy_hyp,
    expected_greedy_hyp,
    expected_vector_greedy_hyp,
]


class TestFig2:
    """Hand-checkable behaviour on the paper's Figure 2 hypergraph."""

    def test_pinned_tasks_share_p3(self, fig2_hypergraph):
        # T3 and T4 are pinned to {P3}: its load is at least 2, and the
        # heuristics route T1/T2 away from it
        for algo in ALL_HYP:
            m = algo(fig2_hypergraph)
            assert m.makespan == 2.0
            assert m.loads()[2] == 2.0

    def test_optimal_agrees(self, fig2_hypergraph):
        assert exhaustive_multiproc(fig2_hypergraph).makespan == 2.0


class TestSGH:
    def test_prefers_small_bottleneck(self):
        # T0 may use {P0,P1} (bottleneck 1 after assign) or {P2} where a
        # pinned task already sits (bottleneck 2)
        hg = TaskHypergraph.from_configurations(
            [[[2]], [[0, 1], [2]]], n_procs=3
        )
        m = sorted_greedy_hyp(hg)
        assert m.makespan == 1.0

    def test_lookahead_difference_on_weights(self):
        # configuration A: procs {0}, weight 5; configuration B: procs {1},
        # weight 1.  Literal pseudocode sees both loads 0 and keeps A;
        # lookahead picks B.
        hg = TaskHypergraph.from_configurations(
            [[[0], [1]]], n_procs=2, weights=[[5.0, 1.0]]
        )
        assert sorted_greedy_hyp(hg, lookahead=True).makespan == 1.0
        assert sorted_greedy_hyp(hg, lookahead=False).makespan == 5.0

    def test_visit_order_sorted_by_degree(self):
        # the degree-1 task must commit first and claim its only option
        hg = TaskHypergraph.from_configurations(
            [[[0], [1]], [[0]]], n_procs=2
        )
        m = sorted_greedy_hyp(hg)
        assert m.makespan == 1.0
        assert sorted_greedy_hyp(hg, sort_by_degree=False).makespan == 2.0


class TestVGH:
    def test_vector_beats_bottleneck_tie(self):
        # Both configurations give bottleneck 2 (P0 carries a pinned load
        # of 2), but B also loads an empty processor less: the load vector
        # decides where max-load comparison cannot.
        hg = TaskHypergraph.from_configurations(
            [
                [[0]],  # T0 pinned: P0 load 2 after its two units? no - weight 2 below
                [[1, 2], [1]],  # T1: A loads P1+P2, B loads P1 only
            ],
            n_procs=3,
            weights=[[2.0], [1.0, 1.0]],
        )
        m = vector_greedy_hyp(hg)
        # vector comparison prefers {P1} (vector [2,1,0]) over {P1,P2}
        # (vector [2,1,1])
        assert m.loads().tolist() == [2.0, 1.0, 0.0]

    def test_invalid_method(self, fig2_hypergraph):
        with pytest.raises(ValueError, match="fast.*naive"):
            vector_greedy_hyp(fig2_hypergraph, method="quick")
        with pytest.raises(ValueError, match="fast.*naive"):
            expected_vector_greedy_hyp(fig2_hypergraph, method="quick")


class TestExpected:
    def test_collapse_keeps_expected_equal_to_actual(self):
        # on termination the o values equal actual loads; makespan of the
        # returned matching must equal the internal prediction
        hg = TaskHypergraph.from_configurations(
            [[[0], [1]], [[0], [1]], [[0, 1]]], n_procs=2
        )
        m = expected_greedy_hyp(hg)
        assert m.makespan == m.loads().max()

    def test_expected_steers_away_from_contention(self):
        # P0 is wanted by both flexible tasks; expected loads reveal the
        # contention before any assignment is made
        hg = TaskHypergraph.from_configurations(
            [[[0], [1]], [[0], [2]]], n_procs=3
        )
        m = expected_greedy_hyp(hg)
        assert m.makespan == 1.0


def _shared_processor_tasks(hg):
    """Tasks with two or more candidates that share a processor."""
    return np.flatnonzero(compile_instance(hg).task_repeats)


class TestNumpyRarePaths:
    """Instances that pin the numpy kernels' rarely taken branches, each
    bit-equal to the Python oracle."""

    def test_evg_rounding_below_zero_takes_sign_aware_ranking(self):
        # w = 0.1 + 0.2 and d_v = 3: withdrawing the two shares from
        # o(P1) = w/3 + 0.7/3 leaves -2.8e-17, so every candidate row
        # that does not realise P1 holds a negative value
        hg = TaskHypergraph.from_configurations(
            [[[0], [0, 1], [1]]],
            n_procs=2,
            weights=[[0.1 + 0.2, 0.1 + 0.2, 0.7]],
        )
        with mock.patch.object(
            kernel_ops, "_inv_sort_keys", wraps=kernel_ops._inv_sort_keys
        ) as spy:
            fast = expected_vector_greedy_hyp(hg)
        assert spy.called
        slow = expected_vector_greedy_hyp(hg, backend="python")
        assert np.array_equal(fast.hedge_of_task, slow.hedge_of_task)
        assert fast.hedge_of_task.tolist() == [0]

    @pytest.mark.parametrize(
        "algo", [expected_greedy_hyp, expected_vector_greedy_hyp]
    )
    def test_shared_processor_collapse_keeps_candidate_order(self, algo):
        # both tasks' candidates share their processors, so the collapse
        # withdraws several shares from one processor: EGH's ordered
        # np.add.at and EVG's np.subtract.at branch; applying those
        # shares buffered or in another order changes a decision here
        hg = TaskHypergraph.from_configurations(
            [[[0], [0]], [[0, 1], [0, 1]]],
            n_procs=2,
            weights=[[0.1 + 0.2, 0.1], [0.1 + 0.2, 0.3]],
        )
        assert _shared_processor_tasks(hg).tolist() == [0, 1]
        fast = algo(hg)
        slow = algo(hg, backend="python")
        assert np.array_equal(fast.hedge_of_task, slow.hedge_of_task)


class TestInfeasible:
    def test_raises(self):
        hg = TaskHypergraph.from_hyperedges(2, 2, [0], [[0]])
        for algo in ALL_HYP:
            with pytest.raises(InfeasibleError):
                algo(hg)


@given(task_hypergraphs(weighted=True))
@settings(max_examples=50, deadline=None)
def test_fast_equals_naive_vector_comparison(hg):
    """Property: the lemma-based comparison reproduces the full-vector
    (paper-style) implementation decision for decision."""
    v_fast = vector_greedy_hyp(hg, method="fast")
    v_naive = vector_greedy_hyp(hg, method="naive")
    assert np.array_equal(v_fast.hedge_of_task, v_naive.hedge_of_task)
    e_fast = expected_vector_greedy_hyp(hg, method="fast")
    e_naive = expected_vector_greedy_hyp(hg, method="naive")
    assert np.array_equal(e_fast.hedge_of_task, e_naive.hedge_of_task)


@given(task_hypergraphs(weighted=True, max_tasks=6, max_procs=5))
@settings(max_examples=30, deadline=None)
def test_heuristics_bounded_by_lb_and_optimum(hg):
    """Property: LB <= optimum <= every heuristic's makespan."""
    lb = averaged_work_bound(hg)
    opt = exhaustive_multiproc(hg).makespan
    assert lb <= opt + 1e-9
    for algo in ALL_HYP:
        mk = algo(hg).makespan
        assert mk + 1e-9 >= opt
        assert mk + 1e-9 >= lb


@st.composite
def _shared_processor_instances(draw):
    """Instances whose tasks' candidates share processors: every task
    draws its candidates from a pool of at most three processors, and
    task 0 opens with ``{0}`` and ``{0, 1}``.  Weights are unit,
    integer or float; float weights take EVG's expected loads off the
    integers, where withdrawing shares can round below zero."""
    p = draw(st.integers(2, 6))
    confs = []
    for _ in range(draw(st.integers(1, 8))):
        pool = draw(
            st.lists(st.integers(0, p - 1), min_size=1, max_size=3,
                     unique=True)
        )
        confs.append([
            draw(st.lists(st.sampled_from(pool), min_size=1,
                          max_size=len(pool), unique=True))
            for _ in range(draw(st.integers(1, 4)))
        ])
    confs[0] = [[0], [0, 1]] + confs[0]
    kind = draw(st.sampled_from(["unit", "integer", "float"]))
    if kind == "unit":
        return TaskHypergraph.from_configurations(confs, n_procs=p)
    weight = (
        st.integers(1, 9) if kind == "integer"
        else st.sampled_from([0.1, 0.2, 0.1 + 0.2, 0.7, 1 / 3])
        | st.floats(0.05, 8.0)
    )
    weights = [[draw(weight) for _ in task] for task in confs]
    return TaskHypergraph.from_configurations(
        confs, n_procs=p, weights=weights
    )


@given(_shared_processor_instances())
@settings(max_examples=150, deadline=None)
def test_ranking_over_repeated_processors_matches_the_oracle(hg):
    """Property: VGH and EVG rank a task's candidates over its own pins,
    a processor that several candidates share counted once per
    candidate; the numpy answers stay bit-equal to the Python oracle,
    which compares over pin-unions."""
    assert len(_shared_processor_tasks(hg)) > 0
    for algo in (vector_greedy_hyp, expected_vector_greedy_hyp):
        fast = algo(hg)
        slow = algo(hg, backend="python")
        assert np.array_equal(fast.hedge_of_task, slow.hedge_of_task)
        assert fast.makespan == slow.makespan


@given(task_hypergraphs(weighted=False))
@settings(max_examples=30, deadline=None)
def test_unit_instances_all_valid(hg):
    """Property: on MULTIPROC-UNIT the four heuristics return valid
    matchings with integral makespans."""
    for algo in ALL_HYP:
        m = algo(hg)
        assert m.makespan == int(m.makespan)
        assert m.makespan >= 1.0
