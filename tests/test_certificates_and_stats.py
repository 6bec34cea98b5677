"""Tests for Hall-violator certificates and the statistics module."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.algorithms import (
    deadline_certificate,
    exact_singleproc_unit,
    hall_violator,
    sorted_greedy_hyp,
)
from repro.core import (
    BipartiteGraph,
    SolverError,
    TaskHypergraph,
    bipartite_stats,
    instance_stats,
    load_stats,
)
from repro.generators import fig3_family, generate_multiproc

from strategies import bipartite_graphs


class TestHallViolator:
    def test_feasible_returns_none(self):
        g = BipartiteGraph.from_neighbor_lists([[0], [1]], n_procs=2)
        assert hall_violator(g, 1) is None

    def test_two_tasks_one_proc(self):
        g = BipartiteGraph.from_neighbor_lists([[0], [0]], n_procs=2)
        tasks, procs = hall_violator(g, 1)
        assert set(tasks.tolist()) == {0, 1}
        assert procs.tolist() == [0]

    def test_violator_structure(self):
        # 5 tasks all restricted to {P0, P1}: deadline 2 is infeasible
        g = BipartiteGraph.from_neighbor_lists([[0, 1]] * 5, n_procs=3)
        tasks, procs = hall_violator(g, 2)
        assert len(tasks) > 2 * len(procs)
        proc_set = set(procs.tolist())
        for t in tasks:
            assert set(g.task_neighbors(int(t)).tolist()) <= proc_set

    def test_rejects_weighted(self):
        g = BipartiteGraph.from_neighbor_lists(
            [[0]], n_procs=1, weights=[[2.0]]
        )
        with pytest.raises(SolverError):
            hall_violator(g, 1)


class TestDeadlineCertificate:
    def test_feasible_side(self):
        g = fig3_family(3)
        cert = deadline_certificate(g, 1)
        assert cert.feasible
        cert.verify(g)
        assert cert.matching.makespan <= 1
        with pytest.raises(SolverError):
            cert.lower_bound()

    def test_infeasible_side(self):
        g = BipartiteGraph.from_neighbor_lists([[0, 1]] * 7, n_procs=2)
        cert = deadline_certificate(g, 3)
        assert not cert.feasible
        cert.verify(g)
        assert cert.lower_bound() == 4  # ceil(7/2)

    def test_certificate_bound_is_tight_here(self):
        g = BipartiteGraph.from_neighbor_lists([[0, 1]] * 7, n_procs=2)
        assert (
            deadline_certificate(g, 3).lower_bound()
            == exact_singleproc_unit(g).optimal_makespan
        )

    def test_infeasible_deadline_runs_one_matching(self, monkeypatch):
        import repro.algorithms.certificates as certificates

        calls = []
        real = certificates.feasible_makespan

        def counting(graph, deadline, *args, **kwargs):
            calls.append(deadline)
            return real(graph, deadline, *args, **kwargs)

        monkeypatch.setattr(certificates, "feasible_makespan", counting)
        g = BipartiteGraph.from_neighbor_lists([[0, 1]] * 7, n_procs=2)
        cert = deadline_certificate(g, 3)
        assert not cert.feasible
        cert.verify(g)
        assert calls == [3]


@given(bipartite_graphs(max_tasks=10, max_procs=5))
@settings(max_examples=40, deadline=None)
def test_certificate_dichotomy(g):
    """Property: for D = OPT the certificate is a schedule, for D = OPT-1
    it is a verified Hall violator whose bound exceeds D."""
    opt = exact_singleproc_unit(g).optimal_makespan
    cert = deadline_certificate(g, opt)
    assert cert.feasible
    cert.verify(g)
    if opt > 1:
        cert2 = deadline_certificate(g, opt - 1)
        assert not cert2.feasible
        cert2.verify(g)
        assert cert2.lower_bound() >= opt - 1 + 1  # > deadline


class TestInstanceStats:
    def test_hypergraph(self, fig2_hypergraph):
        st = instance_stats(fig2_hypergraph)
        assert st.n_tasks == 4
        assert st.n_hedges == 6
        assert st.mean_configs_per_task == pytest.approx(1.5)
        assert st.max_config_size == 2
        assert "tasks: 4" in st.describe()

    def test_bipartite(self):
        g = BipartiteGraph.from_neighbor_lists([[0, 1], [0]], n_procs=2)
        st = bipartite_stats(g)
        assert st.max_config_size == 1
        assert st.n_hedges == 3

    def test_generated(self):
        hg = generate_multiproc(100, 32, g=4, dv=3, dh=4, seed=0)
        st = instance_stats(hg)
        assert st.tasks_per_proc_ratio == pytest.approx(100 / 32)
        assert st.total_pins == hg.total_pins


class TestLoadStats:
    def test_balanced(self):
        hg = TaskHypergraph.from_configurations(
            [[[0]], [[1]]], n_procs=2
        )
        m = sorted_greedy_hyp(hg)
        st = load_stats(m)
        assert st.makespan == 1.0
        assert st.imbalance == 0.0
        assert st.utilization == 1.0
        assert st.idle_procs == 0
        assert st.l2_cost == 2.0

    def test_imbalanced(self):
        hg = TaskHypergraph.from_configurations(
            [[[0]], [[0]]], n_procs=2
        )
        m = sorted_greedy_hyp(hg)
        st = load_stats(m)
        assert st.makespan == 2.0
        assert st.idle_procs == 1
        assert st.imbalance == 1.0  # 2 / 1 - 1
        assert st.l2_cost == 3.0
        assert "idle processors: 1" in st.describe()

    def test_describe_runs(self):
        hg = generate_multiproc(50, 16, g=2, dv=2, dh=2, seed=0)
        st = load_stats(sorted_greedy_hyp(hg))
        assert "makespan" in st.describe()
