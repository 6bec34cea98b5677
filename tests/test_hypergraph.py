"""Tests for repro.core.hypergraph."""

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import BipartiteGraph, GraphStructureError, TaskHypergraph

from strategies import task_hypergraphs


class TestConstruction:
    def test_from_hyperedges_basic(self):
        hg = TaskHypergraph.from_hyperedges(
            2, 3, [0, 0, 1], [[0], [1, 2], [2]]
        )
        assert hg.n_tasks == 2
        assert hg.n_hedges == 3
        assert hg.total_pins == 4
        assert hg.hedge_proc_set(1).tolist() == [1, 2]
        assert hg.task_hedge_ids(0).tolist() == [0, 1]
        assert hg.task_hedge_ids(1).tolist() == [2]

    def test_from_configurations(self, fig2_hypergraph):
        hg = fig2_hypergraph
        assert hg.n_tasks == 4
        assert hg.n_procs == 3
        assert hg.n_hedges == 6
        assert hg.task_degrees().tolist() == [2, 2, 1, 1]
        assert hg.hedge_sizes().tolist() == [1, 2, 2, 1, 1, 1]

    def test_pin_order_preserved(self):
        hg = TaskHypergraph.from_hyperedges(1, 4, [0], [[3, 0, 2]])
        assert hg.hedge_proc_set(0).tolist() == [3, 0, 2]

    def test_empty_pin_list_rejected(self):
        with pytest.raises(GraphStructureError, match="empty processor set"):
            TaskHypergraph.from_hyperedges(1, 2, [0], [[]])

    def test_duplicate_pin_rejected(self):
        with pytest.raises(GraphStructureError, match="duplicate"):
            TaskHypergraph.from_hyperedges(1, 2, [0], [[1, 1]])

    def test_task_out_of_range(self):
        with pytest.raises(GraphStructureError, match="task id"):
            TaskHypergraph.from_hyperedges(1, 2, [3], [[0]])

    def test_proc_out_of_range(self):
        with pytest.raises(GraphStructureError, match="processor id"):
            TaskHypergraph.from_hyperedges(1, 2, [0], [[9]])

    def test_length_mismatch(self):
        with pytest.raises(GraphStructureError, match="processor\\s+lists"):
            TaskHypergraph.from_hyperedges(1, 2, [0, 0], [[0]])

    def test_weights_shape(self):
        with pytest.raises(GraphStructureError, match="one entry per"):
            TaskHypergraph.from_hyperedges(1, 2, [0], [[0]], [1.0, 2.0])

    def test_configuration_weights_must_mirror(self):
        with pytest.raises(GraphStructureError, match="mirror"):
            TaskHypergraph.from_configurations(
                [[[0], [1]]], n_procs=2, weights=[[1.0]]
            )


class TestFromCsr:
    def test_pointer_checks(self):
        with pytest.raises(GraphStructureError, match="plus one"):
            TaskHypergraph.from_csr(1, 2, [0], [0], [0])
        with pytest.raises(GraphStructureError, match="CSR pointer"):
            TaskHypergraph.from_csr(1, 2, [0], [1, 1], [0])
        with pytest.raises(GraphStructureError, match="CSR pointer"):
            TaskHypergraph.from_csr(1, 2, [0, 0], [0, 2, 1], [0])
        with pytest.raises(GraphStructureError, match="empty processor"):
            TaskHypergraph.from_csr(1, 2, [0, 0], [0, 0, 1], [0])

    def test_duplicate_found_in_sorted_and_unsorted_hyperedges(self):
        with pytest.raises(GraphStructureError, match="hyperedge 1 contains"):
            TaskHypergraph.from_csr(1, 3, [0, 0], [0, 1, 4], [0, 0, 1, 1])
        with pytest.raises(GraphStructureError, match="hyperedge 1 contains"):
            TaskHypergraph.from_csr(1, 3, [0, 0], [0, 1, 4], [0, 2, 1, 2])
        # equal pins in *different* hyperedges are fine
        TaskHypergraph.from_csr(1, 3, [0, 0], [0, 2, 4], [2, 1, 2, 1])

    @given(task_hypergraphs(max_tasks=9, max_procs=7))
    @settings(max_examples=40, deadline=None)
    def test_indexes_are_the_stable_groupings(self, hg):
        assert np.array_equal(
            hg.task_hedges, np.argsort(hg.hedge_task, kind="stable")
        )
        counts = np.bincount(hg.hedge_task, minlength=hg.n_tasks)
        assert np.array_equal(hg.task_ptr[1:], np.cumsum(counts))
        owner = np.repeat(np.arange(hg.n_hedges), hg.hedge_sizes())
        assert np.array_equal(
            hg.proc_hedges,
            owner[np.argsort(hg.hedge_procs, kind="stable")],
        )


class TestProcIndex:
    def test_proc_hedges_inverse(self, fig2_hypergraph):
        hg = fig2_hypergraph
        # every (hyperedge, pin) appears exactly once in the processor index
        from_pins = sorted(
            (int(u), h)
            for h in range(hg.n_hedges)
            for u in hg.hedge_proc_set(h)
        )
        from_index = sorted(
            (u, int(h))
            for u in range(hg.n_procs)
            for h in hg.proc_hedges[hg.proc_ptr[u] : hg.proc_ptr[u + 1]]
        )
        assert from_pins == from_index


class TestValidateAndWeights:
    def test_task_without_configuration(self):
        hg = TaskHypergraph.from_hyperedges(2, 2, [0], [[0]])
        with pytest.raises(GraphStructureError, match="task 1 has no"):
            hg.validate()
        hg.validate(require_total=False)

    def test_with_weights(self, fig2_hypergraph):
        w = np.arange(1, 7, dtype=float)
        hg = fig2_hypergraph.with_weights(w)
        assert not hg.is_unit
        assert hg.unit().is_unit
        with pytest.raises(GraphStructureError):
            fig2_hypergraph.with_weights(np.array([1.0]))
        with pytest.raises(GraphStructureError):
            fig2_hypergraph.with_weights(-w)


class TestBipartiteBridge:
    def test_roundtrip_via_bipartite(self):
        g = BipartiteGraph.from_neighbor_lists(
            [[0, 2], [1]], n_procs=3, weights=[[2.0, 3.0], [4.0]]
        )
        hg = TaskHypergraph.from_bipartite(g)
        assert hg.is_bipartite_graph()
        g2 = hg.to_bipartite()
        assert np.array_equal(g2.task_adj, g.task_adj)
        assert np.array_equal(g2.weights, g.weights)

    def test_to_bipartite_rejects_parallel_tasks(self, fig2_hypergraph):
        assert not fig2_hypergraph.is_bipartite_graph()
        with pytest.raises(GraphStructureError, match="multi-processor"):
            fig2_hypergraph.to_bipartite()


@given(task_hypergraphs())
@settings(max_examples=50, deadline=None)
def test_indices_consistent(hg):
    """Property: the three CSR indexes describe the same hypergraph."""
    hg.validate()
    assert hg.task_degrees().sum() == hg.n_hedges
    assert hg.hedge_sizes().sum() == hg.total_pins
    # hedge_task and task_hedges are inverse relations
    for i in range(hg.n_tasks):
        for h in hg.task_hedge_ids(i):
            assert int(hg.hedge_task[h]) == i
    counts = np.zeros(hg.n_tasks, dtype=int)
    np.add.at(counts, hg.hedge_task, 1)
    assert np.array_equal(counts, hg.task_degrees())
