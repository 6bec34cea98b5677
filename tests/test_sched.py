"""Tests for the user-facing scheduling layer (repro.sched)."""

import numpy as np
import pytest

from repro.core import GraphStructureError
from repro import solve
from repro.sched import SchedulingProblem


@pytest.fixture
def hetero_problem():
    prob = SchedulingProblem(processors=["cpu0", "cpu1", "gpu"])
    prob.add_task("render", [(("gpu",), 2.0), (("cpu0", "cpu1"), 5.0)])
    prob.add_task("encode", [(("cpu0",), 3.0), (("cpu1",), 3.0)])
    prob.add_task("mix", [(("cpu1",), 1.0), (("gpu",), 4.0)])
    return prob


class TestModel:
    def test_duplicate_processors(self):
        with pytest.raises(GraphStructureError, match="duplicate"):
            SchedulingProblem(processors=["a", "a"])

    def test_unknown_processor(self):
        prob = SchedulingProblem(processors=["a"])
        with pytest.raises(GraphStructureError, match="unknown processor"):
            prob.add_task("t", [(("b",), 1.0)])

    def test_empty_configuration_set(self):
        prob = SchedulingProblem(processors=["a"])
        with pytest.raises(GraphStructureError, match="at least one"):
            prob.add_task("t", [])

    def test_empty_processor_set(self):
        prob = SchedulingProblem(processors=["a"])
        with pytest.raises(GraphStructureError, match="empty processor"):
            prob.add_task("t", [((), 1.0)])

    def test_duplicate_processor_in_config(self):
        prob = SchedulingProblem(processors=["a"])
        with pytest.raises(GraphStructureError, match="repeats"):
            prob.add_task("t", [(("a", "a"), 1.0)])

    def test_nonpositive_time(self):
        prob = SchedulingProblem(processors=["a"])
        with pytest.raises(GraphStructureError, match="non-positive"):
            prob.add_task("t", [(("a",), 0.0)])

    def test_flags(self, hetero_problem):
        assert not hetero_problem.is_singleproc
        assert not hetero_problem.is_unit
        seq = SchedulingProblem(processors=["a", "b"])
        seq.add_sequential_task("t", [("a", 1.0), ("b", 1.0)])
        assert seq.is_singleproc
        assert seq.is_unit

    def test_proc_name_index_roundtrip(self, hetero_problem):
        for i, name in enumerate(hetero_problem.processors):
            assert hetero_problem.proc_index(name) == i
            assert hetero_problem.proc_name(i) == name

    def test_to_hypergraph(self, hetero_problem):
        hg = hetero_problem.to_hypergraph()
        hg.validate()
        assert hg.n_tasks == 3
        assert hg.n_hedges == 6
        assert hg.hedge_w.tolist() == [2.0, 5.0, 3.0, 3.0, 1.0, 4.0]

    def test_to_bipartite_rejects_parallel(self, hetero_problem):
        with pytest.raises(GraphStructureError, match="MULTIPROC"):
            hetero_problem.to_bipartite()

    def test_to_bipartite(self):
        prob = SchedulingProblem(processors=["a", "b"])
        prob.add_sequential_task("t1", [("a", 2.0), ("b", 1.0)])
        prob.add_sequential_task("t2", [("a", 1.0)])
        g = prob.to_bipartite()
        assert g.n_edges == 3
        assert g.weights.tolist() == [2.0, 1.0, 1.0]


class TestSolve:
    def test_auto_multiproc(self, hetero_problem):
        s = solve(hetero_problem)
        assert s.makespan == 3.0
        alloc = s.allocation()
        assert alloc["render"] == ("gpu",)
        assert set(alloc) == {"render", "encode", "mix"}

    def test_auto_exact_for_unit_singleproc(self):
        prob = SchedulingProblem(processors=["a", "b"])
        for i in range(4):
            prob.add_sequential_task(f"t{i}", [("a", 1.0), ("b", 1.0)])
        s = solve(prob)
        assert s.makespan == 2.0  # exact: 4 unit tasks over 2 procs

    def test_named_hypergraph_methods(self, hetero_problem):
        for method in ("SGH", "VGH", "EGH", "EVG"):
            s = solve(hetero_problem, method=method)
            assert s.makespan >= 3.0

    def test_exhaustive(self, hetero_problem):
        assert solve(hetero_problem, method="exhaustive").makespan == 3.0

    def test_grasp_method(self, hetero_problem):
        s = solve(hetero_problem, method="grasp")
        assert s.makespan == 3.0  # optimal on this tiny instance

    def test_bipartite_method_on_parallel_problem_rejected(
        self, hetero_problem
    ):
        with pytest.raises(ValueError, match="SINGLEPROC algorithm"):
            solve(hetero_problem, method="sorted-greedy")

    def test_bipartite_method_on_sequential_problem(self):
        prob = SchedulingProblem(processors=["a", "b"])
        prob.add_sequential_task("t1", [("a", 2.0), ("b", 1.0)])
        s = solve(prob, method="sorted-greedy")
        assert s.makespan == 1.0

    def test_unknown_method(self, hetero_problem):
        with pytest.raises(ValueError, match="unknown method"):
            solve(hetero_problem, method="quantum")

    def test_refine_never_worsens(self, hetero_problem):
        base = solve(hetero_problem, method="SGH")
        refined = solve(hetero_problem, method="SGH+ls")
        assert refined.makespan <= base.makespan

    def test_empty_problem(self):
        prob = SchedulingProblem(processors=["a"])
        s = solve(prob)
        assert s.makespan == 0.0


class TestSchedule:
    def test_loads_sum_to_total_work(self, hetero_problem):
        s = solve(hetero_problem)
        loads = s.loads()
        hg = hetero_problem.to_hypergraph()
        chosen = s.matching.hedge_of_task
        work = sum(
            float(hg.hedge_w[h]) * len(hg.hedge_proc_set(int(h)))
            for h in chosen
        )
        assert sum(loads.values()) == pytest.approx(work)

    def test_timeline_consistent(self, hetero_problem):
        s = solve(hetero_problem)
        parts = s.timeline()
        # per processor: parts are back to back, ending at the load
        loads = s.loads()
        ends = {}
        for part in parts:
            assert part.end > part.start
            prev = ends.get(part.processor, 0.0)
            assert part.start == pytest.approx(prev)
            ends[part.processor] = part.end
        for proc, end in ends.items():
            assert end == pytest.approx(loads[proc])
        assert max(ends.values()) == pytest.approx(s.makespan)

    def test_parallel_task_appears_on_all_procs(self):
        prob = SchedulingProblem(processors=["a", "b"])
        prob.add_task("par", [(("a", "b"), 2.0)])
        s = solve(prob)
        parts = s.timeline()
        assert {p.processor for p in parts} == {"a", "b"}
        assert all(p.task == "par" for p in parts)

    def test_gantt_and_summary_render(self, hetero_problem):
        s = solve(hetero_problem)
        text = s.gantt(width=30)
        assert "makespan" in text
        assert "cpu0" in text
        summary = s.summary()
        assert "makespan" in summary
        assert "3 tasks" in summary
