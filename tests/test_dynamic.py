"""The dynamic subsystem: DynamicInstance, IncrementalSolver, traces.

The load-bearing guarantees:

* after *any* mutation sequence the solver's loads equal an independent
  recomputation on the final instance, and its matching validates;
* with the fallback threshold at zero the solver degenerates to a full
  re-solve per mutation, so its bottleneck **equals** a from-scratch
  registry solve of the final instance (Hypothesis-proved);
* with the default threshold, ``compact()`` guarantees the bottleneck
  never exceeds a from-scratch solve of the same content;
* rollback restores the content digest exactly, and the digest keys the
  engine's shared result cache precisely.
"""

import json

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import SolveOptions, get_registry
from repro.core import TaskHypergraph
from repro.core.errors import (
    GraphStructureError,
    InfeasibleError,
)
from repro.core.validation import compute_loads_hypergraph
from repro.dynamic import (
    DeltaJournal,
    DynamicInstance,
    IncrementalSolver,
    Mutation,
    load_trace,
    save_trace,
    trace_of,
)
from repro.engine.cache import ResultCache, instance_digest
from repro.engine.dispatch import solve_hypergraph
from repro.generators import churn_trace, generate_multiproc

from strategies import apply_random_mutations, random_hypergraph


def small_hg(seed: int = 0) -> TaskHypergraph:
    return generate_multiproc(
        24, 6, g=2, dv=3, dh=3, weights="related", seed=seed
    )


def assert_consistent(inst: DynamicInstance, solver: IncrementalSolver):
    """Solver state matches an independent recomputation."""
    matching = solver.matching()  # HyperSemiMatching validates on build
    hg = inst.to_hypergraph()
    oracle = compute_loads_hypergraph(hg, matching.hedge_of_task)
    loads = solver.loads()
    dense = np.array([loads[u] for u in sorted(loads)])
    assert np.allclose(dense, oracle)
    assert solver.bottleneck() == pytest.approx(matching.makespan)


# ---------------------------------------------------------------------------
# DynamicInstance
# ---------------------------------------------------------------------------
class TestDynamicInstance:
    def test_handles_are_stable_across_churn(self):
        inst = DynamicInstance()
        a = inst.add_processor()
        b = inst.add_processor()
        t0 = inst.add_task([((a,), 1.0)])
        t1 = inst.add_task([((a,), 2.0), ((b,), 3.0)])
        inst.remove_task(t0)
        t2 = inst.add_task([((b,), 1.0)])
        assert (t0, t1, t2) == (0, 1, 2)  # never reused
        assert inst.tasks() == [1, 2]
        assert inst.task_configs(t1) == [(0, (a,), 2.0), (1, (b,), 3.0)]

    def test_from_hypergraph_round_trips(self):
        """The round-trip is the canonical (task-grouped) equivalent of
        the input: same per-task configurations, digest a fixpoint."""
        hg = small_hg()
        inst = DynamicInstance.from_hypergraph(hg)
        back = inst.to_hypergraph()
        assert (back.n_tasks, back.n_procs, back.n_hedges) == (
            hg.n_tasks, hg.n_procs, hg.n_hedges,
        )
        for i in range(hg.n_tasks):
            orig = {
                (tuple(hg.hedge_proc_set(int(h))), float(hg.hedge_w[int(h)]))
                for h in hg.task_hedge_ids(i)
            }
            rt = {
                (
                    tuple(back.hedge_proc_set(int(h))),
                    float(back.hedge_w[int(h)]),
                )
                for h in back.task_hedge_ids(i)
            }
            assert rt == orig
        assert inst.digest() == instance_digest(back)
        # canonicalisation is a fixpoint: re-seeding keeps the digest
        assert DynamicInstance.from_hypergraph(back).digest() == inst.digest()

    def test_compile_is_cached_by_version(self):
        inst = DynamicInstance.from_hypergraph(small_hg())
        c1 = inst.compile()
        assert inst.compile() is c1
        inst.add_processor()
        assert inst.compile() is not c1

    def test_remove_processor_disables_configs(self):
        inst = DynamicInstance()
        a, b = inst.add_processor(), inst.add_processor()
        t = inst.add_task([((a,), 1.0), ((b,), 2.0)])
        inst.remove_processor(a)
        assert inst.task_configs(t) == [(1, (b,), 2.0)]
        pins, w, alive = inst._store.configs(t)[0]
        assert (pins, alive) == ((a,), False)

    def test_remove_processor_infeasible_changes_nothing(self):
        inst = DynamicInstance()
        a = inst.add_processor()
        inst.add_task([((a,), 1.0)])
        before = inst.snapshot()
        with pytest.raises(InfeasibleError):
            inst.remove_processor(a)
        assert inst.snapshot() == before  # nothing journaled
        assert inst.has_proc(a)

    def test_row_store_compaction_keeps_config_indices(self):
        """Departed tasks leave garbage rows that compaction reclaims;
        configuration indices, disabled slots and rollback survive it."""
        inst = DynamicInstance()
        a, b, c = (inst.add_processor() for _ in range(3))
        keep = inst.add_task([((a,), 1.0), ((b,), 2.0), ((b, c), 3.0)])
        gone = inst.add_task([((c,), 4.0), ((a, b), 5.0)])
        inst.remove_processor(a)  # keep's config 0 is now a dead slot
        solver = IncrementalSolver(inst)
        mark = inst.snapshot()
        digest = inst.digest()
        inst.remove_task(gone)
        for i in range(40):
            inst.remove_task(inst.add_task([((b,), i + 1.0), ((c,), 1.0)]))
        # compaction keeps the store within twice its live rows
        assert inst._store.n_rows <= 2 * 3 + 2
        assert inst.task_configs(keep) == [(1, (b,), 2.0), (2, (b, c), 3.0)]
        assert inst._store.configs(keep)[0] == ((a,), 1.0, False)
        assert_consistent(inst, solver)
        inst.rollback(mark)
        assert inst.digest() == digest
        assert inst.task_configs(gone) == [(0, (c,), 4.0)]
        assert inst._store.configs(gone)[1] == ((a, b), 5.0, False)
        assert_consistent(inst, solver)

    def test_validation_errors(self):
        inst = DynamicInstance()
        a = inst.add_processor()
        with pytest.raises(GraphStructureError):
            inst.add_task([])
        with pytest.raises(GraphStructureError):
            inst.add_task([((), 1.0)])
        with pytest.raises(GraphStructureError):
            inst.add_task([((a + 7,), 1.0)])
        with pytest.raises(GraphStructureError):
            inst.add_task([((a,), -1.0)])
        t = inst.add_task([((a,), 1.0)])
        with pytest.raises(GraphStructureError):
            inst.update_weight(t, 5, 1.0)
        with pytest.raises(GraphStructureError):
            inst.update_weight(t, 0, float("inf"))
        with pytest.raises(GraphStructureError):
            inst.remove_task(t + 99)

    def test_snapshot_rollback_restores_digest_and_handles(self):
        inst = DynamicInstance.from_hypergraph(small_hg())
        d0 = inst.digest()
        mark = inst.snapshot()
        rng = np.random.default_rng(2)
        apply_random_mutations(inst, rng, 12)
        assert inst.digest() != d0
        applied = len(inst.journal) - mark
        assert inst.rollback(mark) == applied
        assert len(inst.journal) == mark  # journal truncated
        assert inst.digest() == d0
        # handle counters restored too: the same ops assign the same ids
        t = inst.add_task([((inst.procs()[0],), 1.0)])
        inst.rollback(mark)
        assert inst.add_task([((inst.procs()[0],), 1.0)]) == t

    def test_replay_reproduces_content(self):
        hg = small_hg(3)
        a = DynamicInstance.from_hypergraph(hg)
        apply_random_mutations(a, np.random.default_rng(5), 15)
        b = DynamicInstance.from_hypergraph(hg)
        b.replay(trace_of(a))
        assert b.digest() == a.digest()

    def test_replay_on_wrong_baseline_is_detected(self):
        a = DynamicInstance()
        p = a.add_processor()
        a.add_task([((p,), 1.0)])
        b = DynamicInstance()
        b.add_processor()
        b.add_task([((0,), 1.0)])  # consumes handle 0 already
        with pytest.raises(GraphStructureError, match="wrong baseline"):
            b.replay(trace_of(a))

    def test_cache_key_integration(self):
        inst = DynamicInstance.from_hypergraph(small_hg())
        cache = ResultCache()
        key = inst.cache_key(SolveOptions(method="EVG"))
        m = solve_hypergraph(inst.to_hypergraph(), method="EVG")
        cache.put(key, m.hedge_of_task)
        # equivalent option spellings share the entry
        alt = inst.cache_key(SolveOptions(method="expected-vector-greedy-hyp"))
        assert alt == key
        assert cache.get(alt) is not None
        # a mutation re-keys; rollback restores the key exactly
        mark = inst.snapshot()
        inst.add_processor()
        assert inst.cache_key(SolveOptions(method="EVG")) != key
        inst.rollback(mark)
        assert inst.cache_key(SolveOptions(method="EVG")) == key


# ---------------------------------------------------------------------------
# journal types
# ---------------------------------------------------------------------------
class TestJournal:
    def test_mutation_dict_round_trip(self):
        m = Mutation("add_task", {"task": 3, "configs": [[[0, 1], 2.0]]})
        assert Mutation.from_dict(m.to_dict()) == m
        with pytest.raises(ValueError):
            Mutation("explode", {})
        with pytest.raises(ValueError):
            Mutation.from_dict({"task": 1})

    def test_truncate_counts_and_orders(self):
        j = DeltaJournal()
        for i in range(4):
            j.append(Mutation("add_processor", {"proc": i}))
        mark = 1
        dropped = j.truncate(mark)
        assert [m.payload["proc"] for m in dropped] == [3, 2, 1]  # undo order
        assert len(j) == 1 and j.truncations == 1
        assert j.truncate(1) == [] and j.truncations == 1  # no-op
        with pytest.raises(ValueError):
            j.truncate(9)


# ---------------------------------------------------------------------------
# IncrementalSolver
# ---------------------------------------------------------------------------
class TestIncrementalSolver:
    def test_docstring_scenario(self):
        inst = DynamicInstance()
        cpu, gpu = inst.add_processor(), inst.add_processor()
        solver = IncrementalSolver(inst)
        inst.add_task([((cpu,), 3.0), ((gpu,), 2.0)])
        assert solver.bottleneck() == 2.0
        inst.remove_processor(gpu)
        assert solver.bottleneck() == 3.0
        assert solver.loads() == {cpu: 3.0}

    def test_tracks_scripted_churn(self):
        inst = DynamicInstance.from_hypergraph(small_hg(1))
        solver = IncrementalSolver(inst)
        apply_random_mutations(inst, np.random.default_rng(7), 40)
        assert_consistent(inst, solver)
        assert solver.stats.mutations == len(inst.journal)

    def test_rollback_forces_resync(self):
        inst = DynamicInstance.from_hypergraph(small_hg(2))
        solver = IncrementalSolver(inst)
        mark = inst.snapshot()
        apply_random_mutations(inst, np.random.default_rng(0), 8)
        inst.rollback(mark)
        assert_consistent(inst, solver)
        assert solver.bottleneck() == pytest.approx(
            solve_hypergraph(inst.to_hypergraph(), method="auto").makespan
        )

    def test_detach_stops_tracking(self):
        inst = DynamicInstance.from_hypergraph(small_hg())
        solver = IncrementalSolver(inst)
        before = solver.bottleneck()
        solver.detach()
        inst.add_processor()
        inst.add_task([((inst.procs()[0],), 100.0)])
        # detached: the maintained state is frozen at detach time, and
        # the accessors answer from it instead of syncing
        assert solver.bottleneck() == before

    def test_compact_never_worse_than_scratch(self):
        inst = DynamicInstance.from_hypergraph(small_hg(4))
        solver = IncrementalSolver(inst)
        apply_random_mutations(inst, np.random.default_rng(11), 25)
        fresh = solve_hypergraph(inst.to_hypergraph(), method="auto")
        assert solver.compact() <= fresh.makespan + 1e-9
        assert_consistent(inst, solver)

    def test_threshold_zero_always_resolves(self):
        inst = DynamicInstance.from_hypergraph(small_hg(5))
        solver = IncrementalSolver(
            inst, fallback_ratio=0.0, min_fallback_region=0
        )
        apply_random_mutations(inst, np.random.default_rng(3), 6)
        assert solver.stats.local_repairs == 0
        assert solver.bottleneck() == solve_hypergraph(
            inst.to_hypergraph(), method="auto"
        ).makespan

    def test_bad_parameters(self):
        with pytest.raises(ValueError):
            IncrementalSolver(fallback_ratio=-1)
        with pytest.raises(ValueError):
            IncrementalSolver(min_fallback_region=-1)
        with pytest.raises(ValueError):
            IncrementalSolver(ls_moves=-1)
        with pytest.raises(TypeError):
            IncrementalSolver("not an instance")


# ---------------------------------------------------------------------------
# Hypothesis: the equivalence satellite
# ---------------------------------------------------------------------------
@given(
    seed=st.integers(0, 10_000),
    n_events=st.integers(0, 12),
)
@settings(max_examples=25, deadline=None)
def test_incremental_equals_scratch_under_zero_threshold(seed, n_events):
    """With the fallback threshold at zero every mutation re-solves, so
    after *any* mutation sequence the solver's bottleneck equals a
    from-scratch registry solve of the final instance exactly."""
    rng = np.random.default_rng(seed)
    inst = DynamicInstance.from_hypergraph(random_hypergraph(rng))
    solver = IncrementalSolver(
        inst, fallback_ratio=0.0, min_fallback_region=0
    )
    apply_random_mutations(inst, rng, n_events)
    scratch = solve_hypergraph(inst.to_hypergraph(), method="auto")
    assert solver.bottleneck() == scratch.makespan
    assert_consistent(inst, solver)


@given(
    seed=st.integers(0, 10_000),
    n_events=st.integers(0, 20),
)
@settings(max_examples=25, deadline=None)
def test_incremental_repair_is_consistent_and_compacts_to_scratch(
    seed, n_events
):
    """Default-threshold repair: the maintained state is always exactly
    consistent with the final instance, and ``compact()`` bounds the
    bottleneck by the from-scratch solve of the same content."""
    rng = np.random.default_rng(seed)
    inst = DynamicInstance.from_hypergraph(random_hypergraph(rng))
    solver = IncrementalSolver(inst)
    apply_random_mutations(inst, rng, n_events)
    assert_consistent(inst, solver)
    scratch = solve_hypergraph(inst.to_hypergraph(), method="auto")
    assert solver.compact() <= scratch.makespan + 1e-9
    assert_consistent(inst, solver)


# ---------------------------------------------------------------------------
# traces and the churn generator
# ---------------------------------------------------------------------------
class TestTraces:
    def test_save_load_round_trip_with_baseline(self, tmp_path):
        hg = small_hg(6)
        trace = churn_trace(hg, 10, seed=2)
        path = tmp_path / "churn.jsonl"
        save_trace(path, trace, baseline=hg)
        baseline, mutations = load_trace(path)
        assert [m.to_dict() for m in mutations] == [
            m.to_dict() for m in trace
        ]
        baseline.replay(mutations)
        expected = DynamicInstance.from_hypergraph(hg)
        expected.replay(trace)
        assert baseline.digest() == expected.digest()

    def test_churned_baseline_keeps_handles_and_dead_slots(self, tmp_path):
        """Regression: a DynamicInstance baseline must serialise with
        its exact handles and disabled config slots — compiling it to a
        hypergraph renumbers both and re-targets the tail mutations."""
        inst = DynamicInstance()
        a, b = inst.add_processor(), inst.add_processor()
        t0 = inst.add_task([((a,), 1.0)])
        t1 = inst.add_task([((a,), 3.0), ((b,), 4.0)])
        t2 = inst.add_task([((b,), 5.0)])
        inst.remove_task(t0)  # handles now sparse: {1, 2}
        inst.add_processor()
        inst.remove_processor(a)  # t1's config 0 is now a dead slot
        mark = inst.snapshot()
        checkpoint_state = inst.to_state()  # the pre-tail state
        inst.update_weight(t1, 1, 99.0)  # targets handle 1, config 1
        tail = inst.journal.entries_since(mark)

        path = tmp_path / "tail.jsonl"
        save_trace(
            path, tail, baseline=DynamicInstance.from_state(checkpoint_state)
        )
        reloaded, mutations = load_trace(path)
        reloaded.replay(mutations)
        assert reloaded.digest() == inst.digest()
        assert reloaded.config(t1, 1) == ((b,), 99.0)
        assert reloaded.config(t2, 0) == ((b,), 5.0)  # untouched

    def test_state_round_trip_and_validation(self):
        inst = DynamicInstance.from_hypergraph(small_hg(11))
        apply_random_mutations(inst, np.random.default_rng(13), 20)
        clone = DynamicInstance.from_state(inst.to_state())
        assert clone.digest() == inst.digest()
        assert clone.tasks() == inst.tasks()
        assert clone.procs() == inst.procs()
        # the clone continues numbering where the original would
        probe = inst.snapshot()
        assert clone.add_processor() == inst.add_processor()
        inst.rollback(probe)
        with pytest.raises(GraphStructureError):
            DynamicInstance.from_state({"kind": "hypergraph"})
        bad = inst.to_state()
        bad["next_task"] = 0
        with pytest.raises(GraphStructureError):
            DynamicInstance.from_state(bad)
        # a disabled slot must name a processor handle the counter has
        # issued (the store holds pins as int64)
        bad = inst.to_state()
        bad["tasks"][str(inst.tasks()[0])].append([[2**70], 1.0, False])
        with pytest.raises(GraphStructureError):
            DynamicInstance.from_state(bad)

    def test_state_round_trip_past_one_gather_chunk(self):
        """``to_state`` and the reference compile walk the row store in
        chunks of 1024 tasks; a sparse, churned store past one chunk
        round-trips exactly."""
        hg = generate_multiproc(
            1100, 16, family="fewgmanyg", g=4, weights="related", seed=3
        )
        inst = DynamicInstance.from_hypergraph(hg)
        for task in range(0, 1100, 7):
            inst.remove_task(task)
        clone = DynamicInstance.from_state(inst.to_state())
        assert clone.tasks() == inst.tasks()
        assert clone.digest() == inst.digest()
        assert inst._compile_reference().hedge_slots.tolist() == (
            inst.compile().hedge_slots.tolist()
        )

    def test_trace_without_baseline(self, tmp_path):
        path = tmp_path / "t.jsonl"
        save_trace(path, [Mutation("add_processor", {"proc": 0})])
        baseline, mutations = load_trace(path)
        assert baseline is None and len(mutations) == 1

    def test_trace_format_is_jsonl(self, tmp_path):
        hg = small_hg()
        path = tmp_path / "t.jsonl"
        save_trace(path, churn_trace(hg, 5, seed=0), baseline=hg)
        lines = path.read_text().strip().split("\n")
        header = json.loads(lines[0])
        assert header["kind"] == "mutation-trace"
        assert header["baseline"]["kind"] == "hypergraph"
        assert all("op" in json.loads(line) for line in lines[1:])

    def test_load_rejects_garbage(self, tmp_path):
        path = tmp_path / "bad.jsonl"
        path.write_text("")
        with pytest.raises(GraphStructureError):
            load_trace(path)
        path.write_text(json.dumps({"kind": "hypergraph"}))
        with pytest.raises(GraphStructureError):
            load_trace(path)

    def test_churn_trace_is_deterministic_and_feasible(self):
        hg = small_hg(7)
        t1 = churn_trace(hg, 30, seed=9)
        t2 = churn_trace(hg, 30, seed=9)
        assert [m.to_dict() for m in t1] == [m.to_dict() for m in t2]
        inst = DynamicInstance.from_hypergraph(hg)
        inst.replay(t1)
        inst.to_hypergraph().validate()  # every task kept a configuration

    def test_churn_trace_validates_probabilities(self):
        with pytest.raises(ValueError):
            churn_trace(small_hg(), 5, p_task_swap=0.9, p_weight_drift=0.9)
        with pytest.raises(ValueError):
            churn_trace(small_hg(), -1)


# ---------------------------------------------------------------------------
# registry + engine integration
# ---------------------------------------------------------------------------
class TestRegistryIntegration:
    def test_incremental_is_registered_with_dynamic_capability(self):
        reg = get_registry()
        spec = reg.resolve("incremental")
        assert spec is reg.resolve("dynamic")  # alias
        assert "dynamic" in spec.capabilities
        assert spec in reg.query(capabilities={"dynamic"})

    def test_reachable_from_solve_options(self):
        from repro.api import solve

        hg = small_hg(8)
        result = solve(hg, method="incremental")
        assert result.winner == "incremental"
        # on a static instance the incremental pipeline is the auto pick
        assert result.makespan == solve_hypergraph(
            hg, method="auto"
        ).makespan
        # the matching speaks the *caller's* hyperedge ids, not the
        # dynamic overlay's canonical reordering (regression: the
        # cached assignment must rebuild against the input instance)
        assert result.matching.hypergraph is hg
        again = solve(hg, method="dynamic")  # alias -> same cache entry
        assert again.cache_hit
        assert np.array_equal(again.hedge_of_task, result.hedge_of_task)

    def test_online_scheduler_parity_and_journal_reuse(self):
        from repro.algorithms import OnlineScheduler

        hg = small_hg(9)
        sched = OnlineScheduler.replay_hypergraph(hg, journal_arrivals=True)
        assert sched.bottleneck() == sched.makespan
        assert len(sched.journal) == hg.n_tasks
        assert all(m.op == "add_task" for m in sched.journal)
        # journaling is opt-in: the default stream stays lean and says
        # so when asked for the bridge
        lean = OnlineScheduler.replay_hypergraph(hg)
        assert len(lean.journal) == 0
        with pytest.raises(GraphStructureError, match="journal_arrivals"):
            lean.to_dynamic()
        # the journaled stream replays into the dynamic engine verbatim
        inst = sched.to_dynamic()
        assert inst.n_tasks == hg.n_tasks
        assert inst.n_procs == hg.n_procs
        solver = IncrementalSolver(inst)
        assert_consistent(inst, solver)

    def test_cli_replay_smoke(self, tmp_path, capsys):
        from repro.experiments.cli import main

        hg = small_hg(10)
        path = tmp_path / "churn.jsonl"
        save_trace(path, churn_trace(hg, 8, seed=1), baseline=hg)
        assert main(["replay", str(path), "--compare"]) == 0
        out = capsys.readouterr().out
        assert "mutations" in out
        assert "speedup" in out

    def test_cli_replay_requires_baseline(self, tmp_path):
        from repro.experiments.cli import main

        path = tmp_path / "t.jsonl"
        save_trace(path, [Mutation("add_processor", {"proc": 0})])
        with pytest.raises(SystemExit):
            main(["replay", str(path)])
