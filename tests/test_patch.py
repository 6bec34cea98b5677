"""Row-store compilation == the per-task reference, array for array.

:meth:`DynamicInstance.compile` lowers the instance's row store to a
:class:`~repro.core.hypergraph.TaskHypergraph` in one vectorized pass.
It promises *bit-identical* arrays — hypergraph CSR (the lazily built
processor index included), every ``CompiledKernels`` field, handle
mappings, digests — to :meth:`DynamicInstance._compile_reference`, the
retained one-task-at-a-time compile, across any mutation stream:
weight updates, task and processor add/remove, remove-then-re-add,
rollback, store compaction and the ``to_state``/``from_state`` round
trip.  This module holds it to that with Hypothesis differential
properties plus targeted unit tests for each edge of the lifecycle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.core.errors import GraphStructureError, InfeasibleError
from repro.dynamic import DynamicInstance
from repro.engine.cache import instance_digest, structure_digest
from repro.generators import generate_multiproc
from repro.kernels import compile_instance
from repro.kernels.compiled import _compile

from strategies import apply_random_mutations, generated_instances

_HG_FIELDS = (
    "hedge_task",
    "hedge_ptr",
    "hedge_procs",
    "hedge_w",
    "task_ptr",
    "task_hedges",
    "proc_ptr",
    "proc_hedges",
)
_KERNEL_FIELDS = (
    "g_hedge",
    "g_size",
    "g_ptr",
    "g_pins",
    "pin_shift",
    "hedge_gpos",
    "reduceat_offsets",
    "pin_cells",
)


def assert_identical_compilation(inst: DynamicInstance) -> None:
    """The snapshot of ``inst`` equals the per-task reference
    compilation of the same state, bit for bit."""
    compiled = inst.compile()
    oracle = inst._compile_reference()
    for f in _HG_FIELDS:
        a = getattr(compiled.hypergraph, f)
        b = getattr(oracle.hypergraph, f)
        assert a.dtype == b.dtype, f
        np.testing.assert_array_equal(a, b, err_msg=f)
    assert compiled.task_handles == oracle.task_handles
    assert compiled.proc_handles == oracle.proc_handles
    for f in ("hedge_handles", "hedge_slots"):
        a, b = getattr(compiled, f), getattr(oracle, f)
        assert a.dtype == b.dtype, f
        np.testing.assert_array_equal(a, b, err_msg=f)
    digest = instance_digest(oracle.hypergraph)
    assert inst.digest() == digest
    # the kernels every solver of this version shares vs a fresh compile
    ck = inst.compiled_kernels()
    assert ck.hypergraph is compiled.hypergraph  # bound to this version
    structure = structure_digest(oracle.hypergraph)
    ok = _compile(oracle.hypergraph, structure)
    for f in _KERNEL_FIELDS:
        a, b = getattr(ck, f), getattr(ok, f)
        assert a.dtype == b.dtype, f
        np.testing.assert_array_equal(a, b, err_msg=f)
    assert ck.task_repeats == ok.task_repeats
    assert ck.digest == ok.digest == structure


def _fresh():
    hg = generate_multiproc(16, 8, g=4, seed=11)
    return DynamicInstance.from_hypergraph(hg)


def _count_compactions(inst: DynamicInstance) -> list:
    """Record every store compaction of ``inst`` in the returned list."""
    calls: list = []
    store = inst._store
    compact = store.compact

    def counted() -> None:
        calls.append(store.n_rows)
        compact()

    store.compact = counted
    return calls


class TestDifferential:
    @given(hg=generated_instances(max_tasks=24), seed=st.integers(0, 9999))
    @settings(max_examples=40, deadline=None)
    def test_random_streams_compile_identically(self, hg, seed):
        inst = DynamicInstance.from_hypergraph(hg)
        rng = np.random.default_rng(seed)
        assert_identical_compilation(inst)
        for _ in range(4):
            apply_random_mutations(inst, rng, 4)
            assert_identical_compilation(inst)

    @given(hg=generated_instances(max_tasks=24), seed=st.integers(0, 9999))
    @settings(max_examples=40, deadline=None)
    def test_per_mutation_emission_compiles_identically(self, hg, seed):
        """Compiling after *every* record — the solve-per-mutate
        session pattern — equals the reference at each step."""
        inst = DynamicInstance.from_hypergraph(hg)
        rng = np.random.default_rng(seed)
        inst.compile()
        for _ in range(10):
            apply_random_mutations(inst, rng, 1)
            assert_identical_compilation(inst)

    def test_long_stream_crosses_compaction(self):
        hg = generate_multiproc(30, 8, g=4, seed=3)
        inst = DynamicInstance.from_hypergraph(hg)
        compactions = _count_compactions(inst)
        rng = np.random.default_rng(7)
        for _ in range(12):
            apply_random_mutations(inst, rng, 6)
            # departures outpace arrivals, so garbage rows pile up
            inst.remove_task(inst.tasks()[0])
            assert_identical_compilation(inst)
        # enough removals happened to repack the row store at least
        # once, so the property above covered a compacted store too
        assert compactions


class TestLifecycleEdges:
    def test_remove_then_readd_task(self):
        inst = _fresh()
        inst.compile()
        task = inst.tasks()[3]
        confs = [(pins, w) for _, pins, w in inst.task_configs(task)]
        inst.remove_task(task)
        assert_identical_compilation(inst)
        new = inst.add_task(confs)
        assert new != task  # handles are never reused
        assert_identical_compilation(inst)

    def test_weight_edit_after_struct_op_in_same_batch(self):
        """A weight edit landing after a task add/remove, before the
        next compile, shows in that compile."""
        inst = _fresh()
        inst.compile()
        # remove-then-edit in one uncompiled batch
        victim = inst.tasks()[0]
        inst.remove_task(victim)
        survivor = inst.tasks()[0]
        idx, _pins, w = inst.task_configs(survivor)[0]
        inst.update_weight(survivor, idx, w + 3.5)
        assert_identical_compilation(inst)
        # add-then-edit in one uncompiled batch
        procs = inst.procs()
        new = inst.add_task([([procs[0]], 2.0)])
        inst.update_weight(new, 0, 7.25)
        assert_identical_compilation(inst)

    def test_remove_then_readd_processor(self):
        inst = _fresh()
        inst.compile()
        # removing a processor disables every configuration pinned to
        # it; re-adding yields a fresh handle, so the dense remap shifts
        for proc in inst.procs():
            try:
                inst.remove_processor(proc)
                break
            except InfeasibleError:
                continue
        else:
            pytest.skip("no removable processor in this instance")
        assert_identical_compilation(inst)
        inst.add_processor()
        assert_identical_compilation(inst)

    def test_rollback_across_compaction_recompiles_identically(self):
        inst = _fresh()
        baseline = inst.compiled_kernels()
        compactions = _count_compactions(inst)
        marker = inst.snapshot()
        for task in inst.tasks()[:12]:
            inst.remove_task(task)
        apply_random_mutations(inst, np.random.default_rng(5), 8)
        assert compactions  # the store was repacked past the marker
        assert_identical_compilation(inst)
        inst.rollback(marker)
        assert_identical_compilation(inst)
        assert inst.compiled_kernels().digest == baseline.digest

    def test_from_state_round_trip_compiles_identically(self):
        inst = _fresh()
        apply_random_mutations(inst, np.random.default_rng(9), 12)
        clone = DynamicInstance.from_state(inst.to_state())
        assert_identical_compilation(clone)
        a, b = inst.compile(), clone.compile()
        for f in _HG_FIELDS:
            np.testing.assert_array_equal(
                getattr(a.hypergraph, f), getattr(b.hypergraph, f), f
            )
        np.testing.assert_array_equal(a.hedge_slots, b.hedge_slots)
        assert clone.digest() == inst.digest()

    def test_mutations_after_digest_still_write_the_store(self):
        """``instance_digest`` freezes the arrays it hashes, so no
        compiled array may alias the row store: every later mutation
        must still be able to write it."""
        inst = _fresh()
        inst.digest()
        inst.compiled_kernels()
        task = inst.tasks()[0]
        idx, _pins, w = inst.task_configs(task)[0]
        inst.update_weight(task, idx, w + 1.0)
        inst.digest()
        for proc in inst.procs():
            try:
                inst.remove_processor(proc)
                break
            except InfeasibleError:
                continue
        inst.digest()
        inst.rollback(0)
        assert_identical_compilation(inst)


class TestAssignmentToDense:
    def test_missing_task_or_dead_slot_is_a_typed_error(self):
        inst = _fresh()
        for proc in inst.procs():
            try:
                inst.remove_processor(proc)
                break
            except InfeasibleError:
                continue
        compiled = inst.compile()
        assignment = {t: inst.task_configs(t)[0][0] for t in inst.tasks()}
        first = inst.tasks()[0]
        with pytest.raises(GraphStructureError, match="no configuration"):
            compiled.assignment_to_dense(
                {t: j for t, j in assignment.items() if t != first}
            )
        dead = [
            (t, j)
            for t in inst.tasks()
            for j, (_pins, _w, alive) in enumerate(inst._store.configs(t))
            if not alive
        ]
        assert dead, "the processor removal disabled no configuration"
        task, slot = dead[0]
        with pytest.raises(GraphStructureError, match="no alive"):
            compiled.assignment_to_dense({**assignment, task: slot})
        with pytest.raises(GraphStructureError, match="no alive"):
            compiled.assignment_to_dense({**assignment, first: 99})


def test_compiled_kernels_is_the_cached_compile():
    """``compiled_kernels()`` goes through the compile cache under the
    snapshot's structure digest, so a solver compiling
    ``to_hypergraph()`` gets the very same artifact."""
    hg = generate_multiproc(16, 8, g=4, seed=29)
    inst = DynamicInstance.from_hypergraph(hg)
    inst.add_processor()
    kernels = inst.compiled_kernels()
    assert compile_instance(inst.to_hypergraph()) is kernels
