"""Patched compilation == from-scratch compilation, array for array.

The :class:`repro.kernels.KernelPatcher` promises that a
:class:`DynamicInstance` with patching enabled (the default) compiles to
*bit-identical* arrays — hypergraph CSR, every ``CompiledKernels``
field, handle mappings, digests — as a from-scratch compile of the same
logical state, across any mutation stream: weight updates (the
copy-on-write fast path), task and processor add/remove (slack rows and
tombstones), remove-then-re-add, rollback, and compaction rebuilds.
This module holds it to that with a Hypothesis differential property
plus targeted unit tests for each edge of the lifecycle.
"""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import DynamicInstance
from repro.engine.cache import instance_digest
from repro.kernels import KernelPatcher, clear_compile_cache, compile_instance
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
    "g_w",
    "g_size",
    "g_ptr",
    "g_pins",
    "g_pin_w",
    "g_pin_row",
    "g_pin_pos",
    "u_ptr",
    "u_procs",
    "hedge_gpos",
)


def assert_identical_compilation(inst: DynamicInstance) -> None:
    """The patched snapshot of ``inst`` equals an independent
    from-scratch compilation of the same state, bit for bit."""
    patched = inst.compile()
    oracle = inst._compile_full()
    # the patcher emits both indexes eagerly; the from-scratch oracle
    # builds them lazily, on the first read below
    assert "_proc_index_memo" in patched.hypergraph.__dict__
    assert "_proc_index_memo" not in oracle.hypergraph.__dict__
    for f in _HG_FIELDS:
        a = getattr(patched.hypergraph, f)
        b = getattr(oracle.hypergraph, f)
        assert a.dtype == b.dtype, f
        np.testing.assert_array_equal(a, b, err_msg=f)
    assert patched.task_handles == oracle.task_handles
    assert patched.proc_handles == oracle.proc_handles
    np.testing.assert_array_equal(patched.hedge_handles, oracle.hedge_handles)
    np.testing.assert_array_equal(patched.hedge_slots, oracle.hedge_slots)
    digest = instance_digest(patched.hypergraph)
    assert digest == instance_digest(oracle.hypergraph)
    # the kernels the patcher emitted vs a from-scratch _compile
    pk = inst.compiled_kernels()
    ok = _compile(oracle.hypergraph, digest)
    assert "_union_memo" in pk.__dict__
    assert "_union_memo" not in ok.__dict__
    for f in _KERNEL_FIELDS:
        a, b = getattr(pk, f), getattr(ok, f)
        assert a.dtype == b.dtype, f
        np.testing.assert_array_equal(a, b, err_msg=f)
    assert pk.digest == ok.digest == digest


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
        """Emitting after *every* mutation drives the delta-splice
        path (single task add/remove over the previous emission) —
        the per-record pattern of a solve-per-mutate session."""
        inst = DynamicInstance.from_hypergraph(hg)
        rng = np.random.default_rng(seed)
        inst.compile()
        for _ in range(10):
            apply_random_mutations(inst, rng, 1)
            assert_identical_compilation(inst)

    def test_delta_emission_edges(self):
        """First/last/only-task removals and multi-config re-adds all
        splice to exactly the from-scratch arrays."""
        from repro.generators import generate_multiproc

        hg = generate_multiproc(12, 8, g=4, seed=17)
        inst = DynamicInstance.from_hypergraph(hg)
        inst.compile()
        # remove the first and the last task (boundary splices)
        for pick in (0, -1):
            inst.remove_task(inst.tasks()[pick])
            assert_identical_compilation(inst)
        # multi-config append
        procs = inst.procs()
        inst.add_task([([procs[0]], 2.0), ([procs[0], procs[1]], 1.5)])
        assert_identical_compilation(inst)
        assert inst.compile_stats()["emits_delta"] >= 3
        # drain to a single task, then remove it too
        while len(inst.tasks()) > 1:
            inst.remove_task(inst.tasks()[0])
            assert_identical_compilation(inst)

    def test_long_stream_crosses_compaction(self):
        hg = __import__("repro.generators", fromlist=["x"]).generate_multiproc(
            30, 8, g=4, seed=3
        )
        inst = DynamicInstance.from_hypergraph(hg)
        rng = np.random.default_rng(7)
        for _ in range(12):
            apply_random_mutations(inst, rng, 6)
            assert_identical_compilation(inst)
        stats = inst.compile_stats()
        # enough removals happened to trip the tombstone threshold at
        # least once — the property above therefore covered the
        # rebuild-from-state path, not just incremental edits
        assert stats["compactions"] >= 1
        assert stats["full_builds"] >= 2  # initial build + rebuild(s)


class TestLifecycleEdges:
    def _fresh(self):
        from repro.generators import generate_multiproc

        hg = generate_multiproc(16, 8, g=4, seed=11)
        return DynamicInstance.from_hypergraph(hg)

    def test_remove_then_readd_task(self):
        inst = self._fresh()
        inst.compile()
        task = inst.tasks()[3]
        confs = [(pins, w) for _, pins, w in inst.task_configs(task)]
        inst.remove_task(task)
        assert_identical_compilation(inst)
        new = inst.add_task(confs)
        assert new != task  # handles are never reused
        assert_identical_compilation(inst)

    def test_weight_edit_after_struct_op_in_same_batch(self):
        """A weight edit landing *after* a task add/remove, before the
        next emission, must void the delta-splice baseline: the splice
        reuses the previous emission's weight arrays, which predate the
        edit (regression: the edit was silently dropped)."""
        inst = self._fresh()
        inst.compile()
        # remove-then-edit in one un-emitted batch
        victim = inst.tasks()[0]
        inst.remove_task(victim)
        survivor = inst.tasks()[0]
        idx, _pins, w = inst.task_configs(survivor)[0]
        inst.update_weight(survivor, idx, w + 3.5)
        assert_identical_compilation(inst)
        # add-then-edit in one un-emitted batch
        procs = inst.procs()
        new = inst.add_task([([procs[0]], 2.0)])
        inst.update_weight(new, 0, 7.25)
        assert_identical_compilation(inst)

    def test_remove_then_readd_processor(self):
        inst = self._fresh()
        inst.compile()
        # removing a processor tombstones every configuration pinned to
        # it; re-adding yields a fresh handle, so the dense remap shifts
        from repro.core.errors import InfeasibleError

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

    def test_weight_only_stream_uses_fast_path_and_shares_arrays(self):
        inst = self._fresh()
        before = inst.compiled_kernels()
        task = inst.tasks()[0]
        idx, _pins, w = inst.task_configs(task)[0]
        inst.update_weight(task, idx, w * 2.0)
        after = inst.compiled_kernels()
        assert inst.compile_stats()["emits_weight"] >= 1
        assert_identical_compilation(inst)
        # copy-on-write: only the weight arrays are fresh
        assert after.g_w is not before.g_w
        for f in ("g_hedge", "g_size", "g_ptr", "g_pins", "g_pin_row",
                  "g_pin_pos", "u_ptr", "u_procs", "hedge_gpos"):
            assert getattr(after, f) is getattr(before, f), f

    def test_clean_emit_is_reused(self):
        inst = self._fresh()
        k1 = inst.compiled_kernels()
        k2 = inst.compiled_kernels()
        assert k1 is k2
        assert inst.compile() is inst.compile()

    def test_rollback_drops_patcher_and_recompiles_identically(self):
        inst = self._fresh()
        baseline = inst.compiled_kernels()
        marker = inst.snapshot()
        rng = np.random.default_rng(5)
        apply_random_mutations(inst, rng, 8)
        assert_identical_compilation(inst)
        inst.rollback(marker)
        assert_identical_compilation(inst)
        assert inst.compiled_kernels().digest == baseline.digest

    def test_compaction_threshold_triggers_rebuild(self):
        inst = self._fresh()
        inst.compile()
        before = inst.compile_stats()["full_builds"]
        for task in inst.tasks()[:12]:
            inst.remove_task(task)
        assert_identical_compilation(inst)
        stats = inst.compile_stats()
        assert stats["compactions"] >= 1
        assert stats["full_builds"] > before

    def test_patching_disabled_still_conforms(self):
        from repro.generators import generate_multiproc

        hg = generate_multiproc(16, 8, g=4, seed=11)
        on = DynamicInstance.from_hypergraph(hg)
        off = DynamicInstance.from_hypergraph(hg, patching=False)
        for seed in (1, 2):
            apply_random_mutations(on, np.random.default_rng(seed), 5)
            apply_random_mutations(off, np.random.default_rng(seed), 5)
            a, b = on.compile(), off.compile()
            for f in _HG_FIELDS:
                np.testing.assert_array_equal(
                    getattr(a.hypergraph, f), getattr(b.hypergraph, f), f
                )
            assert a.task_handles == b.task_handles
            assert on.digest() == off.digest()


class TestPatcherValidation:
    def test_bad_compact_threshold(self):
        with pytest.raises(ValueError):
            KernelPatcher((), set(), compact_threshold=-0.1)

    def test_unknown_mutation_op(self):
        inst = DynamicInstance()
        inst.add_processor()
        inst.add_task([([0], 1.0)])
        patcher = KernelPatcher(inst._patcher_state(), inst._procs)

        class Bogus:
            op = "frobnicate"
            payload: dict = {}

        with pytest.raises(ValueError):
            patcher.apply(Bogus())


def test_compile_cache_registration_makes_solver_compiles_free():
    """The patched kernels are pre-registered under the hypergraph's
    digest, so a solver compiling ``to_hypergraph()`` gets the very
    artifact the patcher emitted."""
    from repro.generators import generate_multiproc

    hg = generate_multiproc(16, 8, g=4, seed=29)
    inst = DynamicInstance.from_hypergraph(hg)
    inst.add_processor()
    kernels = inst.compiled_kernels()
    assert compile_instance(inst.to_hypergraph()) is kernels
