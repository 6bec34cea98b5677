"""The processor index and the pin shifts are built on first access.

:class:`TaskHypergraph` builds ``proc_ptr``/``proc_hedges`` and
:class:`CompiledKernels` builds ``pin_shift`` (each pin's shift to its
task's pin-union position) only when a solver reads them.  These tests
hold the laziness (SGH and EGH build neither, locally or behind the
service; local search builds both, the shifts once per structure), the
publication rules (one memo, first writer wins, never copied by
``dataclasses.replace``), pickling, and the compile cache's byte budget
once the shifts appear after the entry was priced.  The pickling
property also holds the vectorized shift build to a per-task
``np.unique`` oracle (:func:`_shift_oracle`), and the shared
:func:`~repro.kernels.compiled.union_shifts` helper is checked on
pin ids too sparse for its int64 key.
"""

from __future__ import annotations

import dataclasses
import pickle
import sys
import threading

import numpy as np
import pytest
from hypothesis import given, settings

from repro.api import solve
from repro.core import TaskHypergraph
from repro.engine.cache import structure_digest
from repro.generators import generate_multiproc
from repro.io import hypergraph_from_dict, hypergraph_to_dict
from repro.kernels import (
    clear_compile_cache,
    compile_cache_stats,
    compile_instance,
)
from repro.kernels.compiled import (
    _CACHE,
    _compile,
    compiled_nbytes,
    union_shifts,
)

from strategies import task_hypergraphs

_PROC_MEMO = "_proc_index_memo"
_SHIFT_MEMO = "pin_shift"
_PIN_MEMOS = ("pin_cells", "task_repeats")


def _instance(seed: int = 3):
    # a serialize round-trip, so the instance is built by from_csr alone
    hg = generate_multiproc(96, 16, g=4, weights="related", seed=seed)
    return hypergraph_from_dict(hypergraph_to_dict(hg))


def _proc_built(hg) -> bool:
    # read the memo, never the field: reading the field builds it
    return _PROC_MEMO in hg.__dict__


def _shifts_built(ck) -> bool:
    # the structural memo every binding of the structure shares
    return _SHIFT_MEMO in ck._memo


def _shift_oracle(ck) -> np.ndarray:
    """The pin shifts of ``ck``, one task at a time with ``np.unique``:
    a pin's position in its task's union minus its place among the
    task's pins."""
    ptr = ck.hypergraph.task_ptr
    shifts = []
    for v in range(ck.n_tasks):
        pins = ck.g_pins[ck.g_ptr[ptr[v]] : ck.g_ptr[ptr[v + 1]]]
        pos = np.searchsorted(np.unique(pins), pins)
        shifts.extend((pos - np.arange(pins.shape[0])).tolist())
    return np.asarray(shifts, dtype=np.int64)


def _cached_compilations():
    return _CACHE.values()


@pytest.fixture
def fresh_cache():
    # a result-cache hit would skip the solve whose builds are checked
    from repro.engine.batch import default_engine

    default_engine().cache.clear()
    clear_compile_cache()
    yield
    clear_compile_cache()


@pytest.mark.usefixtures("fresh_cache")
class TestSolversReadOnlyWhatTheyNeed:
    @pytest.mark.parametrize("method", ["SGH", "EGH"])
    def test_sgh_and_egh_build_neither_index(self, method):
        hg = _instance()
        solve(hg, method=method)
        (ck,) = _cached_compilations()
        assert ck.hypergraph is hg
        assert not _proc_built(hg)
        assert not _shifts_built(ck)

    @pytest.mark.parametrize(
        "method, memos",
        [("VGH", ("pin_cells",)), ("EVG", _PIN_MEMOS)],
        ids=["VGH", "EVG"],
    )
    def test_ranking_solvers_build_only_the_pin_memos(self, method, memos):
        hg = _instance()
        solve(hg, method=method)
        (ck,) = _cached_compilations()
        assert [name for name in _PIN_MEMOS if name in ck._memo] == list(
            memos
        )
        assert not _shifts_built(ck)
        assert not _proc_built(hg)

    def test_local_search_builds_the_processor_index(self):
        hg = _instance()
        solve(hg, method="SGH+ls")
        assert _proc_built(hg)

    def test_local_search_builds_the_pin_shifts_once(self):
        hg = _instance()
        solve(hg, method="SGH+ls")
        (ck,) = _cached_compilations()
        shift = ck._memo[_SHIFT_MEMO]
        assert not any(name in ck._memo for name in _PIN_MEMOS)
        # a weight variant's local search reads the structure's shifts
        solve(hg.with_weights(hg.hedge_w * 2.0 + 1.0), method="SGH+ls")
        assert _cached_compilations() == [ck]
        assert ck._memo[_SHIFT_MEMO] is shift
        # priced at their buffer, in the entry's bytes
        assert compile_cache_stats()["bytes"] == compiled_nbytes(ck)
        del ck._memo[_SHIFT_MEMO]
        without = compiled_nbytes(ck)
        ck._memo[_SHIFT_MEMO] = shift
        assert compiled_nbytes(ck) - without == shift.nbytes

    @pytest.mark.parametrize("method", ["SGH", "EGH"])
    def test_service_solve_builds_neither_index(self, method):
        from test_service import running_server

        from repro.service import ServiceClient

        hg = _instance()
        with running_server() as (server, _loop):
            with ServiceClient(port=server.port) as client:
                remote = client.solve(hg, method=method)
        local = solve(hg, method=method)
        assert np.array_equal(remote.assignment, local.hedge_of_task)
        # the server's parse of the wire instance built the one entry,
        # which the local solve of the same structure reused
        served = [
            ck for ck in _cached_compilations() if ck.hypergraph is not hg
        ]
        assert len(served) == 1
        assert not _proc_built(served[0].hypergraph)
        assert not _shifts_built(served[0])


@pytest.mark.usefixtures("fresh_cache")
class TestPublication:
    def test_first_access_builds_and_memoizes(self):
        hg = _instance()
        assert not _proc_built(hg)
        ptr = hg.proc_ptr
        assert _proc_built(hg)
        assert hg.proc_ptr is ptr
        memo = hg.__dict__[_PROC_MEMO]
        assert memo[0] is ptr and memo[1] is hg.proc_hedges
        ck = compile_instance(hg)
        assert not _shifts_built(ck)
        shift = ck.pin_shift
        assert ck._memo[_SHIFT_MEMO] is shift
        assert ck.pin_shift is shift

    def test_replace_never_carries_a_stale_index(self):
        hg = _instance()
        hg.proc_ptr  # build it
        moved = dataclasses.replace(hg, n_procs=hg.n_procs + 1)
        assert not _proc_built(moved)
        assert moved.proc_ptr.shape == (hg.n_procs + 2,)

    def test_with_weights_carries_the_built_index(self):
        hg = _instance()
        assert not _proc_built(hg.unit())
        index = (hg.proc_ptr, hg.proc_hedges)
        unit = hg.unit()
        assert unit.proc_ptr is index[0] and unit.proc_hedges is index[1]

    def test_two_threads_see_one_complete_index(self):
        hg = _instance()
        ck = compile_instance(hg)
        barrier = threading.Barrier(2, timeout=30)
        seen: list[tuple] = [None, None]

        def first_access(slot: int) -> None:
            barrier.wait()
            shift = ck.pin_shift
            proc_hedges = hg.proc_hedges
            seen[slot] = (shift, proc_hedges, hg.proc_ptr)

        threads = [
            threading.Thread(target=first_access, args=(k,)) for k in (0, 1)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join(30)
            assert not t.is_alive()
        shifts, procs = ck._memo[_SHIFT_MEMO], hg.__dict__[_PROC_MEMO]
        for shift, proc_hedges, proc_ptr in seen:
            # both readers got the arrays of the one published memo
            assert shift is shifts
            assert proc_hedges is procs[1] and proc_ptr is procs[0]


class TestPickling:
    @given(task_hypergraphs(weighted=True))
    @settings(max_examples=25, deadline=None)
    def test_round_trip_before_and_after_the_build(self, hg):
        hg = dataclasses.replace(hg)  # a copy whose memos start empty
        digest = structure_digest(hg)
        ck = _compile(hg, digest)
        before = pickle.loads(pickle.dumps(ck))
        assert not _proc_built(before.hypergraph)
        assert not _shifts_built(before)
        hg.proc_ptr, ck.pin_shift  # build both
        want = _shift_oracle(ck)
        assert ck.pin_shift.dtype == want.dtype
        np.testing.assert_array_equal(ck.pin_shift, want)
        after = pickle.loads(pickle.dumps(ck))
        assert _proc_built(after.hypergraph) and _shifts_built(after)
        for copy in (before, after):
            assert copy.digest == digest
            assert structure_digest(copy.hypergraph) == digest
            for f in ("proc_ptr", "proc_hedges"):
                np.testing.assert_array_equal(
                    getattr(copy.hypergraph, f), getattr(hg, f), err_msg=f
                )
            np.testing.assert_array_equal(copy.pin_shift, ck.pin_shift)


class TestUnionPositions:
    def test_sparse_pin_ids_are_ranked_before_keying(self):
        """Pin ids too far apart for one ``task * width + pin`` int64
        key are keyed on their ranks: the same shifts as the dense ids
        they rank to."""
        big = 2**62
        # task 0: one row {5, big}; task 1: rows {3, big}, {5}; task 2:
        # one row {big - 1}
        counts, lens = np.array([1, 2, 1]), np.array([2, 2, 1, 1])
        pins = np.array([5, big, 3, big, 5, big - 1])
        shift = union_shifts(counts, lens, pins)
        # union positions [0, 1 | 0, 2, 1 | 0] less places [0, 1 | 0, 1, 2 | 0]
        np.testing.assert_array_equal(shift, [0, 0, 0, 1, -1, 0])
        dense = np.searchsorted(np.unique(pins), pins)
        np.testing.assert_array_equal(
            union_shifts(counts, lens, dense), shift
        )

    def test_no_pins(self):
        empty = np.empty(0, dtype=np.int64)
        counts = np.zeros(2, dtype=np.int64)
        assert union_shifts(counts, empty, empty).size == 0


@pytest.mark.usefixtures("fresh_cache")
class TestCompileCacheBudget:
    def test_union_build_reprices_the_entry(self):
        hg = _instance()
        compile_instance(hg)
        grouped = compile_cache_stats()["bytes"]
        solve(hg, method="SGH+ls")
        (ck,) = _cached_compilations()
        assert _shifts_built(ck)
        assert compile_cache_stats()["bytes"] == compiled_nbytes(ck)
        assert compiled_nbytes(ck) > grouped

    def test_pin_memos_reprice_the_entry(self):
        hg = _instance()
        ck = compile_instance(hg)
        grouped = compile_cache_stats()["bytes"]
        solve(hg, method="EVG")
        assert compile_cache_stats()["bytes"] == compiled_nbytes(ck)
        assert compiled_nbytes(ck) > grouped
        # the cells at their buffer, the flags at their slots alone
        # (they refer to the bool singletons, no int objects)
        for name, cost in (
            ("pin_cells", ck.pin_cells.nbytes),
            ("task_repeats", sys.getsizeof(ck.task_repeats)),
        ):
            value = ck._memo.pop(name)
            without = compiled_nbytes(ck)
            ck._memo[name] = value
            assert compiled_nbytes(ck) - without == cost, name

    def test_bytes_match_the_entries_after_mixed_solves(self):
        # seed 1 is solved twice (protected); 3 and 4 stay in probation,
        # which 2 has left
        for seed, method in (
            (1, "VGH"), (1, "SGH"), (2, "SGH"), (3, "EVG"), (4, "EGH")
        ):
            solve(_instance(seed), method=method)
        entries = _cached_compilations()
        stats = compile_cache_stats(segments=True)
        assert len(entries) == 3
        assert (stats["probation"], stats["protected"]) == (2, 1)
        assert stats["bytes"] == sum(compiled_nbytes(ck) for ck in entries)

    def test_a_view_is_priced_at_the_buffer_it_pins(self):
        """Weights viewing a slice of a larger buffer (a received frame)
        keep that whole buffer alive, so the entry costs all of it."""
        hg = _instance()
        pad = 1 << 20
        frame = bytes(pad) + hg.hedge_w.astype("<f8").tobytes()
        view = np.frombuffer(memoryview(frame)[pad:], dtype="<f8")
        csr = (hg.n_tasks, hg.n_procs, hg.hedge_task, hg.hedge_ptr,
               hg.hedge_procs)
        viewed = TaskHypergraph.from_csr(*csr, view)
        assert viewed.hedge_w.base is not None  # still the view
        priced_view = compiled_nbytes(compile_instance(viewed))
        clear_compile_cache()
        owned = TaskHypergraph.from_csr(*csr, view.copy())
        priced_owned = compiled_nbytes(compile_instance(owned))
        assert priced_view - priced_owned == len(frame) - view.nbytes

    def test_pricing_never_builds(self):
        hg = _instance()
        ck = compile_instance(hg)
        compiled_nbytes(ck)
        assert not _shifts_built(ck) and not _proc_built(hg)

    def test_evicted_entry_is_not_brought_back(self):
        hg = _instance()
        ck = compile_instance(hg)
        clear_compile_cache()
        ck.pin_shift  # build after eviction
        assert compile_cache_stats()["entries"] == 0
