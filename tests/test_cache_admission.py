"""The compile cache admits a compilation on reuse, and the process's
caches share one byte budget.

Engine-level consequences of :class:`repro._util.SegmentedLRU` behind
``repro.kernels.compiled._CACHE``: a stream of one-shot instances
retains at most the two probation compilations, one instance solved by
the paper's four heuristics compiles once, the experiment runner
compiles each held instance once (an engine's method-major batches
compile it at most twice), a compilation's price bounds its memory and
a result entry's price tracks it, the union-index re-price and the
shared-memory detach reach either segment, and the service reports the
caches (``metrics``) and the budget's use (``health``).
"""

from __future__ import annotations

import gc
import hashlib
import tracemalloc
from collections import Counter

import numpy as np
import pytest

from repro._util import CACHE_BUDGET

from repro.engine import BatchSolver, ResultCache, instance_digest
from repro.experiments.instances import InstanceSpec
from repro.experiments.runner import run_instances
from repro.generators import generate_multiproc
from repro.kernels import (
    clear_compile_cache,
    compile_cache_stats,
    compile_instance,
)
from repro.kernels import compiled
from repro.kernels.compiled import compiled_nbytes

PAPER_METHODS = ("SGH", "VGH", "EGH", "EVG")
_SPEC = InstanceSpec("fewgmanyg-small", "fewgmanyg", g=4, n=96, p=16)


def _instances(n: int, seed0: int = 0):
    return [
        generate_multiproc(96, 16, g=4, weights="related", seed=seed0 + k)
        for k in range(n)
    ]


def _segments():
    return compile_cache_stats(segments=True)


@pytest.fixture
def compiles(monkeypatch):
    """Counts real compilations per structure digest (cache misses
    that built)."""
    clear_compile_cache()
    counts: Counter = Counter()
    build = compiled._compile

    def counting(hg, digest):
        counts[digest] += 1
        return build(hg, digest)

    monkeypatch.setattr(compiled, "_compile", counting)
    yield counts
    clear_compile_cache()


def _serial_engine() -> BatchSolver:
    return BatchSolver(max_workers=1, executor="serial", cache=ResultCache())


class TestAdmission:
    def test_one_shot_instances_leave_two_compilations(self, compiles):
        _serial_engine().solve_many(_instances(20), method="SGH")
        stats = _segments()
        assert sum(compiles.values()) == 20
        assert stats["entries"] <= 2 and stats["protected"] == 0
        assert stats["promotions"] == 0 and stats["ghost_admissions"] == 0

    def test_the_paper_heuristics_share_one_compilation(self, compiles):
        (hg,) = _instances(1, seed0=40)
        engine = _serial_engine()
        for method in PAPER_METHODS:
            engine.solve_many([hg], method=method)
        assert list(compiles.values()) == [1]
        stats = _segments()
        assert (stats["protected"], stats["probation"]) == (1, 0)
        assert stats["hits"] == len(PAPER_METHODS) - 1

    def test_the_weight_variants_of_a_structure_share_one_compilation(
        self, compiles
    ):
        """A paper table's unit and ``-W`` instances of one draw: the
        second is a return of the structure, so it promotes the one
        compilation instead of building another."""
        (hg,) = _instances(1, seed0=50)
        engine = _serial_engine()
        engine.solve_many([hg.unit(), hg], method="SGH")
        assert list(compiles.values()) == [1]
        stats = _segments()
        assert (stats["protected"], stats["probation"]) == (1, 0)
        assert stats["promotions"] == 1

    def test_the_runner_compiles_each_instance_once(self, compiles):
        # more held instances than any fixed ghost list of old (64)
        n_seeds = 70
        run_instances(
            [_SPEC], algorithms=PAPER_METHODS, n_seeds=n_seeds,
        )
        assert len(compiles) == n_seeds
        assert set(compiles.values()) == {1}
        stats = _segments()
        assert stats["promotions"] == n_seeds
        assert stats["ghost_admissions"] == 0

    def test_a_serial_engine_in_the_runner_compiles_each_instance_once(
        self, compiles
    ):
        # a caller's inline engine goes instance by instance as well
        n_seeds = 10
        misses = _segments()["misses"]
        run_instances(
            [_SPEC], algorithms=PAPER_METHODS, n_seeds=n_seeds,
            engine=_serial_engine(),
        )
        assert _segments()["misses"] - misses == n_seeds
        assert set(compiles.values()) == {1}

    def test_a_method_major_engine_sweep_compiles_at_most_twice(
        self, compiles
    ):
        n_seeds = 70
        engine = _serial_engine()
        hgs = [_SPEC.generate(k) for k in range(n_seeds)]
        for method in PAPER_METHODS:
            engine.solve_many(hgs, method=method)
        assert len(compiles) == n_seeds
        assert max(compiles.values()) <= 2
        # the first heuristic's pass leaves all but the last two
        # instances to the ghost list, and the second admits them
        stats = _segments()
        assert stats["ghost_admissions"] == n_seeds - 2
        assert stats["protected"] == n_seeds


class TestPricing:
    def test_many_small_reused_compilations_stay_within_the_budget(
        self, compiles, monkeypatch
    ):
        """The price of a compilation covers what it really holds, so
        the budget bounds the memory of many tiny reused instances."""
        compile_instance(generate_multiproc(6, 2, g=2, seed=10**6))
        clear_compile_cache()  # one-time allocations happen before
        monkeypatch.setattr(CACHE_BUDGET, "limit", 1 << 20)
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for seed in range(600):
                hg = generate_multiproc(6, 2, g=2, seed=seed)
                compile_instance(hg)
                compile_instance(hg)  # reused: promoted
            del hg
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        stats = _segments()
        assert 100 < stats["protected"] < 600  # the budget binds
        assert held <= 1.1 * CACHE_BUDGET.limit

    @pytest.mark.parametrize(
        "n_tasks, count, rows",
        [(8, 1000, 0), (8, 1000, 4), (10240, 200, 0)],
        ids=["small", "portfolio", "large"],
    )
    def test_result_entries_are_priced_at_what_they_hold(
        self, n_tasks, count, rows
    ):
        """A result entry's price tracks what the cache keeps alive:
        the stored assignment, and the key, digest and meta a request
        builds for it and drops once the entry holds them."""
        source = np.arange(n_tasks, dtype=np.int64)
        cache = ResultCache()
        gc.collect()
        tracemalloc.start()
        try:
            base = tracemalloc.get_traced_memory()[0]
            for i in range(count):
                digest = hashlib.sha256(i.to_bytes(8, "little")).hexdigest()
                meta = {
                    "winner": "SGH",
                    "entries": [
                        ("SGH", float(i), 1e-3 * i) for _ in range(rows)
                    ] or None,
                }
                cache.put((digest, "SGH", None, None), source, meta)
            del digest, meta
            gc.collect()
            held = tracemalloc.get_traced_memory()[0] - base
        finally:
            tracemalloc.stop()
        stats = cache.stats()
        assert stats["entries"] == count
        assert 0.9 <= stats["bytes"] / held <= 1.12


class TestEitherSegment:
    def test_union_build_reprices_in_both_segments(self, compiles):
        on_probation, protected = _instances(2, seed0=60)
        a = compile_instance(on_probation)
        b = compile_instance(protected)
        assert compile_instance(protected) is b  # a hit: promoted
        stats = _segments()
        assert (stats["probation"], stats["protected"]) == (1, 1)
        for ck in (a, b):
            before = compiled_nbytes(ck)
            ck.pin_shift  # builds the pin shifts: the entry grows
            assert compiled_nbytes(ck) > before
            assert _segments()["bytes"] == compiled_nbytes(
                a
            ) + compiled_nbytes(b)

    def test_detach_purges_either_segment_before_unmapping(self, compiles):
        from repro.engine import transport

        if not transport.transport_available():  # pragma: no cover
            pytest.skip("no shared memory on this platform")
        hgs = _instances(2, seed0=80)
        registry = transport.ExportRegistry()
        views = []
        try:
            for hg in hgs:
                view = transport.attach_instance(
                    registry.export(hg, instance_digest(hg))
                )
                views.append(view)
                compile_instance(view)
            compile_instance(views[1])  # promote the second
            stats = _segments()
            assert (stats["probation"], stats["protected"]) == (1, 1)

            cached_at_unmap = []

            class Segment:
                def close(self):
                    cached_at_unmap.append(_segments()["entries"])

            transport._detach("first", (Segment(), views[0]))
            transport._detach("second", (Segment(), views[1]))
            # each unmap saw its compilation already gone
            assert cached_at_unmap == [1, 0]
        finally:
            transport._ATTACHED.clear()
            registry.close()


class TestServiceReportsTheCaches:
    def test_metrics_and_health_carry_the_budget(self, compiles):
        from test_service import running_server

        from repro.service import ServiceClient

        (hg,) = _instances(1, seed0=90)
        with running_server() as (server, _loop):
            with ServiceClient(port=server.port) as client:
                client.solve(hg, method="SGH")
                client.solve(hg, method="VGH")
                caches = client.metrics()["caches"]
                health = client.health()
        assert caches["budget_bytes"] == CACHE_BUDGET.limit
        assert caches["used_bytes"] > 0
        assert caches["compile"]["promotions"] == 1
        assert caches["compile"]["protected"] == 1
        assert caches["result"]["entries"] == 2
        assert caches["result"]["misses"] == 2
        assert set(caches["attachments"]) == {
            "entries", "bytes", "hits", "misses",
        }
        budget = health["cache_budget"]
        assert budget["budget_bytes"] == CACHE_BUDGET.limit
        assert 0 < budget["used_ratio"] == (
            budget["used_bytes"] / budget["budget_bytes"]
        )
