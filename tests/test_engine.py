"""Tests for the batch-solving engine (repro.engine)."""

import multiprocessing
import threading

import numpy as np
import pytest

from repro import BatchSolver, SchedulingProblem, SolveResult, solve, solve_many
from repro.core import TaskHypergraph
from repro.api import Portfolio, get_registry
from repro.engine import (
    ResultCache,
    instance_digest,
    solve_hypergraph,
    structure_digest,
)
from repro.engine.cache import _ENTRY_OVERHEAD
from repro.experiments import run_instances
from repro.experiments.instances import SMALL_SPECS
from repro.sched import Schedule

from strategies import random_hypergraph


@pytest.fixture
def instances():
    rng = np.random.default_rng(42)
    return [
        random_hypergraph(rng, max_tasks=10, max_procs=6) for _ in range(10)
    ]


@pytest.fixture
def problems():
    probs = []
    for k in range(6):
        prob = SchedulingProblem(processors=["cpu0", "cpu1", "gpu"])
        prob.add_task(
            "render", [(("gpu",), 2.0 + k), (("cpu0", "cpu1"), 5.0)]
        )
        prob.add_task("encode", [(("cpu0",), 3.0), (("cpu1",), 3.0)])
        prob.add_task("mix", [(("cpu1",), 1.0), (("gpu",), 4.0)])
        probs.append(prob)
    return probs


class TestDispatch:
    def test_matches_solve_on_problems(self, problems):
        """solve() and the hypergraph-level dispatch agree exactly."""
        for prob in problems:
            for method in ("auto", "SGH", "EVG", "exhaustive"):
                via_solve = solve(prob, method=method)
                direct = solve_hypergraph(
                    prob.to_hypergraph(), method=method
                )
                assert via_solve.makespan == direct.makespan
                assert np.array_equal(
                    via_solve.matching.hedge_of_task, direct.hedge_of_task
                )

    def test_bipartite_lift_unsorted_hedges(self):
        """The lift maps CSR edges to hyperedges even when hyperedges are
        not task-major."""
        hg = TaskHypergraph.from_hyperedges(
            2, 2, [1, 0, 1, 0], [[0], [1], [1], [0]], [2.0, 1.0, 3.0, 4.0]
        )
        m = solve_hypergraph(hg, method="sorted-greedy")
        assert hg.hedge_task[m.hedge_of_task[0]] == 0
        assert hg.hedge_task[m.hedge_of_task[1]] == 1

    def test_unknown_method(self, instances):
        with pytest.raises(ValueError, match="unknown method"):
            solve_hypergraph(instances[0], method="quantum")


class TestBatchEquality:
    @pytest.mark.parametrize("executor,workers", [
        ("serial", 1), ("process", 2),
    ])
    def test_pool_matches_sequential_solve(
        self, instances, executor, workers
    ):
        sequential = [solve_hypergraph(hg) for hg in instances]
        engine = BatchSolver(
            max_workers=workers, executor=executor, cache=False
        )
        batched = engine.solve_many(instances)
        assert [m.makespan for m in batched] == [
            m.makespan for m in sequential
        ]
        for a, b in zip(batched, sequential):
            assert np.array_equal(a.hedge_of_task, b.hedge_of_task)

    @pytest.mark.parametrize(
        "method", ["SGH+ls", "grasp", "portfolio(SGH,EVG+ls)"]
    )
    def test_inline_pooled_and_cached_answers_share_one_record(
        self, method
    ):
        """An inline and a pooled engine give each fresh answer the same
        provenance, and a cache hit of it keeps the winner, the
        portfolio rows and the local-search counters."""
        from repro.generators import generate_multiproc

        hgs = [generate_multiproc(64, 16, g=4, seed=s) for s in (0, 1)]

        def record(r):
            rows = r.portfolio and [
                (e.method, e.makespan) for e in r.portfolio
            ]
            ls = {
                k: r.stats[k] for k in ("ls_moves", "ls_capped")
                if k in r.stats
            }
            return r.winner, rows, ls

        runs = []
        for workers in (1, 2):
            with BatchSolver(
                max_workers=workers, cache=ResultCache()
            ) as engine:
                fresh = engine.solve_many(hgs, method=method)
                pooled = engine.worker_pids()
                hits = engine.solve_many(hgs, method=method)
            assert bool(pooled) == (workers == 2)
            runs.append((fresh, hits))
        (inline, inline_hits), (pool, pool_hits) = runs
        for a, b in zip(inline, pool):
            assert not a.cache_hit and not b.cache_hit
            assert np.array_equal(a.hedge_of_task, b.hedge_of_task)
            assert record(a) == record(b)
        assert any(record(r)[2] for r in inline)
        for fresh, hits in runs:
            for f, h in zip(fresh, hits):
                assert h.cache_hit
                assert record(h) == record(f)
                assert h.stats == {
                    "solve_s": 0.0, "cache_hit": True, **record(f)[2]
                }

    def test_problems_yield_schedules(self, problems):
        engine = BatchSolver(max_workers=1, cache=False)
        out = engine.solve_many(problems)
        assert all(isinstance(s, SolveResult) for s in out)
        assert all(isinstance(s.schedule, Schedule) for s in out)
        for prob, s in zip(problems, out):
            assert s.makespan == solve(prob).makespan
            assert s.allocation() == s.schedule.allocation()

    def test_mixed_inputs_keep_order_and_types(self, problems, instances):
        mixed = [problems[0], instances[0], problems[1]]
        out = solve_many(mixed, max_workers=1, cache=False)
        assert isinstance(out[0].schedule, Schedule)
        assert out[1].schedule is None
        assert isinstance(out[2].schedule, Schedule)

    def test_empty_batch(self):
        assert BatchSolver(cache=False).solve_many([]) == []

    def test_empty_problem(self):
        prob = SchedulingProblem(processors=["a"])
        (s,) = BatchSolver(max_workers=1, cache=False).solve_many([prob])
        assert s.makespan == 0.0

    def test_rejects_bad_executor(self):
        with pytest.raises(ValueError, match="unknown executor"):
            BatchSolver(executor="fiber")

    def test_rejects_bad_instance_type(self):
        with pytest.raises(TypeError, match="SchedulingProblem"):
            BatchSolver(cache=False).solve_many([object()])


class TestDeterminism:
    @pytest.mark.parametrize("workers,chunk", [(1, None), (3, 1), (4, 4)])
    def test_fixed_seed_across_pool_sizes(
        self, instances, workers, chunk, monkeypatch
    ):
        """Pool layout never changes what is computed, even for the
        randomised method.  A pooled batch of ``4 * workers * chunk``
        instances goes out as ``4 * workers`` chunks of ``chunk``
        (``ceil(pending / (4 * workers))``); one worker solves inline."""
        n = len(instances) if chunk is None else 4 * workers * chunk
        batch = (instances * -(-n // len(instances)))[:n]
        reference = BatchSolver(
            max_workers=1, executor="serial", cache=False
        ).solve_many(batch, method="grasp", seed=5)
        sizes: list[int] = []
        with BatchSolver(
            max_workers=workers, executor="process", cache=False
        ) as engine:
            if not engine.inline:
                pool = engine._acquire_pool()
                submit = pool.submit

                def spy(fn, items, *args):
                    sizes.append(len(items))
                    return submit(fn, items, *args)

                monkeypatch.setattr(pool, "submit", spy)
            out = engine.solve_many(batch, method="grasp", seed=5)
        assert sizes == ([] if chunk is None else [chunk] * (4 * workers))
        for a, b in zip(out, reference):
            assert np.array_equal(a.hedge_of_task, b.hedge_of_task)


class TestPortfolio:
    def test_never_worse_than_any_constituent(self, instances):
        for hg in instances:
            port = solve_hypergraph(hg, method=Portfolio(), seed=3)
            for entry in ("SGH", "VGH", "EGH", "EVG"):
                single = solve_hypergraph(hg, method=entry)
                assert port.makespan <= single.makespan

    def test_matches_best_constituent(self, instances):
        """With a line-up of deterministic algorithms, the portfolio
        returns exactly the minimum of their makespans."""
        lineup = ("SGH", "VGH", "EGH", "EVG")
        for hg in instances:
            port = solve_hypergraph(hg, method=Portfolio(*lineup))
            best = min(
                solve_hypergraph(hg, method=e).makespan for e in lineup
            )
            assert port.makespan == best

    def test_solve_method_portfolio(self, problems):
        for prob in problems:
            port = solve(prob, method="portfolio")
            assert port.makespan <= solve(prob).makespan

    def test_batch_portfolio(self, instances):
        with BatchSolver(
            max_workers=2, executor="process", cache=False
        ) as engine:
            out = engine.solve_many(instances, method="portfolio")
        for hg, m in zip(instances, out):
            assert m.makespan == solve_hypergraph(
                hg, method=Portfolio()
            ).makespan

    def test_ls_suffix_refines(self, instances):
        for hg in instances:
            base = solve_hypergraph(hg, method="SGH")
            refined = solve_hypergraph(hg, method=Portfolio("SGH+ls"))
            assert refined.makespan <= base.makespan

    def test_rejects_empty_lineup(self, instances):
        # normalization fills an entry-less Portfolio with the default
        # line-up; evaluating one that skipped normalization is an error
        from repro.api.methods import EvalContext, evaluate

        ctx = EvalContext(registry=get_registry())
        with pytest.raises(ValueError, match="at least one"):
            evaluate(instances[0], Portfolio(), ctx)

    def test_rejects_unknown_entry(self, instances):
        with pytest.raises(ValueError, match="unknown portfolio entry"):
            solve_hypergraph(instances[0], method=Portfolio("quantum"))

    def test_explicit_method_beats_engine_default_portfolio(self, instances):
        """A per-call method override must not be shadowed by an
        engine-level portfolio default."""
        hg = instances[0]
        engine = BatchSolver(max_workers=1, method="portfolio", cache=False)
        (via_engine,) = engine.solve_many([hg], method="SGH")
        plain = solve_hypergraph(hg, method="SGH")
        assert np.array_equal(via_engine.hedge_of_task, plain.hedge_of_task)
        # without a per-call method, the default portfolio does apply
        (defaulted,) = engine.solve_many([hg])
        assert defaulted.makespan == solve_hypergraph(
            hg, method=Portfolio()
        ).makespan

    def test_default_portfolio_names_resolve(self, instances):
        # the advertised default line-up must actually run
        m = solve_hypergraph(
            instances[0],
            method=Portfolio(*get_registry().default_portfolio()),
            seed=1,
        )
        assert m.makespan > 0


class TestCache:
    def test_hit_returns_identical_result(self, instances):
        cache = ResultCache()
        engine = BatchSolver(max_workers=1, cache=cache)
        first = engine.solve_many(instances)
        second = engine.solve_many(instances)
        assert cache.hits == len(instances)
        assert cache.misses == len(instances)
        for a, b in zip(first, second):
            assert np.array_equal(a.hedge_of_task, b.hedge_of_task)

    def test_hit_returns_identical_schedule(self, problems):
        cache = ResultCache()
        engine = BatchSolver(max_workers=1, cache=cache)
        (first,) = engine.solve_many([problems[0]])
        (second,) = engine.solve_many([problems[0]])
        assert cache.hits == 1
        assert second.cache_hit and not first.cache_hit
        assert isinstance(second.schedule, Schedule)
        assert second.makespan == first.makespan
        assert second.allocation() == first.allocation()
        assert second.winner == first.winner

    def test_structurally_equal_instances_share_entries(self, problems):
        """Digest keying: a rebuilt hypergraph hits the same entry."""
        cache = ResultCache()
        engine = BatchSolver(max_workers=1, cache=cache)
        hg = problems[0].to_hypergraph()
        engine.solve_many([hg])
        engine.solve_many([problems[0].to_hypergraph()])
        assert cache.hits == 1
        assert instance_digest(hg) == instance_digest(
            problems[0].to_hypergraph()
        )

    def test_method_and_options_separate_entries(self, instances):
        cache = ResultCache()
        engine = BatchSolver(max_workers=1, cache=cache)
        hg = instances[0]
        engine.solve_many([hg], method="SGH")
        engine.solve_many([hg], method="EVG")
        engine.solve_many([hg], method="SGH+ls")
        assert cache.hits == 0
        assert len(cache) == 3

    def test_dedup_within_one_batch_is_safe(self, instances):
        hg = instances[0]
        engine = BatchSolver(max_workers=1, cache=ResultCache())
        a, b = engine.solve_many([hg, hg])
        assert np.array_equal(a.hedge_of_task, b.hedge_of_task)

    def test_lru_eviction(self, instances):
        cache = ResultCache(maxsize=2)
        engine = BatchSolver(max_workers=1, cache=cache)
        engine.solve_many(instances[:3])
        assert len(cache) == 2
        # each entry is priced at its int32 assignment plus a fixed
        # overhead
        priced = sum(
            4 * hg.n_tasks + _ENTRY_OVERHEAD for hg in instances[1:3]
        )
        assert cache.stats() == {
            "entries": 2, "bytes": priced, "hits": 0, "misses": 3,
        }

    def test_clear(self, instances):
        cache = ResultCache()
        engine = BatchSolver(max_workers=1, cache=cache)
        engine.solve_many(instances[:2])
        cache.clear()
        assert len(cache) == 0 and cache.hits == 0 and cache.misses == 0


class TestRunnerIntegration:
    def test_engine_matches_sequential_runner(self):
        specs = SMALL_SPECS[:1]
        engine = BatchSolver(
            max_workers=1, executor="serial", cache=ResultCache()
        )
        seq = run_instances(specs, n_seeds=2, algorithms=("SGH", "EVG"))
        eng = run_instances(
            specs, n_seeds=2, algorithms=("SGH", "EVG"), engine=engine
        )
        assert seq.rows[0].makespan == eng.rows[0].makespan
        assert seq.rows[0].quality == eng.rows[0].quality

    def test_max_workers_shorthand_keeps_timing_honest(self):
        """run_instances(max_workers=...) must not feed (or feed from)
        the process-wide cache: a repeat run would report cache-hit
        times as the paper's 'Average time' row."""
        from repro.engine import default_cache

        specs = SMALL_SPECS[:1]
        before = default_cache().stats()
        run_instances(
            specs, n_seeds=1, algorithms=("SGH",), max_workers=1
        )
        assert default_cache().stats() == before

    def test_resweep_hits_cache(self):
        specs = SMALL_SPECS[:1]
        cache = ResultCache()
        engine = BatchSolver(max_workers=1, cache=cache)
        run_instances(specs, n_seeds=2, algorithms=("SGH",), engine=engine)
        assert cache.hits == 0
        run_instances(specs, n_seeds=2, algorithms=("SGH",), engine=engine)
        assert cache.hits == 2


class TestCacheConcurrency:
    """Regression: the engine's shared state under the thread-pool path.

    Many threads hammering one :class:`ResultCache` with interleaved
    get/put (and the LRU evictions a small ``maxsize`` forces) must
    preserve its structural invariants — bounded size, exact hit/miss
    accounting, isolated value copies — and a shared engine must never
    leak a second worker pool when two threads trigger its lazy
    creation at once."""

    def test_concurrent_get_put_evict_keeps_invariants(self):
        cache = ResultCache(maxsize=8)
        n_threads, n_ops = 8, 400
        barrier = threading.Barrier(n_threads)
        errors: list[Exception] = []
        gets = [0] * n_threads

        def hammer(tid: int) -> None:
            rng = np.random.default_rng(tid)
            barrier.wait()
            try:
                for k in range(n_ops):
                    # 16 keys over maxsize=8: every put can evict
                    key = (int(rng.integers(0, 16)), "EVG")
                    if rng.integers(0, 2):
                        cache.put(
                            key,
                            np.array([tid, k], dtype=np.int64),
                            {"winner": "EVG"},
                        )
                    else:
                        gets[tid] += 1
                        hit = cache.get(key)
                        if hit is not None:
                            # values stay well-formed copies: mutating
                            # one cannot corrupt the stored entry
                            assert hit.assignment.shape == (2,)
                            hit.assignment[0] = -1
                            # count the call whatever it returns: another
                            # thread may evict the key in between, and the
                            # cache then counts a miss
                            gets[tid] += 1
                            again = cache.get(key)
                            if again is not None:
                                assert again.assignment[0] != -1
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=hammer, args=(tid,))
            for tid in range(n_threads)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        stats = cache.stats()
        assert stats["entries"] == len(cache) <= 8
        assert stats["hits"] + stats["misses"] == sum(gets)

    def test_lazy_pool_creation_never_leaks_a_second_pool(self):
        engine = BatchSolver(max_workers=2, executor="process")
        barrier = threading.Barrier(8)
        pools: list = []

        def grab() -> None:
            barrier.wait()
            pools.append(engine._acquire_pool())

        threads = [threading.Thread(target=grab) for _ in range(8)]
        for t in threads:
            t.start()
        for t in threads:
            t.join(10)
        engine.close()
        # a grab that raised appends nothing
        assert len(pools) == 8
        assert len({id(p) for p in pools}) == 1

    def test_concurrent_solve_many_on_one_engine_is_correct(self, instances):
        """Several threads sharing one engine (the service's batcher
        flushing option-groups concurrently) agree with a serial run."""
        expected = [
            r.hedge_of_task.tolist()
            for r in BatchSolver(
                max_workers=1, cache=False
            ).solve_many(instances)
        ]
        engine = BatchSolver(
            max_workers=2, executor="process", cache=ResultCache(maxsize=4)
        )
        results: dict[int, list] = {}
        errors: list[Exception] = []
        barrier = threading.Barrier(4)

        def run(tid: int) -> None:
            barrier.wait()
            try:
                results[tid] = [
                    r.hedge_of_task.tolist()
                    for r in engine.solve_many(instances)
                ]
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        threads = [
            threading.Thread(target=run, args=(tid,)) for tid in range(4)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        engine.close()
        assert not errors
        for tid in range(4):
            assert results[tid] == expected


class TestTransportAndWarmPool:
    """Shared-memory transport and the warm worker pool."""

    @pytest.fixture
    def batch(self):
        from repro.generators import generate_multiproc

        return [generate_multiproc(120, 8, g=4, seed=s) for s in range(5)]

    def test_shm_results_match_pickle_transport(self, batch):
        with BatchSolver(
            max_workers=2, executor="process", cache=False, shm_min_bytes=0
        ) as shm_engine, BatchSolver(
            max_workers=2, executor="process", cache=False,
            shm_min_bytes=None,
        ) as pickle_engine:
            a = shm_engine.solve_many(batch)
            stats = shm_engine.transport_stats()
            b = pickle_engine.solve_many(batch)
        assert stats["exports"] == len(batch)
        assert stats["failures"] == 0
        for ra, rb in zip(a, b):
            np.testing.assert_array_equal(
                ra.matching.hedge_of_task, rb.matching.hedge_of_task
            )

    def test_shm_local_search_matches_local_solve(self, batch):
        """Segments carry no processor index: a worker builds it on
        its own when local search reads it, to the same answer."""
        from repro.api import solve
        from repro.engine.transport import transport_available

        if not transport_available():  # pragma: no cover
            pytest.skip("no POSIX shared memory here")
        with BatchSolver(
            max_workers=2, executor="process", cache=False, shm_min_bytes=0
        ) as engine:
            remote = engine.solve_many(batch, method="EVG+ls")
            stats = engine.transport_stats()
        assert stats["exports"] == len(batch) and stats["failures"] == 0
        # exporting never built the index on the front-end's instances
        assert all("_proc_index_memo" not in hg.__dict__ for hg in batch)
        for hg, r in zip(batch, remote):
            local = solve(hg, method="EVG+ls")
            np.testing.assert_array_equal(
                r.matching.hedge_of_task, local.matching.hedge_of_task
            )

    def test_worker_pids_stable_across_calls(self, batch):
        """Satellite regression: consecutive solve_many calls on one
        engine reuse the same worker processes (the pool is warm)."""
        engine = BatchSolver(max_workers=2, executor="process", cache=False)
        try:
            engine.solve_many(batch)
            pids1 = engine.worker_pids()
            engine.solve_many(batch)
            pids2 = engine.worker_pids()
        finally:
            engine.close()
        assert pids1 and pids1 == pids2

    def test_segment_reuse_and_close_unlinks(self, batch):
        from repro.engine.transport import transport_available

        if not transport_available():  # pragma: no cover
            pytest.skip("no shared memory on this platform")
        engine = BatchSolver(
            max_workers=2, executor="process", cache=False, shm_min_bytes=0
        )
        try:
            engine.solve_many(batch)
            engine.solve_many(batch)
            stats = engine.transport_stats()
            assert stats["exports"] == len(batch)  # second call reused
            assert stats["reuses"] >= len(batch)
            assert stats["segments"] == len(batch)
        finally:
            engine.close()
        assert engine.transport_stats()["segments"] == 0

    def test_attachment_eviction_purges_its_compilation(self, monkeypatch):
        """An attachment that overflows the byte budget evicts the
        oldest, and the compilation of that segment's structure leaves
        the compile cache before the segment is unmapped."""
        from repro._util import BoundedLRU, ByteBudget
        from repro.engine import transport
        from repro.generators import generate_multiproc
        from repro.kernels import compile_cache_stats, compile_instance

        if not transport.transport_available():  # pragma: no cover
            pytest.skip("no shared memory on this platform")
        base = generate_multiproc(8, 4, g=2, seed=0)
        # three processor relabellings of one instance: equal segment
        # sizes, three structures (the compile cache keys by structure)
        hgs = [
            TaskHypergraph.from_csr(
                base.n_tasks, base.n_procs, base.hedge_task,
                base.hedge_ptr, (base.hedge_procs + s) % base.n_procs,
                base.hedge_w,
            )
            for s in range(3)
        ]
        assert len({structure_digest(hg) for hg in hgs}) == 3
        budget = ByteBudget(0)
        attached = BoundedLRU(
            budget=budget, sizeof=transport._attachment_nbytes,
            on_evict=transport._detach,
        )
        monkeypatch.setattr(transport, "_ATTACHED", attached)
        registry = transport.ExportRegistry()
        try:
            descriptors = [
                registry.export(hg, instance_digest(hg)) for hg in hgs
            ]
            compile_instance(transport.attach_instance(descriptors[0]))
            budget.limit = 2 * attached.stats()["bytes"]  # two segments
            compile_instance(transport.attach_instance(descriptors[1]))
            assert len(attached) == 2
            transport.attach_instance(descriptors[2])
            assert len(attached) == 2
            misses = compile_cache_stats()["misses"]
            compile_instance(hgs[1])  # the younger segment: still cached
            assert compile_cache_stats()["misses"] == misses
            compile_instance(hgs[0])  # the evicted one: purged
            assert compile_cache_stats()["misses"] == misses + 1
        finally:
            attached.clear()
            registry.close()

    def test_idle_exports_live_under_the_cache_budget(self, monkeypatch):
        """An export is free while in flight and priced at its mapping
        once idle; the budget evicts the least recently released idle
        export, which unlinks it, and never one still in flight."""
        from repro._util import ByteBudget
        from repro.engine import transport
        from repro.generators import generate_multiproc

        if not transport.transport_available():  # pragma: no cover
            pytest.skip("no shared memory on this platform")
        base = generate_multiproc(8, 4, g=2, seed=0)
        hgs = [base.with_weights(base.hedge_w + s) for s in range(4)]
        digests = [instance_digest(hg) for hg in hgs]
        budget = ByteBudget(1 << 30)
        monkeypatch.setattr(transport, "CACHE_BUDGET", budget)
        registry = transport.ExportRegistry()
        try:
            names = [registry.export(hg, d)["__shm__"] for hg, d in zip(
                hgs[:2], digests
            )]
            assert registry.stats()["idle_bytes"] == budget.used() == 0
            registry.release(digests[0])
            page = registry.stats()["idle_bytes"]
            assert page > 0 and budget.used() == page
            # room for one idle export: the next release evicts the
            # first, while the second stays pinned over the limit
            budget.limit = page
            registry.export(hgs[2], digests[2])
            registry.release(digests[2])
            assert registry.stats()["segments"] == 2
            with pytest.raises(FileNotFoundError):  # unlinked
                transport._attach_segment(names[0])
            transport._attach_segment(names[1]).close()  # pinned
            # taking an idle export back pins it again
            registry.export(hgs[2], digests[2])
            assert registry.stats()["idle_bytes"] == 0
            assert registry.stats()["reuses"] == 1
            registry.release(digests[2])
            registry.release(digests[1])
            assert registry.stats()["segments"] == 1
        finally:
            registry.close()
        assert registry.stats() == {
            "segments": 0, "idle_bytes": 0, "exports": 3, "reuses": 1,
            "failures": 0,
        }

    def test_an_evicted_export_taken_back_stays_mapped(self):
        """The budget's eviction callback runs without the registry's
        lock; an export re-taken in between is left mapped."""
        from repro.engine import transport
        from repro.generators import generate_multiproc

        if not transport.transport_available():  # pragma: no cover
            pytest.skip("no shared memory on this platform")
        hg = generate_multiproc(8, 4, g=2, seed=0)
        digest = instance_digest(hg)
        registry = transport.ExportRegistry()
        try:
            registry.export(hg, digest)
            export = registry._segments[digest]
            transport._drop_idle(
                registry._segments, registry._lock, digest, export
            )
            assert registry.stats()["segments"] == 1
            registry.release(digest)
            transport._drop_idle(
                registry._segments, registry._lock, digest, export
            )
            assert registry.stats()["segments"] == 0
        finally:
            registry.close()

    def test_no_export_in_flight_is_unlinked_under_eviction_churn(
        self, monkeypatch
    ):
        """More threads than cores export, attach and release a few
        instances through one registry whose budget holds a single idle
        segment, with a short switch interval: every attach finds its
        segment, and close leaves none."""
        import sys
        from multiprocessing import shared_memory

        from repro._util import ByteBudget
        from repro.engine import transport
        from repro.generators import generate_multiproc

        if not transport.transport_available():  # pragma: no cover
            pytest.skip("no shared memory on this platform")
        base = generate_multiproc(8, 4, g=2, seed=0)
        hgs = [base.with_weights(base.hedge_w + s) for s in range(3)]
        digests = [instance_digest(hg) for hg in hgs]
        monkeypatch.setattr(transport, "CACHE_BUDGET", ByteBudget(4096))
        registry = transport.ExportRegistry()
        errors = []

        def churn(k: int) -> None:
            try:
                for i in range(60):
                    j = (k + i) % len(hgs)
                    name = registry.export(hgs[j], digests[j])["__shm__"]
                    # opened by name as a worker would (but tracked:
                    # the untracked attach has its own test below)
                    shared_memory.SharedMemory(name=name).close()
                    registry.release(digests[j])
            except Exception as exc:  # pragma: no cover - the failure
                errors.append(exc)

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-5)
        try:
            threads = [
                threading.Thread(target=churn, args=(k,)) for k in range(6)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
            assert not any(t.is_alive() for t in threads)
        finally:
            sys.setswitchinterval(interval)
            registry.close()
        assert errors == []
        assert registry.stats()["segments"] == 0

    def test_threaded_untracked_attach_leaves_creations_tracked(self):
        """Six threads of one process create, attach untracked and
        unlink segments side by side.  Before Python 3.13 the attach
        swaps the resource tracker's ``register`` for the whole
        process; a creation that fell inside that swap would go
        unregistered, and its unlink would make the tracker print a
        ``KeyError``.  The tracker is a child of the process that
        registers, so the churn runs in a fresh interpreter and its
        stderr (which the tracker shares) is read back."""
        import os
        import subprocess
        import sys
        from pathlib import Path

        import repro
        from repro.engine import transport

        if not transport.transport_available():  # pragma: no cover
            pytest.skip("no shared memory on this platform")
        script = (
            "import sys, threading\n"
            "from repro.core import TaskHypergraph\n"
            "from repro.engine.transport import (\n"
            "    ExportRegistry, _attach_segment)\n"
            "sys.setswitchinterval(1e-5)\n"
            "hg = TaskHypergraph.from_configurations(\n"
            "    [[[0, 1]], [[1]], [[0], [2]]])\n"
            "def churn(k):\n"
            "    for i in range(100):\n"
            "        registry = ExportRegistry()\n"
            "        name = registry.export(hg, f'{k}.{i}')['__shm__']\n"
            "        _attach_segment(name).close()\n"
            "        registry.close()\n"
            "threads = [threading.Thread(target=churn, args=(k,))\n"
            "           for k in range(6)]\n"
            "for t in threads: t.start()\n"
            "for t in threads: t.join()\n"
        )
        src = str(Path(repro.__file__).resolve().parent.parent)
        proc = subprocess.run(
            [sys.executable, "-c", script],
            capture_output=True, text=True, timeout=120,
            env={**os.environ, "PYTHONPATH": src},
        )
        assert proc.returncode == 0, proc.stderr
        assert "KeyError" not in proc.stderr, proc.stderr[-2000:]

    def test_auto_transport_keeps_small_instances_on_pickle(self, batch):
        engine = BatchSolver(
            max_workers=2, executor="process", cache=False,
            shm_min_bytes=1 << 30,
        )
        try:
            engine.solve_many(batch)
            assert engine.transport_stats()["exports"] == 0
        finally:
            engine.close()

    def test_no_floor_pickles_every_instance(self, batch):
        """``shm_min_bytes=None`` turns shared memory off, where a zero
        floor would ship every instance of the batch by segment."""
        with BatchSolver(
            max_workers=2, executor="process", cache=False,
            shm_min_bytes=None,
        ) as engine:
            out = engine.solve_many(batch)
            assert engine.transport_stats()["exports"] == 0
        assert len(out) == len(batch)

    def test_module_level_solve_many_leaves_no_pool_behind(self, batch):
        """The module-level call owns its pool: once it returns, no
        worker process and no pool thread is left alive."""
        threads = set(threading.enumerate())
        out = solve_many(batch[:3], max_workers=2, cache=False)
        assert len(out) == 3
        assert multiprocessing.active_children() == []
        assert {
            t for t in threading.enumerate() if t.is_alive()
        } <= threads

    def test_custom_cache_gets_private_engine(self, batch):
        cache = ResultCache(maxsize=8)
        solve_many(batch[:2], max_workers=1, cache=cache)
        assert cache.stats()["misses"] == 2  # the caller's cache was used

    def test_dynamic_instance_is_accepted(self, batch):
        from repro.dynamic import DynamicInstance

        inst = DynamicInstance.from_hypergraph(batch[0])
        # the instance compiles to a *canonical* hypergraph (hyperedges
        # grouped by task), so compare against that form — indices into
        # the original generator ordering would not line up
        direct = solve_many([inst.to_hypergraph()], max_workers=1, cache=False)
        via_dyn = solve_many([inst], max_workers=1, cache=False)
        np.testing.assert_array_equal(
            direct[0].matching.hedge_of_task,
            via_dyn[0].matching.hedge_of_task,
        )
        baseline = solve_many([batch[0]], max_workers=1, cache=False)
        assert via_dyn[0].makespan == baseline[0].makespan

    def test_bad_transport_rejected(self):
        with pytest.raises(ValueError, match="shm_min_bytes"):
            BatchSolver(shm_min_bytes=-1)
        with pytest.raises(ValueError, match="unknown executor"):
            BatchSolver(executor="thread")
