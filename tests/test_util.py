"""Tests for repro._util."""

import gc
import sys
import threading
import time

import numpy as np
import pytest

from repro._util import (
    GHOST_KEYS,
    PROBATION_ENTRIES,
    BoundedLRU,
    ByteBudget,
    SegmentedLRU,
    Timer,
    as_rng,
    check_1d_int,
    csr_group,
    stable_argsort,
)


class TestAsRng:
    def test_none_gives_generator(self):
        assert isinstance(as_rng(None), np.random.Generator)

    def test_int_seed_reproducible(self):
        a = as_rng(42).integers(0, 1000, size=10)
        b = as_rng(42).integers(0, 1000, size=10)
        assert np.array_equal(a, b)

    def test_generator_passthrough(self):
        g = np.random.default_rng(0)
        assert as_rng(g) is g

    def test_different_seeds_differ(self):
        a = as_rng(1).integers(0, 10**9)
        b = as_rng(2).integers(0, 10**9)
        assert a != b


class TestTimer:
    def test_accumulates(self):
        t = Timer()
        with t:
            time.sleep(0.01)
        first = t.elapsed
        assert first > 0
        with t:
            time.sleep(0.01)
        assert t.elapsed > first

    def test_pause_excludes_time(self):
        t = Timer()
        with t:
            with t.pause():
                time.sleep(0.05)
        assert t.elapsed < 0.04


class TestCheck1dInt:
    def test_accepts_list(self):
        out = check_1d_int([1, 2, 3], "x")
        assert out.dtype == np.int64
        assert out.tolist() == [1, 2, 3]

    def test_rejects_2d(self):
        with pytest.raises(ValueError, match="one-dimensional"):
            check_1d_int(np.zeros((2, 2)), "x")


class TestStableArgsort:
    def test_sorts(self):
        assert stable_argsort(np.array([3, 1, 2])).tolist() == [1, 2, 0]

    def test_stability_on_ties(self):
        # equal keys keep original order — the greedy visit order relies
        # on this
        keys = np.array([1, 0, 1, 0, 1])
        assert stable_argsort(keys).tolist() == [1, 3, 0, 2, 4]


class TestCsrGroup:
    @pytest.mark.parametrize("n_keys", [1, 7, 1 << 16, (1 << 16) + 1, 200_000])
    def test_matches_stable_argsort_and_bincount(self, n_keys):
        # both sort paths: radix on uint16 keys, combined keys above
        keys = np.random.default_rng(n_keys).integers(0, n_keys, size=5000)
        ptr, order = csr_group(keys, n_keys)
        assert order.dtype == np.int64
        assert np.array_equal(order, np.argsort(keys, kind="stable"))
        assert ptr[0] == 0 and ptr.shape == (n_keys + 1,)
        assert np.array_equal(
            np.diff(ptr), np.bincount(keys, minlength=n_keys)
        )

    def test_empty(self):
        ptr, order = csr_group(np.empty(0, dtype=np.int64), 3)
        assert ptr.tolist() == [0, 0, 0, 0] and order.size == 0


class TestBoundedLRU:
    def test_entry_cap_evicts_least_recently_used(self):
        lru = BoundedLRU(2)
        lru.put("a", 1)
        lru.put("b", 2)
        assert lru.get("a") == 1  # refresh: "b" is now the oldest
        assert lru.put("c", 3) == 1
        assert lru.get("b") is None
        assert lru.get("a") == 1 and lru.get("c") == 3
        assert lru.stats() == {
            "entries": 2, "bytes": 0, "hits": 3, "misses": 1,
        }

    def test_byte_cap_evicts_oldest_first(self):
        lru = BoundedLRU(10, budget=ByteBudget(10), sizeof=len)
        lru.put("a", "xxxx")
        lru.put("b", "xxxx")
        assert lru.put("c", "xxxx") == 1  # 12 bytes > 10: "a" goes
        assert lru.get("a") is None
        assert lru.stats()["entries"] == 2
        assert lru.stats()["bytes"] == 8

    def test_replacing_a_key_reprices_it(self):
        lru = BoundedLRU(10, budget=ByteBudget(10), sizeof=len)
        lru.put("a", "xxxx")
        lru.put("a", "xx")
        assert lru.stats()["bytes"] == 2 and len(lru) == 1

    def test_reprice_prices_a_value_that_grew_in_place(self):
        lru = BoundedLRU(10, budget=ByteBudget(10), sizeof=len)
        a, b = ["x"] * 4, ["y"] * 4
        lru.put("a", a)
        lru.put("b", b)
        a.extend("xxx")  # 7 now, still priced as 4
        # 7 + 4 > 10, and "a" became the newest entry: "b" goes
        assert lru.reprice("a", a) == 1
        assert lru.get("b") is None
        assert lru.stats()["entries"] == 1 and lru.stats()["bytes"] == 7

    def test_reprice_never_brings_a_value_back(self):
        lru = BoundedLRU(10, budget=ByteBudget(10), sizeof=len)
        a = ["x"] * 4
        lru.put("a", a)
        lru.pop("a")
        assert lru.reprice("a", a) == 0 and len(lru) == 0
        lru.put("a", ["z"])
        assert lru.reprice("a", a) == 0  # "a" maps to another value
        assert lru.get("a") == ["z"] and lru.stats()["bytes"] == 1

    def test_single_over_budget_entry_survives(self):
        lru = BoundedLRU(10, budget=ByteBudget(4), sizeof=len)
        lru.put("small", "xx")
        assert lru.put("huge", "x" * 100) == 1
        assert lru.get("huge") == "x" * 100
        assert lru.stats()["entries"] == 1

    def test_on_evict_runs_for_capacity_evictions_only(self):
        evicted = []
        lru = BoundedLRU(2, on_evict=lambda k, v: evicted.append((k, v)))
        for k in "abc":
            lru.put(k, k.upper())
        assert evicted == [("a", "A")]
        assert lru.pop("b") == "B"  # explicit removal: no callback
        lru.clear()
        assert evicted == [("a", "A")]

    def test_clear_resets_counters(self):
        lru = BoundedLRU(4, budget=ByteBudget(100), sizeof=len)
        lru.put("a", "xyz")
        lru.get("a")
        lru.get("zz")
        lru.clear()
        assert lru.stats() == {
            "entries": 0, "bytes": 0, "hits": 0, "misses": 0,
        }
        assert lru.pop("a") is None

    def test_invalid_bounds_rejected(self):
        with pytest.raises(ValueError):
            BoundedLRU(0)
        with pytest.raises(ValueError):
            BoundedLRU(4, budget=ByteBudget(10))  # no sizeof

    def test_concurrent_use_keeps_byte_accounting_exact(self):
        evicted = []
        lru = BoundedLRU(
            6, budget=ByteBudget(40), sizeof=len,
            on_evict=lambda k, v: evicted.append(k),
        )
        n_threads, n_ops = 8, 500
        barrier = threading.Barrier(n_threads)
        gets = [0] * n_threads
        reported = [0] * n_threads
        errors: list[Exception] = []

        def hammer(tid: int) -> None:
            rng = np.random.default_rng(tid)
            barrier.wait()
            try:
                for _ in range(n_ops):
                    key = int(rng.integers(0, 12))
                    if rng.integers(0, 2):
                        value = "x" * int(rng.integers(1, 16))
                        reported[tid] += lru.put(key, value)
                    else:
                        gets[tid] += 1
                        lru.get(key)
                    assert len(lru) <= 6
            except Exception as exc:  # pragma: no cover - failure path
                errors.append(exc)

        old = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=hammer, args=(tid,))
                for tid in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(timeout=60)
        finally:
            sys.setswitchinterval(old)
        assert not any(t.is_alive() for t in threads)
        assert not errors
        stats = lru.stats()
        assert stats["hits"] + stats["misses"] == sum(gets)
        assert len(evicted) == sum(reported)
        # draining every key must return the byte count to exactly 0
        held = sum(len(v) for v in map(lru.pop, range(12)) if v is not None)
        assert held == stats["bytes"] <= 40
        assert lru.stats()["bytes"] == 0 and len(lru) == 0


class TestByteBudget:
    def test_the_member_furthest_over_its_share_pays(self):
        budget = ByteBudget(10)
        a = BoundedLRU(budget=budget, share=0.5, sizeof=len)
        b = BoundedLRU(budget=budget, share=0.5, sizeof=len)
        a.put("a1", "xxxx")
        a.put("a2", "xxxx")
        assert budget.used() == 8
        assert b.put("b1", "xx") == 0  # 10: fits
        # 12 > 10: a holds 3 over its 5-byte share, b is under its
        # own, so a's oldest goes although b grew
        assert b.put("b2", "xx") == 1
        assert a.get("a1") is None and len(a) == 1 and len(b) == 2
        assert budget.stats() == {
            "budget_bytes": 10, "used_bytes": 8, "used_ratio": 0.8,
        }
        assert b.put("b3", "xxxx") == 1  # now b is the one over: it pays
        assert b.get("b1") is None and a.get("a2") == "xxxx"

    def test_a_cache_that_filled_the_budget_first_cannot_keep_it(self):
        budget = ByteBudget(100)
        results = BoundedLRU(budget=budget, share=0.25, sizeof=len)
        compiled = SegmentedLRU(sizeof=len, budget=budget, share=0.5)
        for k in range(10):
            results.put(k, "r" * 10)
        assert budget.used() == 100
        compiled.put("c", "c" * 20)
        compiled.get("c")  # reused: promoted into its share
        for k in range(10, 40):  # the results keep streaming in
            results.put(k, "r" * 10)
        assert compiled.get("c") == "c" * 20
        assert results.stats()["bytes"] == 80
        # and the other way round: compilations filling the budget
        # leave the results their share
        for k in range(10):
            compiled.put(k, "c" * 10)
            compiled.get(k)
        for k in range(40, 50):
            results.put(k, "r" * 10)
        assert all(results.get(k) is not None for k in (48, 49))
        assert results.stats()["bytes"] >= 25
        assert budget.used() <= 100

    def test_the_newest_entry_survives_whoever_pays(self):
        budget = ByteBudget(10)
        a = BoundedLRU(budget=budget, sizeof=len)
        b = BoundedLRU(budget=budget, sizeof=len)
        a.put("a1", "xxxx")
        assert b.put("huge", "x" * 100) == 1  # a's entry goes, huge stays
        assert len(a) == 0 and b.get("huge") == "x" * 100

    def test_a_collected_cache_stops_counting(self):
        budget = ByteBudget(10)
        keep = BoundedLRU(budget=budget, sizeof=len)
        gone = BoundedLRU(budget=budget, sizeof=len)
        gone.put("g", "x" * 9)
        del gone
        gc.collect()
        assert budget.used() == 0
        assert keep.put("k1", "x" * 5) == 0 and keep.put("k2", "x" * 5) == 0
        assert len(keep) == 2

    def test_a_share_is_a_fraction(self):
        with pytest.raises(ValueError):
            BoundedLRU(budget=ByteBudget(10), share=1.5, sizeof=len)


class TestSegmentedLRU:
    @staticmethod
    def _lru(limit=100):
        return SegmentedLRU(sizeof=len, budget=ByteBudget(limit))

    def test_probation_keeps_only_the_newest_first_sightings(self):
        lru = self._lru()
        for k in "abc":
            lru.put(k, k * 2)
        assert lru.put("d", "dd") == 1
        assert [lru.get(k) for k in "ab"] == [None, None]
        stats = lru.stats()
        assert (stats["entries"], stats["probation"]) == (2, 2)
        assert stats["protected"] == 0 and stats["bytes"] == 4

    def test_a_hit_in_probation_promotes(self):
        lru = self._lru()
        lru.put("a", "aa")
        assert lru.get("a") == "aa"
        for k in "bcd":  # churn probation: "a" is safe in protected
            lru.put(k, k)
        assert lru.get("a") == "aa"
        stats = lru.stats()
        assert stats["promotions"] == 1 and stats["protected"] == 1
        assert (stats["hits"], stats["misses"]) == (2, 0)

    def test_a_returning_key_is_admitted_from_the_ghosts(self):
        lru = self._lru(limit=10**6)
        for k in "abc":  # "a" leaves probation for the ghost list
            lru.put(k, k)
        assert lru.get("a") is None
        lru.put("a", "A")
        stats = lru.stats()
        assert stats["ghost_admissions"] == 1 and stats["protected"] == 1
        # "b", then GHOST_KEYS more keys leave probation: "b" is forgotten
        for k in range(GHOST_KEYS + PROBATION_ENTRIES + 1):
            lru.put(k, "v")
        lru.put("b", "B")  # only a first sighting again
        assert lru.stats()["ghost_admissions"] == 1
        assert lru.stats()["protected"] == 1
        lru.put(PROBATION_ENTRIES + 1, "v")  # still remembered
        assert lru.stats()["ghost_admissions"] == 2

    def test_the_newest_protected_entry_survives_the_budget(self):
        lru = self._lru(limit=4)
        for k in ("a", "b"):
            lru.put(k, k * 3)
            lru.get(k)  # promote: 3 + 3 > 4, so "a" goes
        assert lru.get("a") is None and lru.get("b") == "bbb"
        lru.put("c", "c" * 10)
        lru.get("c")  # alone over budget, but the newest: kept
        assert lru.get("c") == "c" * 10
        assert lru.stats()["protected"] == 1

    def test_both_segments_share_the_budget(self):
        budget = ByteBudget(10)
        lru = SegmentedLRU(sizeof=len, budget=budget)
        other = BoundedLRU(budget=budget, sizeof=len)
        lru.put("p", "x" * 4)
        assert budget.used() == 4
        lru.get("p")  # promoted: still charged once
        assert budget.used() == 4
        other.put("o1", "x" * 4)
        assert other.put("o2", "x" * 4) == 1  # 12 > 10: other pays
        assert lru.get("p") == "x" * 4

    def test_a_probation_insert_evicts_protected_values(self):
        budget = ByteBudget(10)
        lru = SegmentedLRU(sizeof=len, budget=budget)
        for k in ("a", "b"):
            lru.put(k, k * 4)
            lru.get(k)  # both protected: 8 bytes
        assert lru.put("c", "c" * 4) == 1  # 12 > 10: "a" goes
        assert lru.get("a") is None
        stats = lru.stats()
        assert (stats["probation"], stats["protected"]) == (1, 1)
        assert budget.used() == stats["bytes"] == 8

    def test_reprice_and_pop_reach_either_segment(self):
        lru = self._lru()
        grown, kept = ["x"], ["y"]
        lru.put("g", grown)
        lru.put("k", kept)
        lru.get("k")  # "k" protected, "g" on probation
        grown.extend("xx")
        kept.extend("yy")
        assert lru.reprice("g", grown) == 0 and lru.reprice("k", kept) == 0
        assert lru.stats()["bytes"] == 6
        assert lru.reprice("g", ["z"]) == 0  # another value: ignored
        assert lru.stats()["bytes"] == 6
        assert lru.pop("g") is grown and lru.pop("k") is kept
        assert lru.stats()["entries"] == 0 and lru.stats()["bytes"] == 0
        assert lru.values() == []

    def test_clear_resets_everything(self):
        lru = self._lru()
        for k in "abc":
            lru.put(k, k)
        lru.get("c")
        lru.clear()
        lru.put("a", "a")  # the ghost list went too
        assert lru.stats() == {
            "entries": 1, "bytes": 1, "hits": 0, "misses": 0,
            "probation": 1, "protected": 0, "promotions": 0,
            "ghost_admissions": 0,
        }
