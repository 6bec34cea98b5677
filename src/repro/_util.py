"""Small shared utilities: RNG normalisation, timing, array helpers,
the bounded LRU every cache in the package is built on, and the one
byte budget the process's caches share."""

from __future__ import annotations

import threading
import time
import weakref
from collections import OrderedDict
from contextlib import contextmanager
from dataclasses import dataclass, field
from typing import Any, Callable, Hashable

import numpy as np

__all__ = [
    "as_rng",
    "Timer",
    "check_1d_int",
    "stable_argsort",
    "csr_group",
    "grown",
    "ByteBudget",
    "CACHE_BUDGET",
    "BoundedLRU",
    "SegmentedLRU",
]


def as_rng(seed: int | np.random.Generator | None) -> np.random.Generator:
    """Normalise ``seed`` into a :class:`numpy.random.Generator`.

    Accepts ``None`` (fresh entropy), an integer seed, or an existing
    generator (returned unchanged, so callers can thread one RNG through a
    pipeline of generators for reproducibility).
    """
    if isinstance(seed, np.random.Generator):
        return seed
    return np.random.default_rng(seed)


@dataclass
class Timer:
    """Accumulating wall-clock timer used by the experiment runner.

    Use as a context manager; ``elapsed`` accumulates over repeated entries
    so a single Timer can measure a loop body.
    """

    elapsed: float = 0.0
    _t0: float = field(default=0.0, repr=False)

    def __enter__(self) -> "Timer":
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc) -> None:
        self.elapsed += time.perf_counter() - self._t0

    @contextmanager
    def pause(self):
        """Temporarily stop the clock inside a ``with timer:`` block."""
        self.elapsed += time.perf_counter() - self._t0
        try:
            yield self
        finally:
            self._t0 = time.perf_counter()


def check_1d_int(a: np.ndarray, name: str) -> np.ndarray:
    """Return ``a`` as a contiguous 1-D int64 array, validating shape."""
    arr = np.ascontiguousarray(a, dtype=np.int64)
    if arr.ndim != 1:
        raise ValueError(f"{name} must be one-dimensional, got shape {arr.shape}")
    return arr


def stable_argsort(keys: np.ndarray) -> np.ndarray:
    """Stable argsort (mergesort) — deterministic tie order matters for
    reproducing the paper's greedy visit orders."""
    return np.argsort(keys, kind="stable")


def csr_group(keys: np.ndarray, n_keys: int) -> tuple[np.ndarray, np.ndarray]:
    """Group the int64 ``keys`` (each in ``[0, n_keys)``) into CSR form.

    Returns ``(ptr, order)``: ``order`` is the stable permutation that
    sorts ``keys`` (equal keys keep their input order), so the items of
    key ``k`` are ``order[ptr[k]:ptr[k + 1]]``.  The sort path is
    picked by measured cost: numpy's stable sort is an O(n) radix sort
    for <=16-bit keys, and otherwise the unique combined keys
    ``key * n + i`` (int64 holds them for any sizes that fit in memory)
    let a plain sort reproduce the stable permutation at a fraction of
    its cost.
    """
    n = keys.shape[0]
    ptr = np.zeros(n_keys + 1, dtype=np.int64)
    if n == 0:
        return ptr, np.empty(0, dtype=np.int64)
    np.cumsum(np.bincount(keys, minlength=n_keys), out=ptr[1:])
    if n_keys <= 1 << 16:
        return ptr, np.argsort(keys.astype(np.uint16), kind="stable")
    combined = keys * n + np.arange(n, dtype=np.int64)
    combined.sort()
    return ptr, combined % n


def grown(arr: np.ndarray, need: int, fill=None) -> np.ndarray:
    """``arr`` with capacity >= ``need`` (doubling; contents kept, new
    slots set to ``fill``, or left uninitialised when it is ``None``)."""
    cap = arr.shape[0]
    if need <= cap:
        return arr
    new_cap = max(need, 2 * cap, 16)
    out = np.empty(new_cap, dtype=arr.dtype)
    out[:cap] = arr
    if fill is not None:
        out[cap:] = fill
    return out


class ByteBudget:
    """One byte limit shared by several caches.

    A cache joins with a *share*: the fraction of the limit it keeps
    however much the others want.  Members are held weakly, so a cache
    that is garbage collected stops counting.  :meth:`used` is the sum
    of the members' priced bytes.  After an insert, :meth:`fit` evicts
    until the total fits again, each time from the LRU end of the
    member the furthest above its share.  So a cache that grows first
    cannot keep the budget: once another wants room, the one over its
    share pays, and while the shares sum to at most 1 a member within
    its share never loses an entry to another's growth.  The newest
    entry of the cache just inserted into always survives.
    """

    def __init__(self, limit: int):
        self.limit = int(limit)
        self._members: weakref.WeakKeyDictionary = (
            weakref.WeakKeyDictionary()
        )
        self._lock = threading.Lock()

    def join(self, member: Any, share: float = 0.0) -> None:
        """Count ``member``'s ``_nbytes`` (an int it keeps current);
        :meth:`fit` takes entries back through its
        ``_evict_oldest(keep)``."""
        if not 0.0 <= share <= 1.0:
            raise ValueError("a budget share is a fraction in [0, 1]")
        with self._lock:
            self._members[member] = share

    def used(self) -> int:
        """Bytes priced by every live member."""
        with self._lock:
            members = list(self._members)
        # each member's total is one int, updated under its own lock
        return sum(m._nbytes for m in members)

    def fit(self, grown: Any) -> int:
        """Evict until the members fit the limit, most-over-share member
        first, keeping ``grown``'s newest entry; returns how many
        entries were evicted.  Runs with no member lock held, so an
        eviction callback may reach any cache."""
        evicted = 0
        while True:
            with self._lock:
                members = list(self._members.items())
            if sum(m._nbytes for m, _ in members) <= self.limit:
                return evicted
            members.sort(key=lambda ms: ms[1] * self.limit - ms[0]._nbytes)
            if not any(
                m._evict_oldest(keep=int(m is grown)) for m, _ in members
            ):
                return evicted
            evicted += 1

    def stats(self) -> dict:
        """``{"budget_bytes", "used_bytes", "used_ratio"}`` snapshot."""
        used = self.used()
        return {
            "budget_bytes": self.limit,
            "used_bytes": used,
            "used_ratio": used / self.limit,
        }


#: The process's cache byte budget.  Kernel compilations
#: (:mod:`repro.kernels.compiled`), :class:`~repro.engine.ResultCache`
#: entries, a pool worker's shared-memory attachments and an engine's
#: idle shared-memory exports all charge it.  192 MiB holds about 17
#: compilations of an n=10240 instance.  The shares: reused
#: compilations keep half of it, each result cache, the attachment map
#: and each engine's idle exports a quarter.
CACHE_BUDGET = ByteBudget(192 * 1024 * 1024)


class BoundedLRU:
    """Thread-safe LRU map bounded by entry count and/or a byte budget.

    ``sizeof(value)`` prices each value (``stats()["bytes"]``); with a
    ``budget`` the prices count against that :class:`ByteBudget`, which
    the cache joins with ``share``.  Inserting evicts least-recently-used
    entries until both bounds hold — the byte bound possibly from
    another member of the budget, see :meth:`ByteBudget.fit` — except
    that the newest entry always survives: one over-budget value is
    kept, not refused.  ``on_evict(key, value)`` runs for every capacity
    eviction, after the lock is released; :meth:`pop` and :meth:`clear`
    are explicit removals and do not call it.
    """

    def __init__(
        self,
        max_entries: int | None = None,
        *,
        budget: ByteBudget | None = None,
        share: float = 0.0,
        sizeof: Callable[[Any], int] | None = None,
        on_evict: Callable[[Hashable, Any], None] | None = None,
    ):
        if max_entries is not None and max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if budget is not None and sizeof is None:
            raise ValueError("a byte budget needs a sizeof function")
        self.max_entries = max_entries
        self._budget = budget
        self._sizeof = sizeof
        self._on_evict = on_evict
        self._data: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self._lock = threading.Lock()
        self._nbytes = 0
        self.hits = 0
        self.misses = 0
        if budget is not None:
            budget.join(self, share)

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

    def __contains__(self, key: Hashable) -> bool:
        """Membership, without refreshing recency or counting."""
        with self._lock:
            return key in self._data

    def peek(self, key: Hashable) -> Any:
        """The value for ``key``, or None, without refreshing its
        recency or counting."""
        with self._lock:
            entry = self._data.get(key)
            return None if entry is None else entry[0]

    def get(self, key: Hashable) -> Any:
        """The value for ``key`` (refreshing its recency), or None;
        counts a hit or a miss."""
        with self._lock:
            entry = self._data.get(key)
            if entry is None:
                self.misses += 1
                return None
            self._data.move_to_end(key)
            self.hits += 1
            return entry[0]

    def put(self, key: Hashable, value: Any) -> int:
        """Insert or replace ``key`` as the most recent entry; returns
        how many entries were evicted to make room."""
        return self._fit(self._insert(key, value, replace_only=False))

    def reprice(self, key: Hashable, value: Any) -> int:
        """Re-price ``value`` after it grew in place, as a :meth:`put`
        that happens only while ``key`` still maps to this very value
        (an evicted or replaced value is never brought back); returns
        how many entries were evicted."""
        return self._fit(self._insert(key, value, replace_only=True))

    def _insert(self, key: Hashable, value: Any, *, replace_only: bool) -> int:
        """The insert under the entry cap alone; the byte budget is
        :meth:`_fit`'s, once no lock is held."""
        size = self._sizeof(value) if self._sizeof is not None else 0
        victims = []
        with self._lock:
            old = self._data.get(key)
            if replace_only and (old is None or old[0] is not value):
                return 0
            if old is not None:
                del self._data[key]
                self._nbytes -= old[1]
            self._data[key] = (value, size)
            self._nbytes += size
            cap = self.max_entries
            while cap is not None and len(self._data) > cap:
                victim, (vvalue, vsize) = self._data.popitem(last=False)
                self._nbytes -= vsize
                victims.append((victim, vvalue))
        self._notify(victims)
        return len(victims)

    def _fit(self, evicted: int) -> int:
        if self._budget is None:
            return evicted
        return evicted + self._budget.fit(self)

    def _evict_oldest(self, keep: int) -> bool:
        """Evict the least recently used entry unless only ``keep``
        remain; whether one went."""
        with self._lock:
            if len(self._data) <= keep:
                return False
            victim, (vvalue, vsize) = self._data.popitem(last=False)
            self._nbytes -= vsize
        self._notify([(victim, vvalue)])
        return True

    def _notify(self, victims: list) -> None:
        if self._on_evict is not None:
            for victim, vvalue in victims:
                self._on_evict(victim, vvalue)

    def values(self) -> list:
        """A snapshot of the cached values, oldest first."""
        with self._lock:
            return [value for value, _ in self._data.values()]

    def pop(self, key: Hashable) -> Any:
        """Remove ``key`` and return its value (None when absent)."""
        with self._lock:
            entry = self._data.pop(key, None)
            if entry is None:
                return None
            self._nbytes -= entry[1]
            return entry[0]

    def clear(self) -> None:
        """Drop every entry and reset the hit/miss counters."""
        with self._lock:
            self._data.clear()
            self._nbytes = 0
            self.hits = 0
            self.misses = 0

    def stats(self) -> dict[str, int]:
        """``{"entries", "bytes", "hits", "misses"}`` snapshot."""
        with self._lock:
            return {
                "entries": len(self._data),
                "bytes": self._nbytes,
                "hits": self.hits,
                "misses": self.misses,
            }


#: How many first-sighting values a :class:`SegmentedLRU` keeps on
#: probation.  Two, not one or zero, for the compile cache: with fewer
#: retained the allocator hands the freed heap back to the kernel and a
#: stream of one-shot n=10240 compilations re-faults it on every request
#: (~500 minor faults a request with one slot, ~2000 with none; 0 with
#: two, measured).
PROBATION_ENTRIES = 2

#: How many keys evicted from probation a :class:`SegmentedLRU`
#: remembers.  A 64-character digest key costs ~240 bytes here (the
#: string and its LRU slot, measured), so the list stays under 1 MiB
#: while it outlasts a method-major sweep over 4096 held instances,
#: whose instances cost far more than their keys.
GHOST_KEYS = 4096


class SegmentedLRU:
    """A cache that admits a value to its budget only on reuse.

    A first-sighting value enters *probation*, which keeps only the
    :data:`PROBATION_ENTRIES` most recent such values.  A :meth:`get`
    hit there *promotes* the value to *protected*, an LRU bounded by
    ``budget`` alone, which it joins with ``share``.  Keys evicted from
    probation are remembered, as keys only, in a ghost list of
    :data:`GHOST_KEYS` entries; a :meth:`put` under a remembered key
    (or under a key already held) goes straight to protected.  So a
    key seen once costs at most a probation slot, and a key seen twice,
    even after other keys pushed it out of probation, is kept under the
    budget.  Both segments are :class:`BoundedLRU` members of
    ``budget``; probation's share is 0, so under pressure it gives up
    its older slot before a member within its share loses anything.

    One lock orders every operation, so a promotion is never seen half
    done; budget evictions run after it is released.  :meth:`stats`
    reports both segments together under :class:`BoundedLRU`'s keys
    plus the per-segment counts, ``promotions`` and
    ``ghost_admissions``.
    """

    def __init__(
        self,
        *,
        sizeof: Callable[[Any], int],
        budget: ByteBudget,
        share: float = 0.0,
    ):
        ghosts = BoundedLRU(GHOST_KEYS)
        self._ghosts = ghosts
        self._probation = BoundedLRU(
            PROBATION_ENTRIES, budget=budget, sizeof=sizeof,
            on_evict=lambda key, _: ghosts.put(key, True),
        )
        self._protected = BoundedLRU(budget=budget, share=share, sizeof=sizeof)
        self._lock = threading.Lock()
        self.hits = 0
        self.misses = 0
        self.promotions = 0
        self.ghost_admissions = 0

    def get(self, key: Hashable) -> Any:
        """The value for ``key`` (promoting it out of probation), or
        None; counts a hit or a miss."""
        with self._lock:
            value = self._protected.get(key)
            promoted = value is None
            if promoted:
                value = self._probation.pop(key)
                if value is None:
                    self.misses += 1
                    return None
                self._protected._insert(key, value, replace_only=False)
                self.promotions += 1
            self.hits += 1
        if promoted:
            self._protected._fit(0)
        return value

    def peek(self, key: Hashable) -> Any:
        """The value for ``key`` in either segment, or None, without
        promoting, refreshing or counting it."""
        with self._lock:
            value = self._protected.peek(key)
            return self._probation.peek(key) if value is None else value

    def put(self, key: Hashable, value: Any) -> int:
        """Insert ``key``: into protected when it was seen before,
        else into probation; returns how many entries were evicted."""
        with self._lock:
            ghost = self._ghosts.pop(key) is not None
            held = self._probation.pop(key) is not None
            if ghost or held or key in self._protected:
                self.ghost_admissions += ghost
                segment = self._protected
            else:
                segment = self._probation
            evicted = segment._insert(key, value, replace_only=False)
        return segment._fit(evicted)

    def reprice(self, key: Hashable, value: Any) -> int:
        """:meth:`BoundedLRU.reprice`, in whichever segment holds
        ``key``."""
        with self._lock:
            segment = (
                self._probation if key in self._probation else self._protected
            )
            evicted = segment._insert(key, value, replace_only=True)
        return segment._fit(evicted)

    def pop(self, key: Hashable) -> Any:
        """Remove ``key`` from either segment and return its value
        (None when absent)."""
        with self._lock:
            value = self._probation.pop(key)
            protected = self._protected.pop(key)
            return protected if value is None else value

    def values(self) -> list:
        """A snapshot of the cached values, probation first."""
        with self._lock:
            return self._probation.values() + self._protected.values()

    def clear(self) -> None:
        """Drop every entry and ghost, and reset the counters."""
        with self._lock:
            for segment in (self._probation, self._protected, self._ghosts):
                segment.clear()
            self.hits = self.misses = 0
            self.promotions = self.ghost_admissions = 0

    def stats(self) -> dict[str, int]:
        """``{"entries", "bytes", "hits", "misses", "probation",
        "protected", "promotions", "ghost_admissions"}`` snapshot."""
        with self._lock:
            probation = self._probation.stats()
            protected = self._protected.stats()
            return {
                "entries": probation["entries"] + protected["entries"],
                "bytes": probation["bytes"] + protected["bytes"],
                "hits": self.hits,
                "misses": self.misses,
                "probation": probation["entries"],
                "protected": protected["entries"],
                "promotions": self.promotions,
                "ghost_admissions": self.ghost_admissions,
            }
