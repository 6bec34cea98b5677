"""Small shared utilities: RNG normalisation, timing, array helpers and
the bounded LRU every cache in the package is built on."""

from __future__ import annotations

import threading
import time
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
    "BoundedLRU",
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


class BoundedLRU:
    """Thread-safe LRU map bounded by entry count and, optionally, bytes.

    ``sizeof(value)`` prices each value against ``max_bytes``.  Inserting
    evicts least-recently-used entries until both caps hold, except that
    the newest entry always survives: one over-budget value is kept, not
    refused.  ``on_evict(key, value)`` runs for every capacity eviction,
    after the lock is released; :meth:`pop` and :meth:`clear` are
    explicit removals and do not call it.
    """

    def __init__(
        self,
        max_entries: int,
        *,
        max_bytes: int | None = None,
        sizeof: Callable[[Any], int] | None = None,
        on_evict: Callable[[Hashable, Any], None] | None = None,
    ):
        if max_entries < 1:
            raise ValueError("max_entries must be at least 1")
        if max_bytes is not None and sizeof is None:
            raise ValueError("max_bytes needs a sizeof function")
        self.max_entries = int(max_entries)
        self._max_bytes = float("inf") if max_bytes is None else max_bytes
        self._sizeof = sizeof
        self._on_evict = on_evict
        self._data: OrderedDict[Hashable, tuple[Any, int]] = OrderedDict()
        self._lock = threading.Lock()
        self._nbytes = 0
        self.hits = 0
        self.misses = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._data)

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
        return self._insert(key, value, replace_only=False)

    def reprice(self, key: Hashable, value: Any) -> int:
        """Re-price ``value`` after it grew in place, as a :meth:`put`
        that happens only while ``key`` still maps to this very value
        (an evicted or replaced value is never brought back); returns
        how many entries were evicted."""
        return self._insert(key, value, replace_only=True)

    def _insert(self, key: Hashable, value: Any, *, replace_only: bool) -> int:
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
            while len(self._data) > 1 and (
                len(self._data) > self.max_entries
                or self._nbytes > self._max_bytes
            ):
                victim, (vvalue, vsize) = self._data.popitem(last=False)
                self._nbytes -= vsize
                victims.append((victim, vvalue))
        if self._on_evict is not None:
            for victim, vvalue in victims:
                self._on_evict(victim, vvalue)
        return len(victims)

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
