"""Content-addressed result cache for the batch engine.

Instances are keyed by a SHA-256 digest of their defining arrays, the
*instance digest*, so two equal hypergraphs (weights included) hit the
same entry regardless of how they were built (``from_configurations``,
``to_hypergraph``, JSON round-trip, ...).  The same pass yields the
*structure digest*, which leaves the weights out and keys the kernel
compile cache instead (:mod:`repro.kernels.compiled`).  The cached
value is the chosen ``hedge_of_task``
assignment — small, picklable, and enough to reconstruct an identical
:class:`~repro.core.semimatching.HyperSemiMatching` against any equal
instance — plus the result's provenance metadata (winning solver,
portfolio statistics), so cache hits return fully populated
:class:`~repro.api.SolveResult` objects.

A cache entry is only valid for the exact request it was computed under,
so the full key is ``(instance digest, canonical options token)``.  The
token comes from :meth:`SolveOptions.cache_token`: the *canonical method
expression* (aliases resolved, the default portfolio line-up filled
in), the seed only when the expression is seed-sensitive, and the time
budget.  Equivalent spellings — ``"EVG+ls"`` vs ``Refine("EVG")`` —
therefore share one entry.  The cache is a byte-budgeted LRU and is
thread-safe; the default shared instance lives in
:mod:`repro.engine.batch` so repeated sweeps (``experiments.sweep``,
the Table I–III harness) never recompute.
"""

from __future__ import annotations

import hashlib
from typing import NamedTuple

import numpy as np

from .._util import CACHE_BUDGET, BoundedLRU
from ..core.hypergraph import TaskHypergraph
from ..obs.trace import span

__all__ = [
    "CachedSolve",
    "ResultCache",
    "instance_digest",
    "packed_digests",
    "seed_digests",
    "structure_digest",
]


#: The largest value a packed (``<i4``) index array holds.
_INT32_MAX = 2**31 - 1


def packed_digests(
    n_tasks: int,
    n_procs: int,
    hedge_task: np.ndarray,
    hedge_ptr: np.ndarray,
    hedge_procs: np.ndarray,
    weights: np.ndarray,
) -> tuple[str, str]:
    """``(structure digest, instance digest)`` of an instance's defining
    arrays, in one SHA-256 pass.

    The pass hashes a prefix of the vertex counts and the hyperedge
    count (``hedge_task``'s length), then ``hedge_task``, ``hedge_ptr``
    and ``hedge_procs``, and then ``hedge_w``.  The structure digest is
    the hasher copied before the weights go in, so it keys what does
    not depend on them (the kernel compile cache); the instance digest
    keys what does (the result cache, single-flight, pool routing).

    The arrays are hashed in their wire dtypes: the three index arrays
    as little-endian int32, the weights as little-endian float64.  An
    instance with a count beyond int32 (so possibly an id or offset
    beyond it) hashes its index arrays as int64 under a distinct prefix
    instead.  An array already in its dtype (a frame's attachment, the
    weights) is hashed without a copy.

    Nothing is validated here, and the byte stream carries no array
    lengths beyond the prefix: two digests are equal only for equal
    bytes, and the split between ``hedge_ptr`` and ``hedge_procs`` is
    fixed only once ``hedge_ptr`` has ``len(hedge_task) + 1`` entries,
    as it has in every valid instance.
    """
    n_tasks, n_procs = int(n_tasks), int(n_procs)
    n_hedges = hedge_task.shape[0]
    # every id and offset is below one of these counts (the hypergraph
    # invariants from_csr checks), so they bound the index values
    if max(n_tasks, n_procs, hedge_procs.shape[0]) <= _INT32_MAX:
        prefix, index_dtype = "i4", "<i4"
    else:
        prefix, index_dtype = "i8", "<i8"
    h = hashlib.sha256(
        f"{prefix}|{n_tasks}|{n_procs}|{n_hedges}|".encode()
    )
    for arr in (hedge_task, hedge_ptr, hedge_procs):
        h.update(np.ascontiguousarray(arr, dtype=index_dtype).data)
    structure = h.copy().hexdigest()
    h.update(np.ascontiguousarray(weights, dtype="<f8").data)
    return structure, h.hexdigest()


def seed_digests(hg: TaskHypergraph, structure: str, digest: str) -> None:
    """Memoize digests the caller took of ``hg``'s own arrays (or of an
    equal copy of them) on ``hg``.

    The hashed arrays are frozen so the memo cannot go stale through
    in-place mutation (which would also desynchronize the result cache
    and the kernel compile cache)."""
    for arr in (hg.hedge_task, hg.hedge_ptr, hg.hedge_procs, hg.hedge_w):
        arr.setflags(write=False)
    object.__setattr__(hg, "_structure_digest_cache", structure)
    object.__setattr__(hg, "_digest_cache", digest)


def instance_digest(hg: TaskHypergraph) -> str:
    """SHA-256 digest of the arrays that define ``hg``: the instance
    key of the result cache, single-flight and pool routing.

    ``task_ptr``/``task_hedges`` and the lazily built processor index
    are derived from the hyperedge arrays, so hashing the vertex counts
    and ``hedge_task``, ``hedge_ptr``, ``hedge_procs`` and ``hedge_w``
    identifies the instance, and hashing never builds an index.  The
    same pass yields the :func:`structure_digest`, which leaves the
    weights out and keys the kernel compile cache.
    :func:`packed_digests` defines both; a server hashes a request's
    arrays with it as they arrived, before it builds the instance, and
    seeds the memos with :func:`seed_digests`.

    Both digests are memoized on the (immutable) instance, and the
    hashed arrays are frozen (see :func:`seed_digests`): the result
    cache and the compile cache both key on them, so one solve would
    otherwise hash the same arrays several times.
    """
    cached = getattr(hg, "_digest_cache", None)
    if cached is None:
        cached = _hash(hg)[1]
    return cached


def structure_digest(hg: TaskHypergraph) -> str:
    """SHA-256 digest of ``hg``'s structure: the vertex counts and
    ``hedge_task``, ``hedge_ptr``, ``hedge_procs``, without the weights.
    It keys the kernel compile cache, so every weight variant of one
    structure shares one compilation.  Taken in the same pass as (and
    memoized beside) :func:`instance_digest`."""
    cached = getattr(hg, "_structure_digest_cache", None)
    if cached is None:
        cached = _hash(hg)[0]
    return cached


def _hash(hg: TaskHypergraph) -> tuple[str, str]:
    """Both digests of ``hg``'s own arrays, memoized on it."""
    digests = packed_digests(
        hg.n_tasks, hg.n_procs,
        hg.hedge_task, hg.hedge_ptr, hg.hedge_procs, hg.hedge_w,
    )
    seed_digests(hg, *digests)
    return digests


class CachedSolve(NamedTuple):
    """One cache hit: the assignment plus its provenance metadata."""

    assignment: np.ndarray
    meta: dict


#: What one entry costs beside its assignment: the key tuple and its
#: digest string, the record, its meta dict, the array's header and the
#: LRU's bookkeeping.  Built per put as a request builds them, 1000
#: entries measured 718 bytes each with tracemalloc at 8 and at 10240
#: tasks, and VmRSS grew 723-868 bytes per entry beyond the
#: assignments over 500-5000 entries.
_ENTRY_OVERHEAD = 768

#: What each raced method of a portfolio adds to an entry: its
#: ``(method, makespan, time_s)`` row in ``meta["entries"]`` (134 bytes
#: measured with tracemalloc).
_PORTFOLIO_ROW = 136


#: The part of the budget each result cache keeps however many
#: compilations want the rest (48 MiB: ~1200 n=10240 entries, tens of
#: thousands of small ones).
_BUDGET_SHARE = 0.25


def _entry_nbytes(value: CachedSolve) -> int:
    rows = value.meta.get("entries") or ()
    return (
        value.assignment.nbytes + _ENTRY_OVERHEAD + _PORTFOLIO_ROW * len(rows)
    )


class ResultCache:
    """Bounded, thread-safe LRU cache of solve results.

    Values are ``hedge_of_task`` arrays (stored and returned as copies, so
    neither side can mutate the other's view; int32 when the ids fit,
    as they do below 2**31 hyperedges, int64 otherwise) plus a small
    provenance dict.  ``hits``/``misses`` make cache effectiveness
    observable in benchmarks and sweeps.

    Every entry is priced at its assignment's bytes plus a measured
    per-entry overhead and a row per raced method of a portfolio, and
    charges the process's :data:`~repro._util.CACHE_BUDGET`, which the
    kernel compile cache and a pool worker's attachments share.  The
    cache keeps a quarter of the budget however much the others want;
    beyond that it grows into what they leave free.  ``maxsize`` adds an
    optional entry cap on top.

    Concurrency contract (exercised by the thread-pool path of
    :meth:`BatchSolver.solve_many` and the service's executor threads,
    pinned by a stress regression test in ``tests/test_engine.py``):
    entries live in a :class:`~repro._util.BoundedLRU`, whose every
    structural operation and counter update runs under its lock, so
    concurrent get/put/evict can never corrupt the LRU order, overshoot
    its bounds, or drop counter increments.  A stored value is a
    private copy that nothing mutates, so ``get`` copies it outside the
    lock.  Note the contract is per-operation: a get-miss followed by a
    put is *not* atomic, which is exactly why concurrent identical
    requests need the service's single-flight layer
    (:mod:`repro.service.dedup`) to share one solve.
    """

    def __init__(self, maxsize: int | None = None):
        if maxsize is not None and maxsize < 1:
            raise ValueError("maxsize must be at least 1")
        self.maxsize = maxsize
        self._lru = BoundedLRU(
            maxsize, budget=CACHE_BUDGET, share=_BUDGET_SHARE,
            sizeof=_entry_nbytes,
        )

    @property
    def hits(self) -> int:
        return self._lru.hits

    @property
    def misses(self) -> int:
        return self._lru.misses

    def __len__(self) -> int:
        return len(self._lru)

    def get(self, key: tuple) -> CachedSolve | None:
        """The cached solve for ``key``, or None (counts a miss)."""
        with span("engine.cache.get") as sp:
            stored = self._lru.get(key)
            value = (
                None
                if stored is None
                else CachedSolve(stored.assignment.copy(), dict(stored.meta))
            )
            if sp.recording:
                sp.set(hit=value is not None)
            return value

    def put(
        self, key: tuple, assignment: np.ndarray, meta: dict | None = None
    ) -> None:
        """Store an assignment (+ provenance), evicting the LRU entry."""
        stored = np.asarray(assignment)
        # hyperedge ids as int32 (half the bytes, and the wire's dtype)
        # whenever they fit, which is below 2**31 hyperedges
        fits = stored.size == 0 or (
            stored.min() >= 0 and stored.max() <= _INT32_MAX
        )
        value = CachedSolve(
            np.array(stored, dtype="<i4" if fits else np.int64),
            dict(meta) if meta else {},
        )
        with span("engine.cache.put"):
            evicted = self._lru.put(key, value)
            if evicted:
                with span("engine.cache.evict") as esp:
                    if esp.recording:
                        esp.set(count=evicted)

    def clear(self) -> None:
        """Drop all entries and reset the hit/miss counters."""
        self._lru.clear()

    def stats(self) -> dict[str, int]:
        """``{"entries", "bytes", "hits", "misses"}`` snapshot."""
        return self._lru.stats()

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"ResultCache(entries={len(self)}, hits={self.hits}, "
            f"misses={self.misses}, maxsize={self.maxsize})"
        )
