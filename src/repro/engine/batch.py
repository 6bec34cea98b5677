"""Throughput-oriented batch solving: :class:`BatchSolver` and
:func:`solve_many`.

The paper's harness (and :func:`repro.solve`) works one instance at a
time.  This module turns the same evaluation into an engine:

* **batching** — hand over many :class:`~repro.sched.model.SchedulingProblem`
  or :class:`~repro.core.hypergraph.TaskHypergraph` instances at once;
* **pooling** — instances are solved concurrently on a
  :mod:`concurrent.futures` process pool, distributed in chunks so
  per-task pickling overhead amortises;
* **portfolio mode** — race several algorithms per instance and keep the
  best makespan (never worse than any single constituent);
* **caching** — a content-addressed LRU of solved assignments, so
  repeated sweeps over the same instances (``experiments.sweep``, the
  Table I–III harness) never recompute.

Every solve returns a :class:`~repro.api.SolveResult`: the matching
(bit-identical to a sequential loop over the underlying algorithms — the
workers run the very same expression evaluation, all methods are
deterministic for a fixed ``seed``, and the pool layout only changes
*where* an instance is solved, never *what* is computed), the named
:class:`~repro.sched.schedule.Schedule` view for problem inputs, and
provenance: winning solver, wall time, cache-hit flag, per-entry
portfolio statistics.  Results come back in input order.

:func:`solve_hypergraph` is the one-instance, uncached path: the same
evaluation, returning the bare matching.
"""

from __future__ import annotations

import os
import threading
import time
from concurrent.futures import ProcessPoolExecutor
from typing import Any, Iterable, Union

from .._util import CACHE_BUDGET
from ..algorithms.local_search import search_stats, tally_moves
from ..api.methods import EntryStat, EvalContext, Outcome, evaluate
from ..api.options import SolveOptions
from ..api.registry import get_registry
from ..api.result import SolveResult
from ..core.hypergraph import TaskHypergraph
from ..core.semimatching import HyperSemiMatching
from ..kernels import compile_cache_stats
from ..obs.trace import (
    adopt,
    collect_timings,
    ingest,
    measured_span,
    ship_context,
    span,
)
from ..sched.model import SchedulingProblem
from ..sched.schedule import Schedule
from .cache import ResultCache, instance_digest
from .transport import (
    ExportRegistry,
    attach_instance,
    attachment_stats,
    instance_nbytes,
    is_descriptor,
    transport_available,
)

__all__ = [
    "BatchSolver",
    "solve_many",
    "default_engine",
    "default_cache",
    "cache_report",
    "solve_hypergraph",
]

Instance = Union[SchedulingProblem, TaskHypergraph]

_EXECUTORS = ("process", "serial")

#: Below this payload size a pickle through the pipe beats the shm
#: round-trip (segment syscall + memcpy + descriptor pickle), so the
#: default ``shm_min_bytes`` keeps small instances on the pickle path.
_SHM_MIN_BYTES = 64 * 1024

#: Cache shared by every engine created with ``cache=True`` (including
#: the default engine behind :func:`repro.solve`).
_DEFAULT_CACHE = ResultCache()

_DEFAULT_ENGINE: "BatchSolver | None" = None
_DEFAULT_LOCK = threading.Lock()


def default_cache() -> ResultCache:
    """The process-wide shared result cache."""
    return _DEFAULT_CACHE


def cache_report(cache: ResultCache | None) -> dict:
    """This process's caches against their shared byte budget:
    ``budget_bytes`` and ``used_bytes``, then ``compile`` (with its
    segment counts), ``result`` (``cache``'s stats, None without one)
    and ``attachments``, each with entries, bytes, hits and misses."""
    return {
        **CACHE_BUDGET.stats(),
        "compile": compile_cache_stats(segments=True),
        "result": cache.stats() if cache is not None else None,
        "attachments": attachment_stats(),
    }


#: The ``SolveResult.stats`` counters a cache entry keeps, so a hit
#: reports the search behind its answer.
_LS_KEYS = ("ls_moves", "ls_capped")


def _evaluate(hg: TaskHypergraph, opts: SolveOptions) -> Outcome:
    """Evaluate normalized ``opts`` on ``hg``: the matching plus the
    winning solver and per-entry portfolio statistics."""
    ctx = EvalContext(
        registry=get_registry(),
        seed=opts.seed,
        deadline=(
            time.perf_counter() + opts.time_budget
            if opts.time_budget is not None
            else None
        ),
        backend=opts.backend,
    )
    with span("engine.dispatch") as sp:
        outcome = evaluate(hg, opts.method, ctx)
        if sp.recording:
            sp.set(method=str(opts.method), winner=outcome.winner)
    return outcome


def _fresh(
    hg: TaskHypergraph, opts: SolveOptions
) -> tuple[HyperSemiMatching, dict]:
    """Solve ``hg`` afresh: the matching and its provenance record,
    ``winner``, ``entries`` (a ``(method, makespan, time_s)`` row per
    raced portfolio entry, or None) and ``stats``, the result's
    ``SolveResult.stats``."""
    with (
        collect_timings() as timings,
        tally_moves() as tally,
        measured_span("engine.solve") as sp,
    ):
        outcome = _evaluate(hg, opts)
    stats = {"solve_s": sp.duration_s, "cache_hit": False}
    stats.update(search_stats(tally, outcome.matching))
    if "kernels.compile" in timings:
        stats["compile_s"] = timings["kernels.compile"]
    entries = outcome.entries
    return outcome.matching, {
        "winner": outcome.winner,
        "entries": (
            None
            if entries is None
            else [(e.method, e.makespan, e.time_s) for e in entries]
        ),
        "stats": stats,
    }


def _result(
    hg: TaskHypergraph,
    answer: Any,
    record: dict,
    opts: SolveOptions,
    *,
    cache_hit: bool = False,
) -> SolveResult:
    """The :class:`SolveResult` of ``answer`` (a matching, or its
    assignment over ``hg``): ``record`` is :func:`_fresh`'s, or on a
    cache hit the cache's flat projection of one."""
    if cache_hit:
        stats = {"solve_s": 0.0, "cache_hit": True}
        stats.update((k, record[k]) for k in _LS_KEYS if k in record)
    else:
        stats = record["stats"]
    entries = record.get("entries")
    return SolveResult(
        matching=(
            answer
            if isinstance(answer, HyperSemiMatching)
            else HyperSemiMatching(hg, answer)
        ),
        options=opts,
        winner=record.get("winner"),
        wall_time_s=stats["solve_s"],
        cache_hit=cache_hit,
        portfolio=tuple(EntryStat(*e) for e in entries) if entries else None,
        stats=stats,
    )


def _solve_chunk(
    items: list, options: SolveOptions, trace_ctx: tuple | None = None
) -> tuple[list[tuple], list[dict] | None]:
    """Worker payload: solve a chunk, return (assignment, record) pairs
    plus any spans recorded under the shipped trace context.

    Each item is either a pickled :class:`TaskHypergraph` or a
    shared-memory descriptor (see :mod:`repro.engine.transport`); the
    two may be mixed within one chunk, since the transport decision is
    per-instance.  Returning bare ``hedge_of_task`` arrays plus
    :func:`_fresh`'s small record (rather than full matchings) keeps
    the result pickle small; the parent rebuilds — and thereby
    re-validates — each :class:`HyperSemiMatching` against its own copy
    of the instance.

    ``trace_ctx`` is the parent's ``(trace_id, span_id)`` (or ``None``
    when tracing is off): worker-side spans join that trace, come back
    as the second return element, and the parent ``ingest``\\ s them —
    the process hop contextvars cannot cross.
    """
    out = []
    with adopt(trace_ctx) as shipped:
        for item in items:
            hg = attach_instance(item) if is_descriptor(item) else item
            matching, record = _fresh(hg, options)
            out.append((matching.hedge_of_task, record))
    return out, shipped


class BatchSolver:
    """Solve many scheduling instances concurrently.

    Parameters
    ----------
    max_workers:
        Pool size; defaults to ``os.cpu_count()``.  ``1`` solves inline
        (no pool, no pickling).
    executor:
        ``"process"`` (default; real parallelism for these CPU-bound,
        GIL-holding algorithms) or ``"serial"`` (always inline,
        whatever ``max_workers`` says).
    cache:
        ``True`` (default) — share the process-wide
        :func:`default_cache`; a :class:`ResultCache` — use that
        instance; ``False``/``None`` — never cache.
    options, **fields:
        The default request, as a prepared
        :class:`~repro.api.SolveOptions` or its fields as keywords
        (``method=``, ``seed=``, ``time_budget=``, ``backend=``), not
        both.  :meth:`solve_many` keywords override single fields of it.
    shm_min_bytes:
        How instances travel to process-pool workers: those of at
        least this many bytes (default 64 KiB; below it a pickle beats
        the segment syscall + memcpy) go through
        :mod:`multiprocessing.shared_memory` (digest-keyed segments,
        attached as zero-copy views in the worker), the rest are
        pickled.  ``0`` ships every instance by segment, ``None``
        pickles them all.  Shared memory silently degrades to pickling
        per instance when the platform lacks it or segment creation
        fails, so results never depend on the transport.  The serial
        executor always hands over references.

    The worker pool is spawned by the first pooled call and kept until
    :meth:`close`, so to keep a pool warm across calls, hold one
    ``BatchSolver``.  A pooled call sends each worker a handful of
    chunks of ``ceil(pending / (4 * workers))`` instances: good load
    balance without per-instance round-trips.
    """

    def __init__(
        self,
        *,
        max_workers: int | None = None,
        executor: str = "process",
        cache: ResultCache | bool | None = True,
        options: SolveOptions | None = None,
        shm_min_bytes: int | None = _SHM_MIN_BYTES,
        **fields: Any,
    ):
        if executor not in _EXECUTORS:
            raise ValueError(
                f"unknown executor {executor!r}; choose from {_EXECUTORS}"
            )
        if shm_min_bytes is not None and shm_min_bytes < 0:
            raise ValueError("shm_min_bytes must be non-negative or None")
        if max_workers is not None and max_workers < 1:
            raise ValueError("max_workers must be at least 1")
        self.max_workers = (
            max_workers if max_workers is not None else (os.cpu_count() or 1)
        )
        self.executor = executor
        #: solves run in the calling thread: no pool, no pickling.  The
        #: service's batcher gives such an engine one solver thread.
        self.inline = executor == "serial" or self.max_workers == 1
        # identity checks: an empty ResultCache is falsy (it has __len__)
        if cache is True:
            self.cache: ResultCache | None = _DEFAULT_CACHE
        elif cache is False or cache is None:
            self.cache = None
        else:
            self.cache = cache
        self.defaults = SolveOptions.merge(options, fields)
        self.shm_min_bytes = shm_min_bytes
        self._exports = ExportRegistry()
        self._pool = None  # lazily created, reused across solve_many calls
        # one engine may serve several threads (the service's batcher
        # flushes different option-groups concurrently): guard the
        # lazy pool creation so a race cannot leak a second executor
        self._pool_lock = threading.Lock()

    # ------------------------------------------------------------------
    @staticmethod
    def _coerce(
        instance: Instance,
    ) -> tuple[SchedulingProblem | None, TaskHypergraph]:
        if isinstance(instance, SchedulingProblem):
            return instance, instance.to_hypergraph()
        if isinstance(instance, TaskHypergraph):
            return None, instance
        if hasattr(instance, "to_hypergraph"):
            # DynamicInstance (duck-typed: repro.dynamic imports the
            # engine's cache, so naming the class here would cycle).
            # Its snapshot is cached by version, so repeat solves of one
            # version share one hypergraph and one kernel compilation.
            return None, instance.to_hypergraph()
        raise TypeError(
            "instances must be SchedulingProblem, TaskHypergraph or "
            f"DynamicInstance, got {type(instance).__name__}"
        )

    # ------------------------------------------------------------------
    def solve(
        self,
        instance: Instance,
        *,
        options: SolveOptions | None = None,
        **fields: Any,
    ) -> SolveResult:
        """Solve one instance (serial fast path; still cached)."""
        return self.solve_many([instance], options=options, **fields)[0]

    def solve_many(
        self,
        instances: Iterable[Instance],
        *,
        options: SolveOptions | None = None,
        **fields: Any,
    ) -> list[SolveResult]:
        """Solve every instance; results come back in input order.

        ``options=`` replaces the engine's default request; keyword
        fields override single fields of it; not both.  Every result is
        a :class:`~repro.api.SolveResult`; :class:`SchedulingProblem`
        inputs additionally carry their :class:`Schedule` view in
        ``result.schedule``.
        """
        opts = SolveOptions.merge(options, fields, self.defaults).normalized()
        token = opts.cache_token()
        pairs = [self._coerce(x) for x in instances]
        results: list[SolveResult | None] = [None] * len(pairs)

        with span("engine.solve_many") as many_sp:
            # 1. serve what the cache already knows
            keys: list[tuple | None] = [None] * len(pairs)
            pending: list[int] = []
            for i, (_, hg) in enumerate(pairs):
                if self.cache is not None:
                    key = (instance_digest(hg), *token)
                    keys[i] = key
                    hit = self.cache.get(key)
                    if hit is not None:
                        results[i] = _result(
                            hg, hit.assignment, hit.meta, opts, cache_hit=True
                        )
                        continue
                pending.append(i)
            if many_sp.recording:
                many_sp.set(
                    instances=len(pairs),
                    cache_hits=len(pairs) - len(pending),
                    executor=self.executor,
                )

            # 2. solve the rest, pooled when it pays off
            if self.inline or len(pending) <= 1:
                fresh = [_fresh(pairs[i][1], opts) for i in pending]
            else:
                fresh = self._solve_pooled(pairs, pending, opts)
            for i, (answer, record) in zip(pending, fresh):
                res = results[i] = _result(pairs[i][1], answer, record, opts)
                if self.cache is not None:
                    stats = record["stats"]
                    self.cache.put(keys[i], res.hedge_of_task, {
                        "winner": record["winner"],
                        "entries": record["entries"],
                        **{k: stats[k] for k in _LS_KEYS if k in stats},
                    })

        out = []
        for (problem, _), result in zip(pairs, results):
            result = _checked(result)
            if problem is not None:
                result.schedule = Schedule(problem, result.matching)
            out.append(result)
        return out

    # ------------------------------------------------------------------
    def _payloads(
        self,
        pairs: list[tuple[SchedulingProblem | None, TaskHypergraph]],
        pending: list[int],
    ) -> tuple[dict[int, dict], list[str]]:
        """Shared-memory descriptors for the pending instances that
        should travel by segment, plus the digests whose export refs the
        caller must release when the batch lands."""
        payloads: dict[int, dict] = {}
        held: list[str] = []
        floor = self.shm_min_bytes
        if floor is None or not transport_available():
            return payloads, held
        for i in pending:
            hg = pairs[i][1]
            if instance_nbytes(hg) < floor:
                continue
            descriptor = self._exports.export(hg, instance_digest(hg))
            if descriptor is not None:  # None: creation failed → pickle
                payloads[i] = descriptor
                held.append(descriptor["digest"])
        return payloads, held

    def _solve_pooled(
        self,
        pairs: list[tuple[SchedulingProblem | None, TaskHypergraph]],
        pending: list[int],
        opts: SolveOptions,
    ) -> list[tuple]:
        """The workers' ``(assignment, record)`` pairs, in ``pending``
        order."""
        n_workers = min(self.max_workers, len(pending))
        chunk = -(-len(pending) // (4 * n_workers))
        chunks = [
            pending[lo : lo + chunk] for lo in range(0, len(pending), chunk)
        ]
        payloads, held = self._payloads(pairs, pending)
        trace_ctx = ship_context()
        pool = self._acquire_pool()
        try:
            futures = [
                pool.submit(
                    _solve_chunk,
                    [payloads.get(i, pairs[i][1]) for i in idxs],
                    opts,
                    trace_ctx,
                )
                for idxs in chunks
            ]
            out: list[tuple] = []
            for future in futures:
                chunk_out, shipped = future.result()
                ingest(shipped)
                out += chunk_out
            return out
        finally:
            for digest in held:
                self._exports.release(digest)

    def _acquire_pool(self):
        """The solver's executor, created by the first pooled call and
        reused until :meth:`close` (or interpreter exit, through
        :mod:`concurrent.futures`' own atexit hook).

        Spawning a process pool costs more than solving a small batch, so
        callers like the experiment runner — one ``solve_many`` per
        (spec, algorithm) — must not pay it every call.
        """
        with self._pool_lock:
            if self._pool is None:
                self._pool = ProcessPoolExecutor(max_workers=self.max_workers)
            return self._pool

    def worker_pids(self) -> list[int]:
        """PIDs of the live process-pool workers (empty for the serial
        executor, or while no pool exists).  Lets tests and diagnostics
        observe pool reuse across calls."""
        with self._pool_lock:
            pool = self._pool
        if pool is None:
            return []
        return sorted(getattr(pool, "_processes", None) or ())

    def transport_stats(self) -> dict[str, int]:
        """Export-registry counters: ``segments`` currently mapped,
        ``idle_bytes`` priced under the cache budget, ``exports``
        created, ``reuses`` served, ``failures``."""
        return self._exports.stats()

    def close(self) -> None:
        """Shut down the worker pool and unlink every shared-memory
        segment (idempotent; solver stays usable — the next pooled call
        recreates both)."""
        with self._pool_lock:
            pool, self._pool = self._pool, None
        if pool is not None:
            pool.shutdown()
        self._exports.close()

    def __enter__(self) -> "BatchSolver":
        return self

    def __exit__(self, *exc) -> None:
        self.close()


def _checked(result: SolveResult | None) -> SolveResult:
    assert result is not None  # every index is cached or pending
    return result


def solve_many(
    instances: Iterable[Instance],
    *,
    options: SolveOptions | None = None,
    max_workers: int | None = None,
    cache: ResultCache | bool | None = True,
    **fields: Any,
) -> list[SolveResult]:
    """One-call batch solve on a private :class:`BatchSolver` (see it
    for ``max_workers`` and ``cache``), closed on return: no worker
    outlives the call.  To keep a pool warm across calls, hold one
    :class:`BatchSolver`.

    The request is ``options=`` or its fields as keywords, not both.

    >>> from repro import SchedulingProblem, solve_many
    >>> probs = []
    >>> for k in range(3):
    ...     p = SchedulingProblem(processors=["a", "b"])
    ...     _ = p.add_sequential_task("t", [("a", 1.0 + k), ("b", 2.0)])
    ...     probs.append(p)
    >>> [s.makespan for s in solve_many(probs, max_workers=1)]
    [1.0, 2.0, 2.0]
    """
    with BatchSolver(max_workers=max_workers, cache=cache) as engine:
        return engine.solve_many(instances, options=options, **fields)


def default_engine() -> BatchSolver:
    """The lazily-created engine behind :func:`repro.solve` (that is,
    :func:`repro.api.solve`).

    Serial (single-instance calls gain nothing from a pool) but sharing
    the process-wide result cache, so ``solve()`` calls, batch runs and
    sweeps all feed one another.
    """
    global _DEFAULT_ENGINE
    # two first callers on different threads must not each publish an
    # engine
    with _DEFAULT_LOCK:
        if _DEFAULT_ENGINE is None:
            _DEFAULT_ENGINE = BatchSolver(
                max_workers=1, executor="serial", cache=True
            )
        return _DEFAULT_ENGINE


def solve_hypergraph(
    hg: TaskHypergraph,
    *,
    options: SolveOptions | None = None,
    **fields: Any,
) -> HyperSemiMatching:
    """Solve one hypergraph instance, uncached, and return the bare
    matching (bit-identical to a :class:`BatchSolver` answer).

    Pass a prepared :class:`~repro.api.SolveOptions` via ``options=`` or
    its fields as keywords (``method=``, ``seed=``, ``time_budget=``,
    ``backend=``), not both.  A
    :class:`~repro.dynamic.DynamicInstance` solves its current version.
    """
    opts = SolveOptions.merge(options, fields).normalized()
    return _evaluate(BatchSolver._coerce(hg)[1], opts).matching
