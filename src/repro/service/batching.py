"""Adaptive micro-batching: coalesce compatible solves under a latency
budget.

Per-request engine calls pay per-call overhead — executor hand-off,
options normalization, cache bookkeeping — that dwarfs the solve itself
for small instances.  The batcher turns the request stream back into
the batch shape the engine is built for: requests whose options share
one cache token (the *compatibility* criterion — equal tokens means
:meth:`BatchSolver.solve_many` treats them identically) queue in one
group, and the group flushes as a single ``solve_many`` call when
either it reaches ``max_batch`` or its window expires.

The window is **adaptive** under a hard latency budget
(``max_delay_s``), on two signals:

* an EMA of request inter-arrival times estimates how fast a group
  would fill, and the window is sized to collect about ``max_batch``
  arrivals — clamped to the budget above and to ``min_delay_s`` below.
  When the EMA says no second request is likely within the budget
  (sparse traffic), the window collapses to zero, so a lone request
  never idles out its full budget waiting for company that is not
  coming;
* admission control tells the batcher how many admitted solve requests
  have yet to reach it (``pending_fn``, an *expected-arrivals* count:
  the server increments at admission and decrements the moment a
  request either enqueues here or turns out not to need the engine —
  a single-flight follower).  The moment it reads zero, no compatible
  request can still arrive — whatever the EMA believes — and
  everything queued flushes immediately (:meth:`maybe_flush`).  This
  is what keeps *closed-loop* clients (send, wait, send) at native
  latency: their inter-arrival gaps look dense to the EMA, but their
  lone in-flight request is provably alone.

Flushed batches of an *inline* engine (``BatchSolver.inline``: serial
or one worker, so it solves in the calling thread, like the server's
default engine) run on one thread of the batcher's own,
one at a time and back to back.  The solves are GIL-bound, and running
them on several executor threads at once makes each slower without
making the set faster: 24 GRASP solves (n=96) take 2.2 s on one thread
and 7.3 s spread over six.  A queue at one thread, rather than a lock
around the loop's executor, hands the next batch over without an
event-loop round trip: under a lock a 4-worker pool's tiny-instance
throughput fell ≈ 15% at 1000 concurrent requests, with the thread it
stays within ≈ 6% of running batches side by side (2-CPU host).

Batching never changes *what* is computed — ``solve_many`` over a group
is bit-identical to per-request solves (asserted in the tests) — only
how often the per-call overhead is paid.
"""

from __future__ import annotations

import asyncio
from concurrent.futures import ThreadPoolExecutor
from dataclasses import dataclass, field
from typing import TYPE_CHECKING

from ..api.options import SolveOptions
from ..api.result import SolveResult
from ..core.hypergraph import TaskHypergraph
from ..obs.trace import carry, span

if TYPE_CHECKING:  # pragma: no cover - typing only
    from ..engine.batch import BatchSolver
    from ..obs.metrics import MetricsRegistry

__all__ = ["MicroBatcher"]

#: Registry name and buckets of the flushed-batch-size histogram
#: (requests coalesced per engine call).
BATCH_SIZE = "service.batch_size"
BATCH_BUCKETS = (1.0, 2.0, 4.0, 8.0, 16.0, 32.0, 64.0, 128.0, 256.0)


@dataclass
class _Group:
    """Requests sharing one options cache token, awaiting one flush.

    Items are ``(instance, future, enqueue time)`` triples — the
    enqueue timestamp is what ``queue_s`` on ``SolveResult.stats``
    derives from."""

    options: SolveOptions
    items: list[tuple[TaskHypergraph, asyncio.Future, float]] = field(
        default_factory=list
    )
    timer: asyncio.TimerHandle | None = None


class MicroBatcher:
    """Coalesce compatible solve requests into ``solve_many`` calls.

    Parameters
    ----------
    engine:
        The :class:`~repro.engine.batch.BatchSolver` every flush runs
        on (in an executor thread, so the event loop never blocks on a
        solve).
    max_batch:
        Flush a group as soon as it holds this many requests.
    max_delay_s:
        The latency budget: no admitted request waits longer than this
        for its batch to flush.
    min_delay_s:
        Floor for the adaptive window (one event-loop tick's worth),
        so a dense burst still coalesces instead of degenerating into
        per-request flushes.
    metrics:
        A :class:`~repro.obs.metrics.MetricsRegistry` to record each
        flushed batch on: its size into ``service.batch_size`` and the
        ``service.batches``/``service.batched_requests`` counters.
    pending_fn:
        Zero-argument callable reporting how many admitted solve
        requests have not yet arrived at the batcher (nor been exempted
        as dedup followers).  While it reads zero nothing compatible
        can still be in flight, so enqueues flush immediately
        (``None`` disables the signal and leaves only the window).
    """

    def __init__(
        self,
        engine: "BatchSolver",
        *,
        max_batch: int = 64,
        max_delay_s: float = 0.002,
        min_delay_s: float = 0.0002,
        metrics: "MetricsRegistry | None" = None,
        pending_fn=None,
    ):
        if max_batch < 1:
            raise ValueError("max_batch must be at least 1")
        if max_delay_s < 0 or min_delay_s < 0:
            raise ValueError("delays must be non-negative")
        self.engine = engine
        self.max_batch = int(max_batch)
        self.max_delay_s = float(max_delay_s)
        self.min_delay_s = float(min_delay_s)
        self.metrics = metrics
        if metrics is not None:
            metrics.histogram(BATCH_SIZE, BATCH_BUCKETS)
        self.pending_fn = pending_fn
        self._groups: dict[tuple, _Group] = {}
        self._tasks: set[asyncio.Task] = set()
        self._ema_gap: float | None = None
        self._last_arrival: float | None = None
        # an engine that solves in the calling thread gets one thread of
        # its own, so its batches run one at a time and back to back
        # (see the module docstring); others use the loop's executor
        self._solver = (
            ThreadPoolExecutor(1, thread_name_prefix="repro-solve")
            if engine.inline
            else None
        )

    # ------------------------------------------------------------------
    async def solve(
        self,
        hg: TaskHypergraph,
        options: SolveOptions,
        token: tuple | None = None,
    ) -> SolveResult:
        """Enqueue one instance; resolves when its batch flushes.

        ``token`` is ``options.cache_token()`` when the caller already
        computed it (the server does, for the dedup key).
        """
        loop = asyncio.get_running_loop()
        now = loop.time()
        self._note_arrival(now)
        if token is None:
            token = options.cache_token()
        group = self._groups.get(token)
        if group is None:
            group = _Group(options=options)
            self._groups[token] = group
            delay = self._window()
            if delay > 0:
                group.timer = loop.call_later(
                    delay, self._flush, token
                )
        fut: asyncio.Future = loop.create_future()
        group.items.append((hg, fut, now))
        if len(group.items) >= self.max_batch or group.timer is None:
            self._flush(token)
        else:
            self.maybe_flush()
        return await fut

    def maybe_flush(self) -> None:
        """Flush everything if no further arrival can be in flight.

        Called on every enqueue, and by the server whenever a request
        leaves the expected-arrivals count without enqueueing (a dedup
        follower) — the event that may just have made the queued
        requests provably alone."""
        if (
            self._groups
            and self.pending_fn is not None
            and self.pending_fn() <= 0
        ):
            for token in list(self._groups):
                self._flush(token)

    async def flush_all(self) -> None:
        """Flush every pending group and wait for in-flight batches
        (shutdown path)."""
        for token in list(self._groups):
            self._flush(token)
        while self._tasks:
            await asyncio.gather(*list(self._tasks), return_exceptions=True)

    def close(self) -> None:
        """Stop an inline engine's solver thread.  Call it once no batch
        is in flight, after the final :meth:`flush_all`: the thread is
        idle then, so the join is immediate."""
        if self._solver is not None:
            self._solver.shutdown()

    # ------------------------------------------------------------------
    # adaptivity
    # ------------------------------------------------------------------
    def _note_arrival(self, now: float) -> None:
        if self._last_arrival is not None:
            # clamp: one idle period must read as "sparse", not blow the
            # EMA up so far that the first requests of the next burst
            # flush as singletons while the estimate decays back down
            gap = min(now - self._last_arrival, 2.0 * self.max_delay_s)
            self._ema_gap = (
                gap
                if self._ema_gap is None
                else 0.8 * self._ema_gap + 0.2 * gap
            )
        self._last_arrival = now

    def _window(self) -> float:
        """The coalescing window for a group opening now."""
        ema = self._ema_gap
        if ema is None:
            # cold start: no arrival-rate estimate yet, spend the budget
            return self.max_delay_s
        if ema >= self.max_delay_s:
            # sparse traffic: the budget would buy no companions, so a
            # lone request flushes immediately
            return 0.0
        return min(
            self.max_delay_s, max(ema * self.max_batch, self.min_delay_s)
        )

    # ------------------------------------------------------------------
    # flushing
    # ------------------------------------------------------------------
    def _flush(self, token: tuple) -> None:
        """Detach a group and start its batch (idempotent per group)."""
        group = self._groups.pop(token, None)
        if group is None:
            return
        if group.timer is not None:
            group.timer.cancel()
        task = asyncio.get_running_loop().create_task(
            self._run_batch(group)
        )
        self._tasks.add(task)
        task.add_done_callback(self._tasks.discard)

    async def _run_batch(self, group: _Group) -> None:
        loop = asyncio.get_running_loop()
        instances = [hg for hg, _, _ in group.items]
        # many requests may funnel into one flush; the flush span (and
        # the engine spans under it) lands in the trace of whichever
        # request triggered it — ``carry`` walks that context across
        # the executor-thread hop
        with span("service.batch.flush") as sp:
            if sp.recording:
                sp.set(size=len(instances))

            def run():
                # the batch starts when a thread takes it, not when it
                # is queued for one
                started = loop.time()
                return started, self.engine.solve_many(
                    instances, options=group.options
                )

            try:
                started, results = await loop.run_in_executor(
                    self._solver, carry(run)
                )
            except Exception as exc:
                for _, fut, _ in group.items:
                    if not fut.done():
                        fut.set_exception(exc)
                        fut.exception()  # mark retrieved when abandoned
                return
        if self.metrics is not None:
            self.metrics.observe(BATCH_SIZE, float(len(group.items)))
            self.metrics.inc("service.batches")
            self.metrics.inc("service.batched_requests", len(group.items))
        for (_, fut, enqueued), result in zip(group.items, results):
            result.stats["queue_s"] = max(0.0, started - enqueued)
            if not fut.done():
                fut.set_result(result)
