"""The asyncio solve server.

One :class:`SolveServer` owns the whole serving stack on one TCP
endpoint:

* the **protocol** layer (:mod:`repro.service.protocol`) frames and
  validates envelopes (a JSON header line, then any binary
  attachments);
* **admission control** bounds work before it starts: a global cap on
  queued solves plus a per-connection in-flight cap, and anything over
  either limit is answered immediately with the ``overloaded``
  load-shed error instead of silently queueing to time out;
* the **single-flight** layer (:mod:`repro.service.dedup`) collapses
  concurrent identical requests — same instance digest, same canonical
  options — into one engine solve whose result every caller shares;
* the **micro-batcher** (:mod:`repro.service.batching`) coalesces the
  surviving compatible requests into
  :meth:`~repro.engine.batch.BatchSolver.solve_many` calls under a
  latency budget;
* **sessions** (:mod:`repro.service.sessions`) host server-side
  :class:`~repro.dynamic.DynamicInstance` + incremental solvers fed by
  wire mutation records;
* **metrics**: a private :class:`~repro.obs.metrics.MetricsRegistry`
  counts it all under ``service.``-prefixed names, and the ``metrics``
  op serves it back (JSON with the prefix stripped, or Prometheus
  text).

The engine is shared across every path — by default a serial
:class:`BatchSolver` on the process-wide result cache, so warm-path
requests are answered from the same content-addressed
:class:`~repro.engine.cache.ResultCache` (and the kernels' digest-keyed
compile cache) that in-process ``solve()`` calls feed, and repeated
instances never recompile.  Solves run in executor threads; the event
loop only parses, routes and frames.
"""

from __future__ import annotations

import asyncio
import itertools
import json
import time
from dataclasses import dataclass, field, fields
from functools import partial
from typing import Any

from ..api.options import SolveOptions
from ..api.result import SolveResult
from ..core.hypergraph import TaskHypergraph
from .._util import CACHE_BUDGET
from ..engine.batch import BatchSolver, cache_report
from ..engine.cache import instance_digest, packed_digests, seed_digests
from ..kernels import cached_structure
from ..obs.health import HealthBudget, score_fleet
from ..obs.metrics import MetricsRegistry
from ..obs.trace import (
    RECORDER,
    attached,
    carry,
    collecting,
    disable_tracing,
    enable_tracing,
    shippable,
    span,
    tracing_enabled,
)
from .batching import BATCH_SIZE, MicroBatcher
from .dedup import SingleFlight
from .framing import FrameStream
from .protocol import (
    ErrorCode,
    ProtocolError,
    decode_header,
    echo_id,
    error_code_for,
    error_response,
    frame_parts,
    ok_response,
    resolve_attachments,
    validate_request,
)
from .sessions import SessionManager
from .wire import hypergraph_from_wire, packed_instance

__all__ = ["SolveServer"]

#: Ops that represent real solving work and therefore pass admission
#: control (``ping``/``metrics``/``session.close`` stay answerable even
#: on a saturated server — you can always ask it how it is doing).
_ADMITTED_OPS = ("solve", "session.open", "session.mutate")

#: Solve latency buckets (seconds): ~100µs to ~10s, log-spaced.
LATENCY_BUCKETS_S = (
    0.0001, 0.00025, 0.0005, 0.001, 0.0025, 0.005, 0.01, 0.025,
    0.05, 0.1, 0.25, 0.5, 1.0, 2.5, 5.0, 10.0,
)

#: Every service instrument's registry name starts with this prefix,
#: which the ``metrics`` op's JSON strips from counter names (the
#: Prometheus text keeps it: ``repro_service_*``).
_PREFIX = "service."
#: Registry name of the per-request solve latency histogram: each
#: answered solve, from the moment the reader hands its frame's header
#: over to the end of its response write, so the latency a client sees
#: but for the network.
_LATENCY = "service.request_latency_s"

#: header lines at least this long are decoded on the executor: a
#: large JSON payload (a dynamic-instance state, a bipartite graph)
#: costs tens of milliseconds of ``json.loads``, which on the loop
#: would stall every other connection
_EXECUTOR_DECODE_BYTES = 1 << 20


async def _finish(tasks: set[asyncio.Task], timeout: float) -> None:
    """Give ``tasks`` up to ``timeout`` to finish, then cancel and await
    the stragglers: none of them survives the call."""
    if not tasks:
        return
    _done, pending = await asyncio.wait(tasks, timeout=timeout)
    for task in pending:
        task.cancel()
    await asyncio.gather(*pending, return_exceptions=True)


@dataclass(eq=False)  # identity semantics: conns live in a set
class _Conn:
    """Per-connection state."""

    id: int
    stream: FrameStream
    write_lock: asyncio.Lock = field(default_factory=asyncio.Lock)
    inflight: int = 0
    tasks: set = field(default_factory=set)


class _SolveTicket:
    """One admitted solve's slot in the expected-arrivals count.

    Consumed exactly once — normally by :meth:`SolveServer._op_solve`
    the moment the request reaches the batching layer (or proves to be
    a dedup follower), and as a fallback by the task's done-callback if
    the handler was cancelled or failed before ever getting there."""

    __slots__ = ("consumed",)

    def __init__(self) -> None:
        self.consumed = False


class SolveServer:
    """A long-lived solve service over TCP (see
    :mod:`repro.service.protocol` for the frames).

    Parameters
    ----------
    host, port:
        Bind address; port ``0`` picks an ephemeral port (read it back
        from :attr:`port` after :meth:`start`).
    engine:
        The :class:`BatchSolver` behind every solve.  Defaults to a
        serial engine on the process-wide shared result cache — solves
        then run one at a time on the batcher's solver thread, where
        the kernels' compile cache and the result cache stay warm.
    max_batch, max_delay_s:
        Micro-batcher knobs (see :class:`MicroBatcher`).
    max_pending:
        Global admission cap: solving-class requests in flight across
        all connections.
    per_conn_inflight:
        Per-connection in-flight cap for solving-class requests.
    max_sessions:
        Cap on concurrently hosted dynamic sessions.
    allow_shutdown:
        Honor the ``shutdown`` op (tests, benches and supervised
        deployments); off by default.
    tracing:
        Enable cross-layer span tracing for the server's lifetime
        (on by default — span cost is negligible next to wire I/O, and
        the flight recorder is the whole point of running a server you
        can ask "why was that solve slow?").
    trace_threshold_s, trace_keep:
        Flight-recorder knobs: completed traces whose root span lasted
        at least ``trace_threshold_s`` are retained, newest
        ``trace_keep`` of them, served by the ``trace`` op.
    """

    def __init__(
        self,
        *,
        host: str = "127.0.0.1",
        port: int = 0,
        engine: BatchSolver | None = None,
        max_batch: int = 64,
        max_delay_s: float = 0.002,
        max_pending: int = 1024,
        per_conn_inflight: int = 256,
        max_sessions: int = 64,
        allow_shutdown: bool = False,
        tracing: bool = True,
        trace_threshold_s: float = 0.05,
        trace_keep: int = 32,
    ):
        if max_pending < 1:
            raise ValueError("max_pending must be at least 1")
        if per_conn_inflight < 1:
            raise ValueError("per_conn_inflight must be at least 1")
        self.host = host
        self.port = port
        self.engine = (
            engine
            if engine is not None
            else BatchSolver(max_workers=1, executor="serial", cache=True)
        )
        # private, not the process-wide default registry: several
        # servers often share one process (tests, benches), and their
        # counts must not bleed into each other
        self.metrics = MetricsRegistry()
        self.metrics.histogram(_LATENCY, LATENCY_BUCKETS_S)
        self.batcher = MicroBatcher(
            self.engine,
            max_batch=max_batch,
            max_delay_s=max_delay_s,
            metrics=self.metrics,
            pending_fn=lambda: self._solve_expected,
        )
        self.flight = SingleFlight()
        self.sessions = SessionManager(max_sessions=max_sessions)
        self.max_pending = int(max_pending)
        self.per_conn_inflight = int(per_conn_inflight)
        self.allow_shutdown = bool(allow_shutdown)
        self.tracing = bool(tracing)
        self.trace_threshold_s = float(trace_threshold_s)
        self.trace_keep = int(trace_keep)
        self._trace_prev: bool | None = None
        self._pending = 0
        #: admitted solve requests that have not yet reached the
        #: batcher (nor been exempted as dedup followers) — the
        #: batcher's early-flush signal
        self._solve_expected = 0
        self._conn_ids = itertools.count(1)
        self._conns: set[_Conn] = set()
        #: every running ``_serve_connection`` task, including one that
        #: has left ``_conns`` and is still reclaiming or closing
        self._serving: set[asyncio.Task] = set()
        self._started_monotonic: float | None = None
        self._server: asyncio.AbstractServer | None = None
        self._stop_task: asyncio.Task | None = None
        self._stopping = asyncio.Event()
        # normalizing SolveOptions walks the registry; requests in one
        # workload overwhelmingly repeat a handful of option dicts, so
        # memoize wire dict -> (normalized options, cache token)
        self._options_memo: dict[str, tuple[SolveOptions, tuple]] = {}

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind and start accepting connections."""
        if self.tracing:
            self._trace_prev = tracing_enabled()
            RECORDER.configure(
                threshold_s=self.trace_threshold_s, keep=self.trace_keep
            )
            enable_tracing()
        self._server = await asyncio.get_running_loop().create_server(
            partial(FrameStream, self._serve_connection),
            host=self.host,
            port=self.port,
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._started_monotonic = time.monotonic()

    async def serve_forever(self) -> None:
        """:meth:`start` (when needed) and run until :meth:`stop`."""
        if self._server is None:
            await self.start()
        await self._stopping.wait()

    async def stop(self, *, drain_s: float = 5.0) -> None:
        """Stop accepting, drain in-flight handlers, release sessions
        and the micro-batcher's solver thread.

        Drain is **bounded**: in-flight handler tasks get up to
        ``drain_s`` to finish (their responses still go out), then the
        stragglers are cancelled and awaited — no handler task survives
        ``stop()``, so nothing keeps mutating ``_pending`` or session
        state after it returns.

        Lingering connections are then closed outright, and their
        connection tasks awaited under the same bound, rather than
        waiting for the clients: on Python >= 3.12.1
        ``Server.wait_closed`` blocks until every client disconnects,
        which would let one idle client hold shutdown hostage."""
        if self._server is not None:
            self._server.close()
            self._server = None
        # resolve queued batch futures first: most handlers are blocked
        # exactly there, and flushing lets them finish inside the drain
        # window instead of being cancelled mid-solve
        await self.batcher.flush_all()
        tasks = {t for conn in list(self._conns) for t in conn.tasks}
        tasks.discard(asyncio.current_task())
        await _finish(tasks, drain_s)
        # a drained handler may have enqueued new batch work (admitted
        # before the listener closed): flush again so nothing dangles,
        # then stop the batcher's solver thread
        await self.batcher.flush_all()
        self.batcher.close()
        for conn in list(self._conns):
            conn.stream.close()
        # connection tasks outlive their ``_conns`` entry while they
        # reclaim sessions and close the writer: await those too
        await _finish(self._serving - {asyncio.current_task()}, drain_s)
        if self.tracing and self._trace_prev is not None:
            if not self._trace_prev:
                disable_tracing()
            self._trace_prev = None
        self._stopping.set()

    # ------------------------------------------------------------------
    # connection loop
    # ------------------------------------------------------------------
    async def _serve_connection(self, stream: FrameStream) -> None:
        task = asyncio.current_task()
        if task is not None:
            self._serving.add(task)
            task.add_done_callback(self._serving.discard)
        conn = _Conn(id=next(self._conn_ids), stream=stream)
        self._conns.add(conn)
        self.metrics.inc("service.connections")
        try:
            while True:
                try:
                    line = await stream.readline()
                except ProtocolError as exc:
                    # an overlong line cannot be re-synchronised: report
                    # and drop the connection
                    await self._send(
                        conn, error_response(None, exc.code, str(exc))
                    )
                    break
                if not line:
                    break
                if not line.strip():
                    continue
                if not await self._dispatch_frame(conn, line):
                    break
        finally:
            self._conns.discard(conn)
            for task in list(conn.tasks):
                task.cancel()
            try:
                await self._reclaim_conn(conn)
            except asyncio.CancelledError:
                # loop teardown (asyncio.run cancelling leftovers)
                # caught us mid-reclaim: the sessions die with the
                # process, and finishing normally still closes the
                # connection below
                pass
            stream.close()
            await stream.wait_closed()

    async def _reclaim_conn(self, conn: _Conn) -> None:
        """Release everything a dropped connection owned.

        Runs in the executor: ``close_owned`` takes each session's lock
        to serialise against an in-flight ``mutate`` batch, and that
        wait must never stall the event loop."""
        try:
            reclaim = asyncio.get_running_loop().run_in_executor(
                None, partial(self.sessions.close_owned, conn.id)
            )
        except RuntimeError:
            # the loop's default executor is already shut down (loop
            # or interpreter teardown): nothing else is served any
            # more, so reclaiming inline stalls no one
            closed = self.sessions.close_owned(conn.id)
        else:
            closed = await reclaim
        if closed:
            self.metrics.inc("service.sessions_reclaimed", closed)

    async def _dispatch_frame(self, conn: _Conn, line: bytes) -> bool:
        """Read the rest of the frame ``line`` heads and dispatch it.
        ``False`` when the stream cannot go on: the frame's attachment
        table was unreadable or its tail was cut short."""
        received = time.perf_counter()
        req_id: Any = None
        trace_ctx = None
        loop = asyncio.get_running_loop()
        # the connection's read loop awaits this dispatch, so its
        # frames still dispatch in arrival order
        off_loop = len(line) >= _EXECUTOR_DECODE_BYTES
        try:
            if off_loop:
                obj, table = await loop.run_in_executor(
                    None, decode_header, line
                )
            else:
                # repro: ignore[async-blocking] — below the floor a header decodes in well under a millisecond (a hypergraph's arrays ride in the binary tail, not the JSON); only larger headers are worth an executor hop
                obj, table = decode_header(line)
            req_id = echo_id(obj)
            if table:
                tail = await conn.stream.readexactly(
                    sum(n for _, n in table)
                )
                # views on the tail, no copy: the walk is over the
                # header only, and per-field copies on the loop thread
                # cost resident memory for nothing (the parse copies)
                obj = (
                    await loop.run_in_executor(
                        None, resolve_attachments, obj, table, tail
                    )
                    if off_loop
                    else resolve_attachments(obj, table, tail)
                )
            trace_ctx = obj.get("trace")
            op, req_id, payload = validate_request(obj)
        except ProtocolError as exc:
            self.metrics.inc("service.requests")
            self.metrics.inc(f"service.errors.{exc.code}")
            await self._send(
                conn, error_response(req_id, exc.code, str(exc))
            )
            return not exc.fatal
        self.metrics.inc("service.requests")
        self.metrics.inc(f"service.requests.{op}")
        admitted = op in _ADMITTED_OPS
        if admitted and (
            self._pending >= self.max_pending
            or conn.inflight >= self.per_conn_inflight
        ):
            self.metrics.inc("service.load_shed")
            self.metrics.inc(f"service.errors.{ErrorCode.OVERLOADED}")
            # a shed request still leaves a (tiny) trace: "the server
            # turned me away" is exactly what a latency investigation
            # wants to see in the timeline
            with attached(trace_ctx):
                with span("service.shed", local_root=True) as sp:
                    if sp.recording:
                        sp.set(op=op)
                    await self._send(
                        conn,
                        error_response(
                            req_id,
                            ErrorCode.OVERLOADED,
                            f"server over capacity ({self._pending} "
                            f"pending, {conn.inflight} on this "
                            f"connection); retry later",
                        ),
                    )
            return True
        ticket: _SolveTicket | None = None
        if admitted:
            # account at admission time, not inside the handler task:
            # a burst must not slip past the cap while tasks spin up
            self._pending += 1
            conn.inflight += 1
            if op == "solve":
                self._solve_expected += 1
                ticket = _SolveTicket()
        task = asyncio.get_running_loop().create_task(
            self._handle(
                conn, op, req_id, payload, ticket, trace_ctx, received
            )
        )
        conn.tasks.add(task)

        def _release(t, conn=conn, admitted=admitted, ticket=ticket):
            # done-callbacks run even for tasks cancelled before their
            # first step, so admission accounting can never leak the
            # way a `finally` inside the (never-started) coroutine would
            conn.tasks.discard(t)
            if admitted:
                self._pending -= 1
                conn.inflight -= 1
            self._consume(ticket)

        task.add_done_callback(_release)
        return True

    def _consume(self, ticket: _SolveTicket | None) -> None:
        """Retire a solve's expected-arrivals slot (idempotent)."""
        if ticket is not None and not ticket.consumed:
            ticket.consumed = True
            self._solve_expected -= 1

    async def _send(self, conn: _Conn, envelope: dict) -> None:
        parts = frame_parts(envelope)
        async with conn.write_lock:
            conn.stream.write(parts)
            await conn.stream.drain()

    # ------------------------------------------------------------------
    # request handling
    # ------------------------------------------------------------------
    async def _handle(
        self,
        conn: _Conn,
        op: str,
        req_id: Any,
        payload: dict,
        ticket: _SolveTicket | None,
        trace_ctx: dict | None,
        received: float,
    ) -> None:
        # ``local_root``: the client's envelope may name a remote
        # parent span, but *this* span is the one that completes the
        # trace in the server's recorder — the remote root never
        # reports here.  When the envelope carried a trace context the
        # request's spans divert into ``shipped`` instead and ride back
        # on the response (success or error — a traced client wants the
        # failed hop most of all), so the caller can stitch one tree
        # across the hop.
        with attached(trace_ctx):
            with collecting(trace_ctx) as shipped:
                with span("service.request", local_root=True) as sp:
                    if sp.recording:
                        sp.set(op=op, conn=conn.id)
                    try:
                        result = await self._execute(
                            conn, op, payload, ticket
                        )
                    except asyncio.CancelledError:
                        raise
                    except Exception as exc:
                        code = error_code_for(exc)
                        self.metrics.inc(f"service.errors.{code}")
                        envelope = error_response(req_id, code, str(exc))
                    else:
                        envelope = ok_response(req_id, result)
            if shipped:
                envelope["spans"] = shippable(shipped)
            await self._send(conn, envelope)
        if op == "solve" and envelope["ok"]:
            # what the client waits for: the parse and the response
            # write count, not only the solve
            self.metrics.observe(_LATENCY, time.perf_counter() - received)

    async def _execute(
        self,
        conn: _Conn,
        op: str,
        payload: dict,
        ticket: _SolveTicket | None = None,
    ) -> dict:
        if op == "ping":
            return {
                "pong": True,
                "server": {
                    "max_batch": self.batcher.max_batch,
                    "max_delay_s": self.batcher.max_delay_s,
                    "max_pending": self.max_pending,
                    "per_conn_inflight": self.per_conn_inflight,
                    "max_sessions": self.sessions.max_sessions,
                },
            }
        if op == "solve":
            return await self._op_solve(payload, ticket)
        if op == "session.open":
            return await asyncio.get_running_loop().run_in_executor(
                None, partial(self.sessions.open, payload, owner=conn.id)
            )
        if op == "session.mutate":
            return await asyncio.get_running_loop().run_in_executor(
                None,
                partial(
                    self.sessions.mutate,
                    payload.get("session"),
                    payload.get("mutations", []),
                    owner=conn.id,
                    include_assignment=bool(
                        payload.get("include_assignment", False)
                    ),
                ),
            )
        if op == "session.close":
            return await asyncio.get_running_loop().run_in_executor(
                None,
                partial(
                    self.sessions.close,
                    payload.get("session"),
                    owner=conn.id,
                ),
            )
        if op == "metrics":
            return self._op_metrics(payload)
        if op == "trace":
            return self._op_trace(payload)
        if op == "health":
            return await self._op_health(payload)
        if op == "shutdown":
            if not self.allow_shutdown:
                raise ProtocolError(
                    "shutdown is disabled on this server",
                    code=ErrorCode.BAD_REQUEST,
                )
            # keep a strong reference: an unreferenced task may be
            # garbage-collected mid-await and shutdown would never land
            self._stop_task = asyncio.get_running_loop().create_task(
                self.stop()
            )
            return {"stopping": True}
        raise ProtocolError(  # pragma: no cover - validate_request guards
            f"unknown op {op!r}", code=ErrorCode.UNKNOWN_OP
        )

    # -- solve -----------------------------------------------------------
    async def _op_solve(
        self, payload: dict, ticket: _SolveTicket | None
    ) -> dict:
        with span("service.op.solve") as op_sp:
            # parse off-loop: deserializing a multi-MB instance builds
            # numpy arrays and would stall every other connection.  It
            # must also happen *before* the ticket is consumed — the
            # request still counts toward the batcher's
            # expected-arrivals signal while it awaits the executor.
            hg = await asyncio.get_running_loop().run_in_executor(
                None,
                carry(
                    partial(self._parse_instance, payload.get("instance"))
                ),
            )
            # this request has arrived at the solving layer: it no
            # longer counts toward the batcher's expected-arrivals
            # signal (there are no awaits between here and its enqueue
            # below, so the window where it is counted nowhere cannot
            # be observed)
            self._consume(ticket)
            normalized, token = self._normalized_options(
                payload.get("options")
            )
            key = (instance_digest(hg), *token)
            if key in self.flight:
                # a follower never enqueues: its exit from the expected
                # count may have just made the queued requests provably
                # alone, which only the batcher can act on
                self.batcher.maybe_flush()
            wire, shared = await self.flight.run(
                key, lambda: self._solve_batched(hg, normalized, token)
            )
            if shared:
                self.metrics.inc("service.dedup_followers")
            elif wire["cache_hit"]:
                self.metrics.inc("service.cache_hits")
            if op_sp.recording:
                op_sp.set(deduped=shared, cache_hit=wire["cache_hit"])
        result = dict(wire)
        result["deduped"] = shared
        return result

    async def _solve_batched(
        self, hg: TaskHypergraph, options: SolveOptions, token: tuple
    ) -> dict:
        result = await self.batcher.solve(hg, options, token)
        return self._solve_wire(result)

    @staticmethod
    def _solve_wire(result: SolveResult) -> dict:
        return {
            # one <i4 attachment: a frame holds at most 64 MiB, so no
            # wire instance has 2**31 hyperedges
            "assignment": result.matching.hedge_of_task.astype("<i4"),
            "makespan": float(result.makespan),
            "winner": result.winner,
            "method": result.options.method.canonical(),
            "cache_hit": bool(result.cache_hit),
            "wall_time_s": float(result.wall_time_s),
            "stats": dict(result.stats),
        }

    def _parse_instance(self, data: Any) -> TaskHypergraph:
        """The request's instance, with its digests memoized (runs on
        the executor, so the on-loop dedup/routing key is a lookup).

        A hypergraph's arrays are checked for kind, count bound,
        ``version`` and dtype, then hashed first, as they arrived (the
        frame's attachment views: no narrowing copy), into its
        *structure* digest (counts and pin lists: the compile cache's
        key) and its *instance* digest (the weights too: the result
        cache, single-flight and pool routing key).  When the compile
        cache holds a compilation of the structure, its instance passed
        ``from_csr`` already, so the request's instance is that one
        under the request's weights (``with_weights`` still checks
        their shape and that they are finite and positive).  Otherwise
        ``from_csr`` validates everything."""
        packed = packed_instance(data)
        if packed is None:
            hg = hypergraph_from_wire(data)
            instance_digest(hg)
            return hg
        n_tasks, n_procs, arrays = packed
        hedge_task, hedge_ptr, hedge_procs, weights = arrays
        structure, digest = packed_digests(n_tasks, n_procs, *arrays)
        # equal digests mean equal hashed bytes; they split into the
        # same three arrays only when hedge_ptr has one entry per
        # hyperedge plus one, as it has in the cached instance
        cached = (
            cached_structure(structure)
            if hedge_task.ndim == hedge_procs.ndim == 1
            and hedge_ptr.shape == (hedge_task.shape[0] + 1,)
            else None
        )
        # a copy stops the weights from pinning the frame they arrived in
        weights = weights.copy()
        if cached is not None:
            hg = cached.with_weights(weights)
        else:
            hg = TaskHypergraph.from_csr(
                n_tasks, n_procs, hedge_task, hedge_ptr, hedge_procs, weights
            )
        seed_digests(hg, structure, digest)
        return hg

    _OPTION_FIELDS = tuple(f.name for f in fields(SolveOptions))

    def _normalized_options(
        self, data: Any
    ) -> tuple[SolveOptions, tuple]:
        """Parse + normalize a wire options dict, memoized.

        Normalization resolves the method expression against the
        registry — measurable per-request work that a burst repeats
        with the very same dict, so the memo is a large slice of the
        warm path's overhead budget."""
        try:
            memo_key = json.dumps(data, sort_keys=True)
        except (TypeError, ValueError):
            memo_key = None
        if memo_key is not None:
            hit = self._options_memo.get(memo_key)
            if hit is not None:
                return hit
        options = self._parse_options(data)
        normalized = options.normalized()
        token = normalized.cache_token()
        if memo_key is not None:
            if len(self._options_memo) >= 1024:
                self._options_memo.clear()
            self._options_memo[memo_key] = (normalized, token)
        return normalized, token

    def _parse_options(self, data: Any) -> SolveOptions:
        if data is None:
            return self.engine.defaults
        if not isinstance(data, dict):
            raise ProtocolError(
                "'options' must be an object of SolveOptions fields",
                code=ErrorCode.BAD_REQUEST,
            )
        unknown = sorted(set(data) - set(self._OPTION_FIELDS))
        if unknown:
            raise ProtocolError(
                f"unknown options field(s) {unknown}; known: "
                f"{list(self._OPTION_FIELDS)}",
                code=ErrorCode.BAD_REQUEST,
            )
        return SolveOptions(**data)

    # -- observability ---------------------------------------------------
    def _op_trace(self, payload: dict) -> dict:
        """The ``trace`` op: the flight recorder's retained slow traces."""
        count = payload.get("count")
        if count is not None and (
            isinstance(count, bool) or not isinstance(count, int)
        ):
            raise ProtocolError(
                "'count' must be an integer",
                code=ErrorCode.BAD_REQUEST,
            )
        return {
            "enabled": tracing_enabled(),
            "threshold_s": RECORDER.threshold_s,
            "keep": RECORDER.keep,
            "traces": RECORDER.flight(count),
        }

    def _op_metrics(self, payload: dict | None = None) -> dict:
        fmt = (payload or {}).get("format", "json")
        if fmt == "prometheus":
            return {"text": self.metrics.prometheus_text()}
        if fmt != "json":
            raise ProtocolError(
                f"unknown metrics format {fmt!r}; "
                "known: 'json', 'prometheus'",
                code=ErrorCode.BAD_REQUEST,
            )
        registry = self.metrics.snapshot()
        snap: dict[str, Any] = {
            "counters": {
                name[len(_PREFIX):]: value
                for name, value in registry["counters"].items()
                if name.startswith(_PREFIX)
            },
            "request_latency_s": registry["histograms"][_LATENCY],
            "batch_size": registry["histograms"][BATCH_SIZE],
        }
        snap["dedup"] = {
            "leaders": self.flight.leaders,
            "followers": self.flight.followers,
            "inflight": len(self.flight),
        }
        snap["engine_cache"] = (
            self.engine.cache.stats()
            if self.engine.cache is not None
            else None
        )
        snap["caches"] = cache_report(self.engine.cache)
        snap["sessions"] = {"open": len(self.sessions)}
        snap["pending"] = self._pending
        snap["uptime_s"] = self.uptime_s
        return snap

    @property
    def uptime_s(self) -> float:
        """Seconds since :meth:`start` bound the listener (0 before)."""
        if self._started_monotonic is None:
            return 0.0
        return time.monotonic() - self._started_monotonic

    def _health_budget(self, payload: dict) -> HealthBudget:
        try:
            return HealthBudget.from_wire(payload.get("budget"))
        except ValueError as exc:
            raise ProtocolError(str(exc), code=ErrorCode.BAD_REQUEST)

    async def _op_health(self, payload: dict) -> dict:
        """The ``health`` op: single-server subset of the fleet checks
        (the sharded front-end overrides this with the full set)."""
        budget = self._health_budget(payload)
        verdict = score_fleet(
            {
                "requests": self.metrics.counter_value("service.requests"),
                "load_shed": self.metrics.counter_value("service.load_shed"),
                "latency_p99_s": self.metrics.histogram(_LATENCY).quantile(
                    0.99
                ),
                "uptime_s": self.uptime_s,
            },
            budget,
        )
        verdict["uptime_s"] = self.uptime_s
        verdict["cache_budget"] = CACHE_BUDGET.stats()
        return verdict
