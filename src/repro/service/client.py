"""Clients for the solve service: one asyncio client, also driven blocking.

:class:`AsyncServiceClient` multiplexes any number of concurrent
coroutine calls over one connection, correlated by request id, which is
what exercises the server's micro-batcher and single-flight layers from
a single process.  Every request goes through one wire primitive
(:meth:`~AsyncServiceClient._exchange`) and every solve through one
``worker-lost`` retry policy (:meth:`~AsyncServiceClient.solve_pipelined`).
:class:`ServiceClient` is the ergonomic blocking client — one call, one
answer — and is that asyncio client run on a private event loop.

Solve answers come back as :class:`RemoteSolveResult`: the assignment
as an int64 array plus the provenance the server reported.  Matchings
are **bit-identical** to a local :func:`repro.api.solve` of the same
``(instance, options)`` — the assignment arrives as an int32
attachment and floats round-trip through JSON's shortest-repr
encoding — and :meth:`RemoteSolveResult.matching` re-validates
against the caller's own instance, exactly like the engine's
cache-hit path does.
"""

from __future__ import annotations

import asyncio
import itertools
from dataclasses import dataclass
from typing import Any, Coroutine, Iterable, Sequence, TypeVar

import numpy as np

from ..api.methods import parse_method
from ..api.options import SolveOptions
from ..core.bipartite import BipartiteGraph
from ..core.hypergraph import TaskHypergraph
from ..core.semimatching import HyperSemiMatching
from ..dynamic import DynamicInstance, Mutation
from ..obs.trace import ingest, wire_context
from ..sched.model import SchedulingProblem
from .framing import FrameStream
from .protocol import (
    ErrorCode,
    ProtocolError,
    RemoteError,
    decode_header,
    frame_parts,
    request,
    resolve_attachments,
)

#: how many times the clients re-send a solve answered ``worker-lost``
#: before giving up.  Solves are deterministic and side-effect free, so
#: the retry is always safe; the sharded front-end routes the re-send
#: around the dead worker (or onto its restarted successor), and a
#: couple of attempts outlive any single crash.
WORKER_LOST_RETRIES = 3

__all__ = [
    "RemoteSolveResult",
    "RemoteSession",
    "ServiceClient",
    "AsyncServiceClient",
    "instance_to_wire",
    "options_to_wire",
    "WORKER_LOST_RETRIES",
]


# ----------------------------------------------------------------------
# wire conversion
# ----------------------------------------------------------------------
def instance_to_wire(instance: Any) -> dict:
    """An instance as its protocol dict (pass-through for dicts).

    A hypergraph becomes its packed CSR arrays (little-endian int32
    and float64), which :func:`~repro.service.protocol.encode_frame`
    sends as frame attachments."""
    if isinstance(instance, dict):
        return instance
    if isinstance(instance, SchedulingProblem):
        instance = instance.to_hypergraph()
    if isinstance(instance, DynamicInstance):
        return instance.to_state()
    if isinstance(instance, TaskHypergraph):
        from ..io.serialize import pack_hypergraph

        return {
            "kind": "hypergraph",
            "n_tasks": int(instance.n_tasks),
            "n_procs": int(instance.n_procs),
            **pack_hypergraph(instance),
        }
    if isinstance(instance, BipartiteGraph):
        from ..io.serialize import bipartite_to_dict

        return bipartite_to_dict(instance)
    raise TypeError(
        "instance must be a SchedulingProblem, TaskHypergraph, "
        f"BipartiteGraph, DynamicInstance or dict, got "
        f"{type(instance).__name__}"
    )


def options_to_wire(
    options: SolveOptions | None = None, **fields: Any
) -> dict | None:
    """A :class:`SolveOptions` (or its keyword fields, not both) as the
    protocol's options dict; ``None`` when nothing was requested (server
    defaults).  Names are resolved by the server, which answers an
    unknown one with ``unknown-solver``."""
    if options is None and not fields:
        return None
    options = SolveOptions.merge(options, fields)
    out: dict[str, Any] = {
        "method": parse_method(options.method).canonical(),
        "seed": options.seed,
        "backend": options.backend,
    }
    if options.time_budget is not None:
        out["time_budget"] = options.time_budget
    return out


def _mutation_to_wire(mutation: Mutation | dict) -> dict:
    return mutation.to_dict() if isinstance(mutation, Mutation) else mutation


def _traced_request(op: str, rid: Any, payload: dict) -> dict:
    """A request envelope carrying the caller's trace context (when the
    caller is inside an enabled span — see the protocol's ``trace``
    envelope field)."""
    envelope = request(op, rid, **payload)
    ctx = wire_context()
    if ctx is not None:
        envelope["trace"] = ctx
    return envelope


def _unwrap(envelope: dict) -> dict:
    if envelope.get("ok"):
        return envelope["result"]
    err = envelope.get("error") or {}
    raise RemoteError(
        err.get("code", "internal"), err.get("message", "unknown error")
    )


def _worker_lost(envelope: dict) -> bool:
    error = envelope.get("error") or {}
    return error.get("code") == ErrorCode.WORKER_LOST


# ----------------------------------------------------------------------
# results
# ----------------------------------------------------------------------
@dataclass
class RemoteSolveResult:
    """One solve answer as it came off the wire.

    ``assignment`` is int64; ``raw`` is the answer's ``result`` object
    as received, its ``"assignment"`` the read-only ``<i4`` attachment
    array (so ``encode_frame(ok_response(rid, raw))`` forwards it as it
    came)."""

    assignment: np.ndarray
    makespan: float
    winner: str | None
    method: str
    cache_hit: bool
    deduped: bool
    wall_time_s: float
    stats: dict
    raw: dict

    @staticmethod
    def from_wire(result: dict) -> "RemoteSolveResult":
        return RemoteSolveResult(
            assignment=np.asarray(result["assignment"], dtype=np.int64),
            makespan=float(result["makespan"]),
            winner=result.get("winner"),
            method=result.get("method", ""),
            cache_hit=bool(result.get("cache_hit", False)),
            deduped=bool(result.get("deduped", False)),
            wall_time_s=float(result.get("wall_time_s", 0.0)),
            stats=dict(result.get("stats") or {}),
            raw=result,
        )

    @property
    def hedge_of_task(self) -> np.ndarray:
        return self.assignment

    def matching(self, instance: Any) -> HyperSemiMatching:
        """Rebuild (and thereby re-validate) the matching against the
        caller's own copy of the instance."""
        if isinstance(instance, SchedulingProblem):
            instance = instance.to_hypergraph()
        return HyperSemiMatching(instance, self.assignment)


class RemoteSession:
    """Client handle of one server-side dynamic session."""

    def __init__(self, client: "ServiceClient", info: dict):
        self._client = client
        self.id = info["session"]
        self.info = info

    def mutate(
        self,
        mutations: Iterable[Mutation | dict],
        *,
        include_assignment: bool = False,
    ) -> dict:
        """Apply a transactional batch of mutations; returns the
        session description with the repaired bottleneck."""
        self.info = self._client.call(
            "session.mutate",
            session=self.id,
            mutations=[_mutation_to_wire(m) for m in mutations],
            include_assignment=include_assignment,
        )
        return self.info

    def apply(self, mutation: Mutation | dict, **kw: Any) -> dict:
        """Apply one mutation (sugar over :meth:`mutate`)."""
        return self.mutate([mutation], **kw)

    def bottleneck(self) -> float:
        """The current repaired bottleneck (an empty mutate batch)."""
        return float(self.mutate([])["bottleneck"])

    def close(self) -> dict:
        """Tear the server-side session down; returns its final
        description."""
        return self._client.call("session.close", session=self.id)


# ----------------------------------------------------------------------
# asyncio client
# ----------------------------------------------------------------------
class AsyncServiceClient:
    """Multiplexing asyncio client: any number of concurrent calls on
    one connection, correlated by request id.

    >>> client = await AsyncServiceClient.connect(port=port)  # doctest: +SKIP
    >>> results = await asyncio.gather(                       # doctest: +SKIP
    ...     *(client.solve(hg) for hg in instances))
    """

    def __init__(self, stream: FrameStream):
        self._stream = stream
        self._ids = itertools.count(1)
        self._waiters: dict[Any, asyncio.Future] = {}
        self._dead: Exception | None = None
        self._pump = asyncio.get_running_loop().create_task(self._read_loop())

    @classmethod
    async def connect(
        cls, host: str = "127.0.0.1", port: int = 7431
    ) -> "AsyncServiceClient":
        _transport, stream = await asyncio.get_running_loop().create_connection(
            FrameStream, host, port
        )
        return cls(stream)

    async def _read_loop(self) -> None:
        """Route every answer to its waiter.  A frame the client cannot
        read (a ``ProtocolError``: bad JSON, a lying table) fails every
        waiter with it, and the end of the stream, inside a frame or
        not, with ``ConnectionError``; either way the connection
        closes, since no next frame can be found after it."""
        stream = self._stream
        try:
            while line := await stream.readline():
                # repro: ignore[async-blocking] — responses carry one assignment (an attachment), never an instance: small headers
                envelope, table = decode_header(line)
                if table:
                    try:
                        tail = await stream.readexactly(
                            sum(n for _, n in table)
                        )
                    except ProtocolError:
                        break  # the server went away inside a frame
                    envelope = resolve_attachments(envelope, table, tail)
                rid = envelope.get("id")
                # the client's ids are ints: anything else answers no one
                fut = self._waiters.pop(rid, None) if type(rid) is int else None
                if fut is not None and not fut.done():
                    fut.set_result(envelope)
            self._fail_waiters(ConnectionError("server closed the connection"))
        except asyncio.CancelledError:
            # close() cancels this task; CancelledError is a
            # BaseException, so without this clause in-flight waiters
            # would never be failed and their callers would hang
            self._fail_waiters(ConnectionError("connection closed locally"))
            raise
        except Exception as exc:
            self._fail_waiters(exc)
        finally:
            stream.close()

    def _fail_waiters(self, exc: Exception) -> None:
        # flag first, then fail the waiters: an exchange registered
        # after this cleanup sees the flag instead of parking a waiter
        # no reader will ever resolve
        self._dead = exc
        for fut in self._waiters.values():
            if not fut.done():
                fut.set_exception(exc)
                fut.exception()
        self._waiters.clear()

    async def _exchange(self, op: str, payloads: Sequence[dict]) -> list[dict]:
        """One ``op`` request per payload, in one write (so the server
        can micro-batch and dedup across the burst); the envelopes come
        back in payload order.  A traced request's response may
        piggyback server-side spans (API.md "Fleet observability"):
        they are filed for every envelope, error envelopes included, so
        even the ``worker-lost`` hop reaches the caller's trace."""
        loop = asyncio.get_running_loop()
        rids = [next(self._ids) for _ in payloads]
        futs = [loop.create_future() for _ in payloads]
        self._waiters.update(zip(rids, futs))
        try:
            if self._dead is not None:
                # repro: ignore[contract-sync] — client-side raise: surfaces to the local caller, never crosses the wire
                raise ConnectionError(
                    f"connection is closed: {self._dead}"
                ) from self._dead
            self._stream.write(
                [
                    part
                    for rid, payload in zip(rids, payloads)
                    for part in frame_parts(_traced_request(op, rid, payload))
                ]
            )
            await self._stream.drain()
            # every waiter is registered: awaiting them in turn waits for
            # the last answer, whatever order the answers arrive in
            envelopes = [await fut for fut in futs]
        finally:
            # a cancelled or failed exchange leaves no waiter behind: a
            # late answer to it is dropped by the read loop
            for rid in rids:
                self._waiters.pop(rid, None)
        for envelope in envelopes:
            if isinstance(envelope.get("spans"), list):
                ingest(envelope["spans"])
        return envelopes

    async def call(self, op: str, **payload: Any) -> dict:
        """One request, one response (the building block)."""
        (envelope,) = await self._exchange(op, [payload])
        return _unwrap(envelope)

    async def ping(self) -> dict:
        return await self.call("ping")

    async def solve(
        self,
        instance: Any,
        *,
        options: SolveOptions | None = None,
        retries: int = WORKER_LOST_RETRIES,
        **fields: Any,
    ) -> RemoteSolveResult:
        """Solve one instance remotely (:meth:`solve_pipelined` of one:
        same ``worker-lost`` retry contract)."""
        (result,) = await self.solve_pipelined(
            [instance], options=options, retries=retries, **fields
        )
        return result

    async def solve_pipelined(
        self,
        instances: Sequence[Any],
        *,
        options: SolveOptions | None = None,
        retries: int = WORKER_LOST_RETRIES,
        **fields: Any,
    ) -> list[RemoteSolveResult]:
        """Send every request as one burst, then collect the
        out-of-order responses; results come back in input order.

        A ``worker-lost`` answer (a sharded endpoint's worker died with
        the request in flight) is re-sent, in a fresh burst of only the
        lost requests, for up to ``retries`` rounds — solves are
        deterministic and side-effect free, so the re-send is always
        safe.  Every other error propagates untouched."""
        wire_options = options_to_wire(options, **fields)
        extra: dict = {} if wire_options is None else {"options": wire_options}
        payloads = [
            {"instance": instance_to_wire(instance), **extra}
            for instance in instances
        ]
        envelopes: dict[int, dict] = {}
        pending = list(range(len(payloads)))
        for attempt in range(retries + 1):
            if attempt:
                # brief linear backoff: restart takes the supervisor a
                # few tens of milliseconds, and the ring routes around
                # the dead slot meanwhile
                await asyncio.sleep(0.05 * attempt)
            answers = await self._exchange(
                "solve", [payloads[index] for index in pending]
            )
            envelopes.update(zip(pending, answers))
            pending = [
                index for index in pending if _worker_lost(envelopes[index])
            ]
            if not pending:
                break
        return [
            RemoteSolveResult.from_wire(_unwrap(envelopes[index]))
            for index in range(len(payloads))
        ]

    async def metrics(self, *, format: str = "json") -> dict:
        """The server's ``metrics`` snapshot (or, with
        ``format="prometheus"``, ``{"text": <exposition text>}``)."""
        if format == "json":
            return await self.call("metrics")
        return await self.call("metrics", format=format)

    async def traces(self, count: int | None = None) -> dict:
        """The server's flight recorder: its retained slow traces."""
        if count is None:
            return await self.call("trace")
        return await self.call("trace", count=count)

    async def health(self, *, budget: dict | None = None) -> dict:
        """The server's ``health`` verdict, optionally graded against
        a caller-supplied budget (see ``repro.obs.health``)."""
        if budget is None:
            return await self.call("health")
        return await self.call("health", budget=budget)

    async def shutdown(self) -> dict:
        return await self.call("shutdown")

    async def close(self) -> None:
        self._pump.cancel()
        try:
            await self._pump
        except (asyncio.CancelledError, Exception):
            pass
        self._stream.close()
        await self._stream.wait_closed()


# ----------------------------------------------------------------------
# blocking client
# ----------------------------------------------------------------------
_T = TypeVar("_T")


class ServiceClient:
    """Blocking client: an :class:`AsyncServiceClient` run on a private
    event loop.

    ``timeout`` (seconds, ``None`` for none) bounds the connect and each
    call, retries included, and raises the builtin :class:`TimeoutError`.
    Not thread-safe (one conversation at a time); use one client per
    thread, or :class:`AsyncServiceClient` for in-process concurrency
    and from inside a running event loop.
    """

    def __init__(
        self,
        host: str = "127.0.0.1",
        port: int = 7431,
        *,
        timeout: float | None = 60.0,
    ):
        self._timeout = timeout
        self._loop = asyncio.new_event_loop()
        try:
            self._client = self._run(AsyncServiceClient.connect(host, port))
        except BaseException:
            self._loop.close()
            raise

    def _run(self, call: Coroutine[Any, Any, _T]) -> _T:
        task = self._loop.create_task(call)
        timer = (
            None
            if self._timeout is None
            else self._loop.call_later(self._timeout, task.cancel)
        )
        try:
            return self._loop.run_until_complete(task)
        except asyncio.CancelledError:
            # only the timer cancels the task
            # repro: ignore[contract-sync] — client-side raise: surfaces to the local caller, never crosses the wire
            raise TimeoutError(f"no answer within {self._timeout}s") from None
        finally:
            if timer is not None:
                timer.cancel()

    def call(self, op: str, **payload: Any) -> dict:
        """One request, one response (the building block)."""
        return self._run(self._client.call(op, **payload))

    def ping(self) -> dict:
        return self._run(self._client.ping())

    def solve(
        self,
        instance: Any,
        *,
        options: SolveOptions | None = None,
        retries: int = WORKER_LOST_RETRIES,
        **fields: Any,
    ) -> RemoteSolveResult:
        """See :meth:`AsyncServiceClient.solve`."""
        return self._run(
            self._client.solve(
                instance, options=options, retries=retries, **fields
            )
        )

    def solve_pipelined(
        self,
        instances: Sequence[Any],
        *,
        options: SolveOptions | None = None,
        retries: int = WORKER_LOST_RETRIES,
        **fields: Any,
    ) -> list[RemoteSolveResult]:
        """The blocking client's throughput mode; see
        :meth:`AsyncServiceClient.solve_pipelined`."""
        return self._run(
            self._client.solve_pipelined(
                instances, options=options, retries=retries, **fields
            )
        )

    def open_session(
        self,
        baseline: Any,
        *,
        method: str | None = None,
        fallback_ratio: float | None = None,
        min_fallback_region: int | None = None,
        ls_moves: int | None = None,
    ) -> RemoteSession:
        """Host ``baseline`` in a server-side dynamic session.

        Only the knobs given are sent; the rest take
        :class:`~repro.dynamic.IncrementalSolver`'s defaults."""
        knobs = {
            "method": method,
            "fallback_ratio": fallback_ratio,
            "min_fallback_region": min_fallback_region,
            "ls_moves": ls_moves,
        }
        info = self.call(
            "session.open",
            baseline=instance_to_wire(baseline),
            **{k: v for k, v in knobs.items() if v is not None},
        )
        return RemoteSession(self, info)

    def metrics(self, *, format: str = "json") -> dict:
        return self._run(self._client.metrics(format=format))

    def traces(self, count: int | None = None) -> dict:
        return self._run(self._client.traces(count))

    def health(self, *, budget: dict | None = None) -> dict:
        return self._run(self._client.health(budget=budget))

    def shutdown(self) -> dict:
        return self._run(self._client.shutdown())

    def close(self) -> None:
        if self._loop.is_closed():
            return
        try:
            self._loop.run_until_complete(self._client.close())
        finally:
            self._loop.close()

    def __enter__(self) -> "ServiceClient":
        return self

    def __exit__(self, *exc: Any) -> None:
        self.close()
