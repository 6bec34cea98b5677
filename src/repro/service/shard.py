"""The sharded solve service: one front-end, N solver workers.

A single :class:`~repro.service.server.SolveServer` solves in executor
threads of one process, so one CPU-bound solve at a time no matter how
many cores the host has.  :class:`ShardedSolveServer` keeps that whole
front-end — protocol, admission control, single-flight, metrics,
tracing — and moves the *solving* into a pool of worker processes
(:mod:`repro.service.supervisor`), each a full ``SolveServer`` of its
own on a loopback port:

* **routing** is a consistent hash of the engine cache key,
  ``(instance_digest, *options.cache_token())``, over the worker
  slots: the same request always lands on the same worker, so each
  worker's ResultCache and kernel compile cache stay warm on *its*
  slice of the keyspace instead of every worker slowly learning all of
  it.  A down worker's range walks clockwise to the next live slot.
* **single-flight still applies in front**: concurrent identical
  requests collapse to one forward, and the worker's own result cache
  answers the stragglers.
* **instances cross the hop as frame attachments**, whatever their
  size: the front-end parses once (the digest is the routing key), and
  the decoded attachment arrays go back out as the forwarded frame's
  attachments, exactly as ``session.open`` baselines do.  The worker
  parses them like any client's; nothing outlives the request.  The
  answer's assignment comes back as an attachment too, and goes out to
  the client as the same read-only array.
* **sessions are pinned**: ``session.open`` picks the least-loaded
  live worker and every later op on that session goes to the same
  worker (incremental state cannot move).  If the worker drains or
  dies, the session is *relocated*: later ops answer the typed
  ``session-relocated`` code and the client re-opens from its own
  baseline.
* **failure is typed, never a hang**: a worker crash fails its
  in-flight forwards with ``worker-lost`` (solves are deterministic
  and side-effect free, so clients retry them transparently), the
  supervisor restarts the slot under a new generation, and the ring
  heals.

Run it with ``semimatch serve --workers N``.
"""

from __future__ import annotations

import asyncio
import bisect
import os
from dataclasses import dataclass, field
from functools import partial
from hashlib import blake2b
from typing import Any, Hashable

from .._util import CACHE_BUDGET
from ..engine.cache import instance_digest
from ..obs.fleet import aggregate_fleet, unreachable_marker
from ..obs.health import score_fleet
from ..obs.trace import carry, span
from .client import AsyncServiceClient
from .protocol import (
    SessionNotFoundError,
    SessionRelocatedError,
    WorkerLostError,
)
from .server import _LATENCY, SolveServer, _Conn, _SolveTicket
from .supervisor import Supervisor, WorkerHandle, WorkerSpec

__all__ = ["HashRing", "ShardedSolveServer"]

#: relocated-session tombstones kept so late ops answer the typed
#: ``session-relocated`` instead of decaying into ``session-not-found``
_RELOCATED_KEEP = 4096


# ----------------------------------------------------------------------
# consistent hashing
# ----------------------------------------------------------------------
def _h64(data: bytes) -> int:
    return int.from_bytes(blake2b(data, digest_size=8).digest(), "big")


class HashRing:
    """Consistent hash of request keys over worker slots.

    Each slot owns ``replicas`` points on a 64-bit ring; a key routes
    to the first point at or clockwise of its own hash.  Slots are
    stable identities (a restarted worker keeps its slot), so the key
    ranges — and therefore which worker's caches are warm for which
    instances — survive crashes and restarts.  Routing around a dead
    slot walks clockwise to the next *live* one, which spreads exactly
    the dead slot's range over its ring neighbours instead of
    reshuffling everything.
    """

    def __init__(self, n_slots: int, *, replicas: int = 64):
        if n_slots < 1:
            raise ValueError("n_slots must be at least 1")
        if replicas < 1:
            raise ValueError("replicas must be at least 1")
        self.n_slots = int(n_slots)
        self.replicas = int(replicas)
        points = sorted(
            (_h64(f"slot:{idx}:{rep}".encode()), idx)
            for idx in range(n_slots)
            for rep in range(replicas)
        )
        self._hashes = [h for h, _ in points]
        self._slots = [idx for _, idx in points]

    @staticmethod
    def key_hash(key: Hashable) -> int:
        """The ring position of a request key.

        Keys are the engine cache keys — tuples of strings, numbers
        and nested tuples — whose ``repr`` is deterministic within and
        across processes (no identity-based reprs allowed)."""
        return _h64(repr(key).encode())

    def route(self, key: Hashable, alive=None) -> int | None:
        """The slot owning ``key``; walks clockwise past slots for
        which ``alive(slot)`` is false.  ``None`` when nothing is
        alive."""
        start = bisect.bisect_right(self._hashes, self.key_hash(key))
        n = len(self._slots)
        seen: set[int] = set()
        for off in range(n):
            idx = self._slots[(start + off) % n]
            if idx in seen:
                continue
            seen.add(idx)
            if alive is None or alive(idx):
                return idx
            if len(seen) == self.n_slots:
                break
        return None


# ----------------------------------------------------------------------
# per-slot state
# ----------------------------------------------------------------------
@dataclass(eq=False)
class _Shard:
    """The front-end's view of one worker slot."""

    idx: int
    handle: WorkerHandle
    client: AsyncServiceClient | None
    generation: int
    state: str = "up"  # up | draining | down
    inflight: int = 0

    @property
    def name(self) -> str:
        return f"w{self.idx}"


@dataclass
class _Pin:
    """Where one front-end session id lives."""

    idx: int
    generation: int
    sid: str  # the worker's own session id
    owner: int  # front-end connection id


class ShardedSolveServer(SolveServer):
    """A :class:`SolveServer` front-end over a worker process pool.

    The public protocol is unchanged — clients cannot tell a sharded
    endpoint from a plain one except through the extra ``shard`` field
    on answers, the ``shards`` block in ``metrics``, and the two
    additional error codes (``worker-lost``, ``session-relocated``)
    that only a pool can produce.

    Parameters beyond :class:`SolveServer`'s
    -----------------------------------------
    n_workers:
        Worker pool size (default: the machine's CPU count).
    worker_spec:
        Per-worker server configuration; defaults to mirroring the
        front-end's own batching/admission knobs.
    """

    def __init__(
        self,
        *,
        n_workers: int | None = None,
        worker_spec: WorkerSpec | None = None,
        **kwargs: Any,
    ):
        super().__init__(**kwargs)
        self.n_workers = int(n_workers or os.cpu_count() or 1)
        self.worker_spec = (
            worker_spec
            if worker_spec is not None
            else WorkerSpec(
                max_batch=self.batcher.max_batch,
                max_delay_s=self.batcher.max_delay_s,
                max_pending=self.max_pending,
                max_sessions=self.sessions.max_sessions,
                tracing=self.tracing,
            )
        )
        self.supervisor = Supervisor(
            self.n_workers,
            self.worker_spec,
            on_death=self._worker_died,
        )
        self.ring = HashRing(self.n_workers)
        self._shards: dict[int, _Shard] = {}
        self._pins: dict[str, _Pin] = {}
        self._relocated: dict[str, str] = {}  # fid -> reason (bounded)
        self._recover_tasks: set[asyncio.Task] = set()

    # ------------------------------------------------------------------
    # lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn and connect the pool, then start accepting clients.

        Order matters: the listener only opens once every worker has
        reported its port, so no request can ever observe a
        half-started pool."""
        await self.supervisor.start()
        for idx in range(self.n_workers):
            handle = self.supervisor.handles[idx]
            client = await AsyncServiceClient.connect(port=handle.port)
            self._shards[idx] = _Shard(
                idx=idx,
                handle=handle,
                client=client,
                generation=handle.generation,
            )
        await super().start()

    async def serve_forever(self) -> None:
        """Like the base server's, but a ``shutdown``-op stop is
        awaited to completion: ``_stopping`` sets mid-:meth:`stop`
        (inside the base drain), and returning then would let the
        caller's ``asyncio.run`` cancel the pool teardown."""
        await super().serve_forever()
        if self._stop_task is not None:
            await self._stop_task

    async def stop(self, *, drain_s: float = 5.0) -> None:
        """Front-end drain first (handlers may still need workers),
        then tear the pool down."""
        for task in list(self._recover_tasks):
            task.cancel()
        if self._recover_tasks:
            await asyncio.gather(
                *self._recover_tasks, return_exceptions=True
            )
            self._recover_tasks.clear()
        await super().stop(drain_s=drain_s)
        for shard in self._shards.values():
            await self._close_client(shard)
            shard.state = "down"
        await self.supervisor.stop()

    @staticmethod
    async def _close_client(shard: _Shard) -> None:
        client, shard.client = shard.client, None
        if client is not None:
            try:
                await client.close()
            except Exception:  # pragma: no cover - teardown best-effort
                pass

    # ------------------------------------------------------------------
    # routing + forwarding
    # ------------------------------------------------------------------
    def _route(self, key: Hashable) -> _Shard:
        idx = self.ring.route(
            key, alive=lambda i: self._shards[i].state == "up"
        )
        if idx is None:
            raise WorkerLostError(
                "no live worker in the pool (all restarting or "
                "draining); retry"
            )
        return self._shards[idx]

    async def _call_worker(
        self, shard: _Shard, op: str, payload: dict
    ) -> dict:
        """One forwarded request; worker death surfaces as the typed
        ``worker-lost`` instead of a hang (the dead client's read loop
        fails every outstanding waiter)."""
        client = shard.client
        if client is None or shard.state == "down":
            raise WorkerLostError(
                f"worker {shard.name} is down; retry"
            )
        shard.inflight += 1
        try:
            # the hop span: the worker's own spans ride back on the
            # response envelope (the client call runs inside this span,
            # so the forwarded envelope carries its context) and are
            # ingested as this span's descendants — one stitched tree.
            # On a crash the span closes with ``error=worker-lost``
            # (the wire code, not the exception class), marking the
            # failed hop in the retried request's trace.
            with span("service.shard.worker") as sp:
                if sp.recording:
                    sp.set(
                        worker=shard.name, generation=shard.generation
                    )
                try:
                    return await client.call(op, **payload)
                except (ConnectionError, OSError) as exc:
                    if sp.recording:
                        sp.set(error="worker-lost")
                    raise WorkerLostError(
                        f"worker {shard.name} was lost mid-request "
                        f"({exc}); retry"
                    ) from exc
        finally:
            shard.inflight -= 1

    async def _forward_solve(self, key: tuple, payload: dict) -> dict:
        shard = self._route(key)
        forward: dict[str, Any] = {"instance": payload.get("instance")}
        if payload.get("options") is not None:
            forward["options"] = payload["options"]
        with span("service.shard.forward") as sp:
            if sp.recording:
                sp.set(shard=shard.name)
            wire = await self._call_worker(shard, "solve", forward)
        wire["shard"] = shard.name
        self.metrics.inc(f"service.shard.{shard.name}.solves")
        return wire

    async def _op_solve(
        self, payload: dict, ticket: _SolveTicket | None
    ) -> dict:
        with span("service.op.solve") as op_sp:
            # parse off-loop exactly like the plain server: the digest
            # is the routing key, so the work is needed here either way
            hg = await asyncio.get_running_loop().run_in_executor(
                None,
                carry(
                    partial(self._parse_instance, payload.get("instance"))
                ),
            )
            self._consume(ticket)
            _, token = self._normalized_options(payload.get("options"))
            key = (instance_digest(hg), *token)
            wire, shared = await self.flight.run(
                key, lambda: self._forward_solve(key, payload)
            )
            if shared:
                self.metrics.inc("service.dedup_followers")
            if op_sp.recording:
                op_sp.set(deduped=shared, shard=wire.get("shard"))
        result = dict(wire)
        # deduped on either side of the hop reads as deduped: the
        # client asked "did my request share another's solve?"
        result["deduped"] = bool(shared or wire.get("deduped"))
        return result

    # ------------------------------------------------------------------
    # sessions (pinned)
    # ------------------------------------------------------------------
    def _fid(self, shard: _Shard, sid: str) -> str:
        return f"{shard.name}g{shard.generation}.{sid}"

    def _tombstone(self, fid: str, reason: str) -> None:
        self._relocated[fid] = reason
        while len(self._relocated) > _RELOCATED_KEEP:
            self._relocated.pop(next(iter(self._relocated)))

    def _relocate_pins(self, idx: int, generation: int, reason: str) -> None:
        moved = [
            fid
            for fid, pin in self._pins.items()
            if pin.idx == idx and pin.generation == generation
        ]
        for fid in moved:
            del self._pins[fid]
            self._tombstone(fid, reason)
        if moved:
            self.metrics.inc("service.sessions_relocated", len(moved))

    async def _op_session_open(self, conn: _Conn, payload: dict) -> dict:
        # sessions have no cache key to route by; least-loaded keeps
        # long-lived pins from piling onto one worker
        candidates = [
            s for s in self._shards.values() if s.state == "up"
        ]
        if not candidates:
            raise WorkerLostError(
                "no live worker to host the session; retry"
            )
        pins_on = {idx: 0 for idx in self._shards}
        for pin in self._pins.values():
            pins_on[pin.idx] = pins_on.get(pin.idx, 0) + 1
        shard = min(candidates, key=lambda s: (pins_on[s.idx], s.idx))
        info = await self._call_worker(shard, "session.open", payload)
        fid = self._fid(shard, info["session"])
        self._pins[fid] = _Pin(
            idx=shard.idx,
            generation=shard.generation,
            sid=info["session"],
            owner=conn.id,
        )
        info["session"] = fid
        info["shard"] = shard.name
        return info

    async def _op_session_call(
        self, conn: _Conn, op: str, payload: dict
    ) -> dict:
        fid = payload.get("session")
        reason = self._relocated.get(fid)
        if reason is not None:
            raise SessionRelocatedError(
                f"session {fid!r} is gone ({reason}); re-open it from "
                f"your own baseline"
            )
        pin = self._pins.get(fid)
        # connection-scoped like the plain server: do not leak other
        # owners' sessions
        if pin is None or pin.owner != conn.id:
            raise SessionNotFoundError(
                f"no session {fid!r} on this connection"
            )
        shard = self._shards[pin.idx]
        if shard.generation != pin.generation or shard.state != "up":
            # the relocation task has not caught up yet; same answer
            self._pins.pop(fid, None)
            self._tombstone(fid, "worker lost")
            self.metrics.inc("service.sessions_relocated")
            raise SessionRelocatedError(
                f"session {fid!r} is gone (worker lost); re-open it "
                f"from your own baseline"
            )
        forward = dict(payload)
        forward["session"] = pin.sid
        out = await self._call_worker(shard, op, forward)
        out["session"] = fid
        out["shard"] = shard.name
        if op == "session.close":
            self._pins.pop(fid, None)
        return out

    async def _reclaim_conn(self, conn: _Conn) -> None:
        """A dropped client reclaims its pinned sessions on whichever
        workers host them (the front-end holds one long-lived
        connection per worker, so the workers' own connection-drop
        reclamation never fires for individual clients)."""
        await super()._reclaim_conn(conn)
        owned = [
            fid
            for fid, pin in self._pins.items()
            if pin.owner == conn.id
        ]
        for fid in owned:
            pin = self._pins.pop(fid, None)
            if pin is None:
                continue
            # count before the worker-side close: "no pin" must imply
            # "counted as reclaimed" at every await point, or a metrics
            # reader can watch a session vanish without a trace
            self.metrics.inc("service.sessions_reclaimed")
            shard = self._shards.get(pin.idx)
            if (
                shard is not None
                and shard.generation == pin.generation
                and shard.state == "up"
            ):
                try:
                    await self._call_worker(
                        shard, "session.close", {"session": pin.sid}
                    )
                except Exception:
                    pass  # the worker (or its restart) reclaims it

    # ------------------------------------------------------------------
    # worker lifecycle: drain, death, restart
    # ------------------------------------------------------------------
    async def drain_worker(self, idx: int, *, timeout_s: float = 30.0) -> None:
        """Gracefully retire one worker: stop routing to it, let its
        in-flight forwards finish, relocate its sessions, then shut it
        down.  The slot stays down until :meth:`restart_worker`."""
        shard = self._shards[idx]
        if shard.state != "up":
            raise ValueError(
                f"worker {shard.name} is {shard.state}, not drainable"
            )
        shard.state = "draining"
        self.supervisor.unwatch(shard.handle)
        # sessions relocate at drain start: their state dies with the
        # worker either way, and answering the typed code now beats
        # accepting mutations that are about to be thrown away
        self._relocate_pins(idx, shard.generation, "worker drained")
        deadline = asyncio.get_running_loop().time() + timeout_s
        while (
            shard.inflight > 0
            and asyncio.get_running_loop().time() < deadline
        ):
            await asyncio.sleep(0.02)
        client = shard.client
        if client is not None:
            try:
                await client.call("shutdown")
            except Exception:
                pass  # already gone is drained enough
        await self._close_client(shard)
        await self.supervisor.join(shard.handle)
        shard.state = "down"
        self.metrics.inc("service.workers_drained")

    async def restart_worker(self, idx: int) -> None:
        """Bring a down (or drained) slot back under a new generation."""
        shard = self._shards[idx]
        if shard.state == "up":
            return
        await self._close_client(shard)
        handle = await self.supervisor.restart(idx)
        shard.handle = handle
        shard.generation = handle.generation
        shard.client = await AsyncServiceClient.connect(port=handle.port)
        shard.state = "up"
        self.metrics.inc("service.worker_restarts")

    def _worker_died(self, handle: WorkerHandle) -> None:
        """Supervisor death-watch callback (sync, on the loop)."""
        task = asyncio.get_running_loop().create_task(
            self._recover_worker(handle)
        )
        self._recover_tasks.add(task)
        task.add_done_callback(self._recover_tasks.discard)

    async def _recover_worker(self, handle: WorkerHandle) -> None:
        shard = self._shards.get(handle.idx)
        if shard is None or shard.generation != handle.generation:
            return  # a stale death report for an already-replaced slot
        self.metrics.inc("service.workers_lost")
        self.metrics.inc(f"service.shard.{shard.name}.lost")
        shard.state = "down"
        # closing the client cancels its read loop, which fails every
        # parked waiter with ConnectionError (surfacing as
        # worker-lost).  That close is load-bearing, not tidy-up: a
        # SIGKILLed worker's connection may never EOF — its engine-pool
        # children inherit the socket fd and keep it open — so a
        # forward that raced the death watch would otherwise wait on
        # the dead connection forever
        await self._close_client(shard)
        self._relocate_pins(handle.idx, handle.generation, "worker lost")
        try:
            await self.restart_worker(handle.idx)
        except Exception:
            # the slot stays down; the ring routes around it, and the
            # operator sees the counter
            self.metrics.inc("service.worker_restart_failures")

    # ------------------------------------------------------------------
    # dispatch
    # ------------------------------------------------------------------
    async def _execute(
        self,
        conn: _Conn,
        op: str,
        payload: dict,
        ticket: _SolveTicket | None = None,
    ) -> dict:
        if op == "session.open":
            return await self._op_session_open(conn, payload)
        if op in ("session.mutate", "session.close"):
            return await self._op_session_call(conn, op, payload)
        if op == "metrics":
            return await self._op_metrics_sharded(payload)
        return await super()._execute(conn, op, payload, ticket)

    async def _op_metrics_sharded(self, payload: dict | None) -> dict:
        snap = self._op_metrics(payload)
        if "text" in snap:
            return snap  # prometheus exposition: front-end counters only
        include_workers = bool((payload or {}).get("workers", True))
        aggregate = bool((payload or {}).get("aggregate", False))
        pins_on: dict[int, int] = {}
        for pin in self._pins.values():
            pins_on[pin.idx] = pins_on.get(pin.idx, 0) + 1
        shards: dict[str, Any] = {}
        scraped: dict[str, Any] = {}
        for idx in sorted(self._shards):
            shard = self._shards[idx]
            info: dict[str, Any] = {
                "state": shard.state,
                "generation": shard.generation,
                "port": shard.handle.port,
                "pid": shard.handle.proc.pid,
                "inflight": shard.inflight,
                "sessions": pins_on.get(idx, 0),
            }
            if include_workers and shard.state == "up":
                try:
                    info["metrics"] = await asyncio.wait_for(
                        self._call_worker(shard, "metrics", {}), 5.0
                    )
                except Exception as exc:
                    # a hung worker must be visible, not blank: a typed
                    # marker in place of the snapshot, plus a counter
                    info["metrics"] = unreachable_marker(
                        f"{type(exc).__name__}: {exc}"
                    )
                    self.metrics.inc("service.workers_unreachable")
                scraped[shard.name] = info["metrics"]
            shards[shard.name] = info
        snap["shards"] = shards
        if aggregate:
            # one fleet view over the scraped worker snapshots: summed
            # counters, bucket-merged histograms (fleet p50/p99 from
            # the merged cumulative walk).  The per-shard cumulative
            # snapshots stay under ``shards.*.metrics`` — scrapers
            # compute per-shard deltas from those, per the scrape
            # contract.
            snap["fleet"] = aggregate_fleet(scraped)
        snap["supervisor"] = self.supervisor.stats()
        snap["sessions"] = {"open": len(self._pins)}
        return snap

    async def _op_health(self, payload: dict) -> dict:
        """The sharded ``health`` op: the full fleet check set (the
        base server scores only its own subset)."""
        budget = self._health_budget(payload)
        up = sum(1 for s in self._shards.values() if s.state == "up")
        snap = await self._op_metrics_sharded(
            {"workers": True, "aggregate": True}
        )
        fleet = snap.get("fleet") or {}
        verdict = score_fleet(
            {
                "workers": self.n_workers,
                "workers_up": up,
                "workers_unreachable": len(
                    fleet.get("workers_unreachable") or ()
                ),
                "requests": self.metrics.counter_value("service.requests"),
                "load_shed": self.metrics.counter_value("service.load_shed"),
                # the client-visible SLO: the front-end's own latency
                # histogram, not a worker aggregate (one request would
                # count on both sides of the hop)
                "latency_p99_s": self.metrics.histogram(_LATENCY).quantile(
                    0.99
                ),
                "workers_lost": self.metrics.counter_value(
                    "service.workers_lost"
                ),
                "uptime_s": self.uptime_s,
                "pins_open": len(self._pins),
                "pins_capacity": self.sessions.max_sessions,
                "tombstones": len(self._relocated),
                "tombstones_capacity": _RELOCATED_KEEP,
            },
            budget,
        )
        verdict["uptime_s"] = self.uptime_s
        # the front-end's own budget, plus each reachable worker's
        # (the workers hold the compilations and result entries)
        budget_use = CACHE_BUDGET.stats()
        budget_use["workers"] = {
            name: caches["used_ratio"]
            for name, info in snap["shards"].items()
            if (caches := (info.get("metrics") or {}).get("caches"))
        }
        verdict["cache_budget"] = budget_use
        verdict["workers"] = {"total": self.n_workers, "up": up}
        return verdict
