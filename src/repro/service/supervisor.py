"""Worker processes of the sharded solve service.

One :class:`Supervisor` owns a fixed-size pool of **solver worker
processes**.  Each worker is a full :class:`~repro.service.server.
SolveServer` (protocol, micro-batcher, single-flight, sessions,
metrics, tracing) bound to an ephemeral loopback port in its own
process — its ResultCache, kernel compile cache and GIL are private,
which is the whole point: the front-end fans admitted requests out to
them by consistent hash (:mod:`repro.service.shard`) and N workers
solve on N cores.

Lifecycle, parent side:

* **spawn** — workers start via the ``spawn`` context (a fork of an
  asyncio parent mid-loop is a deadlock lottery) and report their bound
  port back through a one-shot pipe; the handshake is awaited in the
  executor so the event loop never blocks on ``Connection.poll``;
* **death watch** — each worker's ``Process.sentinel`` is registered
  with ``loop.add_reader``: the moment the process exits (crash,
  SIGKILL, clean drain) the loop wakes and the supervisor's
  ``on_death`` callback fires, with no polling anywhere;
* **restart** — :meth:`Supervisor.restart` respawns a worker slot
  under a bumped *generation*, so stale state (pinned sessions,
  in-flight answers) addressed at the dead incarnation can never leak
  onto its replacement;
* **chaos** — :meth:`Supervisor.kill` SIGKILLs a worker outright; the
  chaos test uses it to assert the service converges.

Graceful drain is a front-end concern (stop routing, finish in-flight,
relocate sessions, then ``shutdown`` op) — see
:meth:`repro.service.shard.ShardedSolveServer.drain_worker`.
"""

from __future__ import annotations

import asyncio
import multiprocessing
import os
import signal
import time
from dataclasses import dataclass, field
from functools import partial
from typing import Any, Callable, Optional

__all__ = ["WorkerSpec", "WorkerHandle", "Supervisor", "worker_main"]

#: ``fork`` in a process already running event loops and executor
#: threads inherits locks in unknown states; ``spawn`` is the only
#: start method that is safe from inside an asyncio server.
_CTX = multiprocessing.get_context("spawn")


@dataclass(frozen=True)
class WorkerSpec:
    """The :class:`SolveServer` knobs every worker starts with.

    ``per_conn_inflight`` defaults high because the front-end funnels
    *all* of its traffic to a worker through one multiplexed
    connection — the real admission gate is the front-end's.
    """

    max_batch: int = 64
    max_delay_s: float = 0.002
    max_pending: int = 4096
    per_conn_inflight: int = 4096
    max_sessions: int = 64
    tracing: bool = True

    def server_kwargs(self) -> dict[str, Any]:
        return {
            "max_batch": self.max_batch,
            "max_delay_s": self.max_delay_s,
            "max_pending": self.max_pending,
            "per_conn_inflight": self.per_conn_inflight,
            "max_sessions": self.max_sessions,
            "tracing": self.tracing,
            # the front-end drains/retires workers via the shutdown op
            "allow_shutdown": True,
        }


def worker_main(conn: Any, server_kwargs: dict[str, Any]) -> None:
    """Entry point of one worker process (``spawn`` target).

    Runs a :class:`SolveServer` on an ephemeral loopback port, reports
    the port through ``conn`` once bound, and serves until the
    ``shutdown`` op (graceful drain) or a signal ends the process.
    """
    # the parent handles operator signals; a worker must only ever die
    # by drain (shutdown op), SIGTERM from its supervisor, or a crash
    signal.signal(signal.SIGINT, signal.SIG_IGN)

    from .server import SolveServer

    server = SolveServer(host="127.0.0.1", port=0, **server_kwargs)

    async def _run() -> None:
        await server.start()
        conn.send(server.port)
        conn.close()
        await server.serve_forever()

    asyncio.run(_run())


@dataclass(eq=False)
class WorkerHandle:
    """One live (or dead) worker incarnation."""

    idx: int
    generation: int
    proc: Any  # multiprocessing.process.BaseProcess
    port: int
    started_s: float = field(default_factory=time.monotonic)

    @property
    def name(self) -> str:
        return f"w{self.idx}"

    @property
    def alive(self) -> bool:
        return bool(self.proc.is_alive())


def _await_port(conn: Any, proc: Any, timeout_s: float) -> int:
    """Block (executor-side) until the worker reports its port."""
    deadline = time.monotonic() + timeout_s
    while time.monotonic() < deadline:
        if conn.poll(0.05):
            return int(conn.recv())
        if not proc.is_alive():
            # repro: ignore[contract-sync] — supervisor-side raise: surfaces to the operator at startup, never crosses the wire
            raise RuntimeError(
                f"worker exited with code {proc.exitcode} before "
                f"reporting its port"
            )
    # repro: ignore[contract-sync] — supervisor-side raise: surfaces to the operator at startup, never crosses the wire
    raise RuntimeError(
        f"worker did not report its port within {timeout_s:g}s"
    )


class Supervisor:
    """Spawns, watches, restarts and stops the worker pool.

    Parameters
    ----------
    n_workers:
        Pool size; worker slots are indexed ``0..n_workers-1`` and a
        slot's index never changes across restarts (the consistent-hash
        ring hashes slot indices, so a restarted worker inherits
        exactly its predecessor's key range).
    spec:
        Per-worker :class:`SolveServer` configuration.
    on_death:
        Called **on the event loop** with the dead
        :class:`WorkerHandle` whenever a *watched* worker exits.
        Planned exits (drain, :meth:`stop`) unwatch first and never
        fire it.
    start_timeout_s:
        How long one worker gets to import, bind and report its port.
    """

    def __init__(
        self,
        n_workers: int,
        spec: WorkerSpec | None = None,
        *,
        on_death: Optional[Callable[[WorkerHandle], None]] = None,
        start_timeout_s: float = 60.0,
    ):
        if n_workers < 1:
            raise ValueError("n_workers must be at least 1")
        self.n_workers = int(n_workers)
        self.spec = spec if spec is not None else WorkerSpec()
        self.on_death = on_death
        self.start_timeout_s = float(start_timeout_s)
        self.handles: dict[int, WorkerHandle] = {}
        self.spawns = 0
        self._generation = 0
        self._watched: dict[int, WorkerHandle] = {}  # sentinel fd -> handle
        self._loop: asyncio.AbstractEventLoop | None = None
        self._stopping = False

    # ------------------------------------------------------------------
    # spawning
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Spawn the whole pool and wait for every port handshake."""
        self._loop = asyncio.get_running_loop()
        self._stopping = False
        launches = [self._launch(idx) for idx in range(self.n_workers)]
        await asyncio.gather(
            *(self._adopt(idx, proc, conn) for idx, (proc, conn) in
              zip(range(self.n_workers), launches))
        )

    def _launch(self, idx: int) -> tuple[Any, Any]:
        """Start one worker process (non-blocking parent side)."""
        recv_conn, send_conn = _CTX.Pipe(duplex=False)
        proc = _CTX.Process(
            target=worker_main,
            args=(send_conn, self.spec.server_kwargs()),
            name=f"semimatch-worker-{idx}",
            daemon=True,
        )
        proc.start()
        send_conn.close()
        self.spawns += 1
        return proc, recv_conn

    async def _adopt(self, idx: int, proc: Any, conn: Any) -> WorkerHandle:
        """Finish one launch: port handshake, registration, watch."""
        assert self._loop is not None
        try:
            port = await self._loop.run_in_executor(
                None, partial(_await_port, conn, proc, self.start_timeout_s)
            )
        finally:
            conn.close()
        self._generation += 1
        handle = WorkerHandle(
            idx=idx, generation=self._generation, proc=proc, port=port
        )
        self.handles[idx] = handle
        self._watch(handle)
        return handle

    async def restart(self, idx: int) -> WorkerHandle:
        """Respawn slot ``idx`` under a new generation."""
        if not 0 <= idx < self.n_workers:
            raise ValueError(f"no worker slot {idx}")
        old = self.handles.get(idx)
        if old is not None:
            self.unwatch(old)
        proc, conn = self._launch(idx)
        return await self._adopt(idx, proc, conn)

    # ------------------------------------------------------------------
    # death watch
    # ------------------------------------------------------------------
    def _watch(self, handle: WorkerHandle) -> None:
        """Arm the sentinel: the loop wakes the instant the process
        exits (no polling)."""
        assert self._loop is not None
        fd = handle.proc.sentinel
        self._watched[fd] = handle
        self._loop.add_reader(fd, self._sentinel_fired, fd)

    def unwatch(self, handle: WorkerHandle) -> None:
        """Disarm the death watch (planned exits must not alarm)."""
        fd = handle.proc.sentinel
        if self._watched.pop(fd, None) is not None and self._loop is not None:
            self._loop.remove_reader(fd)

    def _sentinel_fired(self, fd: int) -> None:
        handle = self._watched.pop(fd, None)
        if handle is None:
            return
        if self._loop is not None:
            self._loop.remove_reader(fd)
        if self._stopping or self.on_death is None:
            return
        self.on_death(handle)

    # ------------------------------------------------------------------
    # teardown / chaos
    # ------------------------------------------------------------------
    def kill(self, idx: int) -> WorkerHandle:
        """SIGKILL a worker outright (chaos testing) — the death watch
        stays armed, so the supervisor reacts exactly as it would to a
        real crash."""
        handle = self.handles[idx]
        if handle.alive:
            os.kill(handle.proc.pid, signal.SIGKILL)
        return handle

    async def join(self, handle: WorkerHandle, timeout_s: float = 10.0) -> None:
        """Wait (executor-side) for a worker process to exit; escalate
        to SIGKILL if it overstays."""
        assert self._loop is not None
        await self._loop.run_in_executor(
            None, partial(handle.proc.join, timeout_s)
        )
        if handle.alive:
            os.kill(handle.proc.pid, signal.SIGKILL)
            await self._loop.run_in_executor(
                None, partial(handle.proc.join, 5.0)
            )

    async def stop(self, *, timeout_s: float = 10.0) -> None:
        """Terminate every worker (SIGTERM, then SIGKILL stragglers)."""
        self._stopping = True
        for handle in self.handles.values():
            self.unwatch(handle)
            if handle.alive:
                handle.proc.terminate()
        for handle in self.handles.values():
            await self.join(handle, timeout_s)
        self.handles.clear()

    def stats(self) -> dict[str, Any]:
        return {
            "workers": self.n_workers,
            "spawns": self.spawns,
            "alive": sum(1 for h in self.handles.values() if h.alive),
            "restarts": max(self.spawns - self.n_workers, 0),
            "generations": {
                h.name: h.generation for h in self.handles.values()
            },
        }
