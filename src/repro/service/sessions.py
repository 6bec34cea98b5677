"""Server-side dynamic instances: sessions over ``repro.dynamic``.

A *session* hosts one :class:`~repro.dynamic.DynamicInstance` with an
attached :class:`~repro.dynamic.IncrementalSolver`.  The client opens
it from a baseline (a hypergraph dict, a bipartite dict, or a
full-fidelity ``DynamicInstance.to_state()`` dict), then streams the
existing :class:`~repro.dynamic.journal.Mutation` wire records —
exactly what ``Mutation.to_dict()`` emits and trace files store — and
each ``session.mutate`` answers with the incrementally repaired
bottleneck, so a client replaying a churn stream over TCP sees the
same numbers as an in-process :class:`IncrementalSolver` (asserted
bit-equal in the tests).

Mutation batches are **transactional**: they apply through the
instance's journal under a snapshot, and any failure (unknown handle,
infeasible processor removal, ...) rolls the whole batch back before
the error reaches the wire — the session state never reflects half a
request.  The solver checkpoints at the snapshot, so a rolled-back
batch leaves its assignment and loads exactly as they were.

A batch's history is forgotten once it commits: after the answer is
built (the solver has synced past every entry) the session releases
the batch's journal entries, so a session holds at most one batch of
journal however long it lives.  Nothing rolls back past a committed
batch; each batch takes its own marker after the previous release.

Sessions are owned by the connection that opened them: other
connections cannot address them, and a dropped connection reclaims its
sessions.  All methods are thread-safe (the server calls them from
executor threads); a per-session lock serialises mutations so one
session's repairs stay ordered even if a client misbehaves and
pipelines conflicting batches.
"""

from __future__ import annotations

import threading
import time
from dataclasses import dataclass, field
from typing import Any

from ..dynamic import DynamicInstance, IncrementalSolver, Mutation
from .protocol import ProtocolError, SessionLimitError, SessionNotFoundError
from .wire import dynamic_from_wire

__all__ = ["Session", "SessionManager"]


@dataclass
class Session:
    """One hosted dynamic instance and its incremental solver."""

    id: str
    owner: int
    instance: DynamicInstance
    solver: IncrementalSolver
    created_s: float = field(default_factory=time.monotonic)
    mutations: int = 0
    lock: threading.Lock = field(default_factory=threading.Lock)

    def describe(self) -> dict[str, Any]:
        return {
            "session": self.id,
            "n_tasks": self.instance.n_tasks,
            "n_procs": self.instance.n_procs,
            "version": self.instance.version,
            "bottleneck": self.solver.bottleneck(),
            "mutations": self.mutations,
            "repair": self.solver.stats.as_dict(),
            # the instance's compile counters: a snapshot is compiled
            # only when a version is read, so a mutate stream alone
            # leaves ``full_builds`` at the open's single compile
            "compile": self.instance.compile_stats(),
        }


#: the ``session.open`` fields forwarded to :class:`IncrementalSolver`
_SESSION_KNOBS = ("method", "fallback_ratio", "min_fallback_region", "ls_moves")


class SessionManager:
    """Owns every live session of one server."""

    def __init__(self, *, max_sessions: int = 64):
        if max_sessions < 1:
            raise ValueError("max_sessions must be at least 1")
        self.max_sessions = int(max_sessions)
        self._lock = threading.Lock()
        self._sessions: dict[str, Session] = {}
        self._next = 0

    def __len__(self) -> int:
        with self._lock:
            return len(self._sessions)

    # ------------------------------------------------------------------
    def open(self, payload: dict[str, Any], *, owner: int) -> dict[str, Any]:
        """Create a session; returns its initial description."""
        instance = dynamic_from_wire(payload.get("baseline"))
        # forward only the knobs the client sent: the defaults live in
        # IncrementalSolver, which also validates every value
        knobs = {k: payload[k] for k in _SESSION_KNOBS if k in payload}
        solver = IncrementalSolver(instance, **knobs)
        with self._lock:
            if len(self._sessions) >= self.max_sessions:
                solver.detach()
                raise SessionLimitError(
                    f"server already hosts {self.max_sessions} sessions"
                )
            self._next += 1
            session = Session(
                id=f"s{self._next}",
                owner=owner,
                instance=instance,
                solver=solver,
            )
            self._sessions[session.id] = session
        return session.describe()

    def _get(self, sid: Any, owner: int) -> Session:
        with self._lock:
            session = self._sessions.get(sid)
        # sessions are connection-scoped: do not leak existence of other
        # owners' sessions — both cases answer session-not-found
        if session is None or session.owner != owner:
            raise SessionNotFoundError(f"no session {sid!r} on this connection")
        return session

    def mutate(
        self,
        sid: Any,
        mutations: list[dict[str, Any]],
        *,
        owner: int,
        include_assignment: bool = False,
    ) -> dict[str, Any]:
        """Apply a batch of wire mutation records transactionally.

        Returns the session description (repaired bottleneck included),
        plus the handle-level assignment and per-processor loads when
        ``include_assignment`` is set.  An empty batch is a pure read.
        """
        session = self._get(sid, owner)
        if not isinstance(mutations, list):
            raise ProtocolError(
                "'mutations' must be a list of mutation records",
                code="bad-request",
            )
        with session.lock:
            marker = session.instance.snapshot()
            session.solver.checkpoint()
            try:
                for record in mutations:
                    if not isinstance(record, dict):
                        raise ProtocolError(
                            "each mutation record must be an object",
                            code="bad-request",
                        )
                    session.instance.apply(Mutation.from_dict(record))
            except Exception:
                session.instance.rollback(marker)
                raise
            session.mutations += len(mutations)
            out = session.describe()
            # describe() synced the solver past the batch: its history
            # is never read again
            session.instance.journal.release(session.instance.snapshot())
            out["applied"] = len(mutations)
            if include_assignment:
                out["assignment"] = {
                    str(task): cfg
                    for task, cfg in sorted(
                        session.solver.assignment().items()
                    )
                }
                out["loads"] = {
                    str(proc): load
                    for proc, load in sorted(session.solver.loads().items())
                }
            return out

    def close(self, sid: Any, *, owner: int) -> dict[str, Any]:
        """Tear one session down; returns its final description."""
        session = self._get(sid, owner)
        with self._lock:
            self._sessions.pop(session.id, None)
        with session.lock:
            out = session.describe()
            session.solver.detach()
        return out

    def close_owned(self, owner: int) -> int:
        """Reclaim every session of a dropped connection.

        Taking each session's lock before detaching serialises the
        reclaim against an in-flight ``mutate`` batch still running in
        an executor thread: the batch finishes (or rolls back) first,
        and only then is the solver detached — never mid-apply.  The
        caller must therefore run this off the event loop (the server
        does, via ``_reclaim_conn``)."""
        with self._lock:
            owned = [
                s for s in self._sessions.values() if s.owner == owner
            ]
            for s in owned:
                del self._sessions[s.id]
        for s in owned:
            with s.lock:
                s.solver.detach()
        return len(owned)
