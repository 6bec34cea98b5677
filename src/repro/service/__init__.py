"""repro.service — the async solve server and its clients.

Everything before this package answers *library* calls; this one
answers **traffic**: a long-lived asyncio TCP server speaking JSON
header lines with binary array attachments
(:mod:`~repro.service.protocol`), built so the
engine's throughput machinery finally amortizes across requests
instead of across one process's loop —

* **adaptive micro-batching** (:class:`MicroBatcher`) coalesces
  compatible requests into :meth:`BatchSolver.solve_many` calls under
  a latency budget;
* **single-flight dedup** (:class:`SingleFlight`) collapses concurrent
  identical requests into one solve keyed exactly like the engine's
  result cache;
* **sessions** (:class:`SessionManager`) host server-side
  :class:`~repro.dynamic.DynamicInstance` streams repaired by the
  :class:`~repro.dynamic.IncrementalSolver`;
* **admission control** sheds overload with a typed error instead of
  queueing into timeouts, and the ``metrics`` op serves each server's
  counters and latency/batch-size histograms (a private
  :class:`~repro.obs.MetricsRegistry`) over the same protocol;
* **sharding** (:class:`ShardedSolveServer`) puts the same front-end
  over a supervised pool of solver worker processes, routed by
  consistent hash of the engine cache key so each worker's caches stay
  warm on its slice of the keyspace — ``semimatch serve --workers N``.

Quick start
-----------
Server::

    semimatch serve --port 7431

Client::

    from repro.service import ServiceClient
    with ServiceClient(port=7431) as client:
        result = client.solve(problem, method="EVG+ls")
        result.makespan, result.winner, result.deduped

Results are bit-identical to a local ``repro.api.solve`` of the same
``(instance, options)``.
"""

from .batching import MicroBatcher
from .client import (
    AsyncServiceClient,
    RemoteSession,
    RemoteSolveResult,
    ServiceClient,
    instance_to_wire,
    options_to_wire,
)
from .dedup import SingleFlight
from .protocol import (
    ERROR_CODES,
    MAX_FRAME_BYTES,
    OPS,
    PROTOCOL_VERSION,
    ErrorCode,
    OverloadedError,
    ProtocolError,
    RemoteError,
    ServiceError,
    SessionLimitError,
    SessionNotFoundError,
    SessionRelocatedError,
    WorkerLostError,
)
from .server import SolveServer
from .sessions import Session, SessionManager
from .shard import HashRing, ShardedSolveServer
from .supervisor import Supervisor, WorkerSpec

__all__ = [
    "SolveServer",
    "ShardedSolveServer",
    "HashRing",
    "Supervisor",
    "WorkerSpec",
    "ServiceClient",
    "AsyncServiceClient",
    "RemoteSolveResult",
    "RemoteSession",
    "MicroBatcher",
    "SingleFlight",
    "SessionManager",
    "Session",
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "OPS",
    "ERROR_CODES",
    "ErrorCode",
    "ServiceError",
    "ProtocolError",
    "OverloadedError",
    "RemoteError",
    "SessionNotFoundError",
    "SessionLimitError",
    "WorkerLostError",
    "SessionRelocatedError",
    "instance_to_wire",
    "options_to_wire",
]
