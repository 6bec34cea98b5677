"""The wire protocol of the solve service: newline-delimited JSON.

One *frame* is one JSON object on one line, UTF-8, terminated by
``\\n``.  Clients send versioned request envelopes and read versioned
response envelopes; requests carry a client-chosen correlation ``id``
that the server echoes verbatim, so responses may come back in any
order (the micro-batcher and the single-flight layer both reorder
completions) and a client can keep many requests in flight on one
connection.

Request envelope::

    {"v": 1, "id": <any JSON value>, "op": "<op>", ...payload...}

Instances (the ``instance`` of ``solve``, the ``baseline`` of
``session.open``) are :mod:`repro.io.serialize` dicts.  A hypergraph
travels as the version 2 packed CSR dict::

    {"kind": "hypergraph", "version": 2, "n_tasks": 2, "n_procs": 3,
     "hedge_task": "<base64>", "hedge_ptr": "<base64>",
     "hedge_procs": "<base64>", "weights": "<base64>"}

``hedge_task`` (one task id per hyperedge), ``hedge_ptr`` (``n_hedges
+ 1`` offsets into ``hedge_procs``) and ``hedge_procs`` (the processor
ids of every hyperedge, back to back) are little-endian ``int32``
buffers; ``weights`` is a little-endian ``float64`` buffer, so weights
arrive bit-exact.  Every buffer is encoded in the standard base64
alphabet (RFC 4648, padded).  Servers still read the version 1 form
(``hedge_task``, ``pins`` — one list of processor ids per hyperedge —
and ``weights`` as JSON lists).  A malformed instance answers
``graph-structure``; a missing field answers ``bad-request``.

A request may additionally carry an optional ``"trace"`` field —
``{"id": "<trace id>", "span": "<parent span id>"}`` — propagating the
client's trace context so server-side spans join the caller's trace
(see :mod:`repro.obs.trace`).  It is envelope metadata, not payload:
servers strip it before op dispatch, and servers with tracing disabled
ignore it entirely.

Response envelope (exactly one per request)::

    {"v": 1, "id": <echoed>, "ok": true,  "result": {...}}
    {"v": 1, "id": <echoed>, "ok": false,
     "error": {"code": "<kebab-case code>", "message": "<human text>"}}

Error codes are *stable machine-readable identifiers* — the same
``code`` strings the library's exception hierarchy carries
(:mod:`repro.core.errors`, :mod:`repro.api.errors`), plus the
transport-level codes defined here.  Clients switch on ``code``, never
on ``message``.

The module is dependency-free on purpose (stdlib ``json`` only, no
numpy, no repro imports): it *is* the protocol spec, equally usable by
a non-Python client author as documentation.
"""

from __future__ import annotations

import json
from typing import Any

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "OPS",
    "ErrorCode",
    "ERROR_CODES",
    "ServiceError",
    "ProtocolError",
    "OverloadedError",
    "SessionNotFoundError",
    "SessionLimitError",
    "WorkerLostError",
    "SessionRelocatedError",
    "RemoteError",
    "encode_frame",
    "decode_frame",
    "request",
    "ok_response",
    "error_response",
    "validate_request",
    "error_code_for",
]

#: Version of the envelope format.  Bumped only for incompatible
#: changes; servers reject frames claiming any other version.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's size (requests carry whole instances).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: Every operation a server answers.
OPS = (
    "ping",
    "solve",
    "session.open",
    "session.mutate",
    "session.close",
    "metrics",
    "trace",
    "health",
    "shutdown",
)


class ErrorCode:
    """The stable error-code vocabulary (kebab-case strings).

    The first group mirrors the library exception hierarchy's ``code``
    attributes; the second group is transport-level.
    """

    # -- mapped from library exceptions ---------------------------------
    UNKNOWN_SOLVER = "unknown-solver"
    CAPABILITY = "capability"
    GRAPH_STRUCTURE = "graph-structure"
    INVALID_MATCHING = "invalid-matching"
    SOLVER = "solver-error"
    INFEASIBLE = "infeasible"
    SEMIMATCH = "semimatch-error"

    # -- transport-level -------------------------------------------------
    BAD_FRAME = "bad-frame"
    FRAME_TOO_LARGE = "frame-too-large"
    UNSUPPORTED_VERSION = "unsupported-version"
    UNKNOWN_OP = "unknown-op"
    BAD_REQUEST = "bad-request"
    OVERLOADED = "overloaded"
    SESSION_NOT_FOUND = "session-not-found"
    SESSION_LIMIT = "session-limit"
    WORKER_LOST = "worker-lost"
    SESSION_RELOCATED = "session-relocated"
    INTERNAL = "internal"


ERROR_CODES = tuple(
    value
    for name, value in vars(ErrorCode).items()
    if not name.startswith("_")
)


class ServiceError(Exception):
    """Base class for service-side errors that map to wire codes."""

    code = ErrorCode.INTERNAL

    def __init__(self, message: str, *, code: str | None = None) -> None:
        super().__init__(message)
        if code is not None:
            self.code = code


class ProtocolError(ServiceError):
    """A frame or envelope the server cannot accept (bad JSON, wrong
    version, unknown op, malformed payload)."""

    code = ErrorCode.BAD_FRAME


class OverloadedError(ServiceError):
    """Admission control shed this request; retry later."""

    code = ErrorCode.OVERLOADED


class SessionNotFoundError(ServiceError):
    """The named session does not exist (or belongs to another
    connection)."""

    code = ErrorCode.SESSION_NOT_FOUND


class SessionLimitError(ServiceError):
    """The server is hosting its maximum number of sessions."""

    code = ErrorCode.SESSION_LIMIT


class WorkerLostError(ServiceError):
    """A shard worker died (or became unreachable) while this request
    was in flight on it.  Solves are deterministic and side-effect
    free, so retrying against the (restarted or rerouted) pool is
    always safe — the clients do so automatically."""

    code = ErrorCode.WORKER_LOST


class SessionRelocatedError(ServiceError):
    """The worker that hosted this session was drained or lost; the
    server-side session state is gone.  Re-open the session from the
    client's own baseline (sessions are pinned to one worker for their
    lifetime and are never migrated)."""

    code = ErrorCode.SESSION_RELOCATED


class RemoteError(ServiceError):
    """Client-side surfacing of a server error response: carries the
    wire ``code`` so callers switch on it, never on the message."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message, code=code)


# ----------------------------------------------------------------------
# framing
# ----------------------------------------------------------------------
def encode_frame(obj: dict[str, Any]) -> bytes:
    """One envelope as one NDJSON line (compact separators, UTF-8).

    ``json.dumps`` emits the shortest round-tripping representation of
    every float, so makespans and weights survive the wire bit-exactly.
    """
    return (
        json.dumps(obj, separators=(",", ":"), allow_nan=False) + "\n"
    ).encode("utf-8")


def decode_frame(line: bytes | str) -> dict[str, Any]:
    """Parse one line into an envelope dict.

    Raises :class:`ProtocolError` (code ``bad-frame``) for anything
    that is not one JSON object.
    """
    try:
        obj = json.loads(line)
    except (UnicodeDecodeError, ValueError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from exc
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(obj).__name__}"
        )
    return obj


# ----------------------------------------------------------------------
# envelopes
# ----------------------------------------------------------------------
def request(op: str, req_id: Any, **payload: Any) -> dict[str, Any]:
    """Build a request envelope."""
    return {"v": PROTOCOL_VERSION, "id": req_id, "op": op, **payload}


def ok_response(req_id: Any, result: dict[str, Any]) -> dict[str, Any]:
    """Build a success response envelope."""
    return {"v": PROTOCOL_VERSION, "id": req_id, "ok": True, "result": result}


def error_response(
    req_id: Any, code: str, message: str
) -> dict[str, Any]:
    """Build an error response envelope."""
    return {
        "v": PROTOCOL_VERSION,
        "id": req_id,
        "ok": False,
        "error": {"code": code, "message": message},
    }


def validate_request(obj: dict[str, Any]) -> tuple[str, Any, dict[str, Any]]:
    """Check a decoded request envelope; returns ``(op, id, payload)``.

    Raises :class:`ProtocolError` with the precise code: missing/alien
    version → ``unsupported-version``, unknown op → ``unknown-op``,
    missing id/op → ``bad-request``.
    """
    version = obj.get("v")
    if version != PROTOCOL_VERSION:
        raise ProtocolError(
            f"unsupported protocol version {version!r} "
            f"(this server speaks v{PROTOCOL_VERSION})",
            code=ErrorCode.UNSUPPORTED_VERSION,
        )
    if "id" not in obj:
        raise ProtocolError(
            "request lacks a correlation 'id'", code=ErrorCode.BAD_REQUEST
        )
    op = obj.get("op")
    if not isinstance(op, str):
        raise ProtocolError(
            "request lacks an 'op' string", code=ErrorCode.BAD_REQUEST
        )
    if op not in OPS:
        raise ProtocolError(
            f"unknown op {op!r}; known ops: {list(OPS)}",
            code=ErrorCode.UNKNOWN_OP,
        )
    payload = {
        k: v for k, v in obj.items() if k not in ("v", "id", "op", "trace")
    }
    return op, obj["id"], payload


def error_code_for(exc: BaseException) -> str:
    """The wire code for an exception.

    Library exceptions carry a stable ``.code`` attribute (see
    :mod:`repro.core.errors` / :mod:`repro.api.errors`) which passes
    through verbatim; bare ``ValueError``/``TypeError`` — malformed
    payload values — map to ``bad-request``; anything else is
    ``internal``.
    """
    code = getattr(exc, "code", None)
    if isinstance(code, str) and code:
        return code
    if isinstance(exc, (ValueError, TypeError, KeyError)):
        return ErrorCode.BAD_REQUEST
    return ErrorCode.INTERNAL
