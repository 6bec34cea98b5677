"""The wire protocol of the solve service: JSON header lines with
optional binary tails.

One *frame* is one JSON object on one line (UTF-8, terminated by
``\\n``), its *header*, optionally followed by a raw binary *tail*
of numeric arrays, its *attachments*.  Clients send versioned request
envelopes and read versioned response envelopes; requests carry a
client-chosen correlation ``id`` that the server echoes verbatim, so
responses may come back in any order (the micro-batcher and the
single-flight layer both reorder completions) and a client can keep
many requests in flight on one connection.

Request envelope::

    {"v": 1, "id": <any JSON value>, "op": "<op>", ...payload...}

Attachments.  A header with a tail carries an ``"attachments"`` table,
one ``[dtype, nbytes]`` pair per array, in tail order; each array's
place in the envelope holds the placeholder ``{"$attachment": k}``
(``k`` indexes the table)::

    {"v": 1, "id": 7, "op": "solve",
     "instance": {"kind": "hypergraph", "n_tasks": 2, "n_procs": 3,
                  "hedge_task": {"$attachment": 0},
                  "hedge_ptr": {"$attachment": 1},
                  "hedge_procs": {"$attachment": 2},
                  "weights": {"$attachment": 3}},
     "attachments": [["<i4", 12], ["<i4", 16], ["<i4", 16], ["<f8", 24]]}
    <12 + 16 + 16 + 24 raw bytes>

* The dtypes are ``"<i4"`` (little-endian int32) and ``"<f8"``
  (little-endian IEEE-754 binary64, so weights arrive bit-exact);
  nothing else.  Every length is a non-negative integer multiple of
  its item size.
* The header line plus the tail total at most :data:`MAX_FRAME_BYTES`.
  A reader refuses a larger table before reading any of the tail.
* Every placeholder names an entry of the table and every entry is
  named by exactly one placeholder.  Placeholders stand in the payload
  only: one in ``v``, ``id``, ``op``, ``ok`` or ``trace`` is not
  resolved, so its attachment goes unused.
* A malformed table (not a list of pairs, an unknown dtype, a bool,
  negative, fractional or misaligned length) or a tail cut short by
  end-of-stream answers ``bad-frame``, an oversized one
  ``frame-too-large``; the reader cannot find the next frame after
  either, so the server closes the connection.  A bad placeholder
  answers ``bad-frame`` and the connection stays usable.

:func:`encode_frame` turns every 1-D ``<i4``/``<f8`` numpy array in an
envelope into an attachment (:func:`frame_parts` gives the same frame
as a header line plus one view per array, for writers that send it
without joining); :func:`decode_frame` resolves the placeholders to
read-only arrays viewing the tail.

Instances (the ``instance`` of ``solve``, the ``baseline`` of
``session.open``).  A hypergraph travels as its CSR arrays, attached::

    {"kind": "hypergraph", "n_tasks": <int>, "n_procs": <int>,
     "hedge_task": <"<i4">, "hedge_ptr": <"<i4">,
     "hedge_procs": <"<i4">, "weights": <"<f8">}

``hedge_task`` holds one task id per hyperedge, ``hedge_ptr`` the
``n_hedges + 1`` offsets into ``hedge_procs`` (the processor ids of
every hyperedge, back to back) and ``weights`` one weight per
hyperedge.  A malformed instance (a wrong dtype, a failed CSR check)
answers ``graph-structure``; a missing field answers ``bad-request``.
So does a hypergraph dict in the :mod:`repro.io.serialize` file
format (version 1 pin lists, version 2 base64 buffers): those are
files' encoding, and the wire has one.  Bipartite dicts and
``DynamicInstance.to_state()`` dicts travel as plain JSON.

A request may additionally carry an optional ``"trace"`` field —
``{"id": "<trace id>", "span": "<parent span id>"}`` — propagating the
client's trace context so server-side spans join the caller's trace
(see :mod:`repro.obs.trace`).  It is envelope metadata, not payload:
servers strip it before op dispatch, and servers with tracing disabled
ignore it entirely.  A malformed one (not a dict, or an id that is not
a string of at most 64 characters) is ignored the same way.

Response envelope (exactly one per request)::

    {"v": 1, "id": <echoed>, "ok": true,  "result": {...}}
    {"v": 1, "id": <echoed>, "ok": false,
     "error": {"code": "<kebab-case code>", "message": "<human text>"}}

A ``solve`` answer's ``assignment`` (the hyperedge chosen for each
task) is one ``"<i4"`` attachment, ``{"$attachment": 0}``.

Error codes are *stable machine-readable identifiers* — the same
``code`` strings the library's exception hierarchy carries
(:mod:`repro.core.errors`, :mod:`repro.api.errors`), plus the
transport-level codes defined here.  Clients switch on ``code``, never
on ``message``.

The module depends on the stdlib ``json`` and numpy only (no repro
imports): it *is* the protocol spec, equally usable by a non-Python
client author as documentation.
"""

from __future__ import annotations

import json
from typing import Any

import numpy as np

__all__ = [
    "PROTOCOL_VERSION",
    "MAX_FRAME_BYTES",
    "ATTACHMENT_DTYPES",
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
    "frame_parts",
    "decode_frame",
    "decode_header",
    "resolve_attachments",
    "request",
    "ok_response",
    "error_response",
    "validate_request",
    "echo_id",
    "error_code_for",
]

#: Version of the envelope format.  Bumped only for incompatible
#: changes; servers reject frames claiming any other version.
PROTOCOL_VERSION = 1

#: Upper bound on one frame's size, header line plus tail (requests
#: carry whole instances).
MAX_FRAME_BYTES = 64 * 1024 * 1024

#: The dtypes an attachment may declare: little-endian int32 and
#: float64.
ATTACHMENT_DTYPES = ("<i4", "<f8")

#: The header field holding the attachment table, and the key of a
#: placeholder object.
_TABLE = "attachments"
_PLACEHOLDER = "$attachment"
#: the envelope's own fields, which never hold a placeholder
_ENVELOPE_FIELDS = ("v", "id", "op", "ok", "trace")

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
    version, unknown op, malformed payload).

    ``fatal`` marks an error after which the reader cannot find the
    next frame in the stream (an unreadable attachment table, a
    truncated tail): the server answers it and closes the
    connection."""

    code = ErrorCode.BAD_FRAME

    def __init__(
        self, message: str, *, code: str | None = None, fatal: bool = False
    ) -> None:
        super().__init__(message, code=code)
        self.fatal = fatal


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
def frame_parts(obj: dict[str, Any]) -> list[bytes | memoryview]:
    """One envelope as the buffers of one frame: a compact JSON header
    line, then one byte view per attachment, in tail order.

    Every 1-D numpy array of an attachment dtype anywhere in ``obj``
    becomes an attachment (any other array is a ``TypeError``); the
    views share the arrays' memory, so a writer can send a frame
    without joining it into one buffer.
    ``json.dumps`` emits the shortest round-tripping representation of
    every float, so makespans survive the wire bit-exactly.
    """
    tail: list[np.ndarray] = []

    def attach(value: Any) -> dict[str, int]:
        if (
            isinstance(value, np.ndarray)
            and value.ndim == 1
            and value.dtype.str in ATTACHMENT_DTYPES
        ):
            tail.append(np.ascontiguousarray(value))
            return {_PLACEHOLDER: len(tail) - 1}
        raise TypeError(
            f"cannot put a {type(value).__name__} on the wire (arrays "
            f"must be 1-D and one of {list(ATTACHMENT_DTYPES)})"
        )

    if _TABLE in obj:
        raise ValueError(f"{_TABLE!r} is reserved for the frame's table")
    header = json.dumps(
        obj, separators=(",", ":"), allow_nan=False, default=attach
    )
    if not tail:
        return [(header + "\n").encode("utf-8")]
    table = json.dumps(
        [[arr.dtype.str, arr.nbytes] for arr in tail], separators=(",", ":")
    )
    # the table is known only once the envelope is written: splice it
    # in as the header's last field
    header = f'{header[:-1]}{"," if len(header) > 2 else ""}"{_TABLE}":{table}}}'
    parts: list[bytes | memoryview] = [(header + "\n").encode("utf-8")]
    parts.extend(memoryview(arr).cast("B") for arr in tail)
    return parts


def encode_frame(obj: dict[str, Any]) -> bytes:
    """One envelope as one frame in one buffer (:func:`frame_parts`
    joined)."""
    return b"".join(frame_parts(obj))


def decode_header(
    line: bytes | str,
) -> tuple[dict[str, Any], list[tuple[str, int]]]:
    """Parse one header line: ``(envelope, attachment table)``.

    The table (``[(dtype, nbytes), ...]``, empty for a frame without a
    tail) is taken out of the envelope.  Raises :class:`ProtocolError`:
    ``bad-frame`` for anything that is not one JSON object, and a
    *fatal* ``bad-frame`` or ``frame-too-large`` for a table that
    cannot be read or whose frame exceeds :data:`MAX_FRAME_BYTES`.
    """
    try:
        obj = json.loads(line)
    except (UnicodeDecodeError, ValueError, RecursionError) as exc:
        raise ProtocolError(f"frame is not valid JSON: {exc}") from None
    if not isinstance(obj, dict):
        raise ProtocolError(
            f"frame must be a JSON object, got {type(obj).__name__}"
        )
    if _TABLE not in obj:
        return obj, []
    table = obj.pop(_TABLE)
    if not isinstance(table, list):
        raise ProtocolError(
            f"{_TABLE!r} must be a list of [dtype, nbytes] pairs",
            fatal=True,
        )
    out: list[tuple[str, int]] = []
    total = len(line)
    for k, entry in enumerate(table):
        if not (isinstance(entry, list) and len(entry) == 2):
            raise ProtocolError(
                f"attachment {k} must be a [dtype, nbytes] pair",
                fatal=True,
            )
        dtype, nbytes = entry
        if dtype not in ATTACHMENT_DTYPES:
            raise ProtocolError(
                f"attachment {k} has dtype {dtype!r}; allowed: "
                f"{list(ATTACHMENT_DTYPES)}",
                fatal=True,
            )
        if (
            isinstance(nbytes, bool)
            or not isinstance(nbytes, int)
            or nbytes < 0
            or nbytes % int(dtype[-1])
        ):
            raise ProtocolError(
                f"attachment {k} length {nbytes!r} is not a non-negative "
                f"multiple of the {dtype[-1]}-byte item size",
                fatal=True,
            )
        total += nbytes
        if total > MAX_FRAME_BYTES:
            raise ProtocolError(
                f"frame exceeds {MAX_FRAME_BYTES} bytes",
                code=ErrorCode.FRAME_TOO_LARGE,
                fatal=True,
            )
        out.append((dtype, nbytes))
    return obj, out


def resolve_attachments(
    obj: dict[str, Any],
    table: list[tuple[str, int]],
    tail: bytes | memoryview,
) -> dict[str, Any]:
    """Replace the placeholders of a decoded header by read-only arrays
    viewing ``tail`` (no copy).  Raises :class:`ProtocolError`
    (``bad-frame``) when ``tail`` is not exactly the table's length or
    the placeholders do not name every entry exactly once."""
    declared = sum(nbytes for _, nbytes in table)
    if declared != len(tail):
        raise ProtocolError(
            f"frame tail holds {len(tail)} bytes; its table declares "
            f"{declared}"
        )
    arrays: list[np.ndarray | None] = []
    offset = 0
    for dtype, nbytes in table:
        arrays.append(
            np.frombuffer(
                tail, dtype=dtype, count=nbytes // int(dtype[-1]),
                offset=offset,
            )
        )
        offset += nbytes

    def take(ref: dict) -> np.ndarray:
        k = ref[_PLACEHOLDER]
        arr = (
            arrays[k]
            if len(ref) == 1
            and isinstance(k, int)
            and not isinstance(k, bool)
            and 0 <= k < len(arrays)
            else None
        )
        if arr is None:
            raise ProtocolError(
                f"placeholder {ref!r} names no unused attachment of "
                f"the {len(arrays)} in this frame"
            )
        arrays[k] = None
        return arr

    # an explicit stack: a header nested as deep as json.loads allows
    # must not overflow a recursive walk
    stack: list[Any] = [obj]
    while stack:
        node = stack.pop()
        for key, value in (
            node.items() if isinstance(node, dict) else enumerate(node)
        ):
            if node is obj and key in _ENVELOPE_FIELDS:
                # placeholders stand in the payload only: an id holding
                # one stays a plain object (its attachment goes unused),
                # so an echoed id never carries an array
                continue
            if isinstance(value, dict) and _PLACEHOLDER in value:
                node[key] = take(value)
            elif isinstance(value, (dict, list)):
                stack.append(value)
    unused = [k for k, arr in enumerate(arrays) if arr is not None]
    if unused:
        raise ProtocolError(
            f"attachments {unused} are named by no placeholder"
        )
    return obj


def decode_frame(frame: bytes | str) -> dict[str, Any]:
    """Parse one whole frame (header line plus tail) into an envelope.

    Raises :class:`ProtocolError` (code ``bad-frame``) for anything
    that is not one JSON object followed by exactly the tail its
    table declares.
    """
    if isinstance(frame, str):
        # lone surrogates survive the encode for json.loads to reject
        frame = frame.encode("utf-8", "surrogatepass")
    end = frame.find(b"\n") + 1 or len(frame)
    obj, table = decode_header(frame[:end])
    tail = memoryview(frame)[end:]
    if table:
        return resolve_attachments(obj, table, tail)
    if bytes(tail).strip():
        raise ProtocolError("frame has bytes after its header line")
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


def echo_id(obj: dict[str, Any]) -> Any:
    """The envelope's correlation ``id`` as a response can echo it:
    ``None`` when strict JSON cannot write it back (a non-finite
    number, or nesting deeper than the encoder recurses)."""
    rid = obj.get("id")
    if rid is None or type(rid) in (int, str):
        return rid
    try:
        json.dumps(rid, allow_nan=False)
    except (ValueError, RecursionError):
        return None
    return rid


def validate_request(obj: dict[str, Any]) -> tuple[str, Any, dict[str, Any]]:
    """Check a decoded request envelope; returns ``(op, id, payload)``.

    Raises :class:`ProtocolError` with the precise code: missing/alien
    version → ``unsupported-version``, unknown op → ``unknown-op``,
    missing id/op or an id no response can echo (:func:`echo_id`) →
    ``bad-request``.
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
    if obj["id"] is not None and echo_id(obj) is None:
        raise ProtocolError(
            "request 'id' holds a value JSON cannot echo (a non-finite "
            "number, or nesting too deep)",
            code=ErrorCode.BAD_REQUEST,
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
