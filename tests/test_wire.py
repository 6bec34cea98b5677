"""The wire's one hypergraph encoding: binary frame attachments.

Four groups, all over real sockets:

* **frame fuzzing** — every malformed frame (truncated or lying
  tails, oversized or unreadable tables, bad placeholders, non-UTF-8
  or overlong headers, huge or ill-typed envelope fields) sent raw to
  a plain :class:`SolveServer` and to a 2-worker
  :class:`ShardedSolveServer` gets a typed error code or a clean
  connection close: never a hang, never ``internal``, and no
  connection task outlives its socket.  Frames split across writes
  are answered, and an answer whose table lies to the client fails the
  call typed or closes the connection, leaving no task or transport;
* **trace field** — a malformed ``trace`` (not a dict, non-string,
  nested or longer than 64 characters ``id``/``span``) leaves a solve
  answered untraced, with no ``spans``, on a serving connection;
* **one encoding** — hypergraph dicts in the file format (serialize
  version 1 and base64 version 2) answer ``bad-request`` from both;
* **bit-equality** — attachment solves through a pool, for instances
  below and above 32 KiB, equal a local ``api.solve`` and a process
  engine's batch solve, with the engine's shared-memory hop on and off.

The frame reader itself (:class:`~repro.service.framing.FrameStream`)
is also driven by hand over a recording transport.

CI runs this module under ``python -X dev -W error::ResourceWarning``,
so a transport or task leaked on a cut-short frame fails the build.
"""

from __future__ import annotations

import asyncio
import json
import socket
import time

import numpy as np
import pytest

from repro.api import solve as api_solve
from repro.core import TaskHypergraph
from repro.engine import BatchSolver
from repro.engine.transport import transport_available
from repro.generators import generate_multiproc
from repro.io import hypergraph_to_dict
from repro.service import (
    AsyncServiceClient,
    ProtocolError,
    RemoteError,
    ServiceClient,
    instance_to_wire,
)
from repro.service.protocol import MAX_FRAME_BYTES, encode_frame, request

from test_service import read_frame, running_server
from test_shard import running_pool

TYPED = (
    "bad-frame", "bad-request", "frame-too-large", "graph-structure",
    "unsupported-version", "unknown-op",
)


@pytest.fixture(scope="module", params=["plain", "pool"])
def endpoint(request):
    """A plain server, then a 2-worker pool."""
    if request.param == "plain":
        with running_server() as (server, _loop):
            yield server
    else:
        with running_pool(n_workers=2) as (server, _):
            yield server


def _instance() -> TaskHypergraph:
    return TaskHypergraph.from_configurations(
        [[[0], [1, 2]], [[2]]], n_procs=3
    )


def _frame(envelope: dict, table: list, tail: bytes) -> bytes:
    """A hand-built attachment frame (``table`` taken verbatim)."""
    header = dict(envelope, attachments=table)
    return json.dumps(header).encode() + b"\n" + tail


def _solve_frame(**instance_patch) -> tuple[dict, list, bytes]:
    """The parts of a valid solve frame for :func:`_instance`, with the
    instance's placeholders patched."""
    frame = encode_frame(
        request("solve", 1, instance=instance_to_wire(_instance()))
    )
    head, _, tail = frame.partition(b"\n")
    envelope = json.loads(head)
    table = envelope.pop("attachments")
    envelope["instance"].update(instance_patch)
    return envelope, table, tail


def _talk(
    port: int, data: bytes, *, replies: int, probe: bool, eof: bool = False
) -> tuple[list[dict], bool]:
    """Send ``data``, then end the stream (``eof``) or, with ``probe``,
    send a ping.  Reads until the connection closes, or until the ping
    and ``replies`` other answers are in.  Returns the other answers
    and whether the connection answered the ping.

    A case that expects a close sends no probe and no unread tail
    bytes: a socket closed over unread input resets the connection,
    which could discard the answer before it is read."""
    sock = socket.create_connection(("127.0.0.1", port), timeout=20)
    got: list[dict] = []
    pong = False
    try:
        sock.sendall(data)
        if eof:
            sock.shutdown(socket.SHUT_WR)
        elif probe:
            sock.sendall(encode_frame(request("ping", "probe")))
        rfile = sock.makefile("rb")
        try:
            while not (pong and len(got) >= replies):
                reply = read_frame(rfile)
                if reply is None:
                    break
                if reply.get("id") == "probe":
                    pong = True
                else:
                    got.append(reply)
        finally:
            rfile.close()
        return got, pong
    finally:
        sock.close()


def _settled(server, timeout: float = 10.0) -> None:
    """No connection, and no connection task, outlives its socket."""
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if not server._conns and not server._serving:
            return
        time.sleep(0.01)
    raise AssertionError(
        f"{len(server._conns)} connection(s), {len(server._serving)} "
        "connection task(s) left behind"
    )


def _codes(replies: list[dict]) -> list[str]:
    return [r["error"]["code"] for r in replies if not r.get("ok")]


# ---------------------------------------------------------------------------
# frame fuzzing
# ---------------------------------------------------------------------------
def _cases():
    """``case -> (bytes, eof, allowed codes, replies, stays open)``."""
    env, table, tail = _solve_frame()
    over = [[dtype, n] for dtype, n in table]
    over[-1][1] += 8
    extra = table + [["<i4", 4]]
    scalar, _, _ = _solve_frame(n_tasks={"$attachment": len(table)})
    unnamed, _, _ = _solve_frame(hedge_ptr={"$attachment": 99})

    def refused(bad_table, code="bad-frame"):
        # an unreadable table: answered, then closed (no tail is sent,
        # the server must not wait for one)
        return _frame(env, bad_table, b""), False, (code,), 1, False

    return {
        "truncated-tail-then-eof": (
            _frame(env, table, tail[:-5]), True, ("bad-frame",), 1, False),
        "total-above-max-frame": refused(
            [["<i4", MAX_FRAME_BYTES]], "frame-too-large"),
        "unknown-dtype": refused([["<i8", 8]]),
        "negative-length": refused([["<i4", -4]]),
        "bool-length": refused([["<i4", True]]),
        "fractional-length": refused([["<f8", 8.0]]),
        "string-length": refused([["<f8", "8"]]),
        "misaligned-length": refused([["<i4", 6]]),
        "entry-not-a-pair": refused([["<i4"]]),
        "table-not-a-list": refused({"0": ["<i4", 4]}),
        # in sync afterwards: answered, and the connection lives on
        "placeholder-out-of-range": (
            _frame(unnamed, table, tail), False, ("bad-frame",), 1, True),
        "attachment-unused": (
            _frame(env, extra, tail + bytes(4)), False, ("bad-frame",), 1,
            True),
        "placeholder-in-scalar-field": (
            _frame(scalar, extra, tail + bytes(4)), False,
            ("graph-structure", "bad-request"), 1, True),
        # a header json.loads cannot nest that deep: a plain bad frame
        "deeply-nested-header": (
            b'{"v":1,"id":1,"op":"ping","x":' + b"[" * 200_000
            + b"]" * 200_000 + b"}\n",
            False, ("bad-frame",), 1, True),
        # a table claiming more than was sent swallows the next frame's
        # first bytes as tail: the lie is answered typed, then the
        # remainder of that frame, and the connection survives
        "declared-longer-than-sent": (
            _frame(env, over, tail)
            + encode_frame(request("ping", "swallowed")),
            False, ("graph-structure", "bad-frame"), 2, True),
    }


def _envelope_cases():
    """Headers taken apart before any payload is read: bytes that are
    not UTF-8, huge or ill-typed envelope fields and attachment tables,
    and a tail cut in the middle of an array."""
    env, table, tail = _solve_frame()

    def line(envelope: dict) -> bytes:
        return json.dumps(envelope).encode() + b"\n"

    def answered(data: bytes, *codes: str):
        # answered typed; the connection lives on
        return data, False, codes, 1, True

    ping = {"v": 1, "id": 1, "op": "ping"}
    placeholder = {"$attachment": 0}
    return {
        "non-utf8-header": answered(
            b'{"v":1,"id":1,"op":"ping","x":"\xff\xfe"}\n', "bad-frame"),
        "non-utf8-line": answered(b"\xc3\x28\xa0\xa1\n", "bad-frame"),
        "huge-int-version": answered(
            line(dict(ping, v=10**300)), "unsupported-version"),
        "string-version": answered(
            line(dict(ping, v="1")), "unsupported-version"),
        "list-version": answered(
            line(dict(ping, v=[1])), "unsupported-version"),
        # past the digit limit json.loads puts on an int
        "int-past-digit-limit": answered(
            b'{"v":1,"id":' + b"9" * 5000 + b',"op":"ping"}\n',
            "bad-frame"),
        "huge-int-id": answered(
            line(dict(ping, id=10**300, op="nope")), "unknown-op"),
        # ids JSON cannot write back: refused, never echoed
        "infinite-id": answered(
            b'{"v":1,"id":1e400,"op":"ping"}\n', "bad-request"),
        "nan-id": answered(
            b'{"v":1,"id":[NaN],"op":"ping"}\n', "bad-request"),
        "list-op": answered(line(dict(ping, op=["ping"])), "bad-request"),
        "huge-int-op": answered(line(dict(ping, op=10**300)), "bad-request"),
        "null-op": answered(line(dict(ping, op=None)), "bad-request"),
        # placeholders stand in the payload only: these go unused
        "placeholder-as-id": answered(
            _frame(dict(ping, id=placeholder), [["<i4", 4]], bytes(4)),
            "bad-frame"),
        "placeholder-as-op": answered(
            _frame(dict(ping, op=placeholder), [["<i4", 4]], bytes(4)),
            "bad-frame"),
        "placeholder-as-version": answered(
            _frame(dict(ping, v=placeholder), [["<i4", 4]], bytes(4)),
            "bad-frame"),
        # unreadable tables: answered, then closed
        "huge-int-attachment-length": (
            _frame(ping, [["<i4", 4 * 10**300]], b""), False,
            ("frame-too-large",), 1, False),
        "attachment-pair-swapped": (
            _frame(ping, [[4, "<i4"]], b""), False, ("bad-frame",), 1,
            False),
        "attachment-dtype-not-a-string": (
            _frame(ping, [[["<i4"], 4]], b""), False, ("bad-frame",), 1,
            False),
        "tail-cut-mid-array": (
            _frame(env, table, tail[: table[0][1] // 2 + 1]), True,
            ("bad-frame",), 1, False),
    }


CASES = {**_cases(), **_envelope_cases()}


@pytest.mark.parametrize("case", sorted(CASES))
def test_bad_attachment_frames_answer_typed_or_close(endpoint, case):
    data, eof, codes, n_replies, stays_open = CASES[case]
    internal = "service.errors.internal"
    before = endpoint.metrics.counter_value(internal)
    replies, open_after = _talk(
        endpoint.port, data, replies=n_replies, probe=stays_open, eof=eof
    )
    got = _codes(replies)
    assert len(got) == n_replies, (case, replies)
    assert set(got) <= set(codes) and set(got) <= set(TYPED), (case, got)
    assert open_after is stays_open, case
    assert endpoint.metrics.counter_value(internal) == before
    _settled(endpoint)


def test_header_past_the_line_limit_answers_frame_too_large(endpoint):
    """A header line longer than ``MAX_FRAME_BYTES`` is refused with
    ``frame-too-large`` once the limit is passed, and the connection
    closes: the reader cannot find where the line would end."""
    data = b"x" * (MAX_FRAME_BYTES + 1)
    replies, open_after = _talk(endpoint.port, data, replies=1, probe=False)
    del data
    assert _codes(replies) == ["frame-too-large"]
    assert not open_after
    _settled(endpoint)


def test_two_frames_in_one_write_with_the_second_tail_split(endpoint):
    """One write holds a whole solve frame and the head of a second;
    the rest of the second tail follows in a later write.  Both are
    answered, bit-equal to local solves."""
    instances = [
        generate_multiproc(
            64, 16, family="fewgmanyg", g=4, dv=3, dh=5, weights="related",
            seed=seed,
        )
        for seed in (11, 12)
    ]
    frames = [
        encode_frame(
            request("solve", k, instance=instance_to_wire(hg),
                    options={"method": "SGH"})
        )
        for k, hg in enumerate(instances)
    ]
    split = len(frames[0]) + len(frames[1]) // 2
    data = b"".join(frames)
    sock = socket.create_connection(("127.0.0.1", endpoint.port), timeout=20)
    rfile = sock.makefile("rb")
    try:
        sock.sendall(data[:split])
        time.sleep(0.05)  # the server reads the first part on its own
        sock.sendall(data[split:])
        replies = {r["id"]: r for r in (read_frame(rfile) for _ in frames)}
    finally:
        rfile.close()
        sock.close()
    for k, hg in enumerate(instances):
        result = replies[k]["result"]
        local = api_solve(hg, method="SGH")
        assert result["assignment"].dtype == np.dtype("<i4")
        assert np.array_equal(
            result["assignment"], local.matching.hedge_of_task
        )
        assert result["makespan"] == local.makespan
    _settled(endpoint)


def test_attachment_solve_answers_on_a_fuzzed_endpoint(endpoint):
    hg = _instance()
    with ServiceClient(port=endpoint.port) as client:
        result = client.solve(hg, method="SGH")
    local = api_solve(hg, method="SGH")
    assert np.array_equal(result.assignment, local.matching.hedge_of_task)
    assert result.makespan == local.makespan


# ---------------------------------------------------------------------------
# the trace field
# ---------------------------------------------------------------------------
_ID = "1f-2"
TRACE_CASES = {
    "not-a-dict": [_ID, _ID],
    "string": _ID,
    "non-string-id": {"id": 7, "span": _ID},
    "non-string-span": {"id": _ID, "span": None},
    "nested-id": {"id": {"id": _ID}, "span": _ID},
    "nested-span": {"id": _ID, "span": [_ID]},
    "oversized-id": {"id": "a" * 65, "span": _ID},
    "oversized-span": {"id": _ID, "span": "b" * 65},
    "both-a-megabyte": {"id": "a" * (1 << 20), "span": "b" * (1 << 20)},
}


def _traced_solve(endpoint, trace) -> dict:
    """One solve frame carrying ``trace``, answered on a connection
    that still answers a ping afterwards."""
    env, table, tail = _solve_frame()
    env["trace"] = trace
    replies, open_after = _talk(
        endpoint.port, _frame(env, table, tail), replies=1, probe=True
    )
    assert open_after
    (reply,) = replies
    assert reply["ok"], reply
    _settled(endpoint)
    return reply


@pytest.mark.parametrize("case", sorted(TRACE_CASES))
def test_malformed_trace_answers_untraced(endpoint, case):
    reply = _traced_solve(endpoint, TRACE_CASES[case])
    assert "spans" not in reply, case


def test_trace_ids_at_the_bound_answer_traced(endpoint):
    """Ids of 64 characters are well formed: the answer carries the
    request's spans."""
    reply = _traced_solve(endpoint, {"id": "a" * 64, "span": "b" * 64})
    assert reply["spans"]
    assert {rec["trace"] for rec in reply["spans"]} == {"a" * 64}


# ---------------------------------------------------------------------------
# one wire encoding
# ---------------------------------------------------------------------------
def test_file_format_instances_answer_bad_request(endpoint):
    hg = _instance()
    v2 = hypergraph_to_dict(hg)
    v1 = {
        "kind": "hypergraph", "version": 1, "n_tasks": 2, "n_procs": 3,
        "hedge_task": [0, 0, 1], "pins": [[0], [1, 2], [2]],
        "weights": [1.0, 1.0, 1.0],
    }
    unversioned_v1 = {k: v for k, v in v1.items() if k != "version"}
    with ServiceClient(port=endpoint.port) as client:
        for name, data in (("v2", v2), ("v1", v1), ("v1-bare", unversioned_v1)):
            for op, field in (("solve", "instance"), ("session.open", "baseline")):
                with pytest.raises(RemoteError) as exc:
                    client.call(op, **{field: data})
                assert exc.value.code == "bad-request", (name, op)
        assert client.ping()["pong"] is True


# ---------------------------------------------------------------------------
# bit-equality through the pool's two hops
# ---------------------------------------------------------------------------
@pytest.mark.parametrize("shm_min_bytes", [None, 32768])
def test_pool_attachment_solves_equal_local(shm_min_bytes):
    """Every instance, below and above 32 KiB, crosses the front-end →
    worker hop as re-emitted attachments.  Every answer equals a local
    solve and a 2-worker process engine's batch solve; with the
    engine's 32 KiB threshold the large instance reaches its worker by
    shared-memory segment, with ``None`` by pickle."""
    instances = [
        generate_multiproc(
            n, p, family="fewgmanyg", g=4, dv=3, dh=5, weights="related",
            seed=seed,
        )
        for seed, (n, p) in enumerate([(24, 8), (40, 8), (1200, 64)])
    ]
    with running_pool(n_workers=2) as (server, _loop), BatchSolver(
        max_workers=2, executor="process", cache=False,
        shm_min_bytes=shm_min_bytes,
    ) as engine:
        with ServiceClient(port=server.port) as client:
            for method in ("SGH", "EVG"):
                batch = engine.solve_many(instances, method=method)
                for hg, engine_result in zip(instances, batch):
                    remote = client.solve(hg, method=method)
                    local = api_solve(hg, method=method)
                    for hedge_of_task in (
                        local.matching.hedge_of_task,
                        engine_result.matching.hedge_of_task,
                    ):
                        assert np.array_equal(
                            remote.assignment, hedge_of_task
                        ), (hg.n_tasks, method)
                    assert remote.makespan == local.makespan
                    assert engine_result.makespan == local.makespan
        stats = engine.transport_stats()
    if shm_min_bytes is None or not transport_available():
        assert stats["exports"] == 0
    else:
        assert stats["exports"] >= 1 and stats["failures"] == 0


# ---------------------------------------------------------------------------
# a server whose answer lies to the client
# ---------------------------------------------------------------------------
def _answer(rid: int, table: list, tail: bytes, placeholder: int = 0) -> bytes:
    """A solve-shaped answer to ``rid`` whose assignment is attachment
    ``placeholder`` of the hand-built ``table``."""
    result = {"assignment": {"$attachment": placeholder}, "makespan": 1.0}
    return _frame({"v": 1, "id": rid, "ok": True, "result": result},
                  table, tail)


LIES = {
    # more declared than sent, then the server leaves: the client
    # cannot finish the frame and reads a closed connection
    "tail-shorter-than-table": (
        lambda rid: _answer(rid, [["<i4", 8]], bytes(4)), True,
        ConnectionError, None),
    "unreadable-table": (
        lambda rid: _answer(rid, [["<i8", 8]], bytes(8)), False,
        ProtocolError, "bad-frame"),
    "placeholder-names-nothing": (
        lambda rid: _answer(rid, [["<i4", 4]], bytes(4), placeholder=3),
        False, ProtocolError, "bad-frame"),
    "table-past-max-frame": (
        lambda rid: _answer(rid, [["<i4", MAX_FRAME_BYTES]], b""), False,
        ProtocolError, "frame-too-large"),
}


@pytest.mark.parametrize("lie", sorted(LIES))
def test_a_lying_answer_fails_the_call_typed_and_closes(lie):
    """Whatever a server's answer claims, the client's call ends in a
    typed error or a closed connection, never a hang, and closing the
    client leaves neither its read task nor its transport behind."""
    reply_for, leave, error, code = LIES[lie]

    async def scenario():
        async def serve(reader, writer):
            line = await reader.readline()
            writer.write(reply_for(json.loads(line)["id"]))
            await writer.drain()
            if not leave:
                await reader.read()  # until the client hangs up
            writer.close()

        srv = await asyncio.start_server(serve, "127.0.0.1", 0)
        port = srv.sockets[0].getsockname()[1]
        client = await AsyncServiceClient.connect(port=port)
        try:
            with pytest.raises(error) as exc:
                await asyncio.wait_for(client.call("ping"), timeout=10)
        finally:
            await client.close()
        assert client._pump.done()
        assert client._stream.transport.is_closing()
        srv.close()
        await srv.wait_closed()
        return exc.value

    raised = asyncio.run(scenario())
    if code is not None:
        assert raised.code == code


# ---------------------------------------------------------------------------
# the frame reader, driven by hand
# ---------------------------------------------------------------------------
class _Transport(asyncio.Transport):
    """Records what a :class:`FrameStream` asks of its transport."""

    def __init__(self):
        super().__init__()
        self.reading = True
        self.writes: list[bytes] = []

    def pause_reading(self):
        self.reading = False

    def resume_reading(self):
        self.reading = True

    def write(self, data):
        self.writes.append(bytes(data))

    def close(self):
        pass


def _feed(stream, data: bytes) -> list[int]:
    """Deliver ``data`` the way a socket transport does; returns the
    size of each buffer the stream offered."""
    offered = []
    while data:
        buf = stream.get_buffer(-1)
        offered.append(len(buf))
        n = min(len(buf), len(data))
        buf[:n] = data[:n]
        stream.buffer_updated(n)
        data = data[n:]
    return offered


def test_reader_pauses_while_a_line_waits_and_fills_tails_in_place():
    """Reading pauses while a complete line waits for its reader and
    resumes when the reader needs more; a tail is received straight
    into a buffer of its own, sized to what is missing; small frame
    pieces reach the transport joined, large ones as they are."""
    from repro.service.framing import FrameStream

    async def scenario():
        stream = FrameStream()
        transport = _Transport()
        stream.connection_made(transport)
        _feed(stream, b'{"a":1}\n{"b"')
        assert not transport.reading
        assert await stream.readline() == b'{"a":1}\n'
        pending = asyncio.ensure_future(stream.readline())
        await asyncio.sleep(0)
        assert transport.reading
        _feed(stream, b':2}\nTAIL')
        assert await pending == b'{"b":2}\n'
        tail = asyncio.ensure_future(stream.readexactly(10))
        await asyncio.sleep(0)
        # the four tail bytes that came with the line are in; the tail
        # buffer takes exactly the six still missing
        assert _feed(stream, b"-BYTES") == [6]
        got = await tail
        assert bytes(got) == b"TAIL-BYTES" and got.readonly
        big = np.arange(32768, dtype="<i4")
        stream.write([b"head\n", memoryview(big).cast("B"), b"x", b"y"])
        assert transport.writes == [b"head\n", big.tobytes(), b"xy"]
        stream.connection_lost(None)
        assert await stream.readline() == b""
        with pytest.raises(ProtocolError) as exc:
            await stream.readexactly(1)
        assert exc.value.code == "bad-frame" and exc.value.fatal

    asyncio.run(scenario())
