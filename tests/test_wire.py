"""The wire's one hypergraph encoding: binary frame attachments.

Three groups, all over real sockets:

* **frame fuzzing** — every malformed attachment frame (truncated or
  lying tails, oversized or unreadable tables, bad placeholders) sent
  raw to a plain :class:`SolveServer` and to a 2-worker
  :class:`ShardedSolveServer` gets a typed error code or a clean
  connection close: never a hang, never ``internal``, and no
  connection task outlives its socket;
* **one encoding** — hypergraph dicts in the file format (serialize
  version 1 and base64 version 2) answer ``bad-request`` from both;
* **bit-equality** — attachment solves through a pool, for instances
  below and above 32 KiB, equal a local ``api.solve`` and a process
  engine's batch solve, with the engine's shared-memory hop on and off.

CI runs this module under ``python -X dev -W error::ResourceWarning``,
so a transport or task leaked on a cut-short frame fails the build.
"""

from __future__ import annotations

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
from repro.service import RemoteError, ServiceClient, instance_to_wire
from repro.service.protocol import MAX_FRAME_BYTES, encode_frame, request

from test_service import running_server
from test_shard import running_pool

TYPED = ("bad-frame", "bad-request", "frame-too-large", "graph-structure")


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
                line = rfile.readline()
                if not line:
                    break
                reply = json.loads(line)
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


CASES = _cases()


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


def test_attachment_solve_answers_on_a_fuzzed_endpoint(endpoint):
    hg = _instance()
    with ServiceClient(port=endpoint.port) as client:
        result = client.solve(hg, method="SGH")
    local = api_solve(hg, method="SGH")
    assert np.array_equal(result.assignment, local.matching.hedge_of_task)
    assert result.makespan == local.makespan


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
