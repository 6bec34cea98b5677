"""Tests for the solve service (repro.service).

Every test boots a real :class:`SolveServer` on an ephemeral port in a
background event-loop thread and talks to it over actual TCP — the
protocol layer, admission control, micro-batcher, single-flight and
sessions are all exercised end-to-end.  Each server gets a *private*
:class:`ResultCache` so tests neither pollute nor read the process-wide
default cache.
"""

from __future__ import annotations

import asyncio
import json
import socket
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest
from hypothesis import HealthCheck, given, settings
from hypothesis import strategies as st

from repro.api import Refine, SolveOptions, solve as api_solve
from repro.core import TaskHypergraph
from repro.dynamic import (
    MUTATION_OPS,
    DynamicInstance,
    IncrementalSolver,
    Mutation,
)
from repro.engine import ResultCache
from repro.engine.batch import BatchSolver
from repro.generators import churn_trace, generate_multiproc
from repro.obs import Histogram
from repro.service import (
    ERROR_CODES,
    OPS,
    PROTOCOL_VERSION,
    AsyncServiceClient,
    ErrorCode,
    ProtocolError,
    RemoteError,
    ServiceClient,
    SolveServer,
    instance_to_wire,
)
from repro.service.protocol import (
    decode_frame,
    encode_frame,
    error_code_for,
    error_response,
    ok_response,
    request,
    validate_request,
)

from strategies import task_hypergraphs


# ---------------------------------------------------------------------------
# harness
# ---------------------------------------------------------------------------
@contextmanager
def running_server(**config):
    """A live server on an ephemeral port, torn down afterwards."""
    config.setdefault(
        "engine",
        BatchSolver(max_workers=1, executor="serial", cache=ResultCache()),
    )
    config.setdefault("allow_shutdown", True)
    server = SolveServer(port=0, **config)
    loop = asyncio.new_event_loop()
    started = threading.Event()

    def run() -> None:
        asyncio.set_event_loop(loop)
        loop.run_until_complete(server.start())
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(10), "server failed to start"
    try:
        yield server, loop
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(10)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(10)
        loop.close()


def read_frame(rfile) -> dict | None:
    """One whole frame off a raw socket's file (its header line, then
    the tail its attachment table declares), decoded; ``None`` at end
    of stream."""
    line = rfile.readline()
    if not line:
        return None
    table = json.loads(line).get("attachments") or []
    return decode_frame(line + rfile.read(sum(n for _, n in table)))


def on_loop(loop, coro, timeout=60):
    """Run a coroutine on the server's loop from the test thread."""
    return asyncio.run_coroutine_threadsafe(coro, loop).result(timeout)


def small_instances(n, *, n_tasks=32, seed0=0):
    return [
        generate_multiproc(
            n_tasks, max(n_tasks // 4, 4), family="fewgmanyg",
            g=4, dv=3, dh=5, weights="related", seed=seed0 + k,
        )
        for k in range(n)
    ]


# ---------------------------------------------------------------------------
# protocol layer (no sockets)
# ---------------------------------------------------------------------------
class TestProtocol:
    def test_frame_round_trip(self):
        env = request("solve", 7, instance={"kind": "hypergraph"})
        again = decode_frame(encode_frame(env))
        assert again == env
        assert encode_frame(env).endswith(b"\n")

    def test_response_envelopes(self):
        ok = ok_response(3, {"x": 1})
        assert ok["ok"] and ok["id"] == 3 and ok["v"] == PROTOCOL_VERSION
        err = error_response(3, ErrorCode.OVERLOADED, "busy")
        assert not err["ok"]
        assert err["error"]["code"] == "overloaded"

    def test_floats_survive_bit_exactly(self):
        values = [0.1, 1 / 3, 1e-300, 12345.6789, 2**53 - 1.0]
        env = request("ping", 1, xs=values)
        assert decode_frame(encode_frame(env))["xs"] == values

    @pytest.mark.parametrize(
        "line", [b"not json\n", b"[1,2]\n", b'"str"\n', b"\xff\xfe\n"]
    )
    def test_bad_frames_rejected(self, line):
        with pytest.raises(ProtocolError) as exc:
            decode_frame(line)
        assert exc.value.code == ErrorCode.BAD_FRAME

    def test_validate_request_codes(self):
        with pytest.raises(ProtocolError) as exc:
            validate_request({"id": 1, "op": "ping"})  # no version
        assert exc.value.code == ErrorCode.UNSUPPORTED_VERSION
        with pytest.raises(ProtocolError) as exc:
            validate_request({"v": 1, "op": "ping"})  # no id
        assert exc.value.code == ErrorCode.BAD_REQUEST
        with pytest.raises(ProtocolError) as exc:
            validate_request({"v": 1, "id": 1, "op": "fly"})
        assert exc.value.code == ErrorCode.UNKNOWN_OP
        op, rid, payload = validate_request(
            {"v": 1, "id": "a", "op": "solve", "instance": {}}
        )
        assert (op, rid, payload) == ("solve", "a", {"instance": {}})

    def test_exception_codes_are_stable_attributes(self):
        """The satellite contract: wire codes come from ``.code``
        attributes, never from string matching."""
        from repro.api import UnknownSolverError
        from repro.api.errors import CapabilityError
        from repro.core.errors import (
            GraphStructureError,
            InfeasibleError,
            InvalidMatchingError,
            SolverError,
        )

        for exc, code in [
            (UnknownSolverError("nope"), "unknown-solver"),
            (CapabilityError("cap"), "capability"),
            (GraphStructureError("bad"), "graph-structure"),
            (InvalidMatchingError("bad"), "invalid-matching"),
            (SolverError("bad"), "solver-error"),
            (InfeasibleError("bad"), "infeasible"),
        ]:
            assert exc.code == code
            assert error_code_for(exc) == code
        assert error_code_for(ValueError("x")) == ErrorCode.BAD_REQUEST
        assert error_code_for(RuntimeError("x")) == ErrorCode.INTERNAL
        # the vocabulary itself is frozen
        for code in ("overloaded", "session-not-found", "bad-frame"):
            assert code in ERROR_CODES
        assert "solve" in OPS and "session.mutate" in OPS

    def test_histogram_quantiles(self):
        h = Histogram((1.0, 2.0, 4.0))
        for v in (0.5, 1.5, 1.5, 3.0, 100.0):
            h.observe(v)
        assert h.count == 5 and h.total == pytest.approx(106.5)
        assert h.quantile(0.5) == 2.0
        assert h.quantile(1.0) == 4.0  # overflow reports last bound
        snap = h.snapshot()
        assert snap["buckets"][-1] == [None, 1]


# ---------------------------------------------------------------------------
# solve round trips
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def digest_paths():
    """A plain server and a 2-worker pool front-end, never started:
    their parse steps are what the digest property drives."""
    from repro.service import ShardedSolveServer

    return SolveServer(), ShardedSolveServer(n_workers=2)


class TestSolveRoundTrip:
    def test_remote_solve_is_bit_identical_to_local(self):
        instances = small_instances(4, n_tasks=48)
        with running_server() as (server, _loop):
            with ServiceClient(port=server.port) as client:
                assert client.ping()["pong"] is True
                for method in ("EVG", "SGH+ls", "auto"):
                    for hg in instances:
                        local = api_solve(hg, method=method)
                        remote = client.solve(hg, method=method)
                        assert np.array_equal(
                            remote.assignment, local.hedge_of_task
                        )
                        assert remote.makespan == local.makespan
                        # re-validates against the caller's instance
                        m = remote.matching(hg)
                        assert m.makespan == local.makespan

    def test_equivalent_option_spellings_share_cache_entries(self):
        (hg,) = small_instances(1)
        cache = ResultCache()
        engine = BatchSolver(max_workers=1, executor="serial", cache=cache)
        with running_server(engine=engine) as (server, _loop):
            with ServiceClient(port=server.port) as client:
                first = client.solve(
                    hg, options=SolveOptions(method=Refine("EVG"))
                )
                second = client.solve(hg, method="EVG+ls")
        assert not first.cache_hit and second.cache_hit
        assert np.array_equal(first.assignment, second.assignment)
        assert cache.stats()["misses"] == 1

    def test_parse_step_memoizes_the_digest(self):
        # the on-loop dedup key must be a memo lookup, not a SHA-256 pass
        from repro.engine.cache import instance_digest
        from repro.service import instance_to_wire

        (hg,) = small_instances(1)
        parsed = SolveServer()._parse_instance(instance_to_wire(hg))
        assert parsed._digest_cache == instance_digest(hg)

    @settings(
        max_examples=40, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(hg=task_hypergraphs(max_tasks=8, max_procs=6))
    def test_every_path_gives_one_digest(self, hg, digest_paths):
        """One instance, one digest: the library object, the plain
        server's parsed memo (hashed over the frame's attachment
        views), the pool front-end's routing key, a ``DynamicInstance``
        and its state round trip, and an instance attached from an
        engine's shared-memory descriptor."""
        from repro.engine import transport
        from repro.engine.cache import instance_digest

        plain, front = digest_paths
        # a DynamicInstance lists each configuration's processors in
        # ascending order: draw the instance in that form
        ptr = hg.hedge_ptr
        hg = TaskHypergraph.from_csr(
            hg.n_tasks, hg.n_procs, hg.hedge_task, ptr,
            np.concatenate(
                [np.sort(hg.hedge_procs[a:b]) for a, b in zip(ptr, ptr[1:])]
            ),
            hg.hedge_w,
        )
        library = instance_digest(
            TaskHypergraph.from_csr(
                hg.n_tasks, hg.n_procs, hg.hedge_task, hg.hedge_ptr,
                hg.hedge_procs, hg.hedge_w,
            )
        )

        def received():
            frame = encode_frame(
                request("solve", 1, instance=instance_to_wire(hg))
            )
            return decode_frame(frame)["instance"]

        assert plain._parse_instance(received())._digest_cache == library
        _, token = front._normalized_options({"method": "SGH"})
        key = (instance_digest(front._parse_instance(received())), *token)
        assert key == (library, *token)
        assert front.ring.route(key) == front.ring.route((library, *token))
        inst = DynamicInstance.from_hypergraph(hg)
        assert inst.digest() == library
        state = json.loads(json.dumps(inst.to_state()))
        assert DynamicInstance.from_state(state).digest() == library
        if not transport.transport_available():  # pragma: no cover
            return
        registry = transport.ExportRegistry()
        try:
            descriptor = registry.export(hg, instance_digest(hg))
            attached = transport.attach_instance(descriptor)
            copied = TaskHypergraph.from_csr(
                attached.n_tasks, attached.n_procs,
                attached.hedge_task.copy(), attached.hedge_ptr.copy(),
                attached.hedge_procs.copy(), attached.hedge_w.copy(),
            )
            assert instance_digest(attached) == library
            assert instance_digest(copied) == library
        finally:
            name = descriptor["__shm__"]
            transport._detach(name, transport._ATTACHED.pop(name))
            registry.close()

    def test_solve_errors_carry_typed_codes(self):
        (hg,) = small_instances(1)
        with running_server() as (server, _loop):
            with ServiceClient(port=server.port) as client:
                with pytest.raises(RemoteError) as exc:
                    client.solve(hg, method="EVH")
                assert exc.value.code == "unknown-solver"
                with pytest.raises(RemoteError) as exc:
                    client.call("solve", instance={"kind": "mystery"})
                assert exc.value.code == "bad-request"
                with pytest.raises(RemoteError) as exc:
                    client.call(
                        "solve",
                        instance={"kind": "hypergraph"},  # missing arrays
                    )
                assert exc.value.code == "bad-request"
                # the connection survives every error above
                assert client.ping()["pong"] is True


    @pytest.mark.parametrize("options", [
        {"seed": True},
        {"seed": "7"},
        {"seed": 2.5},
        {"seed": 2.7},
        {"time_budget": True},
        {"time_budget": "x"},
        {"refine": True},
        {"portfolio": ["SGH", "EVG"]},
    ])
    def test_bad_wire_options_answer_bad_request(self, options):
        (hg,) = small_instances(1)
        with running_server() as (server, _loop):
            with ServiceClient(port=server.port) as client:
                with pytest.raises(RemoteError) as exc:
                    client.call(
                        "solve",
                        instance=instance_to_wire(hg),
                        options=options,
                    )
                assert exc.value.code == "bad-request"
                (field,) = options
                assert field in str(exc.value)
                assert client.ping()["pong"] is True


# ---------------------------------------------------------------------------
# micro-batching
# ---------------------------------------------------------------------------
class TestMicroBatching:
    def test_pipelined_burst_coalesces_into_one_engine_batch(self):
        """A one-write burst of compatible requests is one solve_many
        call: the whole burst is admitted before any handler runs, so
        the batcher's all-pending-queued signal flushes exactly once."""
        instances = small_instances(12)
        with running_server(max_delay_s=0.05) as (server, _loop):
            with ServiceClient(port=server.port) as client:
                results = client.solve_pipelined(instances, method="SGH")
            snapshot = server._op_metrics()
        for hg, remote in zip(instances, results):
            local = api_solve(hg, method="SGH")
            assert np.array_equal(remote.assignment, local.hedge_of_task)
        assert snapshot["counters"]["batched_requests"] == len(instances)
        assert snapshot["counters"]["batches"] == 1
        assert snapshot["batch_size"]["p99"] >= len(instances)

    def test_incompatible_options_never_share_a_batch(self):
        instances = small_instances(4)
        with running_server(max_delay_s=0.05) as (server, loop):

            async def burst():
                client = await AsyncServiceClient.connect(port=server.port)
                try:
                    return await asyncio.gather(
                        *(
                            client.solve(
                                hg, method=("SGH" if k % 2 else "EVG")
                            )
                            for k, hg in enumerate(instances)
                        )
                    )
                finally:
                    await client.close()

            results = on_loop(loop, burst())
            counters = server._op_metrics()["counters"]
        # requests with different option tokens may not coalesce: at
        # least one flush per distinct token (timing decides whether
        # same-token pairs coalesced, so only bound it from below)
        assert 2 <= counters["batches"] <= len(instances)
        assert counters["batched_requests"] == len(instances)
        for k, (hg, remote) in enumerate(zip(instances, results)):
            local = api_solve(hg, method="SGH" if k % 2 else "EVG")
            assert np.array_equal(remote.assignment, local.hedge_of_task)

    def test_a_serial_engine_runs_its_batches_one_at_a_time(self):
        """Flushed batches of a serial engine queue at one thread of
        the batcher's own: never two solves at once, whatever the
        number of concurrent flushes."""
        from types import SimpleNamespace

        from repro.service.batching import MicroBatcher

        running, peak, threads = [0], [0], set()
        lock = threading.Lock()

        class SlowSerialEngine:
            inline = True

            def solve_many(self, instances, *, options):
                with lock:
                    running[0] += 1
                    peak[0] = max(peak[0], running[0])
                    threads.add(threading.get_ident())
                time.sleep(0.02)
                with lock:
                    running[0] -= 1
                return [SimpleNamespace(stats={}) for _ in instances]

        async def burst():
            batcher = MicroBatcher(SlowSerialEngine(), max_batch=1)
            options = SolveOptions(method="SGH")
            return await asyncio.gather(
                *(batcher.solve(hg, options) for hg in small_instances(6))
            )

        results = asyncio.run(burst())
        assert len(results) == 6
        assert peak[0] == 1 and len(threads) == 1
        assert all(r.stats["queue_s"] >= 0 for r in results)

    def test_a_one_worker_engine_flushes_on_the_solver_thread(self):
        """``BatchSolver(max_workers=1)`` solves in the calling thread
        just like a serial engine, so the server hands its batches to
        the batcher's one solver thread too, not to the loop's
        executor threads."""
        engine = BatchSolver(max_workers=1, cache=ResultCache())
        solve_many, threads = engine.solve_many, []

        def recording(instances, **kwargs):
            threads.append(threading.current_thread().name)
            return solve_many(instances, **kwargs)

        engine.solve_many = recording
        with running_server(engine=engine) as (server, _loop):
            with ServiceClient(port=server.port) as client:
                client.solve_pipelined(small_instances(4), method="SGH")
        assert threads
        assert all(name.startswith("repro-solve") for name in threads)

    def test_sparse_traffic_flushes_without_waiting_the_budget(self):
        """Adaptivity: lone requests must not idle out max_delay_s."""
        import time

        (hg,) = small_instances(1)
        with running_server(max_delay_s=0.5) as (server, _loop):
            with ServiceClient(port=server.port, timeout=15.0) as client:
                # cold start spends the budget once (no arrival-rate
                # estimate yet); every lone request after it must see a
                # collapsed window
                client.solve(hg, method="SGH")
                t0 = time.perf_counter()
                for seed in (101, 102, 103):
                    (inst,) = small_instances(1, seed0=seed)
                    result = client.solve(inst, method="SGH")
                    assert result.raw["makespan"] == result.makespan
                elapsed = time.perf_counter() - t0
        # three sequential solves under a 0.5s budget each: waiting the
        # budget would take >= 1.5s, the adaptive window takes ~nothing
        assert elapsed < 0.75


# ---------------------------------------------------------------------------
# single-flight dedup
# ---------------------------------------------------------------------------
class TestSingleFlight:
    def test_identical_concurrent_requests_share_one_solve(self):
        (hg,) = small_instances(1, n_tasks=96)
        cache = ResultCache()
        engine = BatchSolver(max_workers=1, executor="serial", cache=cache)
        n = 16
        # the leader's solve is held until every request has arrived, so
        # the outcome does not depend on how fast the burst is parsed
        arrived = threading.Event()
        solve_many = engine.solve_many

        def held_solve_many(*args, **kwargs):
            assert arrived.wait(60), "the burst never arrived"
            return solve_many(*args, **kwargs)

        engine.solve_many = held_solve_many
        with running_server(engine=engine, max_delay_s=0.05) as (
            server,
            loop,
        ):

            async def burst():
                client = await AsyncServiceClient.connect(port=server.port)
                try:
                    return await asyncio.gather(
                        *(client.solve(hg, method="EVG") for _ in range(n))
                    )
                finally:
                    await client.close()

            pending = asyncio.run_coroutine_threadsafe(burst(), loop)
            # every request but the leader's has joined its flight
            deadline = time.monotonic() + 60
            while server.flight.followers < n - 1 and not pending.done():
                assert time.monotonic() < deadline, "followers never came"
                time.sleep(0.005)
            arrived.set()
            results = pending.result(60)
            followers = server.flight.followers
        # exactly ONE engine solve happened for the n requests: every
        # request either shared the flight (a follower) or, if it
        # arrived after the flight landed, hit the cache it filled
        assert cache.stats()["misses"] == 1
        assert cache.stats()["entries"] == 1
        deduped = sum(r.deduped for r in results)
        cache_hits = sum(r.cache_hit for r in results)
        assert deduped == followers >= 1
        assert deduped + cache_hits == n - 1
        local = api_solve(hg, method="EVG")
        for remote in results:
            assert np.array_equal(remote.assignment, local.hedge_of_task)

    def test_different_seeds_do_not_dedup_for_randomized_methods(self):
        (hg,) = small_instances(1)
        with running_server(max_delay_s=0.05) as (server, loop):

            async def burst():
                client = await AsyncServiceClient.connect(port=server.port)
                try:
                    return await asyncio.gather(
                        *(
                            client.solve(hg, method="grasp", seed=seed)
                            for seed in (1, 2)
                        )
                    )
                finally:
                    await client.close()

            on_loop(loop, burst())
            assert server.flight.leaders == 2
            assert server.flight.followers == 0

    def test_cancelled_leader_counts_followers_once(self):
        """A follower that outlives a cancelled leader retries the key,
        possibly following again — but ``followers`` must count logical
        deduped *requests*, so one call contributes at most one,
        however many retry turns the cancellations force it through.
        (Regression: the counter used to live inside the retry loop and
        overstated the dedup benefit.)"""
        from repro.service.dedup import SingleFlight

        async def scenario():
            sf = SingleFlight()
            loop = asyncio.get_running_loop()

            async def thunk():
                return 42

            # a fake in-flight leader the follower latches onto
            f1 = loop.create_future()
            sf._inflight["k"] = f1
            follower = asyncio.create_task(sf.run("k", thunk))
            await asyncio.sleep(0)  # follower is awaiting f1
            assert sf.followers == 1
            # leader 1 is cancelled, but a new leader wins the race
            # before the follower resumes: it must follow again without
            # counting itself twice
            f1.cancel()
            f2 = loop.create_future()
            sf._inflight["k"] = f2
            await asyncio.sleep(0)  # follower retried onto f2
            # leader 2 dies too and nobody replaces it: the follower's
            # next retry finds clear air and leads its own flight
            f2.cancel()
            del sf._inflight["k"]
            result = await follower
            return sf, result

        sf, result = asyncio.run(scenario())
        assert result == (42, False)  # led its own flight in the end
        assert sf.followers == 1  # one logical call, one follower tick
        assert sf.leaders == 1
        assert len(sf) == 0


# ---------------------------------------------------------------------------
# sessions
# ---------------------------------------------------------------------------
#: the payload fields each op reads
_OP_FIELDS = {
    "add_task": ("task", "configs"),
    "remove_task": ("task",),
    "add_processor": ("proc",),
    "remove_processor": ("proc",),
    "update_weight": ("task", "config", "weight"),
}
#: what a fuzzed field may hold besides a plausible value
_JUNK = st.one_of(
    st.none(),
    st.booleans(),
    st.text(max_size=3),
    st.floats(allow_nan=False, allow_infinity=False, width=32),
    st.integers(-(10**20), 10**20),
    st.lists(st.integers(-2, 3), max_size=2),
    st.dictionaries(st.text(max_size=1), st.integers(), max_size=1),
)

def _or_junk(plausible):
    """``plausible`` three times in four, junk otherwise."""
    return st.one_of(plausible, plausible, plausible, _JUNK)


_HANDLE = _or_junk(st.integers(-1, 60))
_FIELD_VALUES = {
    "task": _HANDLE,
    "proc": _HANDLE,
    "config": _or_junk(st.integers(-1, 3)),
    "weight": _or_junk(st.floats(-1.0, 9.0)),
    "configs": st.one_of(
        st.lists(
            st.tuples(
                st.lists(_HANDLE, max_size=3),
                _or_junk(st.floats(0.5, 9.0)),
            ).map(list),
            max_size=2,
        ),
        _JUNK,
    ),
}


@st.composite
def _fuzz_record(draw):
    """One wire record: an op (or an unknown one) with each of its
    fields usually present, each holding a plausible value or junk."""
    op = draw(st.sampled_from(MUTATION_OPS + ("explode",)))
    record = {"op": op}
    for name in _OP_FIELDS.get(op, ("task",)):
        if draw(st.integers(0, 9)):
            record[name] = draw(_FIELD_VALUES[name])
    return record


#: a batch item, drawn with these relative odds: the next ``n`` records
#: of a valid churn trace (3), one fuzzed record (2), a non-object
#: record (1), or a task pinned to one processor followed by that
#: processor's infeasible removal (1)
_TRACE_ITEM = st.integers(1, 4).map(lambda n: ("trace", n))
_FUZZ_ITEM = _fuzz_record().map(lambda r: ("record", r))
_BATCH_ITEM = st.one_of(
    _TRACE_ITEM,
    _TRACE_ITEM,
    _TRACE_ITEM,
    _FUZZ_ITEM,
    _FUZZ_ITEM,
    st.sampled_from([7, "add_task", None]).map(lambda r: ("record", r)),
    st.just(("infeasible",)),
)


@pytest.fixture(scope="module")
def fuzz_server():
    """One live server for the session fuzzing examples, a baseline and
    a valid churn trace of it."""
    hg = generate_multiproc(
        48, 12, family="fewgmanyg", g=4, weights="related", seed=11
    )
    with running_server() as (server, _loop):
        with ServiceClient(port=server.port) as client:
            yield server, client, hg, churn_trace(hg, 96, seed=12)


class TestSessions:
    def test_mutation_stream_replays_bit_equal_to_local_solver(self):
        hg = generate_multiproc(
            96, 24, family="fewgmanyg", g=4, dv=3, dh=5,
            weights="related", seed=5,
        )
        mutations = churn_trace(hg, 25, seed=6)

        # local reference: the exact same pipeline, in process
        local_inst = DynamicInstance.from_hypergraph(hg)
        local_solver = IncrementalSolver(local_inst, method="auto")
        local_bottlenecks = []
        for m in mutations:
            local_inst.apply(m)
            local_bottlenecks.append(local_solver.bottleneck())

        with running_server() as (server, _loop):
            with ServiceClient(port=server.port) as client:
                session = client.open_session(hg, method="auto")
                assert session.info["bottleneck"] == (
                    IncrementalSolver(
                        DynamicInstance.from_hypergraph(hg), method="auto"
                    ).bottleneck()
                )
                remote_bottlenecks = [
                    float(session.apply(m)["bottleneck"]) for m in mutations
                ]
                final = session.mutate([], include_assignment=True)
                closed = session.close()
        assert remote_bottlenecks == local_bottlenecks
        assert final["assignment"] == {
            str(t): c for t, c in local_solver.assignment().items()
        }
        assert final["loads"] == {
            str(p): load for p, load in local_solver.loads().items()
        }
        assert closed["mutations"] == len(mutations)

    @pytest.mark.parametrize("knob,value", [
        ("ls_moves", 2.9),
        ("ls_moves", True),
        ("min_fallback_region", True),
        ("min_fallback_region", 2.5),
        ("fallback_ratio", True),
        ("fallback_ratio", "x"),
    ])
    def test_bad_session_knobs_answer_bad_request(self, knob, value):
        inst = DynamicInstance()
        p = inst.add_processor()
        inst.add_task([((p,), 2.0)])
        with running_server() as (server, _loop):
            with ServiceClient(port=server.port) as client:
                with pytest.raises(RemoteError) as exc:
                    client.call(
                        "session.open",
                        baseline=instance_to_wire(inst),
                        **{knob: value},
                    )
                assert exc.value.code == "bad-request"
                assert knob in str(exc.value)
                assert len(server.sessions) == 0

    def test_session_knobs_default_in_the_solver(self):
        """Unset knobs are not sent, and the server forwards only the
        keys present: the session runs IncrementalSolver's defaults."""
        import inspect

        defaults = inspect.signature(IncrementalSolver).parameters
        inst = DynamicInstance()
        p = inst.add_processor()
        inst.add_task([((p,), 2.0)])
        with running_server() as (server, _loop):
            with ServiceClient(port=server.port) as client:
                client.open_session(inst, ls_moves=3)
                (session,) = server.sessions._sessions.values()
        solver = session.solver
        assert solver.ls_budget == 3
        assert solver.method == defaults["method"].default
        assert solver.fallback_ratio == defaults["fallback_ratio"].default
        assert (
            solver.min_fallback_region
            == defaults["min_fallback_region"].default
        )

    def test_mutation_batches_are_transactional(self):
        """A failing batch rolls back: the session never holds half a
        request."""
        with running_server() as (server, _loop):
            with ServiceClient(port=server.port) as client:
                inst = DynamicInstance()
                p = inst.add_processor()
                inst.add_task([((p,), 2.0)])
                session = client.open_session(inst)
                before = session.mutate([])
                with pytest.raises(RemoteError) as exc:
                    session.mutate(
                        [
                            {"op": "add_processor", "proc": 1},
                            # removing the only processor hosting task 0
                            # is infeasible -> whole batch must undo
                            {"op": "remove_processor", "proc": 0},
                        ]
                    )
                assert exc.value.code == "infeasible"
                after = session.mutate([])
                assert after["n_procs"] == before["n_procs"] == 1
                assert after["bottleneck"] == before["bottleneck"]

    def test_failed_batch_leaves_the_repair_counters(self):
        """A failing batch is rolled back with its repairs: the
        session's ``repair`` block reads as before the batch, so its
        ``mutations`` stays the committed count."""
        from repro.service.sessions import SessionManager

        hg = generate_multiproc(
            256, 64, family="fewgmanyg", g=8, weights="related", seed=0
        )
        trace = [m.to_dict() for m in churn_trace(hg, 73, seed=1)]
        manager = SessionManager()
        sid = manager.open(
            {"baseline": instance_to_wire(hg), "method": "EVG"}, owner=1
        )["session"]
        for k in range(4):
            info = manager.mutate(sid, trace[16 * k : 16 * k + 16], owner=1)
        assert info["repair"]["mutations"] == info["mutations"] == 64
        with pytest.raises(ProtocolError):
            manager.mutate(sid, trace[64:] + ["not a record"], owner=1)
        after = manager.mutate(sid, [], owner=1)
        assert after["repair"] == info["repair"]
        assert after["bottleneck"] == info["bottleneck"]
        manager.close(sid, owner=1)

    @settings(
        max_examples=25, deadline=None,
        suppress_health_check=[HealthCheck.function_scoped_fixture],
    )
    @given(batches=st.lists(
        st.lists(_BATCH_ITEM, min_size=1, max_size=4), min_size=1, max_size=4,
    ))
    def test_fuzzed_batches_fail_typed_and_change_nothing(
        self, batches, fuzz_server
    ):
        """Batches mixing valid churn with malformed records, after
        three committed batches: a failing batch answers a typed code
        and leaves bottleneck, counts, assignment and loads exactly as
        they were; a committing one matches a local solver fed the same
        records; the session retains no journal between batches."""
        server, client, hg, trace = fuzz_server
        twin_inst = DynamicInstance.from_hypergraph(hg)
        twin = IncrementalSolver(twin_inst, method="EVG")

        def state(info):
            return {
                k: info[k]
                for k in (
                    "bottleneck", "n_tasks", "n_procs", "mutations",
                    "assignment", "loads",
                )
            }

        def twin_state(mutations):
            return {
                "bottleneck": twin.bottleneck(),
                "n_tasks": twin_inst.n_tasks,
                "n_procs": twin_inst.n_procs,
                "mutations": mutations,
                "assignment": {
                    str(t): c for t, c in twin.assignment().items()
                },
                "loads": {str(u): w for u, w in twin.loads().items()},
            }

        session = client.open_session(hg, method="EVG")
        try:
            hosted = server.sessions._sessions[session.id]
            cursor = 0
            for _ in range(3):
                records = [m.to_dict() for m in trace[cursor : cursor + 4]]
                session.mutate(records)
                twin_inst.replay(trace[cursor : cursor + 4])
                cursor += 4
            for items in batches:
                before = session.mutate([], include_assignment=True)
                records, used = [], 0
                for item in items:
                    if item[0] == "trace":
                        chunk = trace[cursor + used : cursor + used + item[1]]
                        records += [m.to_dict() for m in chunk]
                        used += len(chunk)
                    elif item[0] == "record":
                        records.append(item[1])
                    else:
                        # the handle the task gets if every record
                        # before it applies (else the batch fails anyway)
                        task = twin_inst._next_task + sum(
                            isinstance(r, dict) and r.get("op") == "add_task"
                            for r in records
                        )
                        proc = twin_inst.procs()[0]
                        records += [
                            {"op": "add_task", "task": task,
                             "configs": [[[proc], 1.0]]},
                            {"op": "remove_processor", "proc": proc},
                        ]
                try:
                    after = session.mutate(records, include_assignment=True)
                except RemoteError as exc:
                    assert exc.code in ERROR_CODES, exc.code
                    assert exc.code != ErrorCode.INTERNAL, exc
                    after = session.mutate([], include_assignment=True)
                    assert state(after) == state(before)
                else:
                    twin_inst.replay(Mutation.from_dict(r) for r in records)
                    cursor += used
                    assert state(after) == twin_state(before["mutations"]
                                                      + len(records))
                journal = hosted.instance.journal
                assert list(journal) == []
                assert len(journal) == journal.floor == after["mutations"]
        finally:
            session.close()

    def test_session_errors_and_limits(self):
        (hg,) = small_instances(1)
        with running_server(max_sessions=1) as (server, _loop):
            with ServiceClient(port=server.port) as client:
                with pytest.raises(RemoteError) as exc:
                    client.call("session.mutate", session="s99", mutations=[])
                assert exc.value.code == "session-not-found"
                session = client.open_session(hg)
                with pytest.raises(RemoteError) as exc:
                    client.open_session(hg)
                assert exc.value.code == "session-limit"
                session.close()
                client.open_session(hg)  # slot freed

    def test_session_streams_never_recompile(self):
        """A session compiles a snapshot only when a version is read.
        ``describe()`` exposes the counters on the wire, where a mutate
        stream compiles nothing after the open's single compile; an
        in-process manager then reads every version twice to show one
        compile per version read and none for a repeat read."""
        hg = generate_multiproc(
            48, 12, g=4, dv=3, dh=4, weights="related", seed=9
        )
        inst = DynamicInstance.from_hypergraph(hg)
        task = inst.tasks()[0]
        idx, _pins, w = inst.task_configs(task)[0]
        records = [
            {
                "op": "update_weight",
                "task": task,
                "config": idx,
                "weight": w + 1.0 + k,
            }
            for k in range(8)
        ]
        with running_server() as (server, _loop):
            with ServiceClient(port=server.port) as client:
                session = client.open_session(hg, method="auto")
                out = None
                for record in records:
                    out = session.apply(record)
                assert out["compile"]["full_builds"] == 1
                assert out["compile"]["emits_full"] == 1
                session.close()

        from repro.service import instance_to_wire
        from repro.service.sessions import SessionManager

        manager = SessionManager()
        info = manager.open({"baseline": instance_to_wire(hg)}, owner=1)
        session = manager._get(info["session"], 1)
        opened = session.describe()["compile"]["full_builds"]
        for k, record in enumerate(records, 1):
            manager.mutate(info["session"], [record], owner=1)
            first = session.solver.matching()
            again = session.solver.matching()
            assert again.hypergraph is first.hypergraph
            stats = session.describe()["compile"]
            assert stats["full_builds"] == stats["emits_full"] == opened + k
        assert stats["emits_weight"] == stats["emits_delta"] == 0
        manager.close(info["session"], owner=1)

    def test_sessions_are_connection_scoped_and_reclaimed(self):
        (hg,) = small_instances(1)
        with running_server() as (server, _loop):
            with ServiceClient(port=server.port) as first:
                session = first.open_session(hg)
                with ServiceClient(port=server.port) as second:
                    with pytest.raises(RemoteError) as exc:
                        second.call(
                            "session.mutate",
                            session=session.id,
                            mutations=[],
                        )
                    assert exc.value.code == "session-not-found"
            # first connection dropped -> its session is reclaimed
            deadline = 50
            while len(server.sessions) and deadline:
                deadline -= 1
                threading.Event().wait(0.02)
            assert len(server.sessions) == 0

    def test_conn_drop_mid_mutate_reclaims_exactly_once(self):
        """A connection dropped while its ``session.mutate`` batch is
        still applying: reclamation must wait for the batch (it holds
        the session lock), then detach — session gone, and
        ``sessions_reclaimed`` counts it exactly once, through exactly
        one of the two close paths."""
        (hg,) = small_instances(1)
        with running_server() as (server, _loop):
            entered = threading.Event()
            release = threading.Event()
            real_mutate = server.sessions.mutate

            def slow_mutate(*args, **kwargs):
                entered.set()
                assert release.wait(30), "test never released the batch"
                return real_mutate(*args, **kwargs)

            server.sessions.mutate = slow_mutate
            sock = socket.create_connection(
                ("127.0.0.1", server.port), timeout=30
            )
            rfile = sock.makefile("rb")
            try:
                from repro.service import instance_to_wire

                sock.sendall(
                    encode_frame(
                        request(
                            "session.open", 1, baseline=instance_to_wire(hg)
                        )
                    )
                )
                opened = decode_frame(rfile.readline())
                assert opened["ok"], opened
                assert len(server.sessions) == 1
                # fire the mutate, then vanish without reading the
                # answer — the batch is parked inside slow_mutate
                sock.sendall(
                    encode_frame(
                        request(
                            "session.mutate",
                            2,
                            session=opened["result"]["session"],
                            mutations=[],
                        )
                    )
                )
                assert entered.wait(10), "mutate never reached the manager"
                rfile.close()
                sock.close()
                threading.Event().wait(0.1)  # let the drop be noticed
                # reclamation may already have unregistered the session,
                # but the detach serialises on the session lock — the
                # parked batch still owns a live solver and must finish
                # (or roll back) before the reclaim can touch it
                release.set()
                deadline = time.monotonic() + 10
                while len(server.sessions) and time.monotonic() < deadline:
                    threading.Event().wait(0.02)
                assert len(server.sessions) == 0
                deadline = time.monotonic() + 10
                reclaimed = "service.sessions_reclaimed"
                while (
                    server.metrics.counter_value(reclaimed) == 0
                    and time.monotonic() < deadline
                ):
                    threading.Event().wait(0.02)
                assert server.metrics.counter_value(reclaimed) == 1
            finally:
                release.set()
                rfile.close()
                sock.close()
                server.sessions.mutate = real_mutate


# ---------------------------------------------------------------------------
# shutdown drain
# ---------------------------------------------------------------------------
class TestShutdownDrain:
    def test_stop_releases_the_solver_thread(self):
        """Five start/solve/stop cycles of a server on an inline engine
        leave no ``repro-solve`` thread behind: ``stop()`` shuts the
        micro-batcher's solver thread down after its final flush."""
        (hg,) = small_instances(1)
        before = set(threading.enumerate())
        for _ in range(5):
            with running_server() as (server, _loop):
                with ServiceClient(port=server.port) as client:
                    client.solve(hg)
        left = [
            t.name for t in set(threading.enumerate()) - before
            if t.name.startswith("repro-solve")
        ]
        assert left == []

    def test_stop_leaves_no_connection_task_pending(self):
        """A connection the client just closed is still finishing its
        ``_serve_connection`` (reclaiming, closing the writer) after it
        leaves the connection table: ``stop()`` awaits it all the same,
        so no such task is left pending on the loop."""
        (hg,) = small_instances(1)
        with running_server() as (server, loop):
            with ServiceClient(port=server.port) as client:
                client.solve(hg)

            async def stop_then_list_serving() -> list:
                await server.stop()
                return [
                    task for task in asyncio.all_tasks()
                    if task.get_coro().__name__ == "_serve_connection"
                ]

            assert on_loop(loop, stop_then_list_serving()) == []

    def test_reclaim_after_executor_shutdown_stays_quiet(self):
        """A connection that drops after its loop's default executor
        shut down (loop or interpreter teardown) still reclaims its
        sessions, and the loop reports no unhandled exception."""
        (hg,) = small_instances(1)
        with running_server() as (server, loop):
            errors: list = []
            loop.call_soon_threadsafe(
                loop.set_exception_handler,
                lambda _loop, context: errors.append(context),
            )
            client = ServiceClient(port=server.port)
            client.open_session(hg)
            on_loop(loop, loop.shutdown_default_executor())
            client.close()
            deadline = 50
            while len(server.sessions) and deadline:
                deadline -= 1
                threading.Event().wait(0.02)
            assert len(server.sessions) == 0
            assert errors == []

    def test_stop_drains_inflight_and_delivers_response(self):
        """``stop()`` lets a briefly-busy handler finish inside the
        drain window and its response still reaches the client."""
        (hg,) = small_instances(1)
        with running_server() as (server, loop):
            real_open = server.sessions.open

            def slow_open(*args, **kwargs):
                threading.Event().wait(0.3)
                return real_open(*args, **kwargs)

            server.sessions.open = slow_open
            sock = socket.create_connection(
                ("127.0.0.1", server.port), timeout=30
            )
            rfile = sock.makefile("rb")
            try:
                from repro.service import instance_to_wire

                sock.sendall(
                    encode_frame(
                        request(
                            "session.open", 1, baseline=instance_to_wire(hg)
                        )
                    )
                )
                threading.Event().wait(0.05)  # request is in flight
                inflight = {
                    t for c in list(server._conns) for t in c.tasks
                }
                assert inflight, "handler never started"
                t0 = time.monotonic()
                on_loop(loop, server.stop(drain_s=5.0), timeout=30)
                assert time.monotonic() - t0 < 5.0
                # the drain contract: no handler task survives stop()
                assert all(t.done() for t in inflight)
                envelope = decode_frame(rfile.readline())
                assert envelope["ok"] and envelope["id"] == 1
            finally:
                rfile.close()
                sock.close()
                server.sessions.open = real_open

    def test_stop_is_bounded_when_a_handler_hangs(self):
        """A handler that never finishes cannot hold ``stop()``
        hostage: after ``drain_s`` it is cancelled and awaited, and
        ``stop()`` returns."""
        (hg,) = small_instances(1)
        with running_server() as (server, loop):
            release = threading.Event()
            real_open = server.sessions.open

            def hung_open(*args, **kwargs):
                release.wait(60)
                return real_open(*args, **kwargs)

            server.sessions.open = hung_open
            sock = socket.create_connection(
                ("127.0.0.1", server.port), timeout=30
            )
            try:
                from repro.service import instance_to_wire

                sock.sendall(
                    encode_frame(
                        request(
                            "session.open", 1, baseline=instance_to_wire(hg)
                        )
                    )
                )
                threading.Event().wait(0.1)  # handler is parked
                inflight = {
                    t for c in list(server._conns) for t in c.tasks
                }
                assert inflight, "handler never started"
                t0 = time.monotonic()
                on_loop(loop, server.stop(drain_s=0.3), timeout=30)
                # bounded: the 0.3s drain plus scheduling slack, not
                # the 60s the handler would love to take
                assert time.monotonic() - t0 < 10.0
                # cancelled, awaited, gone — not still mutating state
                assert all(t.done() for t in inflight)
            finally:
                release.set()
                sock.close()
                server.sessions.open = real_open


# ---------------------------------------------------------------------------
# admission control / load shedding
# ---------------------------------------------------------------------------
class TestLoadShedding:
    def test_per_connection_inflight_cap_sheds_with_typed_error(self):
        instances = small_instances(8, n_tasks=64)
        with running_server(
            per_conn_inflight=2, max_delay_s=0.5
        ) as (server, _loop):
            # hand-pipeline over a raw socket: one write delivers the
            # whole burst, so admission sees all 8 before any solve can
            # finish — the cap of 2 must shed the overrun
            sock = socket.create_connection(
                ("127.0.0.1", server.port), timeout=30
            )
            rfile = sock.makefile("rb")
            try:
                from repro.service import instance_to_wire

                frames = [
                    encode_frame(
                        request(
                            "solve",
                            k,
                            instance=instance_to_wire(hg),
                            options={"method": "SGH"},
                        )
                    )
                    for k, hg in enumerate(instances)
                ]
                sock.sendall(b"".join(frames))
                replies = [read_frame(rfile) for _ in instances]
            finally:
                rfile.close()
                sock.close()
            counters = server._op_metrics()["counters"]
            shed = [r for r in replies if not r["ok"]]
            served = [r for r in replies if r["ok"]]
            assert shed and served
            assert all(
                e["error"]["code"] == "overloaded" for e in shed
            )
            assert counters["load_shed"] == len(shed)
            # the server stays usable after shedding
            with ServiceClient(port=server.port) as client:
                assert client.ping()["pong"] is True

    def test_ping_and_metrics_bypass_admission(self):
        with running_server(per_conn_inflight=1, max_pending=1) as (
            server,
            _loop,
        ):
            with ServiceClient(port=server.port) as client:
                assert client.ping()["pong"] is True
                snap = client.metrics()
                assert snap["pending"] == 0
                assert "request_latency_s" in snap


# ---------------------------------------------------------------------------
# malformed input over the wire
# ---------------------------------------------------------------------------
class TestRequestLatency:
    def test_a_solve_sample_covers_parse_and_response_write(self):
        """``health`` reads its p99 off ``request_latency_s``.  A solve's
        sample runs from the frame's receipt to the end of its response
        write, so a slow parse and a slow write both show in it, not
        only the solve."""
        (hg,) = small_instances(1)
        with running_server() as (server, _loop):
            assert_latency_covers_parse_and_write(server, hg)


def assert_latency_covers_parse_and_write(server, hg, delay=0.1):
    """Slow ``server``'s parse and its answer write by ``delay`` each;
    one solve's latency sample must hold both."""
    real_parse, real_send = server._parse_instance, server._send

    def slow_parse(data):
        time.sleep(delay)
        return real_parse(data)

    async def slow_send(conn, envelope):
        if "assignment" in (envelope.get("result") or {}):
            await asyncio.sleep(delay)
        await real_send(conn, envelope)

    server._parse_instance, server._send = slow_parse, slow_send
    try:
        with ServiceClient(port=server.port) as client:
            before = client.metrics()["request_latency_s"]
            client.solve(hg, method="SGH")
            after = client.metrics()["request_latency_s"]
    finally:
        del server._parse_instance, server._send
    assert after["count"] == before["count"] + 1
    assert after["sum"] - before["sum"] >= 2 * delay


class TestMalformedFrames:
    def _raw(self, port: int) -> socket.socket:
        sock = socket.create_connection(("127.0.0.1", port), timeout=10)
        return sock

    def test_garbage_line_answers_bad_frame_and_survives(self):
        with running_server() as (server, _loop):
            sock = self._raw(server.port)
            rfile = sock.makefile("rb")
            try:
                sock.sendall(b"this is not json\n")
                reply = json.loads(rfile.readline())
                assert reply["ok"] is False
                assert reply["error"]["code"] == "bad-frame"
                assert reply["id"] is None
                # stream stays usable: a valid ping still answers
                sock.sendall(encode_frame(request("ping", 1)))
                reply = json.loads(rfile.readline())
                assert reply["ok"] is True and reply["id"] == 1
            finally:
                rfile.close()
                sock.close()

    def test_version_and_op_errors_over_the_wire(self):
        with running_server() as (server, _loop):
            sock = self._raw(server.port)
            rfile = sock.makefile("rb")
            try:
                sock.sendall(
                    json.dumps({"v": 99, "id": 1, "op": "ping"}).encode()
                    + b"\n"
                )
                assert (
                    json.loads(rfile.readline())["error"]["code"]
                    == "unsupported-version"
                )
                sock.sendall(
                    json.dumps({"v": 1, "id": 2, "op": "levitate"}).encode()
                    + b"\n"
                )
                assert (
                    json.loads(rfile.readline())["error"]["code"]
                    == "unknown-op"
                )
                sock.sendall(
                    json.dumps({"v": 1, "op": "ping"}).encode() + b"\n"
                )
                assert (
                    json.loads(rfile.readline())["error"]["code"]
                    == "bad-request"
                )
            finally:
                rfile.close()
                sock.close()

    def test_malformed_wire_instances_answer_typed_codes(self):
        from strategies import malformed_wire_dicts

        with running_server() as (server, _loop):
            with ServiceClient(port=server.port) as client:
                for case, data in malformed_wire_dicts():
                    with pytest.raises(RemoteError) as exc:
                        client.call("solve", instance=data)
                    assert exc.value.code in (
                        "graph-structure", "bad-request"
                    ), (case, exc.value.code, str(exc.value))
                # the connection survives every rejection
                assert client.ping()["pong"] is True
            counters = server._op_metrics()["counters"]
        assert counters.get("errors.internal", 0) == 0

    def test_absurd_vertex_counts_answer_graph_structure(self):
        """A few-hundred-byte request naming 2**40 vertices is refused
        at parse, typed, before any array over the vertices exists.  A
        dynamic state's handle counters bound its handle-indexed arrays
        the same way."""
        hg = TaskHypergraph.from_configurations([[[0, 1]], [[1]]])
        state = DynamicInstance.from_hypergraph(hg).to_state()
        cases = [
            (key, instance_to_wire(hg) | {key: 2**40})
            for key in ("n_procs", "n_tasks")
        ] + [
            ("next_task", state | {
                "next_task": 2**40,
                "tasks": {str(2**40 - 1): [[[0], 1.0, True]]},
            }),
            ("next_proc", state | {
                "next_proc": 2**40, "procs": [0, 1, 2**40 - 1],
            }),
        ]
        with running_server() as (server, _loop):
            with ServiceClient(port=server.port) as client:
                for key, data in cases:
                    assert len(encode_frame(request(
                        "solve", 1, instance=data
                    ))) < 400
                    with pytest.raises(RemoteError) as exc:
                        client.call("solve", instance=data)
                    assert exc.value.code == "graph-structure", key
                    assert key in str(exc.value)
            counters = server._op_metrics()["counters"]
        assert counters.get("errors.internal", 0) == 0

    def test_large_frames_decode_off_loop_in_order(self):
        """A frame over the executor-decode floor is answered before
        the frame that followed it on the same connection."""
        from repro.service.server import _EXECUTOR_DECODE_BYTES

        big = b'{"v": 1,' + b" " * _EXECUTOR_DECODE_BYTES + b"\n"
        with running_server() as (server, _loop):
            sock = self._raw(server.port)
            rfile = sock.makefile("rb")
            try:
                sock.sendall(big + encode_frame(request("ping", 1)))
                first = json.loads(rfile.readline())
                assert first["error"]["code"] == "bad-frame"
                second = json.loads(rfile.readline())
                assert second["ok"] is True and second["id"] == 1
            finally:
                rfile.close()
                sock.close()

    def test_shutdown_disabled_by_default(self):
        with running_server(allow_shutdown=False) as (server, _loop):
            with ServiceClient(port=server.port) as client:
                with pytest.raises(RemoteError) as exc:
                    client.shutdown()
                assert exc.value.code == "bad-request"
                assert client.ping()["pong"] is True


# ---------------------------------------------------------------------------
# client connection teardown
# ---------------------------------------------------------------------------
async def _mute(reader, writer):
    """A server connection that accepts and never answers."""
    try:
        await reader.read()
    finally:
        writer.close()


class TestAsyncClientClose:
    def test_close_fails_inflight_waiters(self):
        """close() must fail parked call() waiters with ConnectionError
        rather than strand them.  The read-loop's cleanup used to be
        ``except Exception``, which CancelledError (a BaseException)
        sails past — so cancelling the pump from close() orphaned every
        in-flight waiter and its caller hung forever.  The sharded
        front-end hits exactly this when recovery closes a dead
        worker's client while a forwarded request is still awaiting the
        reply."""

        async def scenario():
            srv = await asyncio.start_server(_mute, "127.0.0.1", 0)
            port = srv.sockets[0].getsockname()[1]
            client = await AsyncServiceClient.connect(port=port)
            pending = asyncio.create_task(client.call("ping"))
            await asyncio.sleep(0.05)  # request written, waiter parked
            await client.close()
            with pytest.raises(ConnectionError):
                await asyncio.wait_for(pending, timeout=5.0)
            # and post-close calls fail fast instead of registering a
            # waiter no reader will ever resolve
            with pytest.raises(ConnectionError):
                await client.call("ping")
            srv.close()
            await srv.wait_closed()

        asyncio.run(scenario())

    def test_blocking_timeout_raises_builtin_and_close_frees_the_loop(self):
        """The blocking client's ``timeout`` bounds each call and raises
        the builtin ``TimeoutError`` (before Python 3.11 asyncio's own
        ``TimeoutError`` is a different class), and ``close()`` afterwards
        still tears the client and its private loop down."""

        async def scenario():
            srv = await asyncio.start_server(_mute, "127.0.0.1", 0)
            port = srv.sockets[0].getsockname()[1]
            # the blocking client runs its own loop: drive it from a
            # thread, off this one
            client = await asyncio.to_thread(
                ServiceClient, port=port, timeout=0.2
            )
            with pytest.raises(TimeoutError):
                await asyncio.to_thread(client.ping)
            await asyncio.to_thread(client.close)
            assert client._loop.is_closed()
            srv.close()
            await srv.wait_closed()

        asyncio.run(scenario())


# ---------------------------------------------------------------------------
# pipelined sync client
# ---------------------------------------------------------------------------
class TestPipelinedClient:
    def test_solve_pipelined_preserves_input_order(self):
        instances = small_instances(10)
        with running_server(max_delay_s=0.05) as (server, _loop):
            with ServiceClient(port=server.port) as client:
                results = client.solve_pipelined(instances, method="EVG")
        for hg, remote in zip(instances, results):
            local = api_solve(hg, method="EVG")
            assert np.array_equal(remote.assignment, local.hedge_of_task)


# ---------------------------------------------------------------------------
# the CLI front-end (`semimatch serve` / `semimatch submit`)
# ---------------------------------------------------------------------------
class TestCli:
    def test_serve_and_submit_round_trip(self, tmp_path, capfd):
        import time

        from repro.experiments.cli import main as cli_main
        from repro.io import save_instance

        (hg,) = small_instances(1)
        path = tmp_path / "inst.json"
        save_instance(hg, path)

        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        server_thread = threading.Thread(
            target=cli_main,
            args=(["serve", "--port", str(port), "--allow-shutdown"],),
            daemon=True,
        )
        server_thread.start()
        client = None
        for _ in range(100):
            try:
                client = ServiceClient(port=port)
                break
            except OSError:
                time.sleep(0.05)
        assert client is not None, "semimatch serve never came up"
        try:
            rc = cli_main(
                [
                    "submit", str(path),
                    "--method", "EVG", "--port", str(port),
                    "--repeat", "2",
                ]
            )
            assert rc == 0
        finally:
            client.shutdown()
            client.close()
        server_thread.join(10)
        assert not server_thread.is_alive()
        out = capfd.readouterr().out
        assert "listening" in out
        assert "EVG: makespan" in out
        assert "[cache hit]" in out  # the --repeat 2 resubmission

    def test_submit_reports_unreachable_server(self, tmp_path, capfd):
        from repro.experiments.cli import main as cli_main
        from repro.io import save_instance

        (hg,) = small_instances(1)
        path = tmp_path / "inst.json"
        save_instance(hg, path)
        with socket.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]
        with pytest.raises(SystemExit):
            cli_main(["submit", str(path), "--port", str(port)])
        assert "cannot reach" in capfd.readouterr().err
