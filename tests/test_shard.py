"""The sharded solve service: ring, pool, pinning, chaos.

Everything here runs against a real 2-worker pool (spawned processes,
loopback TCP), so these tests are the repo's proof that the sharding
layer keeps the protocol's contracts under crash and drain:

* remote solves stay **bit-identical** to local ``api.solve``;
* routing is **deterministic** (same instance, same worker) so the
  per-worker caches actually get to be warm;
* sessions are **pinned** and their incremental answers stay bit-equal
  to an in-process :class:`IncrementalSolver`;
* a SIGKILLed worker yields only the typed ``worker-lost`` error —
  never a hang — and the pool **converges** (supervisor restarts the
  slot, the ring heals, retried solves come back right);
* a drained worker's sessions answer the typed ``session-relocated``.
"""

from __future__ import annotations

import asyncio
import glob
import json
import os
import socket
import threading
import time
from contextlib import contextmanager

import numpy as np
import pytest

from repro.api import solve as api_solve
from repro.obs import trace as trace_mod
from repro.obs.trace import TraceRecorder, span
from repro.dynamic import DynamicInstance, IncrementalSolver
from repro.engine.transport import instance_nbytes
from repro.generators import churn_trace, generate_multiproc
from repro.service import (
    AsyncServiceClient,
    HashRing,
    RemoteError,
    ServiceClient,
    ShardedSolveServer,
)
from repro.service.protocol import (
    ErrorCode,
    encode_frame,
    error_response,
    ok_response,
)
from repro.service.supervisor import WorkerSpec


def on_loop(loop, coro, timeout=60):
    return asyncio.run_coroutine_threadsafe(coro, loop).result(timeout)


def small_instances(n, *, n_tasks=32, seed0=0):
    n_procs = max(n_tasks // 4 // 4 * 4, 4)  # FewgManyg needs g | p
    return [
        generate_multiproc(
            n_tasks, n_procs, family="fewgmanyg",
            g=4, dv=3, dh=5, weights="related", seed=seed0 + k,
        )
        for k in range(n)
    ]


@contextmanager
def running_pool(n_workers=2, **config):
    """A live sharded server (real worker processes) on an ephemeral
    port, torn down afterwards."""
    config.setdefault("allow_shutdown", True)
    server = ShardedSolveServer(n_workers=n_workers, port=0, **config)
    loop = asyncio.new_event_loop()
    started = threading.Event()
    boot_error = []

    def run() -> None:
        asyncio.set_event_loop(loop)
        try:
            loop.run_until_complete(server.start())
        except Exception as exc:  # pragma: no cover - boot diagnostics
            boot_error.append(exc)
            started.set()
            return
        started.set()
        loop.run_forever()

    thread = threading.Thread(target=run, daemon=True)
    thread.start()
    assert started.wait(120), "sharded server failed to start"
    if boot_error:  # pragma: no cover - boot diagnostics
        raise boot_error[0]
    try:
        yield server, loop
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(60)
        loop.call_soon_threadsafe(loop.stop)
        thread.join(30)
        loop.close()


@pytest.fixture(scope="module")
def pool():
    with running_pool(n_workers=2) as (server, loop):
        yield server, loop


def wait_all_up(server, timeout=60.0):
    deadline = time.monotonic() + timeout
    while time.monotonic() < deadline:
        if all(s.state == "up" for s in server._shards.values()):
            return
        time.sleep(0.02)
    states = {s.name: s.state for s in server._shards.values()}
    raise AssertionError(f"pool never converged to all-up: {states}")


# ---------------------------------------------------------------------------
# consistent hashing (no processes)
# ---------------------------------------------------------------------------
class TestHashRing:
    def test_deterministic_and_in_range(self):
        ring = HashRing(4)
        keys = [("digest%d" % k, "m", 0) for k in range(200)]
        first = [ring.route(key) for key in keys]
        assert all(idx in range(4) for idx in first)
        assert first == [ring.route(key) for key in keys]
        # a fresh ring with the same shape routes identically: slots
        # are hashed by index, so restarts preserve the key ranges
        again = HashRing(4)
        assert first == [again.route(key) for key in keys]

    def test_keyspace_spreads_over_slots(self):
        ring = HashRing(4, replicas=64)
        hits = [0, 0, 0, 0]
        for k in range(400):
            hits[ring.route(("d%d" % k, "method"))] += 1
        assert all(h > 0 for h in hits)
        # virtual nodes keep the imbalance bounded (loose sanity, not
        # a statistical claim)
        assert max(hits) < 4 * (400 // 4)

    def test_dead_slot_routes_around_and_stably(self):
        ring = HashRing(3)
        keys = [("k%d" % k,) for k in range(120)]
        full = {key: ring.route(key) for key in keys}
        alive = lambda idx: idx != 1
        for key in keys:
            routed = ring.route(key, alive)
            assert routed != 1
            if full[key] != 1:
                # keys not owned by the dead slot do not move
                assert routed == full[key]

    def test_nothing_alive_returns_none(self):
        ring = HashRing(2)
        assert ring.route(("k",), lambda idx: False) is None

    def test_validation(self):
        with pytest.raises(ValueError):
            HashRing(0)
        with pytest.raises(ValueError):
            HashRing(2, replicas=0)


# ---------------------------------------------------------------------------
# solving through the pool
# ---------------------------------------------------------------------------
class TestShardedSolve:
    def test_front_end_latency_covers_parse_and_response_write(self, pool):
        """The front-end's ``request_latency_s``, which its ``health``
        p99 reads, runs from frame receipt to the end of the answer's
        write, as the plain server's does."""
        from test_service import assert_latency_covers_parse_and_write

        server, _loop = pool
        (hg,) = small_instances(1, seed0=700)
        assert_latency_covers_parse_and_write(server, hg)

    def test_remote_solves_bit_identical_to_local(self, pool):
        server, _loop = pool
        instances = small_instances(6)
        with ServiceClient(port=server.port, timeout=120.0) as client:
            for hg in instances:
                remote = client.solve(hg, method="EVG")
                local = api_solve(hg, method="EVG")
                assert remote.makespan == local.makespan
                np.testing.assert_array_equal(
                    remote.assignment, local.matching.hedge_of_task
                )
                assert remote.raw["shard"] in {
                    s.name for s in server._shards.values()
                }
                remote.matching(hg)  # re-validates against the instance

    def test_routing_affinity_warms_worker_caches(self, pool):
        server, _loop = pool
        instances = small_instances(12, seed0=100)
        with ServiceClient(port=server.port, timeout=120.0) as client:
            first = [client.solve(hg) for hg in instances]
            again = [client.solve(hg) for hg in instances]
        for r1, r2 in zip(first, again):
            # the repeat landed on the same worker, whose result cache
            # (or in-flight dedup) answered it
            assert r2.raw["shard"] == r1.raw["shard"]
            assert r2.cache_hit or r2.deduped
        # 12 instances over 2 workers: consistent hashing actually
        # spreads the keyspace (P(all-on-one) ~ 2^-11)
        assert len({r.raw["shard"] for r in first}) == 2

    def test_front_end_rejects_raw_shm_descriptors(self, pool):
        server, _loop = pool
        with ServiceClient(port=server.port) as client:
            with pytest.raises(RemoteError) as exc:
                client.call(
                    "solve",
                    instance={
                        "__shm__": "psm_nope",
                        "digest": "d",
                        "counts": [1, 1, 1],
                        "layout": [],
                    },
                )
            assert exc.value.code == ErrorCode.BAD_REQUEST

    def test_worker_server_rejects_a_real_shm_export(self):
        """A pool worker's server is a plain :class:`SolveServer`: the
        descriptor of a live segment answers ``bad-request`` instead of
        being attached."""
        from test_service import running_server

        from repro.engine.cache import instance_digest
        from repro.engine.transport import ExportRegistry

        hg = small_instances(1, seed0=400)[0]
        registry = ExportRegistry()
        try:
            descriptor = registry.export(hg, instance_digest(hg))
            if descriptor is None:  # pragma: no cover
                pytest.skip("no shared memory on this platform")
            with running_server(**WorkerSpec().server_kwargs()) as (
                server, _loop,
            ):
                with ServiceClient(port=server.port) as client:
                    with pytest.raises(RemoteError) as exc:
                        client.call("solve", instance=descriptor)
            assert exc.value.code == ErrorCode.BAD_REQUEST
        finally:
            registry.close()

    def test_cold_stream_leaves_no_shm_segment(self):
        """Instances above 32 KiB cross the hop as attachments too: a
        cold stream through the pool creates no shared-memory segment
        while the pool is up."""
        instances = [
            generate_multiproc(
                600, 32, family="fewgmanyg", g=4, dv=3, dh=5,
                weights="related", seed=seed,
            )
            for seed in range(4)
        ]
        assert min(map(instance_nbytes, instances)) >= 32768
        before = set(glob.glob("/dev/shm/psm_*"))
        with running_pool(n_workers=2) as (server, _loop):
            with ServiceClient(port=server.port, timeout=120.0) as client:
                for hg in instances:
                    remote = client.solve(hg, method="SGH")
                    np.testing.assert_array_equal(
                        remote.assignment,
                        api_solve(hg, method="SGH").matching.hedge_of_task,
                    )
            leaked = set(glob.glob("/dev/shm/psm_*")) - before
        assert not leaked

    def test_metrics_expose_per_shard_labels(self, pool):
        server, _loop = pool
        with ServiceClient(port=server.port, timeout=120.0) as client:
            client.solve(small_instances(1, seed0=300)[0])
            snap = client.metrics()
        assert set(snap["shards"]) == {
            s.name for s in server._shards.values()
        }
        for info in snap["shards"].values():
            assert info["state"] == "up"
            assert isinstance(info["metrics"], dict)
        assert snap["supervisor"]["workers"] == 2
        counters = snap["counters"]
        assert sum(
            counters.get(f"shard.{name}.solves", 0)
            for name in snap["shards"]
        ) >= 1


# ---------------------------------------------------------------------------
# sessions: pinning, relocation
# ---------------------------------------------------------------------------
class TestShardedSessions:
    def test_sessions_pinned_and_bit_equal_to_local_solver(self, pool):
        server, _loop = pool
        hg = small_instances(1, n_tasks=48, seed0=7)[0]
        mutations = churn_trace(hg, 20, seed=3)
        local_instance = DynamicInstance.from_hypergraph(hg)
        local_solver = IncrementalSolver(local_instance, method="auto")
        with ServiceClient(port=server.port, timeout=120.0) as client:
            session = client.open_session(hg, method="auto")
            pinned = session.info["shard"]
            assert pinned in {s.name for s in server._shards.values()}
            for mutation in mutations:
                local_instance.apply(mutation)
                out = session.apply(mutation)
                assert out["shard"] == pinned
                assert float(out["bottleneck"]) == local_solver.bottleneck()
            session.close()
        local_solver.detach()

    def test_drained_worker_relocates_sessions(self, pool):
        server, loop = pool
        hg = small_instances(1, n_tasks=40, seed0=11)[0]
        with ServiceClient(port=server.port, timeout=120.0) as client:
            session = client.open_session(hg)
            victim = int(session.info["shard"][1:])
            on_loop(loop, server.drain_worker(victim, timeout_s=30))
            try:
                with pytest.raises(RemoteError) as exc:
                    session.mutate([])
                assert exc.value.code == ErrorCode.SESSION_RELOCATED
                # re-opening from the client's own baseline works and
                # pins to a live worker
                fresh = client.open_session(hg)
                assert fresh.info["shard"] != f"w{victim}"
                fresh.close()
                counters = server._op_metrics()["counters"]
                assert counters["sessions_relocated"] >= 1
                assert counters["workers_drained"] >= 1
            finally:
                on_loop(loop, server.restart_worker(victim))
        wait_all_up(server)

    def test_sessions_are_connection_scoped(self, pool):
        server, _loop = pool
        hg = small_instances(1, seed0=17)[0]
        with ServiceClient(port=server.port, timeout=120.0) as first:
            session = first.open_session(hg)
            with ServiceClient(port=server.port) as second:
                with pytest.raises(RemoteError) as exc:
                    second.call(
                        "session.mutate", session=session.id, mutations=[]
                    )
                assert exc.value.code == ErrorCode.SESSION_NOT_FOUND
            session.close()

    def test_dropped_connection_reclaims_pins(self, pool):
        server, _loop = pool
        hg = small_instances(1, seed0=23)[0]
        reclaimed = "service.sessions_reclaimed"
        before = server.metrics.counter_value(reclaimed)
        client = ServiceClient(port=server.port, timeout=120.0)
        client.open_session(hg)
        assert len(server._pins) >= 1
        client.close()  # drop without session.close
        deadline = time.monotonic() + 10
        while server._pins and time.monotonic() < deadline:
            time.sleep(0.02)
        assert not server._pins
        assert server.metrics.counter_value(reclaimed) == before + 1


# ---------------------------------------------------------------------------
# chaos: SIGKILL a worker mid-load
# ---------------------------------------------------------------------------
class TestChaos:
    def test_chaos_worker_kill_converges(self):
        """SIGKILL a worker under load: every failure is the typed
        ``worker-lost`` (never a hang), the supervisor restarts the
        slot under a new generation, and retried solves converge to
        the bit-identical local answers."""
        instances = small_instances(24, n_tasks=40, seed0=1000)
        locals_ = [api_solve(hg) for hg in instances]
        with running_pool(n_workers=2) as (server, loop):
            spawns_before = server.supervisor.spawns

            async def burst():
                client = await AsyncServiceClient.connect(port=server.port)
                try:
                    # no client-side retry: failures must surface so
                    # the test can assert they are all typed
                    tasks = [
                        asyncio.create_task(
                            client.solve(hg, retries=0)
                        )
                        for hg in instances
                    ]
                    await asyncio.sleep(0)  # let the burst dispatch
                    server.supervisor.kill(0)
                    settled = await asyncio.gather(
                        *tasks, return_exceptions=True
                    )
                finally:
                    await client.close()
                return settled

            settled = on_loop(loop, burst(), timeout=240)
            failures = [r for r in settled if isinstance(r, Exception)]
            # only the typed code, and nothing hung: gather returned
            for failure in failures:
                assert isinstance(failure, RemoteError), failure
                assert failure.code == ErrorCode.WORKER_LOST, failure
            # the pool converges: the slot restarts under a new
            # generation and retried solves all succeed bit-identically
            wait_all_up(server, timeout=120)
            assert server.supervisor.spawns == spawns_before + 1
            assert server._shards[0].generation > 1

            async def retry_all():
                client = await AsyncServiceClient.connect(port=server.port)
                try:
                    return await asyncio.gather(
                        *(client.solve(hg) for hg in instances)
                    )
                finally:
                    await client.close()

            results = on_loop(loop, retry_all(), timeout=240)
            for remote, local in zip(results, locals_):
                assert remote.makespan == local.makespan
                np.testing.assert_array_equal(
                    remote.assignment, local.matching.hedge_of_task
                )
            counters = server._op_metrics()["counters"]
            assert counters["workers_lost"] >= 1
            assert counters["worker_restarts"] >= 1

    @staticmethod
    def _traced_kill_burst(server, loop, instances, victim):
        """One burst under a client-side root span, SIGKILLing
        ``victim`` right after dispatch; returns the settled results
        and the root's trace id."""

        async def burst():
            client = await AsyncServiceClient.connect(port=server.port)
            try:
                with span("test.chaos.burst") as root:
                    tasks = [
                        asyncio.create_task(client.solve(hg))
                        for hg in instances
                    ]
                    # kill only once the victim actually has a forward
                    # in flight (we run on the server's loop, so its
                    # inflight counter is safe to read) — a kill that
                    # beats the dispatch would just be routed around
                    shard = server._shards[victim]
                    deadline = asyncio.get_running_loop().time() + 20
                    while (
                        shard.inflight == 0
                        and asyncio.get_running_loop().time() < deadline
                    ):
                        await asyncio.sleep(0.001)
                    server.supervisor.kill(victim)
                    settled = await asyncio.gather(
                        *tasks, return_exceptions=True
                    )
            finally:
                await client.close()
            return settled, root.trace_id

        return on_loop(loop, burst(), timeout=240)

    def test_chaos_stitched_trace_keeps_failed_hop(self):
        """SIGKILL a worker under a *traced* burst: the client's
        stitched trace — one trace id — must contain the failed hop
        (the front-end's ``service.shard.worker`` span attributed
        ``error=worker-lost``, piggybacked on the error envelope) *and*
        the successful retry leg, down to worker-side spans from a
        different pid."""
        instances = small_instances(16, n_tasks=48, seed0=5000)
        old = trace_mod.RECORDER
        rec = trace_mod.RECORDER = TraceRecorder(
            capacity=65536, threshold_s=1e9
        )
        try:
            with running_pool(n_workers=2) as (server, loop):
                # the kill races the burst: only requests in flight on
                # the victim at SIGKILL produce the failed hop, so
                # retry (alternating victims) until one is captured
                mine, failed = [], []
                for round_no in range(5):
                    wait_all_up(server, timeout=120)
                    settled, trace_id = self._traced_kill_burst(
                        server, loop, instances, round_no % 2
                    )
                    for item in settled:
                        if isinstance(item, Exception):
                            # bounded retries can exhaust mid-crash;
                            # only the typed code may surface
                            assert isinstance(item, RemoteError), item
                            assert item.code == ErrorCode.WORKER_LOST
                    mine = [
                        r for r in rec.spans() if r["trace"] == trace_id
                    ]
                    failed = [
                        r
                        for r in mine
                        if r["name"] == "service.shard.worker"
                        and (r.get("attrs") or {}).get("error")
                        == "worker-lost"
                    ]
                    if failed:
                        break
                assert failed, (
                    "no burst round captured a worker-lost hop span"
                )
                # the retry leg succeeded under the *same* trace id
                retried = [
                    r
                    for r in mine
                    if r["name"] == "service.shard.worker"
                    and "error" not in (r.get("attrs") or {})
                ]
                assert retried, "no successful retry hop in the trace"
                # stitching crossed the process boundary: the trace
                # holds front-end spans (this pid) and worker spans
                names = {r["name"] for r in mine}
                assert "service.request" in names
                assert "engine.solve" in names
                assert {r["pid"] for r in mine} - {os.getpid()}, (
                    "no worker-side spans were stitched in"
                )
                wait_all_up(server, timeout=120)
        finally:
            trace_mod.RECORDER = old


# ---------------------------------------------------------------------------
# client retry behaviour (no pool: a scripted fake server)
# ---------------------------------------------------------------------------
class _FlakyServer:
    """A minimal NDJSON server whose first ``fail_first`` solve
    requests answer ``worker-lost``, each piggybacking one span of the
    ``"flaky"`` trace (the failed hop a sharded front-end would ship);
    everything after succeeds, echoing the instance's ``mark`` in the
    makespan so responses can be traced back to requests."""

    def __init__(self, fail_first: int):
        self.fail_first = fail_first
        self.seen = 0
        self._sock = socket.socket(socket.AF_INET, socket.SOCK_STREAM)
        self._sock.setsockopt(socket.SOL_SOCKET, socket.SO_REUSEADDR, 1)
        self._sock.bind(("127.0.0.1", 0))
        self._sock.listen(1)
        self.port = self._sock.getsockname()[1]
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        conn, _ = self._sock.accept()
        rfile = conn.makefile("rb")
        try:
            while True:
                line = rfile.readline()
                if not line:
                    return
                req = json.loads(line)
                if req.get("op") != "solve":
                    conn.sendall(
                        encode_frame(ok_response(req.get("id"), {}))
                    )
                    continue
                self.seen += 1
                if self.seen <= self.fail_first:
                    lost = error_response(
                        req.get("id"),
                        ErrorCode.WORKER_LOST,
                        "worker w9 was lost mid-request; retry",
                    )
                    lost["spans"] = [
                        {
                            "trace": "flaky",
                            "span": f"lost{self.seen}",
                            "parent": "caller",
                            "name": "service.shard.worker",
                            "start": 0.0,
                            "dur": 0.0,
                            "pid": 0,
                        }
                    ]
                    conn.sendall(encode_frame(lost))
                    continue
                mark = req["instance"].get("mark", -1)
                conn.sendall(
                    encode_frame(
                        ok_response(
                            req.get("id"),
                            {
                                "assignment": np.zeros(1, dtype="<i4"),
                                "makespan": float(mark),
                                "winner": "fake",
                                "method": "fake",
                                "cache_hit": False,
                                "wall_time_s": 0.0,
                                "stats": {},
                            },
                        )
                    )
                )
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            rfile.close()
            conn.close()

    def close(self) -> None:
        self._sock.close()


def _drive(blocking: bool, port: int, method: str, *args, **kwargs):
    """``method(*args, **kwargs)`` on a fresh blocking or asyncio
    client connected to ``port``."""
    if blocking:
        with ServiceClient(port=port) as client:
            return getattr(client, method)(*args, **kwargs)

    async def scenario():
        client = await AsyncServiceClient.connect(port=port)
        try:
            return await getattr(client, method)(*args, **kwargs)
        finally:
            await client.close()

    return asyncio.run(scenario())


@pytest.fixture
def recorder():
    """A fresh process-wide span recorder for the test."""
    old = trace_mod.RECORDER
    trace_mod.RECORDER = TraceRecorder(capacity=1024, threshold_s=1e9)
    try:
        yield trace_mod.RECORDER
    finally:
        trace_mod.RECORDER = old


def _flaky_spans(recorder) -> list[str]:
    return sorted(r["span"] for r in recorder.spans() if r["trace"] == "flaky")


_CLIENTS = pytest.mark.parametrize(
    "blocking", [True, False], ids=["sync", "async"]
)


class TestClientRetries:
    @_CLIENTS
    def test_solve_retries_worker_lost_then_succeeds(self, blocking, recorder):
        fake = _FlakyServer(fail_first=2)
        try:
            result = _drive(
                blocking, fake.port, "solve", {"kind": "hypergraph", "mark": 5}
            )
            assert result.makespan == 5.0
            assert fake.seen == 3  # two losses + the success
            # the lost hops' piggybacked spans reached the caller
            assert _flaky_spans(recorder) == ["lost1", "lost2"]
        finally:
            fake.close()

    @_CLIENTS
    def test_solve_gives_up_after_bounded_retries(self, blocking):
        fake = _FlakyServer(fail_first=100)
        try:
            with pytest.raises(RemoteError) as exc:
                _drive(
                    blocking, fake.port, "solve",
                    {"kind": "hypergraph", "mark": 1}, retries=2,
                )
            assert exc.value.code == ErrorCode.WORKER_LOST
            assert fake.seen == 3  # initial send + two retries
        finally:
            fake.close()

    @_CLIENTS
    def test_pipelined_resends_only_lost_requests(self, blocking, recorder):
        fake = _FlakyServer(fail_first=2)
        try:
            marks = [{"kind": "hypergraph", "mark": m} for m in range(4)]
            results = _drive(blocking, fake.port, "solve_pipelined", marks)
            assert [r.makespan for r in results] == [0.0, 1.0, 2.0, 3.0]
            # 4 initial + the 2 lost ones re-sent once
            assert fake.seen == 6
            assert _flaky_spans(recorder) == ["lost1", "lost2"]
        finally:
            fake.close()

    def test_other_errors_are_not_retried(self):
        with running_pool(n_workers=1) as (server, _loop):
            with ServiceClient(port=server.port) as client:
                with pytest.raises(RemoteError) as exc:
                    client.solve({"kind": "wat"})
                assert exc.value.code == ErrorCode.BAD_REQUEST
