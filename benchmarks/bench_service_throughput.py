"""Service throughput bench: ``BENCH_service.json`` + its hard guards.

Four workloads against a real :class:`repro.service.SolveServer` on a
loopback TCP port (a fresh server — and a fresh private result cache —
per workload, so the numbers never bleed into each other):

* ``serial_cold`` — one blocking request at a time over distinct
  instances: the per-request baseline (closed-loop, so the adaptive
  batcher flushes every request immediately);
* ``batched_cold`` — the same number of distinct instances as one
  pipelined burst: the micro-batcher coalesces them into a few
  ``solve_many`` calls, amortising the per-request overhead;
* ``batched_warm`` — the burst again on the same server: every answer
  comes from the shared ResultCache without recompiling;
* ``dedup_identical`` — an all-duplicates burst of one larger
  instance, cold cache: single-flight collapses N requests into ONE
  engine solve.

Hard assertions (the PR's acceptance numbers, run by CI in ``--smoke``
mode on every push):

* micro-batching: ``batched_cold`` throughput >= ``MIN_BATCHING_GAIN``
  (2x) the serial per-request throughput;
* single-flight: the all-duplicates burst completes at least
  ``MIN_DEDUP_GAIN`` (10x) faster than N serial engine solves of the
  same instance would take (N x a measured single-solve time);
* sharding: 4 supervised workers solve a CPU-bound cold workload at
  least ``MIN_SHARDED_GAIN`` (1.8x) faster than 1 worker.  This guard
  needs real cores — on hosts with fewer than 4 CPUs it is *waived*
  (recorded in the report, never fabricated).  2 workers must beat 1
  by ``MIN_SHARDED_GAIN_2V1`` (1.2x); that guard binds from 2 CPUs
  on.  Both ratios rest on a worker running its batches one at a
  time: GIL-bound solves run concurrently on executor threads slow
  each other ≈ 3x, which would inflate the 1-worker leg.

* ingest: a large instance's whole wire path —
  ``instance_to_wire`` + ``encode_frame`` + ``decode_frame`` +
  ``hypergraph_from_wire`` at n=10240, p=2048 — costs at most
  ``MAX_INGEST_OVER_CSR`` (3x) one ``TaskHypergraph.from_csr`` of the
  same arrays.  A ratio of two in-process timings on one host, so it
  binds on any hardware.  The ``wire_ingest`` block also times the
  same request in the serialize v2 dict (base64 buffers in the JSON
  line, the wire encoding before binary attachments) for reference.

* egress: the same instance's SGH answer, encoded by the server
  (``SolveServer._solve_wire`` + ``encode_frame``) and decoded by the
  client (``decode_frame`` + ``RemoteSolveResult.from_wire``), costs
  at most ``MAX_EGRESS_OVER_JSON_LIST`` (0.25x) the same answer with
  the assignment as a JSON list.

* digest: the digests a server takes of that instance as it arrived
  (``packed_digests`` over the frame's attachment views) cost at most
  ``MAX_DIGEST_OVER_TAIL_SHA256`` (1.15x) one sha256 pass over the
  frame's tail bytes.  Both are in-process ratios too.

* reweighted ingest: a weight variant of that instance, parsed by a
  server whose compile cache holds its structure
  (``SolveServer._parse_instance``) and compiled, costs at most
  ``MAX_REWEIGHTED_OVER_TAIL_SHA256`` (1.4x) one sha256 pass over its
  frame tail: the structure is neither re-validated nor re-compiled.
  ``--reference-src DIR`` records the same leg against another tree.

* cold-stream memory: a plain server in a child process serves
  distinct weight variants of one fewgmanyg base (n=10240; n=5120 in
  ``--smoke``), perfbench large-cold's traffic, and then a stream of
  distinct *structures* of the same sizes (each request's processors
  relabelled by a fresh random permutation).  On each stream its peak
  RSS (VmHWM) may grow at most ``MAX_STREAM_GROWTH_COMPILES`` (8)
  compilations of one instance over its ready RSS, and a warm request
  may take at most ``MAX_STREAM_FAULTS_PER_REQUEST`` (200) minor page
  faults at the median (summed over ``/proc/<pid>/task/*/stat``).
  Weight variants share one compilation (the compile cache keys by
  structure), so the distinct stream is the one that exercises
  compile admission: there the first guard binds a compile cache that
  keeps one-shot compilations, and the second one that keeps none, so
  the heap is handed back and re-faulted every request.  Linux only
  (``/proc``).  ``--reference-src DIR`` records the same legs against a
  server from another source tree.

* pool cold-stream memory: the same stream through ``semimatch serve
  --workers 2``.  The front-end's peak RSS may grow at most
  ``MAX_POOL_STREAM_GROWTH_INSTANCES`` (12) times one instance's
  arrays over its ready RSS.  A front-end that forwards attachments
  holds nothing per request (≈ 4x measured, n=5120 and n=10240); one
  that keeps a shared-memory segment per distinct instance grows with
  the stream (≈ 40–47x over 36–44 requests).  ``--reference-src``
  records this leg for the other tree too.

A fifth workload block, ``sharded_sweep``, ramps concurrency
100 → 1000 → 10000 against a 4-worker :class:`ShardedSolveServer` and
records req/s plus per-shard latency at each level.

Run:    PYTHONPATH=src python benchmarks/bench_service_throughput.py
Smoke:  ... bench_service_throughput.py --smoke --out BENCH_service.json
Pytest: PYTHONPATH=src python -m pytest benchmarks/bench_service_throughput.py
"""

from __future__ import annotations

import argparse
import asyncio
import hashlib
import json
import os
import re
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import numpy as np

import repro
from repro.api import solve as api_solve
from repro.core import TaskHypergraph
from repro.engine import ResultCache, instance_digest
from repro.engine.batch import BatchSolver
from repro.engine.transport import instance_nbytes
from repro.generators import generate_multiproc
from repro.kernels import compile_instance
from repro.kernels.compiled import compiled_nbytes
from repro.io.serialize import (
    hypergraph_from_dict,
    hypergraph_to_dict,
    pack_hypergraph,
)
from repro.service import (
    AsyncServiceClient,
    RemoteSolveResult,
    ServiceClient,
    ShardedSolveServer,
    SolveServer,
    instance_to_wire,
)
from repro.service.protocol import (
    decode_frame,
    encode_frame,
    ok_response,
    request,
)
from repro.service.supervisor import WorkerSpec
from repro.service.wire import hypergraph_from_wire

MIN_BATCHING_GAIN = 2.0
MIN_DEDUP_GAIN = 10.0
MIN_SHARDED_GAIN = 1.8
#: 2 workers over 1 on the same CPU-bound workload: binds on any host
#: with 2 or more CPUs (≈ 1.3–1.5x measured on 2 CPUs, where the
#: front-end and the client share the cores with the workers)
MIN_SHARDED_GAIN_2V1 = 1.2
MAX_INGEST_OVER_CSR = 3.0
#: egress: an n=10240 solve answer's server encode plus client decode
#: with the assignment as an ``<i4`` attachment, over the same answer
#: with the JSON list it replaced (≈ 0.07x measured; the list itself
#: reads 1.0x)
MAX_EGRESS_OVER_JSON_LIST = 0.25
#: digest: a wire instance's digest, hashed over its frame attachments,
#: over one sha256 pass over the frame's tail bytes (≈ 1.0x measured;
#: hashing the int64 library arrays reads ≈ 1.9x)
MAX_DIGEST_OVER_TAIL_SHA256 = 1.15
#: reweighted ingest: a weight variant's parse plus compile on a server
#: whose compile cache holds its structure, over one sha256 pass over
#: its frame tail (≈ 1.1x measured; a server that re-validates and
#: re-compiles the structure, its compile cache keyed by instance
#: digest, read 3.5–3.9x)
MAX_REWEIGHTED_OVER_TAIL_SHA256 = 1.4
#: cold-stream memory: a plain server's peak RSS growth over its ready
#: RSS, in compilations of one stream instance.  Two retained
#: compilations plus one request's working set fit; a compile cache
#: that keeps every one-shot compilation (≈ 21x at n=10240) does not
MAX_STREAM_GROWTH_COMPILES = 8.0
#: cold-stream memory: median minor page faults per warm request.  A
#: heap that keeps its pages faults ≈ 0 per request; one handed back to
#: the kernel after every request re-faults ≈ 2000 at n=10240
MAX_STREAM_FAULTS_PER_REQUEST = 200
#: pool cold-stream memory: a 2-worker pool front-end's peak RSS growth
#: over its ready RSS, in one stream instance's arrays
#: (``instance_nbytes``).  Forwarding attachments measured ≈ 4.0–4.6x;
#: keeping a shared-memory export per distinct instance ≈ 40–47x
MAX_POOL_STREAM_GROWTH_INSTANCES = 12.0

#: the ingest guard's instance: perfbench large-cold's size
INGEST_TASKS, INGEST_PROCS = 10240, 2048

#: the cold-stream instance: perfbench large-cold's size (half of it
#: in smoke mode)
STREAM_TASKS, STREAM_PROCS = 10240, 2048
STREAM_SMOKE_TASKS, STREAM_SMOKE_PROCS = 5120, 1024

#: tiny instances: the per-request overhead the batcher amortises
#: dominates, which is exactly the regime micro-batching exists for
SMALL_TASKS, SMALL_PROCS = 6, 4
#: the dedup workload runs a genuinely expensive solve (multi-start
#: GRASP) on a mid-size instance, so sharing ONE solve across the
#: burst dwarfs the per-request parse cost it cannot share
DEDUP_TASKS, DEDUP_PROCS = 320, 64
DEDUP_METHOD = "grasp"

#: the scaling workload is deliberately CPU-bound (multi-start GRASP on
#: mid-size instances): worker processes can only show a speedup when
#: the solve itself, not the protocol, dominates
SCALE_TASKS, SCALE_PROCS = 96, 16
SCALE_METHOD = "grasp"


class _ServerHarness:
    """One live server on a background event loop (private cache)."""

    def __init__(self, **config):
        config.setdefault(
            "engine",
            BatchSolver(
                max_workers=1, executor="serial", cache=ResultCache()
            ),
        )
        # a throughput bench must not trip admission control: the
        # pipelined bursts intentionally exceed the serving defaults
        config.setdefault("max_pending", 4096)
        config.setdefault("per_conn_inflight", 4096)
        self.server = SolveServer(port=0, allow_shutdown=True, **config)
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        if not started.wait(10):
            raise RuntimeError("service failed to start")

    def __enter__(self) -> "_ServerHarness":
        return self

    def __exit__(self, *exc) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(10)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(10)
        self.loop.close()


class _ShardedHarness:
    """A live 4-ish-worker sharded server on a background loop."""

    def __init__(self, n_workers: int, **config):
        inflight = config.pop("per_conn_inflight", 16384)
        config.setdefault("max_pending", 16384)
        # the front-end holds ONE connection per worker, so the
        # worker-side per-connection cap must admit the whole burst
        spec = WorkerSpec(
            max_pending=config["max_pending"],
            per_conn_inflight=inflight,
        )
        self.server = ShardedSolveServer(
            n_workers=n_workers,
            worker_spec=spec,
            port=0,
            allow_shutdown=True,
            per_conn_inflight=inflight,
            **config,
        )
        self.loop = asyncio.new_event_loop()
        started = threading.Event()

        def run() -> None:
            asyncio.set_event_loop(self.loop)
            self.loop.run_until_complete(self.server.start())
            started.set()
            self.loop.run_forever()

        self.thread = threading.Thread(target=run, daemon=True)
        self.thread.start()
        if not started.wait(180):
            raise RuntimeError("sharded service failed to start")

    def __enter__(self) -> "_ShardedHarness":
        return self

    def __exit__(self, *exc) -> None:
        asyncio.run_coroutine_threadsafe(
            self.server.stop(), self.loop
        ).result(60)
        self.loop.call_soon_threadsafe(self.loop.stop)
        self.thread.join(30)
        self.loop.close()


def _instances(n: int, *, n_tasks: int, n_procs: int, seed0: int = 0):
    small = n_tasks <= 16
    return [
        generate_multiproc(
            n_tasks, n_procs, family="fewgmanyg",
            g=2 if small else 4,
            dv=2 if small else 3,
            dh=3 if small else 5,
            weights="related", seed=seed0 + k,
        )
        for k in range(n)
    ]


def _histogram_ms(server: SolveServer) -> dict:
    snap = server._op_metrics()["request_latency_s"]
    return {
        "p50_ms": snap["p50"] * 1e3,
        "p99_ms": snap["p99"] * 1e3,
        "mean_ms": snap["mean"] * 1e3,
    }


def bench_serial_vs_batched(
    n_requests: int, repeats: int = 3
) -> tuple[dict, dict, dict]:
    """One paired measurement on one server: closed-loop serial vs
    pipelined bursts (cold cache for both — distinct instances per
    repeat), plus a warm re-burst.  Best-of-``repeats`` each, so one
    scheduler hiccup cannot poison a side."""
    with _ServerHarness(max_batch=128) as h:
        with ServiceClient(port=h.server.port) as client:
            # warm both paths: executor threads, code paths, option memo
            warmup = _instances(
                8, n_tasks=SMALL_TASKS, n_procs=SMALL_PROCS, seed0=10**6
            )
            for hg in warmup:
                client.solve(hg, method="SGH")
            client.solve_pipelined(warmup, method="SGH")

            serial_best = 0.0
            for rep in range(repeats):
                instances = _instances(
                    n_requests, n_tasks=SMALL_TASKS,
                    n_procs=SMALL_PROCS, seed0=1000 * (rep + 1),
                )
                t0 = time.perf_counter()
                for hg in instances:
                    client.solve(hg, method="SGH")
                serial_best = max(
                    serial_best,
                    n_requests / (time.perf_counter() - t0),
                )
            serial_stats = _histogram_ms(h.server)

            batched_best, last_cold = 0.0, None
            for rep in range(repeats):
                instances = _instances(
                    n_requests, n_tasks=SMALL_TASKS,
                    n_procs=SMALL_PROCS, seed0=100_000 * (rep + 1),
                )
                t0 = time.perf_counter()
                last_cold = client.solve_pipelined(instances, method="SGH")
                batched_best = max(
                    batched_best,
                    n_requests / (time.perf_counter() - t0),
                )
            counters = h.server._op_metrics()["counters"]
            batched_stats = _histogram_ms(h.server)

            t0 = time.perf_counter()
            warm_results = client.solve_pipelined(instances, method="SGH")
            warm_wall = time.perf_counter() - t0
        assert all(not r.cache_hit for r in last_cold)
        assert all(r.cache_hit for r in warm_results)
    batches = counters.get("batches", 0)
    serial = {
        "requests": n_requests,
        "repeats": repeats,
        "req_per_s": serial_best,
        **serial_stats,
    }
    cold = {
        "requests": n_requests,
        "repeats": repeats,
        "req_per_s": batched_best,
        "batches_total": batches,
        **batched_stats,
    }
    warm = {
        "requests": n_requests,
        "wall_s": warm_wall,
        "req_per_s": n_requests / warm_wall,
        "cache_hits": n_requests,
    }
    return serial, cold, warm


def bench_dedup(n_requests: int) -> dict:
    (hg,) = _instances(
        1, n_tasks=DEDUP_TASKS, n_procs=DEDUP_PROCS, seed0=999
    )
    # the serial reference: what one engine solve of this instance
    # costs, measured uncached (median of 3)
    singles = []
    for _ in range(3):
        engine = BatchSolver(max_workers=1, executor="serial", cache=False)
        t0 = time.perf_counter()
        engine.solve(hg, method=DEDUP_METHOD)
        singles.append(time.perf_counter() - t0)
    t_single = statistics.median(singles)

    with _ServerHarness() as h:
        with ServiceClient(port=h.server.port) as client:
            t0 = time.perf_counter()
            results = client.solve_pipelined(
                [hg] * n_requests, method=DEDUP_METHOD
            )
            wall = time.perf_counter() - t0
        followers = h.server.flight.followers
        engine_cache = h.server.engine.cache.stats()
    assert len({r.makespan for r in results}) == 1
    # the dedup guarantee: ONE engine solve answered all N requests —
    # concurrent arrivals share the flight (followers), anything
    # arriving after it completed is a result-cache hit; either way the
    # cache records exactly one miss
    assert engine_cache["misses"] == 1, engine_cache
    assert followers >= 1, followers
    return {
        "requests": n_requests,
        "wall_s": wall,
        "req_per_s": n_requests / wall,
        "t_single_ms": t_single * 1e3,
        "dedup_followers": followers,
        "speedup_vs_serial_solves": (n_requests * t_single) / wall,
    }


def bench_sharded_sweep(levels: list[int], n_workers: int = 4) -> dict:
    """Concurrency ramp against one 4-worker pool: ``levels[k]``
    distinct cold instances dispatched as one asyncio burst.  Records
    req/s per level plus the per-shard view (requests landed and the
    worker's cumulative p99) straight off the sharded ``metrics`` op."""
    out: dict = {"n_workers": n_workers, "levels": []}
    with _ShardedHarness(n_workers=n_workers) as h:
        with ServiceClient(port=h.server.port, timeout=600.0) as probe:
            # warm the wire path end to end before timing anything
            for hg in _instances(
                8, n_tasks=SMALL_TASKS, n_procs=SMALL_PROCS, seed0=10**6
            ):
                probe.solve(hg, method="SGH")
            seed0 = 1
            for level in levels:
                instances = _instances(
                    level, n_tasks=SMALL_TASKS, n_procs=SMALL_PROCS,
                    seed0=seed0,
                )
                seed0 += level

                async def burst():
                    client = await AsyncServiceClient.connect(
                        port=h.server.port
                    )
                    try:
                        t0 = time.perf_counter()
                        results = await asyncio.gather(
                            *(
                                client.solve(hg, method="SGH")
                                for hg in instances
                            )
                        )
                        return results, time.perf_counter() - t0
                    finally:
                        await client.close()

                results, wall = asyncio.run_coroutine_threadsafe(
                    burst(), h.loop
                ).result(1200)
                assert not any(r.cache_hit for r in results)  # cold
                snap = probe.metrics()
                per_shard = {
                    name: {
                        "state": info["state"],
                        "requests": info["metrics"]["counters"].get(
                            "requests.solve", 0
                        ),
                        "p99_ms_cumulative": info["metrics"][
                            "request_latency_s"
                        ]["p99"] * 1e3,
                    }
                    for name, info in snap["shards"].items()
                }
                out["levels"].append(
                    {
                        "concurrency": level,
                        "wall_s": wall,
                        "req_per_s": level / wall,
                        "per_shard": per_shard,
                    }
                )
    return out


def bench_sharded_scaling(n_requests: int, attempts: int = 3) -> dict:
    """The same CPU-bound cold workload against a 1-, 2- and 4-worker
    pool (fresh pools, fresh caches — worker caches die with their
    processes).  The 2-vs-1 pair is the binding ratio on small hosts,
    so it is measured up to ``attempts`` times (each pair fresh) until
    it clears its floor; every attempt is recorded."""
    instances = _instances(
        n_requests, n_tasks=SCALE_TASKS, n_procs=SCALE_PROCS, seed0=777
    )

    def throughput(n_workers: int) -> float:
        with _ShardedHarness(n_workers=n_workers) as h:

            async def burst():
                client = await AsyncServiceClient.connect(
                    port=h.server.port
                )
                try:
                    t0 = time.perf_counter()
                    results = await asyncio.gather(
                        *(
                            client.solve(hg, method=SCALE_METHOD, seed=1)
                            for hg in instances
                        )
                    )
                    return results, time.perf_counter() - t0
                finally:
                    await client.close()

            results, wall = asyncio.run_coroutine_threadsafe(
                burst(), h.loop
            ).result(1200)
            assert not any(r.cache_hit or r.deduped for r in results)
        return n_requests / wall

    pairs = []
    for _ in range(attempts):
        pairs.append((throughput(1), throughput(2)))
        if pairs[-1][1] / pairs[-1][0] >= MIN_SHARDED_GAIN_2V1:
            break
    one, two = max(pairs, key=lambda pair: pair[1] / pair[0])
    four = throughput(4)
    return {
        "requests": n_requests,
        "instance": [SCALE_TASKS, SCALE_PROCS],
        "method": SCALE_METHOD,
        "workers_1_req_per_s": one,
        "workers_2_req_per_s": two,
        "workers_4_req_per_s": four,
        "sharded_gain": four / one,
        "sharded_gain_2v1": two / one,
        "sharded_gain_2v1_attempts": [b / a for a, b in pairs],
    }


class _ChildServer:
    """A ``semimatch serve`` in its own process, so its memory and page
    faults are its own: a plain server, or with ``workers`` > 0 a
    sharded pool's front-end (its workers are processes of their own).
    ``src`` picks the source tree the child imports ``repro`` from
    (default: the one this bench runs)."""

    def __init__(self, src: str | None = None, workers: int = 0):
        src = src or str(Path(repro.__file__).resolve().parents[1])
        env = dict(os.environ)
        env["PYTHONPATH"] = os.pathsep.join(
            p for p in (src, env.get("PYTHONPATH")) if p
        )
        self.proc = subprocess.Popen(
            [sys.executable, "-m", "repro.experiments.cli", "serve",
             "--port", "0", "--allow-shutdown",
             "--workers", str(workers)],
            stdout=subprocess.PIPE, text=True, env=env,
        )
        line = self.proc.stdout.readline()
        found = re.search(r":(\d+) ", line)
        if found is None:
            self.proc.kill()
            self.proc.wait(10)
            raise RuntimeError(f"server did not start: {line!r}")
        self.port = int(found.group(1))
        self.pid = self.proc.pid

    def status_kib(self, field: str) -> int:
        """A ``/proc/<pid>/status`` field, in KiB (``VmRSS``, ...)."""
        text = Path(f"/proc/{self.pid}/status").read_text()
        return int(re.search(rf"^{field}:\s+(\d+)", text, re.M).group(1))

    def minor_faults(self) -> int:
        """Minor page faults, summed over the live threads."""
        total = 0
        for stat in Path(f"/proc/{self.pid}/task").glob("*/stat"):
            try:
                fields = stat.read_text().rsplit(")", 1)[1].split()
            except OSError:  # the thread exited meanwhile
                continue
            total += int(fields[7])  # field 10 of stat(5): minflt
        return total

    def __enter__(self) -> "_ChildServer":
        return self

    def __exit__(self, *exc) -> None:
        try:
            with ServiceClient(port=self.port) as client:
                client.shutdown()
            self.proc.wait(30)
        except Exception:
            self.proc.kill()
            self.proc.wait(10)
        self.proc.stdout.close()


def bench_cold_stream_memory(
    n_requests: int,
    *,
    n_tasks: int,
    n_procs: int,
    warmup: int = 4,
    workers: int = 0,
    distinct: bool = False,
    src: str | None = None,
) -> dict:
    """A server in a child process serves distinct weight variants of
    one fewgmanyg base (large-cold's traffic) one at a time: a plain
    server, or with ``workers`` > 0 a sharded pool, whose front-end is
    the process measured.  Records its ready RSS, its VmHWM after the
    stream, and the minor faults of every request after ``warmup``.

    Weight variants share one structure, so one compilation serves the
    whole stream.  ``distinct=True`` also relabels the processors of
    every request by a fresh random permutation: each request is then
    a structure of its own, of the same sizes, which is what exercises
    the compile cache's admission."""
    base = generate_multiproc(
        n_tasks, n_procs, family="fewgmanyg", g=32,
        weights="related", seed=1,
    )
    per_compile = compiled_nbytes(compile_instance(base))
    per_instance = instance_nbytes(base)
    rng = np.random.default_rng(7)

    def variant():
        scale = rng.uniform(0.5, 1.5, size=base.n_hedges)
        if not distinct:
            return base.with_weights(base.hedge_w * scale)
        relabel = rng.permutation(base.n_procs)
        return TaskHypergraph.from_csr(
            base.n_tasks, base.n_procs, base.hedge_task, base.hedge_ptr,
            relabel[base.hedge_procs], base.hedge_w * scale,
        )

    faults = []
    with _ChildServer(src, workers) as child:
        ready_kib = child.status_kib("VmRSS")
        with ServiceClient(port=child.port, timeout=600.0) as client:
            for k in range(warmup + n_requests):
                hg = variant()
                before = child.minor_faults()
                client.solve(hg, method="SGH")
                if k >= warmup:
                    faults.append(child.minor_faults() - before)
            hwm_kib = child.status_kib("VmHWM")
            caches = client.metrics().get("caches")
    growth = (hwm_kib - ready_kib) * 1024
    return {
        "instance": [n_tasks, n_procs],
        "workers": workers,
        "distinct_structures": distinct,
        "requests": n_requests,
        "warmup": warmup,
        "compiled_mib": per_compile / 2**20,
        "instance_mib": per_instance / 2**20,
        "ready_rss_mib": ready_kib / 1024,
        "vmhwm_mib": hwm_kib / 1024,
        "growth_mib": growth / 2**20,
        "growth_over_compiled": growth / per_compile,
        "growth_over_instance": growth / per_instance,
        "faults_per_request_median": statistics.median(faults),
        "faults_per_request_max": max(faults),
        "compile_cache": caches["compile"] if caches else None,
    }


def bench_wire_ingest(repeats: int) -> dict:
    """A large solve request's ingest and its answer's egress, in
    process, min of ``repeats`` interleaved rounds per leg:

    * ingest: the attachment wire path against ``from_csr`` alone on
      the same int32 arrays, and the serialize v2 (base64-in-JSON)
      request for reference;
    * egress: the server's answer (``SolveServer._solve_wire``) through
      ``encode_frame`` and the client's ``RemoteSolveResult.from_wire``
      of the decoded frame, against the same answer with the
      assignment as the JSON list it used to be;
    * digest: the digests the server takes of a wire instance as it
      arrived (its checks and ``packed_digests`` over the frame's
      attachment views) against one sha256 pass over the frame's tail
      bytes;
    * reweighted ingest: :func:`bench_reweighted_ingest`."""
    # imported here, not at module level: the module must import
    # against an older tree for --reference-src's child processes
    from repro.engine.cache import packed_digests
    from repro.service.wire import packed_instance

    hg = generate_multiproc(
        INGEST_TASKS, INGEST_PROCS, family="fewgmanyg", g=32,
        weights="related", seed=1,
    )
    packed = pack_hypergraph(hg)
    instance, tail = _received(hg)
    answer = api_solve(hg, method="SGH")
    shipped = SolveServer._solve_wire(answer)
    as_list = dict(
        shipped, assignment=answer.matching.hedge_of_task.tolist()
    )

    def from_csr():
        return TaskHypergraph.from_csr(
            hg.n_tasks, hg.n_procs, packed["hedge_task"],
            packed["hedge_ptr"], packed["hedge_procs"], packed["weights"],
        )

    def wire():
        frame = encode_frame(
            request("solve", 1, instance=instance_to_wire(hg))
        )
        return hypergraph_from_wire(decode_frame(frame)["instance"]), frame

    def base64_v2():
        line = (
            json.dumps(
                request("solve", 1, instance=hypergraph_to_dict(hg)),
                separators=(",", ":"),
            )
            + "\n"
        ).encode()
        return hypergraph_from_dict(json.loads(line)["instance"]), line

    def egress(result):
        def leg():
            reply = encode_frame(ok_response(1, result))
            return (
                RemoteSolveResult.from_wire(decode_frame(reply)["result"]),
                reply,
            )

        return leg

    legs = {
        "from_csr": from_csr, "wire": wire, "base64_v2": base64_v2,
        "egress": egress(shipped), "egress_json_list": egress(as_list),
    }
    best = dict.fromkeys([*legs, "digest", "tail_sha256"], float("inf"))
    sizes = {}
    for _ in range(repeats):
        for name, leg in legs.items():
            t0 = time.perf_counter()
            out = leg()
            best[name] = min(best[name], time.perf_counter() - t0)
            if name in ("wire", "base64_v2"):
                parsed, frame = out
                assert parsed.hedge_w.tobytes() == hg.hedge_w.tobytes()
                sizes[name] = len(frame)
            elif name != "from_csr":
                result, reply = out
                assert np.array_equal(
                    result.assignment, answer.matching.hedge_of_task
                )
                sizes[name] = len(reply)
        t0 = time.perf_counter()
        n_tasks, n_procs, arrays = packed_instance(instance)
        _, digest = packed_digests(n_tasks, n_procs, *arrays)
        best["digest"] = min(best["digest"], time.perf_counter() - t0)
        t0 = time.perf_counter()
        hashlib.sha256(tail).hexdigest()
        best["tail_sha256"] = min(
            best["tail_sha256"], time.perf_counter() - t0
        )
        assert digest == instance_digest(hg)
    return {
        "instance": [INGEST_TASKS, INGEST_PROCS],
        "repeats": repeats,
        "from_csr_ms": best["from_csr"] * 1e3,
        "wire_ingest_ms": best["wire"] * 1e3,
        "base64_v2_ingest_ms": best["base64_v2"] * 1e3,
        "wire_frame_mib": sizes["wire"] / 2**20,
        "base64_v2_frame_mib": sizes["base64_v2"] / 2**20,
        "wire_over_from_csr": best["wire"] / best["from_csr"],
        "base64_v2_over_from_csr": best["base64_v2"] / best["from_csr"],
        "egress_ms": best["egress"] * 1e3,
        "egress_json_list_ms": best["egress_json_list"] * 1e3,
        "answer_kib": sizes["egress"] / 1024,
        "answer_json_list_kib": sizes["egress_json_list"] / 1024,
        "egress_over_json_list": (
            best["egress"] / best["egress_json_list"]
        ),
        "digest_ms": best["digest"] * 1e3,
        "tail_sha256_ms": best["tail_sha256"] * 1e3,
        "digest_over_tail_sha256": best["digest"] / best["tail_sha256"],
        **bench_reweighted_ingest(repeats),
    }


def bench_reweighted_ingest(repeats: int) -> dict:
    """A server's ingest of a weight variant whose structure its compile
    cache holds: ``SolveServer._parse_instance`` of the decoded request
    plus ``compile_instance`` of the parsed instance, against one sha256
    pass over the request's frame tail, min of ``repeats`` interleaved
    rounds (each round a fresh variant, so no digest repeats).

    Uses only names that a checkout without structure-keyed compilation
    has too, so ``--reference-src`` runs the same leg there (in a child
    process importing that tree)."""
    base = generate_multiproc(
        INGEST_TASKS, INGEST_PROCS, family="fewgmanyg", g=32,
        weights="related", seed=1,
    )
    rng = np.random.default_rng(11)
    server = SolveServer()
    compile_instance(server._parse_instance(_received(base)[0]))
    best = {"reweighted": float("inf"), "tail_sha256": float("inf")}
    for _ in range(repeats):
        variant = base.with_weights(
            base.hedge_w * rng.uniform(0.5, 1.5, size=base.n_hedges)
        )
        instance, tail = _received(variant)
        t0 = time.perf_counter()
        compiled = compile_instance(server._parse_instance(instance))
        best["reweighted"] = min(
            best["reweighted"], time.perf_counter() - t0
        )
        t0 = time.perf_counter()
        hashlib.sha256(tail).hexdigest()
        best["tail_sha256"] = min(
            best["tail_sha256"], time.perf_counter() - t0
        )
        assert compiled.hypergraph.hedge_w.tobytes() == (
            variant.hedge_w.tobytes()
        )
    return {
        "reweighted_ingest_ms": best["reweighted"] * 1e3,
        "reweighted_tail_sha256_ms": best["tail_sha256"] * 1e3,
        "reweighted_over_tail_sha256": (
            best["reweighted"] / best["tail_sha256"]
        ),
    }


def _received(hg: TaskHypergraph) -> tuple[dict, bytes]:
    """``hg``'s solve request as a server decodes it, and the frame's
    tail bytes."""
    frame = encode_frame(request("solve", 1, instance=instance_to_wire(hg)))
    return (
        decode_frame(frame)["instance"],
        frame[frame.index(b"\n") + 1 :],
    )


def _reference_reweighted_ingest(src: str, repeats: int) -> dict:
    """:func:`bench_reweighted_ingest` in a child process importing
    ``repro`` from ``src``."""
    bench_dir = str(Path(__file__).resolve().parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, bench_dir, env.get("PYTHONPATH")) if p
    )
    out = subprocess.run(
        [sys.executable, "-c",
         "import json, bench_service_throughput as b; "
         f"print(json.dumps(b.bench_reweighted_ingest({repeats})))"],
        env=env, capture_output=True, text=True, check=True, timeout=600,
    )
    return json.loads(out.stdout.splitlines()[-1])


def run_bench(smoke: bool, reference_src: str | None = None) -> dict:
    n_small = 100 if smoke else 300
    n_dedup = 32 if smoke else 128
    stream_size = dict(
        n_requests=32 if smoke else 40,
        n_tasks=STREAM_SMOKE_TASKS if smoke else STREAM_TASKS,
        n_procs=STREAM_SMOKE_PROCS if smoke else STREAM_PROCS,
    )

    # a perf ratio on shared CI hardware deserves a retry: each attempt
    # is already best-of-3 per side, and every attempt is recorded
    attempts = []
    for _ in range(3):
        serial, cold, warm = bench_serial_vs_batched(n_small)
        attempts.append(cold["req_per_s"] / serial["req_per_s"])
        if attempts[-1] >= MIN_BATCHING_GAIN:
            break
    batching_gain = max(attempts)

    dedup = bench_dedup(n_dedup)
    dedup_gain = dedup["speedup_vs_serial_solves"]

    ingest_repeats = 5 if smoke else 9
    ingest = bench_wire_ingest(ingest_repeats)
    if reference_src is not None:
        ingest["reference"] = _reference_reweighted_ingest(
            reference_src, ingest_repeats
        )

    stream = bench_cold_stream_memory(**stream_size)
    distinct_stream = bench_cold_stream_memory(**stream_size, distinct=True)
    pool_stream = bench_cold_stream_memory(**stream_size, workers=2)
    if reference_src is not None:
        # the same legs against servers from another source tree (say,
        # a checkout of the parent commit): recorded, never asserted
        stream["reference"] = bench_cold_stream_memory(
            **stream_size, src=reference_src
        )
        distinct_stream["reference"] = bench_cold_stream_memory(
            **stream_size, distinct=True, src=reference_src
        )
        pool_stream["reference"] = bench_cold_stream_memory(
            **stream_size, workers=2, src=reference_src
        )

    sweep_levels = [100, 1000] if smoke else [100, 1000, 10000]
    sweep = bench_sharded_sweep(sweep_levels)
    scaling = bench_sharded_scaling(24 if smoke else 48)
    cpus = os.cpu_count() or 1
    sharded_waived = cpus < 4
    sharded_2v1_waived = cpus < 2
    report = {
        "bench": "service_throughput",
        "smoke": smoke,
        "config": {
            "small_instance": [SMALL_TASKS, SMALL_PROCS],
            "dedup_instance": [DEDUP_TASKS, DEDUP_PROCS],
            "dedup_method": DEDUP_METHOD,
        },
        "workloads": {
            "serial_cold": serial,
            "batched_cold": cold,
            "batched_warm": warm,
            "dedup_identical": dedup,
            "sharded_sweep": sweep,
            "sharded_scaling": scaling,
            "wire_ingest": ingest,
            "cold_stream_memory": stream,
            "cold_stream_distinct_memory": distinct_stream,
            "pool_cold_stream_memory": pool_stream,
        },
        "assertions": {
            "batching_gain": batching_gain,
            "batching_gain_attempts": attempts,
            "min_batching_gain": MIN_BATCHING_GAIN,
            "dedup_gain": dedup_gain,
            "min_dedup_gain": MIN_DEDUP_GAIN,
            "sharded_gain": scaling["sharded_gain"],
            "min_sharded_gain": MIN_SHARDED_GAIN,
            "sharded_guard_waived": sharded_waived,
            "sharded_gain_2v1": scaling["sharded_gain_2v1"],
            "min_sharded_gain_2v1": MIN_SHARDED_GAIN_2V1,
            "sharded_2v1_guard_waived": sharded_2v1_waived,
            "ingest_over_from_csr": ingest["wire_over_from_csr"],
            "max_ingest_over_from_csr": MAX_INGEST_OVER_CSR,
            "egress_over_json_list": ingest["egress_over_json_list"],
            "max_egress_over_json_list": MAX_EGRESS_OVER_JSON_LIST,
            "digest_over_tail_sha256": ingest["digest_over_tail_sha256"],
            "max_digest_over_tail_sha256": MAX_DIGEST_OVER_TAIL_SHA256,
            "reweighted_over_tail_sha256": ingest[
                "reweighted_over_tail_sha256"
            ],
            "max_reweighted_over_tail_sha256": (
                MAX_REWEIGHTED_OVER_TAIL_SHA256
            ),
            "stream_growth_over_compiled": stream["growth_over_compiled"],
            "max_stream_growth_over_compiled": MAX_STREAM_GROWTH_COMPILES,
            "stream_faults_per_request": stream["faults_per_request_median"],
            "distinct_stream_growth_over_compiled": distinct_stream[
                "growth_over_compiled"
            ],
            "distinct_stream_faults_per_request": distinct_stream[
                "faults_per_request_median"
            ],
            "max_stream_faults_per_request": MAX_STREAM_FAULTS_PER_REQUEST,
            "pool_stream_growth_over_instance": pool_stream[
                "growth_over_instance"
            ],
            "max_pool_stream_growth_over_instance": (
                MAX_POOL_STREAM_GROWTH_INSTANCES
            ),
        },
    }
    if sharded_waived:
        report["assertions"]["sharded_guard_waiver_reason"] = (
            f"host has {cpus} cpu(s); the 4-worker scaling guard needs "
            f">= 4 real cores to mean anything"
        )
    return report


def check(report: dict) -> None:
    a = report["assertions"]
    assert a["batching_gain"] >= a["min_batching_gain"], (
        f"micro-batching gained only {a['batching_gain']:.2f}x over "
        f"serial per-request throughput (floor "
        f"{a['min_batching_gain']:g}x)"
    )
    assert a["dedup_gain"] >= a["min_dedup_gain"], (
        f"single-flight dedup gained only {a['dedup_gain']:.2f}x on the "
        f"all-duplicates workload (floor {a['min_dedup_gain']:g}x)"
    )
    assert a["ingest_over_from_csr"] <= a["max_ingest_over_from_csr"], (
        f"wire ingest of an n={INGEST_TASKS} instance costs "
        f"{a['ingest_over_from_csr']:.2f}x from_csr alone (ceiling "
        f"{a['max_ingest_over_from_csr']:g}x)"
    )
    assert a["egress_over_json_list"] <= a["max_egress_over_json_list"], (
        f"an n={INGEST_TASKS} solve answer's encode plus decode costs "
        f"{a['egress_over_json_list']:.2f}x the same answer with a JSON "
        f"list assignment (ceiling {a['max_egress_over_json_list']:g}x)"
    )
    assert (
        a["digest_over_tail_sha256"] <= a["max_digest_over_tail_sha256"]
    ), (
        f"a wire instance's digest costs "
        f"{a['digest_over_tail_sha256']:.2f}x one sha256 pass over its "
        f"frame tail (ceiling {a['max_digest_over_tail_sha256']:g}x)"
    )
    assert (
        a["reweighted_over_tail_sha256"]
        <= a["max_reweighted_over_tail_sha256"]
    ), (
        f"a weight variant of a cached structure costs "
        f"{a['reweighted_over_tail_sha256']:.2f}x one sha256 pass over "
        f"its frame tail to parse and compile (ceiling "
        f"{a['max_reweighted_over_tail_sha256']:g}x)"
    )
    for stream in ("stream", "distinct_stream"):
        growth = a[f"{stream}_growth_over_compiled"]
        faults = a[f"{stream}_faults_per_request"]
        what = stream.replace("_", " ")
        assert growth <= a["max_stream_growth_over_compiled"], (
            f"a cold {what} grew the server's peak RSS by {growth:.1f} "
            f"compilations of one instance over its ready RSS (ceiling "
            f"{a['max_stream_growth_over_compiled']:g})"
        )
        assert faults <= a["max_stream_faults_per_request"], (
            f"a warm cold-{what} request took {faults:g} minor page "
            f"faults at the median (ceiling "
            f"{a['max_stream_faults_per_request']})"
        )
    assert (
        a["pool_stream_growth_over_instance"]
        <= a["max_pool_stream_growth_over_instance"]
    ), (
        f"a cold stream grew a 2-worker pool front-end's peak RSS by "
        f"{a['pool_stream_growth_over_instance']:.1f} instances' arrays "
        f"over its ready RSS (ceiling "
        f"{a['max_pool_stream_growth_over_instance']:g})"
    )
    if not a.get("sharded_guard_waived"):
        assert a["sharded_gain"] >= a["min_sharded_gain"], (
            f"4 workers gained only {a['sharded_gain']:.2f}x over 1 "
            f"worker on the CPU-bound cold workload (floor "
            f"{a['min_sharded_gain']:g}x)"
        )
    if not a.get("sharded_2v1_guard_waived"):
        assert a["sharded_gain_2v1"] >= a["min_sharded_gain_2v1"], (
            f"2 workers gained only {a['sharded_gain_2v1']:.2f}x over 1 "
            f"worker on the CPU-bound cold workload (floor "
            f"{a['min_sharded_gain_2v1']:g}x)"
        )


def test_service_throughput_smoke():
    """Pytest entry point (what ``pytest benchmarks`` exercises)."""
    check(run_bench(smoke=True))


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--smoke", action="store_true",
        help="smaller request counts, same assertions (what CI runs)",
    )
    ap.add_argument(
        "--out", default="BENCH_service.json", metavar="PATH",
        help="where to write the JSON report",
    )
    ap.add_argument(
        "--reference-src", default=None, metavar="DIR",
        help="also run the cold-stream memory leg against a server "
             "importing repro from DIR (e.g. the src/ of a checkout of "
             "the parent commit) and record it beside this tree's",
    )
    args = ap.parse_args(argv)

    report = run_bench(smoke=args.smoke, reference_src=args.reference_src)
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")

    w = report["workloads"]
    print(f"serial   : {w['serial_cold']['req_per_s']:8.0f} req/s")
    print(
        f"batched  : {w['batched_cold']['req_per_s']:8.0f} req/s "
        f"({report['assertions']['batching_gain']:.1f}x)"
    )
    print(f"warm     : {w['batched_warm']['req_per_s']:8.0f} req/s")
    print(
        f"dedup    : {w['dedup_identical']['req_per_s']:8.0f} req/s "
        f"({report['assertions']['dedup_gain']:.1f}x vs serial solves)"
    )
    for level in w["sharded_sweep"]["levels"]:
        print(
            f"sharded  : {level['req_per_s']:8.0f} req/s "
            f"@ {level['concurrency']} concurrent "
            f"({w['sharded_sweep']['n_workers']} workers)"
        )
    scaling = w["sharded_scaling"]
    waived = report["assertions"]["sharded_guard_waived"]
    print(
        f"scaling  : {scaling['sharded_gain']:.2f}x (4 vs 1 workers, "
        f"cold {SCALE_METHOD})"
        + ("  [guard waived: too few cpus]" if waived else "")
    )
    print(
        f"scaling  : {scaling['sharded_gain_2v1']:.2f}x (2 vs 1 workers)"
    )
    ingest = w["wire_ingest"]
    print(
        f"ingest   : {ingest['wire_ingest_ms']:8.1f} ms wire "
        f"({ingest['wire_over_from_csr']:.2f}x from_csr), "
        f"{ingest['base64_v2_ingest_ms']:.1f} ms base64 v2 "
        f"({ingest['base64_v2_over_from_csr']:.1f}x)"
    )
    print(
        f"egress   : {ingest['egress_ms']:8.2f} ms answer encode+decode "
        f"({ingest['egress_over_json_list']:.2f}x the JSON list's "
        f"{ingest['egress_json_list_ms']:.2f} ms)"
    )
    print(
        f"digest   : {ingest['digest_ms']:8.2f} ms "
        f"({ingest['digest_over_tail_sha256']:.2f}x sha256 of the tail)"
    )
    stream = w["cold_stream_memory"]
    for label, leg in (("stream", stream), ("ref", stream.get("reference"))):
        if leg is not None:
            print(
                f"{label:<9}: peak +{leg['growth_mib']:.0f} MiB over ready "
                f"({leg['growth_over_compiled']:.1f}x one compilation), "
                f"{leg['faults_per_request_median']:g} faults/request"
            )
    pool_stream = w["pool_cold_stream_memory"]
    for label, leg in (
        ("pool", pool_stream), ("pool ref", pool_stream.get("reference"))
    ):
        if leg is not None:
            print(
                f"{label:<9}: front-end peak +{leg['growth_mib']:.0f} MiB "
                f"over ready ({leg['growth_over_instance']:.1f}x one "
                f"instance's arrays)"
            )
    print(f"wrote {args.out}")
    check(report)
    print(
        f"OK: batching >= {MIN_BATCHING_GAIN:g}x, "
        f"dedup >= {MIN_DEDUP_GAIN:g}x, "
        f"2 vs 1 workers >= {MIN_SHARDED_GAIN_2V1:g}x, "
        f"ingest <= {MAX_INGEST_OVER_CSR:g}x from_csr, "
        f"cold-stream growth <= {MAX_STREAM_GROWTH_COMPILES:g} "
        f"compilations and <= {MAX_STREAM_FAULTS_PER_REQUEST} "
        f"faults/request, pool front-end growth <= "
        f"{MAX_POOL_STREAM_GROWTH_INSTANCES:g} instances"
        + (
            ""
            if waived
            else f", sharding >= {MIN_SHARDED_GAIN:g}x"
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
