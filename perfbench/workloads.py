"""The three workloads: seeded inputs, the timed phase, answer checks.

Every workload builds its inputs from the seed and runs ``gc.collect()``
before anything is timed, starts its program from freshly spawned
processes (``setup_s`` is the median over several cold starts), keeps a
warm-up out of the timing, validates every answer against the caller's
own instance after the timing, and compares a sample of answers
bit-for-bit with a local solve.  A host-speed probe is timed before
every operation and every cold start, and each timing is reported at
the reference speed (:func:`common.at_reference_speed`).

A traced run (``traced=True``) interleaves operations made under the
program's own tracing (``repro.obs``: the client sends its trace
context, the server collects its spans and ships them back) with bare
ones, bounds closed loops by operation count instead of time (so the
program's own counters repeat exactly for one seed), and hands the
recorded answers to :mod:`layers`, which replays the same inputs
through each layer's public functions.
"""

from __future__ import annotations

import gc
import math
import pickle
import time
from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

import layers
from common import Probe, Program, at_reference_speed, median, tail

# The program's public surface.  Imported here, after run.py has put
# the checkout's ``src`` on the path.
from repro import api
from repro.algorithms import combined_bound
from repro.core.semimatching import HyperSemiMatching
from repro.dynamic import DynamicInstance
from repro.experiments.instances import MEDIUM_SPECS, SMALL_SPECS
from repro.generators import churn_trace
from repro.generators.multiproc import generate_multiproc
from repro.generators.weights import related_weights
from repro.obs import span, tracing
from repro.service import RemoteError, ServiceClient

PAPER_METHODS = ("SGH", "VGH", "EGH", "EVG")

#: Workload sizes.  ``short`` shrinks every input so the benchmark's
#: own tests finish in seconds; the metrics keep their names and units.
CONFIGS = {
    "full": {
        "large-cold": dict(
            n=10240, p=2048, bases=2, method="SGH", cold_starts=7,
            warmup=2, rss_at_op=24, traced_ops_per_s=2.0,
        ),
        # 16-mutation batches: repair work, not the two loopback hops and
        # their wake-ups, dominates each operation (4-mutation batches
        # spread by 40% over ten seeds on a 2-CPU VM).  A fresh session's
        # first ~40 batches run up to twice as slow as the rest, so the
        # warm-up covers them
        "session-pool": dict(
            n=5120, p=1024, batch=16, method="EVG", cold_starts=3,
            warmup=48, max_batches_per_s=11.0, check_batches=2,
            replay_batches=6, checkpoint=96, traced_batches_per_s=8.0, burst=4,
        ),
        "paper-batch": dict(
            specs=MEDIUM_SPECS, min_sweeps=3, traced_sweeps=2,
            replay_instances=4, cold_starts=5,
        ),
    },
    "short": {
        "large-cold": dict(
            n=1280, p=256, bases=2, method="SGH", cold_starts=2,
            warmup=1, rss_at_op=2, traced_ops_per_s=8.0,
        ),
        "session-pool": dict(
            n=640, p=128, batch=4, method="EVG", cold_starts=2,
            warmup=2, max_batches_per_s=100.0, check_batches=2,
            replay_batches=4, checkpoint=8, traced_batches_per_s=20.0, burst=2,
        ),
        "paper-batch": dict(
            specs=SMALL_SPECS[:2], min_sweeps=1, traced_sweeps=2,
            replay_instances=2, cold_starts=2,
        ),
    },
}


@dataclass
class Run:
    """What one workload run measured and checked."""

    attempted: int = 0
    failed: int = 0
    invalid: int = 0
    errors: dict = field(default_factory=dict)
    e2e: dict = field(default_factory=dict)
    layer: dict = field(default_factory=dict)
    detail: dict = field(default_factory=dict)

    def error(self, code: str) -> None:
        self.failed += 1
        self.errors[code] = self.errors.get(code, 0) + 1

    def check(self, ok: bool, what: str) -> None:
        """Count one answer check; a failed one marks the run incorrect."""
        if not ok:
            self.invalid += 1
            self.errors[f"invalid:{what}"] = (
                self.errors.get(f"invalid:{what}", 0) + 1
            )

    def latency(self, ops: list[tuple[float, float]]) -> None:
        """Median, tail and goodput of every timed operation, given in
        order as ``(seconds, probe seconds)``, at the reference speed."""
        seconds = at_reference_speed(ops)
        ms = [s * 1e3 for s in seconds]
        q, value, beyond = tail(ms)
        self.e2e["latency_p50_ms"] = median(ms)
        self.e2e["latency_tail_ms"] = value
        # a closed loop keeps one operation in flight: its goodput is
        # the operations per second spent waiting on them
        self.e2e["goodput_ops"] = len(ms) / sum(seconds)
        self.detail["tail"] = {
            "percentile": q, "beyond": beyond, "samples": len(ms),
        }
        self.detail["measured"] = {
            "p50_ms": median([s * 1e3 for s, _ in ops]),
            "probe_ms": median([p * 1e3 for _, p in ops]),
        }

    def finish(self, setup: list[tuple[float, float]], rss_mb: float,
               ratios: list[float]) -> None:
        # cold starts lie seconds apart: each is scaled by its own probe
        self.e2e["setup_s"] = median(at_reference_speed(setup, window_s=0))
        self.e2e["peak_rss_mb"] = rss_mb
        self.e2e["makespan_over_lb"] = float(np.mean(ratios))
        bad = self.failed + self.invalid
        self.e2e["ok_ratio"] = (self.attempted - bad) / max(self.attempted, 1)
        self.detail["setup_measured_s"] = [s for s, _ in setup]
        self.detail["failed_ratio"] = bad / max(self.attempted, 1)
        self.detail["errors"] = self.errors


# ----------------------------------------------------------------------
# shared helpers
# ----------------------------------------------------------------------
def _rng(seed: int, *stream: int) -> np.random.Generator:
    return np.random.default_rng([seed, *stream])


def _fewgmanyg(n: int, p: int, rng: np.random.Generator):
    return generate_multiproc(
        n, p, family="fewgmanyg", g=32, weights="related", seed=rng
    )


def _variant(base, rng: np.random.Generator):
    """``base`` with each weight raised by 0 or 1: the same structure
    under a new content digest, so every request is a cold one."""
    return base.with_weights(base.hedge_w + rng.integers(0, 2, base.n_hedges))


@contextmanager
def _traced(on: bool, name: str):
    """The program's own tracing around one operation: with it on, the
    client sends its trace context, and the server collects its spans
    and ships them back on the response, where the client files them."""
    if not on:
        yield
        return
    with tracing(True), span(name):
        yield


def _shutdown(program: Program) -> None:
    spawned = program.descendants()
    try:
        with ServiceClient(port=program.port, timeout=30) as client:
            client.shutdown()
    except (OSError, RemoteError):
        pass
    program.wait(30)
    program.stop(spawned)


def _cold_start(kind: str, probe: Probe) -> tuple[Program, tuple]:
    """Spawn one program, timed from spawn to ready (its first answered
    ``ping`` for a server or pool, its ready line for the library), with
    a probe timed just before: ``(program, (seconds, probe seconds))``."""
    speed = probe()
    start = time.perf_counter()
    program = Program(kind)
    if program.port is not None:
        with ServiceClient(port=program.port) as client:
            client.ping()
    return program, (time.perf_counter() - start, speed)


def _spare_cold_starts(kind: str, count: int, probe: Probe) -> list[tuple]:
    """``count`` cold starts whose programs are stopped again."""
    samples = []
    for _ in range(count):
        program, ready = _cold_start(kind, probe)
        if program.port is None:
            program.stop()
        else:
            _shutdown(program)
        samples.append(ready)
    return samples


def _serving(kind: str, count: int, probe: Probe) -> tuple[Program, list]:
    """Half of a run's ``count`` cold starts, the last of which serves
    the run.  The rest follow the timed phase, so that one slow stretch
    of the host does not decide the setup median."""
    setup = _spare_cold_starts(kind, count // 2, probe)
    program, ready = _cold_start(kind, probe)
    return program, setup + [ready]


def _rebuilt(result, hg):
    """The client's re-validation of an answer against its own
    instance (``None`` when the assignment is not a valid matching)."""
    try:
        return result.matching(hg)
    except Exception:
        return None


def _answer_ok(hg, assignment, makespan: float, bound: float) -> bool:
    """Rebuild the matching against the caller's instance; its makespan
    must equal the reported one and respect the lower bound."""
    try:
        rebuilt = HyperSemiMatching(hg, assignment)
    except Exception:
        return False
    return rebuilt.makespan == makespan and makespan >= bound


def _same_as_local(hg, method: str, assignment, makespan: float) -> bool:
    local = api.solve(hg, method=method)
    return (
        np.array_equal(local.matching.hedge_of_task, assignment)
        and local.makespan == makespan
    )


def _closed_loop_done(traced: bool, k: int, ops: int, deadline: float) -> bool:
    if traced:
        return k >= ops
    return time.perf_counter() >= deadline


def _ping(client: ServiceClient, pings: list[float]) -> None:
    start = time.perf_counter()
    client.ping()
    pings.append(time.perf_counter() - start)


# ----------------------------------------------------------------------
# large-cold
# ----------------------------------------------------------------------
def large_cold(cfg: dict, seed: int, seconds: float, traced: bool) -> Run:
    run = Run()
    bases = [
        _fewgmanyg(cfg["n"], cfg["p"], _rng(seed, 1, b))
        for b in range(cfg["bases"])
    ]

    def variant(i: int):
        return _variant(bases[i % len(bases)], _rng(seed, 2, i))

    traced_ops = 2 * len(bases) * max(
        1, math.ceil(seconds * cfg["traced_ops_per_s"] / (2 * len(bases)))
    )
    probe = Probe()
    gc.collect()
    program, setup = _serving("server", cfg["cold_starts"], probe)
    # (hg, result, matching, seconds, probe seconds, traced)
    records = []
    pings: list[float] = []
    rss = None
    try:
        client = ServiceClient(port=program.port)
        i = 0
        for _ in range(cfg["warmup"]):
            hg = variant(i)
            i += 1
            run.attempted += 1
            result = client.solve(hg, method=cfg["method"])
            run.check(
                _answer_ok(
                    hg, result.assignment, result.makespan, combined_bound(hg)
                ),
                "answer",
            )
        gc.collect()
        k = 0
        deadline = time.perf_counter() + seconds
        while not _closed_loop_done(traced, k, traced_ops, deadline):
            if k == cfg["rss_at_op"]:
                # the server's footprint keeps growing with every new
                # instance until its caches fill: read it at a fixed
                # point of the stream, not wherever the clock stopped
                rss = program.peak_rss_mb()
            hg = variant(i)
            i += 1
            # alternate in blocks of len(bases) so that traced and bare
            # operations see every base equally often
            on = traced and (k // len(bases)) % 2 == 1
            k += 1
            run.attempted += 1
            speed = probe()
            start = time.perf_counter()
            try:
                with _traced(on, "bench.solve"):
                    result = client.solve(hg, method=cfg["method"])
                    matching = _rebuilt(result, hg)
            except RemoteError as exc:
                run.error(exc.code)
                continue
            elapsed = time.perf_counter() - start
            if matching is None:
                run.check(False, "matching")
                continue
            records.append((hg, result, matching, elapsed, speed, on))
            if traced:
                _ping(client, pings)
        counters = client.metrics()
        if rss is None:
            rss = program.peak_rss_mb()
        client.close()
    finally:
        _shutdown(program)
    setup += _spare_cold_starts(
        "server", cfg["cold_starts"] - len(setup), probe
    )

    ratios = []
    for hg, result, matching, *_ in records:
        bound = combined_bound(hg)
        run.check(
            matching.makespan == result.makespan and result.makespan >= bound,
            "answer",
        )
        ratios.append(result.makespan / bound)
    hg, result = records[0][0], records[0][1]
    run.check(
        _same_as_local(hg, cfg["method"], result.assignment, result.makespan),
        "remote-vs-local",
    )
    run.latency([(r[3], r[4]) for r in records if not r[5]])
    run.finish(setup, rss, ratios)
    run.detail["ops"] = len(records)
    if traced:
        run.layer = layers.large_cold(records, counters, pings)
    return run


# ----------------------------------------------------------------------
# session-pool
# ----------------------------------------------------------------------
def session_pool(cfg: dict, seed: int, seconds: float, traced: bool) -> Run:
    run = Run()
    baseline = _fewgmanyg(cfg["n"], cfg["p"], _rng(seed, 1))
    traced_batches = max(2, math.ceil(seconds * cfg["traced_batches_per_s"]))
    planned = cfg["warmup"] + (
        traced_batches
        if traced
        else math.ceil(seconds * cfg["max_batches_per_s"])
    )
    trace = churn_trace(baseline, planned * cfg["batch"], seed=seed)
    batches = [
        [m.to_dict() for m in trace[lo : lo + cfg["batch"]]]
        for lo in range(0, len(trace), cfg["batch"])
    ]
    probe = Probe()
    # (batch index, description, seconds, probe seconds, traced)
    answers = []
    pings: list[float] = []
    gc.collect()
    program, setup = _serving("pool", cfg["cold_starts"], probe)
    try:
        client = ServiceClient(port=program.port)
        session = client.open_session(baseline, method=cfg["method"])
        opened = session.info
        applied = 0

        def mutate(index: int, on: bool) -> None:
            nonlocal applied
            run.attempted += 1
            speed = probe()
            start = time.perf_counter()
            try:
                with _traced(on, "bench.mutate"):
                    info = session.mutate(batches[index])
            except RemoteError as exc:
                run.error(exc.code)
                return
            elapsed = time.perf_counter() - start
            applied += len(batches[index])
            bottleneck = info.get("bottleneck")
            run.check(
                info.get("applied") == len(batches[index])
                and info.get("mutations") == applied
                and isinstance(bottleneck, float)
                and math.isfinite(bottleneck)
                and bottleneck > 0,
                "mutate",
            )
            answers.append((index, info, elapsed, speed, on))

        index = 0
        for _ in range(cfg["warmup"]):
            mutate(index, False)
            index += 1
        warm = len(answers)
        gc.collect()
        k = 0
        deadline = time.perf_counter() + seconds
        while index < len(batches) and not _closed_loop_done(
            traced, k, traced_batches, deadline
        ):
            mutate(index, traced and k % 2 == 1)
            index += 1
            k += 1
            if traced:
                _ping(client, pings)
        final = session.mutate([], include_assignment=True)
        bursts = []
        if traced:
            # solves through the pool after the stream: one pipelined
            # burst of baseline variants, some sent twice, then the same
            # burst again, so the front-end's single-flight, the workers'
            # micro-batcher and their result caches all see work; the
            # front-end and worker service.op.solve windows give the hop
            variants = [
                _variant(baseline, _rng(seed, 9, j))
                for j in range(cfg["burst"])
            ]
            burst = variants + variants[: cfg["burst"] // 2]
            for _ in range(2):
                bursts += [
                    r.stats
                    for r in client.solve_pipelined(
                        burst, method=cfg["method"]
                    )
                ]
        counters = client.metrics()
        rss = program.peak_rss_mb()
        client.close()
    finally:
        _shutdown(program)
    setup += _spare_cold_starts("pool", cfg["cold_starts"] - len(setup), probe)

    # the quality ratio at a fixed batch that every run reaches, so it
    # does not depend on how far the time-bound stream got
    position, info, *_ = answers[min(cfg["checkpoint"], len(answers) - 1)]
    instance = DynamicInstance.from_hypergraph(baseline)
    instance.replay(trace[: (position + 1) * cfg["batch"]])
    ratio = info["bottleneck"] / combined_bound(instance.to_hypergraph())
    # the final answer, rebuilt against the caller's own replay of the
    # same mutations: its loads must reproduce the reported bottleneck
    instance.replay(trace[(position + 1) * cfg["batch"] : index * cfg["batch"]])
    loads = {u: 0.0 for u in instance.procs()}
    try:
        for task in instance.tasks():
            pins, weight = instance.config(
                task, int(final["assignment"][str(task)])
            )
            for u in pins:
                loads[u] += weight
        rebuilt_ok = len(final["assignment"]) == instance.n_tasks
    except Exception:
        rebuilt_ok = False
    bottleneck = float(final["bottleneck"])
    bound = combined_bound(instance.to_hypergraph())
    run.check(
        rebuilt_ok
        and math.isclose(max(loads.values()), bottleneck, rel_tol=1e-9)
        and bottleneck >= bound,
        "final",
    )
    # the remote session against a local incremental solver on the
    # same prefix: every bottleneck must agree bit for bit (a traced run
    # replays a longer prefix, which dynamic.repair_ms is timed on)
    checked = cfg["replay_batches" if traced else "check_batches"]
    local = layers.dynamic_replay(baseline, batches[:checked], cfg["method"])
    remote = [opened["bottleneck"]] + [
        info["bottleneck"] for _, info, *_ in answers[:checked]
    ]
    run.check(local["bottlenecks"] == remote, "remote-vs-local")
    timed = answers[warm:]
    run.latency([(a[2], a[3]) for a in timed if not a[4]])
    run.finish(setup, rss, [ratio])
    run.detail.update(
        batches=len(timed),
        trace_exhausted=index >= len(batches),
        ratio_at_batch=position,
        final_ratio=bottleneck / bound,
    )
    if traced:
        run.layer = layers.session_pool(
            baseline, timed, batches, final, counters, bursts, local, pings,
        )
    return run


# ----------------------------------------------------------------------
# paper-batch
# ----------------------------------------------------------------------
def _paper_instances(specs, rng_stream):
    """One draw of every spec, unit weights and the same structure under
    the paper's related (``-W``) weights."""
    instances, names = [], []
    for k, spec in enumerate(specs):
        unit = spec.generate(rng_stream(k))
        instances += [unit, unit.with_weights(related_weights(unit))]
        names += [spec.name, spec.name + "-W"]
    return instances, names


def _sweep(instances, trace: bool, probe: Probe) -> tuple[dict, tuple]:
    """One sweep in a fresh library process:
    ``(answers, (setup seconds, probe seconds))``."""
    speed = probe()
    start = time.perf_counter()
    program = Program("library")
    ready = (time.perf_counter() - start, speed)
    try:
        pickle.dump(
            {"instances": instances, "methods": PAPER_METHODS, "trace": trace},
            program.proc.stdin,
        )
        program.proc.stdin.close()
        out = pickle.load(program.proc.stdout)
        program.wait(60)
    finally:
        program.stop()
    return out, ready


def paper_batch(cfg: dict, seed: int, seconds: float, traced: bool) -> Run:
    run = Run()
    probe = Probe()
    sweeps, ratios = [], []
    # cold starts of their own beside the one each sweep makes, so the
    # setup median rests on more than a handful of samples; half of
    # them come after the sweeps
    setup = _spare_cold_starts("library", cfg["cold_starts"] // 2, probe)
    draws: dict[int, tuple] = {}
    first = None
    timed = 0.0
    while True:
        if traced:
            if len(sweeps) >= cfg["traced_sweeps"]:
                break
        elif len(sweeps) >= cfg["min_sweeps"] and (
            # stop at the sweep count that lands closest to the budget
            timed + timed / len(sweeps) / 2 >= seconds
        ):
            break
        # sweeps alternate between two draws of every spec, as the paper
        # averages over several instances per spec; a traced run repeats
        # its first draw, so its bare and traced sweeps do the same work
        draw = 0 if traced else len(sweeps) % 2
        if draw not in draws:
            instances, names = _paper_instances(
                cfg["specs"], lambda k: _rng(seed, 1 + draw, k)
            )
            draws[draw] = (
                instances, names, [combined_bound(hg) for hg in instances]
            )
        instances, names, bounds = draws[draw]
        gc.collect()
        out, ready = _sweep(instances, traced and len(sweeps) % 2 == 1, probe)
        setup.append(ready)
        sweeps.append(out)
        timed += sum(rec["seconds"] for rec in out["records"])
        for rec in out["records"]:
            i = rec["instance"]
            run.attempted += 1
            run.check(
                _answer_ok(
                    instances[i], rec["assignment"], rec["makespan"], bounds[i]
                ),
                "answer",
            )
            ratios.append(rec["makespan"] / bounds[i])
        if first is None:
            first = instances
            for rec in (out["records"][0], out["records"][-1]):
                run.check(
                    _same_as_local(
                        instances[rec["instance"]],
                        rec["method"],
                        rec["assignment"],
                        rec["makespan"],
                    ),
                    "remote-vs-local",
                )

    setup += _spare_cold_starts(
        "library", cfg["cold_starts"] - cfg["cold_starts"] // 2, probe
    )
    records = [rec for out in sweeps for rec in out["records"]]
    run.latency(
        [(rec["seconds"], rec["probe"]) for rec in records if not rec["traced"]]
    )
    run.finish(setup, median([o["peak_rss_mb"] for o in sweeps]), ratios)
    run.detail.update(sweeps=len(sweeps), instances=names)
    if traced:
        run.layer = layers.paper_batch(first, sweeps, cfg)
    return run


WORKLOADS = {
    "large-cold": large_cold,
    "session-pool": session_pool,
    "paper-batch": paper_batch,
}
