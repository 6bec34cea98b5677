"""Tracing overhead bench: ``BENCH_obs.json`` + two hard guards.

The observability layer's bargain is "always compiled in, never felt":
every hot path in the engine carries ``span(...)`` calls, so their cost
must be provably negligible.  This bench measures the same engine
workload three ways:

* ``stubbed`` — the span factories in every instrumented module are
  monkey-patched to inert stand-ins (``measured_span`` keeps its one
  ``perf_counter`` pair, which the pre-tracing code paid anyway for
  ``wall_time_s``): the counterfactual un-instrumented engine;
* ``disabled`` — the real tracer, tracing off (the library default):
  one module-flag check per span site, no allocation;
* ``enabled`` — tracing on, every span recorded into the ring buffer
  (the server default).

Hard assertions (run by CI in ``--smoke`` mode on every push):

* ``disabled``  <= ``MAX_DISABLED_RATIO``  (1.02x) of ``stubbed``;
* ``enabled``   <= ``MAX_ENABLED_RATIO``   (1.10x) of ``stubbed``;
* ``stitched``  <= ``MAX_STITCHED_RATIO``  (1.10x) of the untraced
  worker hop — a **sharded leg** runs the same warm burst against a
  2-worker pool with tracing (and therefore span piggybacking across
  the hop) off vs on, so the ratio prices exactly the distributed
  stitching: span collection, the envelope ``spans`` field, and the
  client-side ingest;

each with a small absolute slack so a sub-millisecond jitter on a fast
workload cannot fail a ratio that is meaningless at that scale.  Times
are min-of-``repeats`` per mode, interleaved round-robin so drift hits
every mode equally (the sharded pools run sequentially — two pools
sharing one process would share the process-wide tracing flag).

Run:    PYTHONPATH=src python benchmarks/bench_obs_overhead.py
Smoke:  ... bench_obs_overhead.py --smoke --out BENCH_obs.json
Pytest: PYTHONPATH=src python -m pytest benchmarks/bench_obs_overhead.py
"""

from __future__ import annotations

import argparse
import contextlib
import json
import sys
import time
from pathlib import Path

from repro.engine.batch import BatchSolver
from repro.generators import generate_multiproc
from repro.obs import trace as obs_trace

MAX_DISABLED_RATIO = 1.02
MAX_ENABLED_RATIO = 1.10
MAX_STITCHED_RATIO = 1.10
#: absolute slack per guard: ratios below this wall-clock delta are
#: noise, not overhead (CI runners jitter by more than this)
ABS_SLACK_S = 0.010
#: the sharded leg crosses process boundaries, where scheduler jitter
#: dwarfs the in-process slack
SHARDED_SLACK_S = 0.025

#: every module holding a from-import of the span factories; stubbing
#: must patch the *bound names*, not repro.obs.trace itself
_INSTRUMENTED = {
    "repro.engine.batch": (
        "span", "measured_span", "adopt", "collect_timings",
        "ingest", "ship_context",
    ),
    "repro.engine.dispatch": ("span",),
    "repro.engine.cache": ("span",),
    "repro.engine.transport": ("span",),
    "repro.kernels.compiled": ("span",),
    "repro.dynamic.solver": ("span",),
}


# ---------------------------------------------------------------------------
# the counterfactual: inert stand-ins for the tracing surface
# ---------------------------------------------------------------------------
class _StubSpan:
    recording = False
    duration_s = 0.0

    def set(self, **attrs):
        return self

    def __enter__(self):
        return self

    def __exit__(self, *exc):
        return False


_STUB = _StubSpan()


class _StubMeasured:
    """Times like the pre-tracing code did (one perf_counter pair)."""

    __slots__ = ("_t0", "duration_s")
    recording = False

    def set(self, **attrs):
        return self

    def __enter__(self):
        self.duration_s = 0.0
        self._t0 = time.perf_counter()
        return self

    def __exit__(self, *exc):
        self.duration_s = time.perf_counter() - self._t0
        return False


def _stub_span(name, **attrs):
    return _STUB


def _stub_measured(name, **attrs):
    return _StubMeasured()


@contextlib.contextmanager
def _stub_timings():
    yield {}


@contextlib.contextmanager
def _stub_adopt(ctx):
    yield None


_STUBS = {
    "span": _stub_span,
    "measured_span": _stub_measured,
    "adopt": _stub_adopt,
    "collect_timings": _stub_timings,
    "ingest": lambda records: None,
    "ship_context": lambda: None,
}


@contextlib.contextmanager
def stubbed_tracing():
    """Replace every instrumented module's span bindings with stubs."""
    saved = []
    for modname, names in _INSTRUMENTED.items():
        mod = sys.modules.get(modname)
        if mod is None:  # imported below via repro.engine.batch
            __import__(modname)
            mod = sys.modules[modname]
        for name in names:
            saved.append((mod, name, getattr(mod, name)))
            setattr(mod, name, _STUBS[name])
    try:
        yield
    finally:
        for mod, name, original in saved:
            setattr(mod, name, original)


# ---------------------------------------------------------------------------
# workload
# ---------------------------------------------------------------------------
def _instances(n: int, *, n_tasks: int, seed0: int):
    return [
        generate_multiproc(
            n_tasks, 256, family="fewgmanyg", g=32, dv=5, dh=10,
            weights="related", seed=seed0 + k,
        )
        for k in range(n)
    ]


def _run_once(instances) -> float:
    # a fresh serial engine per measurement: no result cache (every
    # solve runs), and the kernels' compile cache is digest-keyed so
    # it is warm for every mode equally after the warmup pass
    solver = BatchSolver(max_workers=1, executor="serial", cache=False)
    t0 = time.perf_counter()
    solver.solve_many(instances)
    return time.perf_counter() - t0


def _measure(modes: dict, instances, repeats: int) -> dict[str, float]:
    best = {name: float("inf") for name in modes}
    # interleave: mode A, B, C, A, B, C ... so thermal/load drift is
    # shared instead of biasing whichever mode ran last
    for _ in range(repeats):
        for name, runner in modes.items():
            best[name] = min(best[name], runner(instances))
    return best


def run_bench(smoke: bool, seed: int = 0) -> dict:
    n_tasks = 320 if smoke else 1280
    n_instances = 6 if smoke else 12
    repeats = 5 if smoke else 7
    instances = _instances(
        n_instances, n_tasks=n_tasks, seed0=1000 * seed
    )

    def run_stubbed(batch):
        with stubbed_tracing():
            return _run_once(batch)

    def run_disabled(batch):
        assert not obs_trace.tracing_enabled()
        return _run_once(batch)

    def run_enabled(batch):
        with obs_trace.tracing():
            wall = _run_once(batch)
        obs_trace.RECORDER.clear()
        return wall

    # warmup: compile every instance once so each mode measures solves,
    # not digest-cache misses
    _run_once(instances)

    best = _measure(
        {
            "stubbed": run_stubbed,
            "disabled": run_disabled,
            "enabled": run_enabled,
        },
        instances,
        repeats,
    )
    base = best["stubbed"]
    report = {
        "bench": "obs_overhead",
        "smoke": smoke,
        "config": {
            "n_tasks": n_tasks,
            "n_procs": 256,
            "instances": n_instances,
            "repeats": repeats,
            "abs_slack_s": ABS_SLACK_S,
        },
        "wall_s": best,
        "assertions": {
            "disabled_ratio": best["disabled"] / base,
            "max_disabled_ratio": MAX_DISABLED_RATIO,
            "enabled_ratio": best["enabled"] / base,
            "max_enabled_ratio": MAX_ENABLED_RATIO,
        },
    }
    return report


# ---------------------------------------------------------------------------
# sharded leg: stitched tracing across the worker hop
# ---------------------------------------------------------------------------
@contextlib.contextmanager
def _sharded_pool(*, tracing: bool, n_workers: int = 2):
    """A live worker pool on a private loop thread (the bench cannot
    import the test harness, so it carries its own light copy)."""
    import asyncio
    import threading

    from repro.service.shard import ShardedSolveServer
    from repro.service.supervisor import WorkerSpec

    loop = asyncio.new_event_loop()
    thread = threading.Thread(target=loop.run_forever, daemon=True)
    thread.start()
    server = ShardedSolveServer(
        n_workers=n_workers,
        allow_shutdown=True,
        tracing=tracing,
        # never retain: the bench measures, the flight recorder is not
        # under test and a retained burst trace would skew nothing but
        # memory
        trace_threshold_s=1e9,
        worker_spec=WorkerSpec(tracing=tracing),
    )
    asyncio.run_coroutine_threadsafe(server.start(), loop).result(
        timeout=120
    )
    try:
        yield server
    finally:
        asyncio.run_coroutine_threadsafe(server.stop(), loop).result(
            timeout=60
        )
        loop.call_soon_threadsafe(loop.stop)
        thread.join(timeout=10)
        loop.close()


def run_sharded_bench(smoke: bool, seed: int = 0) -> dict:
    """The worker-hop leg: the same warm pipelined burst against a
    2-worker pool, untraced vs traced client on a tracing pool.

    The instances are warmed first so every measured solve is a worker
    result-cache hit — wall time is then hop-dominated, which is
    exactly the stitching overhead under test."""
    from repro.service.client import ServiceClient

    rounds = 3 if smoke else 6
    repeats = 3 if smoke else 5
    instances = _instances(8, n_tasks=64, seed0=777 + 1000 * seed)

    def burst(client) -> float:
        t0 = time.perf_counter()
        for _ in range(rounds):
            client.solve_pipelined(instances)
        return time.perf_counter() - t0

    wall: dict[str, float] = {}
    for mode, tracing in (("plain", False), ("stitched", True)):
        with _sharded_pool(tracing=tracing) as server:
            with ServiceClient(port=server.port, timeout=120) as client:
                client.solve_pipelined(instances)  # warm caches
                best = float("inf")
                for _ in range(repeats):
                    if tracing:
                        # a live client span: the burst's envelopes
                        # carry its context, so every worker span
                        # piggybacks back and is ingested — the full
                        # stitching path
                        with obs_trace.span("bench.sharded.burst"):
                            best = min(best, burst(client))
                        obs_trace.RECORDER.clear()
                    else:
                        best = min(best, burst(client))
                wall[mode] = best
    return {
        "config": {
            "n_workers": 2,
            "instances": 8,
            "n_tasks": 64,
            "rounds": rounds,
            "repeats": repeats,
            "slack_s": SHARDED_SLACK_S,
        },
        "wall_s": wall,
        "assertions": {
            "stitched_ratio": wall["stitched"] / wall["plain"],
            "max_stitched_ratio": MAX_STITCHED_RATIO,
        },
    }


def check(report: dict) -> None:
    wall = report["wall_s"]
    a = report["assertions"]
    slack = report["config"]["abs_slack_s"]
    for mode, cap in (
        ("disabled", a["max_disabled_ratio"]),
        ("enabled", a["max_enabled_ratio"]),
    ):
        ratio = a[f"{mode}_ratio"]
        delta = wall[mode] - wall["stubbed"]
        assert ratio <= cap or delta <= slack, (
            f"tracing ({mode}) costs {ratio:.3f}x the stubbed engine "
            f"(+{delta * 1e3:.1f}ms, floor {cap:g}x / {slack * 1e3:g}ms "
            f"slack)"
        )
    sharded = report.get("sharded")
    if sharded is not None:
        s_wall = sharded["wall_s"]
        s_a = sharded["assertions"]
        s_slack = sharded["config"]["slack_s"]
        ratio = s_a["stitched_ratio"]
        delta = s_wall["stitched"] - s_wall["plain"]
        assert ratio <= s_a["max_stitched_ratio"] or delta <= s_slack, (
            f"stitched tracing costs {ratio:.3f}x the untraced worker "
            f"hop (+{delta * 1e3:.1f}ms, floor "
            f"{s_a['max_stitched_ratio']:g}x / {s_slack * 1e3:g}ms slack)"
        )


def test_obs_overhead_smoke():
    """Pytest entry point (what ``pytest benchmarks`` exercises)."""
    report = run_bench(smoke=True)
    report["sharded"] = run_sharded_bench(smoke=True)
    check(report)


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--smoke", action="store_true",
        help="smaller workload, same assertions (what CI runs)",
    )
    ap.add_argument("--bench-seed", type=int, default=0)
    ap.add_argument(
        "--out", default="BENCH_obs.json", metavar="PATH",
        help="where to write the JSON report",
    )
    args = ap.parse_args(argv)

    report = run_bench(smoke=args.smoke, seed=args.bench_seed)
    report["sharded"] = run_sharded_bench(
        smoke=args.smoke, seed=args.bench_seed
    )
    Path(args.out).write_text(json.dumps(report, indent=2) + "\n")

    wall = report["wall_s"]
    a = report["assertions"]
    print(f"stubbed  : {wall['stubbed'] * 1e3:8.1f} ms")
    print(
        f"disabled : {wall['disabled'] * 1e3:8.1f} ms "
        f"({a['disabled_ratio']:.3f}x)"
    )
    print(
        f"enabled  : {wall['enabled'] * 1e3:8.1f} ms "
        f"({a['enabled_ratio']:.3f}x)"
    )
    s_wall = report["sharded"]["wall_s"]
    s_a = report["sharded"]["assertions"]
    print(f"hop plain   : {s_wall['plain'] * 1e3:8.1f} ms")
    print(
        f"hop stitched: {s_wall['stitched'] * 1e3:8.1f} ms "
        f"({s_a['stitched_ratio']:.3f}x)"
    )
    print(f"wrote {args.out}")
    check(report)
    print(
        f"OK: disabled <= {MAX_DISABLED_RATIO:g}x, "
        f"enabled <= {MAX_ENABLED_RATIO:g}x, "
        f"stitched hop <= {MAX_STITCHED_RATIO:g}x (or within slack)"
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
