"""Kernel regression harness: backend scaling + ``BENCH_kernels.json``.

Two entry points over the same workload (the Table-I-style fewgmanyg
family swept at fixed ``n/p`` ratio):

* ``pytest benchmarks/bench_scaling.py`` — pytest-benchmark timings of
  every heuristic on both backends (the historical scaling bench, now
  backend-aware);
* ``python benchmarks/bench_scaling.py [--smoke] [--bench-seed N]
  [--out PATH]`` — the dependency-free regression harness CI runs on
  every push: per-solver wall time and bottleneck for both backends at
  several sizes, written to ``BENCH_kernels.json`` so the bench
  trajectory is recorded run-over-run, plus two hard assertions at the
  largest size:

  - backends are **bit-identical** per solver (conformance re-check);
  - VGH, EGH and EVG are at least ``MIN_SPEEDUP``x faster on the
    numpy backend, each backend's best of ``GUARD_ROUNDS`` rounds
    that alternate the two backends;

  and four more on their own legs: the churn compile, shared-memory
  transport, incremental repair (``repair``: a session-sized
  instance repaired under EVG in 16-mutation churn batches, its cost
  per local-search move held to ``MAX_MOVE_STEPS`` warm EVG kernel
  steps) and ranking setup (``ranking``: the compilation's bytes per
  pin once all four heuristics have solved the guarded size, held to
  ``MAX_BYTES_PER_PIN``, and the first VGH solve's setup over a warm
  one).  ``--reference-src DIR`` records the repair and ranking legs
  against another checkout's ``src/`` too, as ``repair.reference`` and
  ``ranking.reference``, and fails unless the repair legs end at the
  same bottleneck after the same moves.

All instances derive from one ``--bench-seed`` (default 0), so the
JSON numbers are reproducible run-to-run.
"""

from __future__ import annotations

import argparse
import json
import os
import statistics
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

from repro.api import get_registry
from repro.generators import generate_multiproc
from repro.kernels import compile_instance

SIZES = [(320, 64), (1280, 256), (5120, 1024)]
FULL_SIZES = SIZES + [(10240, 2048)]
SOLVERS = ("SGH", "VGH", "EGH", "EVG")
#: solvers held to the speedup floor: the vector heuristics, whose
#: per-candidate comparisons the kernel core exists to batch, and EGH.
#: SGH's Python loop makes one max per candidate, so its speedup sits
#: near the floor and is recorded, not guarded
GUARDED = ("VGH", "EGH", "EVG")
MIN_SPEEDUP = 3.0
#: timing rounds at the guarded size: each round solves once on each
#: backend, back to back, and the best round of each backend counts,
#: so a window of contention on a shared host slows both sides of the
#: ratio rather than one (a loaded 2-CPU host read EGH at 2.59x with
#: two separate best-of-2 runs, against 5.3x quiet)
GUARD_ROUNDS = 5

#: churn guard: the steady-state per-record cost of a dynamic
#: instance's row-store compile must stay at or below this fraction of
#: the per-task reference compile at the guarded size
MAX_COMPILE_RATIO = 0.10
CHURN_EVENTS = 60
#: records skipped before measuring: the first compiles run while the
#: allocator heap is still filling; "cost under churn" means the
#: steady state after page recycling kicks in
CHURN_WARMUP = 15

#: transport guard workload: shared-memory instance shipping must beat
#: pickling on a warm batch of large instances
TRANSPORT_N, TRANSPORT_P = 10240, 2048
TRANSPORT_BATCH = 4

#: repair leg: the ``session-pool`` shape — a fewgmanyg n=5120, p=1024
#: (g=32, related weights) session repaired under EVG, 16 mutations of
#: :func:`repro.generators.churn_trace` per batch.  A fresh solver's
#: first ~40 batches run up to twice as slow as the rest, so the
#: warm-up covers them and the leg times the steady state
REPAIR_N, REPAIR_P, REPAIR_BATCH = 5120, 1024, 16
REPAIR_WARMUP = 48
REPAIR_BATCHES = {True: 32, False: 96}  # smoke / full
REPAIR_GROUP = 4
#: the repair guard: one local-search move may cost at most this many
#: warm per-task EVG kernel steps on the same instance (a ratio of two
#: timings on one host, so it holds across machine speeds).  On a
#: 2-CPU VM, smoke config, the scan that reads a bottleneck
#: processor's first 16 tasks before the rest, laying out each task's
#: pins with one repeat, reads 12.0–13.6 steps per move; one scan over
#: all of them with per-row and per-pin repeats reads 14.7–16.8
MAX_MOVE_STEPS = 14.0

#: ranking guard: what one compilation of the guarded size costs per
#: pin (``compiled_nbytes``) once SGH, VGH, EGH and EVG have all solved
#: it, its setup built.  VGH and EVG rank a task's candidates over its
#: own pins: 37.1 bytes per pin; with the pin-union index and its
#: ranking cells behind them, 61.9
MAX_BYTES_PER_PIN = 45.0
#: fresh compilations the ranking leg times a first VGH solve on
RANKING_ROUNDS = 5


def _hyp_algo(name):
    """Resolve a MULTIPROC solver through the unified registry."""
    return get_registry().resolve(name, domain="hypergraph").fn


def _instance(n, p, seed):
    return generate_multiproc(
        n, p, family="fewgmanyg", g=32, dv=5, dh=10,
        weights="related", seed=seed,
    )


# ---------------------------------------------------------------------------
# pytest-benchmark entry point (optional dependency)
# ---------------------------------------------------------------------------
try:  # pragma: no cover - import guard for the standalone runner
    import pytest
except ImportError:  # pragma: no cover
    pytest = None

if pytest is not None:

    @pytest.mark.parametrize("backend", ["python", "numpy"])
    @pytest.mark.parametrize("algo", list(SOLVERS))
    @pytest.mark.parametrize("size", SIZES, ids=lambda s: f"n{s[0]}")
    def test_heuristic_scaling(benchmark, bench_seed, algo, size, backend):
        n, p = size
        hg = _instance(n, p, bench_seed)
        fn = _hyp_algo(algo)
        compile_instance(hg)  # amortized in production; exclude here

        m = benchmark(fn, hg, backend=backend)

        benchmark.extra_info.update(
            {
                "n": n,
                "p": p,
                "pins": hg.total_pins,
                "makespan": m.makespan,
                "backend": backend,
                "seed": bench_seed,
            }
        )
        assert m.makespan > 0


# ---------------------------------------------------------------------------
# the standalone regression harness (CI smoke)
# ---------------------------------------------------------------------------
def _time(fn, *args, repeats=1, **kwargs):
    best, result = np.inf, None
    for _ in range(repeats):
        t0 = time.perf_counter()
        result = fn(*args, **kwargs)
        best = min(best, time.perf_counter() - t0)
    return best, result


def _time_backends(fn, hg, rounds):
    """Best-of-``rounds`` times of ``fn`` on ``hg`` on the python and
    numpy backends, the two interleaved round by round.  Returns
    ``(t_python, m_python, t_numpy, m_numpy)``."""
    best = {"python": np.inf, "numpy": np.inf}
    out = {}
    for _ in range(rounds):
        for backend in best:
            t, out[backend] = _time(fn, hg, backend=backend)
            best[backend] = min(best[backend], t)
    return best["python"], out["python"], best["numpy"], out["numpy"]


def _compile_section(sizes, seed: int) -> list[dict]:
    """Row-store vs reference per-record compile cost under the
    canonical churn model (:func:`repro.generators.churn_trace`).

    After every journal record — the solve-per-mutate session pattern —
    the instance compiles its snapshot twice: through
    :meth:`~repro.dynamic.DynamicInstance.compile` (one vectorized pass
    over the row store) and through the per-task
    ``_compile_reference``.  Both are steady-state means past
    ``CHURN_WARMUP`` records.
    """
    from repro.dynamic import DynamicInstance
    from repro.generators import churn_trace

    rows = []
    for n, p in sizes:
        hg = _instance(n, p, seed)
        inst = DynamicInstance.from_hypergraph(hg)
        trace = churn_trace(hg, CHURN_EVENTS, seed=seed + 1)
        t_store = t_reference = 0.0
        measured = 0
        for i, m in enumerate(trace):
            inst.apply(m)
            t0 = time.perf_counter()
            inst.compile()
            t1 = time.perf_counter()
            inst._compile_reference()
            t2 = time.perf_counter()
            if i >= CHURN_WARMUP:
                t_store += t1 - t0
                t_reference += t2 - t1
                measured += 1
        t_store /= max(measured, 1)
        t_reference /= max(measured, 1)
        ratio = t_store / max(t_reference, 1e-9)
        rows.append(
            {
                "n": n,
                "p": p,
                "records": len(trace),
                "measured": measured,
                "t_reference_compile_s": round(t_reference, 6),
                "t_compile_s": round(t_store, 6),
                "compile_ratio": round(ratio, 4),
            }
        )
        print(
            f"compile n={n:6d}: reference={t_reference * 1000:7.1f}ms "
            f"row store={t_store * 1000:6.2f}ms -> ratio {ratio:.3f}"
        )
    return rows


def _transport_section(seed: int, repeats: int) -> dict:
    """``solve_many`` shared-memory shipping vs pickling on a warm
    batch of ``TRANSPORT_BATCH`` instances at n=``TRANSPORT_N``.

    The cold call pays pool spawn + per-worker kernel compiles on both
    sides; the warm calls isolate the per-call transport cost (shm
    re-sends a name, pickling re-serializes every array)."""
    from repro.engine import BatchSolver

    batch = [
        _instance(TRANSPORT_N, TRANSPORT_P, seed + i)
        for i in range(TRANSPORT_BATCH)
    ]
    out = {
        "n": TRANSPORT_N,
        "p": TRANSPORT_P,
        "batch": TRANSPORT_BATCH,
    }
    # the engine's one transport knob: no floor pickles every
    # instance, a zero floor ships every instance by segment
    for transport, shm_min_bytes in (("pickle", None), ("shm", 0)):
        eng = BatchSolver(
            max_workers=2,
            executor="process",
            cache=False,
            shm_min_bytes=shm_min_bytes,
        )
        try:
            t_cold, _ = _time(eng.solve_many, batch, method="SGH")
            t_warm = np.inf
            for _ in range(repeats + 1):
                t, _ = _time(eng.solve_many, batch, method="SGH")
                t_warm = min(t_warm, t)
            stats = eng.transport_stats()
        finally:
            eng.close()
        out[transport] = {
            "cold_s": round(t_cold, 6),
            "warm_s": round(t_warm, 6),
            "exports": stats.get("exports", 0),
            "reuses": stats.get("reuses", 0),
        }
        print(
            f"transport {transport:6s}: cold={t_cold:6.3f}s "
            f"warm={t_warm:6.3f}s"
        )
    out["warm_speedup"] = round(
        out["pickle"]["warm_s"] / max(out["shm"]["warm_s"], 1e-9), 3
    )
    return out


def _repair_section(smoke: bool, seed: int) -> dict:
    """Incremental repair on the ``session-pool`` shape: steady-state
    batch times, local-search moves, the cost of one move, the share of
    repair spent in the move scan, and the guard's denominator — the
    warm EVG kernel's time per task on the same instance."""
    import repro.dynamic.solver as solver_module
    from repro.dynamic import DynamicInstance, IncrementalSolver
    from repro.generators import churn_trace

    hg = generate_multiproc(
        REPAIR_N, REPAIR_P, family="fewgmanyg", g=32, weights="related",
        seed=np.random.default_rng([seed, 1]),
    )
    evg = _hyp_algo("EVG")
    compile_instance(hg)
    evg(hg, backend="numpy")  # warm
    measured = REPAIR_BATCHES[smoke]
    trace = churn_trace(
        hg, (REPAIR_WARMUP + measured) * REPAIR_BATCH, seed=seed + 1
    )
    inst = DynamicInstance.from_hypergraph(hg)
    solver = IncrementalSolver(inst, method="EVG")
    scan, scanned = solver_module.first_improving_move, [0.0]

    def timed_scan(*args):
        t0 = time.perf_counter()
        try:
            return scan(*args)
        finally:
            scanned[0] += time.perf_counter() - t0

    # the repair's scan calls, timed where the solver looks them up
    solver_module.first_improving_move = timed_scan
    try:
        batch_s, moves = [], []
        # the guard's ratio is taken per group of REPAIR_GROUP steady
        # batches against an EVG solve timed right after the group, so a
        # drift in host speed scales both sides; the median group counts
        move_us, step_us = [], []
        for i, lo in enumerate(range(0, len(trace), REPAIR_BATCH)):
            if i == REPAIR_WARMUP:
                scanned[0] = 0.0
            before = solver.stats.ls_moves
            t0 = time.perf_counter()
            for m in trace[lo : lo + REPAIR_BATCH]:
                inst.apply(m)
            batch_s.append(time.perf_counter() - t0)
            moves.append(solver.stats.ls_moves - before)
            done = i + 1 - REPAIR_WARMUP
            if done > 0 and done % REPAIR_GROUP == 0:
                group = slice(i + 1 - REPAIR_GROUP, i + 1)
                move_us.append(
                    1e6 * sum(batch_s[group]) / max(sum(moves[group]), 1)
                )
                t_evg, _ = _time(evg, hg, backend="numpy", repeats=2)
                step_us.append(1e6 * t_evg / hg.n_tasks)
    finally:
        solver_module.first_improving_move = scan
    steady_s = sum(batch_s[REPAIR_WARMUP:])
    steady_moves = max(sum(moves[REPAIR_WARMUP:]), 1)
    us_per_move = statistics.median(move_us)
    step = statistics.median(step_us)
    move_steps = statistics.median(m / s for m, s in zip(move_us, step_us))
    row = {
        "n": REPAIR_N,
        "p": REPAIR_P,
        "batch": REPAIR_BATCH,
        "warmup_batches": REPAIR_WARMUP,
        "batches": measured,
        "batch_ms_median": round(
            1e3 * statistics.median(batch_s[REPAIR_WARMUP:]), 3
        ),
        "moves_per_batch": round(steady_moves / measured, 2),
        "us_per_move": round(us_per_move, 2),
        "scan_share": round(scanned[0] / max(steady_s, 1e-9), 4),
        "evg_step_us": round(step, 3),
        "move_steps": round(move_steps, 3),
        "bottleneck": solver.bottleneck(),
    }
    print(
        f"repair n={REPAIR_N}: batch median={row['batch_ms_median']:.1f}ms "
        f"moves/batch={row['moves_per_batch']:.1f} "
        f"move={us_per_move:.1f}us scan share={row['scan_share']:.2f} "
        f"EVG step={step:.2f}us -> {move_steps:.2f} steps/move"
    )
    return row


def _ranking_section(seed: int) -> dict:
    """VGH/EVG ranking setup at the guarded size: the compilation's
    bytes per pin after SGH, VGH, EGH and EVG, and the first VGH solve's
    setup over a warm one.  Each round compiles afresh, solves SGH (its
    setup: the visit order and pointer lists), then times VGH twice; the
    first solve's extra time is what the ranking setup costs.  The
    median over ``RANKING_ROUNDS`` rounds counts."""
    from repro.kernels import clear_compile_cache
    from repro.kernels.compiled import compiled_nbytes

    n, p = SIZES[-1]
    hg = _instance(n, p, seed)
    sgh, vgh = _hyp_algo("SGH"), _hyp_algo("VGH")
    setups = []
    for _ in range(RANKING_ROUNDS):
        clear_compile_cache()
        compile_instance(hg)
        sgh(hg, backend="numpy")
        t_first, _ = _time(vgh, hg, backend="numpy")
        t_warm, _ = _time(vgh, hg, backend="numpy")
        setups.append((t_first - t_warm) / t_warm)
    ck = compile_instance(hg)
    for name in ("EGH", "EVG"):
        _hyp_algo(name)(hg, backend="numpy")
    row = {
        "n": n,
        "p": p,
        "pins": int(hg.total_pins),
        "bytes_per_pin": round(compiled_nbytes(ck) / hg.total_pins, 2),
        "vgh_setup_over_warm": round(statistics.median(setups), 3),
    }
    clear_compile_cache()
    print(
        f"ranking n={n}: {row['bytes_per_pin']:.1f} bytes per pin, "
        f"first VGH setup {row['vgh_setup_over_warm']:.3f}x a warm solve"
    )
    return row


def _reference_leg(src: str, call: str) -> dict:
    """``bench_scaling.<call>`` measured against another checkout's
    ``src/`` in a child interpreter (this file's code, that tree's
    ``repro``)."""
    here = Path(__file__).resolve().parent
    code = (
        f"import json, sys; sys.path.insert(0, {str(here)!r}); "
        "import bench_scaling; "
        f"print(json.dumps(bench_scaling.{call}))"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(src).resolve()))
    done = subprocess.run(
        [sys.executable, "-c", code], env=env, check=True,
        capture_output=True, text=True,
    )
    return json.loads(done.stdout.splitlines()[-1])


def run_harness(
    *, smoke: bool = True, seed: int = 0, out: str | Path | None = None,
    reference_src: str | None = None,
) -> dict:
    sizes = SIZES if smoke else FULL_SIZES
    # interleaved min-of-N timing; the guarded size takes GUARD_ROUNDS
    repeats = 2 if smoke else 3
    rows = []
    for n, p in sizes:
        hg = _instance(n, p, seed)
        t_compile, _ = _time(compile_instance, hg)
        for name in SOLVERS:
            fn = _hyp_algo(name)
            t_py, m_py, t_np, m_np = _time_backends(
                fn, hg,
                GUARD_ROUNDS if (n, p) == SIZES[-1] else repeats,
            )
            if not np.array_equal(
                m_py.hedge_of_task, m_np.hedge_of_task
            ):
                raise AssertionError(
                    f"{name} backends diverged at n={n}"
                )
            rows.append(
                {
                    "solver": name,
                    "n": n,
                    "p": p,
                    "pins": int(hg.total_pins),
                    "bottleneck": m_np.makespan,
                    "t_python_s": round(t_py, 6),
                    "t_numpy_s": round(t_np, 6),
                    "t_compile_s": round(t_compile, 6),
                    "speedup": round(t_py / max(t_np, 1e-9), 3),
                }
            )
            print(
                f"n={n:6d} p={p:5d} {name:4s} "
                f"python={t_py * 1000:8.1f}ms "
                f"numpy={t_np * 1000:8.1f}ms "
                f"-> {t_py / max(t_np, 1e-9):5.2f}x "
                f"(bottleneck {m_np.makespan:g})"
            )

    compile_rows = _compile_section(sizes, seed)
    transport = _transport_section(seed, repeats)
    repair = _repair_section(smoke, seed)
    ranking = _ranking_section(seed)
    if reference_src is not None:
        repair["reference"] = _reference_leg(
            reference_src, f"_repair_section({smoke}, {seed})"
        )
        ranking["reference"] = _reference_leg(
            reference_src, f"_ranking_section({seed})"
        )

    # the speedup floor is asserted at the largest *smoke* size (the
    # size CI measures every push); the full sweep's extra sizes are
    # recorded but only guarded by the bit-equality check above
    n_max, p_max = SIZES[-1]
    largest = {
        r["solver"]: r["speedup"] for r in rows if r["n"] == n_max
    }
    report = {
        "bench": "kernels",
        "note": "wall times are per-machine; CI regenerates this file "
        "as an artifact on every push — compare speedup ratios, not "
        "absolute seconds",
        "seed": seed,
        "smoke": smoke,
        "min_speedup": MIN_SPEEDUP,
        "guarded_solvers": list(GUARDED),
        "guarded_size": {"n": n_max, "p": p_max},
        "max_compile_ratio": MAX_COMPILE_RATIO,
        "max_move_steps": MAX_MOVE_STEPS,
        "max_bytes_per_pin": MAX_BYTES_PER_PIN,
        "results": rows,
        "compile": compile_rows,
        "transport": transport,
        "repair": repair,
        "ranking": ranking,
    }
    if out:
        Path(out).write_text(json.dumps(report, indent=2) + "\n")
        print(f"wrote {out}")

    for name in GUARDED:
        if largest[name] < MIN_SPEEDUP:
            raise AssertionError(
                f"kernel speedup regression: {name} only "
                f"{largest[name]:.2f}x at n={n_max} "
                f"(need >= {MIN_SPEEDUP}x)"
            )
    print(
        f"kernel speedup guard OK at n={n_max}: "
        + ", ".join(f"{s}={largest[s]:.2f}x" for s in GUARDED)
    )

    # churn-compile guard: the row-store compile must stay marginal
    for row in compile_rows:
        if row["n"] >= 5120 and row["compile_ratio"] > MAX_COMPILE_RATIO:
            raise AssertionError(
                f"churn-compile regression: the row-store compile costs "
                f"{row['compile_ratio']:.3f} of the reference compile at "
                f"n={row['n']} (budget {MAX_COMPILE_RATIO})"
            )
    print(
        "churn-compile guard OK: "
        + ", ".join(
            f"n={r['n']}:{r['compile_ratio']:.3f}" for r in compile_rows
        )
    )

    # transport guard: shm must beat pickling once the pool is warm
    if transport["shm"]["warm_s"] >= transport["pickle"]["warm_s"]:
        raise AssertionError(
            f"shm transport regression: warm batch "
            f"{transport['shm']['warm_s']:.3f}s vs pickle "
            f"{transport['pickle']['warm_s']:.3f}s at "
            f"n={TRANSPORT_N}"
        )
    print(
        f"transport guard OK at n={TRANSPORT_N}: shm beats pickle "
        f"{transport['warm_speedup']:.2f}x warm"
    )

    # repair guard: one local-search move within its kernel-step budget
    if repair["move_steps"] > MAX_MOVE_STEPS:
        raise AssertionError(
            f"repair regression: one local-search move costs "
            f"{repair['move_steps']:.2f} warm EVG kernel steps at "
            f"n={REPAIR_N} (budget {MAX_MOVE_STEPS})"
        )
    print(
        f"repair guard OK at n={REPAIR_N}: {repair['move_steps']:.2f} "
        f"steps per move (budget {MAX_MOVE_STEPS})"
    )
    # against a reference, a cheaper move counts only as the same move:
    # a changed move sequence ends at another bottleneck or move count
    reference = repair.get("reference")
    if reference is not None:
        for key in ("bottleneck", "moves_per_batch"):
            if repair[key] != reference[key]:
                raise AssertionError(
                    f"repair diverged from the reference: {key} "
                    f"{repair[key]!r} vs {reference[key]!r} at "
                    f"n={REPAIR_N}"
                )
        print(
            "repair reference OK: same bottleneck "
            f"{repair['bottleneck']!r} and moves per batch"
        )

    # ranking guard: the compilation's bytes per pin once every
    # heuristic's setup is built
    if ranking["bytes_per_pin"] > MAX_BYTES_PER_PIN:
        raise AssertionError(
            f"ranking setup regression: {ranking['bytes_per_pin']:.1f} "
            f"bytes per pin at n={n_max} (budget {MAX_BYTES_PER_PIN})"
        )
    print(
        f"ranking guard OK at n={n_max}: {ranking['bytes_per_pin']:.1f} "
        f"bytes per pin (budget {MAX_BYTES_PER_PIN})"
    )
    reference = ranking.get("reference")
    if reference is not None:
        verdict = (
            "over the budget"
            if reference["bytes_per_pin"] > MAX_BYTES_PER_PIN
            else "within the budget"
        )
        print(
            f"ranking reference: {reference['bytes_per_pin']:.1f} bytes "
            f"per pin ({verdict}), first VGH setup "
            f"{reference['vgh_setup_over_warm']:.3f}x a warm solve"
        )
    return report


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__)
    ap.add_argument(
        "--smoke", action="store_true",
        help="CI sizes / single repetition",
    )
    ap.add_argument(
        "--bench-seed", type=int, default=0,
        help="seed every generated instance derives from",
    )
    ap.add_argument(
        "--out", default="BENCH_kernels.json",
        help="where to write the JSON report",
    )
    ap.add_argument(
        "--reference-src", default=None, metavar="DIR",
        help="also measure the repair and ranking legs against DIR "
        "(another checkout's src/), recorded as repair.reference and "
        "ranking.reference",
    )
    args = ap.parse_args(argv)
    run_harness(
        smoke=args.smoke, seed=args.bench_seed, out=args.out,
        reference_src=args.reference_src,
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
