"""Incremental repair vs from-scratch re-solving on a churn stream.

The dynamic subsystem's headline claim: on a low-churn mutation stream
(every event touches ~1 task of hundreds — well under 1% of the
instance), repairing the maintained assignment is **at least 3x
faster** than re-solving from scratch after every mutation, at an
equal-or-better final bottleneck.

Two contenders over the *same* generated trace
(:func:`repro.generators.churn_trace` on a Table-I-style family):

* ``from_scratch`` — after every mutation, compile the instance and run
  the registry's ``auto`` solve (the only option the static API
  offers);
* ``incremental`` — one :class:`repro.dynamic.IncrementalSolver`
  follows the instance, repairing locally and falling back to a full
  re-solve only past its displacement threshold.

Run:    PYTHONPATH=src python -m pytest benchmarks/bench_dynamic_churn.py -v
Smoke:  SEMIMATCH_BENCH_SMOKE=1 ... (shorter stream, same assertions —
        this is what CI runs on every push)

No pytest-benchmark dependency: plain perf_counter timing, so the file
runs anywhere the test suite runs.
"""

from __future__ import annotations

import hashlib
import os
import statistics
import time

import numpy as np
import pytest

from repro.dynamic import DynamicInstance, IncrementalSolver
from repro.engine.dispatch import solve_hypergraph
from repro.generators import churn_trace, generate_multiproc

SMOKE = os.environ.get("SEMIMATCH_BENCH_SMOKE", "0") == "1"

#: Stream length; the instance size stays fixed (the speedup comes from
#: repair touching a region while the baseline re-touches the world, so
#: shrinking the *stream* is what makes smoke mode fast).
N_EVENTS = 30 if SMOKE else 150
N_TASKS, N_PROCS = 640, 128

MIN_SPEEDUP = 3.0


def _workload():
    hg = generate_multiproc(
        N_TASKS, N_PROCS, family="fewgmanyg", g=8, dv=5, dh=10,
        weights="related", seed=0,
    )
    return hg, churn_trace(hg, N_EVENTS, seed=1)


def test_incremental_beats_from_scratch():
    hg, trace = _workload()
    per_event = 1.0 / hg.n_tasks
    assert per_event < 0.01, "stream is not low-churn"

    # -- baseline: per-mutation from-scratch solves (uncached dispatch;
    # patching off so the kernel patcher cannot subsidize the static
    # API's compile cost — that contrast is test_churn_compile's job)
    fresh = DynamicInstance.from_hypergraph(hg, patching=False)
    t0 = time.perf_counter()
    scratch = solve_hypergraph(fresh.to_hypergraph(), method="auto")
    for m in trace:
        fresh.apply(m)
        scratch = solve_hypergraph(fresh.to_hypergraph(), method="auto")
    t_scratch = time.perf_counter() - t0

    # -- incremental: one solver follows the same stream
    inst = DynamicInstance.from_hypergraph(hg)
    t0 = time.perf_counter()
    solver = IncrementalSolver(inst)
    inst.replay(trace)
    bottleneck = solver.bottleneck()
    t_inc = time.perf_counter() - t0

    stats = solver.stats
    speedup = t_scratch / max(t_inc, 1e-9)
    print(
        f"\n{len(trace)} mutations on {hg.n_tasks}x{hg.n_procs}: "
        f"scratch={t_scratch:.3f}s incremental={t_inc:.3f}s "
        f"-> {speedup:.1f}x  "
        f"({stats.local_repairs} local repairs, {stats.fallbacks} "
        f"fallbacks, {stats.ls_moves} moves)"
    )
    print(
        f"final bottleneck: incremental={bottleneck:g} "
        f"scratch={scratch.makespan:g}"
    )

    # identical final content...
    assert fresh.digest() == inst.digest()
    # ...equal-or-better quality (repair starts from a good assignment
    # and polishes the damage; it never has to rediscover the world)...
    assert bottleneck <= scratch.makespan + 1e-9
    # ...and the headline speed claim
    assert speedup >= MIN_SPEEDUP, (
        f"incremental repair only {speedup:.2f}x faster than "
        f"per-mutation re-solving (need >= {MIN_SPEEDUP}x)"
    )


def test_churn_compile_amortizes_patching():
    """``churn_compile`` workload: the *compile* half of the churn
    story.  Driving the same trace through a patching instance and
    emitting kernels after every record must beat per-mutation
    from-scratch compilation well past 2x, while performing exactly one
    full array build (the initial compile — everything after is a
    patch, a delta splice, or a copy-on-write weight emit).

    The hard 10%-of-full-compile marginal-cost bar lives in
    ``bench_scaling.py`` at n>=5120, where full compiles are expensive
    enough to time stably; this n=640 guard is the smoke-sized
    regression tripwire for the same path.
    """
    from repro.kernels import clear_compile_cache

    hg, trace = _workload()

    # -- baseline: recompile from scratch after every mutation (twin
    # with patching disabled so the patcher can't help it)
    off = DynamicInstance.from_hypergraph(hg, patching=False)
    t0 = time.perf_counter()
    for m in trace:
        off.apply(m)
        clear_compile_cache()
        off.compiled_kernels()
    t_full = time.perf_counter() - t0

    # -- patched: one patcher follows the stream, emitting per record
    clear_compile_cache()
    on = DynamicInstance.from_hypergraph(hg)
    on.compiled_kernels()
    t0 = time.perf_counter()
    for m in trace:
        on.apply(m)
        on.compiled_kernels()
    t_patch = time.perf_counter() - t0

    stats = on.compile_stats()
    speedup = t_full / max(t_patch, 1e-9)
    print(
        f"\nchurn_compile {len(trace)} mutations on "
        f"{hg.n_tasks}x{hg.n_procs}: scratch={t_full:.3f}s "
        f"patched={t_patch:.3f}s -> {speedup:.1f}x  "
        f"({stats['emits_delta']} delta, {stats['emits_weight']} weight, "
        f"{stats['emits_full']} full emits, "
        f"{stats['full_builds']} full builds)"
    )

    # bit-identical terminal state (the conformance suite pins this per
    # record; here we just anchor the endpoints agree)
    assert on.digest() == off.digest()
    # one full array build: the initial compile, and nothing since
    assert stats["full_builds"] == 1, stats
    assert stats["compactions"] == 0, stats
    # the stream is structure-dominated, so the delta path must carry it
    assert stats["emits_delta"] >= 0.3 * len(trace), stats
    assert speedup >= 2.0, (
        f"patched compilation only {speedup:.2f}x faster than "
        f"per-mutation recompiles (need >= 2.0x)"
    )


def test_repair_is_dominated_by_local_work():
    """On a low-churn stream the solver must *stay* local: full
    re-solves are the exception, not the steady state."""
    hg, trace = _workload()
    inst = DynamicInstance.from_hypergraph(hg)
    solver = IncrementalSolver(inst)
    inst.replay(trace)
    stats = solver.stats
    assert stats.mutations == len(trace)
    # the initial solve is a full solve; churn must not add many more
    assert stats.fallbacks <= 0.1 * len(trace), stats.as_dict()
    assert stats.local_repairs >= 0.5 * len(trace), stats.as_dict()


#: the session-pool shape: a fewgmanyg n=5120 session repaired under
#: EVG in 16-mutation batches (full mode only — it gates nothing, it
#: prints where repair time goes on a session-sized instance)
REPLAY_N, REPLAY_P, REPLAY_BATCH, REPLAY_BATCHES = 5120, 1024, 16, 80


@pytest.mark.skipif(SMOKE, reason="full-mode sizing replay")
def test_session_replay_cold_and_steady():
    """A fresh solver replays the session-pool churn stream batch by
    batch: the first three batches run cold, the rest steady.  Prints
    both, the move count and a hash of the bottleneck stream (equal
    hashes mean an identical move sequence)."""
    hg = generate_multiproc(
        REPLAY_N, REPLAY_P, family="fewgmanyg", g=32, weights="related",
        seed=1,
    )
    trace = churn_trace(hg, REPLAY_BATCH * REPLAY_BATCHES, seed=1)
    inst = DynamicInstance.from_hypergraph(hg)
    solver = IncrementalSolver(inst, method="EVG")
    stream = [solver.bottleneck()]
    batch_ms = []
    for lo in range(0, len(trace), REPLAY_BATCH):
        t0 = time.perf_counter()
        for m in trace[lo : lo + REPLAY_BATCH]:
            inst.apply(m)
        stream.append(solver.bottleneck())
        batch_ms.append(1e3 * (time.perf_counter() - t0))
    digest = hashlib.sha256(
        np.asarray(stream, dtype=np.float64).tobytes()
    ).hexdigest()[:16]
    cold = " / ".join(f"{ms:.0f}" for ms in batch_ms[:3])
    print(
        f"\nsession replay {REPLAY_BATCHES}x{REPLAY_BATCH} mutations on "
        f"{REPLAY_N}x{REPLAY_P}: cold batches 1-3 = {cold} ms, steady "
        f"median = {statistics.median(batch_ms[3:]):.1f} ms, "
        f"ls_moves={solver.stats.ls_moves}, stream {digest}"
    )
