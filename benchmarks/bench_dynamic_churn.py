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
from repro.engine.cache import instance_digest
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

    # -- baseline: per-mutation from-scratch solves (uncached dispatch)
    fresh = DynamicInstance.from_hypergraph(hg)
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


def test_churn_compile_beats_the_reference():
    """``churn_compile`` workload: the *compile* half of the churn
    story.  Compiling the instance after every record of the trace is
    one vectorized pass over its row store; it must beat the per-task
    reference compile (``_compile_reference``) after every record by
    at least 2x, and both must end on the same digest.

    The 10%-of-the-reference bar lives in ``bench_scaling.py`` at
    n>=5120, where reference compiles are expensive enough to time
    stably; this n=640 guard is the smoke-sized regression tripwire
    for the same path.
    """
    hg, trace = _workload()

    # -- reference: the per-task loop after every record
    ref = DynamicInstance.from_hypergraph(hg)
    t0 = time.perf_counter()
    for m in trace:
        ref.apply(m)
        ref._compile_reference()
    t_reference = time.perf_counter() - t0

    # -- row store: the one compile path after every record
    inst = DynamicInstance.from_hypergraph(hg)
    inst.compile()
    t0 = time.perf_counter()
    for m in trace:
        inst.apply(m)
        inst.compile()
    t_store = time.perf_counter() - t0

    speedup = t_reference / max(t_store, 1e-9)
    print(
        f"\nchurn_compile {len(trace)} mutations on "
        f"{hg.n_tasks}x{hg.n_procs}: reference={t_reference:.3f}s "
        f"row store={t_store:.3f}s -> {speedup:.1f}x"
    )

    # the same terminal content (tests/test_patch.py pins every record)
    assert inst.digest() == instance_digest(
        ref._compile_reference().hypergraph
    )
    assert speedup >= 2.0, (
        f"row-store compilation only {speedup:.2f}x faster than the "
        f"per-task reference (need >= 2.0x)"
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
