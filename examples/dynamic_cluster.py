#!/usr/bin/env python
"""A mutating cluster: join/leave/failure churn, repaired incrementally.

A production scheduler never sees a static instance: jobs finish and new
ones arrive, machines fail and rejoin, execution-time estimates drift.
This example streams such churn through the dynamic subsystem and shows
the two things it buys over re-solving from scratch after every change:

* **speed** — the `IncrementalSolver` repairs the assignment locally
  (greedy placement of the displaced tasks plus a bounded local search
  around the damage), so a mutation costs a region, not the world;
* **stability** — the makespan trajectory stays tight because repair
  starts from the previous assignment instead of rebuilding it.

Run:  python examples/dynamic_cluster.py [n_tasks n_procs n_events]
"""

import sys
import time

from repro import churn_trace, generate_multiproc
from repro.core.errors import InfeasibleError
from repro.dynamic import DynamicInstance, IncrementalSolver
from repro.engine import solve_hypergraph


def main() -> None:
    n, p, events = (
        (int(a) for a in sys.argv[1:4]) if len(sys.argv) >= 4
        else (320, 64, 60)
    )
    hg = generate_multiproc(
        n, p, family="fewgmanyg", g=8, dv=5, dh=10,
        weights="related", seed=0,
    )
    trace = churn_trace(hg, events, seed=1)
    print(
        f"Cluster: {hg.n_tasks} tasks on {hg.n_procs} processors, "
        f"{len(trace)} mutations of churn\n"
    )

    # --- incremental: one solver follows the mutating instance --------
    inst = DynamicInstance.from_hypergraph(hg)
    solver = IncrementalSolver(inst)
    t0 = time.perf_counter()
    inst.replay(trace)
    t_inc = time.perf_counter() - t0
    s = solver.stats
    print(
        f"incremental engine   : {t_inc:.3f}s  "
        f"bottleneck {solver.bottleneck():g}  "
        f"({s.local_repairs} local repairs, {s.fallbacks} fallbacks, "
        f"{s.ls_moves} moves)"
    )

    # --- baseline: re-solve from scratch after every mutation ----------
    fresh = DynamicInstance.from_hypergraph(hg)
    t0 = time.perf_counter()
    scratch = solve_hypergraph(fresh.to_hypergraph(), method="auto")
    for m in trace:
        fresh.apply(m)
        scratch = solve_hypergraph(fresh.to_hypergraph(), method="auto")
    t_scratch = time.perf_counter() - t0
    print(
        f"from-scratch resolve : {t_scratch:.3f}s  "
        f"bottleneck {scratch.makespan:g}"
    )
    print(
        f"\nincremental repair is {t_scratch / max(t_inc, 1e-9):.1f}x "
        "faster at equal-or-better bottleneck"
    )

    # --- failure drill: snapshot, lose a machine, roll back ------------
    mark = inst.snapshot()
    digest_before = inst.digest()
    before = solver.bottleneck()
    for victim in inst.procs():
        try:
            inst.remove_processor(victim)
        except InfeasibleError:
            continue  # every task needs an alive configuration
        break
    else:
        print("\nfailure drill skipped: no processor is removable")
        return
    print(
        f"\nfailure drill: processor {victim} fails -> bottleneck "
        f"{before:g} -> {solver.bottleneck():g} (repaired in place)"
    )
    inst.rollback(mark)
    print(
        f"rollback to snapshot: bottleneck {solver.bottleneck():g}, "
        f"digest restored: {inst.digest() == digest_before}"
    )


if __name__ == "__main__":
    main()
