#!/usr/bin/env python
"""Quickstart: schedule a handful of tasks on a heterogeneous machine.

The scenario from the paper's introduction: tasks may have a *choice*
among combinations of computational resources — e.g. run on the GPU
alone, or split across two CPU cores.  We state the problem with named
tasks and processors, solve it, and inspect the schedule.

Run:  python examples/quickstart.py
"""

import time

from repro import SchedulingProblem, averaged_work_bound, solve


def backend_demo() -> None:
    """The backend switch: identical matchings, kernel-speed solves."""
    import numpy as np

    from repro.engine.dispatch import solve_hypergraph
    from repro.generators import generate_multiproc
    from repro.kernels import compile_instance

    hg = generate_multiproc(
        2560, 512, family="fewgmanyg", g=16, dv=5, dh=10,
        weights="related", seed=0,
    )
    compile_instance(hg)  # compiled once, cached by structure digest

    t0 = time.perf_counter()
    slow = solve_hypergraph(hg, method="EVG", backend="python")
    t_py = time.perf_counter() - t0
    t0 = time.perf_counter()
    fast = solve_hypergraph(hg, method="EVG", backend="numpy")
    t_np = time.perf_counter() - t0

    assert np.array_equal(slow.hedge_of_task, fast.hedge_of_task)
    print(
        f"EVG on {hg.n_tasks} tasks x {hg.n_procs} procs: "
        f"python backend {t_py * 1000:.0f} ms, "
        f"numpy kernels {t_np * 1000:.0f} ms "
        f"-> {t_py / max(t_np, 1e-9):.1f}x speedup, "
        "bit-identical matching"
    )


def main() -> None:
    # A node with two CPU cores and one accelerator.
    prob = SchedulingProblem(processors=["cpu0", "cpu1", "gpu"])

    # Each task lists its configurations: (processor set, time on each).
    prob.add_task("render", [(("gpu",), 2.0), (("cpu0", "cpu1"), 5.0)])
    prob.add_task("encode", [(("cpu0",), 3.0), (("cpu1",), 3.0)])
    prob.add_task("analyze", [(("cpu0", "cpu1"), 2.0), (("gpu",), 6.0)])
    prob.add_task("upload", [(("cpu1",), 1.0), (("cpu0",), 1.0)])

    schedule = solve(prob)  # picks the right algorithm automatically

    print(schedule.summary())
    print()
    print("Chosen configurations (alloc):")
    for task, procs in schedule.allocation().items():
        print(f"  {task:<8} -> {', '.join(map(str, procs))}")
    print()
    print(schedule.gantt(width=48))
    print()

    lb = averaged_work_bound(prob.to_hypergraph(), integral=False)
    print(f"Averaged-work lower bound (paper eq. (1)): {lb:.2f}")
    print(f"Achieved makespan:                         {schedule.makespan:g}")
    print()

    # The same solvers scale to thousands of tasks on the vectorized
    # kernel backend (the default); backend="python" keeps the original
    # loops around as a bit-identical oracle.
    backend_demo()


if __name__ == "__main__":
    main()
