#!/usr/bin/env python
"""Batch solving with the engine: solve_many, portfolio mode, caching.

A traffic-shaped workload: a stream of scheduling problems (here, random
MULTIPROC instances standing in for incoming requests) is solved in one
``solve_many`` call instead of a Python loop.  The engine distributes
chunks over a worker pool, races a portfolio of algorithms per instance
(keeping the best makespan), and memoises results by instance content so
a repeated sweep costs almost nothing.

Run:  python examples/batch_portfolio.py [n_instances] [workers]
"""

import sys
import time

import numpy as np

from repro import BatchSolver, ResultCache, solve_many
from repro.algorithms import averaged_work_bound
from repro.api import get_registry
from repro.engine import solve_hypergraph
from repro.generators import generate_multiproc


def make_workload(n_instances: int, seed: int = 0):
    """Random MULTIPROC instances of mixed sizes and weight schemes."""
    rng = np.random.default_rng(seed)
    workload = []
    for k in range(n_instances):
        workload.append(
            generate_multiproc(
                int(rng.integers(30, 80)),
                2 * int(rng.integers(2, 5)),  # fewgmanyg needs g | p
                family="fewgmanyg",
                g=2,
                dv=int(rng.integers(2, 6)),
                dh=5,
                weights="related" if k % 2 else "unit",
                seed=rng,
            )
        )
    return workload


def main() -> None:
    n_instances = int(sys.argv[1]) if len(sys.argv) > 1 else 40
    workers = int(sys.argv[2]) if len(sys.argv) > 2 else None

    workload = make_workload(n_instances)
    print(f"workload: {n_instances} instances, "
          f"portfolio = {', '.join(get_registry().default_portfolio())}")

    # --- one call solves everything, portfolio-raced per instance -----
    t0 = time.perf_counter()
    results = solve_many(
        workload, method="portfolio", max_workers=workers, cache=False
    )
    dt = time.perf_counter() - t0
    print(f"solve_many(portfolio): {dt:.2f}s "
          f"({n_instances / dt:.1f} instances/s)")

    # portfolio never loses to the paper's recommended single heuristic
    evg_wins = port_wins = 0
    for hg, m in zip(workload, results):
        evg = solve_hypergraph(hg, method="EVG").makespan
        if m.makespan < evg:
            port_wins += 1
        elif m.makespan > evg:
            evg_wins += 1  # cannot happen: EVG is in the portfolio
    assert evg_wins == 0
    print(f"portfolio strictly beat EVG on {port_wins}/{n_instances} "
          "instances (never worse)")

    mean_q = float(np.mean([
        m.makespan / averaged_work_bound(hg)
        for hg, m in zip(workload, results)
    ]))
    print(f"mean quality (makespan / lower bound): {mean_q:.3f}")

    # --- SolveResult provenance: who actually won the races? ----------
    wins: dict[str, int] = {}
    for m in results:
        wins[m.winner] = wins.get(m.winner, 0) + 1
    print("portfolio winners: "
          + "  ".join(f"{k}={v}" for k, v in sorted(wins.items())))

    # --- repeated sweeps hit the result cache -------------------------
    cache = ResultCache()
    with BatchSolver(
        max_workers=workers, method="portfolio", cache=cache
    ) as engine:
        engine.solve_many(workload)          # cold: computes and fills
        t0 = time.perf_counter()
        again = engine.solve_many(workload)  # warm: pure cache hits
        dt_cached = time.perf_counter() - t0
    assert all(m.cache_hit for m in again)
    assert [m.makespan for m in again] == [m.makespan for m in results]
    print(f"re-sweep from cache: {dt_cached:.3f}s "
          f"({cache.hits} hits, {cache.misses} misses)")


if __name__ == "__main__":
    main()
