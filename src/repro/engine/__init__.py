"""Batch-solving engine: pooled execution, portfolio racing, result cache.

* :class:`BatchSolver` / :func:`solve_many` — solve many instances
  concurrently on a process pool, with chunked distribution;
  every solve returns a rich :class:`~repro.api.SolveResult`.
  :func:`solve_many` solves on a private engine it closes on return:
  to keep a pool warm across calls, hold one :class:`BatchSolver`;
* portfolio mode — race several registered algorithms per instance and
  keep the best makespan;
* :class:`ResultCache` — content-addressed LRU so repeated sweeps never
  recompute;
* :func:`solve_hypergraph` — one uncached solve of a hypergraph, the
  same evaluation :func:`repro.solve` and the pool workers run, driven
  by the :mod:`repro.api` solver registry.

The default portfolio line-up (``get_registry().default_portfolio()``)
is generated from the registry, so a newly registered solver is
instantly usable here.
"""

from .batch import (
    BatchSolver,
    cache_report,
    default_cache,
    default_engine,
    solve_hypergraph,
    solve_many,
)
from .cache import CachedSolve, ResultCache, instance_digest, structure_digest

__all__ = [
    "BatchSolver",
    "solve_many",
    "default_engine",
    "default_cache",
    "cache_report",
    "ResultCache",
    "CachedSolve",
    "instance_digest",
    "structure_digest",
    "solve_hypergraph",
]
