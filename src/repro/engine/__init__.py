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
* :func:`solve_hypergraph` — the shared hypergraph-level dispatch that
  both :func:`repro.sched.solve` and the pool workers execute, driven by
  the :mod:`repro.api` solver registry.

``known_methods()`` and the default portfolio line-up
(``get_registry().default_portfolio()``) are generated from the
registry, so a newly registered solver is instantly usable here.
"""

from .batch import (
    BatchSolver,
    cache_report,
    default_cache,
    default_engine,
    solve_many,
)
from .cache import CachedSolve, ResultCache, instance_digest, structure_digest
from .dispatch import known_methods, solve_hypergraph, solve_hypergraph_outcome

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
    "known_methods",
    "solve_hypergraph",
    "solve_hypergraph_outcome",
]

