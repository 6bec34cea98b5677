"""repro — semi-matching algorithms for scheduling parallel tasks under
resource constraints.

A complete, from-scratch Python implementation of Benoit, Langguth and
Uçar, *"Semi-matching algorithms for scheduling parallel tasks under
resource constraints"*, IEEE IPDPSW 2013: the SINGLEPROC/MULTIPROC
problem models, the exact polynomial algorithm for unit bipartite
instances, all greedy heuristics of Sections IV-B and IV-D, the lower
bounds, the random instance generators of the evaluation, the worst-case
constructions, the Theorem 1 reduction, and a benchmark harness that
regenerates every table of the paper.

Quick start
-----------
>>> from repro import SchedulingProblem, solve
>>> prob = SchedulingProblem(processors=["cpu0", "cpu1", "gpu"])
>>> _ = prob.add_task("render", [(("gpu",), 2.0), (("cpu0", "cpu1"), 5.0)])
>>> _ = prob.add_task("encode", [(("cpu0",), 3.0), (("cpu1",), 3.0)])
>>> schedule = solve(prob)
>>> schedule.makespan
3.0

The strategy is one ``method`` expression: a solver name (``"EVG"``),
``"EVG+ls"`` to refine with local search, ``"portfolio(SGH,EVG+ls)"``
to race entries and keep the best makespan (bare ``"portfolio"`` races
the generated default line-up).  Every entry point takes the fields of
``SolveOptions`` (``method``, ``seed``, ``time_budget``, ``backend``)
as keywords, or a prepared ``options=`` object, never both.  Batches of
instances go through the engine — pooled workers and an instance-hash
result cache::

    from repro import solve_many
    schedules = solve_many(problems, method="portfolio", max_workers=8)

Package map
-----------
* :mod:`repro.core` — graphs, hypergraphs, semi-matching results;
* :mod:`repro.matching` — maximum capacitated bipartite matching (Kuhn);
* :mod:`repro.algorithms` — exact solvers, heuristics, bounds;
* :mod:`repro.api` — the unified solver API: the capability-aware
  ``SolverRegistry`` + ``register_solver``, typed ``SolveOptions`` /
  ``SolveResult``, and composable method expressions
  (``Refine``/``Portfolio``/``parse_method``);
* :mod:`repro.generators` — random families, worst cases, X3C, churn
  traces;
* :mod:`repro.sched` — named scheduling problems and their schedules;
* :mod:`repro.dynamic` — incremental solving for mutating instances:
  ``DynamicInstance`` (mutable overlay, delta journal,
  snapshot/rollback, content digest) and ``IncrementalSolver``
  (localized repair instead of re-solving), plus JSONL mutation traces
  (``semimatch replay``);
* :mod:`repro.engine` — batch solving: ``BatchSolver``/``solve_many``
  (process pools, chunked distribution), portfolio racing, and a
  content-addressed result cache shared with ``solve``;
* :mod:`repro.service` — the traffic front-end: an asyncio TCP solve
  server (JSON header lines, binary array attachments) with adaptive
  micro-batching, single-flight dedup of identical in-flight
  requests, sessioned dynamic instances and
  admission control (``semimatch serve`` / ``semimatch submit``), plus
  blocking and asyncio clients;
* :mod:`repro.experiments` — the paper's tables (engine-accelerated via
  ``run_instances(..., max_workers=...)``);
* :mod:`repro.io` — JSON serialisation.
"""

from .algorithms import (
    basic_greedy,
    double_sorted,
    exact_singleproc_unit,
    expected_greedy,
    expected_greedy_hyp,
    expected_vector_greedy_hyp,
    harvey_optimal_semi_matching,
    local_search,
    sorted_greedy,
    sorted_greedy_hyp,
    vector_greedy_hyp,
)
from .algorithms.lower_bounds import (
    averaged_work_bound,
    combined_bound,
    critical_task_bound,
)
from .api import (
    Portfolio,
    Refine,
    SolveOptions,
    SolveResult,
    SolverRegistry,
    UnknownSolverError,
    get_registry,
    parse_method,
    register_solver,
    solve,
)
from .core import (
    BipartiteGraph,
    GraphStructureError,
    HyperSemiMatching,
    InfeasibleError,
    InvalidMatchingError,
    SemiMatchError,
    SemiMatching,
    SolverError,
    TaskHypergraph,
)
from .dynamic import DynamicInstance, IncrementalSolver
from .engine import BatchSolver, ResultCache, solve_many
from .kernels import CompiledKernels, compile_instance
from .generators import churn_trace, generate_multiproc
from .sched import Schedule, SchedulingProblem, TaskSpec

__version__ = "1.0.0"

__all__ = [
    "__version__",
    # core
    "BipartiteGraph",
    "TaskHypergraph",
    "SemiMatching",
    "HyperSemiMatching",
    "SemiMatchError",
    "GraphStructureError",
    "InvalidMatchingError",
    "SolverError",
    "InfeasibleError",
    # scheduling layer
    "SchedulingProblem",
    "TaskSpec",
    "Schedule",
    "solve",
    # unified solver API
    "SolveOptions",
    "SolveResult",
    "SolverRegistry",
    "register_solver",
    "get_registry",
    "Refine",
    "Portfolio",
    "parse_method",
    "UnknownSolverError",
    # batch engine
    "BatchSolver",
    "ResultCache",
    "solve_many",
    # kernel core
    "CompiledKernels",
    "compile_instance",
    # dynamic subsystem
    "DynamicInstance",
    "IncrementalSolver",
    # algorithms
    "basic_greedy",
    "sorted_greedy",
    "double_sorted",
    "expected_greedy",
    "sorted_greedy_hyp",
    "vector_greedy_hyp",
    "expected_greedy_hyp",
    "expected_vector_greedy_hyp",
    "exact_singleproc_unit",
    "harvey_optimal_semi_matching",
    "local_search",
    "averaged_work_bound",
    "critical_task_bound",
    "combined_bound",
    # generators
    "generate_multiproc",
    "churn_trace",
]
