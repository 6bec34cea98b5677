"""Experiment runner: median-of-N protocol over the named instances.

The paper's protocol (Section V-A): for every parameter set, create 10
random instances and report the median of the measurements.  The runner
reproduces this for any list of :class:`InstanceSpec` and any set of
registered algorithms, recording per-instance quality ratios
(makespan / LB, eq. (1)), instance statistics and wall-clock times.

Execution backends
------------------
By default every (instance, algorithm) pair is solved inline, exactly as
the seed did.  Passing ``engine=`` (a :class:`repro.engine.BatchSolver`)
or ``max_workers=`` routes each algorithm's seed-batch through the batch
engine instead — pooled across instances, cached across repeated sweeps.
Measured makespans are identical either way (the engine runs the same
dispatch); only the wall-clock accounting changes from per-call to
per-batch (still reported as mean seconds per instance).

Inline, the runner goes instance by instance, every algorithm on one
instance before the next: the first algorithm's time includes compiling
the instance's kernels (:func:`repro.kernels.compile_instance`) and the
others reuse that compilation.  Through an engine each algorithm's batch
covers all instances, so in a serial engine the compile cache sees each
instance again only after the others; it admits the instance's
compilation on that second sighting, so the second algorithm's batch
pays a second compile per instance and the rest reuse it.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..algorithms.lower_bounds import averaged_work_bound
from ..api import get_registry
from .._util import Timer
from .instances import InstanceSpec

__all__ = ["InstanceResult", "ExperimentResult", "run_instances", "DEFAULT_ALGOS"]

DEFAULT_ALGOS = ("SGH", "VGH", "EGH", "EVG")


@dataclass(frozen=True)
class InstanceResult:
    """Median-of-seeds measurements for one named instance family."""

    name: str
    n_tasks: int
    n_procs: int
    n_hedges: int
    total_pins: int
    lower_bound: float
    quality: dict[str, float]  # algo -> median makespan / LB
    makespan: dict[str, float]  # algo -> median makespan
    time_s: dict[str, float]  # algo -> mean wall-clock seconds


@dataclass
class ExperimentResult:
    """All rows of one experiment plus aggregate statistics."""

    algorithms: tuple[str, ...]
    rows: list[InstanceResult] = field(default_factory=list)

    def average_quality(self) -> dict[str, float]:
        """Mean of the per-row median quality ratios (paper's last row)."""
        return {
            a: float(np.mean([r.quality[a] for r in self.rows]))
            for a in self.algorithms
        }

    def average_time(self) -> dict[str, float]:
        """Mean of the per-row times (paper's 'Average time' row)."""
        return {
            a: float(np.mean([r.time_s[a] for r in self.rows]))
            for a in self.algorithms
        }


def run_instances(
    specs,
    *,
    algorithms=DEFAULT_ALGOS,
    n_seeds: int = 10,
    seed0: int = 0,
    verbose: bool = False,
    engine=None,
    max_workers: int | None = None,
) -> ExperimentResult:
    """Run ``algorithms`` over ``n_seeds`` samples of every spec.

    ``seed0 + k`` seeds the ``k``-th sample of every family, so two runs
    with the same arguments are identical and different families still
    see different graphs.

    ``engine`` (a :class:`repro.engine.BatchSolver`) or ``max_workers``
    (shorthand for a fresh process-pool engine) batch each algorithm's
    instances through :meth:`BatchSolver.solve_many`.
    """
    if engine is None and max_workers is not None:
        from ..engine import BatchSolver, ResultCache

        # a private cache: sharing the process-wide one would let a
        # repeated run be answered from cache and wreck the reported
        # time_s (the paper's 'Average time' row)
        engine = BatchSolver(max_workers=max_workers, cache=ResultCache())
    result = ExperimentResult(algorithms=tuple(algorithms))
    for spec in specs:
        rows = _run_one(spec, algorithms, n_seeds, seed0, verbose, engine)
        result.rows.append(rows)
    return result


def _run_one(
    spec: InstanceSpec,
    algorithms,
    n_seeds: int,
    seed0: int,
    verbose: bool,
    engine,
) -> InstanceResult:
    hgs = [spec.generate(seed0 + k) for k in range(n_seeds)]
    lbs = [averaged_work_bound(hg) for hg in hgs]
    quality: dict[str, list[float]] = {a: [] for a in algorithms}
    makespans: dict[str, list[float]] = {a: [] for a in algorithms}
    timers: dict[str, Timer] = {a: Timer() for a in algorithms}

    runs: dict[str, list] = {a: [] for a in algorithms}
    if engine is not None:
        for a in algorithms:
            with timers[a]:
                runs[a] = engine.solve_many(hgs, method=a)
    else:
        solvers = {
            a: get_registry().resolve(
                a, domain="hypergraph", context="hypergraph algorithm"
            )
            for a in algorithms
        }
        # instance-major: the compilation the first algorithm pays for
        # serves the others straight from the compile cache
        for hg in hgs:
            for a in algorithms:
                with timers[a]:
                    runs[a].append(solvers[a].run(hg))
    for a in algorithms:
        for m, lb in zip(runs[a], lbs):
            makespans[a].append(m.makespan)
            quality[a].append(m.makespan / lb if lb > 0 else np.inf)

    if verbose:
        for k, lb in enumerate(lbs):
            qs = ", ".join(f"{a}={quality[a][k]:.3f}" for a in algorithms)
            print(f"  {spec.name} seed {seed0 + k}: LB={lb:g} {qs}")

    return InstanceResult(
        name=spec.name,
        n_tasks=spec.n,
        n_procs=spec.p,
        n_hedges=int(np.median([hg.n_hedges for hg in hgs])),
        total_pins=int(np.median([hg.total_pins for hg in hgs])),
        lower_bound=float(np.median(lbs)),
        quality={a: float(np.median(quality[a])) for a in algorithms},
        makespan={a: float(np.median(makespans[a])) for a in algorithms},
        time_s={a: timers[a].elapsed / n_seeds for a in algorithms},
    )
