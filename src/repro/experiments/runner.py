"""Experiment runner: median-of-N protocol over the named instances.

The paper's protocol (Section V-A): for every parameter set, create 10
random instances and report the median of the measurements.  The runner
reproduces this for any list of :class:`InstanceSpec` and any set of
registered algorithms, recording per-instance quality ratios
(makespan / LB, eq. (1)), instance statistics and wall-clock times.

Execution
---------
Every solve goes through a :class:`repro.engine.BatchSolver`: the
caller's ``engine=``, or else one the runner builds (``max_workers``
workers, 1 by default, with a private result cache) and closes before
returning.  An inline engine (serial, or one worker) goes instance by
instance, every algorithm on one instance before the next, one
single-instance ``solve_many`` each: the first algorithm's time
includes compiling the instance's kernels
(:func:`repro.kernels.compile_instance`) and the others reuse that
compilation.  A pooled engine solves each algorithm's instances in one
``solve_many`` batch instead, timed per batch (still reported as mean
seconds per instance).  Measured makespans are identical either way.
"""

from __future__ import annotations

from contextlib import contextmanager
from dataclasses import dataclass, field

import numpy as np

from ..algorithms.lower_bounds import averaged_work_bound
from .._util import Timer
from ..engine import BatchSolver, ResultCache
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
    #: algo -> seeds whose answer's local search stopped at its budget
    ls_capped: dict[str, int] = field(default_factory=dict)


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

    Solves run on ``engine`` (a :class:`repro.engine.BatchSolver`), or
    on a private engine of ``max_workers`` workers (default 1) closed
    before returning; see the module docstring for the solve order.
    """
    result = ExperimentResult(algorithms=tuple(algorithms))
    with sweep_engine(engine, max_workers) as eng:
        for spec in specs:
            result.rows.append(
                _run_one(spec, algorithms, n_seeds, seed0, verbose, eng)
            )
    return result


@contextmanager
def sweep_engine(engine=None, max_workers: int | None = None):
    """``engine`` itself, or a private engine closed on exit.

    The private engine has ``max_workers`` workers (default 1) and its
    own result cache: sharing the process-wide one would let a repeated
    run be answered from cache and wreck the reported ``time_s`` (the
    paper's 'Average time' row).
    """
    if engine is not None:
        yield engine
        return
    owned = BatchSolver(max_workers=max_workers or 1, cache=ResultCache())
    try:
        yield owned
    finally:
        owned.close()


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
    if engine.inline:
        # instance-major: the compilation the first algorithm pays for
        # serves the others straight from the compile cache
        for hg in hgs:
            for a in algorithms:
                with timers[a]:
                    runs[a] += engine.solve_many([hg], method=a)
    else:
        for a in algorithms:
            with timers[a]:
                runs[a] = engine.solve_many(hgs, method=a)
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
        ls_capped={
            a: sum(bool(m.stats.get("ls_capped")) for m in runs[a])
            for a in algorithms
        },
    )
