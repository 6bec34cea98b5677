"""SINGLEPROC-UNIT experiments (paper Section V-B).

The paper summarises these in prose (full tables live in the technical
report): on HiLo and FewgManyg bipartite instances, compare the four
greedy heuristics against the exact algorithm — quality as the ratio of
the greedy makespan to the optimum, plus running times.  This module
reproduces that protocol with the same parameter grid
(``d ∈ {2, 5, 10}``, ``g ∈ {32, 128}``, the Table I size grid).
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from ..algorithms.exact_unit import exact_singleproc_unit
from ..api import get_registry
from ..core.bipartite import BipartiteGraph
from ..generators.fewgmanyg import fewgmanyg_bipartite
from ..generators.hilo import hilo_bipartite
from .._util import Timer

__all__ = [
    "SingleProcSpec",
    "SingleProcRow",
    "SingleProcResult",
    "singleproc_specs",
    "run_singleproc",
    "GREEDY_NAMES",
]

GREEDY_NAMES = ("basic-greedy", "sorted-greedy", "double-sorted", "expected-greedy")


@dataclass(frozen=True)
class SingleProcSpec:
    """One bipartite instance family (name encodes the paper convention)."""

    name: str
    family: str  # 'hilo' or 'fewgmanyg'
    g: int
    n: int
    p: int
    d: int

    def generate(self, seed: int | None) -> BipartiteGraph:
        if self.family == "hilo":
            return hilo_bipartite(self.n, self.p, self.g, self.d)
        return fewgmanyg_bipartite(self.n, self.p, self.g, self.d, seed)


def singleproc_specs(
    *,
    d: int = 10,
    sizes=((5, 1), (20, 1), (20, 4), (80, 1), (80, 4), (80, 16)),
) -> tuple[SingleProcSpec, ...]:
    """The paper's SINGLEPROC grid for one degree parameter ``d``."""
    specs = []
    for prefix, family, g in (
        ("FG", "fewgmanyg", 32),
        ("MG", "fewgmanyg", 128),
        ("HLF", "hilo", 32),
        ("HLM", "hilo", 128),
    ):
        for x, y in sizes:
            specs.append(
                SingleProcSpec(
                    name=f"{prefix}-{x}-{y}-SP-d{d}",
                    family=family,
                    g=g,
                    n=256 * x,
                    p=256 * y,
                    d=d,
                )
            )
    return tuple(specs)


@dataclass(frozen=True)
class SingleProcRow:
    """Median-of-seeds measurements for one bipartite family."""

    name: str
    n_tasks: int
    n_procs: int
    n_edges: int
    optimum: float
    quality: dict[str, float]  # greedy -> median makespan / optimum
    time_s: dict[str, float]
    exact_time_s: float


@dataclass
class SingleProcResult:
    algorithms: tuple[str, ...]
    rows: list[SingleProcRow] = field(default_factory=list)

    def average_quality(self) -> dict[str, float]:
        return {
            a: float(np.mean([r.quality[a] for r in self.rows]))
            for a in self.algorithms
        }

    def average_time(self) -> dict[str, float]:
        out = {
            a: float(np.mean([r.time_s[a] for r in self.rows]))
            for a in self.algorithms
        }
        out["exact"] = float(np.mean([r.exact_time_s for r in self.rows]))
        return out


def run_singleproc(
    specs,
    *,
    algorithms=GREEDY_NAMES,
    n_seeds: int = 10,
    seed0: int = 0,
    verbose: bool = False,
) -> SingleProcResult:
    """Greedy-vs-exact protocol over bipartite families.

    HiLo is deterministic, so its families collapse to a single seed
    (statistics are still reported uniformly).
    """
    result = SingleProcResult(algorithms=tuple(algorithms))
    for spec in specs:
        seeds = range(seed0, seed0 + (1 if spec.family == "hilo" else n_seeds))
        edges: list[int] = []
        optima: list[float] = []
        quality: dict[str, list[float]] = {a: [] for a in algorithms}
        timers = {a: Timer() for a in algorithms}
        exact_timer = Timer()
        for k in seeds:
            graph = spec.generate(k)
            edges.append(graph.n_edges)
            with exact_timer:
                opt = exact_singleproc_unit(graph)
            optima.append(float(opt.optimal_makespan))
            for a in algorithms:
                solver = get_registry().resolve(
                    a, domain="bipartite", context="bipartite algorithm"
                )
                with timers[a]:
                    m = solver.run(graph)
                quality[a].append(m.makespan / opt.optimal_makespan)
            if verbose:
                qs = ", ".join(
                    f"{a}={quality[a][-1]:.3f}" for a in algorithms
                )
                print(f"  {spec.name} seed {k}: opt={opt.optimal_makespan} {qs}")
        ns = len(list(seeds))
        result.rows.append(
            SingleProcRow(
                name=spec.name,
                n_tasks=spec.n,
                n_procs=spec.p,
                n_edges=int(np.median(edges)),
                optimum=float(np.median(optima)),
                quality={a: float(np.median(quality[a])) for a in algorithms},
                time_s={a: timers[a].elapsed / ns for a in algorithms},
                exact_time_s=exact_timer.elapsed / ns,
            )
        )
    return result
