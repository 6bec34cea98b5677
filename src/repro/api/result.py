"""Rich solve results: the matching plus its provenance.

:class:`SolveResult` is what every solve path returns since the unified
API landed: the chosen matching, the schedule view when the input was a
named :class:`~repro.sched.model.SchedulingProblem`, and provenance —
which solver won, how long the solve took, whether the engine cache
answered, the combined lower bound and the optimality gap, and per-entry
portfolio statistics.

It intentionally *feels like* the objects it wraps: ``makespan``,
``hedge_of_task``, ``loads()``, ``allocation()``, ``timeline()``,
``gantt()`` and friends all work directly, so pre-refactor call sites
keep reading naturally.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any

import numpy as np

from ..core.semimatching import HyperSemiMatching
from .methods import EntryStat
from .options import SolveOptions

__all__ = ["SolveResult"]


@dataclass
class SolveResult:
    """A solved instance with full provenance.

    Attributes
    ----------
    matching:
        The chosen :class:`HyperSemiMatching` (bit-identical to what the
        underlying algorithm produces when called directly).
    options:
        The *normalized* :class:`SolveOptions` the engine executed.
    schedule:
        The named :class:`~repro.sched.schedule.Schedule` view when the
        input was a :class:`SchedulingProblem`, else ``None``.
    winner:
        The solver (or portfolio entry) that produced the matching —
        auto-selection and portfolio races record their pick here.
    wall_time_s:
        Wall-clock seconds spent solving (≈0 on a cache hit).
    cache_hit:
        Whether the engine's result cache answered.
    portfolio:
        Per-entry :class:`EntryStat` tuples for portfolio races, else
        ``None``.
    stats:
        Span-attributed timing breakdown of *this* solve: ``solve_s``
        and ``cache_hit`` always; ``compile_s`` when a kernel compile
        happened inside the solve (requires tracing enabled — the
        engine reads it off the span timings); ``queue_s`` when the
        solve went through the service's micro-batcher; ``ls_moves``
        and ``ls_capped`` when the answer is a local search's (``+ls``,
        GRASP's best iteration, a portfolio's winning entry): that
        search's moves, and whether it stopped at its move budget
        rather than at a local optimum.  Empty only for results built outside the
        engine.
    """

    matching: HyperSemiMatching
    options: SolveOptions
    schedule: object | None = None
    winner: str | None = None
    wall_time_s: float = 0.0
    cache_hit: bool = False
    portfolio: tuple[EntryStat, ...] | None = None
    stats: dict = field(default_factory=dict)
    _lower_bound: float | None = field(
        default=None, repr=False, compare=False
    )

    # -- identity ------------------------------------------------------
    @property
    def method(self) -> str:
        """Canonical method string (parseable by ``parse_method``)."""
        m = self.options.method
        return m if isinstance(m, str) else m.canonical()

    @property
    def makespan(self) -> float:
        """``max_u l(u)`` — the objective value."""
        return self.matching.makespan

    @property
    def hedge_of_task(self) -> np.ndarray:
        """The chosen hyperedge (configuration) per task."""
        return self.matching.hedge_of_task

    # -- bounds ---------------------------------------------------------
    @property
    def lower_bound(self) -> float:
        """Combined lower bound on the optimal makespan (computed lazily
        and cached; 0 for empty instances)."""
        if self._lower_bound is None:
            from ..algorithms.lower_bounds import combined_bound

            hg = self.matching.hypergraph
            self._lower_bound = (
                combined_bound(hg) if hg.n_tasks else 0.0
            )
        return self._lower_bound

    @property
    def gap(self) -> float:
        """``makespan - lower_bound`` — an upper bound on the distance
        to optimal.  Always ``>= 0`` (the bound is valid)."""
        return self.makespan - self.lower_bound

    @property
    def quality(self) -> float:
        """``makespan / lower_bound``, the paper's quality ratio
        (``1.0`` for empty instances, ``inf`` when the bound is 0)."""
        lb = self.lower_bound
        if lb > 0:
            return self.makespan / lb
        return 1.0 if self.makespan == 0 else float("inf")

    # -- ergonomics ------------------------------------------------------
    def __getattr__(self, name: str) -> Any:
        # delegate the remaining surface of Schedule / HyperSemiMatching
        # (allocation(), timeline(), gantt(), loads(), alloc(), ...)
        if name.startswith("_"):
            raise AttributeError(name)
        schedule = self.__dict__.get("schedule")
        if schedule is not None and hasattr(schedule, name):
            return getattr(schedule, name)
        matching = self.__dict__.get("matching")
        if matching is not None and hasattr(matching, name):
            return getattr(matching, name)
        raise AttributeError(
            f"{type(self).__name__!r} object has no attribute {name!r}"
        )

    def summary(self) -> str:
        """Multi-line human-readable description with provenance."""
        head = (
            self.schedule.summary()
            if self.schedule is not None
            else self.matching.summary()
        )
        lines = [
            head,
            f"  LB / gap  : {self.lower_bound:g} / {self.gap:g}",
            f"  method    : {self.method}"
            + (f" -> {self.winner}" if self.winner else ""),
            f"  wall time : {self.wall_time_s:.6f}s"
            + ("  [cache hit]" if self.cache_hit else ""),
        ]
        if self.portfolio:
            for e in self.portfolio:
                marker = "*" if e.method == self.winner else " "
                lines.append(
                    f"  {marker} {e.method:<24} makespan={e.makespan:<10g}"
                    f" {e.time_s:.6f}s"
                )
        return "\n".join(lines)
