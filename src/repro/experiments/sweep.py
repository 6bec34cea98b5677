"""Parameter sweeps: the paper's ranking-robustness claim, executable.

Section V-A2 states: *"In all combinations of dv, dh, the ranking of the
heuristics according to the mean average quality were the same"* (and
Section V-B makes the matching claim for the bipartite ``d`` grid).
:func:`ranking_sweep` runs the harness over a ``(dv, dh)`` grid and
returns the per-combination algorithm ranking plus a consistency verdict,
so the claim can be tested at any scale.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

from .instances import InstanceSpec
from .runner import DEFAULT_ALGOS, run_instances, sweep_engine

__all__ = ["RankingSweep", "ranking_sweep"]


@dataclass(frozen=True)
class RankingSweep:
    """Outcome of a (dv, dh) ranking sweep.

    ``rankings[(dv, dh)]`` lists the algorithms best-first by mean
    average quality; ``consistent`` is True when every combination
    produced the same order (ties broken by the fixed algorithm order,
    mirroring how a table reader would break them).
    """

    rankings: dict[tuple[int, int], tuple[str, ...]]
    average_quality: dict[tuple[int, int], dict[str, float]]

    @property
    def consistent(self) -> bool:
        orders = set(self.rankings.values())
        return len(orders) <= 1

    def describe(self) -> str:
        lines = []
        for (dv, dh), order in sorted(self.rankings.items()):
            avg = self.average_quality[(dv, dh)]
            vals = "  ".join(f"{a}={avg[a]:.3f}" for a in order)
            lines.append(f"dv={dv} dh={dh}: {vals}")
        lines.append(
            "ranking consistent across the grid: "
            + ("yes" if self.consistent else "NO")
        )
        return "\n".join(lines)


def ranking_sweep(
    base_specs: list[InstanceSpec],
    *,
    dv_values=(2, 5, 10),
    dh_values=(2, 5, 10),
    algorithms=DEFAULT_ALGOS,
    n_seeds: int = 3,
    seed0: int = 0,
    rank_tolerance: float = 0.005,
    engine=None,
    max_workers: int | None = None,
) -> RankingSweep:
    """Run every ``(dv, dh)`` combination and rank the algorithms.

    ``rank_tolerance`` merges algorithms whose mean average qualities
    differ by less than this into a tie (ranked by the input order), so
    instance noise does not manufacture spurious ranking flips — the
    paper's claim is about the *meaningful* order.

    Every cell runs on ``engine``, or on one private engine of
    ``max_workers`` workers (default 1) that the whole grid shares and
    that is closed before returning (see
    :func:`repro.experiments.runner.run_instances`).  A caller's engine
    keeps its result cache across sweeps, so re-running a sweep or an
    overlapping grid on it never recomputes a solved instance.
    """
    rankings: dict[tuple[int, int], tuple[str, ...]] = {}
    averages: dict[tuple[int, int], dict[str, float]] = {}
    with sweep_engine(engine, max_workers) as eng:
        for dv in dv_values:
            for dh in dh_values:
                specs = [replace(s, dv=dv, dh=dh) for s in base_specs]
                res = run_instances(
                    specs,
                    algorithms=algorithms,
                    n_seeds=n_seeds,
                    seed0=seed0,
                    engine=eng,
                )
                avg = res.average_quality()
                averages[(dv, dh)] = avg
                # stable rank with tolerance-based tie merging
                order = sorted(
                    algorithms,
                    key=lambda a: (
                        round(avg[a] / rank_tolerance) * rank_tolerance,
                        algorithms.index(a),
                    ),
                )
                rankings[(dv, dh)] = tuple(order)
    return RankingSweep(rankings=rankings, average_quality=averages)
