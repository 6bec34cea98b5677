"""Built-in solver registrations.

Importing this module (which :mod:`repro.api` does) populates the
process-wide :class:`~repro.api.SolverRegistry` with every algorithm of
the paper plus the extensions.  The functions themselves live in
:mod:`repro.algorithms`; the decorators below only attach metadata.

The metadata *is* the dispatch policy:

* ``recommended_for`` drives ``method="auto"`` (e.g. SINGLEPROC-UNIT
  instances get the exact polynomial algorithm);
* ``portfolio=True`` puts a solver into the generated default portfolio
  line-up;
* ``domain="bipartite"`` makes the engine lift the solver through
  :meth:`TaskHypergraph.to_bipartite` and guard it against MULTIPROC
  instances.
"""

from __future__ import annotations

from typing import Any

from ..algorithms.exact_unit import exact_singleproc_unit
from ..algorithms.exhaustive import exhaustive_multiproc
from ..algorithms.greedy_bipartite import (
    basic_greedy,
    double_sorted,
    expected_greedy,
    sorted_greedy,
)
from ..algorithms.greedy_hypergraph import (
    expected_greedy_hyp,
    expected_vector_greedy_hyp,
    sorted_greedy_hyp,
    vector_greedy_hyp,
)
from ..algorithms.harvey import harvey_optimal_semi_matching
from .registry import register_solver

__all__: list[str] = []


# -- MULTIPROC (hypergraph) greedies of Section IV-D ------------------------
register_solver(
    name="SGH",
    domain="hypergraph",
    needs_backend=True,
    aliases=("sorted-greedy-hyp",),
    capabilities={"greedy", "weighted"},
    portfolio=True,
    summary="Sorted greedy on hyperedges (paper SGH).",
)(sorted_greedy_hyp)

register_solver(
    name="VGH",
    domain="hypergraph",
    needs_backend=True,
    aliases=("vector-greedy-hyp",),
    capabilities={"greedy", "weighted"},
    recommended_for={"hypergraph:unit"},
    portfolio=True,
    summary="Vector greedy, lexicographic load vectors (paper VGH).",
)(vector_greedy_hyp)

register_solver(
    name="EGH",
    domain="hypergraph",
    needs_backend=True,
    aliases=("expected-greedy-hyp",),
    capabilities={"greedy", "weighted"},
    portfolio=True,
    summary="Expected-load greedy on hyperedges (paper EGH).",
)(expected_greedy_hyp)

register_solver(
    name="EVG",
    domain="hypergraph",
    needs_backend=True,
    aliases=("expected-vector-greedy-hyp",),
    capabilities={"greedy", "weighted"},
    recommended_for={"hypergraph:weighted"},
    portfolio=True,
    summary="Expected vector greedy — the paper's best heuristic (EVG).",
)(expected_vector_greedy_hyp)


# -- MULTIPROC metaheuristic and oracle -------------------------------------
@register_solver(
    name="grasp",
    domain="hypergraph",
    capabilities={"randomized", "weighted"},
    portfolio=True,
    needs_seed=True,
    needs_backend=True,
    summary="Multi-start randomized greedy + local search (GRASP).",
)
def _grasp(hg: Any, *, seed: int = 0, backend: str = "numpy") -> Any:
    from ..algorithms.grasp import grasp

    return grasp(hg, seed=seed, backend=backend).matching


register_solver(
    name="exhaustive",
    domain="hypergraph",
    capabilities={"exact", "weighted"},
    summary="Branch-and-bound oracle (tiny instances only).",
)(exhaustive_multiproc)


# -- the dynamic subsystem's from-scratch entry point -----------------------
@register_solver(
    name="incremental",
    domain="hypergraph",
    aliases=("dynamic",),
    capabilities={"weighted", "dynamic"},
    summary="Incremental engine (repro.dynamic): repairs across mutations.",
)
def _incremental(hg: Any) -> Any:
    from ..dynamic.solver import incremental_solve

    return incremental_solve(hg)


# -- SINGLEPROC (bipartite) greedies of Section IV-B ------------------------
register_solver(
    name="basic-greedy",
    domain="bipartite",
    capabilities={"greedy", "weighted"},
    summary="Eligible processor of least resulting load l(u)+w, tasks in index order (Alg. 1).",
)(basic_greedy)

register_solver(
    name="sorted-greedy",
    domain="bipartite",
    capabilities={"greedy", "weighted"},
    summary="As basic-greedy, tasks by non-decreasing degree.",
)(sorted_greedy)

register_solver(
    name="double-sorted",
    domain="bipartite",
    capabilities={"greedy", "weighted"},
    summary="Sorted greedy plus a processor in-degree tie-break (Alg. 2).",
)(double_sorted)

register_solver(
    name="expected-greedy",
    domain="bipartite",
    capabilities={"greedy", "weighted"},
    recommended_for={"bipartite:weighted"},
    summary="Expected-load greedy — best bipartite heuristic.",
)(expected_greedy)


@register_solver(
    name="exact",
    domain="bipartite",
    capabilities={"exact", "unit_only"},
    recommended_for={"bipartite:unit"},
    summary="Exact polynomial algorithm for SINGLEPROC-UNIT (Sec. IV-A).",
)
def _exact(graph: Any) -> Any:
    return exact_singleproc_unit(graph).matching


register_solver(
    name="harvey",
    domain="bipartite",
    capabilities={"exact", "unit_only"},
    summary="Harvey et al.'s optimal semi-matching, O(|V1||E|).",
)(harvey_optimal_semi_matching)
