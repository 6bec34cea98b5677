"""Algorithms: exact solvers, greedy heuristics, bounds and refinements."""

from .approx import LSTReport, lst_approximation
from .baselines import first_fit, min_work, random_assignment
from .certificates import (
    DeadlineCertificate,
    deadline_certificate,
    hall_violator,
)
from .exact_unit import ExactUnitReport, exact_singleproc_unit, feasible_makespan
from .grasp import GraspReport, grasp, randomized_greedy
from .online import OnlineAssignment, OnlineScheduler
from .reductions import ReducedInstance, preprocess, solve_reduced
from .exhaustive import exhaustive_multiproc, exhaustive_singleproc
from .greedy_bipartite import (
    basic_greedy,
    double_sorted,
    expected_greedy,
    greedy_assign,
    sorted_greedy,
)
from .greedy_hypergraph import (
    expected_greedy_hyp,
    expected_vector_greedy_hyp,
    sorted_greedy_hyp,
    vector_greedy_hyp,
)
from .harvey import harvey_optimal_semi_matching
from .local_search import LocalSearchReport, local_search
from .lower_bounds import (
    averaged_work_bound,
    averaged_work_bound_bipartite,
    combined_bound,
    critical_task_bound,
    lp_relaxation_bound,
)

__all__ = [
    "grasp",
    "GraspReport",
    "randomized_greedy",
    "preprocess",
    "solve_reduced",
    "ReducedInstance",
    "hall_violator",
    "deadline_certificate",
    "DeadlineCertificate",
    "lst_approximation",
    "LSTReport",
    "OnlineScheduler",
    "OnlineAssignment",
    "random_assignment",
    "first_fit",
    "min_work",
    "basic_greedy",
    "sorted_greedy",
    "double_sorted",
    "expected_greedy",
    "greedy_assign",
    "sorted_greedy_hyp",
    "vector_greedy_hyp",
    "expected_greedy_hyp",
    "expected_vector_greedy_hyp",
    "exact_singleproc_unit",
    "feasible_makespan",
    "ExactUnitReport",
    "harvey_optimal_semi_matching",
    "exhaustive_multiproc",
    "exhaustive_singleproc",
    "local_search",
    "LocalSearchReport",
    "averaged_work_bound",
    "averaged_work_bound_bipartite",
    "critical_task_bound",
    "combined_bound",
    "lp_relaxation_bound",
]
