"""Ablation experiments for the design choices the paper leaves open.

* ``lookahead`` — Algorithm 4 as printed (compare ``max l(u)``) versus
  the post-assignment bottleneck (``max l(u) + w_h``): the lookahead
  matters on weighted instances and is a wash on unit ones.
* ``local-search`` — how much the hill-climbing extension improves each
  greedy's solution, and its cost.
* ``vector comparison`` — the lemma-based fast comparison versus the
  naive full-vector sort the paper implemented (identical decisions,
  different cost).
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.algorithms import (
    expected_vector_greedy_hyp,
    local_search,
    sorted_greedy_hyp,
    vector_greedy_hyp,
)
from repro.algorithms.lower_bounds import averaged_work_bound

from conftest import SEEDS, cached_instance, cached_lower_bound


@pytest.mark.parametrize("weights", ["unit", "related"])
@pytest.mark.parametrize("lookahead", [True, False], ids=["post", "literal"])
def test_sgh_lookahead(benchmark, weights, lookahead):
    hg = cached_instance("FG-5-1-MP", weights, 0)

    m = benchmark(sorted_greedy_hyp, hg, lookahead=lookahead)

    lb = cached_lower_bound("FG-5-1-MP", weights, 0)
    benchmark.extra_info.update(
        {"quality": round(m.makespan / lb, 3), "weights": weights}
    )


def test_lookahead_never_hurts_on_unit(benchmark):
    """On unit instances the two SGH variants pick identically."""
    hg = cached_instance("MG-5-1-MP", "unit", 0)

    def both():
        a = sorted_greedy_hyp(hg, lookahead=True)
        b = sorted_greedy_hyp(hg, lookahead=False)
        return a, b

    a, b = benchmark(both)
    assert np.array_equal(a.hedge_of_task, b.hedge_of_task)


@pytest.mark.parametrize("weights", ["unit", "related"])
def test_local_search_refinement(benchmark, weights):
    hg = cached_instance("FG-5-1-MP", weights, 0)
    start = sorted_greedy_hyp(hg)

    report = benchmark(local_search, start)

    lb = averaged_work_bound(hg)
    benchmark.extra_info.update(
        {
            "initial_quality": round(report.initial_makespan / lb, 3),
            "final_quality": round(report.final_makespan / lb, 3),
            "moves": report.moves,
        }
    )
    assert report.final_makespan <= report.initial_makespan


@pytest.mark.parametrize("method", ["fast", "naive"])
def test_vgh_comparison_method(benchmark, method):
    """Cost of the lemma-based vs full-sort vector comparison (VGH)."""
    hg = cached_instance("MG-5-1-MP", "unit", 0)

    m = benchmark(vector_greedy_hyp, hg, method=method)

    benchmark.extra_info["makespan"] = m.makespan


@pytest.mark.parametrize("method", ["fast", "naive"])
def test_evg_comparison_method(benchmark, method):
    """Same ablation for EVG, where the affected set is the pin union."""
    hg = cached_instance("MG-5-1-MP", "related", 0)

    m = benchmark(expected_vector_greedy_hyp, hg, method=method)

    benchmark.extra_info["makespan"] = m.makespan


def test_fast_and_naive_identical_decisions(benchmark):
    hg = cached_instance("MG-5-1-MP", "related", 1)

    def run():
        return vector_greedy_hyp(hg, method="fast")

    fast = benchmark(run)
    naive = vector_greedy_hyp(hg, method="naive")
    assert np.array_equal(fast.hedge_of_task, naive.hedge_of_task)
