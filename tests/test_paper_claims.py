"""Regression tests for the paper's qualitative claims, at mini scale.

These pin the *shape* of the evaluation section's findings — the
statements the reproduction must preserve — on shrunken instances so the
suite stays fast.  The full-size runs are the ``benchmarks/bench_table*``
experiments.
"""

import numpy as np
import pytest

from repro.algorithms import (
    averaged_work_bound,
    basic_greedy,
    exact_singleproc_unit,
    expected_greedy,
    expected_greedy_hyp,
    expected_vector_greedy_hyp,
    sorted_greedy,
    sorted_greedy_hyp,
    vector_greedy_hyp,
)
from repro.generators import (
    fewgmanyg_bipartite,
    generate_multiproc,
    hilo_bipartite,
)

SEEDS = range(4)


def _median_quality(fn, instances, lbs):
    return float(
        np.median([fn(hg).makespan / lb for hg, lb in zip(instances, lbs)])
    )


@pytest.fixture(scope="module")
def fg_unit():
    insts = [
        generate_multiproc(640, 128, family="fewgmanyg", g=16, dv=5,
                           dh=10, seed=s)
        for s in SEEDS
    ]
    return insts, [averaged_work_bound(h) for h in insts]


@pytest.fixture(scope="module")
def fg_related():
    insts = [
        generate_multiproc(640, 128, family="fewgmanyg", g=16, dv=5,
                           dh=10, weights="related", seed=s)
        for s in SEEDS
    ]
    return insts, [averaged_work_bound(h) for h in insts]


@pytest.fixture(scope="module")
def hilo_related():
    insts = [
        generate_multiproc(640, 128, family="hilo", g=16, dv=5, dh=10,
                           weights="related", seed=s)
        for s in SEEDS
    ]
    return insts, [averaged_work_bound(h) for h in insts]


class TestTable2Claims:
    """Unweighted instances (Table II)."""

    def test_vector_strategy_helps_on_fewgmanyg(self, fg_unit):
        insts, lbs = fg_unit
        sgh = _median_quality(sorted_greedy_hyp, insts, lbs)
        vgh = _median_quality(vector_greedy_hyp, insts, lbs)
        assert vgh <= sgh + 1e-9

    def test_all_heuristics_tie_on_unweighted_hilo(self):
        insts = [
            generate_multiproc(640, 128, family="hilo", g=16, dv=5,
                               dh=10, seed=s)
            for s in SEEDS
        ]
        for hg in insts:
            mks = {
                fn(hg).makespan
                for fn in (
                    sorted_greedy_hyp,
                    vector_greedy_hyp,
                    expected_greedy_hyp,
                    expected_vector_greedy_hyp,
                )
            }
            # within one unit of each other (the paper's rows are equal)
            assert max(mks) - min(mks) <= 1.0


class TestTable3Claims:
    """Related-weight instances (Table III)."""

    def test_expected_strategy_wins_on_weights(self, fg_related):
        insts, lbs = fg_related
        sgh = _median_quality(sorted_greedy_hyp, insts, lbs)
        egh = _median_quality(expected_greedy_hyp, insts, lbs)
        evg = _median_quality(expected_vector_greedy_hyp, insts, lbs)
        assert egh <= sgh + 0.02
        assert evg <= egh + 0.02

    def test_expected_strategy_wins_on_weighted_hilo(self, hilo_related):
        insts, lbs = hilo_related
        sgh = _median_quality(sorted_greedy_hyp, insts, lbs)
        egh = _median_quality(expected_greedy_hyp, insts, lbs)
        # the Table III HiLo signature: EGH clearly below SGH
        assert egh < sgh - 0.02


class TestSectionVBClaims:
    """SINGLEPROC greedy-vs-exact (Section V-B)."""

    def test_sorted_beats_basic_on_hilo(self):
        g = hilo_bipartite(640, 128, g=16, d=10)
        opt = exact_singleproc_unit(g).optimal_makespan
        basic = basic_greedy(g).makespan / opt
        srt = sorted_greedy(g).makespan / opt
        expd = expected_greedy(g).makespan / opt
        assert srt <= basic + 1e-9
        assert expd <= srt + 1e-9

    def test_greedies_near_optimal_on_fewgmanyg(self):
        ratios = []
        for s in SEEDS:
            g = fewgmanyg_bipartite(640, 128, 16, 10, seed=s)
            opt = exact_singleproc_unit(g).optimal_makespan
            ratios.append(sorted_greedy(g).makespan / opt)
        # the paper's observation: near-optimal in average on random
        # instances despite no worst-case guarantee
        assert float(np.median(ratios)) <= 1.5
