"""Experiment ``random-weights``: the technical report's robustness check
(its Table 8): rerun the Table III protocol with independent uniform
random hyperedge weights.  The paper states the heuristic ranking is
unchanged and that EVG's advantage grows."""

from __future__ import annotations

import numpy as np
import pytest

from repro.api import get_registry
from repro.experiments.runner import DEFAULT_ALGOS

from conftest import SEEDS, bench_specs, cached_instance, cached_lower_bound



def _hyp_algo(name):
    """Resolve a MULTIPROC solver through the unified registry."""
    return get_registry().resolve(name, domain="hypergraph").fn


@pytest.mark.parametrize("algo", DEFAULT_ALGOS)
@pytest.mark.parametrize("spec", bench_specs(), ids=lambda s: s.name)
def test_random_weight_quality(benchmark, spec, algo):
    fn = _hyp_algo(algo)
    hg = cached_instance(spec.name, "random", 0)

    matching = benchmark(fn, hg)

    ratios = []
    for s in range(SEEDS):
        inst = cached_instance(spec.name, "random", s)
        lb = cached_lower_bound(spec.name, "random", s)
        ratios.append(fn(inst).makespan / lb)
    benchmark.extra_info["quality_median"] = round(
        float(np.median(ratios)), 3
    )
    assert matching.makespan > 0


@pytest.mark.parametrize("spec", bench_specs(), ids=lambda s: s.name)
def test_ranking_under_random_weights(benchmark, spec):
    """Record the SGH-vs-EVG ranking under random weights.

    Reproduction finding: the technical report says EVG wins clearly on
    random weights, but with wide uniform weights ([1, 100]) the
    expected strategy's ``o`` values are dominated by other tasks'
    weight noise and EVG falls *behind* SGH on FewgManyg
    instances; the report's ranking re-emerges for narrow ranges
    (e.g. [1, 3]).  We therefore record both medians rather than assert
    the paper's ordering, and only sanity-bound the gap.
    """
    sgh = _hyp_algo("SGH")
    evg = _hyp_algo("EVG")

    def both():
        inst = cached_instance(spec.name, "random", 0)
        return sgh(inst).makespan, evg(inst).makespan

    benchmark(both)
    qs, qe = [], []
    for s in range(SEEDS):
        inst = cached_instance(spec.name, "random", s)
        lb = cached_lower_bound(spec.name, "random", s)
        qs.append(sgh(inst).makespan / lb)
        qe.append(evg(inst).makespan / lb)
    med_s, med_e = float(np.median(qs)), float(np.median(qe))
    benchmark.extra_info.update({"SGH": round(med_s, 3),
                                 "EVG": round(med_e, 3)})
    assert med_e <= 1.5 * med_s  # sanity: same order of magnitude
