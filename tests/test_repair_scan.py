"""The incremental solver's local repair, pinned move for move.

Full re-solves (threshold 0) are covered by ``test_dynamic.py``'s
equivalence property; these tests pin *local* repair:

* a committed-literal replay — a seeded churn trace on a small
  fewgmanyg instance under default thresholds and EVG — fixes the
  bottleneck after every mutation, the final assignment and the repair
  counters;
* a Hypothesis property holds the solver's vectorized move scan to a
  scalar oracle (the per-candidate Python scan it replaced) on random
  churn with nonzero thresholds.
"""

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.dynamic import DynamicInstance, IncrementalSolver
from repro.generators import churn_trace, generate_multiproc
from repro.kernels import first_lex_improving

from strategies import apply_random_mutations, random_hypergraph

# ---------------------------------------------------------------------------
# committed literals
# ---------------------------------------------------------------------------
#: bottleneck after each of the trace's 61 mutations
BOTTLENECKS = [
    37.0, 36.0, 36.499258503558565, 36.499258503558565, 36.499258503558565,
    36.499258503558565, 36.499258503558565, 36.499258503558565,
    36.499258503558565, 35.499258503558565, 35.499258503558565,
    35.499258503558565, 36.01744192407503, 36.01744192407503,
    35.126829088519095, 35.20942891481332, 34.22887732821664,
    34.22887732821664, 35.22887732821664, 34.75169724683715,
    34.75169724683715, 34.75169724683715, 34.22887732821664,
    34.22887732821664, 34.22887732821664, 33.98055158659668,
    33.98055158659668, 33.98055158659668, 34.13760958124398,
    33.20942891481332, 34.98055158659668, 34.98055158659668,
    33.22887732821664, 33.22887732821664, 33.02349721303419,
    33.02349721303419, 33.02349721303419, 32.610670102147964,
    32.04690600206743, 32.95563825509477, 31.610670102147964,
    32.98307057478897, 32.98307057478897, 33.28315928096248,
    33.791847008977015, 33.791847008977015, 33.791847008977015,
    32.51239557104285, 33.313687112785374, 33.313687112785374,
    33.313687112785374, 33.313687112785374, 33.313687112785374,
    33.29092529880777, 32.52050080040252, 32.52050080040252,
    31.50028662534092, 31.50028662534092, 30.520500800402523,
    31.218613507811057, 31.218613507811057,
]

#: final task handle -> configuration index
ASSIGNMENT = {
    1: 2, 3: 1, 4: 0, 5: 3, 6: 0, 7: 2, 8: 1, 12: 1, 14: 2, 15: 1, 17: 0,
    18: 1, 19: 3, 20: 0, 21: 0, 22: 1, 23: 0, 24: 0, 26: 2, 27: 1, 28: 2,
    29: 0, 36: 0, 37: 0, 39: 0, 41: 1, 44: 1, 46: 0, 47: 1, 48: 1, 49: 2,
    50: 0, 51: 1, 52: 2, 53: 1, 54: 1, 55: 1, 56: 2, 58: 3, 59: 0, 61: 1,
    62: 2, 63: 4, 64: 0, 65: 1, 66: 0, 67: 2, 68: 3,
}

STATS = {
    "mutations": 61,
    "local_repairs": 47,
    "full_solves": 1,
    "ls_moves": 95,
    "fallbacks": 0,
}


def _golden_workload():
    hg = generate_multiproc(
        48, 8, family="fewgmanyg", g=2, dv=3, dh=3, weights="related",
        seed=7,
    )
    trace = churn_trace(
        hg, 40, seed=5, p_task_swap=0.6, p_weight_drift=0.2,
        p_proc_churn=0.2,
    )
    return hg, trace


def test_local_repair_replays_committed_literals():
    hg, trace = _golden_workload()
    ops = [m.op for m in trace]
    # the trace exercises every repair path, processor failures included
    assert ops.count("remove_processor") == 2
    assert set(ops) == {
        "add_task", "remove_task", "update_weight", "add_processor",
        "remove_processor",
    }
    inst = DynamicInstance.from_hypergraph(hg)
    solver = IncrementalSolver(inst, method="EVG")
    bottlenecks = []
    for m in trace:
        inst.apply(m)
        bottlenecks.append(solver.bottleneck())
    assert bottlenecks == BOTTLENECKS
    assert solver.assignment() == ASSIGNMENT
    assert solver.stats.as_dict() == STATS


# ---------------------------------------------------------------------------
# the scalar oracle
# ---------------------------------------------------------------------------
_MOVE_CHUNK = 32


def _first_improving_of(pending):
    """Kernel-evaluate buffered maybe-moves; first improving or None.
    ``pending`` holds ``(move, before, after)`` rows in scan order,
    padded here with ``-inf`` to a rectangle."""
    if not pending:
        return None
    kmax = max(len(before) for _, before, _ in pending)
    pad = [-np.inf] * kmax
    b = np.array([r + pad[len(r):] for _, r, _ in pending])
    a = np.array([r + pad[len(r):] for _, _, r in pending])
    i = first_lex_improving(a, b)
    return pending[i][0] if i is not None else None


def scalar_first_improving_move(solver, region: set[int], peak: float):
    """The per-candidate Python scan the solver's vectorized scan
    replaced: region bottleneck processors ascending, their tasks
    ascending, configurations in index order; each candidate's affected
    multisets built pin by pin, screened by their maxima, equal-maxima
    ones buffered for the batched comparison."""
    inst = solver.instance
    live = np.flatnonzero(solver._live)
    loads = dict(zip(live.tolist(), solver._loads[live].tolist()))
    assign = solver._assign
    seen: set[tuple[int, int]] = set()
    pending: list = []
    for u in sorted(region):
        if loads.get(u, -1.0) < peak - 1e-12:
            continue
        for task in sorted(solver._on_proc.get(u, set())):
            cur = int(assign[task])
            cur_pins, cur_w, _ = inst.config_any(task, cur)
            old_set = set(cur_pins)
            for cfg, pins, w in inst.task_configs(task):
                if cfg == cur or (task, cfg) in seen:
                    continue
                seen.add((task, cfg))
                affected = sorted(old_set | set(pins))
                before = [loads[x] for x in affected]
                new_set = set(pins)
                after = list(before)
                for i, x in enumerate(affected):
                    if x in old_set:
                        after[i] -= cur_w
                    if x in new_set:
                        after[i] += w
                ma, mb = max(after), max(before)
                if ma > mb:
                    continue
                move = (task, cfg)
                if ma < mb:
                    first = _first_improving_of(pending)
                    return first if first is not None else move
                pending.append((move, before, after))
                if len(pending) >= _MOVE_CHUNK:
                    first = _first_improving_of(pending)
                    if first is not None:
                        return first
                    pending = []
    return _first_improving_of(pending)


class OracleCheckedSolver(IncrementalSolver):
    """Holds every vectorized scan to the scalar oracle."""

    scans = 0

    def _first_improving_move(self, region, peak):
        move = super()._first_improving_move(region, peak)
        expected = scalar_first_improving_move(
            self, set(np.flatnonzero(region).tolist()), peak
        )
        assert move == expected
        type(self).scans += 1
        return move


def test_oracle_agrees_on_the_golden_replay():
    hg, trace = _golden_workload()
    inst = DynamicInstance.from_hypergraph(hg)
    OracleCheckedSolver.scans = 0
    solver = OracleCheckedSolver(inst, method="EVG")
    inst.replay(trace)
    assert solver.bottleneck() == BOTTLENECKS[-1]
    # every accepted move is one scan, plus one final empty scan per
    # repair that ran out of moves
    assert OracleCheckedSolver.scans >= STATS["ls_moves"]


@given(
    seed=st.integers(0, 10_000),
    n_events=st.integers(1, 25),
    ratio=st.sampled_from([0.25, 0.5, 1.0]),
    decimal=st.booleans(),
)
@settings(max_examples=60, deadline=None)
def test_vectorized_scan_matches_scalar_oracle(seed, n_events, ratio, decimal):
    """Random churn under nonzero thresholds (so local repair runs):
    every move scan returns exactly the scalar oracle's move.  Integer
    weights make equal maxima common; decimal ones (inexact in binary)
    make the order of the per-pin float operations decide moves."""
    rng = np.random.default_rng(seed)
    hg = random_hypergraph(rng, max_tasks=12, max_procs=8)
    if decimal:
        hg = hg.with_weights(
            rng.choice([0.1, 0.2, 0.3, 0.7], size=hg.n_hedges)
        )
    inst = DynamicInstance.from_hypergraph(hg)
    solver = OracleCheckedSolver(
        inst, fallback_ratio=ratio, min_fallback_region=4
    )
    apply_random_mutations(inst, rng, n_events)
    solver.bottleneck()
