"""The incremental solver's local repair, pinned move for move.

Full re-solves (threshold 0) are covered by ``test_dynamic.py``'s
equivalence property; these tests pin *local* repair:

* a committed-literal replay — a seeded churn trace on a small
  fewgmanyg instance under default thresholds and EVG — fixes the
  bottleneck after every mutation, the final assignment and the repair
  counters;
* a Hypothesis property holds the solver's vectorized move scan to a
  scalar oracle (the repair's scan order over the per-candidate move
  rule, :func:`repro.kernels.moves.first_improving_move_python`) on
  random churn with nonzero thresholds;
* a second property does the same on streams built around the cases
  that finding shared pins by pin-union position creates — a lone
  alive row, configurations sharing several pins, processor handles
  growing mid-stream, rows killed by a failure before the row store
  compacts, tasks replaced by new configuration sets, a bottleneck
  held by a single task and one hosting more tasks than the scan's
  first part — and checks the store's union positions;
* hand-built states pin the two-part scan: a pick in the first part,
  a pick in the rest, equal-maxima picks across the boundary and no
  pick at all.
"""

from unittest import mock

import numpy as np
from hypothesis import given, settings
from hypothesis import strategies as st

import repro.dynamic.solver as solver_module
from repro.core.errors import InfeasibleError
from repro.dynamic import DynamicInstance, IncrementalSolver
from repro.generators import churn_trace, generate_multiproc
from repro.kernels.compiled import flat_ranges
from repro.kernels.moves import (
    SCAN_PREFIX,
    first_improving_move,
    first_improving_move_python,
)

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
def scalar_first_improving_move(solver, region: set[int], peak: float):
    """The repair's scan order built task by task — region bottleneck
    processors ascending, each one's not yet seen tasks ascending — and
    the scalar move rule over it."""
    live = set(np.flatnonzero(solver._live).tolist())
    order: list[int] = []
    for u in sorted(region):
        if u not in live or solver._loads[u] < peak - 1e-12:
            continue
        order += sorted(solver._on_proc[u] - set(order))
    return first_improving_move_python(
        solver.instance._store,
        solver._loads,
        solver._assign,
        np.array(order, dtype=np.int64),
    )


class OracleCheckedSolver(IncrementalSolver):
    """Holds every vectorized scan to the scalar oracle."""

    scans = 0

    def _first_improving_move(self, hot):
        move = super()._first_improving_move(hot)
        # ``hot`` holds the region's processors at its peak load
        peak = float(self._loads[hot].max())
        expected = scalar_first_improving_move(self, set(hot.tolist()), peak)
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


# ---------------------------------------------------------------------------
# the oracle on the cases shared-pin detection by union position creates
# ---------------------------------------------------------------------------
def _weight(rng, decimal: bool) -> float:
    if decimal:
        return float(rng.choice([0.1, 0.2, 0.3, 0.7]))
    return float(rng.integers(1, 6))


def _pick(rng, items, k: int) -> list[int]:
    return [int(x) for x in rng.choice(items, size=k, replace=False)]


def lone_configuration(inst, rng, decimal):
    """A task with one configuration: its only alive row is the one it
    holds."""
    procs = inst.procs()
    inst.add_task(
        [(_pick(rng, procs, min(2, len(procs))), _weight(rng, decimal))]
    )


def shared_core(inst, rng, decimal):
    """A task whose configurations share several pins: one common core,
    alone and with each of up to three other processors."""
    while inst.n_procs < 4:
        inst.add_processor()
    procs = inst.procs()
    core = _pick(rng, procs, int(rng.integers(2, 4)))
    rest = [u for u in procs if u not in core]
    extra = _pick(rng, rest, min(3, len(rest)))
    inst.add_task(
        [(core, _weight(rng, decimal))]
        + [(core + [u], _weight(rng, decimal)) for u in extra]
    )


def new_processor(inst, rng, decimal):
    """A processor joins and a task arrives that can use it, so the
    processor handles (and the solver's arrays) grow mid-stream."""
    others = inst.procs()
    u = inst.add_processor()
    inst.add_task(
        [([u], _weight(rng, decimal)), ([u, others[0]], _weight(rng, decimal))]
        + [(_pick(rng, others, 1), _weight(rng, decimal))]
    )


def processor_failure(inst, rng, decimal):
    """A processor fails and its rows die (unless that strands a
    task)."""
    if inst.n_procs > 1:
        try:
            inst.remove_processor(int(rng.choice(inst.procs())))
        except InfeasibleError:
            pass


def replace_task(inst, rng, decimal, task=None):
    """A task leaves and one arrives with a new configuration set over
    the processors the old one could use."""
    if task is None:
        task = int(rng.choice(inst.tasks()))
    procs = sorted({u for _, pins, _ in inst.task_configs(task) for u in pins})
    inst.remove_task(task)
    inst.add_task(
        [
            (_pick(rng, procs, int(rng.integers(1, len(procs) + 1))),
             _weight(rng, decimal))
            for _ in range(int(rng.integers(1, 4)))
        ]
    )


def compaction(inst, rng, decimal):
    """Every task replaced, and one more: the departed rows outgrow the
    live ones and the row store compacts."""
    tasks = inst.tasks()
    for task in tasks + [None]:
        replace_task(inst, rng, decimal, task)


def lone_hot_processor(inst, rng, decimal):
    """A heavy task that takes a new processor to itself: the region's
    bottleneck is held by a single task."""
    others = inst.procs()
    u = inst.add_processor()
    w = 20 * _weight(rng, decimal)
    inst.add_task([([u], w), (_pick(rng, others, 1), w)])


def crowded_processor(inst, rng, decimal):
    """More tasks than the scan's first part holds arrive on one new
    processor: each configuration holds it, so all of them stay on it
    and its move scan runs in two parts."""
    others = inst.procs()
    u = inst.add_processor()
    for _ in range(SCAN_PREFIX + int(rng.integers(1, 9))):
        inst.add_task(
            [([u], _weight(rng, decimal))]
            + [
                ([u] + _pick(rng, others, 1), _weight(rng, decimal))
                for _ in range(int(rng.integers(1, 3)))
            ]
        )


EDGE_CASES = [
    lone_configuration, shared_core, new_processor, processor_failure,
    replace_task, compaction, lone_hot_processor, crowded_processor,
]


def assert_union_positions(inst) -> None:
    """Every task's rows hold one stretch of the row store's pins, and
    every pin's shift takes it to its processor's rank in its task's
    pin-union (all rows, disabled ones included)."""
    st = inst._store
    for task in inst.tasks():
        lo, n = st.extent(task)
        rows = np.arange(lo, lo + n)
        at = flat_ranges(st.row_ptr[rows], st.row_len[rows])
        np.testing.assert_array_equal(at, np.arange(at[0], at[0] + at.size))
        pins = st.pins[at]
        pos = at - at[0] + st.pin_shift[at]
        union = np.unique(pins)
        np.testing.assert_array_equal(pos, np.searchsorted(union, pins))


@given(
    seed=st.integers(0, 10_000),
    cases=st.lists(st.sampled_from(EDGE_CASES), min_size=1, max_size=10),
    ratio=st.sampled_from([0.5, 1.0]),
    decimal=st.booleans(),
)
@settings(max_examples=40, deadline=None)
def test_scan_matches_scalar_oracle_on_edge_cases(seed, cases, ratio, decimal):
    """Lone rows, shared cores, growing processor handles, failures
    then compaction, re-added tasks and a single-task bottleneck, each
    interleaved with random churn: every move scan returns the scalar
    oracle's move, and the row store's union positions stay exact."""
    rng = np.random.default_rng(seed)
    hg = random_hypergraph(rng, max_tasks=10, max_procs=6)
    inst = DynamicInstance.from_hypergraph(hg)
    solver = OracleCheckedSolver(
        inst, fallback_ratio=ratio, min_fallback_region=4
    )
    for case in cases:
        case(inst, rng, decimal)
        apply_random_mutations(inst, rng, int(rng.integers(0, 3)))
        if not inst.n_tasks:
            lone_configuration(inst, rng, decimal)
    solver.bottleneck()
    assert_union_positions(inst)
    assert solver.stats.mutations == len(inst.journal)


def test_each_edge_case_does_what_it_says():
    """The edge-case builders reach their cases: a lone row scans to no
    move, a store compaction happens, handles grow, a new processor can
    be a bottleneck held by a single task, and one can hold more tasks
    than the scan's first part."""
    rng = np.random.default_rng(3)
    hg = random_hypergraph(rng, max_tasks=8, max_procs=5)
    inst = DynamicInstance.from_hypergraph(hg)
    solver = OracleCheckedSolver(inst, fallback_ratio=1.0)
    lone_configuration(inst, rng, False)
    lone = inst.tasks()[-1]
    assert (
        first_improving_move(
            inst._store, solver._loads, solver._assign, np.array([lone])
        )
        is None
    )

    store, compacted = inst._store, []
    compact = store.compact
    store.compact = lambda: compacted.append(compact())
    compaction(inst, rng, False)
    assert compacted
    assert_union_positions(inst)

    procs = inst.n_procs
    lone_hot_processor(inst, rng, False)
    u = inst.procs()[-1]
    assert inst.n_procs == procs + 1
    assert solver._on_proc[u] == {inst.tasks()[-1]}
    assert solver.loads()[u] == solver.bottleneck()

    shared_core(inst, rng, False)
    confs = inst.task_configs(inst.tasks()[-1])
    core = set(confs[0][1])
    assert len(core) >= 2 and all(core < set(p) for _, p, _ in confs[1:])
    assert_union_positions(inst)

    crowded_processor(inst, rng, False)
    assert len(solver._on_proc[inst.procs()[-1]]) > SCAN_PREFIX


# ---------------------------------------------------------------------------
# the two-part scan, on hand-built states
# ---------------------------------------------------------------------------
#: tasks on the crowded hub processor: a first part and 8 more
N_HUB = SCAN_PREFIX + 8

#: one hub task's move off the hub, from configuration 0 ({hub, a}, weight
#: 1) to configuration 1 ({b}); the hub is at load N_HUB, the peak
MOVES = {
    # b ends above the peak
    "worse": dict(b_w=N_HUB + 1, a_load=0),
    # every affected load ends below the peak
    "sure": dict(b_w=1, a_load=0),
    # b ends at the peak and the hub's N_HUB - 1 is now second: worse
    "tie": dict(b_w=N_HUB, a_load=0),
    # as "tie", but a was at the peak too and drops below it: better
    "tie-better": dict(b_w=N_HUB, a_load=N_HUB - 1),
}


def hub_solver(kinds: dict[int, str]):
    """A solver whose hub processor holds ``N_HUB`` tasks, each at
    configuration 0; hub task ``i`` has the move ``kinds.get(i,
    "worse")``.  Returns the solver, the hub tasks and the peak
    processors, ascending."""
    inst = DynamicInstance()
    hub = inst.add_processor()
    hub_tasks, fillers = [], []
    for i in range(N_HUB):
        move = MOVES[kinds.get(i, "worse")]
        a, b = inst.add_processor(), inst.add_processor()
        hub_tasks.append(inst.add_task([([hub, a], 1.0), ([b], move["b_w"])]))
        if move["a_load"]:
            # a one-configuration task sets a's load
            fillers.append(inst.add_task([([a], move["a_load"])]))
    solver = IncrementalSolver(inst, fallback_ratio=1.0)
    every = np.array(sorted(hub_tasks + fillers))
    solver._adopt(every, np.zeros_like(every))
    procs = np.flatnonzero(solver._live)
    hot = procs[solver._loads[procs] == solver._loads[procs].max()]
    assert hot[0] == hub and solver._on_proc[hub] == set(hub_tasks)
    return solver, hub_tasks, hot


def scanned_parts(solver, hot):
    """The move, and the task count of every scan call it took."""
    sizes = []

    def counting(rows, loads, assign, tasks):
        sizes.append(tasks.shape[0])
        return first_improving_move(rows, loads, assign, tasks)

    with mock.patch.object(solver_module, "first_improving_move", counting):
        move = solver._first_improving_move(hot)
    peak = float(solver._loads[hot].max())
    assert move == scalar_first_improving_move(
        solver, set(hot.tolist()), peak
    )
    return move, sizes


def test_a_pick_in_the_first_part_scans_it_alone():
    solver, hub_tasks, hot = hub_solver({3: "sure", SCAN_PREFIX + 1: "sure"})
    move, sizes = scanned_parts(solver, hot)
    assert move == (hub_tasks[3], 1)
    assert sizes == [SCAN_PREFIX]


def test_a_pick_in_the_rest_scans_both_parts():
    solver, hub_tasks, hot = hub_solver({2: "tie", SCAN_PREFIX + 3: "sure"})
    move, sizes = scanned_parts(solver, hot)
    assert move == (hub_tasks[SCAN_PREFIX + 3], 1)
    assert sizes == [SCAN_PREFIX, N_HUB - SCAN_PREFIX]


def test_equal_maxima_picks_across_the_boundary():
    # the first part's only candidates tie without improving; the rest
    # holds a tie that improves, then a sure improvement: the tie wins
    solver, hub_tasks, hot = hub_solver(
        {
            1: "tie", SCAN_PREFIX - 1: "tie",
            SCAN_PREFIX + 2: "tie-better", SCAN_PREFIX + 5: "sure",
        }
    )
    move, sizes = scanned_parts(solver, hot)
    assert move == (hub_tasks[SCAN_PREFIX + 2], 1)
    assert sizes == [SCAN_PREFIX, N_HUB - SCAN_PREFIX]
    # an improving tie in the first part beats a sure move in the rest
    solver, hub_tasks, hot = hub_solver(
        {4: "tie-better", SCAN_PREFIX: "sure"}
    )
    move, sizes = scanned_parts(solver, hot)
    assert move == (hub_tasks[4], 1)
    assert sizes == [SCAN_PREFIX]


def test_no_pick_scans_both_parts():
    solver, hub_tasks, hot = hub_solver(
        {0: "tie", SCAN_PREFIX - 1: "tie", SCAN_PREFIX: "tie"}
    )
    move, sizes = scanned_parts(solver, hot)
    assert move is None
    assert sizes == [SCAN_PREFIX, N_HUB - SCAN_PREFIX]
