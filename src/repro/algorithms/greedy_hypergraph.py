"""Greedy semi-matching heuristics for hypergraphs (paper Section IV-D).

The four MULTIPROC heuristics evaluated in Tables II and III:

* :func:`sorted_greedy_hyp` (SGH, Algorithm 4) — visit tasks by
  non-decreasing configuration count; pick the hyperedge with the smallest
  bottleneck load among its processors;
* :func:`vector_greedy_hyp` (VGH) — like SGH but candidates are ranked by
  the *entire* resulting load vector, sorted descending and compared
  lexicographically;
* :func:`expected_greedy_hyp` (EGH, Algorithm 5) — SGH on expected loads
  ``o(u)`` (each configuration of an unassigned task contributes
  ``w_h/d_v`` to each of its processors);
* :func:`expected_vector_greedy_hyp` (EVG) — vector ranking on
  tentatively-realised expected loads.

Every heuristic runs on one of two backends:

* ``backend="numpy"`` (default) — the vectorized CSR kernel core of
  :mod:`repro.kernels`: the instance is compiled once (cached by content
  digest) and each greedy step is a handful of array operations over the
  task-grouped arrays.  The kernels perform the same floating-point
  operations in the same order as the loops below, so the matchings are
  **bit-identical** (asserted by ``tests/test_conformance.py``).
* ``backend="python"`` — the original per-candidate loops, kept as the
  conformance oracle and for step-by-step debugging.

Vector comparisons use the multiset-difference lemma of
:mod:`repro.core.loadvec`: two candidates only disagree on the processors
they touch, so the descending-lex order of the full length-``p`` vectors
equals the order of the small affected-value multisets.  This is the
asymptotically faster variant the paper describes in Section IV-D3;
``method="naive"`` switches to the full-vector comparison the paper's
Matlab code used (kept for tests and timing ablations; it always runs on
the Python path).
"""

from __future__ import annotations

import numpy as np

from ..core.errors import InfeasibleError
from ..core.hypergraph import TaskHypergraph
from ..core.loadvec import lex_compare_desc, lex_compare_multisets, sorted_desc
from ..core.semimatching import HyperSemiMatching
from ..kernels import (
    CompiledKernels,
    check_backend,
    compile_instance,
    lex_best_row,
)
from .._util import stable_argsort

__all__ = [
    "sorted_greedy_hyp",
    "vector_greedy_hyp",
    "expected_greedy_hyp",
    "expected_vector_greedy_hyp",
]


def _check_feasible(hg: TaskHypergraph) -> None:
    if np.any(np.diff(hg.task_ptr) == 0):
        bad = int(np.flatnonzero(np.diff(hg.task_ptr) == 0)[0])
        raise InfeasibleError(f"task {bad} has no configuration")


def _visit_order(hg: TaskHypergraph, sort_by_degree: bool) -> np.ndarray:
    if sort_by_degree:
        return stable_argsort(hg.task_degrees())
    return np.arange(hg.n_tasks, dtype=np.int64)


# ---------------------------------------------------------------------------
# SGH
# ---------------------------------------------------------------------------
def sorted_greedy_hyp(
    hg: TaskHypergraph,
    *,
    lookahead: bool = True,
    sort_by_degree: bool = True,
    backend: str = "numpy",
) -> HyperSemiMatching:
    """Algorithm 4 (SGH): minimise the chosen configuration's bottleneck.

    For each task (by non-decreasing ``d_v``) pick the hyperedge ``h``
    minimising ``max_{u in h}(l(u) + w_h)`` — the bottleneck the
    assignment would create.  ``lookahead=False`` reproduces the printed
    pseudocode literally (``max_{u in h} l(u)``, ignoring ``w_h``); the
    two coincide on unit weights whenever configurations are compared at
    equal weight; on mixed weights the printed rule ignores the load the
    choice itself adds, so the default adds it.  Runs in
    ``O(sum_h |h|)``.
    """
    check_backend(backend)
    _check_feasible(hg)
    if backend == "python":
        return _sgh_python(hg, lookahead, sort_by_degree)
    return _sgh_numpy(hg, lookahead, sort_by_degree)


def _sgh_python(
    hg: TaskHypergraph, lookahead: bool, sort_by_degree: bool
) -> HyperSemiMatching:
    loads = np.zeros(hg.n_procs, dtype=np.float64)
    hedge_of_task = np.empty(hg.n_tasks, dtype=np.int64)
    hptr, hprocs, w = hg.hedge_ptr, hg.hedge_procs, hg.hedge_w

    for v in _visit_order(hg, sort_by_degree):
        best_h = -1
        best_key = np.inf
        for h in hg.task_hedge_ids(v):
            pins = hprocs[hptr[h] : hptr[h + 1]]
            key = loads[pins].max() + (w[h] if lookahead else 0.0)
            if key < best_key:
                best_key = key
                best_h = int(h)
        hedge_of_task[v] = best_h
        loads[hprocs[hptr[best_h] : hptr[best_h + 1]]] += w[best_h]

    return HyperSemiMatching(hg, hedge_of_task)


def _kernel_order(ci: CompiledKernels, sort_by_degree: bool):
    """The numpy kernels' visit order: the compilation's memoized list,
    or the tasks in id order."""
    return ci.visit_order if sort_by_degree else range(ci.n_tasks)


def _matching(
    hg: TaskHypergraph, ci: CompiledKernels, chosen: list[int]
) -> HyperSemiMatching:
    """The matching of the grouped position each task chose: one gather
    through ``g_hedge`` instead of a lookup per step."""
    return HyperSemiMatching(
        hg, ci.g_hedge[np.asarray(chosen, dtype=np.int64)]
    )


def _sgh_numpy(
    hg: TaskHypergraph, lookahead: bool, sort_by_degree: bool
) -> HyperSemiMatching:
    # SGH is inherently sequential — task v's choice depends on loads
    # committed by every earlier task — so the kernel's job is to make
    # each step's fixed dispatch cost as small as possible (see the
    # "sequential frontier" note in repro.kernels.ops).  Pointer arrays
    # are Python lists (list[int] indexing is several times cheaper than
    # ndarray scalar indexing) and the reduceat offsets are precomputed
    # for all tasks, both memoized on the compilation for every weight
    # variant of the structure; the lookahead add runs in place on the
    # fresh reduceat output.
    ci = compile_instance(hg)
    loads = np.zeros(hg.n_procs, dtype=np.float64)
    chosen = [0] * hg.n_tasks
    tptr, gptr = ci.task_ptr_list, ci.g_ptr_list
    gpins, goff = ci.g_pins, ci.reduceat_offsets
    gw = hg.hedge_w[ci.g_hedge]
    gw_list = gw.tolist()
    maximum_reduceat = np.maximum.reduceat

    for v in _kernel_order(ci, sort_by_degree):
        a, b = tptr[v], tptr[v + 1]
        if b - a == 1:
            k = a
        else:
            keys = maximum_reduceat(
                loads[gpins[gptr[a] : gptr[b]]], goff[a:b]
            )
            if lookahead:
                keys += gw[a:b]
            k = a + int(keys.argmin())
        chosen[v] = k
        loads[gpins[gptr[k] : gptr[k + 1]]] += gw_list[k]

    return _matching(hg, ci, chosen)


# ---------------------------------------------------------------------------
# VGH
# ---------------------------------------------------------------------------
def vector_greedy_hyp(
    hg: TaskHypergraph,
    *,
    method: str = "fast",
    sort_by_degree: bool = True,
    backend: str = "numpy",
) -> HyperSemiMatching:
    """VGH: rank candidate hyperedges by the full resulting load vector.

    Among a task's configurations, prefer the one whose resulting load
    vector — all ``p`` processors, sorted descending — is lexicographically
    smallest: smallest bottleneck first, then smallest second-largest load,
    and so on.  Ties keep the first candidate.

    ``method="fast"`` compares only the affected-processor multisets
    (correct by the lemma in :mod:`repro.core.loadvec`), giving
    ``O(sum_v d_v * s log s)`` with ``s`` the configuration size.
    ``method="naive"`` sorts the full vector per candidate —
    ``O(sum_v d_v * p log p)``, the complexity the paper reports for its
    own implementation — and always runs on the Python path.
    """
    if method not in ("fast", "naive"):
        raise ValueError(f"method must be 'fast' or 'naive', got {method!r}")
    check_backend(backend)
    _check_feasible(hg)
    if backend == "python" or method == "naive":
        return _vgh_python(hg, method, sort_by_degree)
    return _vgh_numpy(hg, sort_by_degree)


def _vgh_python(
    hg: TaskHypergraph, method: str, sort_by_degree: bool
) -> HyperSemiMatching:
    loads = np.zeros(hg.n_procs, dtype=np.float64)
    hedge_of_task = np.empty(hg.n_tasks, dtype=np.int64)
    hptr, hprocs, w = hg.hedge_ptr, hg.hedge_procs, hg.hedge_w

    for v in _visit_order(hg, sort_by_degree):
        hedges = hg.task_hedge_ids(v)
        best_h = -1
        if method == "naive":
            best_vec: np.ndarray | None = None
            for h in hedges:
                pins = hprocs[hptr[h] : hptr[h + 1]]
                scenario = loads.copy()
                scenario[pins] += w[h]
                vec = sorted_desc(scenario)
                if best_vec is None or lex_compare_desc(vec, best_vec) < 0:
                    best_vec = vec
                    best_h = int(h)
        else:
            best_pins: np.ndarray | None = None
            for h in hedges:
                pins = hprocs[hptr[h] : hptr[h + 1]]
                if best_pins is None:
                    best_h = int(h)
                    best_pins = pins
                    continue
                # Candidates differ only on their own pins: compare the
                # resulting loads over the union of both pin sets.
                aff = np.union1d(pins, best_pins)
                cand_vals = loads[aff].copy()
                cand_vals[np.searchsorted(aff, pins)] += w[h]
                best_vals = loads[aff].copy()
                best_vals[np.searchsorted(aff, best_pins)] += w[best_h]
                if lex_compare_multisets(cand_vals, best_vals) < 0:
                    best_h = int(h)
                    best_pins = pins
        hedge_of_task[v] = best_h
        loads[hprocs[hptr[best_h] : hptr[best_h + 1]]] += w[best_h]

    return HyperSemiMatching(hg, hedge_of_task)


def _vgh_numpy(
    hg: TaskHypergraph, sort_by_degree: bool
) -> HyperSemiMatching:
    # per-step dispatch trimmed as in _sgh_numpy: list pointers, one
    # 1-D scatter into the ranking matrix (cells memoized on the
    # compilation), one-sort ranking
    ci = compile_instance(hg)
    loads = np.zeros(hg.n_procs, dtype=np.float64)
    chosen = [0] * hg.n_tasks
    tptr, gptr = ci.task_ptr_list, ci.g_ptr_list
    gpins, cell = ci.g_pins, ci.pin_cells
    g_w = hg.hedge_w[ci.g_hedge]
    gw = g_w.tolist()
    pin_w = np.repeat(g_w, ci.g_size)
    empty = np.empty

    for v in _kernel_order(ci, sort_by_degree):
        a, b = tptr[v], tptr[v + 1]
        if b - a == 1:
            k = a
        else:
            # All candidates compared at once over the task's own pins:
            # row i is the resulting loads of candidate i on every pin
            # of the task (sound by the multiset lemma, repeated
            # processors included: see repro.kernels.ops).
            p0, p1 = gptr[a], gptr[b]
            rows = empty((b - a, p1 - p0))
            rows[:] = loads[gpins[p0:p1]]
            rows.ravel()[cell[p0:p1]] += pin_w[p0:p1]
            k = a + lex_best_row(rows)
        chosen[v] = k
        loads[gpins[gptr[k] : gptr[k + 1]]] += gw[k]

    return _matching(hg, ci, chosen)


# ---------------------------------------------------------------------------
# EGH
# ---------------------------------------------------------------------------
def _expected_loads(hg: TaskHypergraph) -> np.ndarray:
    """Initial ``o(u)``: every configuration spreads ``w_h/d_v`` over its
    pins (Algorithm 5, lines 1-6)."""
    o = np.zeros(hg.n_procs, dtype=np.float64)
    deg = hg.task_degrees().astype(np.float64)
    share = hg.hedge_w / deg[hg.hedge_task]  # w_h / d_v per hyperedge
    np.add.at(o, hg.hedge_procs, np.repeat(share, np.diff(hg.hedge_ptr)))
    return o


def expected_greedy_hyp(
    hg: TaskHypergraph,
    *,
    lookahead: bool = True,
    sort_by_degree: bool = True,
    backend: str = "numpy",
) -> HyperSemiMatching:
    """Algorithm 5 (EGH): SGH driven by expected loads ``o(u)``.

    Selection minimises ``max_{u in h} o(u)`` over the task's
    configurations; with ``lookahead=True`` (default) the tentative
    realisation ``max_{u in h}(o(u) + w_h - w_h/d_v)`` is minimised
    instead (identical ordering whenever all candidates share one weight,
    e.g. unit instances).  Committing a task updates ``o`` exactly as the
    pseudocode does, so on termination ``o`` equals the true loads.
    ``O(sum_h |h|)``.
    """
    check_backend(backend)
    _check_feasible(hg)
    if backend == "python":
        return _egh_python(hg, lookahead, sort_by_degree)
    return _egh_numpy(hg, lookahead, sort_by_degree)


def _egh_python(
    hg: TaskHypergraph, lookahead: bool, sort_by_degree: bool
) -> HyperSemiMatching:
    o = _expected_loads(hg)
    hedge_of_task = np.empty(hg.n_tasks, dtype=np.int64)
    hptr, hprocs, w = hg.hedge_ptr, hg.hedge_procs, hg.hedge_w
    deg = hg.task_degrees().astype(np.float64)

    for v in _visit_order(hg, sort_by_degree):
        dv = deg[v]
        best_h = -1
        best_key = np.inf
        for h in hg.task_hedge_ids(v):
            pins = hprocs[hptr[h] : hptr[h + 1]]
            key = o[pins].max()
            if lookahead:
                key += w[h] - w[h] / dv
            if key < best_key:
                best_key = key
                best_h = int(h)
        hedge_of_task[v] = best_h
        # collapse the distribution (Algorithm 5, lines 10-14)
        for h in hg.task_hedge_ids(v):
            pins = hprocs[hptr[h] : hptr[h + 1]]
            if int(h) == best_h:
                o[pins] += w[h] - w[h] / dv
            else:
                o[pins] -= w[h] / dv

    return HyperSemiMatching(hg, hedge_of_task)


def _expected_shares(
    hg: TaskHypergraph, ci: CompiledKernels
) -> tuple[np.ndarray, np.ndarray]:
    """Per grouped candidate: the share ``w/d_v`` it spreads and the gain
    ``w - w/d_v`` realising it adds — the same element-wise float ops
    the Python loops make per step, made once for all candidates."""
    g_w = hg.hedge_w[ci.g_hedge]
    deg = hg.task_degrees()
    share = g_w / np.repeat(deg, deg)
    return share, g_w - share


def _egh_numpy(
    hg: TaskHypergraph, lookahead: bool, sort_by_degree: bool
) -> HyperSemiMatching:
    ci = compile_instance(hg)
    o = _expected_loads(hg)
    chosen = [0] * hg.n_tasks
    tptr, gptr = ci.task_ptr_list, ci.g_ptr_list
    gpins, goff = ci.g_pins, ci.reduceat_offsets
    share, gain = _expected_shares(hg, ci)
    # collapsing the distribution: every pin of a sibling withdraws its
    # share, every pin of the chosen candidate realises its gain
    pin_drop = np.repeat(-share, ci.g_size)
    pin_gain = np.repeat(gain, ci.g_size)
    maximum_reduceat, add_at = np.maximum.reduceat, np.add.at

    for v in _kernel_order(ci, sort_by_degree):
        a, b = tptr[v], tptr[v + 1]
        if b - a == 1:
            # realising the only candidate adds w - w/1 == +0.0
            chosen[v] = a
            continue
        p0, p1 = gptr[a], gptr[b]
        pins = gpins[p0:p1]
        keys = maximum_reduceat(o[pins], goff[a:b])
        if lookahead:
            keys += gain[a:b]
        k = a + int(keys.argmin())
        chosen[v] = k
        # applied in candidate order, matching the Python loop's
        # accumulation when candidates share a processor
        q0, q1 = gptr[k], gptr[k + 1]
        delta = pin_drop[p0:p1].copy()
        delta[q0 - p0 : q1 - p0] = pin_gain[q0:q1]
        add_at(o, pins, delta)

    return _matching(hg, ci, chosen)


# ---------------------------------------------------------------------------
# EVG
# ---------------------------------------------------------------------------
def expected_vector_greedy_hyp(
    hg: TaskHypergraph,
    *,
    method: str = "fast",
    sort_by_degree: bool = True,
    backend: str = "numpy",
) -> HyperSemiMatching:
    """EVG: vector ranking over tentatively-realised expected loads.

    For each candidate ``h`` of task ``v``, tentatively realise it (add
    ``w_h - w_h/d_v`` to its pins) and tentatively discard the siblings
    (subtract ``w_h'/d_v`` from theirs), then compare the resulting
    expected-load vectors descending-lexicographically.  All candidates
    share the same affected set — the union of all of ``v``'s pins — so
    with ``method="fast"`` each comparison sorts only that union.  The
    paper gives the complexity ``O(sum_v d_v |V2| + sum_v d_v sum_{h in v}
    |h|)`` for the naive variant (``method="naive"``, always on the
    Python path).
    """
    if method not in ("fast", "naive"):
        raise ValueError(f"method must be 'fast' or 'naive', got {method!r}")
    check_backend(backend)
    _check_feasible(hg)
    if backend == "python" or method == "naive":
        return _evg_python(hg, method, sort_by_degree)
    return _evg_numpy(hg, sort_by_degree)


def _evg_python(
    hg: TaskHypergraph, method: str, sort_by_degree: bool
) -> HyperSemiMatching:
    o = _expected_loads(hg)
    hedge_of_task = np.empty(hg.n_tasks, dtype=np.int64)
    hptr, hprocs, w = hg.hedge_ptr, hg.hedge_procs, hg.hedge_w
    deg = hg.task_degrees().astype(np.float64)

    for v in _visit_order(hg, sort_by_degree):
        dv = deg[v]
        hedges = hg.task_hedge_ids(v)
        pin_slices = [hprocs[hptr[h] : hptr[h + 1]] for h in hedges]

        # Realising candidate h changes o only on v's own pin union:
        # every sibling h' loses its w_h'/d_v share, then h adds w_h.
        aff = np.unique(np.concatenate(pin_slices))  # sorted union
        common = o[aff].copy()
        for h, pins in zip(hedges, pin_slices):
            common[np.searchsorted(aff, pins)] -= w[h] / dv

        best_i = 0
        if len(hedges) > 1:
            if method == "naive":
                best_vec: np.ndarray | None = None
                for i, (h, pins) in enumerate(zip(hedges, pin_slices)):
                    scenario = o.copy()
                    for h2, pins2 in zip(hedges, pin_slices):
                        scenario[pins2] -= w[h2] / dv
                    scenario[pins] += w[h]
                    vec = sorted_desc(scenario)
                    if best_vec is None or lex_compare_desc(vec, best_vec) < 0:
                        best_vec = vec
                        best_i = i
            else:
                best_vals: np.ndarray | None = None
                for i, (h, pins) in enumerate(zip(hedges, pin_slices)):
                    vals = common.copy()
                    vals[np.searchsorted(aff, pins)] += w[h]
                    if best_vals is None or (
                        lex_compare_multisets(vals, best_vals) < 0
                    ):
                        best_vals = vals
                        best_i = i

        best_h = int(hedges[best_i])
        hedge_of_task[v] = best_h
        # commit: o restricted to aff becomes the realised scenario
        final = common.copy()
        final[np.searchsorted(aff, pin_slices[best_i])] += w[best_h]
        o[aff] = final

    return HyperSemiMatching(hg, hedge_of_task)


def _evg_numpy(
    hg: TaskHypergraph, sort_by_degree: bool
) -> HyperSemiMatching:
    ci = compile_instance(hg)
    o = _expected_loads(hg)
    chosen = [0] * hg.n_tasks
    tptr, gptr, repeats = ci.task_ptr_list, ci.g_ptr_list, ci.task_repeats
    gpins, cell = ci.g_pins, ci.pin_cells
    pin_w = np.repeat(hg.hedge_w[ci.g_hedge], ci.g_size)
    pin_share = np.repeat(_expected_shares(hg, ci)[0], ci.g_size)
    empty, subtract_at = np.empty, np.subtract.at

    for v in _kernel_order(ci, sort_by_degree):
        a, b = tptr[v], tptr[v + 1]
        p0, p1 = gptr[a], gptr[b]
        pins = gpins[p0:p1]
        # every sibling withdraws its share, in candidate order (the
        # elementwise subtract.at matches the Python loop's order; the
        # buffered fancy subtract is identical — and cheaper — when no
        # processor appears in two of the task's candidates)
        if repeats[v]:
            subtract_at(o, pins, pin_share[p0:p1])
        else:
            o[pins] -= pin_share[p0:p1]
        if b - a == 1:
            k = a
        else:
            rows = empty((b - a, p1 - p0))
            rows[:] = o[pins]
            rows.ravel()[cell[p0:p1]] += pin_w[p0:p1]
            k = a + lex_best_row(rows)
        chosen[v] = k
        # commit: realise the chosen candidate on its pins
        q0, q1 = gptr[k], gptr[k + 1]
        o[gpins[q0:q1]] += pin_w[q0:q1]

    return _matching(hg, ci, chosen)
