"""Vectorized kernels over :class:`~repro.kernels.CompiledKernels` arrays.

Each kernel batches the exact floating-point operations of the Python
loop it replaces (same values, same accumulation order), so results are
bit-identical — the conformance harness holds every solver to that.

Ranking kernels compare all of a task's candidates at once over the
*task's own pins* (``g_pins[p0:p1]``, one column per pin) instead of
pairwise unions; by the multiset lemma of :mod:`repro.core.loadvec`
(untouched loads cancel) the descending-lex order is unchanged.  The
lemma extends to a processor that ``m`` candidates of the task share:
it has ``m`` columns, and every candidate's row holds its value once
as the union would (raised by the candidate's weight when the
candidate holds it) plus ``m - 1`` copies of its untouched value.
Every row gains the same copies, and common values cancel, so the pick
is the one a ranking over the task's pin-union makes, bit for bit.  The
lemma holds for any totally ordered values, so it applies verbatim to
the IEEE doubles being compared.

The sequential frontier
-----------------------
The greedy heuristics (SGH/VGH/EGH/EVG) carry a loop these kernels
cannot absorb: task ``v``'s decision reads the loads committed by every
earlier task, so the per-task dependency chain is irreducible — there is
no batched formulation over tasks without changing the algorithm (and
hence the matching).  What the numpy backend vectorizes is the *inner*
dimension (all of a task's candidates and pins at once); the outer loop
keeps a fixed per-task cost of ufunc dispatches.  All four kernels trim
it the same way: pointers become Python lists once per solve, every
per-candidate constant (reduceat offsets, EGH/EVG's ``w/d_v`` shares and
``w - w/d_v`` gains, each pin's cell in its task's ranking matrix) is
built in one whole-array pass, and :func:`lex_best_row` ranks with one
sort and one ``argmin``.  Warm per-task cost on the ``bench_scaling``
family (fewgmanyg, g=32, 2-CPU VM) at n=5120 / n=10240:

====  ================  ==========================================
SGH   ≈ 5 / 5.5 µs      gather, ``maximum.reduceat``, argmin, scatter
EGH   ≈ 6.5 / 7.5 µs    SGH's step + the ordered ``np.add.at`` collapse
VGH   ≈ 12 / 11 µs      ranking-matrix scatter + one-sort rank
EVG   ≈ 14 / 13 µs      VGH's step + shares withdrawn on its pins
====  ================  ==========================================

The Python oracle pays a few µs *per candidate*, so the numpy path's
speedup grows with the per-step work it batches: about 3x for SGH, 4x
for EGH and 6-8x for VGH/EVG at these sizes — not the 10-50x of the
batch kernels below, whose work has no cross-item dependency.
Squeezing the remaining per-step constant means removing interpreter
dispatch itself (a native/compiled loop) or stepping many independent
instances in lockstep, not more vectorization within one instance.

Local search and incremental repair carry the same kind of chain: a
move's scan reads the loads the previous move left.  Their one move
scan (:mod:`repro.kernels.moves`) vectorizes a batch of tasks, in an
order each caller keeps, since it decides which move comes first.

Three ways around the greedy chain within one instance were measured,
and none pays:

* *Speculation.*  Under the exact chosen-pin rule, a choice made
  against stale loads stays valid while no earlier commit in its
  window touches the chosen candidate's pins: loads only grow, and
  IEEE addition is monotone, so no other candidate can overtake it.
  But the runs that rule lets commit are short — 3.46 tasks on
  average on the n=10240, p=2048 ``large-cold`` instance and 1.6-2.7
  tasks on the Table I specs up to n=5120 — too short to beat the
  cost of checking each window.
* *A pure-Python SGH loop.*  A list-based loop gives bit-identical
  answers but runs about 1.8-2x slower than the numpy kernel at
  n=10240.
* *A bottleneck-first VGH screen.*  A candidate could be accepted
  without ranking when its SGH key is the unique minimum and lies above
  the maximum load of the union.  That settles no step on unit-weight
  Table I instances and only 5-12% of steps on the ``-W`` ones.
"""

from __future__ import annotations

import numpy as np

from .compiled import flat_ranges

__all__ = [
    "loads_from_assignment",
    "lex_best_row",
    "batch_lex_signs",
    "first_lex_improving",
]


def loads_from_assignment(hg, hedge_of_task: np.ndarray) -> np.ndarray:
    """Per-processor loads of an assignment, accumulated in task order.

    The batched form of ``for h in hedge_of_task: loads[pins(h)] += w[h]``
    (``np.add.at`` applies elementwise in index order, so the float
    accumulation order — and therefore every bit of the result — matches
    the loop).
    """
    loads = np.zeros(hg.n_procs, dtype=np.float64)
    hedges = np.ascontiguousarray(hedge_of_task, dtype=np.int64)
    if hedges.size == 0:
        return loads
    sizes = np.diff(hg.hedge_ptr)[hedges]
    idx = flat_ranges(hg.hedge_ptr[:-1][hedges], sizes)
    np.add.at(
        loads, hg.hedge_procs[idx], np.repeat(hg.hedge_w[hedges], sizes)
    )
    return loads


#: Sign bit of the IEEE-754 binary64 layout.
_SIGN = np.uint64(0x8000000000000000)


def _inv_sort_keys(rows: np.ndarray) -> np.ndarray:
    """Each row of (m, k) ``rows`` → one byte string whose ``memcmp``
    order is the *reverse* of the row's descending-lex multiset order
    (memcmp-larger == lex-smaller).

    Each double maps through the inverted IEEE total-order trick
    (``~(bits | sign)`` for non-negatives, raw bits for negatives) — a
    strictly *decreasing* uint64 key for NaN-free floats (the kernels
    never produce NaN, and ``-0.0`` cannot arise from sums and
    differences of finite operands).  Sorting the inverted keys
    ascending therefore sorts the values descending in place, and the
    concatenated big-endian key bytes compare rows in one ``memcmp``
    instead of a per-column loop.
    """
    rows = np.asarray(rows, dtype=np.float64)
    m, k = rows.shape
    if k == 0:
        return np.zeros(m, dtype="S1")
    u = np.ascontiguousarray(rows).view(np.uint64)
    inv = np.where(rows < 0, u, ~(u | _SIGN))
    inv.sort(axis=1)
    return inv.astype(">u8").view(f"S{8 * k}").ravel()


def lex_best_row(rows: np.ndarray) -> int:
    """Index of the descending-lex smallest row of ``rows`` (m, k).

    Rows are value multisets (unsorted); ties keep the smallest index,
    matching the strict-``<`` incumbent rule of the Python loops.
    ``rows`` is sorted in place.

    Non-negative doubles order like their big-endian bytes, so once
    every row is sorted, the reversed (descending) rows viewed as
    ``8k``-byte strings compare by ``memcmp`` exactly as the multisets
    compare descending-lexicographically, and the winner is one
    ``argmin``.  A row holding a negative value (expected loads can
    round below zero) goes through the sign-aware :func:`_inv_sort_keys`.
    Values must be NaN-free and never ``-0.0``, which sums and
    differences of finite loads cannot produce.
    """
    k = rows.shape[1]
    if k == 0:
        return 0
    rows.sort(axis=1)
    # argmin + item: a fraction of the cost of the reduction .min()
    if rows.item(rows.argmin()) < 0.0:
        # inverted keys: memcmp-larger == lex-smaller
        return int(_inv_sort_keys(rows).argmax())
    return int(rows[:, ::-1].astype(">f8").view(f"S{8 * k}").argmin())


def batch_lex_signs(a: np.ndarray, b: np.ndarray) -> np.ndarray:
    """Rowwise descending-lex multiset comparison of ``a`` vs ``b``.

    Both are (m, k) matrices; rows may be padded with ``-inf`` (padding
    must match between ``a`` and ``b``, which maps to identical key
    bytes on both sides and cancels).  Returns an int array of
    -1/0/+1 per row — the batched
    :func:`repro.core.loadvec.lex_compare_multisets`.
    """
    ka = _inv_sort_keys(a)
    kb = _inv_sort_keys(b)
    # inverted keys: a memcmp-larger key means a lex-smaller multiset
    return (ka < kb).astype(np.int8) - (ka > kb).astype(np.int8)


def first_lex_improving(
    after: np.ndarray, before: np.ndarray
) -> int | None:
    """Index of the first row where ``after`` lex-improves on
    ``before`` (sign < 0), or ``None``.

    The acceptance rule of the move scan
    (:func:`repro.kernels.moves.first_improving_move`), which local
    search and incremental repair share: rows are the equal-maxima
    candidate moves of a batch in scan order, padded identically with
    ``-inf``, and the earliest improving one wins.
    """
    improving = np.flatnonzero(batch_lex_signs(after, before) < 0)
    return int(improving[0]) if improving.size else None
