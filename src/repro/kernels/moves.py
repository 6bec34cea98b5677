"""The single-task move scan of local search and incremental repair.

A move re-assigns one task to another of its alive configurations and
is accepted when it improves the load vector in the
descending-lexicographic order of Section IV-D3.  Local search
(``+ls``, GRASP) and incremental repair both apply the first improving
move of a scan: :func:`first_improving_move` finds it over a batch of
tasks, and :func:`first_improving_move_python`, the same rule
candidate by candidate, is the ``backend="python"`` path and the test
oracle.  The order decides which improving move comes first, so each
caller keeps its own (see :mod:`repro.algorithms.local_search` and
:mod:`repro.dynamic.solver`).

Both read a *row layout*: task ``t`` owns rows ``task_lo[t] ..
task_lo[t] + task_n[t]`` (configuration ``j`` is row ``task_lo[t] +
j``); row ``r`` has the pins ``row_pins(r)``, the weight ``row_w[r]``,
the flag ``row_alive[r]`` and the task ``row_task[r]``; a task's rows
hold one stretch of ``pins``, and ``pin_shift`` takes a pin from its
place in that stretch to its position in the task's sorted pin-union.
The dynamic row store (:class:`~repro.dynamic.instance._ConfigStore`)
is one; :func:`compiled_rows` gives one over a compilation.
"""

from __future__ import annotations

from typing import NamedTuple

import numpy as np

from .compiled import CompiledKernels, flat_ranges, segment_starts
from .ops import first_lex_improving

__all__ = [
    "SCAN_PREFIX",
    "RowLayout",
    "compiled_rows",
    "first_improving_move",
    "first_improving_move_python",
]

#: how many tasks of a scan order the first batch holds
SCAN_PREFIX = 16


class RowLayout(NamedTuple):
    """A row layout (see the module docs) over plain arrays."""

    task_lo: np.ndarray
    task_n: np.ndarray
    row_ptr: np.ndarray
    row_len: np.ndarray
    row_w: np.ndarray
    row_alive: np.ndarray
    row_task: np.ndarray
    pins: np.ndarray
    pin_shift: np.ndarray

    def row_pins(self, row: int) -> np.ndarray:
        p0 = self.row_ptr.item(row)
        return self.pins[p0 : p0 + self.row_len.item(row)]


def compiled_rows(ck: CompiledKernels) -> RowLayout:
    """The row layout of ``ck``'s bound instance: its grouped
    candidates as rows, all alive, weighed by the instance."""
    hg = ck.hypergraph
    return RowLayout(
        task_lo=hg.task_ptr[:-1],
        task_n=np.diff(hg.task_ptr),
        row_ptr=ck.g_ptr,
        row_len=ck.g_size,
        row_w=hg.hedge_w[ck.g_hedge],
        row_alive=np.ones(ck.n_hedges, dtype=bool),
        row_task=np.repeat(np.arange(hg.n_tasks), np.diff(hg.task_ptr)),
        pins=ck.g_pins,
        pin_shift=ck.pin_shift,
    )


def first_improving_move_python(
    rows, loads: np.ndarray, assign: np.ndarray, tasks: np.ndarray
) -> tuple[int, int] | None:
    """The first improving move ``(task, configuration)`` of ``tasks``
    (in order, a task's alive configurations in index order; ``assign``
    holds the current ones), found candidate by candidate: a move's
    affected loads are ``l - cur_w`` on the pins it leaves, ``l + w`` on
    the pins it takes and ``(l - cur_w) + w`` on the pins it keeps, and
    it improves when they sort descending below the loads before it."""
    for task in tasks.tolist():
        lo = rows.task_lo.item(task)
        cur = lo + assign.item(task)
        old = set(rows.row_pins(cur).tolist())
        cur_w = rows.row_w.item(cur)
        for row in range(lo, lo + rows.task_n.item(task)):
            if row == cur or not rows.row_alive.item(row):
                continue
            new = set(rows.row_pins(row).tolist())
            w = rows.row_w.item(row)
            before, after = [], []
            for u in old | new:
                load = loads.item(u)
                before.append(load)
                if u in old:
                    load = load - cur_w
                if u in new:
                    load = load + w
                after.append(load)
            if sorted(after, reverse=True) < sorted(before, reverse=True):
                return task, row - lo
    return None


def first_improving_move(
    rows, loads: np.ndarray, assign: np.ndarray, tasks: np.ndarray
) -> tuple[int, int] | None:
    """:func:`first_improving_move_python`'s move over the non-empty
    ``tasks``, all evaluated in one vectorized pass.

    One flat gather reads every row of ``tasks`` — current
    configurations and alternatives alike — and takes each row's
    maximum load once.  A move is screened by its affected maxima
    (the first entry of the descending multisets): a larger maximum
    after the move cannot improve, a smaller one certainly does.
    Only the equal-maxima moves before the first sure improvement
    need the full comparison, in one batched
    :func:`~repro.kernels.first_lex_improving` call.

    A task's rows hold one stretch of the layout's pins, so the
    gather is one range per task, and a pin's union position is its
    ``pin_shift`` away from it: the shared pins are found with no key
    build or sorted search.  Each scanned task owns a stretch of a
    buffer as long as its gathered pins, its current row marks its
    pins' union positions there, and an alternative's pin is shared
    exactly when its position is marked (the tie path does the same
    per tied move, marking the move's new pins).  The float operations
    are the scalar rule's — ``(l - cur_w) + w`` on a shared pin,
    ``l - cur_w`` and ``l + w`` elsewhere — so every decision is
    bit-identical to it.  Rounding is monotone, which spares two
    per-pin passes: the current pins' largest ``l - cur_w`` is
    ``max(l) - cur_w`` (and a shared pin's ``(l - cur_w) + w`` is at
    least its ``l - cur_w``), and a row's largest ``(l - mark) + w`` is
    its largest ``l - mark``, plus ``w``.
    """
    # one flat gather of every row of ``tasks``, grouped by task;
    # task ``o`` owns rows ``first[o]:ends[o]``, row ``r`` the pins
    # ``at[r]:at[r] + lens[r]``
    lo = rows.task_lo[tasks]
    counts = rows.task_n[tasks]
    ends = np.add.accumulate(counts)
    first = ends - counts
    row = (lo - first).repeat(counts) + np.arange(ends[-1])
    lens = rows.row_len[row]
    pend = np.add.accumulate(lens)
    at = pend - lens
    # a task's rows hold consecutive pins, so its stretch of the
    # gather is one range of the layout: one repeat per task
    t_at = at[first]
    t_pins = np.add.reduceat(lens, first)
    place = np.arange(pend[-1])
    flat = (rows.row_ptr[lo] - t_at).repeat(t_pins) + place
    before = loads[rows.pins[flat]]
    row_max = np.maximum.reduceat(before, at)
    w = rows.row_w[row]
    cur = first + assign[tasks]
    cur_w = w[cur]
    cur_max = row_max[cur]
    cur_len = lens[cur]
    is_cur = np.zeros(row.shape[0], dtype=bool)
    is_cur[cur] = True
    # a task's union positions index its own stretch of the gather
    # (a union is no longer than its rows' pins together), a pin's
    # one its shift away from the pin; the current rows mark theirs
    # with cur_w, so a pin's mark is what the move takes off it first
    upos = place + rows.pin_shift[flat]
    held = np.zeros(place.shape[0])
    held[upos[is_cur.repeat(lens)]] = cur_w.repeat(cur_len)
    # (l - 0.0) is l exactly: an unshared pin's mark is 0
    left = before - held[upos]
    max_after = np.maximum(
        (cur_max - cur_w).repeat(counts),
        np.maximum.reduceat(left, at) + w,
    )
    max_before = np.maximum(cur_max.repeat(counts), row_max)
    # a row that is no alternative (the current one, a disabled one)
    # neither improves nor ties
    max_after[is_cur | ~rows.row_alive[row]] = np.inf
    sure = (max_after < max_before).nonzero()[0]
    stop = int(sure[0]) if sure.size else row.shape[0]
    pick = stop if sure.size else None
    ties = (max_after[:stop] == max_before[:stop]).nonzero()[0]
    if ties.size:
        # the equal-maxima moves as full affected multisets: the
        # current pins each move leaves (l -> l - cur_w), then every
        # pin of its new configuration
        m = ties.shape[0]
        t_owner = np.searchsorted(ends, ties, side="right")
        t_cur = cur[t_owner]
        t_len = cur_len[t_owner]
        new_len = lens[ties]
        # each tied move marks its new pins' union positions in a copy
        # of its task's stretch; a held pin leaves unless marked
        t_span = t_pins[t_owner]
        t_base = segment_starts(t_span) - t_at[t_owner]
        new = flat_ranges(at[ties], new_len)
        stays = np.zeros(int(t_span.sum()), dtype=bool)
        stays[t_base.repeat(new_len) + upos[new]] = True
        kept = flat_ranges(at[t_cur], t_len)
        leaves = ~stays[t_base.repeat(t_len) + upos[kept]]
        row_of = np.concatenate(
            (
                np.repeat(np.arange(m), t_len)[leaves],
                np.repeat(np.arange(m), new_len),
            )
        )
        l_left = before[kept][leaves]
        cw_left = cur_w[t_owner].repeat(t_len)[leaves]
        a = np.concatenate(
            (l_left - cw_left, left[new] + w[ties].repeat(new_len))
        )
        b = np.concatenate((l_left, before[new]))
        i = first_lex_improving(_padded(row_of, a, m), _padded(row_of, b, m))
        if i is not None:
            pick = int(ties[i])
    if pick is None:
        return None
    r = row.item(pick)
    task = rows.row_task.item(r)
    return task, r - rows.task_lo.item(task)


def _padded(row_of: np.ndarray, values: np.ndarray, m: int) -> np.ndarray:
    """``values`` laid out as ``m`` rows (``row_of`` names each value's
    row), padded with ``-inf`` to a rectangle."""
    order = np.argsort(row_of, kind="stable")
    rows = row_of[order]
    counts = np.bincount(rows, minlength=m)
    cols = np.arange(rows.shape[0]) - segment_starts(counts)[rows]
    out = np.full((m, int(counts.max())), -np.inf)
    out[rows, cols] = values[order]
    return out
