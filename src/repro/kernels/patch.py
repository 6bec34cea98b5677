"""Delta-patchable compilation: :class:`KernelPatcher`.

:func:`~repro.kernels.compile_instance` rebuilds every grouped array
from scratch; under churn that full recompile dominates the solve
itself (BENCH_kernels.json: 0.123s compile vs 0.070s SGH at n=10240).
A :class:`KernelPatcher` instead *maintains* the compilation across
:class:`~repro.dynamic.journal.Mutation` records as bounded array
edits:

* ``update_weight`` patches weights in place (copy-on-write — emitted
  arrays are immutable and may sit in the compile cache);
* ``add_task`` appends rows into capacity-doubling slack storage.
  Task handles are monotone (never reused), so append order *is*
  canonical handle order and emission never sorts rows;
* ``remove_task`` / ``remove_processor`` tombstone rows behind an
  alive mask; once dead pins exceed ``compact_threshold`` the patcher
  reports :attr:`needs_compaction` and the owner rebuilds from state
  (the bounded fall-back to a full recompile);
* ``add_processor`` / ``remove_processor`` re-derive the dense
  processor ids.  Dense ids are ranks among the sorted alive handles,
  so per-task pin-unions and every pin's position inside them —
  maintained at *handle* level — are invariant under the remap.

:meth:`emit` lowers the handle-level stores to the exact arrays a
from-scratch :func:`compile_instance` of the canonically compiled
instance produces — bit-identical, dtype-identical (asserted by the
differential harness and a Hypothesis property test), so digests,
result-cache keys and solver outputs cannot tell a patched compilation
from a fresh one.  Emissions publish the two indexes a from-scratch
compile builds only on first access — the processor index and the
pin-union index — eagerly: sessions solve with EVG, which reads the
union, and the delta tiers splice both from the previous emission.

The module deliberately does not import :mod:`repro.dynamic` (which
imports the kernels back); mutation records are consumed through their
``op``/``payload`` attributes only.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np

from .._util import grown
from ..core.hypergraph import TaskHypergraph
from ..obs.trace import span
from .compiled import CompiledKernels, flat_ranges, register_compiled

__all__ = ["KernelPatcher", "PatchedCompilation"]

# dirty levels, monotone: weight edits can ride the cheap path only
# while no structural edit happened since the last emission
_CLEAN, _WEIGHTS, _STRUCT = 0, 1, 2


@dataclass(frozen=True)
class PatchedCompilation:
    """One emitted compilation artifact plus its handle mappings.

    ``hedge_handles``/``hedge_slots`` name, per dense hyperedge, the
    (task handle, config slot) it was compiled from — what
    :class:`~repro.dynamic.CompiledInstance` translates assignments
    with.
    """

    hypergraph: TaskHypergraph
    kernels: CompiledKernels
    task_handles: np.ndarray
    proc_handles: np.ndarray
    hedge_handles: np.ndarray
    hedge_slots: np.ndarray

    @property
    def digest(self) -> str:
        return self.kernels.digest


@dataclass
class PatchStats:
    """Observable counters of one patcher's lifetime."""

    mutations: int = 0
    emits_full: int = 0
    emits_weight: int = 0
    emits_delta: int = 0
    reused: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "mutations": self.mutations,
            "emits_full": self.emits_full,
            "emits_weight": self.emits_weight,
            "emits_delta": self.emits_delta,
            "reused": self.reused,
        }


class KernelPatcher:
    """Maintains a compilable flat-array image of a mutating instance.

    ``tasks`` is the instance state — ``(task handle, configs)`` pairs
    in ascending handle order, each config a ``(pins, weight, alive)``
    triple with sorted pin tuples — and ``procs`` the alive processor
    handles.  Building from state costs one full compile; every
    subsequent :meth:`apply` is a bounded edit.
    """

    def __init__(self, tasks, procs, *, compact_threshold: float = 0.5):
        if not 0.0 < compact_threshold <= 1.0:
            raise ValueError("compact_threshold must be in (0, 1]")
        self.compact_threshold = float(compact_threshold)
        self.stats = PatchStats()
        self._procs: set[int] = {int(u) for u in procs}
        self._proc_sorted: np.ndarray | None = None
        # row stores: one row per configuration slot, dead slots kept
        # in place so ``update_weight(task, cfg)`` addresses row
        # ``task_lo + cfg`` directly
        row_task: list[int] = []
        row_slot: list[int] = []
        row_w: list[float] = []
        row_len: list[int] = []
        row_alive: list[bool] = []
        pin_parts: list[tuple[int, ...]] = []
        self._task_rows: dict[int, tuple[int, int]] = {}
        r = 0
        for t, confs in tasks:
            lo = r
            for j, (pins, w, alive) in enumerate(confs):
                row_task.append(int(t))
                row_slot.append(j)
                row_w.append(float(w))
                row_len.append(len(pins))
                row_alive.append(bool(alive))
                pin_parts.append(pins)
                r += 1
            self._task_rows[int(t)] = (lo, r)
        self._nrows = r
        self._row_task = np.asarray(row_task, dtype=np.int64)
        self._row_slot = np.asarray(row_slot, dtype=np.int64)
        self._row_w = np.asarray(row_w, dtype=np.float64)
        self._row_len = np.asarray(row_len, dtype=np.int64)
        self._row_alive = np.asarray(row_alive, dtype=bool)
        self._row_ptr = np.zeros(r, dtype=np.int64)
        if r:
            np.cumsum(self._row_len[:-1], out=self._row_ptr[1:])
        flat = [u for pins in pin_parts for u in pins]
        self._pins = np.asarray(flat, dtype=np.int64)
        self._pin_pos = np.zeros(self._pins.shape[0], dtype=np.int64)
        self._pin_row = np.repeat(
            np.arange(r, dtype=np.int64), self._row_len[:r]
        )
        self._pin_used = self._pins.shape[0]
        self._dead_pins = 0
        # handle-level per-task sorted pin-unions (dense-remap invariant)
        self._union: dict[int, np.ndarray] = {}
        self._build_unions()
        # dead pins of tombstoned rows existing at build time still
        # count toward compaction pressure
        if r:
            self._dead_pins = int(
                self._row_len[: r][~self._row_alive[: r]].sum()
            )
        self._dirty = _STRUCT
        self._weight_rows: list[int] = []
        self._last: PatchedCompilation | None = None
        self._row_dense: np.ndarray | None = None
        # structural records since the last emission, while the window
        # stays simple enough for delta emission (one task add/remove
        # over an up-to-date baseline); ``None`` = window poisoned,
        # fall back to a full structural emit
        self._pending: list[tuple[str, int]] | None = []

    # ------------------------------------------------------------------
    # union maintenance (handle level)
    # ------------------------------------------------------------------
    def _build_unions(self) -> None:
        """Recompute every task's pin-union and each alive pin's
        position inside it, in one vectorized pass.

        Alongside the per-task dict this maintains the *flat* image the
        emitter needs — ``_u_tasks`` (alive handles ascending),
        ``_u_lens`` and ``_u_flat`` (concatenated unions in that order)
        — kept incrementally by the mutation hooks so emission never
        re-concatenates thousands of small arrays.
        """
        self._u_tasks = np.empty(0, dtype=np.int64)
        self._u_lens = np.empty(0, dtype=np.int64)
        self._u_flat = np.empty(0, dtype=np.int64)
        n = self._nrows
        if n == 0:
            return
        alive_rows = np.flatnonzero(self._row_alive[:n])
        if alive_rows.size == 0:
            return
        sizes = self._row_len[alive_rows]
        idx = flat_ranges(self._row_ptr[alive_rows], sizes)
        apins = self._pins[idx]
        atask = np.repeat(self._row_task[alive_rows], sizes)
        order = np.lexsort((apins, atask))
        sp, stt = apins[order], atask[order]
        total = sp.shape[0]
        new = np.ones(total, dtype=bool)
        if total > 1:
            new[1:] = (sp[1:] != sp[:-1]) | (stt[1:] != stt[:-1])
        rank = np.cumsum(new) - 1
        uniq_task = stt[new]
        uniq_pin = sp[new]
        starts = np.flatnonzero(
            np.concatenate(([True], uniq_task[1:] != uniq_task[:-1]))
        )
        bounds = np.append(starts, uniq_task.shape[0])
        for k, t in enumerate(uniq_task[starts].tolist()):
            self._union[t] = np.ascontiguousarray(
                uniq_pin[bounds[k] : bounds[k + 1]]
            )
        self._u_tasks = np.ascontiguousarray(uniq_task[starts])
        self._u_lens = np.diff(bounds)
        self._u_flat = np.ascontiguousarray(uniq_pin)
        # rank is global over the sorted pins; subtract each task's
        # first rank (propagated forward — rank is non-decreasing) to
        # get the within-union position
        task_start = np.ones(total, dtype=bool)
        if total > 1:
            task_start[1:] = stt[1:] != stt[:-1]
        first_rank = np.maximum.accumulate(
            np.where(task_start, rank, 0)
        )
        pos = np.empty(total, dtype=np.int64)
        pos[order] = rank - first_rank
        self._pin_pos[idx] = pos

    def _refresh_task(self, t: int) -> None:
        """Recompute one task's union + pin positions from its alive
        rows (after a processor removal killed some of them)."""
        lo, hi = self._task_rows[t]
        rows = [
            r for r in range(lo, hi) if self._row_alive[r]
        ]
        parts = [
            self._pins[self._row_ptr[r] : self._row_ptr[r] + self._row_len[r]]
            for r in rows
        ]
        union = np.unique(np.concatenate(parts))
        self._union[t] = union
        for r, part in zip(rows, parts):
            p0 = self._row_ptr[r]
            self._pin_pos[p0 : p0 + self._row_len[r]] = np.searchsorted(
                union, part
            )

    def _u_rebuild(self) -> None:
        """Reconcatenate the flat union image from the per-task dict
        (one pass after a batch of union changes — a processor removal
        touches hundreds of tasks, and per-task splicing would copy the
        whole image once per task)."""
        parts = [self._union[t] for t in self._u_tasks.tolist()]
        if parts:
            self._u_lens = np.fromiter(
                (p.shape[0] for p in parts),
                dtype=np.int64,
                count=len(parts),
            )
            self._u_flat = np.concatenate(parts)
        else:
            self._u_lens = np.empty(0, dtype=np.int64)
            self._u_flat = np.empty(0, dtype=np.int64)

    # ------------------------------------------------------------------
    # mutation application
    # ------------------------------------------------------------------
    @property
    def needs_compaction(self) -> bool:
        """True once tombstoned pins exceed the compaction threshold —
        the owner should rebuild from state (a full recompile) instead
        of patching on."""
        if self._pin_used == 0:
            return False
        return self._dead_pins / self._pin_used > self.compact_threshold

    def apply(self, mutation) -> None:
        """Apply one journal record (anything with ``op``/``payload``).

        The record must come from a validated journal: the patcher
        trusts handles and feasibility exactly as the journal's owner
        established them.
        """
        # per-journal-record boundary, not a per-pin loop
        with span("kernels.patch.apply") as sp:  # repro: ignore[span-hygiene] — mutation-apply boundary, one span per journal record, outside the vectorized splice loops
            self._apply(mutation)
            if sp.recording:
                sp.set(op=mutation.op)

    def _apply(self, mutation) -> None:
        op, p = mutation.op, mutation.payload
        self.stats.mutations += 1
        if op == "update_weight":
            lo, _hi = self._task_rows[int(p["task"])]
            r = lo + int(p["config"])
            self._row_w[r] = float(p["weight"])
            if self._dirty == _CLEAN:
                self._dirty = _WEIGHTS
            if self._dirty == _WEIGHTS:
                self._weight_rows.append(r)
            else:
                # a weight edit landing *after* a structural op voids the
                # delta-splice baseline too: _delta_add/_delta_remove
                # splice the last emission's arrays, which predate this
                # edit (the mirror image of the _WEIGHTS guard below)
                self._pending = None
            return
        if op in ("add_task", "remove_task"):
            # delta emission needs the last emission as its baseline:
            # un-emitted weight edits would be spliced through stale
            if self._dirty == _WEIGHTS:
                self._pending = None
            elif self._pending is not None:
                self._pending.append((op, int(p["task"])))
            if op == "add_task":
                self._add_task(int(p["task"]), p["configs"])
            else:
                self._remove_task(int(p["task"]))
        elif op == "add_processor":
            self._procs.add(int(p["proc"]))
            self._proc_sorted = None
            self._pending = None
        elif op == "remove_processor":
            self._remove_processor(int(p["proc"]))
            self._pending = None
        else:
            raise ValueError(f"unknown mutation op {op!r}")
        self._dirty = _STRUCT
        self._weight_rows = []

    def _add_task(self, t: int, configs) -> None:
        n_new = len(configs)
        lo = self._nrows
        need_rows = lo + n_new
        self._row_task = grown(self._row_task, need_rows)
        self._row_slot = grown(self._row_slot, need_rows)
        self._row_w = grown(self._row_w, need_rows)
        self._row_len = grown(self._row_len, need_rows)
        self._row_alive = grown(self._row_alive, need_rows)
        self._row_ptr = grown(self._row_ptr, need_rows)
        pins_flat: list[int] = []
        for j, (pins, w) in enumerate(configs):
            r = lo + j
            sorted_pins = sorted(int(u) for u in pins)
            self._row_task[r] = t
            self._row_slot[r] = j
            self._row_w[r] = float(w)
            self._row_len[r] = len(sorted_pins)
            self._row_alive[r] = True
            self._row_ptr[r] = self._pin_used + len(pins_flat)
            pins_flat.extend(sorted_pins)
        need_pins = self._pin_used + len(pins_flat)
        self._pins = grown(self._pins, need_pins)
        self._pin_pos = grown(self._pin_pos, need_pins)
        self._pin_row = grown(self._pin_row, need_pins)
        new_pins = np.asarray(pins_flat, dtype=np.int64)
        self._pins[self._pin_used : need_pins] = new_pins
        self._pin_row[self._pin_used : need_pins] = np.repeat(
            np.arange(lo, lo + n_new, dtype=np.int64),
            self._row_len[lo : lo + n_new],
        )
        union = np.unique(new_pins)
        self._union[t] = union
        # handles are monotone, so the new task's union lands at the
        # end of the flat image
        self._u_tasks = np.append(self._u_tasks, t)
        self._u_lens = np.append(self._u_lens, union.shape[0])
        self._u_flat = np.concatenate((self._u_flat, union))
        self._pin_pos[self._pin_used : need_pins] = np.searchsorted(
            union, new_pins
        )
        self._pin_used = need_pins
        self._nrows = need_rows
        self._task_rows[t] = (lo, need_rows)

    def _remove_task(self, t: int) -> None:
        lo, hi = self._task_rows.pop(t)
        alive = self._row_alive[lo:hi]
        self._dead_pins += int(self._row_len[lo:hi][alive].sum())
        self._row_alive[lo:hi] = False
        self._union.pop(t, None)
        i = int(np.searchsorted(self._u_tasks, t))
        if i < self._u_tasks.shape[0] and self._u_tasks[i] == t:
            start = int(self._u_lens[:i].sum())
            ln = int(self._u_lens[i])
            self._u_tasks = np.delete(self._u_tasks, i)
            self._u_lens = np.delete(self._u_lens, i)
            self._u_flat = np.concatenate(
                (self._u_flat[:start], self._u_flat[start + ln :])
            )

    def _remove_processor(self, u: int) -> None:
        used = self._pin_used
        hits = self._pin_row[:used][self._pins[:used] == u]
        rows = np.unique(hits)
        rows = rows[self._row_alive[rows]]
        if rows.size:
            self._row_alive[rows] = False
            self._dead_pins += int(self._row_len[rows].sum())
            for t in np.unique(self._row_task[rows]).tolist():
                self._refresh_task(t)
            self._u_rebuild()
        self._procs.discard(u)
        self._proc_sorted = None

    # ------------------------------------------------------------------
    # emission
    # ------------------------------------------------------------------
    def _proc_handles_sorted(self) -> np.ndarray:
        if self._proc_sorted is None:
            self._proc_sorted = np.array(
                sorted(self._procs), dtype=np.int64
            )
        return self._proc_sorted

    def _refresh_row_dense(self) -> None:
        n = self._nrows
        self._row_dense = np.full(n, -1, dtype=np.int64)
        alive_rows = np.flatnonzero(self._row_alive[:n])
        self._row_dense[alive_rows] = np.arange(
            alive_rows.size, dtype=np.int64
        )

    def emit(self) -> PatchedCompilation:
        """The compilation of the current state (cached while clean;
        weight-only edits take a copy-on-write fast path, a single
        task add/remove a splice of the previous emission)."""
        # emission boundary: one span per journal sync, covering
        # whichever tier (reuse / weights / delta splice / struct) runs
        with span("kernels.patch.emit") as sp:  # repro: ignore[span-hygiene] — emission boundary, one span per sync, wraps the tier dispatch rather than any inner array loop
            if sp.recording:
                sp.set(tier=("clean", "weights", "struct")[self._dirty])
            return self._emit()

    def _emit(self) -> PatchedCompilation:
        if self._last is not None:
            if self._dirty == _CLEAN:
                self.stats.reused += 1
                return self._last
            if self._dirty == _WEIGHTS:
                return self._emit_weights()
            if self._pending is not None and len(self._pending) == 1:
                op, t = self._pending[0]
                with span("kernels.patch.splice") as dsp:  # repro: ignore[span-hygiene] — delta-splice tier boundary, one span per single-op emission, wraps the whole splice not its array ops
                    if dsp.recording:
                        dsp.set(op=op)
                    artifact = (
                        self._delta_add(t)
                        if op == "add_task"
                        else self._delta_remove(t)
                    )
                if artifact is not None:
                    return artifact
        return self._emit_struct()

    def _emit_weights(self) -> PatchedCompilation:
        last = self._last
        assert last is not None and self._row_dense is not None
        rows = np.unique(np.asarray(self._weight_rows, dtype=np.int64))
        dense = self._row_dense[rows]
        old = last.hypergraph
        w = old.hedge_w.copy()
        w[dense] = self._row_w[rows]
        hg = TaskHypergraph(
            n_tasks=old.n_tasks,
            n_procs=old.n_procs,
            n_hedges=old.n_hedges,
            hedge_task=old.hedge_task,
            hedge_ptr=old.hedge_ptr,
            hedge_procs=old.hedge_procs,
            hedge_w=w,
            task_ptr=old.task_ptr,
            task_hedges=old.task_hedges,
        )
        hg._publish_proc_index(old.proc_ptr, old.proc_hedges)
        ok = last.kernels
        kernels = CompiledKernels(
            hypergraph=hg,
            digest="",  # filled by _finish
            g_hedge=ok.g_hedge,
            g_w=w,
            g_size=ok.g_size,
            g_ptr=ok.g_ptr,
            g_pins=ok.g_pins,
            hedge_gpos=ok.hedge_gpos,
        )
        kernels._publish_union(
            np.repeat(w, ok.g_size),
            ok.g_pin_row,
            ok.g_pin_pos,
            ok.u_ptr,
            ok.u_procs,
        )
        artifact = self._finish(
            hg,
            kernels,
            last.task_handles,
            last.proc_handles,
            last.hedge_handles,
            last.hedge_slots,
        )
        self.stats.emits_weight += 1
        return artifact

    def _delta_add(self, t: int) -> PatchedCompilation | None:
        """Emission after a single ``add_task``: handles are monotone,
        so the new task's rows land at the *end* of every canonical
        array — emission appends segments instead of rebuilding, and
        the processor CSR takes the new hedges by one ``np.insert``
        (each processor's hedge list is sorted, and the new dense
        hedge ids exceed every existing one)."""
        last = self._last
        assert last is not None
        bounds = self._task_rows.get(t)
        if bounds is None or bounds[0] == bounds[1]:
            return None
        lo, hi = bounds
        kcfg = hi - lo
        hg0, k0 = last.hypergraph, last.kernels
        sizes_new = self._row_len[lo:hi]
        p0 = int(self._row_ptr[lo])
        pn = int(sizes_new.sum())
        pins_h = self._pins[p0 : p0 + pn]
        proc_sorted = self._proc_handles_sorted()
        n_procs = hg0.n_procs
        if proc_sorted.shape[0] != n_procs:
            return None
        new_gpins = np.searchsorted(proc_sorted, pins_h)
        nh0, n_tasks0 = hg0.n_hedges, hg0.n_tasks
        nh = nh0 + kcfg
        w_new = np.ascontiguousarray(self._row_w[lo:hi])

        hedge_task = np.concatenate(
            (hg0.hedge_task, np.full(kcfg, n_tasks0, dtype=np.int64))
        )
        hedge_ptr = np.concatenate(
            (hg0.hedge_ptr, hg0.hedge_ptr[-1] + np.cumsum(sizes_new))
        )
        hedge_procs = np.concatenate((hg0.hedge_procs, new_gpins))
        w = np.concatenate((hg0.hedge_w, w_new))
        task_ptr = np.concatenate(
            (hg0.task_ptr, np.array([nh], dtype=np.int64))
        )
        task_hedges = np.arange(nh, dtype=np.int64)
        pin_hedge = np.repeat(
            np.arange(nh0, nh, dtype=np.int64), sizes_new
        )
        order = np.argsort(new_gpins, kind="stable")
        proc_hedges = np.insert(
            hg0.proc_hedges,
            hg0.proc_ptr[new_gpins[order] + 1],
            pin_hedge[order],
        )
        proc_ptr = hg0.proc_ptr + np.concatenate(
            (
                np.zeros(1, dtype=np.int64),
                np.cumsum(np.bincount(new_gpins, minlength=n_procs)),
            )
        )
        hg = TaskHypergraph(
            n_tasks=n_tasks0 + 1,
            n_procs=n_procs,
            n_hedges=nh,
            hedge_task=hedge_task,
            hedge_ptr=hedge_ptr,
            hedge_procs=hedge_procs,
            hedge_w=w,
            task_ptr=task_ptr,
            task_hedges=task_hedges,
        )
        hg._publish_proc_index(proc_ptr, proc_hedges)
        union = self._union[t]
        kernels = CompiledKernels(
            hypergraph=hg,
            digest="",  # filled by _finish
            g_hedge=task_hedges,
            g_w=w,
            g_size=np.concatenate((k0.g_size, sizes_new)),
            g_ptr=hedge_ptr,
            g_pins=hedge_procs,
            hedge_gpos=task_hedges,
        )
        kernels._publish_union(
            np.concatenate((k0.g_pin_w, np.repeat(w_new, sizes_new))),
            np.concatenate(
                (
                    k0.g_pin_row,
                    np.repeat(np.arange(kcfg, dtype=np.int64), sizes_new),
                )
            ),
            np.concatenate((k0.g_pin_pos, self._pin_pos[p0 : p0 + pn])),
            np.concatenate(
                (
                    k0.u_ptr,
                    np.array(
                        [int(k0.u_ptr[-1]) + union.shape[0]],
                        dtype=np.int64,
                    ),
                )
            ),
            np.concatenate((k0.u_procs, np.searchsorted(proc_sorted, union))),
        )
        artifact = self._finish(
            hg,
            kernels,
            np.concatenate(
                (last.task_handles, np.array([t], dtype=np.int64))
            ),
            last.proc_handles,
            np.concatenate(
                (last.hedge_handles, np.full(kcfg, t, dtype=np.int64))
            ),
            np.concatenate(
                (
                    last.hedge_slots,
                    np.ascontiguousarray(self._row_slot[lo:hi]),
                )
            ),
        )
        self._refresh_row_dense()
        self.stats.emits_delta += 1
        return artifact

    def _delta_remove(self, t: int) -> PatchedCompilation | None:
        """Emission after a single ``remove_task``: rows are grouped by
        task in the canonical ordering, so the removed task occupies a
        contiguous hedge range — every array is the previous emission
        with one slice cut out (dense ids after the cut shift down
        uniformly, which preserves each processor's sorted order)."""
        last = self._last
        assert last is not None
        hg0, k0 = last.hypergraph, last.kernels
        handles = last.task_handles
        dt = int(np.searchsorted(handles, t))
        if dt >= handles.shape[0] or handles[dt] != t:
            return None
        a, b = int(hg0.task_ptr[dt]), int(hg0.task_ptr[dt + 1])
        pa, pb = int(hg0.hedge_ptr[a]), int(hg0.hedge_ptr[b])
        seg_h, seg_p = b - a, pb - pa
        nh = hg0.n_hedges - seg_h

        hedge_task = np.concatenate(
            (hg0.hedge_task[:a], hg0.hedge_task[b:] - 1)
        )
        hedge_ptr = np.concatenate(
            (hg0.hedge_ptr[: a + 1], hg0.hedge_ptr[b + 1 :] - seg_p)
        )
        hedge_procs = np.concatenate(
            (hg0.hedge_procs[:pa], hg0.hedge_procs[pb:])
        )
        w = np.concatenate((hg0.hedge_w[:a], hg0.hedge_w[b:]))
        task_ptr = np.concatenate(
            (hg0.task_ptr[:dt], hg0.task_ptr[dt + 1 :] - seg_h)
        )
        task_hedges = np.arange(nh, dtype=np.int64)
        keep = (hg0.proc_hedges < a) | (hg0.proc_hedges >= b)
        proc_hedges = hg0.proc_hedges[keep]
        proc_hedges[proc_hedges >= b] -= seg_h
        removed = np.bincount(
            hg0.hedge_procs[pa:pb], minlength=hg0.n_procs
        )
        proc_ptr = hg0.proc_ptr - np.concatenate(
            (np.zeros(1, dtype=np.int64), np.cumsum(removed))
        )
        hg = TaskHypergraph(
            n_tasks=hg0.n_tasks - 1,
            n_procs=hg0.n_procs,
            n_hedges=nh,
            hedge_task=hedge_task,
            hedge_ptr=hedge_ptr,
            hedge_procs=hedge_procs,
            hedge_w=w,
            task_ptr=task_ptr,
            task_hedges=task_hedges,
        )
        hg._publish_proc_index(proc_ptr, proc_hedges)
        ua, ub = int(k0.u_ptr[dt]), int(k0.u_ptr[dt + 1])
        kernels = CompiledKernels(
            hypergraph=hg,
            digest="",  # filled by _finish
            g_hedge=task_hedges,
            g_w=w,
            g_size=np.concatenate((k0.g_size[:a], k0.g_size[b:])),
            g_ptr=hedge_ptr,
            g_pins=hedge_procs,
            hedge_gpos=task_hedges,
        )
        kernels._publish_union(
            np.concatenate((k0.g_pin_w[:pa], k0.g_pin_w[pb:])),
            np.concatenate((k0.g_pin_row[:pa], k0.g_pin_row[pb:])),
            np.concatenate((k0.g_pin_pos[:pa], k0.g_pin_pos[pb:])),
            np.concatenate((k0.u_ptr[:dt], k0.u_ptr[dt + 1 :] - (ub - ua))),
            np.concatenate((k0.u_procs[:ua], k0.u_procs[ub:])),
        )
        artifact = self._finish(
            hg,
            kernels,
            np.concatenate((handles[:dt], handles[dt + 1 :])),
            last.proc_handles,
            np.concatenate(
                (last.hedge_handles[:a], last.hedge_handles[b:])
            ),
            np.concatenate(
                (last.hedge_slots[:a], last.hedge_slots[b:])
            ),
        )
        self._refresh_row_dense()
        self.stats.emits_delta += 1
        return artifact

    def _emit_struct(self) -> PatchedCompilation:
        # the expensive tier (full rebuild of the grouped arrays): worth
        # its own span so traces separate it from the splice fast paths
        with span("kernels.patch.struct"):  # repro: ignore[span-hygiene] — full-rebuild tier boundary, runs once per struct emission, not per pin
            return self._emit_struct_inner()

    def _emit_struct_inner(self) -> PatchedCompilation:
        n = self._nrows
        alive_rows = np.flatnonzero(self._row_alive[:n])
        nh = alive_rows.size
        sizes = np.ascontiguousarray(self._row_len[alive_rows])
        hedge_ptr = np.zeros(nh + 1, dtype=np.int64)
        np.cumsum(sizes, out=hedge_ptr[1:])
        idx = flat_ranges(self._row_ptr[alive_rows], sizes)
        pins_h = self._pins[idx]
        pos = np.ascontiguousarray(self._pin_pos[idx])
        w = np.ascontiguousarray(self._row_w[alive_rows])
        th = self._row_task[alive_rows]
        hedge_slots = np.ascontiguousarray(self._row_slot[alive_rows])

        # dense task ids from handle boundaries (rows are stored in
        # handle order — handles are monotone — so no sort is needed)
        new_task = np.ones(nh, dtype=bool)
        if nh > 1:
            new_task[1:] = th[1:] != th[:-1]
        hedge_task = np.cumsum(new_task, dtype=np.int64) - 1
        task_handles = np.ascontiguousarray(th[new_task])
        n_tasks = task_handles.shape[0]
        task_ptr = np.zeros(n_tasks + 1, dtype=np.int64)
        if nh:
            np.cumsum(
                np.bincount(hedge_task, minlength=n_tasks),
                out=task_ptr[1:],
            )
        task_hedges = np.arange(nh, dtype=np.int64)

        # dense processor ids: rank among sorted alive handles
        proc_sorted = self._proc_handles_sorted()
        n_procs = proc_sorted.shape[0]
        if n_procs:
            remap = np.full(
                int(proc_sorted[-1]) + 1, -1, dtype=np.int64
            )
            remap[proc_sorted] = np.arange(n_procs, dtype=np.int64)
            hedge_procs = remap[pins_h]
        else:
            remap = np.empty(0, dtype=np.int64)
            hedge_procs = np.empty(0, dtype=np.int64)

        hg = TaskHypergraph(
            n_tasks=n_tasks,
            n_procs=n_procs,
            n_hedges=nh,
            hedge_task=hedge_task,
            hedge_ptr=hedge_ptr,
            hedge_procs=hedge_procs,
            hedge_w=w,
            task_ptr=task_ptr,
            task_hedges=task_hedges,
        )
        # the delta tiers splice this emission's processor index, so
        # build it now, through the builder a lazy first access runs
        hg._proc_index()

        # per-task sorted unions, remapped handle -> dense (the flat
        # image is maintained incrementally by the mutation hooks)
        if n_tasks:
            u_lens = self._u_lens
            u_procs = remap[self._u_flat]
        else:
            u_lens = np.empty(0, dtype=np.int64)
            u_procs = np.empty(0, dtype=np.int64)
        u_ptr = np.zeros(n_tasks + 1, dtype=np.int64)
        np.cumsum(u_lens, out=u_ptr[1:])

        kernels = CompiledKernels(
            hypergraph=hg,
            digest="",  # filled by _finish
            g_hedge=task_hedges,
            g_w=w,
            g_size=sizes,
            g_ptr=hedge_ptr,
            g_pins=hedge_procs,
            hedge_gpos=task_hedges,
        )
        kernels._publish_union(
            np.repeat(w, sizes),
            np.repeat(task_hedges - task_ptr[hedge_task], sizes),
            pos,
            u_ptr,
            u_procs,
        )
        artifact = self._finish(
            hg,
            kernels,
            task_handles,
            proc_sorted.copy(),
            np.ascontiguousarray(th),
            hedge_slots,
        )
        self._refresh_row_dense()
        self.stats.emits_full += 1
        return artifact

    def _finish(
        self,
        hg: TaskHypergraph,
        kernels: CompiledKernels,
        task_handles: np.ndarray,
        proc_handles: np.ndarray,
        hedge_handles: np.ndarray,
        hedge_slots: np.ndarray,
    ) -> PatchedCompilation:
        # runtime import mirrors compile_instance: kernels must stay
        # importable before the engine package
        from ..engine.cache import instance_digest

        digest = instance_digest(hg)
        object.__setattr__(kernels, "digest", digest)
        register_compiled(kernels)
        artifact = PatchedCompilation(
            hypergraph=hg,
            kernels=kernels,
            task_handles=task_handles,
            proc_handles=proc_handles,
            hedge_handles=hedge_handles,
            hedge_slots=hedge_slots,
        )
        self._last = artifact
        self._dirty = _CLEAN
        self._weight_rows = []
        self._pending = []
        return artifact

