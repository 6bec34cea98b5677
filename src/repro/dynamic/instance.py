"""A mutable overlay over :class:`~repro.core.hypergraph.TaskHypergraph`.

The core instance types are immutable CSR arrays — ideal for solver
kernels, hostile to churn.  :class:`DynamicInstance` keeps the *logical*
MULTIPROC instance in one handle-level row store instead (flat arrays
with capacity doubling and tombstones, see :class:`_ConfigStore`; the
incremental solver reads the same arrays): tasks and processors get
stable integer handles that survive arbitrary arrivals and departures,
every mutation appends to a :class:`~repro.dynamic.journal.DeltaJournal`
(giving ``snapshot()``/``rollback()``/``replay()``), and the frozen CSR
form is *compiled on demand* — and cached by version — whenever a
solver, digest or serialisation needs it.

The content digest is the engine's own
:func:`~repro.engine.cache.instance_digest` of the compiled hypergraph.
Compilation is *canonical* (hyperedges grouped by task handle), so any
two dynamic spellings of the same logical content — different mutation
histories, a rollback, a trace replay — produce the same digest and
share :class:`~repro.engine.cache.ResultCache` entries, and any
mutation re-keys the cache precisely: equal content, equal key —
nothing else.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any, Iterable, Sequence

import numpy as np

from .._util import grown
from ..core.errors import GraphStructureError, InfeasibleError
from ..core.hypergraph import TaskHypergraph
from ..kernels.compiled import flat_ranges, segment_starts, union_shifts
from .journal import DeltaJournal, Mutation

__all__ = ["DynamicInstance", "CompiledInstance"]


def _row_arrays(confs):
    """``(pin counts, flat pins, weights, alive flags)`` of
    ``(sorted pins, weight, alive)`` triples."""
    return (
        np.array([len(pins) for pins, _, _ in confs], dtype=np.int64),
        np.array([u for pins, _, _ in confs for u in pins], dtype=np.int64),
        np.array([w for _, w, _ in confs], dtype=np.float64),
        np.array([alive for _, _, alive in confs], dtype=bool),
    )


class _ConfigStore:
    """Every configuration of every task, as handle-level flat arrays.

    Task handle ``t`` owns rows ``task_lo[t] .. task_lo[t] + task_n[t]``
    (``task_n[t] == 0``: no such task) and its configuration ``j`` is
    row ``task_lo[t] + j``.  Row ``r`` holds the sorted pins
    ``pins[row_ptr[r] : row_ptr[r] + row_len[r]]``, the weight
    ``row_w[r]``, its owner ``row_task[r]`` and ``row_alive[r]`` (false
    once a processor failure disabled the configuration or its task
    departed).

    A task's rows are appended together, so they hold consecutive
    pins: its configurations are one stretch of ``pins``.  Every pin
    also knows its place in its task's *pin-union* (the sorted distinct
    processors of all the task's rows, disabled ones included), as a
    shift from its own place in that stretch: when the task's pins
    start at ``s``, ``pins[i]`` sits at union position
    ``i - s + pin_shift[i]`` (see
    :func:`~repro.kernels.compiled.union_shifts`).  The store is thus a
    row layout of the move scan (:mod:`repro.kernels.moves`), which
    finds the pins two rows share by marking union positions in a
    buffer laid out like the pins it scans.  Shifts are set when a
    task's rows are appended and carried unchanged through compaction
    (which moves a task's stretch whole); killing, reviving or
    re-weighting a row leaves them valid, since the union counts
    disabled rows too.

    A departed task's rows stay behind as garbage; once garbage is more
    than half of all rows, :meth:`compact` repacks the live tasks' rows
    in handle order.  Configuration indices survive that, row ids do
    not — so row ids never leave the instance and its solver, which
    read these arrays directly (and re-read them after every mutation:
    growth and compaction replace them).
    """

    def __init__(self) -> None:
        self.task_lo = np.zeros(0, dtype=np.int64)
        self.task_n = np.zeros(0, dtype=np.int64)
        self.row_ptr = np.zeros(0, dtype=np.int64)
        self.row_len = np.zeros(0, dtype=np.int64)
        self.row_task = np.zeros(0, dtype=np.int64)
        self.row_w = np.zeros(0, dtype=np.float64)
        self.row_alive = np.zeros(0, dtype=bool)
        self.pins = np.zeros(0, dtype=np.int64)
        self.pin_shift = np.zeros(0, dtype=np.int64)
        self.n_rows = 0
        self.n_pins = 0
        self.n_tasks = 0
        self.garbage = 0

    # -- reading --------------------------------------------------------
    def live_tasks(self) -> np.ndarray:
        """Task handles present, ascending."""
        return np.flatnonzero(self.task_n > 0)

    def has(self, task: int) -> bool:
        return 0 <= task < self.task_n.shape[0] and self.task_n[task] > 0

    def extent(self, task: int) -> tuple[int, int]:
        """``(first row, configuration count)`` of ``task``."""
        if not self.has(task):
            raise GraphStructureError(f"unknown task handle {task}")
        return int(self.task_lo[task]), int(self.task_n[task])

    def row_pins(self, row: int) -> np.ndarray:
        p0 = self.row_ptr.item(row)
        return self.pins[p0 : p0 + self.row_len.item(row)]

    def rows_of(self, tasks: np.ndarray) -> np.ndarray:
        """Every row of ``tasks``, grouped by task in the given order."""
        return flat_ranges(self.task_lo[tasks], self.task_n[tasks])

    def pins_of(self, rows: np.ndarray) -> np.ndarray:
        """The concatenated pins of ``rows``."""
        return self.pins[flat_ranges(self.row_ptr[rows], self.row_len[rows])]

    def configs(self, task: int) -> list[tuple[tuple[int, ...], float, bool]]:
        """``(pins, weight, alive)`` of every configuration of ``task``."""
        lo, n = self.extent(task)
        return self._triples(np.arange(lo, lo + n))

    def items(self):
        """``(task, configs)`` for every task, handles ascending — one
        gather per 1024 tasks, sliced per task (chunked so the Python
        objects alive at once stay few)."""
        live = self.live_tasks()
        for lo in range(0, live.shape[0], 1024):
            tasks = live[lo : lo + 1024]
            triples = self._triples(self.rows_of(tasks))
            at = 0
            for t, c in zip(tasks.tolist(), self.task_n[tasks].tolist()):
                yield t, triples[at : at + c]
                at += c

    def _triples(self, rows: np.ndarray) -> list:
        flat = self.pins_of(rows).tolist()
        out = []
        at = 0
        for ln, w, alive in zip(
            self.row_len[rows].tolist(),
            self.row_w[rows].tolist(),
            self.row_alive[rows].tolist(),
        ):
            out.append((tuple(flat[at : at + ln]), w, alive))
            at += ln
        return out

    # -- writing --------------------------------------------------------
    def extend(
        self,
        tasks: np.ndarray,
        counts: np.ndarray,
        lens: np.ndarray,
        flat: np.ndarray,
        weights: np.ndarray,
        alive: np.ndarray,
        shift: np.ndarray | None = None,
    ) -> None:
        """Append the configurations of new ``tasks``: ``counts[i]``
        rows each, in task order, with pin counts ``lens``, sorted pins
        ``flat``, ``weights`` and ``alive`` flags per row.  ``shift``
        are the pins' union shifts when already known (compaction);
        otherwise they are derived from the pins."""
        if shift is None:
            shift = union_shifts(counts, lens, flat)
        r0, p0 = self.n_rows, self.n_pins
        r1, p1 = r0 + lens.shape[0], p0 + flat.shape[0]
        for name in (
            "row_ptr", "row_len", "row_task", "row_w", "row_alive"
        ):
            setattr(self, name, grown(getattr(self, name), r1))
        self.pins = grown(self.pins, p1)
        self.pin_shift = grown(self.pin_shift, p1)
        self.row_len[r0:r1] = lens
        self.row_ptr[r0:r1] = p0 + segment_starts(lens)
        self.row_task[r0:r1] = np.repeat(tasks, counts)
        self.row_w[r0:r1] = weights
        self.row_alive[r0:r1] = alive
        self.pins[p0:p1] = flat
        self.pin_shift[p0:p1] = shift
        top = int(tasks.max()) + 1 if tasks.shape[0] else 0
        self.task_lo = grown(self.task_lo, top)
        self.task_n = grown(self.task_n, top, fill=0)
        self.task_lo[tasks] = r0 + segment_starts(counts)
        self.task_n[tasks] = counts
        self.n_rows, self.n_pins = r1, p1
        self.n_tasks += tasks.shape[0]

    def add(self, task: int, confs) -> None:
        """Append one task from ``(sorted pins, weight, alive)``
        triples."""
        self.extend(
            np.array([task], dtype=np.int64),
            np.array([len(confs)], dtype=np.int64),
            *_row_arrays(confs),
        )

    def drop(self, task: int) -> list[tuple[tuple[int, ...], float, bool]]:
        """Remove ``task``; returns its configurations (the undo
        record)."""
        confs = self.configs(task)
        lo, n = self.extent(task)
        self.row_alive[lo : lo + n] = False
        self.task_n[task] = 0
        self.n_tasks -= 1
        self.garbage += n
        if 2 * self.garbage > self.n_rows:
            self.compact()
        return confs

    def kill(self, proc: int) -> tuple[np.ndarray, np.ndarray]:
        """Disable every alive configuration pinned to ``proc``; returns
        the ``(tasks, config indices)`` it disabled.  Raises
        :class:`InfeasibleError`, changing nothing, when that would
        leave some task without an alive configuration."""
        at = np.flatnonzero(self.pins[: self.n_pins] == proc)
        # row_ptr rises with the row id (rows are appended in order and
        # compaction keeps it), so a pin's row is a sorted search away;
        # a row lists each processor once, so the rows are distinct
        rows = np.searchsorted(self.row_ptr[: self.n_rows], at, "right") - 1
        rows = rows[self.row_alive[rows]]
        tasks = self.row_task[rows]
        hit, killed = np.unique(tasks, return_counts=True)
        if hit.size:
            alive = self.row_alive[self.rows_of(hit)].astype(np.int64)
            starts = segment_starts(self.task_n[hit])
            stranded = hit[np.add.reduceat(alive, starts) == killed]
            if stranded.size:
                raise InfeasibleError(
                    f"removing processor {proc} leaves task "
                    f"{int(stranded[0])} with no configuration"
                )
        self.row_alive[rows] = False
        return tasks, rows - self.task_lo[tasks]

    def revive(self, tasks: np.ndarray, slots: np.ndarray) -> None:
        self.row_alive[self.task_lo[tasks] + slots] = True

    def compact(self) -> None:
        """Repack the live tasks' rows in handle order, dropping
        garbage."""
        tasks = self.live_tasks()
        counts = self.task_n[tasks]
        rows = self.rows_of(tasks)
        lens = self.row_len[rows].copy()
        at = flat_ranges(self.row_ptr[rows], lens)
        flat = self.pins[at]
        weights = self.row_w[rows].copy()
        alive = self.row_alive[rows].copy()
        shift = self.pin_shift[at]
        self.n_rows = self.n_pins = self.n_tasks = self.garbage = 0
        self.extend(tasks, counts, lens, flat, weights, alive, shift)


@dataclass(frozen=True, eq=False)
class CompiledInstance:
    """The frozen CSR snapshot of a :class:`DynamicInstance`.

    Dense ids are contiguous and ordered by handle, so the mapping
    arrays translate between the solver's world (dense) and the dynamic
    world (handles):

    * ``task_handles[i]`` / ``proc_handles[u]`` — dense → handle;
    * ``hedge_handles[h]`` / ``hedge_slots[h]`` — the task handle and
      config index a dense hyperedge was compiled from, ascending by
      ``(handle, slot)``.
    """

    hypergraph: TaskHypergraph
    task_handles: tuple[int, ...]
    proc_handles: tuple[int, ...]
    hedge_handles: np.ndarray
    hedge_slots: np.ndarray

    def assignment_to_dense(
        self, assignment: dict[int, int]
    ) -> np.ndarray:
        """Translate a handle-level assignment (task → config index)
        into the ``hedge_of_task`` array of the compiled hypergraph.
        Raises :class:`GraphStructureError` when a task has no entry or
        its entry names no alive configuration."""
        n = len(self.task_handles)
        slots = np.fromiter(
            (assignment.get(t, -1) for t in self.task_handles),
            dtype=np.int64,
            count=n,
        )
        # hyperedges ascend by (handle, slot), so one key per pair keeps
        # that order and a sorted search finds every chosen hyperedge
        width = 1 + max(
            int(self.hedge_slots.max(initial=0)), int(slots.max(initial=0))
        )
        keys = self.hedge_handles * width + self.hedge_slots
        want = np.asarray(self.task_handles, dtype=np.int64) * width + slots
        at = np.searchsorted(keys, want)
        found = (slots >= 0) & (at < keys.shape[0])
        found[found] = keys[at[found]] == want[found]
        if not found.all():
            i = int(np.flatnonzero(~found)[0])
            task = self.task_handles[i]
            if task not in assignment:
                raise GraphStructureError(f"no configuration for task {task}")
            raise GraphStructureError(
                f"task {task} has no alive configuration {assignment[task]}"
            )
        return at


class DynamicInstance:
    """A MULTIPROC instance that mutates.

    Tasks and processors are addressed by stable integer *handles*
    (assigned sequentially, never reused), so references held by an
    :class:`~repro.dynamic.IncrementalSolver` stay valid across any
    interleaving of arrivals and departures.

    Mutations — :meth:`add_task`, :meth:`remove_task`,
    :meth:`add_processor`, :meth:`remove_processor`,
    :meth:`update_weight` — append to the delta journal.
    :meth:`snapshot` marks a point in time, :meth:`rollback` restores
    it, and :meth:`replay` applies recorded mutations (e.g. a loaded
    trace file).
    """

    def __init__(self) -> None:
        self._store = _ConfigStore()
        self._procs: set[int] = set()
        self._next_task = 0
        self._next_proc = 0
        self.journal = DeltaJournal()
        self._version = 0
        self._compiled: tuple[int, CompiledInstance] | None = None
        self._digest: tuple[int, str] | None = None
        self._listeners: list = []
        self._compiles = 0

    # ------------------------------------------------------------------
    # change notification
    # ------------------------------------------------------------------
    def subscribe(self, listener) -> None:
        """Register a zero-argument callable invoked after every state
        change (mutation or rollback).

        An :class:`~repro.dynamic.IncrementalSolver` subscribes so its
        repair runs in lockstep with the journal: repairing a mutation
        needs the instance *as of that mutation*, which only the moment
        of the change can provide.
        """
        self._listeners.append(listener)

    def unsubscribe(self, listener) -> None:
        """Remove a previously subscribed listener (no-op if absent)."""
        try:
            self._listeners.remove(listener)
        except ValueError:
            pass

    def _notify(self) -> None:
        for listener in tuple(self._listeners):
            listener()

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_hypergraph(hg: TaskHypergraph) -> "DynamicInstance":
        """Seed a dynamic instance from a static one.

        Task ``i`` gets handle ``i``, processor ``u`` handle ``u``, and
        task ``i``'s ``j``-th incident hyperedge becomes its config
        ``j`` — a fresh compile therefore round-trips to an equivalent
        hypergraph with the hyperedges in canonical task-grouped order.
        The seeding is *not* journaled: the baseline is the state a
        trace's mutations apply to.
        """
        inst = DynamicInstance()
        inst._procs = set(range(hg.n_procs))
        inst._next_proc = hg.n_procs
        counts = np.diff(hg.task_ptr)
        if counts.size and counts.min() == 0:
            i = int(np.flatnonzero(counts == 0)[0])
            raise GraphStructureError(
                f"task {i} has no configuration; no semi-matching exists"
            )
        hedges = hg.task_hedges
        lens = np.diff(hg.hedge_ptr)[hedges]
        flat = hg.hedge_procs[flat_ranges(hg.hedge_ptr[hedges], lens)]
        # pins are stored sorted, exactly as add_task stores them: the
        # digest's equal-content-equal-key guarantee needs one canonical
        # pin order whatever the source spelled
        owner = np.repeat(np.arange(hedges.shape[0]), lens)
        inst._store.extend(
            np.arange(hg.n_tasks, dtype=np.int64),
            counts,
            lens,
            flat[np.lexsort((flat, owner))],
            hg.hedge_w[hedges],
            np.ones(hedges.shape[0], dtype=bool),
        )
        inst._next_task = hg.n_tasks
        return inst

    # ------------------------------------------------------------------
    # inspection
    # ------------------------------------------------------------------
    @property
    def n_tasks(self) -> int:
        return self._store.n_tasks

    @property
    def n_procs(self) -> int:
        return len(self._procs)

    @property
    def version(self) -> int:
        """Monotone mutation counter (rollback moves it forward too:
        every state change invalidates derived snapshots)."""
        return self._version

    def tasks(self) -> list[int]:
        """Alive task handles, ascending."""
        return self._store.live_tasks().tolist()

    def procs(self) -> list[int]:
        """Alive processor handles, ascending."""
        return sorted(self._procs)

    def has_proc(self, proc: int) -> bool:
        return proc in self._procs

    def task_configs(
        self, task: int
    ) -> list[tuple[int, tuple[int, ...], float]]:
        """Alive ``(config index, pins, weight)`` triples of ``task``."""
        return [
            (j, pins, w)
            for j, (pins, w, alive) in enumerate(self._store.configs(task))
            if alive
        ]

    def config(self, task: int, index: int) -> tuple[tuple[int, ...], float]:
        """``(pins, weight)`` of one alive configuration."""
        confs = self._store.configs(task)
        if not 0 <= index < len(confs) or not confs[index][2]:
            raise GraphStructureError(
                f"task {task} has no alive configuration {index}"
            )
        return confs[index][:2]

    # ------------------------------------------------------------------
    # mutations
    # ------------------------------------------------------------------
    def _bump(self) -> None:
        self._version += 1
        self._compiled = None
        self._digest = None

    def add_task(
        self,
        configurations: Sequence[tuple[Iterable[int], float]],
    ) -> int:
        """A task arrives with its configuration set ``S_i``; returns
        its handle.  ``configurations`` is a sequence of
        ``(processor handles, weight)`` pairs."""
        confs: list[tuple[tuple[int, ...], float, bool]] = []
        for procs, w in configurations:
            pins = tuple(sorted({int(u) for u in procs}))
            if not pins:
                raise GraphStructureError("empty processor set")
            missing = [u for u in pins if u not in self._procs]
            if missing:
                raise GraphStructureError(
                    f"unknown processor handle(s) {missing}"
                )
            w = float(w)
            if not (w > 0 and np.isfinite(w)):
                raise GraphStructureError(f"bad weight {w!r}")
            confs.append((pins, w, True))
        if not confs:
            raise GraphStructureError(
                "a task needs at least one configuration"
            )
        task = self._next_task
        self._next_task += 1
        self._store.add(task, confs)
        self._bump()
        self.journal.append(
            Mutation(
                "add_task",
                {
                    "task": task,
                    "configs": [[list(pins), w] for pins, w, _ in confs],
                },
            )
        )
        self._notify()
        return task

    def remove_task(self, task: int) -> None:
        """The task finishes (or is cancelled) and leaves the instance."""
        confs = self._store.drop(task)
        self._bump()
        self.journal.append(
            Mutation(
                "remove_task",
                {"task": task},
                undo={"configs": confs},
            )
        )
        self._notify()

    def add_processor(self) -> int:
        """A processor joins; returns its handle.  It starts with no
        incident configurations — later arrivals (or re-added tasks)
        may reference it."""
        proc = self._next_proc
        self._next_proc += 1
        self._procs.add(proc)
        self._bump()
        self.journal.append(Mutation("add_processor", {"proc": proc}))
        self._notify()
        return proc

    def remove_processor(self, proc: int) -> None:
        """The processor fails: every configuration pinned to it is
        disabled.  Raises :class:`InfeasibleError` (and changes
        nothing) if some task would be left with no alive
        configuration."""
        if proc not in self._procs:
            raise GraphStructureError(f"unknown processor handle {proc}")
        killed = self._store.kill(proc)
        self._procs.discard(proc)
        self._bump()
        self.journal.append(
            Mutation(
                "remove_processor",
                {"proc": proc},
                undo={"killed": killed},
            )
        )
        self._notify()

    def update_weight(self, task: int, config: int, weight: float) -> None:
        """The execution time of one configuration drifts."""
        _pins, old = self.config(task, config)
        weight = float(weight)
        if not (weight > 0 and np.isfinite(weight)):
            raise GraphStructureError(f"bad weight {weight!r}")
        self._store.row_w[self._store.task_lo[task] + config] = weight
        self._bump()
        self.journal.append(
            Mutation(
                "update_weight",
                {"task": task, "config": config, "weight": weight},
                undo={"old": old},
            )
        )
        self._notify()

    def apply(self, mutation: Mutation) -> Any:
        """Apply one recorded :class:`Mutation` (trace replay).

        ``add_task``/``add_processor`` records carry the handle the
        original run assigned; replay verifies the instance assigns the
        same one, so a trace is only applicable to the baseline it was
        recorded against.
        """
        p = mutation.payload
        if mutation.op == "add_task":
            # verify the handle *before* mutating: the error path must
            # leave the instance (and its subscribers) untouched
            if self._next_task != int(p["task"]):
                raise GraphStructureError(
                    f"trace expected task handle {p['task']}, "
                    f"instance would assign {self._next_task}; "
                    "wrong baseline?"
                )
            return self.add_task(
                [(pins, w) for pins, w in p["configs"]]
            )
        if mutation.op == "remove_task":
            return self.remove_task(int(p["task"]))
        if mutation.op == "add_processor":
            if self._next_proc != int(p["proc"]):
                raise GraphStructureError(
                    f"trace expected processor handle {p['proc']}, "
                    f"instance would assign {self._next_proc}; "
                    "wrong baseline?"
                )
            return self.add_processor()
        if mutation.op == "remove_processor":
            return self.remove_processor(int(p["proc"]))
        if mutation.op == "update_weight":
            return self.update_weight(
                int(p["task"]), int(p["config"]), float(p["weight"])
            )
        raise ValueError(f"unknown mutation op {mutation.op!r}")

    def replay(self, mutations: Iterable[Mutation]) -> int:
        """Apply a sequence of mutations; returns how many were applied."""
        count = 0
        for m in mutations:
            self.apply(m)
            count += 1
        return count

    # ------------------------------------------------------------------
    # snapshot / rollback
    # ------------------------------------------------------------------
    def snapshot(self) -> int:
        """An opaque marker for the current state (a journal position)."""
        return self.journal.snapshot()

    def rollback(self, marker: int) -> int:
        """Undo every mutation applied after ``marker``; returns how
        many were undone.  The journal is truncated back to the marker,
        so a solver whose cursor is past it performs a full re-sync."""
        undone = 0
        for m in self.journal.truncate(marker):
            self._undo(m)
            undone += 1
        if undone:
            self._bump()
            self._notify()
        return undone

    def _undo(self, m: Mutation) -> None:
        p = m.payload
        st = self._store
        if m.op == "add_task":
            task = int(p["task"])
            st.drop(task)
            if task == self._next_task - 1:
                self._next_task -= 1  # keep replay-determinism of handles
        elif m.op == "remove_task":
            st.add(int(p["task"]), m.undo["configs"])
        elif m.op == "add_processor":
            proc = int(p["proc"])
            self._procs.discard(proc)
            if proc == self._next_proc - 1:
                self._next_proc -= 1
        elif m.op == "remove_processor":
            self._procs.add(int(p["proc"]))
            st.revive(*m.undo["killed"])
        elif m.op == "update_weight":
            task, j = int(p["task"]), int(p["config"])
            st.row_w[st.task_lo[task] + j] = float(m.undo["old"])
        else:  # pragma: no cover - journal only holds known ops
            raise ValueError(f"cannot undo mutation op {m.op!r}")

    # ------------------------------------------------------------------
    # full-fidelity state serialisation
    # ------------------------------------------------------------------
    def to_state(self) -> dict:
        """The complete mutable state as a JSON-friendly dict.

        Unlike :meth:`to_hypergraph` this preserves *everything* replay
        depends on: task/processor handles, disabled configuration
        slots, and the handle counters.  ``from_state(to_state())`` is
        an exact clone (minus the journal), so a trace's recorded
        handles and config indices stay valid against it.
        """
        return {
            "kind": "dynamic-instance",
            "version": 1,
            "procs": sorted(self._procs),
            "next_task": self._next_task,
            "next_proc": self._next_proc,
            "tasks": {
                str(t): [[list(pins), w, alive] for pins, w, alive in confs]
                for t, confs in self._store.items()
            },
        }

    @staticmethod
    def from_state(data: dict) -> "DynamicInstance":
        """Inverse of :meth:`to_state` (journal starts empty)."""
        if data.get("kind") != "dynamic-instance":
            raise GraphStructureError(
                f"expected kind 'dynamic-instance', got {data.get('kind')!r}"
            )
        inst = DynamicInstance()
        inst._next_task = int(data["next_task"])
        inst._next_proc = int(data["next_proc"])
        inst._procs = {int(u) for u in data["procs"]}
        # handles index the store's (and a solver's) arrays: check them
        # against the counters before anything is allocated by them
        if inst._procs and not (
            min(inst._procs) >= 0 and max(inst._procs) < inst._next_proc
        ):
            raise GraphStructureError("next_proc collides with a live handle")
        tasks: list[int] = []
        rows: list[tuple[tuple[int, ...], float, bool]] = []
        counts: list[int] = []
        for t, confs in data["tasks"].items():
            t = int(t)
            if not 0 <= t < inst._next_task:
                raise GraphStructureError(
                    "next_task collides with a live handle"
                )
            parsed = [
                (tuple(sorted(int(u) for u in pins)), float(w), bool(alive))
                for pins, w, alive in confs
            ]
            if not any(alive for _, _, alive in parsed):
                raise GraphStructureError(
                    f"task {t} has no alive configuration"
                )
            for pins, w, alive in parsed:
                # a disabled configuration's processors existed once:
                # they are handles below the counter all the same
                if (alive and not set(pins) <= inst._procs) or (
                    pins and not 0 <= pins[0] <= pins[-1] < inst._next_proc
                ):
                    raise GraphStructureError(
                        f"task {t} has a configuration pinned to an "
                        "unknown processor"
                    )
                if not (w > 0 and np.isfinite(w)):
                    raise GraphStructureError(f"bad weight {w!r}")
            tasks.append(t)
            counts.append(len(parsed))
            rows.extend(parsed)
        if len(set(tasks)) != len(tasks):
            raise GraphStructureError("a task handle is listed twice")
        inst._store.extend(
            np.array(tasks, dtype=np.int64),
            np.array(counts, dtype=np.int64),
            *_row_arrays(rows),
        )
        return inst

    # ------------------------------------------------------------------
    # compilation, digest, cache integration
    # ------------------------------------------------------------------
    def compile(self) -> CompiledInstance:
        """The frozen CSR snapshot of the current state (cached by
        version).  Dense ids are handle-ordered and hyperedges grouped
        by task — a *canonical* form, so equal logical content always
        compiles to identical arrays (and hence an identical digest)
        whatever the mutation history.

        One vectorized pass over the row store: gather the live tasks'
        alive rows, remap their pins to dense processor ids through one
        lookup array, and validate the result with one
        :meth:`TaskHypergraph.from_csr`.  Every array is freshly
        gathered: :func:`~repro.engine.cache.instance_digest` freezes
        what it hashes, so none may alias the store the next mutation
        writes."""
        if self._compiled is not None and self._compiled[0] == self._version:
            return self._compiled[1]
        st = self._store
        tasks = st.live_tasks()
        rows = st.rows_of(tasks)
        rows = rows[st.row_alive[rows]]
        procs = np.array(sorted(self._procs), dtype=np.int64)
        dense_proc = np.full(self._next_proc, -1, dtype=np.int64)
        dense_proc[procs] = np.arange(procs.shape[0], dtype=np.int64)
        lens = st.row_len[rows]
        hedge_ptr = np.zeros(rows.shape[0] + 1, dtype=np.int64)
        np.cumsum(lens, out=hedge_ptr[1:])
        owner = st.row_task[rows]
        hg = TaskHypergraph.from_csr(
            tasks.shape[0],
            procs.shape[0],
            np.searchsorted(tasks, owner),
            hedge_ptr,
            dense_proc[st.pins_of(rows)],
            st.row_w[rows],
        )
        compiled = CompiledInstance(
            hypergraph=hg,
            task_handles=tuple(tasks.tolist()),
            proc_handles=tuple(procs.tolist()),
            hedge_handles=owner,
            hedge_slots=rows - st.task_lo[owner],
        )
        self._compiles += 1
        self._compiled = (self._version, compiled)
        return compiled

    def _compile_reference(self) -> CompiledInstance:
        """From-scratch canonical compilation, one task at a time (the
        test oracle :meth:`compile` is held to; nothing else calls
        it)."""
        task_handles = tuple(self.tasks())
        proc_handles = tuple(sorted(self._procs))
        proc_index = {u: d for d, u in enumerate(proc_handles)}
        hedge_task: list[int] = []
        plists: list[list[int]] = []
        weights: list[float] = []
        hedge_handles: list[int] = []
        hedge_slots: list[int] = []
        for dense, (task, confs) in enumerate(self._store.items()):
            for j, (pins, w, alive) in enumerate(confs):
                if not alive:
                    continue
                hedge_task.append(dense)
                plists.append([proc_index[u] for u in pins])
                weights.append(w)
                hedge_handles.append(task)
                hedge_slots.append(j)
        hg = TaskHypergraph.from_hyperedges(
            len(task_handles),
            len(proc_handles),
            np.asarray(hedge_task, dtype=np.int64),
            plists,
            np.asarray(weights, dtype=np.float64),
        )
        return CompiledInstance(
            hypergraph=hg,
            task_handles=task_handles,
            proc_handles=proc_handles,
            hedge_handles=np.asarray(hedge_handles, dtype=np.int64),
            hedge_slots=np.asarray(hedge_slots, dtype=np.int64),
        )

    def compiled_kernels(self):
        """The :class:`~repro.kernels.CompiledKernels` of the current
        state, through the kernel compile cache (keyed by the
        snapshot's structure digest), so every solver of this version,
        and of any version that differs only in weights, shares it."""
        from ..kernels import compile_instance

        return compile_instance(self.to_hypergraph())

    def compile_stats(self) -> dict[str, int]:
        """Compile-path counters: every :meth:`compile` that built a
        snapshot (a version read for the first time) counts once in
        ``full_builds`` and once in ``emits_full``; ``emits_weight``
        and ``emits_delta`` are always 0."""
        return {
            "full_builds": self._compiles,
            "emits_full": self._compiles,
            "emits_weight": 0,
            "emits_delta": 0,
        }

    def to_hypergraph(self) -> TaskHypergraph:
        """The current state as an immutable :class:`TaskHypergraph`."""
        return self.compile().hypergraph

    def digest(self) -> str:
        """Content digest of the current state (cached by version).

        This is :func:`repro.engine.cache.instance_digest` of the
        (canonical) compiled hypergraph, so any two spellings of the
        same logical content share
        :class:`~repro.engine.cache.ResultCache` entries, and every
        mutation re-keys precisely.
        """
        if self._digest is not None and self._digest[0] == self._version:
            return self._digest[1]
        from ..engine.cache import instance_digest

        d = instance_digest(self.to_hypergraph())
        self._digest = (self._version, d)
        return d

    def cache_key(self, options=None) -> tuple:
        """The :class:`ResultCache` key for solving the current state
        under ``options`` (a :class:`~repro.api.SolveOptions`; defaults
        to ``SolveOptions()``)."""
        from ..api.options import SolveOptions

        if options is None:
            options = SolveOptions()
        return (self.digest(), *options.cache_token())

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DynamicInstance(n_tasks={self.n_tasks}, "
            f"n_procs={self.n_procs}, version={self._version}, "
            f"journal={len(self.journal)})"
        )
