"""Incremental solving: repair the assignment, don't re-solve the world.

:class:`IncrementalSolver` maintains a semi-matching (and the full load
vector) over a mutating :class:`~repro.dynamic.DynamicInstance`.  It
subscribes to the instance, repairing the assignment in lockstep with
the delta journal —

* **arrivals** place the new task greedily (the configuration with the
  smallest resulting bottleneck, the online-greedy rule);
* **departures** free the task's load;
* **processor failures** re-place exactly the tasks whose chosen
  configuration died;
* **weight drift** adjusts the loads in place and reconsiders the one
  affected task;

and every direct fix is followed by a *bounded local search*: the
vector-improving single-task moves of
:func:`repro.algorithms.local_search`, restricted to tasks assigned
inside the repair region and capped by a move budget (``ls_moves`` per
repaired mutation).  Accepted moves strictly improve the
multiset-lexicographic load vector, so the global bottleneck never
worsens through repair.

The state is arrays: loads and a live mask by processor handle, the
chosen configuration index by task handle, the repair region as a mask
over processor handles, and for each processor the set of tasks whose
chosen configuration holds it.  Configurations are read straight from
the instance's row store, never copied: the store is a row layout of
the move scan static local search shares (:mod:`repro.kernels.moves`).
The repair scans the region's bottleneck processors in ascending
order, each one's not yet scanned tasks ascending, the first
``SCAN_PREFIX`` and then the rest, so its picks stay near the
processor it lowers.  Every move, and with it every bottleneck, is
bit-identical to the scalar rule's (the test oracle).

When one mutation displaces more than ``max(min_fallback_region,
fallback_ratio * n_tasks)`` tasks the solver gives up on locality
and re-solves from scratch through :func:`repro.api.solve` — which runs
the registry method it was configured with *and* hits the engine's
shared :class:`~repro.engine.cache.ResultCache` keyed by the instance's
content digest (so rolling back to previously-seen content is answered
from cache).  ``fallback_ratio=0`` with ``min_fallback_region=0``
degenerates to a full re-solve per mutation — bit-identical to solving
the final instance from scratch, which the equivalence tests exploit.

:meth:`compact` is the periodic global re-optimisation valve: it runs a
from-scratch solve and adopts it unless the incrementally repaired
assignment is already at least as good, guaranteeing the solver never
drifts above from-scratch quality.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace

import numpy as np

from .._util import grown
from ..core.hypergraph import TaskHypergraph
from ..core.semimatching import HyperSemiMatching
from ..kernels.compiled import segment_starts
from ..kernels.moves import SCAN_PREFIX, first_improving_move
from ..obs.trace import span
from .instance import DynamicInstance
from .journal import Mutation

__all__ = ["IncrementalSolver", "RepairStats", "incremental_solve"]


@dataclass
class RepairStats:
    """Observable counters of the work behind a solver's current state
    (a rollback onto a :meth:`IncrementalSolver.checkpoint` restores
    them)."""

    mutations: int = 0
    local_repairs: int = 0
    full_solves: int = 0
    ls_moves: int = 0
    fallbacks: int = 0

    def as_dict(self) -> dict[str, int]:
        return {
            "mutations": self.mutations,
            "local_repairs": self.local_repairs,
            "full_solves": self.full_solves,
            "ls_moves": self.ls_moves,
            "fallbacks": self.fallbacks,
        }


@dataclass
class _Cursor:
    """Where in the journal the solver has caught up to."""

    position: int = 0
    truncations: int = 0


@dataclass
class _Checkpoint:
    """The maintained state at one journal position."""

    position: int
    truncations: int
    assign: np.ndarray
    loads: np.ndarray
    stats: RepairStats


class IncrementalSolver:
    """Maintain a semi-matching across mutations of a dynamic instance.

    Parameters
    ----------
    instance:
        A :class:`DynamicInstance` (tracked in place), a
        :class:`TaskHypergraph` (seeded via
        :meth:`DynamicInstance.from_hypergraph`) or ``None`` (a fresh
        empty instance).
    method:
        Registry method used for the initial solve and every full
        re-solve (any :func:`repro.api.parse_method` string).
    fallback_ratio, min_fallback_region:
        A mutation that displaces more than ``max(min_fallback_region,
        fallback_ratio * n_tasks)`` tasks (a heavily-shared processor
        failing, say) triggers a full re-solve.  Both zero means
        "always re-solve".
    ls_moves:
        Local-search move budget per repaired mutation.
    """

    def __init__(
        self,
        instance: DynamicInstance | TaskHypergraph | None = None,
        *,
        method: str = "auto",
        fallback_ratio: float = 0.25,
        min_fallback_region: int = 4,
        ls_moves: int = 64,
    ):
        if instance is None:
            instance = DynamicInstance()
        elif isinstance(instance, TaskHypergraph):
            instance = DynamicInstance.from_hypergraph(instance)
        elif not isinstance(instance, DynamicInstance):
            raise TypeError(
                "instance must be a DynamicInstance, TaskHypergraph or "
                f"None, got {type(instance).__name__}"
            )
        # the knobs arrive from the wire too: reject bools and
        # fractional counts rather than coercing them
        if isinstance(fallback_ratio, bool) or not isinstance(
            fallback_ratio, numbers.Real
        ):
            raise TypeError(
                f"fallback_ratio must be a number, got {fallback_ratio!r}"
            )
        if not fallback_ratio >= 0:
            raise ValueError("fallback_ratio must be non-negative")
        for name, value in (
            ("min_fallback_region", min_fallback_region),
            ("ls_moves", ls_moves),
        ):
            if isinstance(value, bool) or not isinstance(
                value, numbers.Integral
            ):
                raise TypeError(f"{name} must be an integer, got {value!r}")
            if value < 0:
                raise ValueError(f"{name} must be non-negative")
        self.instance = instance
        self.method = method
        self.fallback_ratio = float(fallback_ratio)
        self.min_fallback_region = int(min_fallback_region)
        self.ls_budget = int(ls_moves)
        self.stats = RepairStats()
        # loads and liveness by processor handle, the chosen
        # configuration by task handle (-1: no such task)
        self._loads = np.zeros(0, dtype=np.float64)
        self._live = np.zeros(0, dtype=bool)
        self._assign = np.zeros(0, dtype=np.int64)
        # the tasks whose chosen configuration holds each processor
        self._on_proc: list[set[int]] = []
        self._cursor = _Cursor()
        self._checkpoint: _Checkpoint | None = None
        self._detached = False
        self._full_resolve()
        # repair must run in lockstep with the journal: fixing mutation
        # k needs the instance *as of k*, which only the moment of the
        # change can provide.  The accessors still sync() defensively.
        self.instance.subscribe(self.sync)

    def detach(self) -> None:
        """Stop tracking the instance (the solver keeps its last state:
        every accessor answers from it, nothing repairs any more)."""
        self._detached = True
        self.instance.unsubscribe(self.sync)

    # ------------------------------------------------------------------
    # accessors (all sync first)
    # ------------------------------------------------------------------
    def loads(self) -> dict[int, float]:
        """Per-processor loads, keyed by processor *handle* (a copy)."""
        self.sync()
        procs = np.flatnonzero(self._live)
        return dict(zip(procs.tolist(), self._loads[procs].tolist()))

    def bottleneck(self) -> float:
        """``max_u l(u)`` — the maintained objective value."""
        self.sync()
        live = self._loads[self._live]
        return float(live.max()) if live.size else 0.0

    def assignment(self) -> dict[int, int]:
        """Chosen configuration index per task handle (a copy)."""
        self.sync()
        tasks = np.flatnonzero(self._assign >= 0)
        return dict(zip(tasks.tolist(), self._assign[tasks].tolist()))

    def matching(self) -> HyperSemiMatching:
        """The maintained assignment as a validated
        :class:`HyperSemiMatching` over the compiled current state."""
        assignment = self.assignment()  # syncs
        compiled = self.instance.compile()
        return HyperSemiMatching(
            compiled.hypergraph,
            compiled.assignment_to_dense(assignment),
        )

    # ------------------------------------------------------------------
    # synchronisation
    # ------------------------------------------------------------------
    def checkpoint(self) -> None:
        """Remember the maintained state at the instance's current
        journal position (one checkpoint at a time; a new one replaces
        it).  If the next rollback of the instance lands exactly there,
        the solver restores this assignment and these loads bit for bit,
        and these :attr:`stats` in place, instead of re-solving; any
        other rollback discards it."""
        self.sync()
        self._checkpoint = _Checkpoint(
            self._cursor.position,
            self._cursor.truncations,
            self._assign.copy(),
            self._loads.copy(),
            replace(self.stats),
        )

    def sync(self) -> int:
        """Catch up with the instance's journal; returns how many
        mutations were processed.  A rollback (journal truncation)
        restores the :meth:`checkpoint` taken where it landed, or
        forces one full re-solve.  A detached solver never syncs."""
        if self._detached:
            return 0
        journal = self.instance.journal
        if self._cursor.truncations != journal.truncations:
            cp, self._checkpoint = self._checkpoint, None
            if (
                cp is not None
                and journal.truncations == cp.truncations + 1
                and len(journal) == cp.position
            ):
                self._restore(cp)
            else:
                self._full_resolve()
            return 0
        processed = 0
        # a fallback re-solve inside _repair fast-forwards the cursor to
        # the journal's end, which terminates this loop naturally
        while self._cursor.position < len(journal):
            m = journal[self._cursor.position]
            self._cursor.position += 1
            self.stats.mutations += 1
            self._repair(m)
            processed += 1
        return processed

    def _displacement_limit(self) -> float:
        return max(
            self.min_fallback_region,
            self.fallback_ratio * max(self.instance.n_tasks, 1),
        )

    # ------------------------------------------------------------------
    # repair
    # ------------------------------------------------------------------
    def _repair(self, m: Mutation) -> None:
        # per-mutation boundary: one span per journal record, wrapping
        # whichever tier (local repair or fallback re-solve) runs
        with span("dynamic.repair") as sp:  # repro: ignore[span-hygiene] — repair boundary, one span per journal mutation, outside the local-search inner loop
            if sp.recording:
                sp.set(op=m.op)
            limit = self._displacement_limit()
            if limit <= 0:
                self.stats.fallbacks += 1
                self._full_resolve()
                return
            repair = self._apply_direct(m)
            if repair is None:
                return  # nothing to repair (e.g. a processor joined)
            region, displaced = repair
            if displaced > limit:
                self.stats.fallbacks += 1
                self._full_resolve()
                return
            self.stats.local_repairs += 1
            self._bounded_local_search(region)

    def _apply_direct(
        self, m: Mutation
    ) -> tuple[np.ndarray, int] | None:
        """Apply the mutation's direct consequences to the assignment.

        Returns ``(repair region, displaced task count)`` — the seed
        processors for the bounded local search, as a mask over
        processor handles, and the damage measure the fallback
        thresholds on — or ``None`` when no rebalancing can help."""
        p = m.payload
        if m.op == "add_processor":
            proc = int(p["proc"])
            self._loads = grown(self._loads, proc + 1, fill=0.0)
            self._live = grown(self._live, proc + 1, fill=False)
            self._loads[proc] = 0.0
            self._live[proc] = True
            self._on_proc += [
                set() for _ in range(proc + 1 - len(self._on_proc))
            ]
            # an empty processor cannot worsen anything, but tasks may
            # profitably migrate onto it once it gains configurations —
            # which only happens through later mutations
            return None

        region = np.zeros(self._loads.shape[0], dtype=bool)
        if m.op == "add_task":
            task = int(p["task"])
            self._assign = grown(self._assign, task + 1, fill=-1)
            region[self._place_greedy(task)] = True
            return region, 1

        if m.op == "remove_task":
            task = int(p["task"])
            pins, w, _alive = m.undo["configs"][int(self._assign[task])]
            pins = np.array(pins, dtype=np.int64)
            self._assign[task] = -1
            self._unload(task, pins, w)
            region[pins] = True
            return region, 0

        if m.op == "remove_processor":
            proc = int(p["proc"])
            displaced = 0
            on_proc, self._on_proc[proc] = self._on_proc[proc], set()
            for task in sorted(on_proc):
                pins, w = self._config(task, int(self._assign[task]))
                self._unload(task, pins, w)
                region[pins] = True
                region[self._place_greedy(task)] = True
                displaced += 1
            self._live[proc] = False
            region[proc] = False
            return (region, displaced) if region.any() else None

        if m.op == "update_weight":
            task, cfg = int(p["task"]), int(p["config"])
            new_w, old_w = float(p["weight"]), float(m.undo["old"])
            pins, _ = self._config(task, cfg)
            region[pins] = True
            current = int(self._assign[task])
            if current == cfg:
                self._loads[pins] += new_w - old_w
                return region, 1
            # a non-chosen configuration changed price: only a decrease
            # can make the affected task want to move
            if new_w < old_w:
                region[self._config(task, current)[0]] = True
                return region, 1
            return None

        raise ValueError(f"unknown mutation op {m.op!r}")

    # -- primitive load/assignment updates ------------------------------
    def _config(self, task: int, cfg: int) -> tuple[np.ndarray, float]:
        """``(pins, weight)`` of configuration ``cfg`` of ``task``, read
        from the instance's row store (alive or not)."""
        st = self.instance._store
        r = st.task_lo.item(task) + cfg
        return st.row_pins(r), st.row_w.item(r)

    def _load(self, task: int, pins: np.ndarray, w: float) -> None:
        self._loads[pins] += w
        on_proc = self._on_proc
        for u in pins.tolist():
            on_proc[u].add(task)

    def _unload(self, task: int, pins: np.ndarray, w: float) -> None:
        self._loads[pins] -= w
        on_proc = self._on_proc
        for u in pins.tolist():
            on_proc[u].discard(task)

    def _place_greedy(self, task: int) -> np.ndarray:
        """Assign ``task`` the configuration with the smallest resulting
        bottleneck (ties: least added work, then config order) and
        return its pins."""
        st = self.instance._store
        lo, n = st.extent(task)
        rows = np.arange(lo, lo + n)
        rows = rows[st.row_alive[rows]]
        lens = st.row_len[rows]
        at = segment_starts(lens)
        pins = st.pins_of(rows)
        w = st.row_w[rows]
        peak = np.maximum.reduceat(self._loads[pins], at) + w
        # lexsort is stable: the first configuration of the least key
        best = int(np.lexsort((w * lens, peak))[0])
        self._assign[task] = rows[best] - lo
        best_pins = pins[at[best] : at[best] + lens[best]]
        self._load(task, best_pins, w[best])
        return best_pins

    # -- bounded local search -------------------------------------------
    def _first_improving_move(
        self, hot: np.ndarray
    ) -> tuple[int, int] | None:
        """The first vector-improving move ``(task, config)`` in the
        repair's scan order: the bottleneck processors ``hot``
        (ascending) in order, each one's tasks not yet scanned
        ascending, a task's configurations in index order.

        A processor's tasks are scanned in two parts, the first
        ``SCAN_PREFIX`` of them and then the rest: the scan order and
        the first-improving rule are those of one scan over all of
        them, so the pick is the same, and most picks sit in the first
        part."""
        # the scan reads the row store itself as its row layout
        state = self.instance._store, self._loads, self._assign
        on_proc = self._on_proc
        seen: set[int] = set()
        for u in hot.tolist():
            tasks = on_proc[u] - seen
            if tasks:
                seen |= tasks
                order = np.fromiter(tasks, np.int64, len(tasks))
                order.sort()
                move = first_improving_move(*state, order[:SCAN_PREFIX])
                if move is None and order.shape[0] > SCAN_PREFIX:
                    move = first_improving_move(*state, order[SCAN_PREFIX:])
                if move is not None:
                    return move
        return None

    def _bounded_local_search(self, region: np.ndarray) -> None:
        """Vector-improving single-task moves off the region's
        bottleneck processors (the restriction
        :func:`repro.algorithms.local_search` uses globally).

        Accepted moves pull the region outward (their new pins join
        it); the move budget — not the region size — bounds the work,
        so a repair ripples as far as it is productive and no further.
        """
        for _ in range(self.ls_budget):
            procs = (region & self._live).nonzero()[0]
            if not procs.size:
                break
            # only tasks on a region-bottleneck processor can host the
            # move that lowers it
            loads = self._loads[procs]
            mv = self._first_improving_move(
                procs[loads >= loads.max() - 1e-12]
            )
            if mv is None:
                break
            task, cfg = mv
            self._unload(task, *self._config(task, self._assign.item(task)))
            self._assign[task] = cfg
            pins, w = self._config(task, cfg)
            self._load(task, pins, w)
            region[pins] = True
            self.stats.ls_moves += 1

    # ------------------------------------------------------------------
    # full solves
    # ------------------------------------------------------------------
    def _adopt(
        self,
        tasks: np.ndarray,
        cfgs: np.ndarray,
        loads: np.ndarray | None = None,
    ) -> None:
        """Replace the state by the assignment ``tasks[i] ->
        cfgs[i]`` (tasks ascending) of the current instance, with the
        given per-processor ``loads`` or, by default, their sums: one
        ``np.add.at`` in task order sums each processor's loads in the
        order of one ``_load`` per task."""
        inst = self.instance
        st = inst._store
        n_procs = inst._next_proc
        self._live = np.zeros(n_procs, dtype=bool)
        self._live[inst.procs()] = True
        self._assign = np.full(inst._next_task, -1, dtype=np.int64)
        self._assign[tasks] = cfgs
        rows = st.task_lo[tasks] + cfgs
        lens = st.row_len[rows]
        pins = st.pins_of(rows)
        if loads is None:
            loads = np.zeros(n_procs, dtype=np.float64)
            np.add.at(loads, pins, st.row_w[rows].repeat(lens))
        self._loads = loads
        # each processor's tasks, grouped by a stable sort of the pins
        owners = tasks.repeat(lens)[np.argsort(pins, kind="stable")]
        ends = np.cumsum(np.bincount(pins, minlength=n_procs)).tolist()
        owners = owners.tolist()
        self._on_proc = [
            set(owners[lo:hi]) for lo, hi in zip([0] + ends, ends)
        ]

    def _restore(self, cp: _Checkpoint) -> None:
        """Adopt a checkpoint's state; the instance is back at its
        position, so only the per-processor task sets are rebuilt (the
        saved arrays may carry spare capacity past the handles)."""
        tasks = np.flatnonzero(cp.assign >= 0)
        self._adopt(
            tasks, cp.assign[tasks], cp.loads[: self.instance._next_proc]
        )
        self._cursor = _Cursor(
            position=cp.position,
            truncations=self.instance.journal.truncations,
        )
        # in place: callers hold on to ``solver.stats``
        vars(self.stats).update(vars(cp.stats))

    def _full_resolve(self) -> None:
        """Drop the incremental state and solve the current instance
        from scratch with the configured registry method (through the
        default engine, so the content digest keys the shared cache)."""
        inst = self.instance
        self.stats.full_solves += 1
        tasks = cfgs = np.zeros(0, dtype=np.int64)
        if inst.n_tasks:
            from ..api import solve as api_solve

            compiled = inst.compile()
            result = api_solve(compiled.hypergraph, method=self.method)
            hedges = result.matching.hedge_of_task
            tasks = compiled.hedge_handles[hedges]
            cfgs = compiled.hedge_slots[hedges]
        self._adopt(tasks, cfgs)
        self._cursor = _Cursor(
            position=inst.journal.snapshot(),
            truncations=inst.journal.truncations,
        )

    def compact(self) -> float:
        """Periodic global re-optimisation: solve from scratch and keep
        the better of (maintained, fresh).  Returns the resulting
        bottleneck — by construction never above what a from-scratch
        registry solve of the current content yields."""
        current = self.bottleneck()  # syncs
        inst = self.instance
        if not inst.n_tasks:
            return current
        from ..api import solve as api_solve

        # compaction boundary: runs on the owner's cadence (periodic),
        # never inside a repair loop
        with span("dynamic.compact"):  # repro: ignore[span-hygiene] — periodic global re-optimisation boundary, one span per compaction, not a hot loop
            compiled = inst.compile()
            result = api_solve(compiled.hypergraph, method=self.method)
        if result.makespan < current:
            hedges = result.matching.hedge_of_task
            self._adopt(
                compiled.hedge_handles[hedges], compiled.hedge_slots[hedges]
            )
            self.stats.full_solves += 1
            return result.makespan
        return current


def incremental_solve(hg: TaskHypergraph) -> HyperSemiMatching:
    """From-scratch entry point of the incremental engine (the
    registry's ``incremental`` solver): seed a dynamic overlay and
    return its maintained matching.

    On a static instance this equals the engine's ``auto`` pick; its
    point is reachability — ``SolveOptions(method="incremental")``,
    portfolio entries and the CLI all address the dynamic subsystem's
    pipeline through the one registry.
    """
    solver = IncrementalSolver(hg)
    assignment = solver.assignment()
    # the maintained assignment speaks (task handle, config index);
    # translate to *this* hypergraph's hyperedge ids — the dynamic
    # overlay's canonical compilation may order hyperedges differently,
    # and the engine caches/validates against the caller's instance.
    # Task i has handle i and its config j is its j-th hyperedge.
    cfgs = np.fromiter(
        (assignment[i] for i in range(hg.n_tasks)),
        dtype=np.int64,
        count=hg.n_tasks,
    )
    return HyperSemiMatching(hg, hg.task_hedges[hg.task_ptr[:-1] + cfgs])
