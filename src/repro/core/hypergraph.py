"""Bipartite task-processor hypergraphs (the MULTIPROC instance model).

A :class:`TaskHypergraph` models an instance of the paper's MULTIPROC
problem (Section II-B).  Each hyperedge ``h`` contains exactly one task
vertex and a non-empty set of processor vertices; selecting ``h`` schedules
its task on *all* processors of ``h`` simultaneously, adding the hyperedge
weight ``w_h`` to the load of each of them.

Storage follows the paper's own observation (Section V-A2) that such a
hypergraph is conveniently represented by two bipartite relations:

* task -> hyperedges (each hyperedge belongs to exactly one task), and
* hyperedge -> processors (the ``h ∩ V2`` pin lists),

both kept as flat CSR arrays.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

import numpy as np

from .bipartite import BipartiteGraph
from .errors import GraphStructureError
from .._util import check_1d_int, csr_group

__all__ = ["TaskHypergraph"]


def _check_distinct_pins(
    ptr: np.ndarray, pins: np.ndarray, n_procs: int
) -> None:
    """Reject a hyperedge that lists one processor twice.

    Pins that strictly increase within every hyperedge are distinct, and
    that O(pins) test settles the common (sorted) case; only otherwise
    are the ``(owner, proc)`` pairs sorted to find the duplicate.
    """
    if pins.shape[0] < 2:
        return
    rising = pins[1:] > pins[:-1]
    # the comparison across a hyperedge boundary does not count
    rising[ptr[1:-1] - 1] = True
    if rising.all():
        return
    keys = _pin_owner(ptr) * n_procs + pins
    keys.sort()
    dup = keys[1:] == keys[:-1]
    if np.any(dup):
        bad = int(keys[1:][dup][0] // n_procs)
        raise GraphStructureError(
            f"hyperedge {bad} contains duplicate processors"
        )


def _pin_owner(ptr: np.ndarray) -> np.ndarray:
    """The hyperedge of every pin of the CSR pointer ``ptr``."""
    return np.repeat(
        np.arange(ptr.shape[0] - 1, dtype=np.int64), np.diff(ptr)
    )


@dataclass(frozen=True)
class TaskHypergraph:
    """Immutable bipartite hypergraph for MULTIPROC instances.

    Attributes
    ----------
    n_tasks, n_procs, n_hedges:
        ``|V1|``, ``|V2|`` and ``|N|``.
    hedge_task:
        For each hyperedge, the id of its unique task vertex.
    hedge_ptr, hedge_procs:
        CSR pin lists: processors of hyperedge ``h`` are
        ``hedge_procs[hedge_ptr[h]:hedge_ptr[h+1]]``.
    hedge_w:
        Weight ``w_h`` of each hyperedge (execution time on every processor
        of the configuration).  All ones for MULTIPROC-UNIT.
    task_ptr, task_hedges:
        CSR index from tasks to their incident hyperedges (the
        configurations ``S_i``).
    proc_ptr, proc_hedges:
        CSR index from processors to incident hyperedges.  The greedy
        heuristics never read it, so it is not a constructor field: it
        is built on first access and published atomically as one
        ``(proc_ptr, proc_hedges)`` memo, never one array without the
        other.  The memo is not a dataclass field either, so
        :func:`dataclasses.replace` cannot carry it onto changed pins.
    """

    n_tasks: int
    n_procs: int
    n_hedges: int
    hedge_task: np.ndarray
    hedge_ptr: np.ndarray
    hedge_procs: np.ndarray
    hedge_w: np.ndarray
    task_ptr: np.ndarray
    task_hedges: np.ndarray

    # ------------------------------------------------------------------
    # construction
    # ------------------------------------------------------------------
    @staticmethod
    def from_hyperedges(
        n_tasks: int,
        n_procs: int,
        hedge_task: np.ndarray | Sequence[int],
        proc_lists: Iterable[Iterable[int]],
        weights: np.ndarray | Sequence[float] | None = None,
    ) -> "TaskHypergraph":
        """Build a hypergraph from one (task, processor-set) pair per edge.

        ``hedge_task[k]`` is the task of hyperedge ``k``; ``proc_lists[k]``
        its processor set (must be non-empty and duplicate-free);
        ``weights[k]`` its weight (defaults to 1, i.e. MULTIPROC-UNIT).
        """
        ht = check_1d_int(hedge_task, "hedge_task")
        plists = [np.asarray(list(ps), dtype=np.int64) for ps in proc_lists]
        if len(plists) != ht.shape[0]:
            raise GraphStructureError(
                f"got {ht.shape[0]} hyperedge tasks but {len(plists)} "
                "processor lists"
            )
        sizes = np.array([len(ps) for ps in plists], dtype=np.int64)
        hedge_ptr = np.zeros(len(plists) + 1, dtype=np.int64)
        np.cumsum(sizes, out=hedge_ptr[1:])
        hedge_procs = (
            np.concatenate(plists) if plists else np.empty(0, dtype=np.int64)
        )
        return TaskHypergraph.from_csr(
            n_tasks, n_procs, ht, hedge_ptr, hedge_procs, weights
        )

    @staticmethod
    def from_csr(
        n_tasks: int,
        n_procs: int,
        hedge_task: np.ndarray | Sequence[int],
        hedge_ptr: np.ndarray | Sequence[int],
        hedge_procs: np.ndarray | Sequence[int],
        weights: np.ndarray | Sequence[float] | None = None,
    ) -> "TaskHypergraph":
        """Build a hypergraph from its CSR pin lists, validating them.

        The processors of hyperedge ``h`` are
        ``hedge_procs[hedge_ptr[h]:hedge_ptr[h + 1]]``; every other
        argument is as in :meth:`from_hyperedges`.  Every check is a
        vectorized pass, so this is the constructor for instances that
        arrive as flat arrays (the serialize v2 dict, the wire's frame
        attachments).
        """
        n_tasks, n_procs = int(n_tasks), int(n_procs)
        if n_tasks < 0 or n_procs < 0:
            raise GraphStructureError("vertex counts must be non-negative")
        ht = check_1d_int(hedge_task, "hedge_task")
        ptr = check_1d_int(hedge_ptr, "hedge_ptr")
        pins = check_1d_int(hedge_procs, "hedge_procs")
        nh = ht.shape[0]
        if ptr.shape != (nh + 1,):
            raise GraphStructureError(
                f"hedge_ptr must have one entry per hyperedge plus one "
                f"({nh + 1}), got shape {ptr.shape}"
            )
        if ptr[0] != 0 or ptr[-1] != pins.shape[0]:
            raise GraphStructureError("hedge_ptr is not a valid CSR pointer")
        if weights is None:
            w = np.ones(nh, dtype=np.float64)
        else:
            w = np.ascontiguousarray(weights, dtype=np.float64)
            if w.shape != (nh,):
                raise GraphStructureError(
                    f"weights must have one entry per hyperedge ({nh}), "
                    f"got shape {w.shape}"
                )
            if nh and (not np.all(np.isfinite(w)) or np.any(w <= 0)):
                raise GraphStructureError(
                    "hyperedge weights must be finite and positive"
                )
        if nh and (ht.min() < 0 or ht.max() >= n_tasks):
            raise GraphStructureError("hyperedge task id out of range")
        sizes = np.diff(ptr)
        if nh and sizes.min() <= 0:
            if sizes.min() < 0:
                raise GraphStructureError(
                    "hedge_ptr is not a valid CSR pointer"
                )
            bad = int(np.flatnonzero(sizes == 0)[0])
            raise GraphStructureError(
                f"hyperedge {bad} has an empty processor set"
            )
        if pins.size and (pins.min() < 0 or pins.max() >= n_procs):
            raise GraphStructureError("hyperedge processor id out of range")
        _check_distinct_pins(ptr, pins, n_procs)

        task_ptr, task_hedges = csr_group(ht, n_tasks)
        return TaskHypergraph(
            n_tasks=n_tasks,
            n_procs=n_procs,
            n_hedges=nh,
            hedge_task=ht,
            hedge_ptr=ptr,
            hedge_procs=pins,
            hedge_w=w,
            task_ptr=task_ptr,
            task_hedges=task_hedges,
        )

    @staticmethod
    def from_configurations(
        configurations: Iterable[Iterable[Iterable[int]]],
        n_procs: int | None = None,
        weights: Iterable[Iterable[float]] | None = None,
    ) -> "TaskHypergraph":
        """Build a hypergraph from per-task configuration collections.

        ``configurations[i]`` is the paper's ``S_i``: a collection of
        processor sets task ``i`` may use.  ``weights[i][j]`` is the weight
        of task ``i``'s ``j``-th configuration.
        """
        confs = [[list(c) for c in ci] for ci in configurations]
        hedge_task = np.concatenate(
            [np.full(len(ci), i, dtype=np.int64) for i, ci in enumerate(confs)]
            or [np.empty(0, dtype=np.int64)]
        )
        plists = [c for ci in confs for c in ci]
        if n_procs is None:
            n_procs = 1 + max((max(c) for c in plists if c), default=-1)
        w = None
        if weights is not None:
            wl = [list(wi) for wi in weights]
            if len(wl) != len(confs) or any(
                len(a) != len(b) for a, b in zip(wl, confs)
            ):
                raise GraphStructureError(
                    "weights must mirror the shape of configurations"
                )
            w = np.asarray([x for wi in wl for x in wi], dtype=np.float64)
        return TaskHypergraph.from_hyperedges(
            len(confs), n_procs, hedge_task, plists, w
        )

    # ------------------------------------------------------------------
    # properties and views
    # ------------------------------------------------------------------
    @property
    def proc_ptr(self) -> np.ndarray:
        """CSR pointer of the processor index (built on first access)."""
        return self._proc_index()[0]

    @property
    def proc_hedges(self) -> np.ndarray:
        """Hyperedges of processor ``u`` are
        ``proc_hedges[proc_ptr[u]:proc_ptr[u + 1]]``, ascending."""
        return self._proc_index()[1]

    def _proc_index(self) -> tuple[np.ndarray, np.ndarray]:
        index = self.__dict__.get("_proc_index_memo")
        if index is None:
            proc_ptr, order = csr_group(self.hedge_procs, self.n_procs)
            index = self._publish_proc_index(
                proc_ptr, _pin_owner(self.hedge_ptr)[order]
            )
        return index

    def _publish_proc_index(
        self, proc_ptr: np.ndarray, proc_hedges: np.ndarray
    ) -> tuple[np.ndarray, np.ndarray]:
        """Publish the processor index as one memo and return the memo
        that stands.  Like the digest memo it is set on the frozen
        instance behind its back; ``setdefault`` is one atomic step, so
        two threads racing on the first access both read the index the
        first of them published."""
        return self.__dict__.setdefault(
            "_proc_index_memo", (proc_ptr, proc_hedges)
        )

    @property
    def total_pins(self) -> int:
        """Total pin count ``Σ_h |h ∩ V2|`` (reported in paper Table I)."""
        return int(self.hedge_procs.shape[0])

    @property
    def is_unit(self) -> bool:
        """True when all hyperedge weights are 1 (MULTIPROC-UNIT)."""
        return bool(np.all(self.hedge_w == 1.0))

    def hedge_sizes(self) -> np.ndarray:
        """``s_h = |h ∩ V2|`` for every hyperedge."""
        return np.diff(self.hedge_ptr)

    def task_degrees(self) -> np.ndarray:
        """``d_v``: the number of configurations of every task."""
        return np.diff(self.task_ptr)

    def hedge_proc_set(self, h: int) -> np.ndarray:
        """Processor ids of hyperedge ``h`` (a view, do not mutate)."""
        return self.hedge_procs[self.hedge_ptr[h] : self.hedge_ptr[h + 1]]

    def task_hedge_ids(self, i: int) -> np.ndarray:
        """Hyperedge ids incident to task ``i`` (a view, do not mutate)."""
        return self.task_hedges[self.task_ptr[i] : self.task_ptr[i + 1]]

    def validate(self, require_total: bool = True) -> None:
        """Check structural invariants; raise :class:`GraphStructureError`."""
        if self.hedge_task.shape != (self.n_hedges,):
            raise GraphStructureError("hedge_task has wrong length")
        if self.hedge_ptr.shape != (self.n_hedges + 1,):
            raise GraphStructureError("hedge_ptr has wrong length")
        if self.hedge_ptr[0] != 0 or self.hedge_ptr[-1] != self.total_pins:
            raise GraphStructureError("hedge_ptr is not a valid CSR pointer")
        if np.any(np.diff(self.hedge_ptr) <= 0):
            raise GraphStructureError("every hyperedge needs a non-empty pin list")
        if self.n_hedges:
            if self.hedge_task.min() < 0 or self.hedge_task.max() >= self.n_tasks:
                raise GraphStructureError("hyperedge task id out of range")
            if (
                self.hedge_procs.min() < 0
                or self.hedge_procs.max() >= self.n_procs
            ):
                raise GraphStructureError("hyperedge processor id out of range")
            if np.any(self.hedge_w <= 0):
                raise GraphStructureError("hyperedge weights must be positive")
        if require_total and np.any(np.diff(self.task_ptr) == 0):
            bad = int(np.flatnonzero(np.diff(self.task_ptr) == 0)[0])
            raise GraphStructureError(
                f"task {bad} has no configuration; no semi-matching exists"
            )

    # ------------------------------------------------------------------
    # conversions
    # ------------------------------------------------------------------
    def with_weights(self, weights: np.ndarray) -> "TaskHypergraph":
        """Return a copy with new hyperedge weights."""
        w = np.ascontiguousarray(weights, dtype=np.float64)
        if w.shape != (self.n_hedges,):
            raise GraphStructureError(
                f"expected {self.n_hedges} weights, got shape {w.shape}"
            )
        if self.n_hedges and (not np.all(np.isfinite(w)) or np.any(w <= 0)):
            raise GraphStructureError("hyperedge weights must be finite and positive")
        out = TaskHypergraph(
            n_tasks=self.n_tasks,
            n_procs=self.n_procs,
            n_hedges=self.n_hedges,
            hedge_task=self.hedge_task,
            hedge_ptr=self.hedge_ptr,
            hedge_procs=self.hedge_procs,
            hedge_w=w,
            task_ptr=self.task_ptr,
            task_hedges=self.task_hedges,
        )
        # same structure, so an index already built still holds
        index = self.__dict__.get("_proc_index_memo")
        if index is not None:
            out._publish_proc_index(*index)
        return out

    def unit(self) -> "TaskHypergraph":
        """Return the unweighted (unit-weight) version of this hypergraph."""
        return self.with_weights(np.ones(self.n_hedges))

    def is_bipartite_graph(self) -> bool:
        """True when every configuration uses a single processor, i.e. the
        instance is really a SINGLEPROC instance."""
        return bool(np.all(self.hedge_sizes() == 1))

    def to_bipartite(self) -> BipartiteGraph:
        """Convert a singleton-configuration hypergraph to a bipartite graph.

        Raises :class:`GraphStructureError` if some hyperedge contains more
        than one processor.
        """
        if not self.is_bipartite_graph():
            raise GraphStructureError(
                "hypergraph has multi-processor configurations; "
                "cannot convert to a bipartite SINGLEPROC instance"
            )
        return BipartiteGraph.from_edges(
            self.n_tasks,
            self.n_procs,
            self.hedge_task,
            self.hedge_procs,
            self.hedge_w,
        )

    @staticmethod
    def from_bipartite(graph: BipartiteGraph) -> "TaskHypergraph":
        """Lift a SINGLEPROC instance into the hypergraph model (each edge
        becomes a singleton-configuration hyperedge)."""
        owner = np.repeat(
            np.arange(graph.n_tasks, dtype=np.int64), np.diff(graph.task_ptr)
        )
        return TaskHypergraph.from_hyperedges(
            graph.n_tasks,
            graph.n_procs,
            owner,
            [[int(u)] for u in graph.task_adj],
            graph.weights,
        )

    def to_networkx(self):
        """Star-expansion as a :class:`networkx.Graph`.

        Three node families: tasks ``("T", i)``, hyperedges ``("H", h)``
        (with ``weight`` attributes) and processors ``("P", u)``; each
        hyperedge node connects its task to its pins.  This is the
        standard bipartite expansion of a hypergraph, convenient for
        visualisation and for reusing networkx algorithms.
        """
        import networkx as nx

        g = nx.Graph()
        g.add_nodes_from((("T", int(i)) for i in range(self.n_tasks)),
                         kind="task")
        g.add_nodes_from((("P", int(u)) for u in range(self.n_procs)),
                         kind="processor")
        for h in range(self.n_hedges):
            node = ("H", int(h))
            g.add_node(node, kind="hyperedge", weight=float(self.hedge_w[h]))
            g.add_edge(("T", int(self.hedge_task[h])), node)
            for u in self.hedge_proc_set(h):
                g.add_edge(node, ("P", int(u)))
        return g

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        kind = "unit" if self.is_unit else "weighted"
        return (
            f"TaskHypergraph(n_tasks={self.n_tasks}, n_procs={self.n_procs}, "
            f"n_hedges={self.n_hedges}, pins={self.total_pins}, {kind})"
        )
