"""Immutable task-grouped CSR compilation of a :class:`TaskHypergraph`.

:class:`TaskHypergraph` already stores hyperedges in CSR form, but the
hot loops need a *task-grouped* arrangement: task ``v``'s candidate
configurations laid out contiguously, so that its pins are one stretch
of ``g_pins``.  With those arrays one greedy step is a handful of
vectorized calls (a gather, a ``reduceat``, an ``argmin``/``lexsort``,
a scatter) instead of a Python loop over candidates.

Grouped position ``k`` (``0 <= k < n_hedges``) is the ``k``-th entry of
``task_hedges`` — i.e. candidates of task ``v`` occupy grouped
positions ``task_ptr[v]:task_ptr[v+1]``, in the same order
:meth:`TaskHypergraph.task_hedge_ids` yields them, which is what makes
kernel tie-breaking match the Python loops exactly.

A compilation holds the structure only: the grouped arrays and the
structure-only setup the kernels build on first use (the visit order,
the pointer lists, the reduceat offsets, the ranking cells and repeat
flags, and local search's pin shifts).  Nothing in it depends on
the weights; a kernel gathers them from the instance it solves
(``hg.hedge_w[ck.g_hedge]``, one gather per solve).

Compilation is pure array work (no per-pin Python loop).  The cache is
keyed by the *structure digest*
(:func:`~repro.engine.cache.structure_digest`: the vertex counts and
the pin lists, no weights), so every weight variant of one structure
shares one compilation, bound per instance by :func:`compile_instance`.
What depends on the weights is keyed by the *instance digest*
(:func:`~repro.engine.cache.instance_digest`) elsewhere: the result
cache, single-flight and pool routing.  The cache keeps a compilation
only once it is reused: one structure solved by several heuristics,
under several weights or again later is compiled once, and a stream of
one-shot structures does not pile up compilations nobody reads again.
"""

from __future__ import annotations

import sys
from dataclasses import dataclass, field, replace
from typing import Any, Callable

import numpy as np

from .._util import CACHE_BUDGET, SegmentedLRU, stable_argsort
from ..core.hypergraph import TaskHypergraph
from ..obs.trace import span

__all__ = [
    "CompiledKernels",
    "cached_structure",
    "compile_instance",
    "evict_compiled",
    "clear_compile_cache",
    "compile_cache_stats",
    "flat_ranges",
    "segment_starts",
    "union_shifts",
]


def segment_starts(lengths: np.ndarray) -> np.ndarray:
    """Where each of consecutive segments of ``lengths`` starts."""
    offsets = np.zeros(lengths.shape[0], dtype=np.int64)
    np.cumsum(lengths[:-1], out=offsets[1:])
    return offsets


def flat_ranges(starts: np.ndarray, lengths: np.ndarray) -> np.ndarray:
    """``concatenate([arange(s, s+l) for s, l in zip(starts, lengths)])``
    without a Python loop."""
    total = int(lengths.sum())
    if total == 0:
        return np.empty(0, dtype=np.int64)
    return np.repeat(starts - segment_starts(lengths), lengths) + np.arange(
        total, dtype=np.int64
    )


def union_shifts(
    counts: np.ndarray, lens: np.ndarray, flat: np.ndarray
) -> np.ndarray:
    """Each pin's *union shift*, for tasks laid out as ``counts[i]``
    rows each, with pin counts ``lens`` and non-negative pins ``flat``
    sorted within each row (a task's rows one stretch): when a task's
    pins start at ``s``, ``flat[i]`` sits at position ``i - s +
    shift[i]`` of the task's *pin-union*, its sorted distinct pins.
    Two rows of a task share a processor exactly when they hold pins of
    equal union position.

    One stable argsort of ``task * width + pin``: the keys come in long
    ascending runs (the rows), which the sort merges cheaply."""
    total = flat.shape[0]
    if not total:
        return np.empty(0, dtype=np.int64)
    n = counts.shape[0]
    owner = np.repeat(np.repeat(np.arange(n), counts), lens)
    width = int(flat.max()) + 1
    if n * width >= 2**63:
        # pin ids too sparse for one int64 key: key on their ranks
        flat = np.unique(flat, return_inverse=True)[1]
        width = int(flat.max()) + 1
    keys = owner * width + flat
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.empty(total, dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    # a pin's rank among the distinct (task, pin) keys, less the union
    # sizes of the tasks before it, is its union position
    rank = np.empty(total, dtype=np.int64)
    rank[order] = np.cumsum(new) - 1
    union_at = segment_starts(np.bincount(keys[new] // width, minlength=n))
    pins_at = segment_starts(np.bincount(owner, minlength=n))
    # position - (the pin's place among its task's pins)
    return rank - np.arange(total) + (pins_at - union_at)[owner]


class _structural:
    """A structure-only setup value of a :class:`CompiledKernels`.

    Built from the compilation on first read and memoized in the memo
    that every compilation of the structure shares (the cached entry
    and each instance bound to it), so one weight variant's solve
    reuses what another's built.  First writer wins: ``setdefault`` is
    one atomic step, so a reader never sees a half-published value.
    The thread that publishes re-prices the cached entry, which was
    priced without it."""

    def __init__(self, build: Callable[["CompiledKernels"], Any]):
        self._build = build
        self.__doc__ = build.__doc__

    def __set_name__(self, owner: type, name: str) -> None:
        self._name = name

    def __get__(self, ck: "CompiledKernels | None", owner: type | None = None):
        if ck is None:
            return self
        value = ck._memo.get(self._name)
        if value is None:
            built = self._build(ck)
            value = ck._memo.setdefault(self._name, built)
            if value is built:
                entry = ck if ck._source is None else ck._source
                _CACHE.reprice(ck.digest, entry)
        return value


@dataclass(frozen=True)
class CompiledKernels:
    """Task-grouped kernel arrays for one :class:`TaskHypergraph`
    structure, bound to one instance of it.

    Everything here depends on the structure alone (the vertex counts
    and the pin lists), never on the weights, so one compilation
    serves every weight variant of a structure: the compile cache keys
    it by structure digest, and :func:`compile_instance` binds the
    cached compilation to the instance asked for.  Kernels gather the
    weights from that instance (``hg.hedge_w[ck.g_hedge]``).

    Attributes
    ----------
    hypergraph:
        The instance this compilation is bound to (its CSR arrays are
        shared, not copied).  The cached entry is bound to the instance
        it was built from.
    digest:
        The structure digest
        (:func:`~repro.engine.cache.structure_digest`) — the
        compile-cache key.
    g_hedge:
        Hyperedge id at each grouped position (``== task_hedges``).
    g_size, g_ptr, g_pins:
        Pin count, pin CSR pointer and concatenated pin lists in
        grouped order: the pins of grouped candidate ``k`` are
        ``g_pins[g_ptr[k]:g_ptr[k+1]]``.
    hedge_gpos:
        Inverse of ``g_hedge``: the grouped position of each hyperedge.

    The structure-only setup the kernels read is built on first read
    and shared by every binding of the structure (see
    :class:`_structural`), and the compile cache prices it once built:

    * the greedy visit order and the pointer lists (``visit_order``,
      ``task_ptr_list``, ``g_ptr_list``): Python lists, because a step
      indexes them with scalars;
    * SGH/EGH's reduceat offsets (``reduceat_offsets``);
    * VGH/EVG's ranking cells and repeat flags (``pin_cells``,
      ``task_repeats``): they rank a task's candidates over the task's
      own pins, so they need no pin-union;
    * local search's pin shifts (``pin_shift``): each pin's shift to
      its position in its task's pin-union, read by the move scan of
      :mod:`repro.kernels.moves`.

    Every array here is a gathered copy, never a view of the source
    instance's arrays, so a weight variant's solve reads nothing a
    shared-memory segment behind the source instance could unmap.
    """

    hypergraph: TaskHypergraph
    digest: str
    g_hedge: np.ndarray
    g_size: np.ndarray
    g_ptr: np.ndarray
    g_pins: np.ndarray
    hedge_gpos: np.ndarray
    #: the structural memo, one dict shared by every binding
    _memo: dict = field(default_factory=dict, repr=False, compare=False)
    #: the cached entry a binding was made from (None on the entry)
    _source: "CompiledKernels | None" = field(
        default=None, repr=False, compare=False
    )

    def bind(self, hg: TaskHypergraph) -> "CompiledKernels":
        """This compilation bound to ``hg``, an instance of the same
        structure: the grouped arrays and the memo are shared, only
        ``hypergraph`` differs (``self`` when ``hg`` is already its
        instance)."""
        if hg is self.hypergraph:
            return self
        source = self if self._source is None else self._source
        return replace(self, hypergraph=hg, _source=source)

    # -- structure-only setup, built on first read -----------------------
    @_structural
    def pin_shift(self) -> np.ndarray:
        """Each grouped pin's shift to its task's pin-union position
        (see :func:`union_shifts`), read only by local search's move
        scan (:mod:`repro.kernels.moves`)."""
        return union_shifts(
            np.diff(self.hypergraph.task_ptr), self.g_size, self.g_pins
        )

    @_structural
    def visit_order(self) -> list[int]:
        """The tasks by non-decreasing configuration count, ties in id
        order (the sorted greedy heuristics' visit order)."""
        return stable_argsort(np.diff(self.hypergraph.task_ptr)).tolist()

    @_structural
    def task_ptr_list(self) -> list[int]:
        """``hypergraph.task_ptr`` as a list."""
        return self.hypergraph.task_ptr.tolist()

    @_structural
    def g_ptr_list(self) -> list[int]:
        """``g_ptr`` as a list."""
        return self.g_ptr.tolist()

    @_structural
    def reduceat_offsets(self) -> np.ndarray:
        """``goff[a:b]``: the pin offsets of task ``v``'s grouped
        candidates ``a:b`` relative to the task's first pin (its
        reduceat indices)."""
        ptr = self.hypergraph.task_ptr
        return self.g_ptr[:-1] - np.repeat(self.g_ptr[ptr[:-1]], np.diff(ptr))

    @_structural
    def pin_cells(self) -> np.ndarray:
        """Flat cell of every grouped pin in its task's ranking matrix.

        Task ``v``'s candidates are ranked over a ``(d_v, P_v)`` matrix,
        ``P_v`` the task's pin count: row ``i`` is candidate ``i`` and
        column ``j`` the task's ``j``-th pin ``g_pins[p0 + j]`` (a
        processor that several candidates share has a column for each,
        see :mod:`repro.kernels.ops`).  Pin ``j`` of the task, owned by
        candidate ``i``, lands at ``i * P_v + j``, so one 1-D scatter
        adds every candidate's weight on its own pins."""
        ptr = self.hypergraph.task_ptr
        deg = np.diff(ptr)
        first = self.g_ptr[ptr]
        task_pins = np.diff(first)
        local = np.arange(self.n_hedges, dtype=np.int64) - np.repeat(
            ptr[:-1], deg
        )
        cells = np.repeat(local, self.g_size) * np.repeat(
            task_pins, task_pins
        )
        cells += np.arange(self.g_pins.shape[0], dtype=np.int64)
        cells -= np.repeat(first[:-1], task_pins)
        return cells

    @_structural
    def task_repeats(self) -> list[bool]:
        """Per task, whether a processor appears in two of its
        candidates.  EVG withdraws such a task's shares one by one
        (``np.subtract.at``), where a buffered subtract would keep only
        one withdrawal per processor."""
        n = self.n_tasks
        flags = np.zeros(n, dtype=bool)
        if self.g_pins.shape[0]:
            task_pins = np.diff(self.g_ptr[self.hypergraph.task_ptr])
            width = self.n_procs
            keys = np.repeat(
                np.arange(n, dtype=np.int64) * width, task_pins
            )
            keys += self.g_pins
            # a candidate's pins come sorted: the runs merge cheaply
            keys.sort(kind="stable")
            repeat = keys[1:] == keys[:-1]
            flags[keys[1:][repeat] // width] = True
        return flags.tolist()

    # -- delegated shape properties -------------------------------------
    @property
    def n_tasks(self) -> int:
        return self.hypergraph.n_tasks

    @property
    def n_procs(self) -> int:
        return self.hypergraph.n_procs

    @property
    def n_hedges(self) -> int:
        return self.hypergraph.n_hedges

    def task_slice(self, v: int) -> tuple[int, int]:
        """Grouped-position range of task ``v``'s candidates."""
        ptr = self.hypergraph.task_ptr
        return int(ptr[v]), int(ptr[v + 1])

    def decompile(self) -> TaskHypergraph:
        """Rebuild an equal :class:`TaskHypergraph` from the grouped
        arrays and the bound instance's weights (round-trip property:
        ``compile_instance(hg).decompile()`` equals ``hg``
        array-for-array, whichever weight variant of the structure the
        cached compilation was built from)."""
        hg = self.hypergraph
        task_of_g = np.repeat(
            np.arange(hg.n_tasks, dtype=np.int64), np.diff(hg.task_ptr)
        )
        order = np.argsort(self.g_hedge, kind="stable")
        return TaskHypergraph.from_hyperedges(
            hg.n_tasks,
            hg.n_procs,
            task_of_g[order],
            [
                self.g_pins[self.g_ptr[k] : self.g_ptr[k + 1]]
                for k in order
            ],
            hg.hedge_w.copy(),
        )


def _compile(hg: TaskHypergraph, digest: str) -> CompiledKernels:
    nh = hg.n_hedges
    sizes = np.diff(hg.hedge_ptr)
    # a copy even when task_hedges is int64 already: the compilation
    # outlives this instance for every weight variant of the structure,
    # and this instance's arrays may view a shared-memory segment
    g_hedge = np.array(hg.task_hedges, dtype=np.int64)
    g_size = sizes[g_hedge]
    g_ptr = np.zeros(nh + 1, dtype=np.int64)
    np.cumsum(g_size, out=g_ptr[1:])
    pin_idx = flat_ranges(hg.hedge_ptr[:-1][g_hedge], g_size)
    g_pins = hg.hedge_procs[pin_idx]
    hedge_gpos = np.empty(nh, dtype=np.int64)
    hedge_gpos[g_hedge] = np.arange(nh, dtype=np.int64)

    return CompiledKernels(
        hypergraph=hg,
        digest=digest,
        g_hedge=g_hedge,
        g_size=g_size,
        g_ptr=g_ptr,
        g_pins=g_pins,
        hedge_gpos=hedge_gpos,
    )


def _owner(arr: np.ndarray) -> tuple[Any, int]:
    """The object whose memory ``arr`` keeps alive — the end of its
    chain of ``.base`` arrays and ``memoryview.obj`` exporters — and
    that object's size in bytes."""
    obj: Any = arr
    while True:
        if isinstance(obj, np.ndarray) and obj.base is not None:
            obj = obj.base
        elif isinstance(obj, memoryview) and obj.obj is not None:
            obj = obj.obj
        else:
            break
    try:
        with memoryview(obj) as view:
            return obj, view.nbytes
    except TypeError:  # not a buffer exporter: price the array alone
        return obj, arr.nbytes


#: What one compilation costs beside its array buffers: the
#: CompiledKernels and TaskHypergraph objects, a dozen ndarray headers,
#: the digest and the cache's bookkeeping (2.7–3.3 KiB measured with
#: tracemalloc over hundreds of cached n=6 and n=24 compilations).
#: Without it an n=6 compilation is priced at half of what it costs, and
#: the budget would keep twice as many small compilations as fit in it.
_COMPILED_OVERHEAD = 3584


#: What one Python ``int`` in a pointer list costs beside its slot in
#: the list: the int object (28 bytes, allocated in 32-byte blocks).
#: With the slot, an n=10240 ``g_ptr`` list measured 40.0 bytes per
#: entry with tracemalloc.  A list of flags refers to the two ``bool``
#: singletons and costs its slots alone.
_LIST_INT_NBYTES = 32


def compiled_nbytes(compiled: CompiledKernels) -> int:
    """Approximate heap footprint of one compilation: the sum over the
    unique buffers its arrays keep alive (kernel fields share storage
    with the hypergraph's CSR arrays, so buffers are deduplicated by
    identity), plus its structural setup once built.  A view is priced
    at the whole buffer it pins — a weights view over a received frame
    costs the frame.  The lazily built indexes and setup count only
    once built; pricing never builds them.  A pointer list is priced at
    its slots and its int objects, a flag list at its slots alone.  A
    fixed per-compilation overhead covers the objects around the
    buffers."""
    hg = compiled.hypergraph
    seen: set[int] = set()
    total = 0
    arrays = [
        compiled.g_hedge, compiled.g_size, compiled.g_ptr,
        compiled.g_pins, compiled.hedge_gpos,
        hg.hedge_task, hg.hedge_ptr, hg.hedge_procs, hg.hedge_w,
        hg.task_ptr, hg.task_hedges,
        *hg.__dict__.get("_proc_index_memo", ()),
    ]
    # a snapshot: another thread may publish setup meanwhile
    for _, value in sorted(compiled._memo.items()):
        if isinstance(value, list):
            total += sys.getsizeof(value)
            if value and type(value[0]) is not bool:
                total += _LIST_INT_NBYTES * len(value)
        elif isinstance(value, tuple):
            arrays.extend(value)
        else:
            arrays.append(value)
    for arr in arrays:
        owner, nbytes = _owner(arr)
        if id(owner) not in seen:
            seen.add(id(owner))
            total += nbytes
    return total + _COMPILED_OVERHEAD


#: Compilations keyed by structure digest, admitted on reuse.  The key
#: leaves the weights out, so every weight variant of one structure (a
#: paper table's unit and ``-W`` rows, a stream of reweighted requests)
#: shares one compilation and its setup; what depends on the weights is
#: keyed by instance digest elsewhere (the result cache) or gathered per
#: solve by the kernels.
#: A new compilation enters a two-entry probation segment; a second
#: request for the structure (a hit there, or a digest evicted from
#: probation that comes back) moves it to the protected segment, which
#: only the process's :data:`~repro._util.CACHE_BUDGET` bounds (both
#: segments charge it; protected keeps half the budget however much the
#: other caches want).
#: Distinct one-shot structures (a cold stream of unrelated instances,
#: every version of a churned dynamic instance) therefore retain two
#: compilations, not a budget's worth: at n=10240 one costs ~11 MiB,
#: and retaining ~17 of them that were never read again was most of a
#: serving process's peak RSS.  The two probation slots are not zero on
#: purpose: with nothing retained the allocator hands the freed heap
#: back to the kernel and every request re-faults it (~2000 minor
#: faults per n=10240 request, measured), while two retained
#: compilations keep the heap turning over with no faults.  Keeping the
#: compilation on its instance instead would need a reference cycle,
#: freed only by the cyclic GC, which measured worse than the old cache.
#: The ghost digests (:data:`~repro._util.GHOST_KEYS`) cover reuse far
#: apart, such as a method-major sweep over held instances through an
#: engine: each structure is compiled at most twice there.
_CACHE = SegmentedLRU(
    sizeof=compiled_nbytes, budget=CACHE_BUDGET, share=0.5
)


def compile_instance(
    hg: TaskHypergraph, *, digest: str | None = None
) -> CompiledKernels:
    """Compile ``hg``, through the structure-keyed compile cache.

    Returns the compilation bound to ``hg`` (see
    :meth:`CompiledKernels.bind`): a weight variant of a cached
    structure gets the cached grouped arrays and setup with its own
    instance, and kernels read its weights from that instance.

    The cache admits a compilation on reuse (see ``_CACHE``): a
    structure asked for twice, by two solvers of one instance, by two
    weight variants or by a returning instance, is kept under the
    process cache budget; one asked for once is kept only until two
    newer first-time compilations displace it.

    Pass ``digest=`` when the caller already has the structure digest;
    otherwise it is read from ``hg``'s memo or computed here
    (:func:`~repro.engine.cache.structure_digest`).
    """
    if digest is None:
        # runtime import: kernels must stay importable before the
        # engine package (algorithms import kernels at module load)
        from ..engine.cache import structure_digest

        digest = structure_digest(hg)
    hit = _CACHE.get(digest)
    if hit is not None:
        return hit.bind(hg)
    # boundary span, not a hot loop: one compile per new structure, and
    # the disabled path is a flag check
    with span("kernels.compile") as sp:  # repro: ignore[span-hygiene] — cache-miss boundary, runs once per structure digest, never inside solver inner loops
        compiled = _compile(hg, digest)
        if sp.recording:
            sp.set(digest=digest[:12], n_tasks=hg.n_tasks)
    _CACHE.put(digest, compiled)
    return compiled


def cached_structure(digest: str) -> TaskHypergraph | None:
    """The instance the cached compilation of structure ``digest`` was
    built from, or None.  Its structure passed
    :meth:`TaskHypergraph.from_csr`'s checks, so a server that receives
    arrays of the same structure digest builds the request's instance
    as ``cached_structure(d).with_weights(weights)`` instead of
    validating them again.  A lookup here neither counts nor promotes:
    the solve's :func:`compile_instance` does both."""
    entry = _CACHE.peek(digest)
    return None if entry is None else entry.hypergraph


def evict_compiled(digest: str) -> None:
    """Drop the cached compilation of structure ``digest`` from either
    segment (no-op when absent).  The engine's shared-memory transport
    calls this when a worker unmaps a segment whose instance the cached
    compilation may have been built from."""
    _CACHE.pop(digest)


def clear_compile_cache() -> None:
    """Drop every cached compilation (test support)."""
    _CACHE.clear()


def compile_cache_stats(*, segments: bool = False) -> dict[str, int]:
    """``{"entries", "bytes", "hits", "misses"}`` snapshot over both
    segments; ``segments=True`` adds ``probation``, ``protected``,
    ``promotions`` and ``ghost_admissions``."""
    stats = _CACHE.stats()
    if segments:
        return stats
    return {k: stats[k] for k in ("entries", "bytes", "hits", "misses")}
