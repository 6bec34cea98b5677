"""Immutable task-grouped CSR compilation of a :class:`TaskHypergraph`.

:class:`TaskHypergraph` already stores hyperedges in CSR form, but the
hot loops need a *task-grouped* arrangement: task ``v``'s candidate
configurations laid out contiguously, each pin annotated with its
position inside the task's sorted pin-union.  With those arrays one
greedy step is a handful of vectorized calls (a gather, a
``reduceat``, an ``argmin``/``lexsort``, a scatter) instead of a Python
loop over candidates.

Grouped position ``k`` (``0 <= k < n_hedges``) is the ``k``-th entry of
``task_hedges`` — i.e. candidates of task ``v`` occupy grouped
positions ``task_ptr[v]:task_ptr[v+1]``, in the same order
:meth:`TaskHypergraph.task_hedge_ids` yields them, which is what makes
kernel tie-breaking match the Python loops exactly.

Compilation is pure array work (no per-pin Python loop).  The cache,
keyed by the engine's content digest, keeps a compilation only once it
is reused: one instance solved by several heuristics (or solved again
later) is compiled once, and a stream of one-shot instances does not
pile up compilations nobody reads again.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Any

import numpy as np

from .._util import CACHE_BUDGET, SegmentedLRU
from ..core.hypergraph import TaskHypergraph
from ..obs.trace import span

__all__ = [
    "CompiledKernels",
    "compile_instance",
    "evict_compiled",
    "clear_compile_cache",
    "compile_cache_stats",
    "flat_ranges",
    "segment_starts",
    "union_positions",
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


def union_positions(
    owner: np.ndarray, pins: np.ndarray, n_owners: int
) -> tuple[np.ndarray, np.ndarray, np.ndarray]:
    """Each pin's position in its owner's *pin-union* (the sorted
    distinct pins of all the owner's rows), and the unions themselves.

    ``owner[i]`` (``0 <= owner[i] < n_owners``) owns the non-negative
    ``pins[i]``.  Returns ``(pos, u_ptr, u_procs)``: owner ``v``'s union
    is ``u_procs[u_ptr[v]:u_ptr[v+1]]`` and ``pins[i]`` sits at
    ``u_procs[u_ptr[owner[i]] + pos[i]]``.

    One stable argsort of ``owner * width + pin``: pins arrive sorted
    within each row and rows grouped by owner, so the keys come in long
    ascending runs the sort merges cheaply."""
    total = pins.shape[0]
    u_ptr = np.zeros(n_owners + 1, dtype=np.int64)
    if not total:
        return np.empty(0, dtype=np.int64), u_ptr, np.empty(0, dtype=np.int64)
    width = int(pins.max()) + 1
    labels = None
    if n_owners * width >= 2**63:
        # pin ids too sparse for one int64 key: key on their ranks
        labels, pins = np.unique(pins, return_inverse=True)
        width = labels.shape[0]
    keys = owner * width + pins
    order = np.argsort(keys, kind="stable")
    keys = keys[order]
    new = np.empty(total, dtype=bool)
    new[0] = True
    np.not_equal(keys[1:], keys[:-1], out=new[1:])
    distinct = keys[new]
    u_procs = distinct % width
    if labels is not None:
        u_procs = labels[u_procs]
    sizes = np.bincount(distinct // width, minlength=n_owners)
    np.cumsum(sizes, out=u_ptr[1:])
    pos = np.empty(total, dtype=np.int64)
    pos[order] = np.cumsum(new) - 1
    pos -= u_ptr[owner]
    return pos, u_ptr, u_procs


@dataclass(frozen=True)
class CompiledKernels:
    """Task-grouped kernel arrays for one :class:`TaskHypergraph`.

    Attributes
    ----------
    hypergraph:
        The source instance (its CSR arrays are shared, not copied).
    digest:
        The engine's content digest — the compile-cache key.
    g_hedge:
        Hyperedge id at each grouped position (``== task_hedges``).
    g_w, g_size, g_ptr, g_pins:
        Weight, pin count, pin CSR pointer and concatenated pin lists in
        grouped order: the pins of grouped candidate ``k`` are
        ``g_pins[g_ptr[k]:g_ptr[k+1]]``.
    g_pin_w:
        ``g_w`` repeated per pin (scatter payload for ranking kernels).
    g_pin_row:
        For each pin, its candidate's index *within its task* (the row
        of the ranking matrix the pin scatters into).
    g_pin_pos:
        For each pin, its position inside the owning task's sorted
        pin-union (the column of the ranking matrix).
    u_ptr, u_procs:
        CSR of per-task sorted pin-unions: the processors task ``v``
        can touch are ``u_procs[u_ptr[v]:u_ptr[v+1]]`` (sorted,
        duplicate-free).
    hedge_gpos:
        Inverse of ``g_hedge``: the grouped position of each hyperedge.

    ``g_pin_w`` through ``u_procs`` form the pin-union index.  Only
    VGH, EVG, GRASP and local search read it, so it is not a
    constructor field: it is built on first access and published
    atomically as one memo (a reader never sees ``u_ptr`` without
    ``u_procs``), and a compile-cache entry is re-priced when it is.
    """

    hypergraph: TaskHypergraph
    digest: str
    g_hedge: np.ndarray
    g_w: np.ndarray
    g_size: np.ndarray
    g_ptr: np.ndarray
    g_pins: np.ndarray
    hedge_gpos: np.ndarray

    # -- the lazily built pin-union index --------------------------------
    @property
    def g_pin_w(self) -> np.ndarray:
        return self._union_index()[0]

    @property
    def g_pin_row(self) -> np.ndarray:
        return self._union_index()[1]

    @property
    def g_pin_pos(self) -> np.ndarray:
        return self._union_index()[2]

    @property
    def u_ptr(self) -> np.ndarray:
        return self._union_index()[3]

    @property
    def u_procs(self) -> np.ndarray:
        return self._union_index()[4]

    def _union_index(self) -> tuple[np.ndarray, ...]:
        index = self.__dict__.get("_union_memo")
        if index is None:
            built = _build_union(self)
            index = self._publish_union(*built)
            if index[0] is built[0]:
                # this thread published: the compile cache priced the
                # entry without its union index, so re-price it
                _CACHE.reprice(self.digest, self)
        return index

    def _publish_union(
        self,
        g_pin_w: np.ndarray,
        g_pin_row: np.ndarray,
        g_pin_pos: np.ndarray,
        u_ptr: np.ndarray,
        u_procs: np.ndarray,
    ) -> tuple[np.ndarray, ...]:
        """Publish the pin-union index as one memo and return the memo
        that stands (first writer wins: ``setdefault`` is one atomic
        step, as in :meth:`TaskHypergraph._publish_proc_index`)."""
        return self.__dict__.setdefault(
            "_union_memo", (g_pin_w, g_pin_row, g_pin_pos, u_ptr, u_procs)
        )

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
        arrays alone (round-trip property: ``decompile()`` equals the
        source instance array-for-array)."""
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
            self.g_w[order],
        )


def _compile(hg: TaskHypergraph, digest: str) -> CompiledKernels:
    nh = hg.n_hedges
    sizes = np.diff(hg.hedge_ptr)
    g_hedge = np.ascontiguousarray(hg.task_hedges, dtype=np.int64)
    g_w = np.ascontiguousarray(hg.hedge_w[g_hedge])
    g_size = np.ascontiguousarray(sizes[g_hedge])
    g_ptr = np.zeros(nh + 1, dtype=np.int64)
    np.cumsum(g_size, out=g_ptr[1:])
    pin_idx = flat_ranges(hg.hedge_ptr[:-1][g_hedge], g_size)
    g_pins = np.ascontiguousarray(hg.hedge_procs[pin_idx])
    hedge_gpos = np.empty(nh, dtype=np.int64)
    hedge_gpos[g_hedge] = np.arange(nh, dtype=np.int64)

    return CompiledKernels(
        hypergraph=hg,
        digest=digest,
        g_hedge=g_hedge,
        g_w=g_w,
        g_size=g_size,
        g_ptr=g_ptr,
        g_pins=g_pins,
        hedge_gpos=hedge_gpos,
    )


def _build_union(ck: CompiledKernels) -> tuple[np.ndarray, ...]:
    """The pin-union index of ``ck``, in ``_publish_union`` order."""
    hg = ck.hypergraph
    nh = hg.n_hedges
    g_size, g_pins = ck.g_size, ck.g_pins
    g_pin_w = np.repeat(ck.g_w, g_size)

    deg = np.diff(hg.task_ptr)
    task_of_g = np.repeat(np.arange(hg.n_tasks, dtype=np.int64), deg)
    # candidate index within its task, per grouped position then per pin
    local = np.arange(nh, dtype=np.int64) - np.repeat(
        hg.task_ptr[:-1], deg
    )
    g_pin_row = np.repeat(local, g_size)

    g_pin_pos, u_ptr, u_procs = union_positions(
        np.repeat(task_of_g, g_size), g_pins, hg.n_tasks
    )
    return g_pin_w, g_pin_row, g_pin_pos, u_ptr, u_procs


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


def compiled_nbytes(compiled: CompiledKernels) -> int:
    """Approximate heap footprint of one compilation: the sum over the
    unique buffers its arrays keep alive (kernel fields share storage
    with the hypergraph's CSR arrays, so buffers are deduplicated by
    identity).  A view is priced at the whole buffer it pins — a
    weights view over a received frame costs the frame.  The lazily
    built indexes count only once built; pricing never builds them.
    A fixed per-compilation overhead covers the objects around the
    buffers."""
    hg = compiled.hypergraph
    seen: set[int] = set()
    total = 0
    for arr in (
        compiled.g_hedge, compiled.g_w, compiled.g_size, compiled.g_ptr,
        compiled.g_pins, compiled.hedge_gpos,
        *compiled.__dict__.get("_union_memo", ()),
        hg.hedge_task, hg.hedge_ptr, hg.hedge_procs, hg.hedge_w,
        hg.task_ptr, hg.task_hedges,
        *hg.__dict__.get("_proc_index_memo", ()),
    ):
        owner, nbytes = _owner(arr)
        if id(owner) not in seen:
            seen.add(id(owner))
            total += nbytes
    return total + _COMPILED_OVERHEAD


#: Digest-keyed compilations, admitted on reuse.  A new compilation
#: enters a two-entry probation segment; a second request for the digest
#: (a hit there, or a digest evicted from probation that comes back)
#: moves it to the protected segment, which only the process's
#: :data:`~repro._util.CACHE_BUDGET` bounds (both segments charge it;
#: protected keeps half the budget however much the other caches want).
#: Distinct one-shot instances (a cold request stream, every version of
#: a churned dynamic instance) therefore retain two compilations, not a
#: budget's worth: at n=10240 one costs ~11 MiB, and retaining ~17 of
#: them that were never read again was most of a serving process's peak
#: RSS.  The two probation slots are not zero on purpose: with nothing
#: retained the allocator hands the freed heap back to the kernel and
#: every request re-faults it (~2000 minor faults per n=10240 request,
#: measured), while two retained compilations keep the heap turning
#: over with no faults.  Keeping the compilation on its instance instead
#: would need a reference cycle, freed only by the cyclic GC, which
#: measured worse than the old cache.
#: The ghost digests (:data:`~repro._util.GHOST_KEYS`) cover reuse far
#: apart, such as a method-major sweep over held instances through an
#: engine: each instance is compiled at most twice there.
_CACHE = SegmentedLRU(
    sizeof=compiled_nbytes, budget=CACHE_BUDGET, share=0.5
)


def compile_instance(
    hg: TaskHypergraph, *, digest: str | None = None
) -> CompiledKernels:
    """Compile ``hg``, through the digest-keyed compile cache.

    The cache admits a compilation on reuse (see ``_CACHE``): a
    compilation asked for twice, by two solvers of one instance or by a
    returning digest, is kept under the process cache budget; one asked
    for once is kept only until two newer first-time compilations
    displace it.

    Pass ``digest=`` when the caller already computed it (the engine's
    result-cache path does); otherwise it is computed here.
    """
    if digest is None:
        # runtime import: kernels must stay importable before the
        # engine package (algorithms import kernels at module load)
        from ..engine.cache import instance_digest

        digest = instance_digest(hg)
    hit = _CACHE.get(digest)
    if hit is not None:
        return hit
    # boundary span, not a hot loop: one compile per new digest, and the
    # disabled path is a flag check
    with span("kernels.compile") as sp:  # repro: ignore[span-hygiene] — cache-miss boundary, runs once per instance digest, never inside solver inner loops
        compiled = _compile(hg, digest)
        if sp.recording:
            sp.set(digest=digest[:12], n_tasks=hg.n_tasks)
    _CACHE.put(digest, compiled)
    return compiled


def evict_compiled(digest: str) -> None:
    """Drop one cached compilation from either segment (no-op when
    absent).  The engine's shared-memory transport calls this when a
    worker unmaps a segment whose arrays a cached compilation may
    view."""
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
