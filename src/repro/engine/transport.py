"""Zero-copy instance transport for the process pool.

Pickling a :class:`~repro.core.hypergraph.TaskHypergraph` into a pool
worker serialises every CSR array through a pipe — twice (submit and
the executor's internal bookkeeping) — which at n=10240 costs more
than the dispatch it feeds.  This module ships instances through
:mod:`multiprocessing.shared_memory` instead: the parent copies the
six constructor arrays into one digest-keyed segment, workers map the
segment and rebuild the instance as *views* — no serialisation, no
copy, and repeated batches over the same instance reuse both the
segment and the worker's cached attachment (so its kernel compilation
survives across batches, too).

Lifecycle:

* parent side — an :class:`ExportRegistry` per
  :class:`~repro.engine.BatchSolver`: segments are created once per
  content digest and refcounted while batches are in flight.  An idle
  segment is priced at its mapping under the process cache budget and
  unlinked when the budget evicts it; all are unlinked on engine close
  (a finalizer covers engines that are never closed);
* worker side — an attachment cache keyed by segment name, under the
  process cache budget.  Attachments stay mapped until evicted (views
  may sit in the worker's kernel compile cache, so eviction also
  purges that digest via :func:`repro.kernels.evict_compiled` before
  unmapping).  Compilations are keyed by structure, so a worker's
  attached instance carries its structure digest beside its instance
  digest: a detach evicts the compilation of that structure, and no
  compilation keeps a view into a segment anyway (the grouped arrays
  and every structural setup are gathered copies), so another weight
  variant's solve never reads the unmapped segment through it.

Trust boundary: only a :class:`~repro.engine.BatchSolver`'s own pool
workers attach, and only to segments their parent engine created from
instances it already holds, so :func:`attach_instance` rebuilds views
without repeating ``TaskHypergraph.from_csr``'s checks.  No wire
payload can name a segment: the service and its sharded pool carry
instances only as frame attachments, parsed and checked like any
client's.

Everything degrades to pickling: platforms without POSIX shared memory,
segment-creation failure (``/dev/shm`` full), or instances below the
engine's ``shm_min_bytes`` floor, where a memcpy + syscall loses to a
small pickle.  The fallback is per-instance, so one oversized batch
member never forces a whole call onto one path.
"""

from __future__ import annotations

import mmap
import threading
import weakref
from functools import partial
from typing import Any

import numpy as np

from .._util import CACHE_BUDGET, BoundedLRU
from ..core.hypergraph import TaskHypergraph
from ..kernels import evict_compiled
from .cache import seed_digests, structure_digest
from ..obs.trace import span

try:  # pragma: no cover - import guard exercised only off-POSIX
    from multiprocessing import shared_memory as _shm

    _HAVE_SHM = True
except ImportError:  # pragma: no cover
    _shm = None
    _HAVE_SHM = False

__all__ = [
    "ExportRegistry",
    "attach_instance",
    "transport_available",
    "instance_nbytes",
    "attachment_stats",
]

#: The constructor arrays of an instance, in segment layout order.
#: The processor index is not among them: a worker builds it lazily,
#: and only when a solver (local search) reads it.
#: ``hedge_w`` is float64, everything else int64 — all 8-byte dtypes,
#: so natural alignment holds at any offset the layout produces.
_FIELDS = (
    "hedge_task",
    "hedge_ptr",
    "hedge_procs",
    "hedge_w",
    "task_ptr",
    "task_hedges",
)


def transport_available() -> bool:
    """Whether shared-memory transport can be used at all here."""
    return _HAVE_SHM


def instance_nbytes(hg: TaskHypergraph) -> int:
    """Payload size of ``hg`` under shared-memory transport."""
    return sum(getattr(hg, f).nbytes for f in _FIELDS)


#: Serialises the resource-tracker ``register`` swap in
#: :func:`_attach_segment` against this module's own segment creation:
#: the swap is process-wide, so a segment created in another thread
#: while it is in place would go unregistered, and its later unlink
#: would make the tracker print ``KeyError`` tracebacks.
_TRACKER_LOCK = threading.Lock()


def _attach_segment(name: str):
    """Attach to an existing segment without tracking it.

    An attaching process must not own the segment's lifetime — the
    creator unlinks it — but ``SharedMemory(name=...)`` registers with
    the resource tracker anyway on Python < 3.13.  Under ``spawn`` that
    makes worker exit unlink a segment the parent still serves; under
    ``fork`` (shared tracker process) a later unregister collides with
    the parent's own and the tracker logs KeyError tracebacks.
    Python 3.13+ has ``track=False`` for exactly this; earlier versions
    get it by suppressing ``register`` around the attach.  That swap
    replaces the function for every thread of the process, so it runs
    under ``_TRACKER_LOCK``, which :class:`ExportRegistry` also holds
    while it creates a segment; a registration by other code in
    another thread can still fall inside it.
    """
    try:
        return _shm.SharedMemory(name=name, track=False)
    except TypeError:  # pragma: no cover - Python < 3.13
        from multiprocessing import resource_tracker

        with _TRACKER_LOCK:
            original = resource_tracker.register
            resource_tracker.register = lambda *a, **k: None
            try:
                return _shm.SharedMemory(name=name)
            finally:
                resource_tracker.register = original


class _Export:
    """One parent-side segment: the shm handle plus bookkeeping."""

    __slots__ = ("shm", "descriptor", "refs")

    def __init__(self, shm, descriptor: dict[str, Any]):
        self.shm = shm
        self.descriptor = descriptor
        self.refs = 0


def _mapped_nbytes(shm) -> int:
    """A segment's mapping: its size in whole pages."""
    return -(-shm.size // mmap.PAGESIZE) * mmap.PAGESIZE


def _unlink(export: _Export) -> None:
    try:
        export.shm.close()
        export.shm.unlink()
    except Exception:  # pragma: no cover - already gone
        pass


def _close_all(segments: dict) -> None:
    for export in segments.values():
        _unlink(export)
    segments.clear()


def _drop_idle(
    segments: dict, lock: threading.Lock, digest: str, export: _Export
) -> None:
    """Unlink an idle export the cache budget evicted, unless a batch
    took it back in flight meanwhile (or the registry closed)."""
    with lock:
        if export.refs or segments.get(digest) is not export:
            return
        del segments[digest]
    _unlink(export)


class ExportRegistry:
    """Digest-keyed, refcounted shared-memory exports (parent side).

    An export is pinned while batches hold references to it.  Once idle
    (no references) it is priced at its segment's mapping under the
    process cache budget, where it holds the quarter share that a pool
    worker's attachments hold on the other side; the budget evicts the
    least recently released idle export first, which unlinks it."""

    def __init__(self):
        self._segments: dict[str, _Export] = {}
        self._lock = threading.Lock()
        # idle exports by digest, charged to the budget; the eviction
        # callback holds the table and its lock, not the registry, so a
        # registry nobody references is collected (and unlinked) at once
        self._idle = BoundedLRU(
            budget=CACHE_BUDGET, share=0.25,
            sizeof=lambda export: _mapped_nbytes(export.shm),
            on_evict=partial(_drop_idle, self._segments, self._lock),
        )
        self.exports = 0
        self.reuses = 0
        self.failures = 0
        # unlink segments even if the engine is never close()d —
        # /dev/shm outlives the process otherwise
        self._finalizer = weakref.finalize(
            self, _close_all, self._segments
        )

    def __len__(self) -> int:
        with self._lock:
            return len(self._segments)

    # ------------------------------------------------------------------
    def export(self, hg: TaskHypergraph, digest: str) -> dict | None:
        """A wire descriptor for ``hg``, creating (or reusing) its
        segment and taking one reference; ``None`` when shared memory
        is unavailable or creation failed (caller falls back to
        pickling).  Balance with :meth:`release`."""
        if not _HAVE_SHM:
            return None
        with self._lock:
            export = self._segments.get(digest)
            if export is not None:
                export.refs += 1
                self.reuses += 1
                self._idle.pop(digest)  # in flight again: pinned
                return export.descriptor
        try:
            with span("engine.transport.export") as sp:
                export = self._create(hg, digest)
                if sp.recording:
                    sp.set(digest=digest[:12])
        except Exception:
            with self._lock:
                self.failures += 1
            return None
        with self._lock:
            raced = self._segments.get(digest)
            if raced is not None:  # another thread won: keep theirs
                raced.refs += 1
                self.reuses += 1
                self._idle.pop(digest)
                _unlink(export)
                return raced.descriptor
            export.refs = 1
            self._segments[digest] = export
            self.exports += 1
            return export.descriptor

    def _create(self, hg: TaskHypergraph, digest: str) -> _Export:
        layout = []
        offset = 0
        for f in _FIELDS:
            arr = getattr(hg, f)
            layout.append((f, offset, int(arr.shape[0])))
            offset += arr.nbytes
        with _TRACKER_LOCK:  # never inside an attach's register swap
            shm = _shm.SharedMemory(create=True, size=max(offset, 1))
        for (f, off, n) in layout:
            arr = getattr(hg, f)
            dst = np.ndarray(
                (n,), dtype=arr.dtype, buffer=shm.buf, offset=off
            )
            np.copyto(dst, arr, casting="no")
        descriptor = {
            "__shm__": shm.name,
            "digest": digest,
            "structure": structure_digest(hg),
            "counts": (hg.n_tasks, hg.n_procs, hg.n_hedges),
            "layout": layout,
        }
        return _Export(shm, descriptor)

    def release(self, digest: str) -> None:
        """Drop one reference taken by :meth:`export`; the last one
        puts the export under the cache budget."""
        with self._lock:
            export = self._segments.get(digest)
            if export is None or export.refs == 0:
                return
            export.refs -= 1
            if export.refs:
                return
        # outside the lock: the insert may evict, and an eviction takes
        # it.  An export taken back meanwhile is only priced until the
        # budget drops it, which then leaves it mapped (see _drop_idle)
        self._idle.put(digest, export)

    def close(self) -> None:
        """Unlink every segment (engine shutdown)."""
        with self._lock:
            self._idle.clear()
            _close_all(self._segments)

    def stats(self) -> dict[str, int]:
        """``segments`` mapped, ``idle_bytes`` priced under the cache
        budget, and the ``exports``/``reuses``/``failures`` counts."""
        with self._lock:
            return {
                "segments": len(self._segments),
                "idle_bytes": self._idle.stats()["bytes"],
                "exports": self.exports,
                "reuses": self.reuses,
                "failures": self.failures,
            }


# ---------------------------------------------------------------------------
# worker side
# ---------------------------------------------------------------------------
def _detach(name: str, attached: tuple[Any, TaskHypergraph]) -> None:
    shm, hg = attached
    # the cached compilation of this structure may have been built
    # from (and so keep) this instance; purge it before unmapping so
    # nothing dangles
    evict_compiled(structure_digest(hg))
    try:
        shm.close()
    except Exception:  # pragma: no cover
        pass


def _attachment_nbytes(attached: tuple[Any, TaskHypergraph]) -> int:
    """A segment's mapped bytes: its size in whole pages."""
    return _mapped_nbytes(attached[0])


#: segment name -> (shm, hypergraph), priced at the segment's mapping
#: under the process cache budget (a compilation viewing the segment is
#: priced, segment included, in the compile cache), with a quarter of
#: the budget as its share; eviction unmaps.
_ATTACHED = BoundedLRU(
    budget=CACHE_BUDGET, share=0.25, sizeof=_attachment_nbytes,
    on_evict=_detach,
)


def attachment_stats() -> dict[str, int]:
    """``{"entries", "bytes", "hits", "misses"}`` of this process's
    attachment cache (non-empty only in a worker that attaches)."""
    return _ATTACHED.stats()


def is_descriptor(obj) -> bool:
    """Whether a chunk item is a shared-memory descriptor."""
    return isinstance(obj, dict) and "__shm__" in obj


def attach_instance(descriptor: dict) -> TaskHypergraph:
    """Rebuild the instance a descriptor names, as views over its
    shared segment (worker side; attachments are cached by name)."""
    name = descriptor["__shm__"]
    hit = _ATTACHED.get(name)
    if hit is not None:
        return hit[1]
    with span("engine.transport.attach") as sp:
        shm = _attach_segment(name)
        n_tasks, n_procs, n_hedges = descriptor["counts"]
        arrays = {}
        for f, off, n in descriptor["layout"]:
            dtype = np.float64 if f == "hedge_w" else np.int64
            arr = np.ndarray((n,), dtype=dtype, buffer=shm.buf, offset=off)
            arr.setflags(write=False)
            arrays[f] = arr
        hg = TaskHypergraph(
            n_tasks=int(n_tasks),
            n_procs=int(n_procs),
            n_hedges=int(n_hedges),
            **arrays,
        )
        # the parent computed the digests already; pre-seeding the
        # memos makes the worker's cache lookups free (the arrays are
        # read-only views, so freezing them changes nothing)
        seed_digests(hg, descriptor["structure"], descriptor["digest"])
        if sp.recording:
            sp.set(digest=descriptor["digest"][:12])
    _ATTACHED.put(name, (shm, hg))
    return hg
