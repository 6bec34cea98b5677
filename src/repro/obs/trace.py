"""Cross-layer span tracing for the solve stack.

A *span* is one named, timed region of the request path — ``with
span("engine.solve")`` records its name, start, duration and free-form
attributes.  Spans nest: every span opened inside another becomes its
child, and the whole tree shares one *trace id* carried in a
:mod:`contextvars` variable, so it follows ``await`` chains and
``asyncio.create_task`` for free.  Two hops contextvars do **not**
cross are handled explicitly:

* **executor threads** — wrap the callable with :func:`carry` before
  ``loop.run_in_executor`` (the repo's service idiom);
* **pool workers** — ship :func:`ship_context` alongside the chunk
  payload (the engine sends it next to the shm descriptors / pickled
  instances), adopt it worker-side with :func:`adopt`, and feed the
  spans it collected back through :func:`ingest` when the chunk lands.

Finished spans land in a bounded in-process ring buffer
(:class:`TraceRecorder`), exportable as JSONL; when a *root* span ends,
its complete trace is assembled and — if it exceeded the recorder's
latency threshold — retained by the built-in flight recorder (last K
slow traces, served by the service's ``trace`` op and ``semimatch
trace``).

Tracing is **off by default** and the disabled path is allocation-free:
:func:`span` checks one module-level flag and returns a shared no-op
object.  :func:`measured_span` is the variant for call sites that need
the duration even when tracing is off (the engine's ``wall_time_s``
derives from it) — it always runs one ``perf_counter`` pair, exactly
what the hand-rolled timing it replaced cost, and records only when
enabled.

The module is dependency-free (stdlib only) and importable before
numpy, like :mod:`repro.service.protocol`.
"""

from __future__ import annotations

import contextvars
import itertools
import json
import os
import threading
import time
from collections import deque
from contextlib import contextmanager
from typing import Any, Callable, Iterator

__all__ = [
    "PIGGYBACK_MAX_SPANS",
    "Span",
    "TraceRecorder",
    "RECORDER",
    "adopt",
    "attached",
    "carry",
    "collect_timings",
    "collecting",
    "current_trace_id",
    "disable_tracing",
    "enable_tracing",
    "export_jsonl",
    "format_trace_tree",
    "ingest",
    "measured_span",
    "ship_context",
    "shippable",
    "span",
    "tracing",
    "tracing_enabled",
    "wire_context",
]

#: Upper bound on spans piggybacked on one response envelope — a
#: worker that recorded more ships the newest ``cap`` (the structural
#: spine closes last, so leaves drop first).
PIGGYBACK_MAX_SPANS = 256

#: The module-level fast flag: checked before any allocation, so the
#: disabled path of :func:`span` costs one global load and one branch.
_ENABLED = False

#: ``(trace_id, active_span_id)`` of the calling context, or ``None``.
_TRACE: contextvars.ContextVar[tuple[str, str] | None] = (
    contextvars.ContextVar("repro_obs_trace", default=None)
)

#: Span sink override: when set (worker-side, see :func:`adopt`),
#: finished spans append here instead of the process recorder, so the
#: chunk can ship them back to the parent.
_SINK: contextvars.ContextVar[list | None] = contextvars.ContextVar(
    "repro_obs_sink", default=None
)

#: Per-context timing accumulator (see :func:`collect_timings`): every
#: recorded span adds its duration under its name, which is how the
#: engine attributes ``compile_s`` on ``SolveResult.stats`` without
#: threading timers through the kernel layer.
_TIMINGS: contextvars.ContextVar[dict | None] = contextvars.ContextVar(
    "repro_obs_timings", default=None
)

_IDS = itertools.count(1)

#: Longest trace or span id a wire context may carry (real ones are
#: :func:`_new_id`'s ``pid-counter`` hex): a longer one is malformed, so
#: no request makes every piggybacked span echo a huge string.
_MAX_WIRE_ID = 64


def _new_id() -> str:
    """Process-unique (and, via the pid, machine-unique) hex id."""
    return f"{os.getpid():x}-{next(_IDS):x}"


# ----------------------------------------------------------------------
# enable / disable
# ----------------------------------------------------------------------
def tracing_enabled() -> bool:
    """Whether spans are being recorded in this process."""
    return _ENABLED


def enable_tracing() -> None:
    """Turn span recording on (process-wide)."""
    global _ENABLED
    _ENABLED = True


def disable_tracing() -> None:
    """Turn span recording off (process-wide)."""
    global _ENABLED
    _ENABLED = False


@contextmanager
def tracing(enabled: bool = True) -> Iterator[None]:
    """Scoped enable/disable (tests and benches)."""
    global _ENABLED
    prev = _ENABLED
    _ENABLED = bool(enabled)
    try:
        yield
    finally:
        _ENABLED = prev


# ----------------------------------------------------------------------
# spans
# ----------------------------------------------------------------------
class _NoopSpan:
    """The shared do-nothing span the disabled path hands out."""

    __slots__ = ()
    recording = False
    duration_s = 0.0

    def __enter__(self) -> "_NoopSpan":
        return self

    def __exit__(self, *exc: Any) -> bool:
        return False

    def set(self, **attrs: Any) -> None:
        pass

    def start(self) -> "_NoopSpan":
        return self

    def end(self) -> None:
        pass


_NOOP = _NoopSpan()


class Span:
    """One live span.  Use as a context manager::

        with span("engine.solve") as sp:
            sp.set(digest=d)

    ``start()``/``end()`` exist for lifetimes that genuinely cannot be
    a ``with`` block, but the analyzer's ``span-hygiene`` rule flags
    manual pairs — an exception that escapes between them leaks the
    context token, exactly the bug ``with`` makes impossible.
    """

    __slots__ = (
        "name",
        "attrs",
        "recording",
        "local_root",
        "trace_id",
        "span_id",
        "parent_id",
        "start_s",
        "duration_s",
        "_token",
    )

    def __init__(
        self,
        name: str,
        attrs: dict,
        recording: bool,
        *,
        local_root: bool = False,
    ):
        self.name = name
        self.attrs = attrs
        self.recording = recording
        self.local_root = local_root
        self.trace_id: str | None = None
        self.span_id: str | None = None
        self.parent_id: str | None = None
        self.start_s = 0.0
        self.duration_s = 0.0
        self._token: contextvars.Token | None = None

    def set(self, **attrs: Any) -> None:
        """Attach attributes (recorded with the span)."""
        self.attrs.update(attrs)

    def start(self) -> "Span":
        return self.__enter__()

    def end(self) -> None:
        self.__exit__(None, None, None)

    def __enter__(self) -> "Span":
        if self.recording:
            ctx = _TRACE.get()
            if ctx is None:
                self.trace_id = _new_id()
            else:
                self.trace_id, self.parent_id = ctx
            self.span_id = _new_id()
            self._token = _TRACE.set((self.trace_id, self.span_id))
        self.start_s = time.perf_counter()
        return self

    def __exit__(self, exc_type: Any, exc: Any, tb: Any) -> bool:
        self.duration_s = time.perf_counter() - self.start_s
        if self.recording:
            if self._token is not None:
                _TRACE.reset(self._token)
                self._token = None
            if exc_type is not None:
                # setdefault: a call site that already attributed the
                # failure (e.g. ``error="worker-lost"``) wins over the
                # raw exception class name
                self.attrs.setdefault("error", exc_type.__name__)
            timings = _TIMINGS.get()
            if timings is not None:
                timings[self.name] = (
                    timings.get(self.name, 0.0) + self.duration_s
                )
            rec = {
                "name": self.name,
                "trace": self.trace_id,
                "span": self.span_id,
                "parent": self.parent_id,
                "start": self.start_s,
                "dur": self.duration_s,
                "pid": os.getpid(),
                "attrs": self.attrs,
            }
            if self.local_root:
                rec["local_root"] = True
            _record(rec)
        return False


def span(
    name: str, *, local_root: bool = False, **attrs: Any
) -> Span | _NoopSpan:
    """A recorded span when tracing is enabled, else the shared no-op.

    The disabled path allocates nothing — call with no keyword
    attributes on hot paths (evaluating them costs even when disabled)
    and attach attributes inside, gated on ``sp.recording``.

    ``local_root=True`` marks a span that *completes its trace in this
    process* even when its parent lives elsewhere — the server's
    per-request span is one: its parent is the client's span, which
    will never report to this recorder, so the flight recorder treats
    the request span's end as trace completion.
    """
    if not _ENABLED:
        return _NOOP
    return Span(name, attrs, True, local_root=local_root)


def measured_span(name: str, **attrs: Any) -> Span:
    """A span that *always* times, recording only when enabled.

    This is the drop-in replacement for hand-rolled ``perf_counter``
    pairs: ``sp.duration_s`` is valid either way, so wall-time fields
    and trace timings derive from one measurement and cannot disagree.
    """
    return Span(name, attrs, _ENABLED)


# ----------------------------------------------------------------------
# context propagation
# ----------------------------------------------------------------------
def current_trace_id() -> str | None:
    """The trace id of the calling context, if any."""
    ctx = _TRACE.get()
    return ctx[0] if ctx is not None else None


def carry(fn: Callable, /, *args: Any, **kwargs: Any) -> Callable[[], Any]:
    """Bind ``fn(*args, **kwargs)`` to the caller's context.

    ``loop.run_in_executor`` runs its callable in a bare thread
    context; wrapping with ``carry`` makes the active trace (and the
    timing accumulator) follow the hop.  When tracing is disabled this
    degrades to a plain ``partial``-style binding — no context copy.
    """
    if not _ENABLED:
        if args or kwargs:
            return lambda: fn(*args, **kwargs)
        return fn
    ctx = contextvars.copy_context()
    return lambda: ctx.run(fn, *args, **kwargs)


def ship_context() -> tuple[str, str] | None:
    """The ``(trace_id, span_id)`` pair to ship alongside a worker
    payload (shm descriptor or pickle), or ``None`` when tracing is
    off / no span is active."""
    if not _ENABLED:
        return None
    return _TRACE.get()


def wire_context() -> dict | None:
    """The active trace context as the protocol envelope's optional
    ``trace`` field (``{"id": ..., "span": ...}``), or ``None``."""
    ctx = _TRACE.get() if _ENABLED else None
    if ctx is None:
        return None
    return {"id": ctx[0], "span": ctx[1]}


def _wire_ids(ctx: Any) -> tuple[str, str] | None:
    """``(trace_id, span_id)`` of a well-formed wire trace context: a
    dict whose ``id`` and ``span`` are strings of at most
    ``_MAX_WIRE_ID`` characters.  ``None`` for anything else."""
    if not isinstance(ctx, dict):
        return None
    ids = ctx.get("id"), ctx.get("span")
    if all(isinstance(x, str) and len(x) <= _MAX_WIRE_ID for x in ids):
        return ids
    return None


@contextmanager
def attached(ctx: Any) -> Iterator[None]:
    """Adopt a wire trace context (``{"id", "span"}``) for the block.

    The server calls this with whatever the request envelope carried;
    anything malformed (non-string or overlong ids, or ``None``, or
    tracing disabled) is a no-op — a client must never be able to break
    the server with a bad trace field.
    """
    ids = _wire_ids(ctx) if _ENABLED else None
    if ids is None:
        yield
        return
    token = _TRACE.set(ids)
    try:
        yield
    finally:
        _TRACE.reset(token)


@contextmanager
def adopt(ctx: tuple[str, str] | None) -> Iterator[list | None]:
    """Worker-side: run the block under a shipped trace context.

    Yields the list collecting every span the block records — return
    it with the chunk result and :func:`ingest` it in the parent.  With
    ``ctx=None`` (tracing was off when the chunk was submitted) the
    block runs untraced and ``None`` is yielded.

    Also enables recording locally: a pool worker is a fresh process
    whose module flag is off, and the shipped context is its signal
    that the parent wants spans.
    """
    if ctx is None:
        yield None
        return
    global _ENABLED
    collected: list[dict] = []
    trace_token = _TRACE.set((str(ctx[0]), str(ctx[1])))
    sink_token = _SINK.set(collected)
    prev = _ENABLED
    _ENABLED = True
    try:
        yield collected
    finally:
        _ENABLED = prev
        _SINK.reset(sink_token)
        _TRACE.reset(trace_token)


@contextmanager
def collecting(ctx: Any) -> Iterator[list | None]:
    """Server-side: collect the block's spans for piggybacking.

    ``ctx`` is the inbound envelope's ``trace`` field.  When tracing is
    enabled *and* the envelope carried a well-formed context, the
    block's finished spans divert into a fresh list (yielded) instead
    of the process recorder, so the handler can ship them back on the
    response — see :func:`shippable`.  Otherwise (tracing off, no
    context, malformed context) the block runs unchanged and ``None``
    is yielded: an untraced client never pays for collection.

    Unlike :func:`adopt` this does **not** set the trace context — pair
    it with :func:`attached`, which validates the same shape.
    """
    if not _ENABLED or _wire_ids(ctx) is None:
        yield None
        return
    collected: list[dict] = []
    token = _SINK.set(collected)
    try:
        yield collected
    finally:
        _SINK.reset(token)


def shippable(
    records: list[dict], *, cap: int = PIGGYBACK_MAX_SPANS
) -> list[dict]:
    """Prepare collected spans for the wire (size cap + root hygiene).

    Keeps the newest ``cap`` records and strips ``local_root`` from
    each: a shipped local-root span would complete the trace in the
    *receiving* recorder the moment it is ingested, splitting the
    stitched tree — completion belongs to whichever process owns the
    outermost span.
    """
    out = []
    for rec in records[-cap:] if len(records) > cap else records:
        if rec.get("local_root"):
            rec = {k: v for k, v in rec.items() if k != "local_root"}
        out.append(rec)
    return out


@contextmanager
def collect_timings() -> Iterator[dict]:
    """Accumulate recorded span durations by name for the block.

    The engine opens this around one solve and reads
    ``timings.get("kernels.compile")`` afterwards — per-layer timing
    without the kernel layer knowing who is asking.  Empty when tracing
    is disabled (no spans record).
    """
    timings: dict = {}
    token = _TIMINGS.set(timings)
    try:
        yield timings
    finally:
        _TIMINGS.reset(token)


# ----------------------------------------------------------------------
# recording
# ----------------------------------------------------------------------
class TraceRecorder:
    """Bounded ring buffer of finished spans + the flight recorder.

    Finished spans append to a ``deque(maxlen=capacity)``; spans of
    still-open traces are additionally grouped by trace id, and when a
    *root* span (no parent) ends, the assembled trace is complete — if
    its duration reached ``threshold_s`` it joins the flight recorder's
    last-``keep`` retained traces.  All state is guarded by one lock
    (the asyncio loop, executor threads and :func:`ingest` all report
    in).
    """

    def __init__(
        self,
        capacity: int = 4096,
        *,
        threshold_s: float = 0.05,
        keep: int = 32,
        max_open: int = 512,
    ):
        self._lock = threading.Lock()
        self._spans: deque[dict] = deque(maxlen=capacity)
        self._open: dict[str, list[dict]] = {}
        self._flight: deque[dict] = deque(maxlen=keep)
        self._max_open = int(max_open)
        self.threshold_s = float(threshold_s)
        self.keep = int(keep)
        self.completed = 0
        self.retained = 0

    def configure(
        self,
        *,
        threshold_s: float | None = None,
        keep: int | None = None,
    ) -> None:
        """Adjust the flight recorder's knobs (server startup)."""
        with self._lock:
            if threshold_s is not None:
                self.threshold_s = float(threshold_s)
            if keep is not None and int(keep) != self.keep:
                self.keep = int(keep)
                self._flight = deque(self._flight, maxlen=self.keep)

    def record(self, rec: dict) -> None:
        """File one finished span (called from ``Span.__exit__``)."""
        with self._lock:
            self._spans.append(rec)
            trace_id = rec["trace"]
            bucket = self._open.get(trace_id)
            if bucket is None:
                while len(self._open) >= self._max_open:
                    # shed the oldest never-completed trace (a crashed
                    # or abandoned root would otherwise leak forever)
                    self._open.pop(next(iter(self._open)))
                bucket = self._open[trace_id] = []
            bucket.append(rec)
            if rec["parent"] is None or rec.get("local_root"):
                spans = self._open.pop(trace_id)
                self.completed += 1
                if rec["dur"] >= self.threshold_s:
                    self.retained += 1
                    self._flight.append(
                        {
                            "trace": trace_id,
                            "root": rec["name"],
                            "duration_s": rec["dur"],
                            "spans": spans,
                        }
                    )

    # -- views -----------------------------------------------------------
    def spans(self) -> list[dict]:
        """The ring buffer's finished spans, oldest first (copies)."""
        with self._lock:
            return [dict(r) for r in self._spans]

    def flight(self, count: int | None = None) -> list[dict]:
        """The retained slow traces, most recent first."""
        with self._lock:
            traces = list(self._flight)
        traces.reverse()
        if count is not None:
            traces = traces[: max(int(count), 0)]
        return traces

    def trace(self, trace_id: str) -> list[dict]:
        """Every buffered span of one trace (open or finished)."""
        with self._lock:
            return [
                dict(r) for r in self._spans if r["trace"] == trace_id
            ]

    def stats(self) -> dict:
        with self._lock:
            return {
                "buffered": len(self._spans),
                "open_traces": len(self._open),
                "completed": self.completed,
                "retained": self.retained,
                "threshold_s": self.threshold_s,
                "keep": self.keep,
            }

    def clear(self) -> None:
        """Drop everything (test support)."""
        with self._lock:
            self._spans.clear()
            self._open.clear()
            self._flight.clear()
            self.completed = 0
            self.retained = 0

    def export_jsonl(self, path: Any) -> int:
        """Write the buffered spans as JSON Lines; returns the count."""
        spans = self.spans()
        with open(path, "w", encoding="utf-8") as fh:
            for rec in spans:
                fh.write(json.dumps(rec, sort_keys=True) + "\n")
        return len(spans)


#: The process recorder every span reports to.
RECORDER = TraceRecorder()


def _record(rec: dict) -> None:
    sink = _SINK.get()
    if sink is not None:
        sink.append(rec)
    else:
        RECORDER.record(rec)


def ingest(records: list[dict] | None) -> None:
    """File spans shipped back from a pool worker (see :func:`adopt`).

    Respects the caller's own sink, so a thread-pool chunk nested under
    another collection still ships upward correctly.
    """
    if not records:
        return
    for rec in records:
        _record(rec)


def export_jsonl(path: Any) -> int:
    """Module-level sugar for ``RECORDER.export_jsonl``."""
    return RECORDER.export_jsonl(path)


# ----------------------------------------------------------------------
# rendering
# ----------------------------------------------------------------------
def format_trace_tree(trace: dict) -> str:
    """A retained trace as an indented tree with offsets and durations.

    ``trace`` is one element of :meth:`TraceRecorder.flight` (also the
    wire shape of the service's ``trace`` op) — ``{"trace", "root",
    "duration_s", "spans": [...]}``.
    """
    spans = trace.get("spans", [])
    by_parent: dict[str | None, list[dict]] = {}
    ids = {rec["span"] for rec in spans}
    roots: list[dict] = []
    for rec in spans:
        parent = rec.get("parent")
        # spans whose parent fell out of the ring buffer (or lives in
        # another process hop that was not shipped) render as roots
        if parent is None or parent not in ids:
            roots.append(rec)
        else:
            by_parent.setdefault(parent, []).append(rec)
    t0 = min((rec["start"] for rec in spans), default=0.0)
    lines = [
        f"trace {trace.get('trace')}  "
        f"{trace.get('root')}  {trace.get('duration_s', 0.0) * 1e3:.3f} ms"
    ]

    def walk(rec: dict, depth: int) -> None:
        attrs = rec.get("attrs") or {}
        extra = (
            "  " + " ".join(f"{k}={v}" for k, v in sorted(attrs.items()))
            if attrs
            else ""
        )
        lines.append(
            f"{'  ' * depth}+- {rec['name']}  "
            f"@{(rec['start'] - t0) * 1e3:+.3f} ms  "
            f"{rec['dur'] * 1e3:.3f} ms"
            f"  [pid {rec.get('pid', '?')}]{extra}"
        )
        for child in sorted(
            by_parent.get(rec["span"], []), key=lambda r: r["start"]
        ):
            walk(child, depth + 1)

    for root in sorted(roots, key=lambda r: r["start"]):
        walk(root, 1)
    return "\n".join(lines)
