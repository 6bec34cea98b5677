"""Process-wide metrics registry: counters, gauges, histograms.

One :class:`MetricsRegistry` holds every named instrument behind a
single lock and exposes the whole set two ways:

* :meth:`MetricsRegistry.snapshot` — plain ints/floats/lists, JSON-ready
  (what the service's ``metrics`` op returns);
* :meth:`MetricsRegistry.prometheus_text` — the Prometheus text
  exposition format (``repro_`` prefix, dots become underscores,
  cumulative ``le`` buckets, ``_sum``/``_count`` series).

**Scrape contract** (documented in API.md): nothing resets on read.
Counters and histogram ``count``/``sum``/``buckets`` are monotonic
cumulative — two scrapers polling concurrently each compute their own
deltas and cannot corrupt each other.  The only windowed values are the
``window`` block a histogram snapshot carries alongside the cumulative
bucket data: exact p50/p99 over the most recent observations, for
humans who want "how slow is it *now*" without delta arithmetic.

Instruments are created on first use and live for the registry's
lifetime.  :func:`default_registry` is the process-wide instance for
library code; the service deliberately builds private registries (one
per server) so two servers in one process — the test harness norm —
keep independent counts.

Dependency-free (stdlib only), like :mod:`repro.obs.trace`.
"""

from __future__ import annotations

import threading
from bisect import bisect_left
from collections import deque
from typing import Callable, Sequence

__all__ = [
    "Counter",
    "Gauge",
    "Histogram",
    "MetricsRegistry",
    "default_registry",
    "merge_counter_maps",
    "merge_histogram_snapshots",
]


class Counter:
    """A monotonically increasing integer.

    Not locked by itself: the owning registry serialises access.
    """

    __slots__ = ("name", "value")

    def __init__(self, name: str):
        self.name = name
        self.value = 0

    def inc(self, n: int = 1) -> None:
        if n < 0:
            raise ValueError("counters only go up")
        self.value += n


class Gauge:
    """A point-in-time value — set directly, or computed at snapshot
    time by a callback (``fn``), which is how the registry exposes
    live state like cache sizes without polling loops."""

    __slots__ = ("name", "value", "fn")

    def __init__(self, name: str, fn: Callable[[], float] | None = None):
        self.name = name
        self.value = 0.0
        self.fn = fn

    def set(self, value: float) -> None:
        self.value = float(value)

    def read(self) -> float:
        if self.fn is not None:
            return float(self.fn())
        return self.value


class Histogram:
    """Fixed upper-bound buckets plus count/sum, Prometheus-style.

    ``observe`` files a value into the first bucket whose bound is
    ``>= value`` (the last, unbounded bucket catches the rest);
    ``quantile`` answers p50/p99 queries by walking the cumulative
    counts and reporting the matched bucket's upper bound — an upper
    estimate, which is the conservative side for latency reporting.

    ``count``/``total``/``counts`` are monotonic cumulative and never
    reset; a bounded ``recent`` window additionally keeps the last
    ``window`` raw observations so :meth:`snapshot` can report exact
    recent quantiles alongside the cumulative buckets.

    Not locked by itself: the owning registry serialises access.
    """

    def __init__(self, bounds: Sequence[float], *, window: int = 512):
        if not bounds or list(bounds) != sorted(bounds):
            raise ValueError("bounds must be a non-empty ascending sequence")
        self.bounds = tuple(float(b) for b in bounds)
        self.counts = [0] * (len(self.bounds) + 1)
        self.count = 0
        self.total = 0.0
        self.recent: deque[float] = deque(maxlen=int(window))

    def observe(self, value: float) -> None:
        value = float(value)
        self.counts[bisect_left(self.bounds, value)] += 1
        self.count += 1
        self.total += value
        self.recent.append(value)

    def quantile(self, q: float) -> float:
        """Upper bound of the bucket holding the ``q``-quantile
        (``0 <= q <= 1``); 0.0 when empty, the last finite bound for
        overflow observations."""
        if not 0 <= q <= 1:
            raise ValueError("q must be within [0, 1]")
        if self.count == 0:
            return 0.0
        rank = q * self.count
        seen = 0
        for i, c in enumerate(self.counts):
            seen += c
            if seen >= rank and c:
                return (
                    self.bounds[i]
                    if i < len(self.bounds)
                    else self.bounds[-1]
                )
        return self.bounds[-1]

    def window_quantile(self, q: float) -> float:
        """Exact ``q``-quantile of the recent-observation window."""
        if not 0 <= q <= 1:
            raise ValueError("q must be within [0, 1]")
        if not self.recent:
            return 0.0
        ordered = sorted(self.recent)
        idx = min(int(q * len(ordered)), len(ordered) - 1)
        return ordered[idx]

    @property
    def mean(self) -> float:
        return self.total / self.count if self.count else 0.0

    def snapshot(self) -> dict:
        """JSON-ready form: ``le``/count pairs (``null`` = +inf).

        ``count``/``sum``/``buckets`` are cumulative since process
        start; the additive ``window`` block holds exact quantiles over
        the recent observations only.
        """
        return {
            "count": self.count,
            "sum": self.total,
            "mean": self.mean,
            "p50": self.quantile(0.50),
            "p99": self.quantile(0.99),
            "buckets": [
                [self.bounds[i] if i < len(self.bounds) else None, c]
                for i, c in enumerate(self.counts)
            ],
            "window": {
                "size": len(self.recent),
                "p50": self.window_quantile(0.50),
                "p99": self.window_quantile(0.99),
            },
        }


# ----------------------------------------------------------------------
# snapshot merging (fleet aggregation)
# ----------------------------------------------------------------------
def merge_counter_maps(maps: Sequence[dict]) -> dict:
    """Sum counter maps key-wise (missing keys count as zero)."""
    out: dict[str, int] = {}
    for counters in maps:
        for name, value in counters.items():
            out[name] = out.get(name, 0) + int(value)
    return dict(sorted(out.items()))


def merge_histogram_snapshots(snaps: Sequence[dict]) -> dict:
    """Merge :meth:`Histogram.snapshot` dicts bucket-wise.

    The whole point of fixed upper-bound buckets: snapshots from
    different processes merge by summing bucket counts, and fleet
    p50/p99 come out of the *merged* cumulative walk — never from
    averaging per-process percentiles, which has no statistical
    meaning.  All snapshots must share identical bucket bounds
    (``ValueError`` otherwise); the per-process ``window`` blocks are
    raw-observation views that cannot be merged, so the fleet snapshot
    is cumulative-only.
    """
    if not snaps:
        raise ValueError("nothing to merge")
    bounds = [b for b, _ in snaps[0]["buckets"]]
    counts = [0] * len(bounds)
    count = 0
    total = 0.0
    for snap in snaps:
        if [b for b, _ in snap["buckets"]] != bounds:
            raise ValueError(
                "histogram snapshots with differing bucket bounds "
                "cannot be merged"
            )
        for i, (_, c) in enumerate(snap["buckets"]):
            counts[i] += int(c)
        count += int(snap["count"])
        total += float(snap["sum"])

    def quantile(q: float) -> float:
        # the same cumulative walk as Histogram.quantile, over the
        # merged counts (finite bounds exclude the +inf slot)
        finite = [b for b in bounds if b is not None]
        if count == 0 or not finite:
            return 0.0
        rank = q * count
        seen = 0
        for i, c in enumerate(counts):
            seen += c
            if seen >= rank and c:
                return bounds[i] if bounds[i] is not None else finite[-1]
        return finite[-1]

    return {
        "count": count,
        "sum": total,
        "mean": total / count if count else 0.0,
        "p50": quantile(0.50),
        "p99": quantile(0.99),
        "buckets": [[b, c] for b, c in zip(bounds, counts)],
        "merged_from": len(snaps),
    }


def _prom_name(name: str) -> str:
    """``engine.cache.hits`` -> ``repro_engine_cache_hits``."""
    safe = "".join(c if c.isalnum() else "_" for c in name)
    return f"repro_{safe}"


class MetricsRegistry:
    """Every named instrument of one scope behind one lock.

    Instrument names are dotted (``service.requests``,
    ``engine.cache.hits``): the JSON snapshot keeps the dots, the
    Prometheus exposition maps them to underscores under a ``repro_``
    prefix.  Accessors create on first use; re-requesting a name
    returns the same instrument (with a type check — one name, one
    kind).
    """

    def __init__(self) -> None:
        self._lock = threading.Lock()
        self._counters: dict[str, Counter] = {}
        self._gauges: dict[str, Gauge] = {}
        self._histograms: dict[str, Histogram] = {}

    # -- accessors -------------------------------------------------------
    def counter(self, name: str) -> Counter:
        with self._lock:
            c = self._counters.get(name)
            if c is None:
                self._check_free(name, self._counters)
                c = self._counters[name] = Counter(name)
            return c

    def gauge(self, name: str, fn: Callable[[], float] | None = None) -> Gauge:
        with self._lock:
            g = self._gauges.get(name)
            if g is None:
                self._check_free(name, self._gauges)
                g = self._gauges[name] = Gauge(name, fn)
            elif fn is not None:
                g.fn = fn
            return g

    def histogram(
        self,
        name: str,
        bounds: Sequence[float] | None = None,
        *,
        window: int = 512,
    ) -> Histogram:
        with self._lock:
            h = self._histograms.get(name)
            if h is None:
                if bounds is None:
                    raise ValueError(
                        f"histogram {name!r} does not exist yet; "
                        "pass bounds to create it"
                    )
                self._check_free(name, self._histograms)
                h = self._histograms[name] = Histogram(bounds, window=window)
            return h

    def _check_free(self, name: str, own: dict) -> None:
        # caller holds the lock
        for kind in (self._counters, self._gauges, self._histograms):
            if kind is not own and name in kind:
                raise ValueError(
                    f"metric name {name!r} already registered "
                    "as a different instrument kind"
                )

    # -- recording sugar -------------------------------------------------
    def inc(self, name: str, n: int = 1) -> None:
        counter = self.counter(name)
        with self._lock:
            counter.inc(n)

    def set_gauge(self, name: str, value: float) -> None:
        gauge = self.gauge(name)
        with self._lock:
            gauge.set(value)

    def observe(self, name: str, value: float) -> None:
        """Observe into an existing histogram (create it first)."""
        hist = self.histogram(name)
        with self._lock:
            hist.observe(value)

    def counter_value(self, name: str) -> int:
        with self._lock:
            c = self._counters.get(name)
            return c.value if c is not None else 0

    # -- exposition ------------------------------------------------------
    def snapshot(self) -> dict:
        """Everything, JSON-ready, names sorted."""
        with self._lock:
            return {
                "counters": {
                    name: c.value
                    for name, c in sorted(self._counters.items())
                },
                "gauges": {
                    name: g.read()
                    for name, g in sorted(self._gauges.items())
                },
                "histograms": {
                    name: h.snapshot()
                    for name, h in sorted(self._histograms.items())
                },
            }

    def prometheus_text(self) -> str:
        """The Prometheus text exposition format, ``\\n``-terminated."""
        with self._lock:
            lines: list[str] = []
            for name, c in sorted(self._counters.items()):
                prom = _prom_name(name)
                lines.append(f"# TYPE {prom} counter")
                lines.append(f"{prom} {c.value}")
            for name, g in sorted(self._gauges.items()):
                prom = _prom_name(name)
                lines.append(f"# TYPE {prom} gauge")
                lines.append(f"{prom} {_fmt(g.read())}")
            for name, h in sorted(self._histograms.items()):
                prom = _prom_name(name)
                lines.append(f"# TYPE {prom} histogram")
                cumulative = 0
                for i, count in enumerate(h.counts):
                    cumulative += count
                    le = (
                        _fmt(h.bounds[i])
                        if i < len(h.bounds)
                        else "+Inf"
                    )
                    lines.append(
                        f'{prom}_bucket{{le="{le}"}} {cumulative}'
                    )
                lines.append(f"{prom}_sum {_fmt(h.total)}")
                lines.append(f"{prom}_count {h.count}")
            return "\n".join(lines) + "\n"


def _fmt(value: float) -> str:
    """Floats without trailing noise (``0.05`` not ``0.05000...``)."""
    return repr(float(value))


_DEFAULT: MetricsRegistry | None = None
_DEFAULT_LOCK = threading.Lock()


def default_registry() -> MetricsRegistry:
    """The process-wide registry for library-level instruments."""
    global _DEFAULT
    with _DEFAULT_LOCK:
        if _DEFAULT is None:
            _DEFAULT = MetricsRegistry()
        return _DEFAULT
