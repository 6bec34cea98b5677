"""repro.obs — cross-layer observability: spans, metrics, flight data.

Four dependency-free quarters:

* :mod:`repro.obs.trace` — the span tracer.  ``with span("name")``
  regions share a trace id carried through async tasks, executor
  threads, the engine's process pool *and the sharded service's worker
  hop* (spans piggyback on response envelopes, see :func:`collecting` /
  :func:`shippable`), landing in a bounded ring buffer with JSONL
  export and a slow-solve flight recorder.  Off by default;
  :func:`enable_tracing` costs one flag flip and the disabled path
  allocates nothing.
* :mod:`repro.obs.metrics` — the metrics registry (counters / gauges
  / histograms) with JSON and Prometheus-text exposition: one
  process-wide default, plus a private one per solve server, whose
  ``metrics`` op serves it.
* :mod:`repro.obs.fleet` — fleet aggregation: per-worker metrics
  snapshots fold into one view (counters sum, fixed-bucket histograms
  merge bucket-wise, gauges tag per worker).
* :mod:`repro.obs.health` — health/SLO scoring over the aggregated
  snapshot: typed ``ok | degraded | critical`` verdicts with
  machine-readable reasons, graded against a :class:`HealthBudget`.

See API.md's "Observability" and "Fleet observability" sections for
the naming scheme, the metrics-op scrape contract, stitching
semantics, and the ``semimatch trace`` / ``semimatch metrics`` /
``semimatch top`` CLI.
"""

from .fleet import aggregate_fleet, is_unreachable, unreachable_marker
from .health import SEVERITIES, HealthBudget, score_fleet
from .metrics import (
    Counter,
    Gauge,
    Histogram,
    MetricsRegistry,
    default_registry,
    merge_counter_maps,
    merge_histogram_snapshots,
)
from .trace import (
    PIGGYBACK_MAX_SPANS,
    RECORDER,
    Span,
    TraceRecorder,
    adopt,
    attached,
    carry,
    collect_timings,
    collecting,
    current_trace_id,
    disable_tracing,
    enable_tracing,
    export_jsonl,
    format_trace_tree,
    ingest,
    measured_span,
    ship_context,
    shippable,
    span,
    tracing,
    tracing_enabled,
    wire_context,
)

__all__ = [
    "Counter",
    "Gauge",
    "HealthBudget",
    "Histogram",
    "MetricsRegistry",
    "PIGGYBACK_MAX_SPANS",
    "RECORDER",
    "SEVERITIES",
    "Span",
    "TraceRecorder",
    "adopt",
    "aggregate_fleet",
    "attached",
    "carry",
    "collect_timings",
    "collecting",
    "current_trace_id",
    "default_registry",
    "disable_tracing",
    "enable_tracing",
    "export_jsonl",
    "format_trace_tree",
    "ingest",
    "is_unreachable",
    "measured_span",
    "merge_counter_maps",
    "merge_histogram_snapshots",
    "score_fleet",
    "ship_context",
    "shippable",
    "span",
    "tracing",
    "tracing_enabled",
    "unreachable_marker",
    "wire_context",
]
