"""Tests for the observability layer (repro.obs).

Covers the span tracer (context propagation across async tasks,
executor threads and process pools), the flight recorder, the unified
metrics registry, and the cross-layer contract: one client round trip
through a live server yields ONE trace id whose spans cover
service → batching → engine → kernels.
"""

from __future__ import annotations

import json
import threading
from contextlib import contextmanager

import pytest

from repro.engine import ResultCache
from repro.engine.batch import BatchSolver
from repro.generators import generate_multiproc
from repro.kernels.compiled import clear_compile_cache
from repro.obs import (
    MetricsRegistry,
    TraceRecorder,
    adopt,
    carry,
    collect_timings,
    current_trace_id,
    disable_tracing,
    enable_tracing,
    format_trace_tree,
    ingest,
    measured_span,
    ship_context,
    span,
    tracing,
    tracing_enabled,
)
from repro.obs import trace as trace_mod
from repro.service import ServiceClient

from test_service import running_server


def hg_for(seed: int = 0, n: int = 60):
    return generate_multiproc(
        n, 8, family="fewgmanyg", g=8, dv=5, dh=10, seed=seed
    )


@contextmanager
def fresh_recorder(**kw):
    """Swap the module RECORDER for a private one, tracing enabled."""
    old = trace_mod.RECORDER
    rec = TraceRecorder(**kw)
    trace_mod.RECORDER = rec
    enable_tracing()
    try:
        yield rec
    finally:
        disable_tracing()
        trace_mod.RECORDER = old


# ---------------------------------------------------------------------------
# spans
# ---------------------------------------------------------------------------
class TestSpans:
    def test_disabled_spans_record_nothing_and_share_the_noop(self):
        assert not tracing_enabled()
        rec = trace_mod.RECORDER
        before = len(rec.spans())
        a = span("x", attr=1)
        b = span("y")
        assert a is b  # one shared no-op: zero allocation when off
        with a as sp:
            sp.set(more=2)
            assert not sp.recording
            assert current_trace_id() is None
        assert len(rec.spans()) == before

    def test_measured_span_times_even_while_disabled(self):
        with measured_span("m") as sp:
            pass
        assert sp.duration_s >= 0.0
        assert not sp.recording

    def test_nesting_parent_ids_and_attrs(self):
        with fresh_recorder() as rec:
            with span("root", kind="outer"):
                tid = current_trace_id()
                with span("child"):
                    assert current_trace_id() == tid
            spans = rec.spans()
        by_name = {r["name"]: r for r in spans}
        assert by_name["child"]["parent"] == by_name["root"]["span"]
        assert by_name["root"]["parent"] is None
        assert by_name["root"]["attrs"]["kind"] == "outer"
        assert {r["trace"] for r in spans} == {tid}

    def test_exception_marks_error_and_still_ends(self):
        with fresh_recorder() as rec:
            with pytest.raises(RuntimeError):
                with span("boom"):
                    raise RuntimeError("no")
            (r,) = rec.spans()
        assert r["attrs"]["error"] == "RuntimeError"

    def test_ring_buffer_is_bounded(self):
        with fresh_recorder(capacity=16) as rec:
            for i in range(50):
                with span("s", i=i):
                    pass
            spans = rec.spans()
        assert len(spans) == 16
        assert spans[-1]["attrs"]["i"] == 49

    def test_tracing_context_manager_restores(self):
        assert not tracing_enabled()
        with tracing():
            assert tracing_enabled()
        assert not tracing_enabled()

    def test_jsonl_export_round_trips(self, tmp_path):
        with fresh_recorder() as rec:
            with span("a"):
                with span("b"):
                    pass
            out = tmp_path / "spans.jsonl"
            n = rec.export_jsonl(out)
        lines = out.read_text().splitlines()
        assert n == len(lines) == 2
        names = {json.loads(line)["name"] for line in lines}
        assert names == {"a", "b"}

    def test_collect_timings_accumulates_by_name(self):
        with fresh_recorder():
            with collect_timings() as timings:
                with span("k"):
                    pass
                with span("k"):
                    pass
        assert timings["k"] >= 0.0


# ---------------------------------------------------------------------------
# propagation
# ---------------------------------------------------------------------------
class TestPropagation:
    def test_carry_walks_context_across_a_thread(self):
        seen = {}
        with fresh_recorder():
            with span("root"):
                tid = current_trace_id()

                def work():
                    seen["tid"] = current_trace_id()

                t = threading.Thread(target=carry(work))
                t.start()
                t.join()
        assert seen["tid"] == tid

    def test_ship_adopt_ingest_round_trip(self):
        with fresh_recorder() as rec:
            with span("root"):
                tid = current_trace_id()
                ctx = ship_context()
            # simulate the worker process: no inherited context
            with adopt(ctx) as shipped:
                with span("remote"):
                    pass
            assert [r["name"] for r in shipped] == ["remote"]
            assert shipped[0]["trace"] == tid
            ingest(shipped)
            names = {r["name"] for r in rec.spans()}
        assert "remote" in names

    def test_adopt_none_is_inert(self):
        with adopt(None) as shipped:
            assert shipped is None

    @pytest.mark.parametrize("executor", ["process"])
    def test_one_trace_id_through_a_pool(self, executor):
        solver = BatchSolver(
            max_workers=2,
            executor=executor,
            cache=False,
            shm_min_bytes=0,  # ship every instance by shm segment
        )
        instances = [hg_for(seed=s) for s in range(4)]
        try:
            with fresh_recorder() as rec:
                with span("root"):
                    tid = current_trace_id()
                    results = solver.solve_many(instances)
                spans = rec.spans()
        finally:
            solver.close()
        assert len(results) == len(instances)
        assert {r["trace"] for r in spans} == {tid}
        names = {r["name"] for r in spans}
        assert {"engine.solve_many", "engine.solve", "engine.dispatch"} \
            <= names
        assert len({r["pid"] for r in spans}) > 1

    def test_stats_ride_on_solve_results(self):
        solver = BatchSolver(max_workers=1, executor="serial", cache=False)
        r = solver.solve_many([hg_for()])[0]
        assert r.stats["cache_hit"] is False
        assert r.stats["solve_s"] > 0.0
        assert r.stats["solve_s"] == pytest.approx(r.wall_time_s)

    def test_cache_hit_stats(self):
        solver = BatchSolver(
            max_workers=1, executor="serial", cache=ResultCache()
        )
        hg = hg_for()
        solver.solve_many([hg])
        r = solver.solve_many([hg])[0]
        assert r.cache_hit
        assert r.stats == {"solve_s": 0.0, "cache_hit": True}


# ---------------------------------------------------------------------------
# flight recorder
# ---------------------------------------------------------------------------
class TestFlightRecorder:
    def test_retains_only_slow_traces_newest_first(self):
        rec = TraceRecorder(threshold_s=0.5, keep=2)
        for i, dur in enumerate([0.1, 0.9, 0.8, 0.7]):
            rec.record({
                "name": f"t{i}", "trace": f"id{i}", "span": f"s{i}",
                "parent": None, "start": 0.0, "dur": dur, "pid": 1,
                "attrs": {},
            })
        flight = rec.flight()
        assert [t["root"] for t in flight] == ["t3", "t2"]  # keep=2
        assert rec.completed == 4 and rec.retained == 3
        assert len(rec.flight(1)) == 1

    def test_local_root_completes_a_remote_parented_trace(self):
        rec = TraceRecorder(threshold_s=0.0, keep=4)
        rec.record({
            "name": "service.request", "trace": "t", "span": "s1",
            "parent": "remote-span", "start": 0.0, "dur": 0.2, "pid": 1,
            "attrs": {}, "local_root": True,
        })
        (trace,) = rec.flight()
        assert trace["root"] == "service.request"

    def test_format_trace_tree_renders_offsets(self):
        rec = TraceRecorder(threshold_s=0.0, keep=1)
        rec.record({
            "name": "inner", "trace": "t", "span": "b", "parent": "a",
            "start": 10.001, "dur": 0.05, "pid": 7, "attrs": {"k": 1},
        })
        rec.record({
            "name": "outer", "trace": "t", "span": "a", "parent": None,
            "start": 10.0, "dur": 0.1, "pid": 7, "attrs": {},
        })
        text = format_trace_tree(rec.flight()[0])
        assert "outer" in text and "inner" in text
        assert text.index("outer") < text.index("inner")
        assert "k=1" in text


# ---------------------------------------------------------------------------
# metrics registry
# ---------------------------------------------------------------------------
class TestMetricsRegistry:
    def test_counters_gauges_histograms(self):
        reg = MetricsRegistry()
        reg.inc("reqs")
        reg.inc("reqs", 2)
        reg.set_gauge("depth", 5)
        reg.gauge("live", fn=lambda: 7)
        h = reg.histogram("lat", (0.1, 1.0))
        h.observe(0.05)
        h.observe(0.5)
        snap = reg.snapshot()
        assert snap["counters"]["reqs"] == 3
        assert snap["gauges"]["depth"] == 5
        assert snap["gauges"]["live"] == 7
        assert snap["histograms"]["lat"]["count"] == 2

    def test_histogram_window_quantiles_are_exact(self):
        reg = MetricsRegistry()
        h = reg.histogram("h", (1.0, 10.0, 100.0), window=100)
        for v in range(1, 101):
            h.observe(float(v))
        win = reg.snapshot()["histograms"]["h"]["window"]
        assert win["size"] == 100
        assert win["p50"] == pytest.approx(50.0, abs=1.0)
        assert win["p99"] == pytest.approx(99.0, abs=1.0)

    def test_name_kind_collision_is_rejected(self):
        reg = MetricsRegistry()
        reg.counter("x")
        with pytest.raises(ValueError):
            reg.histogram("x", (1.0,))

    def test_prometheus_text_exposition(self):
        reg = MetricsRegistry()
        reg.inc("service.requests", 4)
        reg.set_gauge("open-sessions", 2)
        h = reg.histogram("service.latency_s", (0.1, 1.0))
        h.observe(0.05)
        text = reg.prometheus_text()
        assert 'repro_service_requests 4' in text
        assert 'repro_open_sessions 2' in text
        assert 'repro_service_latency_s_count 1' in text
        assert 'le="+Inf"' in text


# ---------------------------------------------------------------------------
# the cross-layer contract: one request, one trace
# ---------------------------------------------------------------------------
class TestServiceTracing:
    def test_one_round_trip_yields_one_cross_layer_trace(self):
        clear_compile_cache()
        trace_mod.RECORDER.clear()
        with running_server(trace_threshold_s=0.0) as (server, _loop):
            with ServiceClient(port=server.port) as client:
                r = client.solve(hg_for(seed=3))
                recorder = client.traces()
        assert recorder["enabled"] is True
        # find the request trace (threshold 0 retains every completion)
        request_traces = [
            t for t in recorder["traces"]
            if t["root"] == "service.request"
        ]
        assert request_traces, recorder["traces"]
        trace = request_traces[0]
        names = {s["name"] for s in trace["spans"]}
        assert {
            "service.request",
            "service.op.solve",
            "service.batch.flush",
            "engine.solve_many",
            "engine.solve",
            "kernels.compile",
        } <= names, names
        assert len({s["trace"] for s in trace["spans"]}) == 1
        # the solve's wire stats carry the breakdown
        assert r.stats["solve_s"] > 0.0
        assert r.stats["queue_s"] >= 0.0
        assert r.stats["compile_s"] > 0.0
        assert r.stats["cache_hit"] is False

    def test_trace_op_count_and_validation(self):
        with running_server(trace_threshold_s=0.0) as (server, _loop):
            with ServiceClient(port=server.port) as client:
                for s in range(3):
                    client.solve(hg_for(seed=10 + s))
                some = client.traces(count=2)
                assert len(some["traces"]) <= 2
                from repro.service import RemoteError

                with pytest.raises(RemoteError):
                    client.call("trace", count="three")

    def test_tracing_off_server_records_nothing(self):
        trace_mod.RECORDER.clear()
        with running_server(tracing=False) as (server, _loop):
            with ServiceClient(port=server.port) as client:
                client.solve(hg_for(seed=4))
                recorder = client.traces()
        assert recorder["enabled"] is False
        assert recorder["traces"] == []
        assert trace_mod.RECORDER.spans() == []

    def test_prometheus_metrics_over_the_wire(self):
        with running_server() as (server, _loop):
            with ServiceClient(port=server.port) as client:
                client.solve(hg_for(seed=5))
                text = client.metrics(format="prometheus")["text"]
        assert "repro_service_requests" in text
        assert "repro_service_request_latency_s_count" in text
