"""Fleet observability: stitched traces, aggregated metrics, health.

The unit half exercises the pure pieces — bucket-wise histogram
merging (fleet percentiles come from the merged cumulative walk, never
from averaging per-worker percentiles), the typed unreachable marker,
budget validation and verdict scoring, and the ``top`` / ``--watch``
polling loops driven by a fake client.  The live half runs against a
real 2-worker pool and proves the acceptance criteria end to end: one
traced sharded solve yields a *single* trace id whose spans cross the
process boundary (front-end and worker pids) down to ``engine.solve``;
``metrics aggregate=true`` satisfies the count identity; the ``health``
op answers typed verdicts; and ``semimatch top --once --format json``
round-trips through the real CLI.
"""

from __future__ import annotations

import json
import os

import pytest

from repro.experiments import cli
from repro.experiments.top import (
    counter_deltas,
    render_fleet,
    run_top,
    run_watch,
)
from repro.obs import trace as trace_mod
from repro.obs.fleet import aggregate_fleet, is_unreachable, unreachable_marker
from repro.obs.health import SEVERITIES, HealthBudget, score_fleet
from repro.obs.metrics import (
    Histogram,
    merge_counter_maps,
    merge_histogram_snapshots,
)
from repro.obs.trace import TraceRecorder, span
from repro.service import RemoteError, ServiceClient
from repro.service.protocol import ErrorCode
from test_shard import running_pool, small_instances

# ---------------------------------------------------------------------------
# snapshot merging
# ---------------------------------------------------------------------------
BOUNDS = [0.001, 0.01, 0.1, 1.0]


def _hist(values):
    h = Histogram(BOUNDS)
    for v in values:
        h.observe(v)
    return h


class TestMerging:
    def test_counter_maps_sum_key_wise(self):
        merged = merge_counter_maps(
            [{"a": 1, "b": 2}, {"b": 3, "c": 4}, {}]
        )
        assert merged == {"a": 1, "b": 5, "c": 4}

    def test_histogram_merge_satisfies_the_count_identity(self):
        snaps = [
            _hist([0.0005, 0.005, 0.05]).snapshot(),
            _hist([0.05, 0.5, 5.0]).snapshot(),
        ]
        merged = merge_histogram_snapshots(snaps)
        assert merged["count"] == sum(s["count"] for s in snaps) == 6
        assert merged["sum"] == pytest.approx(
            sum(s["sum"] for s in snaps)
        )
        assert merged["merged_from"] == 2
        for i, (bound, count) in enumerate(merged["buckets"]):
            assert count == sum(s["buckets"][i][1] for s in snaps)
            assert bound == snaps[0]["buckets"][i][0]
        # the fleet view is cumulative-only: per-process raw windows
        # cannot be merged, so no window block may leak through
        assert "window" not in merged

    def test_merged_percentiles_walk_the_merged_buckets(self):
        # worker A: 99 fast requests; worker B: 99 slow ones.  The
        # merged p50 must come from the combined distribution (half the
        # mass is slow), not from averaging the per-worker p50s.
        fast = _hist([0.0005] * 99).snapshot()
        slow = _hist([0.5] * 99).snapshot()
        assert fast["p50"] == 0.001 and slow["p50"] == 1.0
        merged = merge_histogram_snapshots([fast, slow])
        assert merged["p50"] == 0.001  # rank 99 of 198 is still fast
        assert merged["p99"] == 1.0

    def test_mismatched_bounds_refuse_to_merge(self):
        other = Histogram([0.5, 5.0])
        other.observe(0.1)
        with pytest.raises(ValueError):
            merge_histogram_snapshots(
                [_hist([0.1]).snapshot(), other.snapshot()]
            )

    def test_empty_merge_is_an_error(self):
        with pytest.raises(ValueError):
            merge_histogram_snapshots([])


class TestAggregateFleet:
    def _worker_snap(self, values, *, pending=0, requests=1):
        return {
            "counters": {"requests": requests},
            "request_latency_s": _hist(values).snapshot(),
            "batch_size": _hist([float(len(values))]).snapshot(),
            "pending": pending,
            "uptime_s": 12.5,
            "sessions": {"open": 2, "max": 64},
        }

    def test_reachable_workers_merge_and_tag(self):
        fleet = aggregate_fleet(
            {
                "w0": self._worker_snap([0.005], pending=3, requests=4),
                "w1": self._worker_snap([0.05], pending=0, requests=6),
            }
        )
        assert fleet["workers"] == ["w0", "w1"]
        assert fleet["workers_unreachable"] == []
        assert fleet["counters"] == {"requests": 10}
        assert fleet["request_latency_s"]["count"] == 2
        # point-in-time values stay per-worker gauges, never summed
        assert fleet["gauges"]["w0.pending"] == 3.0
        assert fleet["gauges"]["w1.pending"] == 0.0
        assert fleet["gauges"]["w0.sessions_open"] == 2.0

    def test_unreachable_workers_are_typed_and_excluded(self):
        marker = unreachable_marker("TimeoutError: scrape timed out")
        assert is_unreachable(marker)
        assert not is_unreachable(self._worker_snap([0.01]))
        fleet = aggregate_fleet(
            {"w0": self._worker_snap([0.01], requests=7), "w1": marker}
        )
        assert fleet["workers"] == ["w0"]
        assert fleet["workers_unreachable"] == ["w1"]
        assert fleet["counters"] == {"requests": 7}
        assert fleet["request_latency_s"]["count"] == 1

    def test_nothing_reachable_yields_empty_view(self):
        fleet = aggregate_fleet({"w0": unreachable_marker("boom")})
        assert fleet["workers"] == []
        assert fleet["workers_unreachable"] == ["w0"]
        assert fleet["request_latency_s"] is None
        assert fleet["counters"] == {}


# ---------------------------------------------------------------------------
# health scoring
# ---------------------------------------------------------------------------
class TestHealthBudget:
    def test_from_wire_defaults_and_overrides(self):
        assert HealthBudget.from_wire(None) == HealthBudget()
        custom = HealthBudget.from_wire({"latency_p99_s": 0.5})
        assert custom.latency_p99_s == 0.5
        assert custom.shed_ratio_critical == HealthBudget().shed_ratio_critical

    @pytest.mark.parametrize(
        "bad",
        [
            "nope",
            ["latency_p99_s"],
            {"unknown_knob": 1.0},
            {"latency_p99_s": "fast"},
            {"latency_p99_s": True},
            {"latency_p99_s": 0.0},
            {"shed_ratio_degraded": -1},
        ],
    )
    def test_from_wire_rejects_malformed(self, bad):
        with pytest.raises(ValueError):
            HealthBudget.from_wire(bad)


class TestScoreFleet:
    def test_healthy_fleet_is_ok(self):
        verdict = score_fleet(
            {
                "workers": 2,
                "workers_up": 2,
                "workers_unreachable": 0,
                "requests": 100,
                "load_shed": 0,
                "latency_p99_s": 0.01,
                "workers_lost": 0,
                "uptime_s": 3600.0,
            }
        )
        assert verdict["verdict"] == "ok"
        assert verdict["reasons"] == []
        assert set(verdict["checks"]) == {
            "workers",
            "unreachable",
            "shed",
            "latency",
            "restarts",
        }
        assert verdict["budget"]["latency_p99_s"] == 0.25

    def test_absent_inputs_skip_their_checks(self):
        verdict = score_fleet({})
        assert verdict["verdict"] == "ok"
        assert verdict["checks"] == {}

    def test_dead_fleet_is_critical_and_reasons_sort_worst_first(self):
        verdict = score_fleet(
            {
                "workers": 2,
                "workers_up": 0,
                "workers_unreachable": 2,
            }
        )
        assert verdict["verdict"] == "critical"
        severities = [r["severity"] for r in verdict["reasons"]]
        assert severities == ["critical", "degraded"]
        assert verdict["reasons"][0]["check"] == "workers"

    def test_latency_grades_against_the_budget(self):
        budget = HealthBudget.from_wire({"latency_p99_s": 0.1})
        ok = score_fleet({"latency_p99_s": 0.05}, budget)
        degraded = score_fleet({"latency_p99_s": 0.2}, budget)
        critical = score_fleet({"latency_p99_s": 0.5}, budget)
        assert ok["checks"]["latency"] == "ok"
        assert degraded["checks"]["latency"] == "degraded"
        assert critical["checks"]["latency"] == "critical"

    def test_shed_and_pressure_ratios(self):
        verdict = score_fleet(
            {
                "requests": 100,
                "load_shed": 15,
                "pins_open": 96,
                "pins_capacity": 100,
                "tombstones": 10,
                "tombstones_capacity": 100,
            }
        )
        assert verdict["checks"]["shed"] == "critical"
        assert verdict["checks"]["pins"] == "critical"
        assert verdict["checks"]["tombstones"] == "ok"
        assert verdict["verdict"] == "critical"

    def test_restart_churn_clamps_young_uptime(self):
        # one crash 5 seconds in: the rate is graded as if ten minutes
        # had passed (1/2/(1/6) = 3 per worker-hour), so a fresh
        # fleet's first crash is degraded churn, never instant panic
        verdict = score_fleet(
            {"workers": 2, "workers_up": 2, "workers_lost": 1,
             "uptime_s": 5.0}
        )
        assert verdict["checks"]["restarts"] == "degraded"
        # sustained churn over real uptime still escalates
        sustained = score_fleet(
            {"workers": 2, "workers_up": 2, "workers_lost": 40,
             "uptime_s": 3600.0}
        )
        assert sustained["checks"]["restarts"] == "critical"


# ---------------------------------------------------------------------------
# the polling loops, on a fake client
# ---------------------------------------------------------------------------
class _FakeClient:
    def __init__(self, snaps):
        self._snaps = list(snaps)
        self.calls = 0

    def _next(self):
        snap = self._snaps[min(self.calls, len(self._snaps) - 1)]
        self.calls += 1
        return snap

    def call(self, op, **payload):
        assert op == "metrics" and payload.get("aggregate") is True
        return self._next()

    def metrics(self):
        return self._next()

    def health(self, *, budget=None):
        return {"verdict": "ok", "reasons": [], "checks": {}}


class TestPollingLoops:
    def test_counter_deltas_clamp_restarts(self):
        assert counter_deltas({"a": 5}, {"a": 9, "b": 2}) == {
            "a": 4,
            "b": 2,
        }
        # a restarted server re-reads as fresh absolutes, never negative
        assert counter_deltas({"a": 50}, {"a": 3}) == {"a": 3}
        assert counter_deltas({"a": 5}, {"a": 5}) == {}

    def test_run_top_json_emits_one_document(self):
        snap = {"counters": {"requests": 3}, "uptime_s": 1.0}
        out: list[str] = []
        rc = run_top(
            _FakeClient([snap]), once=True, fmt="json", out=out.append
        )
        assert rc == 0 and len(out) == 1
        doc = json.loads(out[0])
        assert doc["metrics"]["counters"]["requests"] == 3
        assert doc["health"]["verdict"] == "ok"

    def test_run_top_text_renders_worker_rows(self):
        snap = {
            "counters": {"requests": 10, "dedup_followers": 2},
            "request_latency_s": {"p50": 0.001, "p99": 0.01},
            "uptime_s": 42.0,
            "pending": 1,
            "shards": {
                "w0": {
                    "state": "up",
                    "generation": 1,
                    "pid": 123,
                    "inflight": 0,
                    "sessions": 0,
                    "metrics": {"counters": {"requests": 6}},
                },
                "w1": {
                    "state": "up",
                    "generation": 2,
                    "pid": 124,
                    "inflight": 1,
                    "sessions": 0,
                    "metrics": unreachable_marker("boom"),
                },
            },
            "fleet": {
                "workers": ["w0"],
                "workers_unreachable": ["w1"],
                "request_latency_s": {
                    "count": 6,
                    "p50": 0.001,
                    "p99": 0.01,
                },
            },
        }
        out: list[str] = []
        rc = run_top(
            _FakeClient([snap]),
            once=True,
            iterations=1,
            out=out.append,
            clear=False,
        )
        assert rc == 0
        body = out[0]
        assert "w0" in body and "w1" in body
        assert "unreachable" in body
        assert "1 unreachable" in body

    def test_render_fleet_degrades_on_plain_servers(self):
        body = render_fleet(
            {"counters": {"requests": 1}}, {"verdict": "ok"}
        )
        assert "health ok" in body
        assert "worker" not in body  # no shards block, no table

    def test_run_watch_prints_baseline_then_deltas(self):
        snaps = [
            {"counters": {"requests": 2}},
            {"counters": {"requests": 5}},
            {"counters": {"requests": 5}},
        ]
        out: list[str] = []
        rc = run_watch(
            _FakeClient(snaps),
            interval_s=0.0,
            iterations=3,
            out=out.append,
        )
        assert rc == 0 and len(out) == 3
        assert out[0].startswith("baseline: ")
        assert json.loads(out[0][len("baseline: "):]) == {"requests": 2}
        assert '{"requests": 3}' in out[1]
        assert "(idle)" in out[2]


# ---------------------------------------------------------------------------
# against a live 2-worker pool
# ---------------------------------------------------------------------------
@pytest.fixture(scope="module")
def pool():
    with running_pool(n_workers=2) as (server, loop):
        yield server, loop


class TestLiveFleet:
    def test_traced_solve_stitches_one_cross_process_trace(self, pool):
        """Acceptance: one sharded solve under a traced client yields a
        single trace id whose spans include the front-end request and
        the worker-side engine spans — distinct pids — down to
        ``engine.solve``."""
        server, _loop = pool
        hg = small_instances(1, n_tasks=32, seed0=9000)[0]
        old = trace_mod.RECORDER
        rec = trace_mod.RECORDER = TraceRecorder(
            capacity=8192, threshold_s=1e9
        )
        try:
            with ServiceClient(port=server.port, timeout=120.0) as client:
                with span("test.fleet.solve") as root:
                    result = client.solve(hg)
            assert result.makespan > 0
            trace_id = root.trace_id
        finally:
            trace_mod.RECORDER = old
        mine = [r for r in rec.spans() if r["trace"] == trace_id]
        names = {r["name"] for r in mine}
        assert {
            "test.fleet.solve",
            "service.request",
            "service.op.solve",
            "service.shard.worker",
            "engine.solve",
        } <= names
        # exactly one trace id end to end, spanning >= 2 processes
        assert {r["trace"] for r in mine} == {trace_id}
        pids = {r["pid"] for r in mine}
        assert os.getpid() in pids  # the front-end (and this test)
        assert pids - {os.getpid()}, "no worker-side spans stitched in"
        # the shipped worker request span lost its local_root flag, so
        # ingesting it did not complete the trace early: the client
        # root still owned completion
        assert not any(r.get("local_root") for r in mine if
                       r["pid"] != os.getpid())

    def test_aggregate_metrics_satisfy_the_count_identity(self, pool):
        server, _loop = pool
        instances = small_instances(6, seed0=9100)
        with ServiceClient(port=server.port, timeout=120.0) as client:
            for hg in instances:
                client.solve(hg)
            snap = client.call("metrics", aggregate=True)
        fleet = snap["fleet"]
        assert sorted(fleet["workers"]) == sorted(snap["shards"])
        assert fleet["workers_unreachable"] == []
        per_worker = [
            info["metrics"]["request_latency_s"]
            for info in snap["shards"].values()
        ]
        merged = fleet["request_latency_s"]
        assert merged["count"] == sum(s["count"] for s in per_worker)
        assert merged["count"] >= len(instances)
        for i, (_, count) in enumerate(merged["buckets"]):
            assert count == sum(s["buckets"][i][1] for s in per_worker)
        assert fleet["counters"]["requests"] == sum(
            info["metrics"]["counters"]["requests"]
            for info in snap["shards"].values()
        )
        # per-worker point-in-time gauges are tagged, not summed
        assert any(k.endswith(".uptime_s") for k in fleet["gauges"])
        # without the flag the snapshot stays fleet-free (back-compat)
        with ServiceClient(port=server.port, timeout=120.0) as client:
            assert "fleet" not in client.metrics()

    def test_unscrapable_worker_is_typed_not_silent(self, pool):
        server, _loop = pool

        class _DeadClient:
            async def call(self, op, **payload):
                raise ConnectionError("scrape stub: worker is gone")

        shard = server._shards[0]
        unreachable = "service.workers_unreachable"
        before = server.metrics.counter_value(unreachable)
        real_client = shard.client
        shard.client = _DeadClient()
        try:
            with ServiceClient(port=server.port, timeout=120.0) as client:
                snap = client.call("metrics", aggregate=True)
        finally:
            shard.client = real_client
        info = snap["shards"][shard.name]
        assert info["metrics"]["unreachable"] is True
        assert "reason" in info["metrics"]
        assert server.metrics.counter_value(unreachable) == before + 1
        assert snap["fleet"]["workers_unreachable"] == [shard.name]
        assert shard.name not in snap["fleet"]["workers"]
        # the marker never poisons the merge: the other worker's
        # histogram still aggregates
        assert snap["fleet"]["request_latency_s"] is not None

    def test_health_op_round_trips_typed_verdicts(self, pool):
        server, _loop = pool
        with ServiceClient(port=server.port, timeout=120.0) as client:
            client.solve(small_instances(1, seed0=9200)[0])
            verdict = client.health()
            assert verdict["verdict"] in SEVERITIES
            assert verdict["workers"] == {"total": 2, "up": 2}
            assert verdict["checks"]["workers"] == "ok"
            assert "latency" in verdict["checks"]
            assert verdict["uptime_s"] > 0
            # each worker's share of its cache budget, as a ratio
            shares = verdict["cache_budget"]["workers"]
            assert set(shares) == {"w0", "w1"}
            assert all(0 <= r <= 1 for r in shares.values())
            # an impossible budget flips the latency check: the verdict
            # machinery grades against caller thresholds
            strict = client.health(budget={"latency_p99_s": 1e-9})
            assert strict["checks"]["latency"] == "critical"
            assert strict["verdict"] == "critical"
            assert any(
                r["check"] == "latency" for r in strict["reasons"]
            )

    def test_health_op_rejects_malformed_budgets(self, pool):
        server, _loop = pool
        with ServiceClient(port=server.port, timeout=120.0) as client:
            for bad in (
                {"budget": {"unknown_knob": 1.0}},
                {"budget": {"latency_p99_s": "fast"}},
                {"budget": {"latency_p99_s": -1}},
                {"budget": "nope"},
            ):
                with pytest.raises(RemoteError) as exc:
                    client.call("health", **bad)
                assert exc.value.code == ErrorCode.BAD_REQUEST

    def test_semimatch_top_once_json_round_trips(self, pool, capsys):
        server, _loop = pool
        rc = cli.main(
            [
                "top",
                "--port",
                str(server.port),
                "--once",
                "--format",
                "json",
            ]
        )
        assert rc == 0
        doc = json.loads(capsys.readouterr().out)
        assert doc["health"]["verdict"] in SEVERITIES
        snap = doc["metrics"]
        assert set(snap["shards"]) == {"w0", "w1"}
        assert snap["fleet"]["workers"] == ["w0", "w1"]
        assert snap["counters"]["requests"] >= 1

    def test_semimatch_top_once_text_renders_the_table(self, pool, capsys):
        server, _loop = pool
        rc = cli.main(
            ["top", "--port", str(server.port), "--once"]
        )
        assert rc == 0
        body = capsys.readouterr().out
        assert "semimatch fleet — health" in body
        assert "w0" in body and "w1" in body
