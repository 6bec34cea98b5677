"""Per-layer metrics of a traced run.

Each workload's recorded inputs and answers are replayed, in the
benchmark process and on the same bytes and instances, through the
public function of every layer a request crosses (client encode, frame
codec, instance parse, digest, compile, the four heuristics, session
repair), and the counters the program already exposes are read back:
the ``metrics`` op, ``RemoteSolveResult.stats`` and a session's
``repair``/``compile`` description.

A metric whose layer a workload never reaches reads 0 (README.md lists
which workload moves which metric).
"""

from __future__ import annotations

import time

from common import at_reference_speed, median, tail

from repro.algorithms import (
    expected_greedy_hyp,
    expected_vector_greedy_hyp,
    sorted_greedy_hyp,
    vector_greedy_hyp,
)
from repro.dynamic import DynamicInstance, IncrementalSolver, Mutation
from repro.engine.cache import instance_digest
from repro.kernels import compile_instance
from repro.service import RemoteSolveResult, instance_to_wire, options_to_wire
from repro.service.protocol import (
    decode_frame,
    encode_frame,
    ok_response,
    request,
)
from repro.service.wire import hypergraph_from_wire

ALGORITHMS = (
    ("SGH", sorted_greedy_hyp),
    ("VGH", vector_greedy_hyp),
    ("EGH", expected_greedy_hyp),
    ("EVG", expected_vector_greedy_hyp),
)

#: Answers replayed through the codec layers per traced run.
REPLAYS = 8

NAMES = (
    "client.encode_ms", "client.decode_ms", "client.request_kb",
    "client.response_kb", "server.decode_ms", "server.parse_ms",
    "server.encode_ms", "engine.digest_ms", "engine.result_hit_ratio",
    "engine.result_misses", "kernels.compile_ms", "kernels.patch_emits",
    "kernels.full_builds", *(f"algorithms.solve_ms.{a}" for a, _ in ALGORITHMS),
    "engine.solve_ms", "engine.compile_ms", "engine.queue_ms",
    "batching.mean_batch", "dedup.follower_ratio", "server.op_p50_ms",
    "server.op_p99_ms", "server.loop_stall_ms", "server.shed_ratio",
    "server.unaccounted_ms", "shard.hop_ms", "dynamic.repair_ms",
    "dynamic.ls_moves_per_mutation", "dynamic.local_repairs",
    "dynamic.full_solves", "dynamic.fallbacks", "obs.traced_over_untraced",
)

_CODEC = (
    "client.encode_ms", "client.decode_ms", "client.request_kb",
    "client.response_kb", "server.decode_ms", "server.parse_ms",
    "server.encode_ms", "engine.digest_ms", "kernels.compile_ms",
)


def _ms(start: float) -> float:
    return (time.perf_counter() - start) * 1e3


def _medians(samples: dict[str, list[float]]) -> dict[str, float]:
    return {name: median(vals) for name, vals in samples.items() if vals}


def _base() -> dict[str, float]:
    return {name: 0.0 for name in NAMES}


# ----------------------------------------------------------------------
# replays
# ----------------------------------------------------------------------
def solve_codec(answers, method: str) -> dict[str, float]:
    """Median cost of each layer a ``solve`` crosses, replayed on
    ``(instance, RemoteSolveResult.raw)`` pairs.  Compile is timed only
    on the first sighting of a digest, so it is always a cold one."""
    samples: dict[str, list[float]] = {name: [] for name in _CODEC}
    compiled: set[str] = set()
    options = options_to_wire(method=method)
    for hg, raw in answers:
        t = time.perf_counter()
        frame = encode_frame(
            request("solve", 1, instance=instance_to_wire(hg), options=options)
        )
        samples["client.encode_ms"].append(_ms(t))
        samples["client.request_kb"].append(len(frame) / 1024)
        t = time.perf_counter()
        envelope = decode_frame(frame)
        samples["server.decode_ms"].append(_ms(t))
        t = time.perf_counter()
        parsed = hypergraph_from_wire(envelope["instance"])
        samples["server.parse_ms"].append(_ms(t))
        t = time.perf_counter()
        digest = instance_digest(parsed)
        samples["engine.digest_ms"].append(_ms(t))
        if digest not in compiled:
            compiled.add(digest)
            t = time.perf_counter()
            compile_instance(parsed, digest=digest)
            samples["kernels.compile_ms"].append(_ms(t))
        t = time.perf_counter()
        reply = encode_frame(ok_response(1, raw))
        samples["server.encode_ms"].append(_ms(t))
        samples["client.response_kb"].append(len(reply) / 1024)
        t = time.perf_counter()
        result = RemoteSolveResult.from_wire(decode_frame(reply)["result"])
        result.matching(hg)
        samples["client.decode_ms"].append(_ms(t))
    return _medians(samples)


def algorithms(instances) -> dict[str, float]:
    """Each heuristic on each instance, with its compilation warm."""
    samples: dict[str, list[float]] = {}
    for hg in instances:
        compile_instance(hg)
        for name, solve in ALGORITHMS:
            t = time.perf_counter()
            solve(hg)
            samples.setdefault(f"algorithms.solve_ms.{name}", []).append(
                _ms(t)
            )
    return _medians(samples)


def engine_stats(stats: list[dict]) -> dict[str, float]:
    """Medians of ``SolveResult.stats`` over the answers that solved."""
    solved = [s for s in stats if not s.get("cache_hit")]
    compiled = [s["compile_s"] for s in solved if "compile_s" in s]
    if not solved:
        return {}
    return {
        "engine.solve_ms": median([s["solve_s"] for s in solved]) * 1e3,
        # only solves of a digest not yet compiled report compile_s
        "engine.compile_ms": median(compiled) * 1e3 if compiled else 0.0,
        "engine.queue_ms": median([s.get("queue_s", 0.0) for s in solved])
        * 1e3,
    }


def server_counters(snap: dict) -> dict[str, float]:
    """The ``metrics`` op of one plain server."""
    counters = snap["counters"]
    cache = snap.get("engine_cache") or {}
    hits, misses = cache.get("hits", 0), cache.get("misses", 0)
    batches = snap["batch_size"]
    window = snap["request_latency_s"]["window"]
    return {
        "engine.result_hit_ratio": hits / max(hits + misses, 1),
        "engine.result_misses": float(misses),
        "batching.mean_batch": batches["sum"] / max(batches["count"], 1),
        "dedup.follower_ratio": counters.get("dedup_followers", 0)
        / max(counters.get("requests.solve", 0), 1),
        "server.op_p50_ms": window["p50"] * 1e3,
        "server.op_p99_ms": window["p99"] * 1e3,
        "server.shed_ratio": counters.get("load_shed", 0)
        / max(counters.get("requests", 0), 1),
    }


def _unaccounted(client_p50_ms: float, out: dict[str, float]) -> float:
    return client_p50_ms - sum(
        out[name]
        for name in (
            "client.encode_ms", "client.decode_ms", "server.decode_ms",
            "server.op_p50_ms", "server.encode_ms",
        )
    )


def _overhead(ops) -> float:
    """Traced over bare operation p50, both at the reference speed;
    ``ops`` are ``(seconds, probe seconds, traced)`` in the order run."""
    scaled = at_reference_speed([(s, p) for s, p, _ in ops])
    traced = [x for x, (_, _, on) in zip(scaled, ops) if on]
    bare = [x for x, (_, _, on) in zip(scaled, ops) if not on]
    return median(traced) / median(bare) if traced and bare else 0.0


def dynamic_replay(baseline, batches, method: str) -> dict:
    """A local incremental solver over the same mutation batches: the
    bottleneck after opening and after every batch, and the time of
    each batch's ``apply`` calls plus the repaired ``bottleneck()``."""
    instance = DynamicInstance.from_hypergraph(baseline)
    solver = IncrementalSolver(instance, method=method)
    bottlenecks = [solver.bottleneck()]
    repair_ms = []
    for batch in batches:
        mutations = [Mutation.from_dict(record) for record in batch]
        t = time.perf_counter()
        for mutation in mutations:
            instance.apply(mutation)
        bottlenecks.append(solver.bottleneck())
        repair_ms.append(_ms(t))
    return {"bottlenecks": bottlenecks, "repair_ms": repair_ms}


# ----------------------------------------------------------------------
# per workload
# ----------------------------------------------------------------------
def large_cold(records, snap: dict, pings: list[float]) -> dict:
    """``records`` are ``(hg, result, matching, seconds, probe seconds,
    traced)`` per answered solve, in the order run."""
    out = _base()
    method = records[0][1].method
    out.update(
        solve_codec([(r[0], r[1].raw) for r in records[:REPLAYS]], method)
    )
    out.update(algorithms([records[0][0]]))
    out.update(engine_stats([r[1].stats for r in records]))
    out.update(server_counters(snap))
    out["server.loop_stall_ms"] = tail([p * 1e3 for p in pings])[1]
    out["server.unaccounted_ms"] = _unaccounted(
        median([r[3] for r in records if not r[5]]) * 1e3, out
    )
    out["obs.traced_over_untraced"] = _overhead(
        [(r[3], r[4], r[5]) for r in records]
    )
    return out


def _worker_window_p50(snap: dict) -> float:
    total, weighted = 0, 0.0
    for shard in snap.get("shards", {}).values():
        window = shard.get("metrics", {}).get("request_latency_s", {}).get(
            "window", {}
        )
        size = window.get("size", 0)
        total += size
        weighted += size * window.get("p50", 0.0)
    return weighted / total if total else 0.0


def _worker_sum(snap: dict, key: str, field: str) -> float:
    return sum(
        (shard.get("metrics", {}).get(key) or {}).get(field, 0)
        for shard in snap.get("shards", {}).values()
    )


def session_pool(baseline, timed, batches, final, snap, bursts, local,
                 pings) -> dict:
    """``timed`` are ``(batch index, description, seconds, probe seconds,
    traced)`` per timed batch; ``bursts`` the ``stats`` of the solves the
    traced run sends through the pool after the stream."""
    out = _base()
    samples: dict[str, list[float]] = {}
    for index, info, *_ in timed[:32]:
        t = time.perf_counter()
        frame = encode_frame(
            request(
                "session.mutate", 1, session=info["session"],
                mutations=batches[index], include_assignment=False,
            )
        )
        samples.setdefault("client.encode_ms", []).append(_ms(t))
        samples.setdefault("client.request_kb", []).append(len(frame) / 1024)
        t = time.perf_counter()
        envelope = decode_frame(frame)
        samples.setdefault("server.decode_ms", []).append(_ms(t))
        t = time.perf_counter()
        for record in envelope["mutations"]:
            Mutation.from_dict(record)
        samples.setdefault("server.parse_ms", []).append(_ms(t))
        t = time.perf_counter()
        reply = encode_frame(ok_response(1, info))
        samples.setdefault("server.encode_ms", []).append(_ms(t))
        samples.setdefault("client.response_kb", []).append(len(reply) / 1024)
        t = time.perf_counter()
        decode_frame(reply)
        samples.setdefault("client.decode_ms", []).append(_ms(t))
    out.update(_medians(samples))
    parsed = hypergraph_from_wire(instance_to_wire(baseline))
    t = time.perf_counter()
    digest = instance_digest(parsed)
    out["engine.digest_ms"] = _ms(t)
    t = time.perf_counter()
    compile_instance(parsed, digest=digest)
    out["kernels.compile_ms"] = _ms(t)
    out.update(algorithms([parsed]))
    out.update(engine_stats(bursts))
    hits = _worker_sum(snap, "engine_cache", "hits")
    misses = _worker_sum(snap, "engine_cache", "misses")
    batch_sum = _worker_sum(snap, "batch_size", "sum")
    batch_count = _worker_sum(snap, "batch_size", "count")
    front = snap["request_latency_s"]["window"]
    counters = snap["counters"]
    out.update(
        {
            "engine.result_hit_ratio": hits / max(hits + misses, 1),
            "engine.result_misses": float(misses),
            "batching.mean_batch": batch_sum / max(batch_count, 1),
            "dedup.follower_ratio": counters.get("dedup_followers", 0)
            / max(counters.get("requests.solve", 0), 1),
            "server.op_p50_ms": front["p50"] * 1e3,
            "server.op_p99_ms": front["p99"] * 1e3,
            "server.shed_ratio": counters.get("load_shed", 0)
            / max(counters.get("requests", 0), 1),
            "shard.hop_ms": (front["p50"] - _worker_window_p50(snap)) * 1e3,
            "server.loop_stall_ms": tail([p * 1e3 for p in pings])[1],
        }
    )
    repair, compiled = final["repair"], final["compile"]
    out.update(
        {
            "dynamic.repair_ms": median(local["repair_ms"]),
            "dynamic.ls_moves_per_mutation": repair["ls_moves"]
            / max(repair["mutations"], 1),
            "dynamic.local_repairs": float(repair["local_repairs"]),
            "dynamic.full_solves": float(repair["full_solves"]),
            "dynamic.fallbacks": float(repair["fallbacks"]),
            "kernels.patch_emits": float(
                compiled["emits_full"] + compiled["emits_weight"]
                + compiled["emits_delta"]
            ),
            "kernels.full_builds": float(compiled["full_builds"]),
        }
    )
    out["obs.traced_over_untraced"] = _overhead([t[2:] for t in timed])
    return out


def paper_batch(instances, sweeps, cfg: dict) -> dict:
    out = _base()
    first = sweeps[0]["records"]
    by_instance = {}
    for rec in first:
        by_instance.setdefault(rec["instance"], rec)
    sample = sorted(by_instance)[: cfg["replay_instances"]]
    answers = []
    for i in sample:
        rec = by_instance[i]
        raw = {
            "assignment": rec["assignment"].tolist(),
            "makespan": rec["makespan"],
            "method": rec["method"],
            "cache_hit": False,
            "wall_time_s": rec["stats"].get("solve_s", 0.0),
            "stats": rec["stats"],
            "deduped": False,
        }
        answers.append((instances[i], raw))
    out.update(solve_codec(answers, first[0]["method"]))
    out.update(algorithms([instances[i] for i in sample]))
    records = [rec for sweep in sweeps for rec in sweep["records"]]
    out.update(engine_stats([rec["stats"] for rec in records]))
    hits = sum(s["cache"]["hits"] for s in sweeps)
    misses = sum(s["cache"]["misses"] for s in sweeps)
    out["engine.result_hit_ratio"] = hits / max(hits + misses, 1)
    out["engine.result_misses"] = float(misses)
    out["obs.traced_over_untraced"] = _overhead(
        [(rec["seconds"], rec["probe"], rec["traced"]) for rec in records]
    )
    return out
