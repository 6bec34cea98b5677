"""Command-line entry point: regenerate the paper's tables.

Installed as ``semimatch`` (see pyproject).  Examples::

    semimatch table1 --seeds 3 --scale small
    semimatch table2 --seeds 10 --scale full
    semimatch table3 --seeds 5
    semimatch singleproc --d 10 --seeds 3
    semimatch list
    semimatch solvers
    semimatch replay churn.jsonl --compare
    semimatch serve --port 7431
    semimatch submit instance.json --method EVG+ls --port 7431

``--scale`` controls which Table I rows run: ``small`` (n=1280),
``medium`` (n<=5120) or ``full`` (all 24 families).  Results print as
paper-vs-measured comparison tables.
"""

from __future__ import annotations

import argparse
import sys

from .instances import (
    MEDIUM_SPECS,
    PAPER_TABLE2,
    PAPER_TABLE3,
    SMALL_SPECS,
    TABLE1_SPECS,
)
from .runner import run_instances
from .singleproc import run_singleproc, singleproc_specs
from .tables import render_comparison, render_quality_table, render_table1

__all__ = ["main"]

_SCALES = {"small": SMALL_SPECS, "medium": MEDIUM_SPECS, "full": TABLE1_SPECS}


def _add_common(sub: argparse.ArgumentParser) -> None:
    sub.add_argument(
        "--seeds", type=int, default=3,
        help="random instances per family (paper: 10)",
    )
    sub.add_argument(
        "--scale", choices=sorted(_SCALES), default="small",
        help="which Table I rows to run (small: n=1280 only)",
    )
    sub.add_argument(
        "--dv", type=int, default=5,
        help="mean configurations per task (paper grid: 2, 5, 10)",
    )
    sub.add_argument(
        "--dh", type=int, default=10,
        help="step-2 degree parameter (paper grid: 2, 5, 10)",
    )
    sub.add_argument("--verbose", action="store_true")


def _specs(args, weights: str):
    from dataclasses import replace

    return [
        replace(s.with_weights(weights), dv=args.dv, dh=args.dh)
        for s in _SCALES[args.scale]
    ]


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="semimatch",
        description=(
            "Reproduce the evaluation of 'Semi-matching algorithms for "
            "scheduling parallel tasks under resource constraints' "
            "(Benoit, Langguth, Ucar, IPDPSW 2013)."
        ),
    )
    subs = parser.add_subparsers(dest="command", required=True)

    for cmd, help_ in (
        ("table1", "instance statistics (paper Table I)"),
        ("table2", "unweighted quality ratios (paper Table II)"),
        ("table3", "related-weight quality ratios (paper Table III)"),
        ("random-weights", "random-weight robustness check (TR Table 8)"),
    ):
        sub = subs.add_parser(cmd, help=help_)
        _add_common(sub)

    sp = subs.add_parser(
        "singleproc", help="greedy vs exact on bipartite instances (Sec. V-B)"
    )
    _add_common(sp)
    sp.add_argument("--d", type=int, default=10, choices=(2, 5, 10))

    subs.add_parser("list", help="list the named instance families")

    gen = subs.add_parser(
        "generate", help="sample a named instance to a JSON file"
    )
    gen.add_argument("instance", help="family name, e.g. FG-5-1-MP[-W|-R]")
    gen.add_argument("-o", "--output", required=True)
    gen.add_argument("--seed", type=int, default=0)

    slv = subs.add_parser(
        "solve", help="solve a JSON instance (from `generate` or the io API)"
    )
    slv.add_argument("path")
    slv.add_argument(
        "--method", default="EVG",
        help="any registered solver name or method expression "
             "('EVG', 'portfolio(SGH,grasp)', ...); X+ls post-optimises "
             "method X with local search ('EVG+ls'); "
             "see `semimatch solvers` for the full registry",
    )

    subs.add_parser(
        "solvers",
        help="list the registered solvers (the capability registry)",
    )

    rp = subs.add_parser(
        "replay",
        help="replay a JSONL mutation trace through the incremental "
             "engine (repro.dynamic)",
    )
    rp.add_argument("trace", help="trace file (see repro.dynamic.save_trace)")
    rp.add_argument(
        "--instance", default=None, metavar="PATH",
        help="JSON baseline instance, for traces recorded without one",
    )
    rp.add_argument(
        "--method", default="auto",
        help="registry method for full (re-)solves (default: auto)",
    )
    rp.add_argument(
        "--fallback-ratio", type=float, default=0.25, metavar="R",
        help="re-solve from scratch when one mutation displaces more "
             "than R * n_tasks tasks (default: 0.25)",
    )
    rp.add_argument(
        "--compare", action="store_true",
        help="also re-solve from scratch after every mutation and "
             "report the incremental speedup",
    )

    sw = subs.add_parser(
        "sweep",
        help="ranking robustness over the (dv, dh) grid (paper §V-A2)",
    )
    sw.add_argument("--seeds", type=int, default=2)
    sw.add_argument(
        "--weights", choices=("unit", "related", "random"),
        default="related",
    )
    sw.add_argument(
        "--grid", type=int, nargs="+", default=[2, 5, 10],
        help="dv and dh values to combine",
    )
    sw.add_argument(
        "--workers", type=int, default=None, metavar="N",
        help="solve each grid cell on an N-worker batch engine "
             "(with result caching across cells)",
    )

    sv = subs.add_parser(
        "serve",
        help="run the async solve server (repro.service) on a TCP port",
    )
    sv.add_argument("--host", default="127.0.0.1")
    sv.add_argument("--port", type=int, default=7431)
    sv.add_argument(
        "--max-batch", type=int, default=64, metavar="N",
        help="micro-batcher flush size (default: 64)",
    )
    sv.add_argument(
        "--batch-window-ms", type=float, default=2.0, metavar="MS",
        help="micro-batcher latency budget (default: 2ms)",
    )
    sv.add_argument(
        "--max-pending", type=int, default=1024, metavar="N",
        help="global admission cap on in-flight solves (default: 1024)",
    )
    sv.add_argument(
        "--max-sessions", type=int, default=64, metavar="N",
        help="cap on hosted dynamic sessions (default: 64)",
    )
    sv.add_argument(
        "--allow-shutdown", action="store_true",
        help="honor the protocol 'shutdown' op (supervised deployments)",
    )
    sv.add_argument(
        "--workers", type=int, default=0, metavar="N",
        help="shard solving across N supervised worker processes "
             "(consistent-hash routed, sessions pinned; 0 = solve "
             "in-process, default)",
    )

    sb = subs.add_parser(
        "submit",
        help="solve a JSON instance on a running `semimatch serve` server",
    )
    sb.add_argument("path", help="instance file (from `generate` or the io API)")
    sb.add_argument("--host", default="127.0.0.1")
    sb.add_argument("--port", type=int, default=7431)
    sb.add_argument(
        "--method", default=None,
        help="any registered solver name or method expression; X+ls "
             "post-optimises method X with local search "
             "(default: the server's configured default)",
    )
    sb.add_argument(
        "--repeat", type=int, default=1, metavar="N",
        help="submit the same request N times (cache/dedup demo)",
    )

    tr = subs.add_parser(
        "trace",
        help="fetch the server's flight recorder (its retained slow "
             "traces) and render them as span trees",
    )
    tr.add_argument("--host", default="127.0.0.1")
    tr.add_argument("--port", type=int, default=7431)
    tr.add_argument(
        "--count", type=int, default=None, metavar="N",
        help="only the N most recent retained traces (default: all)",
    )
    tr.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="span trees (text) or the raw trace records (json)",
    )

    mx = subs.add_parser(
        "metrics",
        help="fetch a running server's metrics snapshot",
    )
    mx.add_argument("--host", default="127.0.0.1")
    mx.add_argument("--port", type=int, default=7431)
    mx.add_argument(
        "--format", choices=("json", "prom"), default="json",
        help="JSON snapshot or Prometheus text exposition",
    )
    mx.add_argument(
        "--watch", type=float, default=None, metavar="N",
        help="re-scrape every N seconds and print the client-side "
             "deltas of the cumulative counters (ctrl-C to stop)",
    )

    tp = subs.add_parser(
        "top",
        help="live fleet dashboard: poll metrics/health and render a "
             "refreshing table (req/s, p50/p99, dedup ratio, per-worker "
             "state/generation/inflight)",
    )
    tp.add_argument("--host", default="127.0.0.1")
    tp.add_argument("--port", type=int, default=7431)
    tp.add_argument(
        "--interval", type=float, default=2.0, metavar="N",
        help="seconds between polls (default: 2)",
    )
    tp.add_argument(
        "--once", action="store_true",
        help="one poll, no screen clearing, then exit",
    )
    tp.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="rendered table or raw {metrics, health} JSON",
    )

    st = subs.add_parser(
        "stats", help="describe a JSON instance (shape, degrees, balance)"
    )
    st.add_argument("path")
    st.add_argument(
        "--solve-with", default=None, metavar="METHOD",
        help="also solve with METHOD and show the load balance",
    )

    ck = subs.add_parser(
        "check",
        help="run the repro static analyzer (lock-guard, async-blocking, "
             "kernel-purity, contract-sync, span-hygiene)",
    )
    from ..analysis import add_check_arguments

    add_check_arguments(ck)

    args = parser.parse_args(argv)

    if args.command == "check":
        from ..analysis import run_from_args

        return run_from_args(args)

    if args.command == "list":
        for s in TABLE1_SPECS:
            print(
                f"{s.name:>14}  family={s.family:<10} g={s.g:<4} "
                f"n={s.n:<6} p={s.p}"
            )
        return 0

    if args.command == "generate":
        from ..io import save_instance
        from .instances import spec_by_name

        hg = spec_by_name(args.instance).generate(args.seed)
        save_instance(hg, args.output)
        print(
            f"wrote {args.instance} (seed {args.seed}): "
            f"{hg.n_tasks} tasks, {hg.n_procs} procs, "
            f"{hg.n_hedges} hyperedges -> {args.output}"
        )
        return 0

    if args.command == "solvers":
        from ..api import get_registry, registry_table

        print(registry_table())
        print()
        print(
            "default portfolio: "
            + ", ".join(get_registry().default_portfolio())
        )
        return 0

    if args.command == "replay":
        import time

        from ..core.bipartite import BipartiteGraph
        from ..core.hypergraph import TaskHypergraph
        from ..dynamic import DynamicInstance, IncrementalSolver, load_trace
        from ..engine.dispatch import solve_hypergraph

        def baseline_and_trace():
            baseline, mutations = load_trace(args.trace)
            if baseline is not None and args.instance is not None:
                parser.error(
                    "--instance conflicts with a trace that embeds its "
                    "baseline; drop the flag to replay the embedded one"
                )
            if baseline is None:
                if args.instance is None:
                    parser.error(
                        "trace has no embedded baseline; pass --instance"
                    )
                from ..io import load_instance

                inst = load_instance(args.instance)
                if isinstance(inst, BipartiteGraph):
                    inst = TaskHypergraph.from_bipartite(inst)
                baseline = DynamicInstance.from_hypergraph(inst)
            return baseline, mutations

        baseline, mutations = baseline_and_trace()
        solver = IncrementalSolver(
            baseline,
            method=args.method,
            fallback_ratio=args.fallback_ratio,
        )
        t0 = time.perf_counter()
        baseline.replay(mutations)
        t_inc = time.perf_counter() - t0
        stats = solver.stats
        print(
            f"replayed {len(mutations)} mutations in {t_inc:.4f}s "
            f"({stats.local_repairs} local repairs, "
            f"{stats.fallbacks} fallbacks, {stats.ls_moves} moves)"
        )
        print(
            f"final: {baseline.n_tasks} tasks on {baseline.n_procs} "
            f"procs, bottleneck {solver.bottleneck():g}"
        )
        if args.compare:
            fresh, mutations = baseline_and_trace()
            t0 = time.perf_counter()
            scratch = None
            for m in mutations:
                fresh.apply(m)
                scratch = solve_hypergraph(
                    fresh.to_hypergraph(), method=args.method
                )
            if scratch is None:  # empty trace: still solve the baseline
                scratch = solve_hypergraph(
                    fresh.to_hypergraph(), method=args.method
                )
            t_scratch = time.perf_counter() - t0
            print(
                f"from-scratch re-solves: {t_scratch:.4f}s "
                f"(bottleneck {scratch.makespan:g}) -> "
                f"incremental speedup {t_scratch / max(t_inc, 1e-9):.1f}x"
            )
        return 0

    if args.command == "serve":
        import asyncio

        from ..service import ShardedSolveServer, SolveServer

        config = dict(
            host=args.host,
            port=args.port,
            max_batch=args.max_batch,
            max_delay_s=args.batch_window_ms / 1000.0,
            max_pending=args.max_pending,
            max_sessions=args.max_sessions,
            allow_shutdown=args.allow_shutdown,
        )
        if args.workers > 0:
            server = ShardedSolveServer(n_workers=args.workers, **config)
        else:
            server = SolveServer(**config)

        async def _serve():
            await server.start()
            sharding = (
                f", {args.workers} workers" if args.workers > 0 else ""
            )
            print(
                f"semimatch service listening on "
                f"{server.host}:{server.port} "
                f"(batch<= {args.max_batch}, "
                f"window {args.batch_window_ms:g}ms{sharding})",
                flush=True,
            )
            await server.serve_forever()

        try:
            asyncio.run(_serve())
        except KeyboardInterrupt:
            print("interrupted; shutting down")
        return 0

    if args.command == "submit":
        from ..io import load_instance
        from ..service import RemoteError, ServiceClient

        inst = load_instance(args.path)
        fields = {} if args.method is None else {"method": args.method}
        try:
            with ServiceClient(host=args.host, port=args.port) as client:
                for _ in range(max(args.repeat, 1)):
                    r = client.solve(inst, **fields)
                    flags = "".join(
                        f" [{f}]"
                        for f, on in (
                            ("cache hit", r.cache_hit),
                            ("deduped", r.deduped),
                        )
                        if on
                    )
                    print(
                        f"{r.method} -> {r.winner}: makespan "
                        f"{r.makespan:g} ({r.wall_time_s:.6f}s){flags}"
                    )
        except OSError as exc:
            parser.error(
                f"cannot reach semimatch service at "
                f"{args.host}:{args.port}: {exc}"
            )
        except RemoteError as exc:
            parser.error(f"[{exc.code}] {exc}")
        return 0

    if args.command in ("trace", "metrics", "top"):
        import json

        from ..service import RemoteError, ServiceClient

        try:
            with ServiceClient(host=args.host, port=args.port) as client:
                if args.command == "top":
                    from .top import run_top

                    return run_top(
                        client,
                        interval_s=args.interval,
                        once=args.once,
                        fmt=args.format,
                    )
                if args.command == "metrics":
                    if args.watch is not None:
                        if args.format != "json":
                            parser.error(
                                "--watch only supports --format json"
                            )
                        from .top import run_watch

                        return run_watch(client, interval_s=args.watch)
                    if args.format == "prom":
                        print(
                            client.metrics(format="prometheus")["text"],
                            end="",
                        )
                    else:
                        print(json.dumps(
                            client.metrics(), indent=2, sort_keys=True
                        ))
                    return 0
                recorder = client.traces(count=args.count)
        except OSError as exc:
            parser.error(
                f"cannot reach semimatch service at "
                f"{args.host}:{args.port}: {exc}"
            )
        except RemoteError as exc:
            parser.error(f"[{exc.code}] {exc}")
        if args.format == "json":
            print(json.dumps(recorder, indent=2, sort_keys=True))
            return 0
        from ..obs.trace import format_trace_tree

        traces = recorder["traces"]
        state = "enabled" if recorder["enabled"] else "disabled"
        print(
            f"flight recorder: {len(traces)} trace(s) retained "
            f"(tracing {state}, threshold "
            f"{recorder['threshold_s'] * 1000:g}ms, "
            f"keep {recorder['keep']})"
        )
        for trace in traces:
            print()
            print(format_trace_tree(trace))
        return 0

    if args.command == "solve":
        from ..algorithms.lower_bounds import averaged_work_bound
        from ..api import UnknownSolverError, get_registry
        from ..core.bipartite import BipartiteGraph
        from ..io import load_instance

        inst = load_instance(args.path)
        if isinstance(inst, BipartiteGraph):
            try:
                spec = get_registry().resolve(
                    args.method,
                    domain="bipartite",
                    context="bipartite method",
                )
            except UnknownSolverError as exc:
                parser.error(str(exc))
            m = spec.run(inst)
            print(f"{spec.name}: makespan {m.makespan:g}")
        else:
            from ..engine import solve_hypergraph

            try:
                m = solve_hypergraph(inst, method=args.method)
            except ValueError as exc:
                # UnknownSolverError, bad '+suffix' parses, and
                # SINGLEPROC-on-MULTIPROC capability guards all derive
                # from ValueError: report them as usage errors, not
                # tracebacks
                parser.error(str(exc))
            lb = averaged_work_bound(inst)
            print(
                f"{args.method}: "
                f"makespan {m.makespan:g} "
                f"(LB {lb:g}, quality {m.makespan / lb:.3f})"
            )
        return 0

    if args.command == "sweep":
        from .instances import SMALL_SPECS
        from .sweep import ranking_sweep

        base = [s.with_weights(args.weights) for s in SMALL_SPECS]
        sweep = ranking_sweep(
            base,
            dv_values=tuple(args.grid),
            dh_values=tuple(args.grid),
            n_seeds=args.seeds,
            max_workers=args.workers,
        )
        print(sweep.describe())
        return 0

    if args.command == "stats":
        from ..core.bipartite import BipartiteGraph
        from ..core.stats import bipartite_stats, instance_stats, load_stats
        from ..io import load_instance
        from ..viz import degree_histogram, load_bars

        inst = load_instance(args.path)
        if isinstance(inst, BipartiteGraph):
            print(bipartite_stats(inst).describe())
        else:
            print(instance_stats(inst).describe())
        print()
        print(degree_histogram(inst))
        if args.solve_with:
            from ..api import UnknownSolverError, get_registry

            domain = (
                "bipartite"
                if isinstance(inst, BipartiteGraph)
                else "hypergraph"
            )
            try:
                spec = get_registry().resolve(
                    args.solve_with, domain=domain, context="method"
                )
            except UnknownSolverError as exc:
                parser.error(str(exc))
            m = spec.run(inst)
            print()
            print(load_stats(m).describe())
            print()
            print(load_bars(m, max_procs=16))
        return 0

    if args.command == "table1":
        res = run_instances(
            _specs(args, "unit"), n_seeds=args.seeds, verbose=args.verbose,
            algorithms=("SGH",),
        )
        print(render_table1(res))
        return 0

    if args.command in ("table2", "table3", "random-weights"):
        weights = {"table2": "unit", "table3": "related",
                   "random-weights": "random"}[args.command]
        res = run_instances(
            _specs(args, weights), n_seeds=args.seeds, verbose=args.verbose
        )
        paper = {"table2": PAPER_TABLE2, "table3": PAPER_TABLE3}.get(
            args.command
        )
        if (args.dv, args.dh) != (5, 10):
            paper = None  # the paper's printed values are for dv=5, dh=10
        title = (
            f"{args.command} ({weights} weights, {args.seeds} seeds, "
            f"dv={args.dv}, dh={args.dh})"
        )
        if paper:
            print(render_comparison(res, paper, title))
        else:
            print(render_quality_table(res, title))
        avg_t = res.average_time()
        print(
            "Average time (s): "
            + "  ".join(f"{a}={avg_t[a]:.3f}" for a in res.algorithms)
        )
        return 0

    if args.command == "singleproc":
        sizes = {
            "small": ((5, 1),),
            "medium": ((5, 1), (20, 1), (20, 4)),
            "full": ((5, 1), (20, 1), (20, 4), (80, 1), (80, 4), (80, 16)),
        }[args.scale]
        res = run_singleproc(
            singleproc_specs(d=args.d, sizes=sizes),
            n_seeds=args.seeds,
            verbose=args.verbose,
        )
        print(f"singleproc (d={args.d}, {args.seeds} seeds)")
        header = f"{'Instance':>16}  {'opt':>6}  " + "  ".join(
            f"{a:>16}" for a in res.algorithms
        )
        print(header)
        for r in res.rows:
            print(
                f"{r.name:>16}  {r.optimum:>6g}  "
                + "  ".join(f"{r.quality[a]:>16.3f}" for a in res.algorithms)
            )
        avg_q = res.average_quality()
        avg_t = res.average_time()
        print(
            "Average quality: "
            + "  ".join(f"{a}={avg_q[a]:.3f}" for a in res.algorithms)
        )
        print(
            "Average time (s): "
            + "  ".join(f"{a}={avg_t[a]:.4f}" for a in avg_t)
        )
        return 0

    parser.error(f"unhandled command {args.command!r}")  # pragma: no cover
    return 2  # pragma: no cover


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
