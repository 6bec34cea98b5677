"""Spread report: run workloads several times, summarise every metric.

    python3 perfbench/spread.py --runs 10 --seed 1 --seconds 20 \
        [--vary-seeds] [--trace 0] [--workload large-cold ...]

For each workload and metric it prints the median, the quartiles (as
``statistics.quantiles(values, n=4)`` gives them), the interquartile
range as a share of the median, that share over the metric's bound in
``BENCHMARK.json``, and the largest relative deviation of any run from
the median.  Beside the metrics it lists ``measured_p50_ms`` and
``probe_ms`` from the ``detail`` line: the operation median as measured,
before it is scaled to the reference speed, and the host-speed probe's
median.  ``--vary-seeds`` gives run ``i`` the seed ``seed + i``;
by default every run uses the same seed.  ``--json PATH`` also writes
the raw values.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def run_once(workload: str, seed: int, seconds: float, trace: int) -> dict:
    start = time.perf_counter()
    proc = subprocess.run(
        [
            sys.executable, str(HERE / "run.py"), "--workload", workload,
            "--seed", str(seed), "--seconds", str(seconds),
            "--trace", str(trace),
        ],
        cwd=str(ROOT), capture_output=True, text=True, timeout=900,
    )
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or not lines:
        raise RuntimeError(
            f"{workload} seed {seed} exited {proc.returncode}:\n"
            f"{proc.stdout[-2000:]}\n{proc.stderr[-2000:]}"
        )
    result = json.loads(lines[-1])
    values = {name: m["value"] for name, m in result["metrics"].items()}
    detail = json.loads(lines[-2].split(" ", 1)[1])
    values["measured_p50_ms"] = detail["measured"]["p50_ms"]
    values["probe_ms"] = detail["measured"]["probe_ms"]
    values["wall_s"] = time.perf_counter() - start
    return values


def summarise(values: list[float], bound: float | None) -> str:
    med = statistics.median(values)
    q1, _, q3 = statistics.quantiles(values, n=4)
    share = (q3 - q1) / med if med else 0.0
    worst = max(abs(v - med) for v in values) / med if med else 0.0
    of_bound = f"{share / bound:6.2f}" if bound else "     -"
    return (
        f"{med:12.4f} {q1:12.4f} {q3:12.4f} {share:8.2%} {of_bound} "
        f"{worst:8.2%}"
    )


def main(argv: list[str] | None = None) -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", action="append")
    parser.add_argument("--runs", type=int, default=10)
    parser.add_argument("--seed", type=int, default=1)
    parser.add_argument("--seconds", type=float, default=spec["run_seconds"])
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--vary-seeds", action="store_true")
    parser.add_argument("--json")
    args = parser.parse_args(argv)

    names = args.workload or [w["name"] for w in spec["workloads"]]
    bounds = {m["name"]: m.get("bound") for m in spec["end_to_end"]}
    raw: dict[str, list[dict]] = {}
    for workload in names:
        raw[workload] = []
        for i in range(args.runs):
            seed = args.seed + i if args.vary_seeds else args.seed
            raw[workload].append(
                run_once(workload, seed, args.seconds, args.trace)
            )
        print(f"\n{workload}: {args.runs} runs")
        print(
            f"{'metric':32} {'median':>12} {'q1':>12} {'q3':>12} "
            f"{'iqr/med':>8} {'/bound':>6} {'maxdev':>8}"
        )
        for metric in raw[workload][0]:
            values = [run[metric] for run in raw[workload]]
            print(f"{metric:32} {summarise(values, bounds.get(metric))}")
        sys.stdout.flush()
    if args.json:
        Path(args.json).write_text(json.dumps(raw, indent=1))
    return 0


if __name__ == "__main__":
    sys.exit(main())
