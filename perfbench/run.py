"""Run one workload of the benchmark and print its metrics.

    python3 perfbench/run.py --workload large-cold --seed 1 --seconds 20 --trace 0

Run from the root of a checkout: the program under test is imported
and spawned from the checkout's ``src``.  ``--trace 0`` reports the
end-to-end metrics of ``BENCHMARK.json``, ``--trace 1`` its per-layer
metrics.  ``--short`` shrinks every input (the benchmark's own tests
use it).

The line before last is ``detail {...}``: tail percentile and sample
counts, setup samples, the failed ratio and error codes.  The last line
is ``{"correct", "attempted", "failed", "metrics"}``.  The exit code is
0 only when every answer checked out.
"""

from __future__ import annotations

import argparse
import json
import os
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
WORKLOADS = ("large-cold", "session-pool", "paper-batch")


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--short", action="store_true")
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "repro").is_dir():
        print(
            f"perfbench: no program to measure under {ROOT / 'src'}",
            file=sys.stderr,
        )
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    from common import split_cpus

    split = split_cpus()
    if split is not None:
        # before numpy loads, so no thread of this process leaves the
        # load generator's core
        os.sched_setaffinity(0, split[0])
    sys.path.insert(0, str(ROOT / "src"))
    import workloads

    config = workloads.CONFIGS["short" if args.short else "full"]
    run = workloads.WORKLOADS[args.workload](
        config[args.workload], args.seed, args.seconds, bool(args.trace)
    )
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    values = run.layer if args.trace else run.e2e
    metrics = {
        m["name"]: {"value": float(values[m["name"]]), "unit": m["unit"]}
        for m in wanted
    }
    correct = run.invalid == 0
    print("detail " + json.dumps(run.detail, default=float), flush=True)
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": run.attempted,
                "failed": run.failed + run.invalid,
                "metrics": metrics,
            }
        ),
        flush=True,
    )
    return 0 if correct else 1


if __name__ == "__main__":
    sys.exit(main())
