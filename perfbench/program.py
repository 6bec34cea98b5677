"""The program under test, as the benchmark spawns it.

    python3 perfbench/program.py server   # a plain SolveServer
    python3 perfbench/program.py pool     # a 2-worker ShardedSolveServer
    python3 perfbench/program.py library  # BatchSolver, one paper sweep

Each runs in a fresh interpreter with the checkout's ``src`` on its
path and receives nothing but the generated inputs.  The first stdout
line announces readiness: ``{"port": N}`` once a server listens (it
then serves until the ``shutdown`` op), or ``{"ready": true}`` once the
library is imported and its engine built (it then reads one pickled
sweep from stdin and writes the pickled answers to stdout).  The library
times a host-speed probe before each instance's solves, and a traced
sweep runs
under the program's own tracing (``repro.obs``).
"""

from __future__ import annotations

import asyncio
import gc
import json
import pickle
import resource
import sys
import time


def _announce(obj: dict) -> None:
    sys.stdout.buffer.write(json.dumps(obj).encode() + b"\n")
    sys.stdout.buffer.flush()


async def _serve(kind: str) -> None:
    from repro.service import ShardedSolveServer, SolveServer

    if kind == "pool":
        server = ShardedSolveServer(n_workers=2, allow_shutdown=True)
    else:
        server = SolveServer(allow_shutdown=True)
    await server.start()
    _announce({"port": server.port})
    await server.serve_forever()


def _library() -> None:
    from common import Probe
    from repro import BatchSolver, ResultCache
    from repro.obs import span, tracing

    engine = BatchSolver(max_workers=1, executor="serial", cache=ResultCache())
    _announce({"ready": True})
    job = pickle.load(sys.stdin.buffer)
    instances, methods = job["instances"], job["methods"]
    probe = Probe()
    gc.collect()
    records = []
    with tracing(job["trace"]):
        for index, hg in enumerate(instances):
            speed = probe()
            for method in methods:
                start = time.perf_counter()
                with span("library.solve"):
                    result = engine.solve_many([hg], method=method)[0]
                elapsed = time.perf_counter() - start
                records.append(
                    {
                        "instance": index,
                        "method": method,
                        "seconds": elapsed,
                        "probe": speed,
                        "traced": job["trace"],
                        "assignment": result.matching.hedge_of_task,
                        "makespan": result.makespan,
                        "stats": dict(result.stats),
                    }
                )
    pickle.dump(
        {
            "records": records,
            "cache": engine.cache.stats(),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            / 1024.0,
        },
        sys.stdout.buffer,
    )
    sys.stdout.buffer.flush()


def main(argv: list[str]) -> int:
    kind = argv[1] if len(argv) > 1 else ""
    if kind in ("server", "pool"):
        asyncio.run(_serve(kind))
    elif kind == "library":
        _library()
    else:
        print(f"usage: program.py server|pool|library (got {kind!r})",
              file=sys.stderr)
        return 2
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv))
