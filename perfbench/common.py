"""Shared pieces of the benchmark: statistics, the host-speed probe,
and the lifetime of the program processes under test.

Nothing here imports ``repro``: the spawned library program
(``program.py``) imports this module too, for the probe, and is timed
from spawn to ready.
"""

from __future__ import annotations

import itertools
import json
import math
import os
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np

#: The checkout the benchmark runs in: ``perfbench/`` sits at its root.
ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
PROGRAM = Path(__file__).resolve().parent / "program.py"

#: Percentiles the tail metric may report: the highest one with at
#: least ``TAIL_BEYOND`` samples above it wins.  The steps are coarse so
#: that each workload's sample count sits inside one band (a few hundred
#: operations on session-pool and paper-batch) or between two close
#: ones (25-99 solves on large-cold): a run does not jump to a distant
#: percentile, and more than ten samples lie beyond the one it reports.
TAIL_LADDER = (50.0, 60.0, 66.0, 90.0, 99.0, 99.9)
TAIL_BEYOND = 10

#: Seconds of operations on each side of one whose probes, with its
#: own, set the host speed it is scaled by (see
#: :func:`at_reference_speed`): short against the host's slow stretches,
#: long enough that a few probes cover even the longest operation.
PROBE_WINDOW_S = 1.0

#: Seconds one :class:`Probe` takes at the reference speed, a fixed
#: scale: about its median on a 2-CPU x86-64 VM under moderate load
#: (it took 7 ms there when the machine under the VM was quiet, and
#: 12 ms when it was busy).
PROBE_REFERENCE_S = 0.009


# ----------------------------------------------------------------------
# statistics
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank ``q``-th percentile (``0 < q <= 100``)."""
    ordered = sorted(values)
    if not ordered:
        raise ValueError("percentile of no samples")
    rank = max(1, math.ceil(q / 100.0 * len(ordered)))
    return float(ordered[rank - 1])


def median(values) -> float:
    ordered = sorted(values)
    if not ordered:
        raise ValueError("median of no samples")
    mid = len(ordered) // 2
    if len(ordered) % 2:
        return float(ordered[mid])
    return (ordered[mid - 1] + ordered[mid]) / 2.0


def tail(values) -> tuple[float, float, int]:
    """``(percentile, value, samples beyond it)`` for the highest ladder
    percentile that keeps at least ``TAIL_BEYOND`` samples above it
    (the median when there are too few samples for any of them)."""
    n = len(values)
    best = TAIL_LADDER[0]
    for q in TAIL_LADDER:
        if n - math.ceil(q / 100.0 * n) >= TAIL_BEYOND:
            best = q
    return best, percentile(values, best), n - math.ceil(best / 100.0 * n)


def at_reference_speed(samples, window_s: float = PROBE_WINDOW_S):
    """Each ``(seconds, probe seconds)`` sample, given in the order run,
    scaled to the reference speed: by ``PROBE_REFERENCE_S`` over the
    median probe of the samples that started within ``window_s`` of it,
    counting only time spent in operations (``window_s=0``: its own).

    The machine under the benchmark slows every process down by a
    third or more, for seconds or for hours, and how much of a run such
    stretches cover decided its median.  A probe timed next to each
    operation slows down with it, and the program cannot change the
    probe's speed: it is timed while the program waits."""
    starts = list(itertools.accumulate(s for s, _ in samples))
    starts = [0.0] + starts[:-1]
    probes = [p for _, p in samples]
    out = []
    lo = hi = 0
    for i, (seconds, _) in enumerate(samples):
        while starts[lo] < starts[i] - window_s:
            lo += 1
        hi = max(hi, i + 1)
        while hi < len(samples) and starts[hi] <= starts[i] + window_s:
            hi += 1
        out.append(seconds * PROBE_REFERENCE_S / median(probes[lo:hi]))
    return out


# ----------------------------------------------------------------------
# host speed
# ----------------------------------------------------------------------
class Probe:
    """A fixed piece of work like the program's own, interpreted Python
    and a numpy sort of a 2 MiB array: the seconds it takes now, against
    ``PROBE_REFERENCE_S``, tell how fast the host runs at the moment."""

    def __init__(self) -> None:
        self._keys = np.random.default_rng(0).random(1 << 18)

    def __call__(self) -> float:
        start = time.perf_counter()
        acc = 0
        for i in range(20000):
            acc += i * i % 7
        np.argsort(self._keys)
        return time.perf_counter() - start


# ----------------------------------------------------------------------
# program processes
# ----------------------------------------------------------------------
def program_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    # one hash layout for every run: set iteration order and dict
    # layout of string keys stay out of the run-to-run spread
    env["PYTHONHASHSEED"] = "0"
    env.pop("PYTHONSTARTUP", None)
    return env


def split_cpus() -> tuple[set[int], set[int]] | None:
    """``(benchmark cpus, program cpus)``: the load generator keeps the
    first CPU and the program (with every process it spawns) the rest,
    so neither migrates onto the other's core.  ``None`` on one CPU."""
    cpus = sorted(os.sched_getaffinity(0))
    if len(cpus) < 2:
        return None
    return {cpus[0]}, set(cpus[1:])


class Program:
    """One spawned program process (``program.py <kind>``)."""

    def __init__(self, kind: str):
        self.kind = kind
        split = split_cpus()
        self.proc = subprocess.Popen(
            [sys.executable, str(PROGRAM), kind],
            stdin=subprocess.PIPE,
            stdout=subprocess.PIPE,
            env=program_env(),
            cwd=str(ROOT),
            preexec_fn=(
                None
                if split is None
                else lambda: os.sched_setaffinity(0, split[1])
            ),
        )
        self.hello = self._read_hello()
        self.port = self.hello.get("port")

    def _read_hello(self) -> dict:
        line = self.proc.stdout.readline()
        if not line:
            self.stop()
            raise RuntimeError(
                f"{self.kind} program exited before it was ready "
                f"(code {self.proc.poll()})"
            )
        return json.loads(line)

    @property
    def pid(self) -> int:
        return self.proc.pid

    def peak_rss_mb(self) -> float:
        """VmHWM summed over this process and its descendants."""
        return sum(_vm_hwm_kb(pid) for pid in _process_tree(self.pid)) / 1024.0

    def descendants(self) -> list[tuple[int, str]]:
        """``(pid, start time)`` of every running process this one
        spawned, at any depth."""
        return [
            (pid, fields[19])
            for pid in _process_tree(self.pid)[1:]
            if (fields := _stat(pid)) is not None
        ]

    def wait(self, timeout: float) -> None:
        try:
            self.proc.wait(timeout=timeout)
        except subprocess.TimeoutExpired:
            self.stop()

    def stop(self, spawned: list[tuple[int, str]] | None = None) -> None:
        """Terminate (then kill) the process and wait until it and every
        process it spawned have ended: a pool front-end that is
        signalled instead of shut down leaves its workers behind.
        ``spawned`` is a :meth:`descendants` list taken while the
        process still ran (by default it is taken now)."""
        if spawned is None:
            spawned = self.descendants()
        if self.proc.poll() is None:
            self.proc.send_signal(signal.SIGTERM)
            try:
                self.proc.wait(timeout=10)
            except subprocess.TimeoutExpired:
                self.proc.kill()
                self.proc.wait(timeout=10)
        _reap(spawned)
        for stream in (self.proc.stdin, self.proc.stdout):
            if stream is not None:
                stream.close()


def _stat(pid: int) -> list[str] | None:
    """The fields of ``/proc/<pid>/stat`` after the command name (which
    may hold spaces), or ``None`` once the process is gone."""
    try:
        with open(f"/proc/{pid}/stat") as fh:
            return fh.read().rsplit(")", 1)[1].split()
    except OSError:
        return None


def _running(pid: int, started: str) -> bool:
    fields = _stat(pid)
    # another start time means the pid was reused by another process
    return fields is not None and fields[19] == started and fields[0] != "Z"


def _reap(spawned: list[tuple[int, str]], grace_s: float = 5.0) -> None:
    """Give orphaned descendants ``grace_s`` to exit by themselves (a
    resource tracker still cleans up), then kill the rest and wait."""
    deadline = time.monotonic() + grace_s
    while time.monotonic() < deadline and any(_running(*p) for p in spawned):
        time.sleep(0.02)
    for pid, started in spawned:
        if _running(pid, started):
            try:
                os.kill(pid, signal.SIGKILL)
            except ProcessLookupError:
                pass
    deadline = time.monotonic() + 10
    while time.monotonic() < deadline and any(_running(*p) for p in spawned):
        time.sleep(0.02)


def _process_tree(root: int) -> list[int]:
    children: dict[int, list[int]] = {}
    for entry in os.listdir("/proc"):
        if not entry.isdigit():
            continue
        fields = _stat(int(entry))
        if fields is not None:
            children.setdefault(int(fields[1]), []).append(int(entry))
    tree, todo = [], [root]
    while todo:
        pid = todo.pop()
        tree.append(pid)
        todo.extend(children.get(pid, ()))
    return tree


def _vm_hwm_kb(pid: int) -> int:
    try:
        with open(f"/proc/{pid}/status") as fh:
            for line in fh:
                if line.startswith("VmHWM:"):
                    return int(line.split()[1])
    except OSError:
        pass
    return 0
