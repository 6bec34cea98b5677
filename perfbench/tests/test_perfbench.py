"""The benchmark's own tests.

    python3 -m pytest perfbench/tests -q

Every workload runs in short mode (shrunken inputs, one-second timing)
and must report every metric of ``BENCHMARK.json`` with its unit; two
traced runs with one seed must repeat the program's deterministic
counters exactly; and without the program's source the benchmark must
fail without printing a result.
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent.parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())

sys.path.insert(0, str(HERE))
from common import (  # noqa: E402
    PROBE_REFERENCE_S,
    at_reference_speed,
    percentile,
    tail,
)
from run import WORKLOADS  # noqa: E402

#: Counters the program makes deterministically for a fixed seed.
DETERMINISTIC = {
    "large-cold": ("engine.result_misses",),
    "session-pool": (
        "dynamic.ls_moves_per_mutation", "dynamic.local_repairs",
        "dynamic.full_solves", "dynamic.fallbacks", "kernels.full_builds",
        "kernels.patch_emits",
    ),
}


def _run(workload: str, trace: int, cwd: Path = ROOT, seed: int = 3):
    return subprocess.run(
        [
            sys.executable, str(cwd / "perfbench" / "run.py"),
            "--workload", workload, "--seed", str(seed), "--seconds", "1",
            "--trace", str(trace), "--short",
        ],
        cwd=str(cwd), capture_output=True, text=True, timeout=300,
    )


def _result(workload: str, trace: int) -> dict:
    proc = _run(workload, trace)
    assert proc.returncode == 0, proc.stdout[-2000:] + proc.stderr[-3000:]
    result = json.loads(proc.stdout.strip().splitlines()[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["failed"] == 0 and result["attempted"] >= 1
    return result


def _units(result: dict) -> dict[str, str]:
    return {name: m["unit"] for name, m in result["metrics"].items()}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_end_to_end_metrics_are_reported_with_units(workload):
    result = _result(workload, 0)
    assert _units(result) == {m["name"]: m["unit"] for m in SPEC["end_to_end"]}
    assert all(m["value"] > 0 for m in result["metrics"].values())


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_counts_repeat_for_one_seed(workload):
    first, second = _result(workload, 1), _result(workload, 1)
    assert _units(first) == {m["name"]: m["unit"] for m in SPEC["per_layer"]}
    for name in DETERMINISTIC.get(workload, ()):
        assert first["metrics"][name] == second["metrics"][name], name
    if workload == "large-cold":
        # every request is a distinct instance: all misses, no hits
        assert first["metrics"]["engine.result_hit_ratio"]["value"] == 0.0
        assert first["metrics"]["engine.result_misses"]["value"] >= 2
    if workload == "session-pool":
        assert first["metrics"]["dynamic.local_repairs"]["value"] > 0
        # the probe bursts repeat instances: the workers' caches answer
        assert first["metrics"]["engine.result_hit_ratio"]["value"] > 0


def test_fails_without_the_program(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(
        HERE, tmp_path / "perfbench",
        ignore=shutil.ignore_patterns("__pycache__"),
    )
    proc = _run("large-cold", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout.strip() == ""


def test_tail_keeps_ten_samples_beyond():
    values = list(range(1, 101))
    q, value, beyond = tail(values)
    assert (q, beyond) == (90.0, 10)
    assert value == percentile(values, 90.0) == 90
    q, value, beyond = tail(list(range(1, 38)))
    assert q == 66.0 and beyond >= 10
    assert tail(list(range(1, 28)))[0] == 60.0
    assert tail([5.0])[:2] == (50.0, 5.0)


def test_reference_speed_cancels_host_slowdowns():
    # 0.5 s operations on a host that runs 1.5x slower for 3 s in the
    # middle: away from the two changes every operation scales back to
    # 0.5 s (a 1 s window reaches two operations to each side)
    factors = [1.0] * 6 + [1.5] * 6 + [1.0] * 6
    samples = [(0.5 * f, PROBE_REFERENCE_S * f) for f in factors]
    scaled = at_reference_speed(samples, window_s=1.0)
    for i in (*range(4), 8, 9, *range(14, 18)):
        assert scaled[i] == pytest.approx(0.5), i
    # one interrupted probe does not move the operation it precedes
    samples[2] = (0.5, PROBE_REFERENCE_S * 5)
    assert at_reference_speed(samples, window_s=1.0)[2] == pytest.approx(0.5)
    assert at_reference_speed(samples, window_s=0)[2] == pytest.approx(0.1)
