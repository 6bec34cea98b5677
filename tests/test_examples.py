"""Smoke tests: the example scripts run and print what they promise.

Only the fast examples run here (the cluster/table ones take minutes at
their default sizes; they are exercised by the benchmarks instead).
"""

import subprocess
import sys
from pathlib import Path

import pytest

EXAMPLES = Path(__file__).resolve().parent.parent / "examples"


def run_example(name: str, *args: str, quiet: bool = False) -> str:
    proc = subprocess.run(
        [sys.executable, str(EXAMPLES / name), *args],
        capture_output=True,
        text=True,
        timeout=300,
    )
    assert proc.returncode == 0, proc.stderr
    if quiet:
        assert proc.stderr == "", proc.stderr
    return proc.stdout


def test_quickstart():
    out = run_example("quickstart.py")
    assert "makespan" in out
    assert "render" in out
    assert "lower bound" in out.lower()
    # the backend demo: kernel speedup on a bit-identical matching
    assert "numpy kernels" in out
    assert "x speedup" in out
    assert "bit-identical matching" in out


def test_worst_cases():
    out = run_example("worst_cases.py")
    assert "fooled" in out
    assert "optimum=1" in out


def test_reduction_demo():
    out = run_example("reduction_demo.py")
    assert "exact cover" in out
    assert "optimal makespan: 1" in out


def test_certificates_and_kernels():
    out = run_example("certificates_and_kernels.py")
    assert "INFEASIBLE" in out
    assert "witness re-verified" in out
    assert "dominated dropped" in out


def test_dynamic_cluster_small():
    out = run_example("dynamic_cluster.py", "96", "24", "20")
    assert "incremental engine" in out
    assert "faster at equal-or-better bottleneck" in out
    assert "failure drill" in out


def test_service_roundtrip_small():
    # quiet: the server's teardown must not log unhandled exceptions
    out = run_example("service_roundtrip.py", "64", "16", quiet=True)
    assert "bit-identical to local solve: True" in out
    assert "12 identical requests -> 1 engine solve" in out
    assert "after add_task" in out
    assert "server stopped" in out


def test_batch_portfolio_small():
    out = run_example("batch_portfolio.py", "8", "2")
    assert "solve_many(portfolio)" in out
    assert "never worse" in out
    assert "re-sweep from cache" in out
    assert "8 hits" in out


@pytest.mark.slow
def test_cluster_scheduling_small():
    out = run_example("cluster_scheduling.py", "160", "32")
    assert "sorted-greedy-hyp" in out
    assert "local search" in out.lower()
