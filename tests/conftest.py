"""Shared fixtures for the test suite.

The random-instance builders and hypothesis strategies live in
:mod:`strategies` (``tests/strategies.py``) so test modules can import
them by a name that is unique in the repository — ``from conftest import
...`` used to break whenever another ``conftest.py`` (the benchmarks one)
was imported first under the same module name.
"""

from __future__ import annotations

import gc
import os

import numpy as np
import pytest

from repro.core import BipartiteGraph, TaskHypergraph

_SHM_DIR = "/dev/shm"


def _shm_segments() -> set[str]:
    """This host's POSIX shared-memory segments made by
    :mod:`multiprocessing.shared_memory` (empty where there is no
    ``/dev/shm``)."""
    try:
        return {n for n in os.listdir(_SHM_DIR) if n.startswith("psm_")}
    except OSError:
        return set()


@pytest.fixture(autouse=True)
def no_leaked_shm_segments():
    """Fail any test that leaves a new shared-memory segment behind.

    An engine's export registry unlinks its segments on ``close()`` or
    when it is collected, so garbage is collected before the verdict;
    only when a new segment shows up, since a collection per test would
    slow the suite for nothing."""
    before = _shm_segments()
    yield
    if _shm_segments() - before:
        gc.collect()
        leaked = _shm_segments() - before
        if leaked:
            pytest.fail(
                f"test left shared-memory segments behind: {sorted(leaked)}"
            )


# ---------------------------------------------------------------------------
# deterministic example instances
# ---------------------------------------------------------------------------
@pytest.fixture
def fig1_graph() -> BipartiteGraph:
    """The paper's Figure 1 toy instance."""
    return BipartiteGraph.from_neighbor_lists([[0, 1], [0]], n_procs=2)


@pytest.fixture
def fig2_hypergraph() -> TaskHypergraph:
    """The paper's Figure 2 hypergraph: T1 on {P1} or {P2,P3}; T2 on
    {P1,P2} or {P3}; T3 and T4 pinned to {P3}."""
    return TaskHypergraph.from_configurations(
        [
            [[0], [1, 2]],
            [[0, 1], [2]],
            [[2]],
            [[2]],
        ],
        n_procs=3,
    )


@pytest.fixture
def small_weighted_hypergraph() -> TaskHypergraph:
    """A weighted instance with distinct configuration weights."""
    hg = TaskHypergraph.from_configurations(
        [
            [[0, 1], [2]],
            [[1], [0, 2]],
            [[0], [1], [2]],
        ],
        n_procs=3,
    )
    return hg.with_weights(np.array([2.0, 5.0, 3.0, 1.5, 4.0, 2.5, 1.0]))
