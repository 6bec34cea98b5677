"""Shared fixtures for the test suite.

The random-instance builders and hypothesis strategies live in
:mod:`strategies` (``tests/strategies.py``) so test modules can import
them by a name that is unique in the repository — ``from conftest import
...`` used to break whenever another ``conftest.py`` (the benchmarks one)
was imported first under the same module name.
"""

from __future__ import annotations

import gc
import multiprocessing.forkserver
import multiprocessing.resource_tracker
import os
import threading
import time

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


#: how long a module's children get to exit after its last fixture
#: closed them (a pool's workers leave a moment after their shutdown)
CHILD_REAP_S = 3.0


def _live_children() -> set[int]:
    """Pids of this process's children that have not exited, read from
    ``/proc`` (empty where there is none).  Multiprocessing's resource
    tracker and fork server serve the whole test session, so neither is
    counted."""
    me = os.getpid()
    tracker = multiprocessing.resource_tracker._resource_tracker
    server = multiprocessing.forkserver._forkserver
    helpers = {
        getattr(tracker, "_pid", None),
        getattr(server, "_forkserver_pid", None),
    }
    try:
        entries = os.listdir("/proc")
    except OSError:
        return set()
    children = set()
    for name in entries:
        if not name.isdigit():
            continue
        try:
            with open(f"/proc/{name}/stat") as f:
                stat = f.read()
        except OSError:
            continue  # gone meanwhile
        # the command name may hold spaces: state and ppid follow its ")"
        state, ppid = stat[stat.rindex(")") + 2 :].split()[:2]
        if int(ppid) == me and state != "Z" and int(name) not in helpers:
            children.add(int(name))
    return children


@pytest.fixture(scope="module", autouse=True)
def no_leaked_child_processes():
    """Fail a test module that leaves a live child process behind.

    Module-scoped and autouse, so it is set up before the module's
    other fixtures and torn down after them: a server or pool fixture
    has closed by the time the verdict is taken.  Children alive before
    the module started (a session fixture's) are not the module's."""
    before = _live_children()
    yield
    deadline = time.monotonic() + CHILD_REAP_S
    leaked = _live_children() - before
    while leaked and time.monotonic() < deadline:
        time.sleep(0.05)
        leaked = _live_children() - before
    if leaked:
        pytest.fail(
            f"test module left child processes running: {sorted(leaked)}"
        )


def _live_threads() -> set[threading.Thread]:
    """This process's live threads."""
    return {t for t in threading.enumerate() if t.is_alive()}


@pytest.fixture(scope="module", autouse=True)
def no_leaked_threads():
    """Fail a test module that leaves a new live thread behind (a
    server's solver thread, a client's loop thread, a pool's manager).

    Module-scoped and autouse like :func:`no_leaked_child_processes`;
    threads get the same reap wait, since a shut-down executor's
    threads leave a moment after it."""
    before = _live_threads()
    yield
    deadline = time.monotonic() + CHILD_REAP_S
    leaked = _live_threads() - before
    while leaked and time.monotonic() < deadline:
        time.sleep(0.05)
        leaked = _live_threads() - before
    if leaked:
        pytest.fail(
            "test module left threads running: "
            + ", ".join(sorted(t.name for t in leaked))
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
