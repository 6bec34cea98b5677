"""Shared random-instance builders and hypothesis strategies.

Importable as ``from strategies import ...`` by every test module.  These
used to live in ``tests/conftest.py``, but importing *conftest* by name is
fragile: whichever ``conftest.py`` pytest put on ``sys.path`` first wins
(the ``benchmarks/`` one shadowed ours), so the helpers now live in a
module whose name is unique in the repository.
"""

from __future__ import annotations

import numpy as np
from hypothesis import strategies as st

from repro.core import BipartiteGraph, TaskHypergraph

__all__ = [
    "random_bipartite",
    "random_hypergraph",
    "bipartite_graphs",
    "task_hypergraphs",
    "generated_instances",
    "apply_random_mutations",
    "hyp_solver",
    "malformed_v2_dicts",
    "malformed_wire_dicts",
]


def hyp_solver(name: str):
    """The registry's MULTIPROC solver callable for ``name`` (shared by
    the property, conformance and benchmark suites)."""
    from repro.api import get_registry

    return get_registry().resolve(name, domain="hypergraph").fn


# ---------------------------------------------------------------------------
# random instance builders (plain RNG, for loops over many cases)
# ---------------------------------------------------------------------------
def random_bipartite(
    rng: np.random.Generator,
    max_tasks: int = 12,
    max_procs: int = 8,
    unit: bool = True,
) -> BipartiteGraph:
    """A random total bipartite instance (every task has >= 1 edge)."""
    n = int(rng.integers(1, max_tasks + 1))
    p = int(rng.integers(1, max_procs + 1))
    nbrs = [
        rng.choice(p, size=int(rng.integers(1, p + 1)), replace=False)
        for _ in range(n)
    ]
    g = BipartiteGraph.from_neighbor_lists(nbrs, n_procs=p)
    if not unit:
        g = g.with_weights(rng.integers(1, 8, size=g.n_edges).astype(float))
    return g


def random_hypergraph(
    rng: np.random.Generator,
    max_tasks: int = 8,
    max_procs: int = 6,
    unit: bool = False,
) -> TaskHypergraph:
    """A random total MULTIPROC instance."""
    n = int(rng.integers(1, max_tasks + 1))
    p = int(rng.integers(2, max_procs + 1))
    confs = []
    for _ in range(n):
        dv = int(rng.integers(1, 4))
        confs.append(
            [
                list(rng.choice(p, size=int(rng.integers(1, p + 1)),
                                replace=False))
                for _ in range(dv)
            ]
        )
    hg = TaskHypergraph.from_configurations(confs, n_procs=p)
    if not unit:
        hg = hg.with_weights(
            rng.integers(1, 6, size=hg.n_hedges).astype(float)
        )
    return hg


# ---------------------------------------------------------------------------
# hypothesis strategies
# ---------------------------------------------------------------------------
@st.composite
def bipartite_graphs(draw, max_tasks: int = 10, max_procs: int = 7,
                     weighted: bool = False):
    """Hypothesis strategy for total bipartite instances."""
    n = draw(st.integers(1, max_tasks))
    p = draw(st.integers(1, max_procs))
    nbrs = [
        draw(
            st.lists(
                st.integers(0, p - 1), min_size=1, max_size=p, unique=True
            )
        )
        for _ in range(n)
    ]
    weights = None
    if weighted:
        weights = [
            [draw(st.integers(1, 9)) for _ in nb] for nb in nbrs
        ]
    return BipartiteGraph.from_neighbor_lists(
        nbrs, n_procs=p, weights=weights
    )


@st.composite
def generated_instances(draw, max_tasks: int = 40):
    """Hypothesis strategy over the *generator* parameter space: a
    MULTIPROC instance from :func:`repro.generators.generate_multiproc`
    (family, group count, degrees, weight scheme and seed all drawn).

    Consolidates the parameter tuples previously inlined in the
    property/dynamic/API test modules.
    """
    from repro.generators import generate_multiproc

    n = draw(st.integers(6, max_tasks))
    p = draw(st.sampled_from([4, 8, 16]))
    g = draw(st.sampled_from([2, 4]))
    dv = draw(st.integers(1, 3))
    dh = draw(st.integers(1, 4))
    scheme = draw(st.sampled_from(["unit", "related", "random"]))
    seed = draw(st.integers(0, 10_000))
    return generate_multiproc(
        n, p, g=g, dv=dv, dh=dh, weights=scheme, seed=seed
    )


def apply_random_mutations(inst, rng: np.random.Generator,
                           n_events: int) -> None:
    """A feasibility-preserving random mutation stream over a
    :class:`repro.dynamic.DynamicInstance` (all five ops).  Shared by
    the dynamic and conformance suites."""
    from repro.core.errors import InfeasibleError

    for _ in range(n_events):
        op = int(rng.integers(0, 5))
        tasks = inst.tasks()
        if op == 0 and tasks:
            inst.remove_task(int(rng.choice(tasks)))
        elif op == 1 and inst.n_procs:
            procs = inst.procs()
            confs = []
            for _ in range(int(rng.integers(1, 4))):
                size = int(rng.integers(1, min(3, len(procs)) + 1))
                pins = rng.choice(procs, size=size, replace=False)
                confs.append((pins.tolist(), float(rng.integers(1, 9))))
            inst.add_task(confs)
        elif op == 2 and tasks:
            task = int(rng.choice(tasks))
            configs = inst.task_configs(task)
            idx, _pins, w = configs[int(rng.integers(0, len(configs)))]
            inst.update_weight(task, idx, w * float(rng.uniform(0.5, 2.0)))
        elif op == 3 and inst.n_procs > 1:
            try:
                inst.remove_processor(int(rng.choice(inst.procs())))
            except InfeasibleError:
                inst.add_processor()
        else:
            inst.add_processor()


@st.composite
def task_hypergraphs(draw, max_tasks: int = 7, max_procs: int = 6,
                     weighted: bool = True):
    """Hypothesis strategy for total MULTIPROC instances."""
    n = draw(st.integers(1, max_tasks))
    p = draw(st.integers(1, max_procs))
    confs = []
    for _ in range(n):
        dv = draw(st.integers(1, 3))
        confs.append(
            [
                draw(
                    st.lists(
                        st.integers(0, p - 1),
                        min_size=1,
                        max_size=p,
                        unique=True,
                    )
                )
                for _ in range(dv)
            ]
        )
    hg = TaskHypergraph.from_configurations(confs, n_procs=p)
    if weighted:
        w = np.array(
            [draw(st.integers(1, 9)) for _ in range(hg.n_hedges)],
            dtype=float,
        )
        hg = hg.with_weights(w)
    return hg


# ---------------------------------------------------------------------------
# malformed serialize-v2 instance dicts
# ---------------------------------------------------------------------------
def malformed_v2_dicts() -> list[tuple[str, dict]]:
    """``(case, dict)`` pairs: a valid version 2 hypergraph dict with
    exactly one defect each.  The base instance has hyperedges
    ``{0}, {1, 2}, {2}`` for tasks ``0, 0, 1`` on three processors."""
    import base64

    def pack(values, dtype="<i4") -> str:
        return base64.b64encode(
            np.asarray(values, dtype=dtype).tobytes()
        ).decode("ascii")

    good = {
        "kind": "hypergraph",
        "version": 2,
        "n_tasks": 2,
        "n_procs": 3,
        "hedge_task": pack([0, 0, 1]),
        "hedge_ptr": pack([0, 1, 3, 4]),
        "hedge_procs": pack([0, 1, 2, 2]),
        "weights": pack([1.0, 2.0, 3.0], "<f8"),
    }
    missing = dict(good)
    del missing["hedge_ptr"]
    cases = {
        "bad-base64": {"hedge_procs": "AAAA!!!!"},
        "non-ascii": {"hedge_procs": "AAAAé==="},
        "not-a-string": {"hedge_task": [0, 0, 1]},
        "ragged-bytes": {
            "hedge_procs": base64.b64encode(b"\0" * 5).decode()
        },
        "ptr0-nonzero": {"hedge_ptr": pack([1, 1, 3, 4])},
        "ptr-non-monotone": {"hedge_ptr": pack([0, 3, 1, 4])},
        "ptr-last-not-pins": {"hedge_ptr": pack([0, 1, 3, 5])},
        "ptr-wrong-length": {"hedge_ptr": pack([0, 1, 4])},
        "empty-hyperedge": {"hedge_ptr": pack([0, 1, 1, 4])},
        "task-out-of-range": {"hedge_task": pack([0, 0, 5])},
        "proc-out-of-range": {"hedge_procs": pack([0, 1, 7, 2])},
        "negative-proc": {"hedge_procs": pack([0, -1, 2, 2])},
        "duplicate-unsorted-pin": {
            "hedge_ptr": pack([0, 1, 4, 5]),
            "hedge_procs": pack([0, 2, 1, 2, 2]),
        },
        "nan-weight": {"weights": pack([1.0, np.nan, 3.0], "<f8")},
        "zero-weight": {"weights": pack([1.0, 0.0, 3.0], "<f8")},
        "negative-weight": {"weights": pack([1.0, -2.0, 3.0], "<f8")},
        "weights-wrong-length": {"weights": pack([1.0, 2.0], "<f8")},
        "count-not-int": {"n_tasks": "2"},
        "negative-count": {"n_procs": -3},
        "unknown-version": {"version": 3},
    }
    out = [(name, {**good, **patch}) for name, patch in cases.items()]
    out.append(("missing-field", missing))
    return out


# ---------------------------------------------------------------------------
# malformed wire (attachment-form) instance dicts
# ---------------------------------------------------------------------------
def malformed_wire_dicts() -> list[tuple[str, dict]]:
    """``(case, dict)`` pairs: a valid wire hypergraph dict (its arrays
    go out as frame attachments) with exactly one defect each, on the
    base instance of :func:`malformed_v2_dicts`."""

    def arr(values, dtype="<i4"):
        return np.asarray(values, dtype=dtype)

    good = {
        "kind": "hypergraph",
        "n_tasks": 2,
        "n_procs": 3,
        "hedge_task": arr([0, 0, 1]),
        "hedge_ptr": arr([0, 1, 3, 4]),
        "hedge_procs": arr([0, 1, 2, 2]),
        "weights": arr([1.0, 2.0, 3.0], "<f8"),
    }
    missing = dict(good)
    del missing["hedge_ptr"]
    cases = {
        "ptr0-nonzero": {"hedge_ptr": arr([1, 1, 3, 4])},
        "ptr-non-monotone": {"hedge_ptr": arr([0, 3, 1, 4])},
        "ptr-wrong-length": {"hedge_ptr": arr([0, 1, 4])},
        "proc-out-of-range": {"hedge_procs": arr([0, 1, 7, 2])},
        "negative-proc": {"hedge_procs": arr([0, -1, 2, 2])},
        "task-out-of-range": {"hedge_task": arr([0, 0, 5])},
        "ptr-as-float64": {"hedge_ptr": arr([0, 1, 3, 4], "<f8")},
        "weights-as-int32": {"weights": arr([1, 2, 3])},
        "nan-weight": {"weights": arr([1.0, np.nan, 3.0], "<f8")},
        "weights-wrong-length": {"weights": arr([1.0, 2.0], "<f8")},
        "count-not-int": {"n_tasks": "2"},
        "json-list-field": {"hedge_task": [0, 0, 1]},
    }
    out = [(name, {**good, **patch}) for name, patch in cases.items()]
    out.append(("missing-field", missing))
    return out
