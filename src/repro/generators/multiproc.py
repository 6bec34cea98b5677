"""The two-step MULTIPROC hypergraph generator (paper Section V-A2).

Step 1 draws the number of configurations ``d_v`` of every task from a
binomial with mean ``dv`` (clamped to at least 1), producing
``|N| ≈ n * dv`` hyperedges, each owned by one task.

Step 2 fills in the processor pin set of every hyperedge by calling one of
the bipartite generators with the *hyperedges* as left vertices:
``HiLo(|N|, p, g, dh)`` or ``FewgManyg(|N|, p, g, dh)`` — each hyperedge's
neighbour list becomes its ``h ∩ V2``.

The weight scheme is applied last (see :mod:`repro.generators.weights`).
"""

from __future__ import annotations

import numpy as np

from ..core.hypergraph import TaskHypergraph
from .._util import as_rng
from .fewgmanyg import fewgmanyg_neighbor_lists
from .hilo import hilo_neighbor_lists
from .weights import apply_weights

__all__ = ["generate_multiproc", "GENERATOR_FAMILIES"]

GENERATOR_FAMILIES = ("fewgmanyg", "hilo")


def generate_multiproc(
    n: int,
    p: int,
    *,
    family: str = "fewgmanyg",
    g: int = 32,
    dv: int = 5,
    dh: int = 10,
    weights: str = "unit",
    seed: int | np.random.Generator | None = None,
) -> TaskHypergraph:
    """Generate a random MULTIPROC instance.

    Parameters mirror the paper's: ``n`` tasks, ``p`` processors,
    ``family`` the step-2 generator (``"fewgmanyg"`` or ``"hilo"``),
    ``g`` groups, ``dv`` the mean number of configurations per task,
    ``dh`` the step-2 degree parameter, ``weights`` one of
    ``'unit' | 'related' | 'random'``.

    The paper's Table I instances use
    ``n ∈ {1280, 5120, 20480}``, ``p ∈ {256, 1024, 4096}`` with
    ``n >= 5p``, ``dv = 5``, ``dh = 10`` and ``g ∈ {32, 128}``.
    """
    if family not in GENERATOR_FAMILIES:
        raise ValueError(
            f"unknown family {family!r}; expected one of {GENERATOR_FAMILIES}"
        )
    if n < 1 or p < 1:
        raise ValueError("need at least one task and one processor")
    if dv < 1:
        raise ValueError("dv must be at least 1")
    rng = as_rng(seed)

    # Step 1: configuration counts, one owning task per hyperedge.
    # Hyperedges are ordered round-robin over tasks (all first
    # configurations, then all second configurations, ...).  Step 2's
    # generators assign pin neighbourhoods by hyperedge *index*, so this
    # interleaving is what spreads one task's configurations across
    # different processor groups — consecutive (task-major) ordering
    # would make a task's configurations near-identical windows and
    # collapse the algorithms' choices.
    d_v = np.maximum(1, rng.binomial(2 * dv, 0.5, size=n))
    max_dv = int(d_v.max())
    round_mask = (np.arange(max_dv)[:, None] < d_v[None, :]).ravel()
    hedge_task = np.tile(np.arange(n, dtype=np.int64), max_dv)[round_mask]
    n_hedges = int(d_v.sum())

    # Step 2: pin sets from the bipartite generator over hyperedges.
    if family == "hilo":
        pins = hilo_neighbor_lists(n_hedges, p, g, dh)
    else:
        pins = fewgmanyg_neighbor_lists(n_hedges, p, g, dh, rng)

    hg = TaskHypergraph.from_hyperedges(n, p, hedge_task, pins)
    return apply_weights(hg, weights, seed=rng)
