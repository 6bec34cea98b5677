"""The FewgManyg random bipartite-graph generator (paper Section V-A1).

Also from the Cherkassky et al. matching benchmarks (ref [7]): left and
right vertex sets are divided into ``g`` groups; a left vertex in group
``j`` draws a binomial number of neighbours uniformly from the right
vertices of groups ``j-1``, ``j`` and ``j+1`` (with wrap-around).  The
paper's instances use ``g = 32`` ("Fewg", large groups, loose locality)
and ``g = 128`` ("Manyg", small groups, tight locality).

Sampling details the paper leaves open, resolved as follows:

* "binomial distribution with mean d" is ``Binomial(2d, 1/2)``, clamped to
  at least 1 so every task stays schedulable;
* when the draw exceeds the 3-group pool (``3p/g``), vertices are chosen
  with replacement — as the paper prescribes — and duplicates are then
  collapsed (neighbour sets are simple).
"""

from __future__ import annotations

import numpy as np

from ..core.bipartite import BipartiteGraph
from .._util import as_rng

__all__ = ["fewgmanyg_bipartite", "fewgmanyg_neighbor_lists"]


def fewgmanyg_neighbor_lists(
    n: int,
    p: int,
    g: int,
    d: int,
    seed: int | np.random.Generator | None = None,
) -> list[np.ndarray]:
    """Neighbour list of every left vertex in ``FewgManyg(n, p, g, d)``.

    Requires ``g | p`` so right-side groups are even; left-group sizes may
    be uneven.  Reused by the MULTIPROC generator with hyperedges as left
    vertices.
    """
    if g < 1:
        raise ValueError("g must be at least 1")
    if p % g != 0:
        raise ValueError(f"FewgManyg requires g | p, got p={p}, g={g}")
    if d < 1:
        raise ValueError("d must be at least 1")
    rng = as_rng(seed)
    pg = p // g
    pool = 3 * pg if g >= 3 else p  # fewer than 3 groups: whole right side

    degrees = np.maximum(1, rng.binomial(2 * d, 0.5, size=n))
    # group of each left vertex: near-equal contiguous blocks
    base = n // g
    extras = n % g
    left_group = np.repeat(
        np.arange(g, dtype=np.int64),
        np.where(np.arange(g) < extras, base + 1, base),
    )

    out: list[np.ndarray] = []
    for v in range(n):
        j = int(left_group[v])
        di = int(degrees[v])
        if g >= 3:
            groups = np.array([(j - 1) % g, j, (j + 1) % g], dtype=np.int64)
            candidates = (groups[:, None] * pg + np.arange(pg)).ravel()
        else:
            candidates = np.arange(p, dtype=np.int64)
        if di <= candidates.size:
            nbrs = rng.choice(candidates, size=di, replace=False)
        else:
            nbrs = np.unique(rng.choice(candidates, size=di, replace=True))
        out.append(np.unique(nbrs))
    return out


def fewgmanyg_bipartite(
    n: int,
    p: int,
    g: int,
    d: int,
    seed: int | np.random.Generator | None = None,
) -> BipartiteGraph:
    """A ``FewgManyg(n, p, g, d)`` SINGLEPROC-UNIT instance."""
    lists = fewgmanyg_neighbor_lists(n, p, g, d, seed)
    return BipartiteGraph.from_neighbor_lists(lists, n_procs=p)
