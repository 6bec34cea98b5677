"""Tests for :mod:`repro.matching` (capacitated Kuhn matching).

Kuhn's algorithm must (a) return a structurally feasible capacitated
matching and (b) reach maximum cardinality.  (b) is cross-checked against
an independent implementation: scipy's C Hopcroft-Karp on the explicitly
replicated graph ``G_D`` of the paper's exact algorithm.
"""

import sys

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.matching import kuhn_matching, normalize_capacity


def csr_from_lists(nbrs, n_right):
    deg = np.array([len(x) for x in nbrs], dtype=np.int64)
    ptr = np.zeros(len(nbrs) + 1, dtype=np.int64)
    np.cumsum(deg, out=ptr[1:])
    adj = np.array(
        [u for x in nbrs for u in x] or [], dtype=np.int64
    )
    return len(nbrs), n_right, ptr, adj


class TestInterface:
    def test_normalize_capacity_scalar(self):
        assert normalize_capacity(3, 2).tolist() == [2, 2, 2]

    def test_normalize_capacity_default_ones(self):
        assert normalize_capacity(2, None).tolist() == [1, 1]

    def test_normalize_capacity_rejects_negative(self):
        with pytest.raises(ValueError):
            normalize_capacity(2, -1)
        with pytest.raises(ValueError):
            normalize_capacity(2, np.array([1, -1]))

    def test_normalize_capacity_rejects_bad_shape(self):
        with pytest.raises(ValueError):
            normalize_capacity(2, np.array([1, 1, 1]))


class TestKuhn:
    def test_perfect_matching_on_cycle(self):
        # 3 left, 3 right, each left connected to two rights in a ring
        nl, nr, ptr, adj = csr_from_lists([[0, 1], [1, 2], [2, 0]], 3)
        res = kuhn_matching(nl, nr, ptr, adj)
        assert res.cardinality == 3
        assert res.is_left_perfect()
        res.validate(nl, ptr, adj, normalize_capacity(nr, None))

    def test_deficient_graph(self):
        # two left vertices fight over one right vertex
        nl, nr, ptr, adj = csr_from_lists([[0], [0]], 1)
        res = kuhn_matching(nl, nr, ptr, adj)
        assert res.cardinality == 1
        assert res.use_of_right.tolist() == [1]

    def test_capacity_two_absorbs_both(self):
        nl, nr, ptr, adj = csr_from_lists([[0], [0]], 1)
        res = kuhn_matching(nl, nr, ptr, adj, cap=2)
        assert res.cardinality == 2
        assert res.use_of_right.tolist() == [2]

    def test_zero_capacity_blocks(self):
        nl, nr, ptr, adj = csr_from_lists([[0]], 1)
        res = kuhn_matching(nl, nr, ptr, adj, cap=0)
        assert res.cardinality == 0

    def test_isolated_left_vertex(self):
        nl, nr, ptr, adj = csr_from_lists([[], [0]], 1)
        res = kuhn_matching(nl, nr, ptr, adj)
        assert res.match_of_left[0] == -1
        assert res.cardinality == 1

    def test_empty_graph(self):
        nl, nr, ptr, adj = csr_from_lists([], 0)
        res = kuhn_matching(nl, nr, ptr, adj)
        assert res.cardinality == 0

    def test_augmenting_path_needed(self):
        # greedy init matches L0->R0; L1 only likes R0, forcing a steal
        nl, nr, ptr, adj = csr_from_lists([[0, 1], [0]], 2)
        res = kuhn_matching(nl, nr, ptr, adj)
        assert res.cardinality == 2
        assert res.match_of_left[1] == 0
        assert res.match_of_left[0] == 1

    def test_long_augmenting_chain(self):
        # chain that requires rematching down k levels
        k = 8
        nbrs = [[i, i + 1] for i in range(k)] + [[0]]
        nl, nr, ptr, adj = csr_from_lists(nbrs, k + 1)
        res = kuhn_matching(nl, nr, ptr, adj)
        assert res.cardinality == k + 1

    def test_failed_searches_skip_dead_regions(self):
        # 2r tasks all on the same r processors: r searches fail, and
        # all of them see the same dead region.  Searched once, the DFS
        # work grows with the edges (4x per doubling of r); searched
        # again by every failing task, with the edges times r (8x)
        def dfs_lines(r):
            n = 2 * r
            ptr = np.arange(n + 1) * r
            adj = np.tile(np.arange(r), n)
            res, lines = _traced_dfs(kuhn_matching, n, r, ptr, adj)
            assert res.cardinality == r
            return lines

        assert dfs_lines(40) < 5 * dfs_lines(20)


def _traced_dfs(fn, *args):
    """``fn(*args)`` and the lines its augmenting DFS ran: a count of
    work that does not depend on the machine."""
    lines = 0

    def local(frame, event, arg):
        nonlocal lines
        if event == "line":
            lines += 1
        return local

    def calls(frame, event, arg):
        return local if frame.f_code.co_name == "try_augment" else None

    previous = sys.gettrace()
    sys.settrace(calls)
    try:
        result = fn(*args)
    finally:
        sys.settrace(previous)
    return result, lines


N_RIGHT = 6


@given(
    data=st.lists(
        st.lists(st.integers(0, N_RIGHT - 1), max_size=N_RIGHT, unique=True),
        min_size=1,
        max_size=12,
    ),
    cap=st.one_of(
        st.none(),
        st.integers(0, 3),
        st.lists(st.integers(0, 3), min_size=N_RIGHT, max_size=N_RIGHT).map(
            np.array
        ),
    ),
)
@settings(max_examples=150, deadline=None)
def test_kuhn_cardinality_matches_scipy_on_replicated_graph(data, cap):
    """Property: Kuhn's capacity-``cap`` matching is as large as scipy's
    maximum matching of ``G_D``, the graph with ``cap[u]`` copies of every
    right vertex ``u`` (same neighbourhoods)."""
    csgraph = pytest.importorskip("scipy.sparse.csgraph")
    from scipy.sparse import csr_matrix

    nl, nr, ptr, adj = csr_from_lists(data, N_RIGHT)
    capacity = normalize_capacity(nr, cap)
    res = kuhn_matching(nl, nr, ptr, adj, cap)
    res.validate(nl, ptr, adj, capacity)

    slot_ptr = np.concatenate(([0], np.cumsum(capacity)))
    replicated = [
        [c for u in nbrs for c in range(slot_ptr[u], slot_ptr[u + 1])]
        for nbrs in data
    ]
    _, n_slots, rptr, radj = csr_from_lists(replicated, int(slot_ptr[-1]))
    biadjacency = csr_matrix(
        (np.ones(len(radj), dtype=np.int8), radj, rptr), shape=(nl, n_slots)
    )
    ref = csgraph.maximum_bipartite_matching(biadjacency, perm_type="column")
    assert res.cardinality == int(np.sum(ref >= 0))
