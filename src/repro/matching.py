"""Maximum capacitated bipartite matching (Kuhn's augmenting paths).

The exact SINGLEPROC-UNIT algorithm (paper Section IV-A) uses maximum
bipartite matching "as a black box"; :func:`kuhn_matching` is that box.

* the bipartite graph is given in CSR form from the left (task) side:
  ``adj[ptr[v]:ptr[v+1]]`` are the right-side neighbours of left vertex
  ``v``;
* right-side vertices carry an integer *capacity* (how many left vertices
  they can absorb).  Plain matching is the all-ones capacity case; the
  exact algorithm's "D copies of each processor" construction is exactly a
  capacity-``D`` matching, so capacities are handled natively instead of
  materialising copies.

The result is a :class:`MatchingResult` with the left->right assignment
(``-1`` for unmatched) and per-right usage counts.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

__all__ = ["MatchingResult", "normalize_capacity", "kuhn_matching"]


@dataclass(frozen=True)
class MatchingResult:
    """Outcome of a (capacitated) maximum bipartite matching computation.

    Attributes
    ----------
    match_of_left:
        For each left vertex, the matched right vertex or ``-1``.
    use_of_right:
        For each right vertex, the number of left vertices matched to it
        (never exceeds its capacity).
    """

    match_of_left: np.ndarray
    use_of_right: np.ndarray

    @property
    def cardinality(self) -> int:
        """Number of matched left vertices."""
        return int(np.sum(self.match_of_left >= 0))

    def is_left_perfect(self) -> bool:
        """True when every left vertex is matched."""
        return bool(np.all(self.match_of_left >= 0))

    def validate(self, n_left: int, ptr: np.ndarray, adj: np.ndarray,
                 cap: np.ndarray) -> None:
        """Check the result is a feasible capacitated matching.

        Used by tests as an oracle; raises ``AssertionError`` on violation.
        """
        assert self.match_of_left.shape == (n_left,)
        use = np.zeros_like(cap)
        for v in range(n_left):
            u = int(self.match_of_left[v])
            if u < 0:
                continue
            assert u in set(int(x) for x in adj[ptr[v]:ptr[v + 1]]), (
                f"left {v} matched to non-neighbour {u}"
            )
            use[u] += 1
        assert np.all(use <= cap), "capacity exceeded"
        assert np.array_equal(use, self.use_of_right), "use_of_right mismatch"


def normalize_capacity(
    n_right: int, cap: int | np.ndarray | None
) -> np.ndarray:
    """Broadcast ``cap`` into a per-right-vertex int64 capacity array."""
    if cap is None:
        return np.ones(n_right, dtype=np.int64)
    if np.isscalar(cap):
        c = int(cap)
        if c < 0:
            raise ValueError("capacity must be non-negative")
        return np.full(n_right, c, dtype=np.int64)
    arr = np.ascontiguousarray(cap, dtype=np.int64)
    if arr.shape != (n_right,):
        raise ValueError(
            f"capacity must be scalar or length-{n_right}, got {arr.shape}"
        )
    if arr.size and arr.min() < 0:
        raise ValueError("capacity must be non-negative")
    return arr


def kuhn_matching(
    n_left: int,
    n_right: int,
    ptr: np.ndarray,
    adj: np.ndarray,
    cap: int | np.ndarray | None = None,
) -> MatchingResult:
    """Maximum capacitated bipartite matching via augmenting DFS.

    The classic ``O(V * E)`` algorithm: a linear greedy pass seeds the
    matching, then every still-unmatched left vertex runs a DFS for an
    augmenting path.  A right vertex is *free* while its usage is below
    its capacity, and the DFS may re-augment *any* of the left vertices
    currently matched to a saturated right vertex.

    Parameters
    ----------
    n_left, n_right, ptr, adj:
        CSR bipartite graph from the left side.
    cap:
        Right-vertex capacities (scalar broadcasts; default all ones).
    """
    capacity = normalize_capacity(n_right, cap)
    match_of_left = np.full(n_left, -1, dtype=np.int64)
    use = np.zeros(n_right, dtype=np.int64)
    matched_lists: list[list[int]] = [[] for _ in range(n_right)]

    ptr = np.asarray(ptr, dtype=np.int64)
    adj = np.asarray(adj, dtype=np.int64)

    for v in range(n_left):
        for k in range(ptr[v], ptr[v + 1]):
            u = int(adj[k])
            if use[u] < capacity[u]:
                match_of_left[v] = u
                use[u] += 1
                matched_lists[u].append(v)
                break

    # the stamp moves on only after an augmentation: while the matching
    # is unchanged, no vertex a failed search visited reaches a free slot
    visited = np.zeros(n_right, dtype=np.int64)
    stamp = 1

    def try_augment(v0: int) -> bool:
        # Iterative DFS over alternating paths.  A stack frame is
        # ``[v, k, occupants, occ_pos]``: left vertex ``v`` scanning its
        # edge ``k``; when ``occupants`` is a list we are iterating the
        # current matches of the saturated right vertex ``adj[k]``.
        # ``trail`` holds the (left, right) re-assignments to apply on
        # success; a frame owns one trail entry exactly while its occupant
        # iteration is active.
        stack: list[list] = [[v0, int(ptr[v0]), None, 0]]
        trail: list[tuple[int, int]] = []
        while stack:
            frame = stack[-1]
            v, k, occupants, occ_pos = frame
            if occupants is not None:
                if occ_pos < len(occupants):
                    frame[3] += 1
                    w = occupants[occ_pos]
                    stack.append([w, int(ptr[w]), None, 0])
                else:
                    # all occupants of adj[k] failed: move to the next edge
                    frame[2] = None
                    frame[1] = k + 1
                    trail.pop()
                continue
            if k >= ptr[v + 1]:
                stack.pop()
                continue
            u = int(adj[k])
            if visited[u] == stamp:
                frame[1] = k + 1
                continue
            visited[u] = stamp
            if use[u] < capacity[u]:
                # Free slot on u: flip the whole trail.
                trail.append((v, u))
                for tv, tu in trail:
                    old = int(match_of_left[tv])
                    if old >= 0:
                        matched_lists[old].remove(tv)
                        use[old] -= 1
                    match_of_left[tv] = tu
                    matched_lists[tu].append(tv)
                    use[tu] += 1
                return True
            # u saturated: try to re-augment each of its occupants in turn
            # (snapshot: successful flips happen only after we return).
            frame[2] = list(matched_lists[u])
            frame[3] = 0
            trail.append((v, u))
        return False

    for v in range(n_left):
        if match_of_left[v] < 0 and ptr[v] < ptr[v + 1] and try_augment(v):
            stamp += 1

    return MatchingResult(match_of_left=match_of_left, use_of_right=use)
