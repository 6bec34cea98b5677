"""The vectorized kernel core (repro.kernels).

Properties that make the kernels trustworthy as a foundation:

* compile → decompile round-trips every instance array-for-array;
* the grouped arrays are consistent with the hypergraph's CSR views;
* the lex kernels agree sign-for-sign with the reference comparison in
  :mod:`repro.core.loadvec` (including negative values, ties, and
  ``-inf`` padding);
* the batched load accumulation equals the validation oracle bit-wise;
* the compile cache is digest-keyed (hit on structural equality).

The solver-level guarantee — ``backend="numpy"`` bit-equal to
``backend="python"`` for every registered solver — lives in
``test_conformance.py``.
"""

from unittest import mock

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra.numpy import arrays

from repro.core.loadvec import lex_compare_multisets
from repro.core.validation import compute_loads_hypergraph
from repro.kernels import ops as kernel_ops
from repro.kernels import (
    CompiledKernels,
    batch_lex_signs,
    check_backend,
    clear_compile_cache,
    compile_cache_stats,
    compile_instance,
    lex_best_row,
    loads_from_assignment,
)
from repro.engine.cache import instance_digest, structure_digest
from repro.generators import generate_multiproc

from strategies import random_hypergraph, task_hypergraphs


# ---------------------------------------------------------------------------
# compilation
# ---------------------------------------------------------------------------
class TestCompiledKernels:
    @given(task_hypergraphs(weighted=True))
    @settings(max_examples=50, deadline=None)
    def test_compile_decompile_round_trip(self, hg):
        """compile → decompile reproduces every defining array."""
        back = compile_instance(hg).decompile()
        for field in (
            "hedge_task",
            "hedge_ptr",
            "hedge_procs",
            "task_ptr",
            "task_hedges",
            "proc_ptr",
            "proc_hedges",
        ):
            assert np.array_equal(
                getattr(hg, field), getattr(back, field)
            ), field
        assert np.array_equal(hg.hedge_w, back.hedge_w)
        assert instance_digest(hg) == instance_digest(back)

    @given(task_hypergraphs(weighted=True))
    @settings(max_examples=30, deadline=None)
    def test_grouped_arrays_match_csr_views(self, hg):
        ci = compile_instance(hg)
        assert ci.hypergraph is hg  # bound to the instance asked for
        for v in range(hg.n_tasks):
            a, b = ci.task_slice(v)
            assert np.array_equal(ci.g_hedge[a:b], hg.task_hedge_ids(v))
            union = set()
            for k in range(a, b):
                h = int(ci.g_hedge[k])
                pins = ci.g_pins[ci.g_ptr[k] : ci.g_ptr[k + 1]]
                assert np.array_equal(pins, hg.hedge_proc_set(h))
                assert ci.hedge_gpos[h] == k
                union.update(int(u) for u in pins)
            aff = np.array(sorted(union), dtype=np.int64)
            # each pin's shift takes it to its processor's union position
            p0, p1 = ci.g_ptr[a], ci.g_ptr[b]
            pos = np.arange(p1 - p0) + ci.pin_shift[p0:p1]
            assert np.array_equal(aff[pos], ci.g_pins[p0:p1])
            # a processor repeats when the task's pins outnumber its union
            assert ci.task_repeats[v] == (p1 - p0 > aff.shape[0])
            # candidate i's pins fill row i of the (d_v, P_v) ranking
            # matrix at their own columns
            width = p1 - p0
            for i, k in enumerate(range(a, b)):
                q0, q1 = ci.g_ptr[k], ci.g_ptr[k + 1]
                assert np.array_equal(
                    ci.pin_cells[q0:q1],
                    i * width + np.arange(q0 - p0, q1 - p0),
                )

    def test_empty_instance(self):
        from repro.core import TaskHypergraph

        hg = TaskHypergraph.from_configurations([], n_procs=3)
        ci = compile_instance(hg)
        assert ci.n_tasks == 0 and ci.n_hedges == 0
        assert ci.decompile().n_procs == 3

    def test_cache_hits_on_structural_equality(self):
        clear_compile_cache()
        hg = generate_multiproc(
            12, 4, g=2, dv=2, dh=2, weights="related", seed=3
        )
        twin = hg.with_weights(hg.hedge_w + 1.0)  # other weights
        c1 = compile_instance(hg)
        c2 = compile_instance(twin)
        # same structure digest -> the same compilation, bound to twin
        assert c2.digest == c1.digest and c2.hypergraph is twin
        assert c2.g_pins is c1.g_pins and c2._memo is c1._memo
        stats = compile_cache_stats()
        assert set(stats) == {"entries", "bytes", "hits", "misses"}
        assert stats["hits"] >= 1 and stats["entries"] >= 1
        assert stats["bytes"] > 0

    def test_digest_can_be_supplied(self):
        hg = generate_multiproc(
            10, 4, g=2, dv=2, dh=2, weights="unit", seed=0
        )
        d = structure_digest(hg)
        assert compile_instance(hg, digest=d).digest == d


# ---------------------------------------------------------------------------
# lex kernels vs the loadvec oracle
# ---------------------------------------------------------------------------
_VALUES = st.sampled_from(
    [0.0, 1.0, 1.5, 2.0, 3.0, 0.1 + 0.2, -1e-16, 7.25]
)
#: values that keep ``lex_best_row`` on its byte-key path
_NON_NEGATIVE = st.sampled_from(
    [0.0, 1.0, 1.5, 2.0, 3.0, 0.1 + 0.2, 7.25, 1e300]
)


def _oracle_best_row(rows):
    """Strict-``<`` incumbent scan with the pairwise reference."""
    best = 0
    for i in range(1, rows.shape[0]):
        if lex_compare_multisets(rows[i], rows[best]) < 0:
            best = i
    return best


class TestLexKernels:
    @given(
        st.integers(1, 12),
        st.integers(1, 64),
        st.sampled_from(["mixed", "non-negative", "negative"]),
        st.data(),
    )
    @settings(max_examples=150, deadline=None)
    def test_lex_best_row_matches_pairwise_oracle(self, m, k, sign, data):
        values = _NON_NEGATIVE if sign == "non-negative" else _VALUES
        rows = data.draw(arrays(np.float64, (m, k), elements=values))
        # ties: a row may repeat an earlier row's multiset in another
        # order (tied through the last column), or repeat all but its
        # smallest value (tied up to the last column)
        for i in range(1, m):
            tie = data.draw(st.sampled_from(["none", "full", "last"]))
            if tie == "none":
                continue
            order = data.draw(st.permutations(range(k)))
            rows[i] = rows[data.draw(st.integers(0, i - 1))][order]
            if tie == "last":
                rows[i, int(np.argmin(rows[i]))] = data.draw(values)
        if sign == "negative":
            i = data.draw(st.integers(0, m - 1))
            rows[i, data.draw(st.integers(0, k - 1))] = -1e-16
        best = _oracle_best_row(rows)
        negative = bool((rows < 0).any())
        with mock.patch.object(
            kernel_ops, "_inv_sort_keys", wraps=kernel_ops._inv_sort_keys
        ) as spy:
            got = lex_best_row(rows)
        assert got == best
        # negative values take the sign-aware keys, the rest the byte key
        assert spy.called == negative

    def test_lex_best_row_without_columns(self):
        # empty multisets all tie, so the first row wins
        assert lex_best_row(np.empty((3, 0))) == 0

    @given(st.integers(1, 6), st.integers(1, 8), st.data())
    @settings(max_examples=80, deadline=None)
    def test_batch_signs_match_oracle(self, m, k, data):
        pad = st.sampled_from([0.0, 1.0, 2.0, -2e-17, -np.inf, 5.5])
        a = np.array(
            [[data.draw(pad) for _ in range(k)] for _ in range(m)]
        )
        b = np.array(
            [[data.draw(pad) for _ in range(k)] for _ in range(m)]
        )
        want = [lex_compare_multisets(a[i], b[i]) for i in range(m)]
        assert list(batch_lex_signs(a, b)) == want

    def test_move_sign_single(self):
        assert _sign([1.0, 2.0], [2.0, 2.0]) == -1
        assert _sign([3.0, 1.0], [2.0, 2.0]) == 1
        assert _sign([2.0, 1.0], [1.0, 2.0]) == 0  # same multiset

    def test_negative_values_ordered_correctly(self):
        # the inverted total-order keys must rank negatives properly
        assert _sign([-2.0], [-1.0]) == -1
        assert _sign([-1.0], [-2.0]) == 1
        assert batch_lex_signs(
            np.array([[-3.0, 0.5]]), np.array([[0.5, -1.0]])
        )[0] == -1


def _sign(after, before) -> int:
    """One move's sign: a one-row :func:`batch_lex_signs`."""
    return int(batch_lex_signs(np.array([after]), np.array([before]))[0])


# ---------------------------------------------------------------------------
# batched load accumulation
# ---------------------------------------------------------------------------
class TestLoadsKernel:
    @given(task_hypergraphs(weighted=True))
    @settings(max_examples=40, deadline=None)
    def test_matches_validation_oracle_bitwise(self, hg):
        rng = np.random.default_rng(0)
        assign = np.array(
            [
                int(rng.choice(hg.task_hedge_ids(v)))
                for v in range(hg.n_tasks)
            ],
            dtype=np.int64,
        )
        kern = loads_from_assignment(hg, assign)
        oracle = compute_loads_hypergraph(hg, assign)
        assert np.array_equal(kern, oracle)

    def test_empty_assignment(self):
        hg = random_hypergraph(np.random.default_rng(1))
        empty = loads_from_assignment(
            hg, np.empty(0, dtype=np.int64)
        )
        # an empty slice of tasks loads nothing
        assert empty.shape == (hg.n_procs,)
        assert not empty.any()


def test_check_backend_rejects_unknown():
    with pytest.raises(ValueError, match="backend"):
        check_backend("fortran")
    assert check_backend("numpy") == "numpy"
    assert check_backend("python") == "python"


def test_compiled_instance_is_frozen():
    hg = random_hypergraph(np.random.default_rng(2))
    ci = compile_instance(hg)
    assert isinstance(ci, CompiledKernels)
    with pytest.raises(Exception):
        ci.digest = "nope"
