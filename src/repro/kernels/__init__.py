"""repro.kernels — vectorized CSR kernel core for the hot paths.

The paper's heuristics were first implemented as per-candidate Python
loops over :class:`~repro.core.hypergraph.TaskHypergraph` views.  This
package compiles an instance once into :class:`CompiledKernels` — a
set of flat NumPy arrays grouped by task (pin lists and pointers, and
the setup built on first use: ranking cells, reduceat offsets, local
search's pin shifts) — and provides array kernels for everything the
greedy heuristics, the local search and the incremental repair loop
do per candidate:

* batched load-vector accumulation (:func:`loads_from_assignment`);
* per-task candidate bottlenecks via ``np.maximum.reduceat``;
* descending-lexicographic candidate ranking (:func:`lex_best_row`),
  sound by the affected-multiset lemma of :mod:`repro.core.loadvec`;
* the one move scan of local search and incremental repair
  (:mod:`repro.kernels.moves`).

Every kernel performs *the same floating-point operations in the same
order* as the Python loops it replaces, so ``backend="numpy"`` returns
bit-identical matchings to ``backend="python"`` — asserted for every
registered solver by ``tests/test_conformance.py``.

Compilations hold the structure only and are cached by its digest
(:func:`repro.engine.cache.structure_digest`), so one structure is
compiled once no matter how many solvers race over it or under how many
weight vectors; kernels gather the weights from the instance they
solve.  A mutating
:class:`~repro.dynamic.DynamicInstance` compiles each version it is
read at the same way: its row store lowers to a hypergraph in one
vectorized pass, and that hypergraph goes through
:func:`compile_instance` like any other.
"""

from __future__ import annotations

from .compiled import (
    CompiledKernels,
    cached_structure,
    compile_cache_stats,
    compile_instance,
    clear_compile_cache,
    evict_compiled,
    flat_ranges,
)
from .ops import (
    batch_lex_signs,
    first_lex_improving,
    lex_best_row,
    loads_from_assignment,
)

__all__ = [
    "KNOWN_BACKENDS",
    "CompiledKernels",
    "cached_structure",
    "compile_instance",
    "evict_compiled",
    "clear_compile_cache",
    "compile_cache_stats",
    "flat_ranges",
    "loads_from_assignment",
    "lex_best_row",
    "batch_lex_signs",
    "first_lex_improving",
    "check_backend",
]

#: The execution backends every kernel-aware solver accepts.
KNOWN_BACKENDS = ("numpy", "python")


def check_backend(backend: str) -> str:
    """Validate a backend name, returning it unchanged."""
    if backend not in KNOWN_BACKENDS:
        raise ValueError(
            f"backend must be one of {KNOWN_BACKENDS}, got {backend!r}"
        )
    return backend
