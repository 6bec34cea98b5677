"""Typed, frozen solve options with canonical normalization.

:class:`SolveOptions` is the one place that declares which fields a
solve request has and what their defaults are.  Every entry point
(:func:`repro.api.solve`, also exported as :func:`repro.solve`,
:func:`repro.engine.solve_hypergraph`, :class:`~repro.engine.BatchSolver`,
:func:`repro.engine.solve_many`, the service client and server) takes
``options: SolveOptions | None = None, **fields`` and builds the request
through :meth:`SolveOptions.merge`: a prepared object *or* keyword
fields, never both.

The strategy is one field, ``method``: a string (``"EVG"``,
``"EVG+ls"``, ``"portfolio(SGH,grasp)"``) or a
:class:`~repro.api.methods.MethodExpr` (``Refine("EVG")``,
``Portfolio("SGH", Refine("EVG"))``).  Normalization parses it into one
canonical, resolved expression — aliases become primary solver names and
an entry-less ``Portfolio`` becomes the registry's generated line-up —
so every spelling of a request shares one engine cache key.  The seed
enters the key only for seed-sensitive (randomized) expressions.
"""

from __future__ import annotations

import numbers
from dataclasses import dataclass, replace
from typing import Any, Mapping, Union

from .methods import MethodExpr, Portfolio, parse_method
from .registry import SolverRegistry, get_registry
from ..kernels import check_backend

__all__ = ["SolveOptions"]

MethodLike = Union[str, MethodExpr]


@dataclass(frozen=True)
class SolveOptions:
    """Everything that determines *how* an instance is solved.

    Parameters
    ----------
    method:
        A method name, method string (``"EVG+ls"``,
        ``"portfolio(SGH,grasp)"``) or :class:`MethodExpr`.
    seed:
        Seed for randomized methods; deterministic methods ignore it.
        An integer (numpy integers included), never a ``bool``.
    time_budget:
        Wall-clock budget in seconds for portfolio races: once spent, no
        further entries start (at least one always runs).  ``None``
        disables the budget.  Budgeted portfolio results depend on
        machine speed; the budget is part of the cache key.
    backend:
        Kernel execution backend for backend-aware solvers:
        ``"numpy"`` (default, the vectorized CSR kernels of
        :mod:`repro.kernels`) or ``"python"`` (the original loops, the
        conformance oracle).  Matchings are bit-identical either way;
        the backend still enters the cache key so timing-sensitive
        sweeps can pin one.
    """

    method: MethodLike = "auto"
    seed: int = 0
    time_budget: float | None = None
    backend: str = "numpy"

    def __post_init__(self) -> None:
        if not isinstance(self.method, (str, MethodExpr)):
            raise TypeError(
                "method must be a string or MethodExpr, got "
                f"{type(self.method).__name__}"
            )
        # fields arrive from the wire too: a bool is not a seed, and a
        # float seed must not be truncated into another seed's answers
        if isinstance(self.seed, bool) or not isinstance(
            self.seed, numbers.Integral
        ):
            raise TypeError(f"seed must be an integer, got {self.seed!r}")
        object.__setattr__(self, "seed", int(self.seed))
        if self.time_budget is not None:
            if isinstance(self.time_budget, bool) or not isinstance(
                self.time_budget, numbers.Real
            ):
                raise TypeError(
                    "time_budget must be a number of seconds, got "
                    f"{self.time_budget!r}"
                )
            if not self.time_budget > 0:
                raise ValueError("time_budget must be positive")
        check_backend(self.backend)

    @classmethod
    def merge(
        cls,
        options: "SolveOptions | None",
        fields: Mapping[str, Any],
        base: "SolveOptions | None" = None,
    ) -> "SolveOptions":
        """The request an entry point was given: ``options`` as is, or
        ``fields`` over ``base`` (default: the field defaults).  Passing
        both ``options`` and fields is a :class:`TypeError`."""
        if options is not None:
            if fields:
                raise TypeError("pass options= or keyword fields, not both")
            return options
        if base is None:
            return cls(**fields)
        return replace(base, **fields) if fields else base

    # ------------------------------------------------------------------
    @property
    def is_normalized(self) -> bool:
        # an entry-less Portfolio still needs the default line-up
        return isinstance(self.method, MethodExpr) and not (
            isinstance(self.method, Portfolio) and not self.method.entries
        )

    def expression(
        self, registry: SolverRegistry | None = None
    ) -> MethodExpr:
        """The canonical expression this request denotes."""
        registry = registry if registry is not None else get_registry()
        expr = parse_method(self.method)
        if isinstance(expr, Portfolio) and not expr.entries:
            expr = Portfolio(
                *(parse_method(n) for n in registry.default_portfolio())
            )
        return expr.resolved(registry)

    def normalized(
        self, registry: SolverRegistry | None = None
    ) -> "SolveOptions":
        """Canonical form: ``method`` as one resolved
        :class:`MethodExpr`.  Idempotent."""
        expr = self.expression(registry)
        if expr is self.method:
            return self
        return replace(self, method=expr)

    def cache_token(
        self, registry: SolverRegistry | None = None
    ) -> tuple:
        """The options' contribution to the engine cache key.

        Canonical method string, plus the seed only when the expression
        is seed-sensitive, plus the time budget only when set.
        """
        registry = registry if registry is not None else get_registry()
        # resolve even pre-normalized expressions: an alias-built
        # MethodExpr must key identically to its primary-name spelling
        expr = self.expression(registry)
        return (
            expr.canonical(),
            self.seed if expr.is_randomized(registry) else None,
            self.time_budget,
            self.backend,
        )

    def describe(self) -> str:
        """One-line human-readable form."""
        expr = self.expression()
        bits = [expr.canonical()]
        if expr.is_randomized(get_registry()):
            bits.append(f"seed={self.seed}")
        if self.time_budget is not None:
            bits.append(f"time_budget={self.time_budget:g}s")
        if self.backend != "numpy":
            bits.append(f"backend={self.backend}")
        return " ".join(bits)
