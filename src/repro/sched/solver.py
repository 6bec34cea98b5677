"""High-level ``solve`` entry point for named scheduling problems.

:func:`solve` is :func:`repro.api.solve` under its historical import
path: the request is a :class:`~repro.api.SolveOptions` (``options=``)
or its fields as keywords (``method=``, ``seed=``, ``time_budget=``,
``backend=``), never both.  ``method`` is one expression — a solver name,
``"EVG+ls"``, ``"portfolio(SGH,grasp)"`` — and ``"auto"`` (the default)
lets the registry pick the solver for the instance (see
:mod:`repro.api.solvers`).  Calls route through the shared default
engine, so single-instance solves hit the same content-addressed result
cache as batch runs and sweeps.

The returned :class:`~repro.api.SolveResult` exposes the full
:class:`~repro.sched.schedule.Schedule` surface (``makespan``,
``allocation()``, ``timeline()``, ``gantt()``, ...) plus provenance:
the winning solver, wall time, lower bound and optimality gap, and the
cache-hit flag.

For many instances at once, use :func:`repro.engine.solve_many` — same
semantics, pooled execution.
"""

from __future__ import annotations

from ..api import solve

__all__ = ["solve"]
