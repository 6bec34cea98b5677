"""Mutation traces: churn workloads as JSONL files.

A *trace* is a baseline instance plus an ordered list of mutations —
exactly what it takes to reproduce a stream of cluster churn.  The
on-disk format is JSON-lines:

* line 1 — a header: ``{"kind": "mutation-trace", "version": 1,
  "baseline": ...}`` where the baseline is ``null``, a hypergraph dict
  (:func:`repro.io.serialize.hypergraph_to_dict`) or a full dynamic
  state dict (:meth:`DynamicInstance.to_state` — required fidelity when
  the baseline has churned, since its handles are no longer dense);
* every further line — one mutation record
  (:meth:`~repro.dynamic.journal.Mutation.to_dict`).

Traces are the interchange currency of the dynamic subsystem: the churn
generator (:func:`repro.generators.churn_trace`) emits them, ``semimatch
replay`` consumes them, and ``benchmarks/bench_dynamic_churn.py`` races
incremental repair against from-scratch re-solving over one.
"""

from __future__ import annotations

import json
from pathlib import Path
from typing import Iterable, Sequence

from ..core.errors import GraphStructureError
from ..core.hypergraph import TaskHypergraph
from .instance import DynamicInstance
from .journal import Mutation

__all__ = ["save_trace", "load_trace", "trace_of"]

_TRACE_KIND = "mutation-trace"
_TRACE_VERSION = 1


def trace_of(instance: DynamicInstance) -> list[Mutation]:
    """The instance's full journal as a trace (a copy), replayable from
    the state the instance started in.

    Raises ``ValueError`` once the journal has been released
    (:meth:`~repro.dynamic.journal.DeltaJournal.release`): its retained
    tail no longer replays from that state."""
    journal = instance.journal
    if journal.floor:
        raise ValueError(
            f"the journal's first {journal.floor} entries were released; "
            "the retained tail does not replay from the baseline"
        )
    return list(journal)


def save_trace(
    path: str | Path,
    mutations: Sequence[Mutation],
    *,
    baseline: DynamicInstance | TaskHypergraph | None = None,
) -> None:
    """Write a mutation trace (and optionally its baseline) as JSONL.

    A :class:`DynamicInstance` baseline is stored through
    :meth:`~DynamicInstance.to_state`, which preserves its exact handles
    and disabled configuration slots — compiling it to a hypergraph
    would renumber both and silently re-target the mutations.
    """
    from ..io.serialize import hypergraph_to_dict

    if isinstance(baseline, DynamicInstance):
        base_dict = baseline.to_state()
    elif baseline is not None:
        base_dict = hypergraph_to_dict(baseline)
    else:
        base_dict = None
    header = {
        "kind": _TRACE_KIND,
        "version": _TRACE_VERSION,
        "baseline": base_dict,
    }
    lines = [json.dumps(header)]
    lines.extend(json.dumps(m.to_dict()) for m in mutations)
    Path(path).write_text("\n".join(lines) + "\n")


def load_trace(
    path: str | Path,
) -> tuple[DynamicInstance | None, list[Mutation]]:
    """Read a trace; returns ``(baseline instance or None, mutations)``.

    The baseline (when present) is re-seeded through
    :meth:`DynamicInstance.from_hypergraph`, so the mutations' recorded
    handles line up and :meth:`DynamicInstance.replay` applies cleanly.
    """
    from ..io.serialize import hypergraph_from_dict

    raw = Path(path).read_text().strip()
    if not raw:
        raise GraphStructureError(f"empty trace file {str(path)!r}")
    lines = raw.split("\n")
    header = json.loads(lines[0])
    if header.get("kind") != _TRACE_KIND:
        raise GraphStructureError(
            f"expected kind {_TRACE_KIND!r}, got {header.get('kind')!r}"
        )
    baseline = None
    base_dict = header.get("baseline")
    if base_dict is not None:
        if base_dict.get("kind") == "dynamic-instance":
            baseline = DynamicInstance.from_state(base_dict)
        else:
            baseline = DynamicInstance.from_hypergraph(
                hypergraph_from_dict(base_dict)
            )
    mutations = [
        Mutation.from_dict(json.loads(line))
        for line in lines[1:]
        if line.strip()
    ]
    return baseline, mutations
