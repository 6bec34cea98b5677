"""Delta-journal types for mutating instances.

Every change applied to a :class:`~repro.dynamic.DynamicInstance` is
recorded as one :class:`Mutation` — a small, JSON-friendly record of the
*logical* operation (op name + payload).  The journal is the common
currency of the dynamic subsystem:

* :class:`~repro.dynamic.DynamicInstance` appends one entry per mutation
  and uses the private undo payload for ``rollback()``;
* :class:`~repro.dynamic.IncrementalSolver` consumes the journal tail to
  repair its assignment instead of re-solving;
* mutation traces (:mod:`repro.dynamic.trace`) are journals serialised
  one JSON object per line;
* :class:`~repro.algorithms.online.OnlineScheduler` journals its
  arrivals with the same records, so an online stream can be replayed
  into the dynamic engine verbatim.

The module is dependency-free on purpose (no numpy, no core types): the
records must be cheap to create, pickle and serialise.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Iterator

__all__ = ["Mutation", "DeltaJournal", "MUTATION_OPS"]

#: The op vocabulary of the dynamic subsystem (trace files are rejected
#: when they name anything else).
MUTATION_OPS = (
    "add_task",
    "remove_task",
    "add_processor",
    "remove_processor",
    "update_weight",
)


@dataclass(frozen=True)
class Mutation:
    """One logical change to a dynamic instance.

    Attributes
    ----------
    op:
        One of :data:`MUTATION_OPS`.
    payload:
        The operation's arguments, JSON-friendly (ints, floats, lists).
        ``add_task`` carries ``task`` (the handle assigned) and
        ``configs`` (``[[pins...], weight]`` pairs); ``remove_task`` /
        ``remove_processor`` carry the handle; ``add_processor`` carries
        ``proc``; ``update_weight`` carries ``task``, ``config`` and
        ``weight``.
    undo:
        Private payload recorded by the instance so ``rollback()`` can
        invert the operation.  Not serialised into traces.
    """

    op: str
    payload: dict[str, Any]
    undo: dict[str, Any] = field(default_factory=dict, compare=False)

    def __post_init__(self) -> None:
        if self.op not in MUTATION_OPS:
            raise ValueError(
                f"unknown mutation op {self.op!r}; expected one of "
                f"{MUTATION_OPS}"
            )

    def to_dict(self) -> dict[str, Any]:
        """The trace-file form: op + payload, no undo information."""
        return {"op": self.op, **self.payload}

    @staticmethod
    def from_dict(data: dict[str, Any]) -> "Mutation":
        """Inverse of :meth:`to_dict` (used by the trace loader)."""
        payload = dict(data)
        op = payload.pop("op", None)
        if op is None:
            raise ValueError(f"mutation record lacks an 'op' field: {data!r}")
        return Mutation(op=str(op), payload=payload)


class DeltaJournal:
    """A mutation log with snapshot markers, append-only until released.

    ``snapshot()`` returns an opaque marker (the current length);
    ``entries_since(marker)`` yields the tail — how the incremental
    solver catches up — and ``truncate(marker)`` drops entries past the
    marker (the rollback primitive; the *owner* is responsible for
    undoing their effects first).

    ``release(marker)`` forgets the entries *before* the marker, which
    becomes the journal's :attr:`floor`.  Positions stay absolute:
    markers taken before a release stay valid, ``len(journal)`` counts
    released entries too, and ``journal[i]`` reads position ``i``.
    What lies below the floor is gone for good: ``entries_since``,
    ``truncate`` and indexing reject it, and iteration yields the
    retained entries only.  A release rewrites no history, so it never
    bumps :attr:`truncations`.
    """

    def __init__(self) -> None:
        self._entries: list[Mutation] = []
        #: The absolute position of the oldest retained entry.
        self.floor = 0
        #: Bumped by every :meth:`truncate` that dropped entries, so a
        #: consumer holding a cursor can tell "the journal grew past my
        #: cursor" apart from "history was rewritten under me".
        self.truncations = 0

    def append(self, mutation: Mutation) -> Mutation:
        self._entries.append(mutation)
        return mutation

    def snapshot(self) -> int:
        """An opaque marker for the current journal position."""
        return self.floor + len(self._entries)

    def _offset(self, marker: int) -> int:
        """``marker``'s index into the retained entries; raises
        ``ValueError`` unless ``floor <= marker <= len(self)``."""
        if not self.floor <= marker <= len(self):
            raise ValueError(
                f"invalid journal marker {marker!r} (journal holds "
                f"positions {self.floor}..{len(self)})"
            )
        return marker - self.floor

    def entries_since(self, marker: int) -> list[Mutation]:
        """Entries appended after ``marker`` (oldest first)."""
        return self._entries[self._offset(marker) :]

    def truncate(self, marker: int) -> list[Mutation]:
        """Drop and return entries past ``marker`` (newest first, i.e.
        undo order)."""
        at = self._offset(marker)
        dropped = self._entries[at:]
        del self._entries[at:]
        if dropped:
            self.truncations += 1
        return dropped[::-1]

    def release(self, marker: int) -> int:
        """Forget the entries before ``marker``; returns how many were
        released.  Their mutations stay applied: only the record of
        them, and with it the ability to roll back past ``marker``, is
        gone."""
        at = self._offset(marker)
        del self._entries[:at]
        self.floor = marker
        return at

    def __len__(self) -> int:
        return self.floor + len(self._entries)

    def __iter__(self) -> Iterator[Mutation]:
        return iter(self._entries)

    def __getitem__(self, position: int) -> Mutation:
        if not self.floor <= position < len(self):
            raise IndexError(
                f"journal position {position!r} outside "
                f"{self.floor}..{len(self) - 1}"
            )
        return self._entries[position - self.floor]

    def __repr__(self) -> str:  # pragma: no cover - cosmetic
        return (
            f"DeltaJournal({len(self._entries)} entries from {self.floor})"
        )
