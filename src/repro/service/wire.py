"""Wire instance dicts → library objects, shared by every server op.

``solve`` and ``session.open`` both receive instances as wire dicts: a
hypergraph as its CSR arrays in frame attachments (see
:mod:`repro.service.protocol`), a bipartite graph as its
:mod:`repro.io.serialize` dict, a dynamic instance as its
``DynamicInstance.to_state()`` dict.  Parsing lives here once so the
two paths accept the same kinds and reject unknown ones with the same
``bad-request`` code (a client switching on error codes must not see
two different answers for the identical mistake).
"""

from __future__ import annotations

from typing import Any

import numpy as np

from ..core.errors import GraphStructureError
from ..core.hypergraph import TaskHypergraph
from ..dynamic import DynamicInstance
from ..io.serialize import packed_fields, unpack_hypergraph
from .protocol import MAX_FRAME_BYTES, ErrorCode, ProtocolError

__all__ = ["hypergraph_from_wire", "dynamic_from_wire", "packed_instance"]

_KINDS = ("hypergraph", "bipartite", "dynamic-instance")

#: The largest vertex count a wire instance may declare (for a dynamic
#: state, the largest handle counter): no count may make one int64
#: array over the vertices larger than the largest frame.  Without
#: it a few-hundred-byte request could name ``n_procs = 2**40`` and the
#: first solver array over the processors would fail untyped.
MAX_WIRE_VERTICES = MAX_FRAME_BYTES // 8


def _checked_kind(data: Any, what: str) -> str:
    if not isinstance(data, dict):
        raise ProtocolError(
            f"{what} must be an object (a {'/'.join(_KINDS)} dict "
            "from repro.io.serialize / DynamicInstance.to_state)",
            code=ErrorCode.BAD_REQUEST,
        )
    kind = data.get("kind")
    if kind not in _KINDS:
        raise ProtocolError(
            f"unknown {what} kind {kind!r} (expected one of "
            f"{list(_KINDS)})",
            code=ErrorCode.BAD_REQUEST,
        )
    # a dynamic state's arrays are indexed by handle, so its handle
    # counters bound its allocation the way the vertex counts do
    keys = (
        ("next_task", "next_proc")
        if kind == "dynamic-instance"
        else ("n_tasks", "n_procs")
    )
    for key in keys:
        value = data.get(key)
        if (
            isinstance(value, (int, float))
            and not isinstance(value, bool)
            and value > MAX_WIRE_VERTICES
        ):
            raise GraphStructureError(
                f"{what} {key}={value} exceeds the wire limit of "
                f"{MAX_WIRE_VERTICES} vertices"
            )
    return kind


def packed_instance(
    data: Any, what: str = "instance"
) -> tuple[int, int, tuple[np.ndarray, ...]] | None:
    """A ``hypergraph`` wire dict's counts and four packed arrays
    (``hedge_task``, ``hedge_ptr``, ``hedge_procs``, ``weights``: the
    frame's attachment views, as they arrived), as
    :func:`~repro.io.serialize.packed_fields` returns them; ``None``
    for the other kinds.

    Runs every check :func:`hypergraph_from_wire` runs before the CSR
    content: the kind, the vertex-count bound, the file-format
    ``version`` and the array dtypes.  The CSR content is left to
    ``from_csr`` (or, for a structure the compile cache holds, to the
    checks that built it)."""
    if _checked_kind(data, what) != "hypergraph":
        return None
    if "version" in data:
        raise ProtocolError(
            f"{what} is a hypergraph in the file format "
            "(repro.io.serialize version 1 or 2); over the wire a "
            "hypergraph's arrays travel as frame attachments",
            code=ErrorCode.BAD_REQUEST,
        )
    return packed_fields(data)


def hypergraph_from_wire(data: Any, what: str = "instance") -> TaskHypergraph:
    """The wire dict as an immutable :class:`TaskHypergraph`.

    A hypergraph's array fields must be numpy arrays (frame
    attachments, once decoded).  A :mod:`repro.io.serialize` file dict
    (it carries a ``version``: 1 for pin lists, 2 for base64 buffers)
    answers ``bad-request``, and so does an unversioned pin-list dict,
    which lacks ``hedge_ptr``.  ``dynamic-instance`` states are accepted too —
    solving one means solving its current compiled content."""
    if packed_instance(data, what) is not None:
        return unpack_hypergraph(data)
    kind = data["kind"]
    if kind == "bipartite":
        from ..io.serialize import bipartite_from_dict

        return TaskHypergraph.from_bipartite(bipartite_from_dict(data))
    return DynamicInstance.from_state(data).to_hypergraph()


def dynamic_from_wire(data: Any, what: str = "baseline") -> DynamicInstance:
    """The wire dict as a (fresh) :class:`DynamicInstance`.

    ``dynamic-instance`` states restore with full fidelity
    (:meth:`DynamicInstance.from_state`); hypergraph/bipartite dicts
    seed via :meth:`DynamicInstance.from_hypergraph`, so trace handles
    line up with dense ids."""
    kind = _checked_kind(data, what)
    if kind == "dynamic-instance":
        return DynamicInstance.from_state(data)
    return DynamicInstance.from_hypergraph(hypergraph_from_wire(data, what))
