"""JSON-friendly serialisation of graphs, hypergraphs and matchings.

Instances round-trip through plain dictionaries, so they can be stored
with :mod:`json` or checked into a repository as fixtures.  Files
written by :func:`save_instance` carry a ``kind`` tag and a format
version.  These dicts are the *file* format: the solve service sends a
hypergraph's arrays as binary frame attachments instead (see
:mod:`repro.service.protocol`), built from the same
:func:`pack_hypergraph` arrays and read back through the same
:func:`unpack_hypergraph`.

Hypergraph dicts (``kind: "hypergraph"``) are written as **version 2**,
the packed CSR form of :class:`~repro.core.hypergraph.TaskHypergraph`::

    {"kind": "hypergraph", "version": 2, "n_tasks": <int>, "n_procs": <int>,
     "hedge_task": <b64 int32>, "hedge_ptr": <b64 int32>,
     "hedge_procs": <b64 int32>, "weights": <b64 float64>}

Each array field is the raw little-endian buffer of a 1-D array in the
standard base64 alphabet (RFC 4648, with padding): ``hedge_task`` holds
one task id per hyperedge, the processors of hyperedge ``h`` are
``hedge_procs[hedge_ptr[h]:hedge_ptr[h + 1]]``, and ``weights`` holds
one IEEE-754 binary64 weight per hyperedge, so weights are bit-exact.
The reader validates the arrays through
:meth:`TaskHypergraph.from_csr`; a malformed field raises
:class:`~repro.core.errors.GraphStructureError`.

Version 1 dicts (``hedge_task``, ``pins`` and ``weights`` as JSON
lists, ``pins`` one list of processor ids per hyperedge) are still
read.  Bipartite and matching dicts are version 1: lists of ints and
floats.
"""

from __future__ import annotations

import base64
import json
from pathlib import Path
from typing import Any

import numpy as np

from ..core.bipartite import BipartiteGraph
from ..core.errors import GraphStructureError
from ..core.hypergraph import TaskHypergraph
from ..core.semimatching import HyperSemiMatching, SemiMatching

__all__ = [
    "bipartite_to_dict",
    "bipartite_from_dict",
    "hypergraph_to_dict",
    "hypergraph_from_dict",
    "pack_hypergraph",
    "packed_fields",
    "unpack_hypergraph",
    "matching_to_dict",
    "save_instance",
    "load_instance",
]

_FORMAT_VERSION = 1
_HYPERGRAPH_VERSION = 2

#: little-endian wire dtype of each packed v2 array field
_PACKED = {
    "hedge_task": "<i4",
    "hedge_ptr": "<i4",
    "hedge_procs": "<i4",
    "weights": "<f8",
}
_INT32_MAX = np.iinfo(np.int32).max


def bipartite_to_dict(graph: BipartiteGraph) -> dict[str, Any]:
    """Serialise a bipartite graph (CSR edge list form)."""
    owner = np.repeat(
        np.arange(graph.n_tasks, dtype=np.int64), np.diff(graph.task_ptr)
    )
    return {
        "kind": "bipartite",
        "version": _FORMAT_VERSION,
        "n_tasks": graph.n_tasks,
        "n_procs": graph.n_procs,
        "task_ids": owner.tolist(),
        "proc_ids": graph.task_adj.tolist(),
        "weights": graph.weights.tolist(),
    }


def bipartite_from_dict(data: dict[str, Any]) -> BipartiteGraph:
    """Inverse of :func:`bipartite_to_dict`."""
    if data.get("kind") != "bipartite":
        raise GraphStructureError(
            f"expected kind 'bipartite', got {data.get('kind')!r}"
        )
    return BipartiteGraph.from_edges(
        int(data["n_tasks"]),
        int(data["n_procs"]),
        np.asarray(data["task_ids"], dtype=np.int64),
        np.asarray(data["proc_ids"], dtype=np.int64),
        np.asarray(data["weights"], dtype=np.float64),
    )


def pack_hypergraph(hg: TaskHypergraph) -> dict[str, np.ndarray]:
    """A hypergraph's CSR arrays in their packed dtypes
    (``hedge_task``, ``hedge_ptr``, ``hedge_procs`` as little-endian
    int32, ``weights`` as little-endian float64).

    Raises :class:`GraphStructureError` for a value beyond int32."""
    arrays = {
        "hedge_task": hg.hedge_task,
        "hedge_ptr": hg.hedge_ptr,
        "hedge_procs": hg.hedge_procs,
        "weights": hg.hedge_w,
    }
    out = {}
    for key, arr in arrays.items():
        dtype = _PACKED[key]
        if dtype == "<i4" and arr.size and arr.max() > _INT32_MAX:
            raise GraphStructureError(
                f"{key} holds a value outside int32; the instance is too "
                "large for the serialized form"
            )
        out[key] = np.ascontiguousarray(arr, dtype=dtype)
    return out


def packed_fields(
    data: dict[str, Any]
) -> tuple[int, int, tuple[np.ndarray, ...]]:
    """``(n_tasks, n_procs, (hedge_task, hedge_ptr, hedge_procs,
    weights))`` of a packed dict, with the counts checked to be
    integers and every array to be a numpy array of its packed dtype.
    The CSR content is not checked here: :func:`unpack_hypergraph`
    does that.  A malformed count or array raises
    :class:`GraphStructureError`, a missing field ``KeyError``."""
    n_tasks = _field(data, "n_tasks")
    n_procs = _field(data, "n_procs")
    for key, value in (("n_tasks", n_tasks), ("n_procs", n_procs)):
        if isinstance(value, bool) or not isinstance(value, (int, np.integer)):
            raise GraphStructureError(f"{key} must be an integer")
    arrays = {key: _field(data, key) for key in _PACKED}
    for key, arr in arrays.items():
        if not isinstance(arr, np.ndarray) or arr.dtype != _PACKED[key]:
            got = arr.dtype.str if isinstance(arr, np.ndarray) else type(arr).__name__
            raise GraphStructureError(
                f"{key} must be {_PACKED[key]} data, got {got}"
            )
    return int(n_tasks), int(n_procs), tuple(arrays[key] for key in _PACKED)


def unpack_hypergraph(data: dict[str, Any]) -> TaskHypergraph:
    """The inverse of :func:`pack_hypergraph`: ``data`` holds the
    ``n_tasks``/``n_procs`` counts and the four packed arrays under
    their field names, as :func:`packed_fields` checks them; the CSR
    content is validated by :meth:`TaskHypergraph.from_csr`."""
    n_tasks, n_procs, (hedge_task, hedge_ptr, hedge_procs, weights) = (
        packed_fields(data)
    )
    return TaskHypergraph.from_csr(
        n_tasks,
        n_procs,
        hedge_task,
        hedge_ptr,
        hedge_procs,
        # from_csr keeps float64 weights as given; a copy stops them
        # from pinning the (much larger) buffer they were read from
        weights.copy(),
    )


def hypergraph_to_dict(hg: TaskHypergraph) -> dict[str, Any]:
    """Serialise a hypergraph as a version 2 (packed CSR) dict."""
    out: dict[str, Any] = {
        "kind": "hypergraph",
        "version": _HYPERGRAPH_VERSION,
        "n_tasks": int(hg.n_tasks),
        "n_procs": int(hg.n_procs),
    }
    for key, packed in pack_hypergraph(hg).items():
        out[key] = base64.b64encode(packed.data).decode("ascii")
    return out


def hypergraph_from_dict(data: dict[str, Any]) -> TaskHypergraph:
    """Inverse of :func:`hypergraph_to_dict`; reads version 1 and 2."""
    if data.get("kind") != "hypergraph":
        raise GraphStructureError(
            f"expected kind 'hypergraph', got {data.get('kind')!r}"
        )
    version = data.get("version", 1)
    if version == 1:
        return TaskHypergraph.from_hyperedges(
            int(_field(data, "n_tasks")),
            int(_field(data, "n_procs")),
            np.asarray(_field(data, "hedge_task"), dtype=np.int64),
            _field(data, "pins"),
            np.asarray(_field(data, "weights"), dtype=np.float64),
        )
    if version != _HYPERGRAPH_VERSION:
        raise GraphStructureError(
            f"unsupported hypergraph dict version {version!r} "
            f"(this reader knows 1 and {_HYPERGRAPH_VERSION})"
        )
    return unpack_hypergraph(
        {**data, **{key: _unpack(data, key) for key in _PACKED}}
    )


def _field(data: dict[str, Any], key: str) -> Any:
    # a missing field stays a KeyError: the service answers it
    # ``bad-request`` (a malformed request), not ``graph-structure``
    try:
        return data[key]
    except KeyError:
        raise KeyError(f"hypergraph dict lacks the {key!r} field") from None


def _unpack(data: dict[str, Any], key: str) -> np.ndarray:
    """One packed v2 array field as a read-only numpy view."""
    text = _field(data, key)
    if not isinstance(text, str):
        raise GraphStructureError(f"{key} must be a base64 string")
    try:
        raw = base64.b64decode(text, validate=True)
    except ValueError as exc:  # binascii.Error, or non-ASCII text
        raise GraphStructureError(f"{key} is not valid base64: {exc}") from None
    dtype = np.dtype(_PACKED[key])
    if len(raw) % dtype.itemsize:
        raise GraphStructureError(
            f"{key} holds {len(raw)} bytes, not a multiple of the "
            f"{dtype.itemsize}-byte item size"
        )
    return np.frombuffer(raw, dtype=dtype)


def matching_to_dict(matching: SemiMatching | HyperSemiMatching) -> dict[str, Any]:
    """Serialise a matching result (assignment + makespan)."""
    if isinstance(matching, SemiMatching):
        return {
            "kind": "semi-matching",
            "version": _FORMAT_VERSION,
            "edge_of_task": matching.edge_of_task.tolist(),
            "makespan": matching.makespan,
        }
    return {
        "kind": "hyper-semi-matching",
        "version": _FORMAT_VERSION,
        "hedge_of_task": matching.hedge_of_task.tolist(),
        "makespan": matching.makespan,
    }


def save_instance(
    obj: BipartiteGraph | TaskHypergraph, path: str | Path
) -> None:
    """Write an instance to ``path`` as JSON."""
    if isinstance(obj, BipartiteGraph):
        data = bipartite_to_dict(obj)
    elif isinstance(obj, TaskHypergraph):
        data = hypergraph_to_dict(obj)
    else:
        raise TypeError(f"cannot serialise {type(obj).__name__}")
    Path(path).write_text(json.dumps(data))


def load_instance(path: str | Path) -> BipartiteGraph | TaskHypergraph:
    """Read an instance written by :func:`save_instance`."""
    data = json.loads(Path(path).read_text())
    kind = data.get("kind")
    if kind == "bipartite":
        return bipartite_from_dict(data)
    if kind == "hypergraph":
        return hypergraph_from_dict(data)
    raise GraphStructureError(f"unknown instance kind {kind!r}")
