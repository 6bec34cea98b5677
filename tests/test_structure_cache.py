"""One compilation per instance structure.

The kernel compile cache is keyed by the *structure digest* (vertex
counts and pin lists, no weights), so every weight variant of one
structure shares one compilation and its setup, and a server builds a
request whose structure is cached as ``cached.with_weights(weights)``
instead of validating the arrays again.  These tests hold:

* bit-equality: a weight variant solved after its structure is cached
  (from another weighting, with every setup built) equals the same
  variant solved against a cold cache and the ``backend="python"``
  oracle, for SGH/VGH/EGH/EVG, GRASP and local search, in the library
  and through a plain server;
* the wire: on a structure hit the request's weights are still checked
  (NaN, zero, negative, wrong length, wrong dtype) and answer the same
  typed error as on a miss; the same three structure arrays under
  another ``n_procs``, or split differently between ``hedge_ptr`` and
  ``hedge_procs``, are not a hit;
* bindings: a compilation is bound to the instance asked for, and
  ``decompile()`` returns that instance's own weights;
* concurrency: threads racing to build the setup through different
  bindings read one published value of each item, and the cached
  entry ends priced with all of them;
* transport: no array a compilation shares across weight variants
  views an engine's shared-memory segment.
"""

from __future__ import annotations

import socket

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.api import solve as api_solve
from repro.core import TaskHypergraph
from repro.engine import BatchSolver, instance_digest, structure_digest
from repro.generators import generate_multiproc
from repro.kernels import (
    clear_compile_cache,
    compile_cache_stats,
    compile_instance,
)
from repro.service import ServiceClient, instance_to_wire
from repro.service.protocol import decode_frame, encode_frame, request

from strategies import task_hypergraphs
from test_service import read_frame, running_server

#: every kernel-aware heuristic: the four greedy ones, GRASP, and local
#: search (refining SGH)
METHODS = ("SGH", "VGH", "EGH", "EVG", "grasp", "SGH+ls")
BACKENDS = ("numpy", "python")


@pytest.fixture(autouse=True)
def fresh_compile_cache():
    clear_compile_cache()
    yield
    clear_compile_cache()


def _weights(draw, n: int) -> np.ndarray:
    """Another weighting: small integers or arbitrary positive floats
    (ties and non-ties both matter to the greedy choices)."""
    values = st.one_of(
        st.integers(1, 9).map(float),
        st.floats(0.125, 8.0, allow_nan=False, allow_infinity=False),
    )
    return np.array([draw(values) for _ in range(n)], dtype=np.float64)


def _wire(hg: TaskHypergraph, **patch) -> dict:
    """``hg``'s solve-request instance as a server receives it: the
    decoded frame's attachment views, with fields patched."""
    instance = dict(instance_to_wire(hg), **patch)
    frame = encode_frame(request("solve", 1, instance=instance))
    return decode_frame(frame)["instance"]


#: an engine without a result cache: every solve runs its kernel
_ENGINE = BatchSolver(max_workers=1, executor="serial", cache=None)


def _library(hg, method: str, backend: str):
    result = _ENGINE.solve(hg, method=method, backend=backend, seed=3)
    return result.matching.hedge_of_task, result.makespan


class TestWeightVariantsAreBitEqual:
    @given(task_hypergraphs(max_tasks=8, max_procs=6), st.data())
    @settings(max_examples=25, deadline=None)
    def test_library(self, hg, data):
        variant = hg.with_weights(_weights(data.draw, hg.n_hedges))
        cold = {}
        for method in METHODS:
            for backend in BACKENDS:
                clear_compile_cache()
                cold[method, backend] = _library(variant, method, backend)
        # the structure cached from the other weighting, with every
        # structural setup (union index, lists, offsets, cells) built
        clear_compile_cache()
        for method in METHODS:
            _library(hg, method, "numpy")
        misses = compile_cache_stats()["misses"]
        for method in METHODS:
            for backend in BACKENDS:
                assignment, makespan = _library(variant, method, backend)
                for want in (cold[method, backend], cold[method, "python"]):
                    assert np.array_equal(assignment, want[0]), method
                    assert makespan == want[1], method
        assert compile_cache_stats()["misses"] == misses  # all hits

    @given(task_hypergraphs(max_tasks=8, max_procs=6), st.data())
    @settings(max_examples=10, deadline=None)
    def test_plain_server(self, cacheless_server, hg, data):
        server = cacheless_server
        variant = hg.with_weights(_weights(data.draw, hg.n_hedges))
        with ServiceClient(port=server.port) as client:

            def remote(instance, method, backend):
                result = client.solve(
                    instance, method=method, backend=backend, seed=3
                )
                return result.assignment, result.makespan

            cold = {}
            for method in METHODS:
                for backend in BACKENDS:
                    clear_compile_cache()
                    cold[method, backend] = remote(variant, method, backend)
            clear_compile_cache()
            for method in METHODS:
                remote(hg, method, "numpy")
            misses = compile_cache_stats()["misses"]
            for method in METHODS:
                for backend in BACKENDS:
                    assignment, makespan = remote(variant, method, backend)
                    local = _library(variant, method, "python")
                    for want in (cold[method, backend], local):
                        assert np.array_equal(assignment, want[0]), method
                        assert makespan == want[1], method
            # the server's parse and every solve hit the structure
            assert compile_cache_stats()["misses"] == misses


@pytest.fixture(scope="module")
def cacheless_server():
    engine = BatchSolver(max_workers=1, executor="serial", cache=None)
    with running_server(engine=engine) as (server, _loop):
        yield server


def _base() -> TaskHypergraph:
    return generate_multiproc(24, 8, g=4, weights="related", seed=1)


class TestServerParse:
    def test_a_structure_hit_reuses_the_validated_structure(self):
        base = _base()
        with running_server() as (server, _loop):
            miss = server._parse_instance(_wire(base))
            assert miss.hedge_ptr is not base.hedge_ptr  # from_csr's own
            compile_instance(miss)
            variant = base.with_weights(base.hedge_w * 1.5)
            hit = server._parse_instance(_wire(variant))
        for name in ("hedge_task", "hedge_ptr", "hedge_procs", "task_ptr"):
            assert getattr(hit, name) is getattr(miss, name), name
        assert np.array_equal(hit.hedge_w, variant.hedge_w)
        assert instance_digest(hit) == instance_digest(variant)
        assert structure_digest(hit) == structure_digest(base)
        assert not hit.hedge_w.flags.writeable  # frozen with its digest

    def test_other_n_procs_is_not_a_hit(self):
        base = _base()
        wider = TaskHypergraph.from_csr(
            base.n_tasks, base.n_procs + 1, base.hedge_task,
            base.hedge_ptr, base.hedge_procs, base.hedge_w,
        )
        assert structure_digest(wider) != structure_digest(base)
        with running_server() as (server, _loop):
            compile_instance(server._parse_instance(_wire(base)))
            parsed = server._parse_instance(_wire(wider))
            assert parsed.n_procs == base.n_procs + 1
            assert parsed.hedge_ptr is not base.hedge_ptr
            misses = compile_cache_stats()["misses"]
            compiled = compile_instance(parsed)
            assert compile_cache_stats()["misses"] == misses + 1
            assert compiled.n_procs == base.n_procs + 1

    def test_a_shifted_pointer_split_is_not_a_hit(self):
        """The same hashed bytes split differently between ``hedge_ptr``
        and ``hedge_procs`` have the cached structure's digest; the
        request is malformed and must answer as one, not as the cached
        instance."""
        base = _base()
        ptr = base.hedge_ptr.astype("<i4")
        pins = base.hedge_procs.astype("<i4")
        shifted = {
            "hedge_ptr": ptr[:-1].copy(),
            "hedge_procs": np.concatenate([ptr[-1:], pins]),
        }
        with running_server() as (server, _loop):
            compile_instance(server._parse_instance(_wire(base)))
            reply = _send(server.port, _wire_dict(base, **shifted))
        assert reply["error"]["code"] == "graph-structure"
        assert "hedge_ptr" in reply["error"]["message"]


def _wire_dict(hg: TaskHypergraph, **patch) -> dict:
    return dict(instance_to_wire(hg), **patch)


def _send(port: int, instance: dict) -> dict:
    sock = socket.create_connection(("127.0.0.1", port), timeout=20)
    try:
        sock.sendall(encode_frame(request("solve", 1, instance=instance)))
        rfile = sock.makefile("rb")
        try:
            return read_frame(rfile)
        finally:
            rfile.close()
    finally:
        sock.close()


_BAD_WEIGHTS = {
    "nan": lambda w: np.full_like(w, np.nan),
    "zero": np.zeros_like,
    "negative": lambda w: -w,
    "short": lambda w: w[:-1].copy(),
    "long": lambda w: np.concatenate([w, w[:1]]),
    "int32": lambda w: w.astype("<i4"),
    "list": lambda w: w.tolist(),
}


class TestWeightsAreCheckedOnAHit:
    @pytest.mark.parametrize("case", sorted(_BAD_WEIGHTS))
    def test_bad_weights_answer_typed_on_a_hit_as_on_a_miss(self, case):
        base = _base()
        bad = _wire_dict(base, weights=_BAD_WEIGHTS[case](base.hedge_w))
        with running_server() as (server, _loop):
            cold = _send(server.port, bad)
            with ServiceClient(port=server.port) as client:
                client.solve(base, method="SGH")  # caches the structure
                assert compile_cache_stats()["entries"] == 1
                warm = _send(server.port, bad)
                # the server still answers, and the entry is untouched
                good = client.solve(base, method="SGH")
        assert cold["error"]["code"] == "graph-structure"
        assert warm["error"]["code"] == cold["error"]["code"]
        assert "result" not in warm
        local = api_solve(base, method="SGH")
        assert np.array_equal(good.assignment, local.hedge_of_task)


class TestBindings:
    def test_decompile_returns_the_solved_instances_weights(self):
        base = _base()
        variant = base.with_weights(base.hedge_w + 0.5)
        cached = compile_instance(base)
        bound = compile_instance(variant)
        assert bound.hypergraph is variant and cached.hypergraph is base
        assert bound.g_pins is cached.g_pins
        back = bound.decompile()
        assert np.array_equal(back.hedge_w, variant.hedge_w)
        assert instance_digest(back) == instance_digest(variant)
        assert np.array_equal(cached.decompile().hedge_w, base.hedge_w)

    def test_setup_built_through_a_binding_is_shared_and_priced(self):
        base = _base()
        cached = compile_instance(base)
        before = compile_cache_stats()["bytes"]
        bound = compile_instance(base.with_weights(base.hedge_w * 2))
        _library(bound.hypergraph, "VGH", "numpy")
        assert cached.pin_cells is bound.pin_cells
        assert cached.visit_order is bound.visit_order
        assert compile_cache_stats()["bytes"] > before


class TestConcurrentSetup:
    def test_bindings_racing_publish_one_setup_and_price_it(self):
        """Threads solving different weight variants of one structure at
        once build its setup through different bindings: every reader
        gets the one published value of each item, and the entry ends
        priced with all of them."""
        import sys
        import threading

        from repro.kernels.compiled import _CACHE, compiled_nbytes

        base = _base()
        entry = compile_instance(base)
        n_threads = 8
        barrier = threading.Barrier(n_threads, timeout=30)
        seen: list = [None] * n_threads
        names = ("pin_shift", "visit_order", "task_ptr_list", "g_ptr_list",
                 "task_repeats", "reduceat_offsets", "pin_cells")

        def race(slot: int) -> None:
            bound = compile_instance(
                base.with_weights(base.hedge_w + slot + 1.0)
            )
            barrier.wait()
            seen[slot] = [getattr(bound, name) for name in names]

        interval = sys.getswitchinterval()
        sys.setswitchinterval(1e-6)
        try:
            threads = [
                threading.Thread(target=race, args=(k,))
                for k in range(n_threads)
            ]
            for t in threads:
                t.start()
            for t in threads:
                t.join(30)
                assert not t.is_alive()
        finally:
            sys.setswitchinterval(interval)
        for values in seen:
            assert values is not None
            for name, value in zip(names, values):
                assert value is entry._memo[name], name
        assert compile_cache_stats()["entries"] == 1
        assert _CACHE.stats()["bytes"] == compiled_nbytes(entry)


class TestSharedMemory:
    def test_no_shared_array_views_the_segment(self):
        """A compilation built from an instance attached over shared
        memory keeps that instance (evicted with the segment), but
        every array it shares with other weight variants is a copy."""
        from repro.engine import transport
        from repro.kernels.compiled import _owner

        if not transport.transport_available():  # pragma: no cover
            pytest.skip("no shared memory on this platform")
        base = _base()
        registry = transport.ExportRegistry()
        try:
            descriptor = registry.export(base, instance_digest(base))
            attached = transport.attach_instance(descriptor)
            segment = _owner(attached.task_hedges)[0]
            ck = compile_instance(attached)
            _library(attached, "EVG", "numpy")  # union, lists, cells
            _library(attached, "SGH", "numpy")  # offsets
            shared = [ck.g_hedge, ck.g_size, ck.g_ptr, ck.g_pins,
                      ck.hedge_gpos]
            for value in ck._memo.values():
                if isinstance(value, tuple):
                    shared.extend(value)
                elif isinstance(value, np.ndarray):
                    shared.append(value)
            assert len(shared) > 5
            for arr in shared:
                assert _owner(arr)[0] is not segment
        finally:
            name = descriptor["__shm__"]
            transport._detach(name, transport._ATTACHED.pop(name))
            registry.close()
        assert compile_cache_stats()["entries"] == 0  # purged on detach
