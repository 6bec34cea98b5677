"""Tests for JSON serialisation (repro.io)."""

import dataclasses
import json

import numpy as np
import pytest
from hypothesis import given, settings

from repro.core import BipartiteGraph, GraphStructureError, TaskHypergraph
from repro.core.semimatching import HyperSemiMatching, SemiMatching
from repro.engine.cache import instance_digest
from repro.generators import generate_multiproc
from repro.io import (
    bipartite_from_dict,
    bipartite_to_dict,
    hypergraph_from_dict,
    hypergraph_to_dict,
    load_instance,
    matching_to_dict,
    save_instance,
)

from strategies import malformed_v2_dicts, task_hypergraphs

#: a version 1 (pin-list) dict as older releases wrote it; it must keep
#: loading.  Hyperedge 1's pins are deliberately unsorted.
V1_DICT = {
    "kind": "hypergraph",
    "version": 1,
    "n_tasks": 2,
    "n_procs": 3,
    "hedge_task": [0, 0, 1],
    "pins": [[0], [2, 1], [2]],
    "weights": [1.0, 2.5, 0.1],
}
MALFORMED_V2 = malformed_v2_dicts()


def assert_same_hypergraph(a: TaskHypergraph, b: TaskHypergraph) -> None:
    """Equal in every field: the counts and all eight arrays, dtypes
    included."""
    for f in dataclasses.fields(TaskHypergraph):
        x, y = getattr(a, f.name), getattr(b, f.name)
        if isinstance(x, np.ndarray):
            assert x.dtype == y.dtype, f.name
            assert np.array_equal(x, y), f.name
        else:
            assert x == y, f.name


class TestBipartiteRoundtrip:
    def test_roundtrip(self):
        g = BipartiteGraph.from_neighbor_lists(
            [[0, 2], [1]], n_procs=3, weights=[[2.0, 3.0], [4.0]]
        )
        g2 = bipartite_from_dict(bipartite_to_dict(g))
        assert np.array_equal(g.task_ptr, g2.task_ptr)
        assert np.array_equal(g.task_adj, g2.task_adj)
        assert np.array_equal(g.weights, g2.weights)

    def test_json_compatible(self):
        g = BipartiteGraph.from_neighbor_lists([[0]], n_procs=1)
        text = json.dumps(bipartite_to_dict(g))
        g2 = bipartite_from_dict(json.loads(text))
        assert g2.n_tasks == 1

    def test_kind_check(self):
        with pytest.raises(GraphStructureError, match="bipartite"):
            bipartite_from_dict({"kind": "hypergraph"})


class TestHypergraphRoundtrip:
    def test_roundtrip(self):
        hg = generate_multiproc(
            30, 16, g=2, dv=2, dh=3, weights="related", seed=0
        )
        hg2 = hypergraph_from_dict(hypergraph_to_dict(hg))
        assert np.array_equal(hg.hedge_task, hg2.hedge_task)
        assert np.array_equal(hg.hedge_ptr, hg2.hedge_ptr)
        assert np.array_equal(hg.hedge_procs, hg2.hedge_procs)
        assert np.array_equal(hg.hedge_w, hg2.hedge_w)

    def test_kind_check(self):
        with pytest.raises(GraphStructureError, match="hypergraph"):
            hypergraph_from_dict({"kind": "bipartite"})


class TestHypergraphV2:
    @settings(max_examples=60, deadline=None)
    @given(task_hypergraphs())
    def test_round_trip_is_exact(self, hg):
        data = json.loads(json.dumps(hypergraph_to_dict(hg)))
        assert data["version"] == 2
        back = hypergraph_from_dict(data)
        assert_same_hypergraph(back, hg)
        assert instance_digest(back) == instance_digest(hg)

    @settings(max_examples=60, deadline=None)
    @given(task_hypergraphs())
    def test_from_csr_equals_from_hyperedges(self, hg):
        from_csr = TaskHypergraph.from_csr(
            hg.n_tasks, hg.n_procs, hg.hedge_task, hg.hedge_ptr,
            hg.hedge_procs, hg.hedge_w,
        )
        from_lists = TaskHypergraph.from_hyperedges(
            hg.n_tasks, hg.n_procs, hg.hedge_task,
            [hg.hedge_proc_set(h).tolist() for h in range(hg.n_hedges)],
            hg.hedge_w,
        )
        assert_same_hypergraph(from_csr, from_lists)

    def test_weights_are_bit_exact(self):
        w = np.array([0.1, 1 / 3, 2.0**-40, 1e300])
        hg = TaskHypergraph.from_configurations(
            [[[0], [1]], [[0, 1], [1]]], n_procs=2
        ).with_weights(w)
        back = hypergraph_from_dict(hypergraph_to_dict(hg))
        assert back.hedge_w.tobytes() == w.tobytes()

    def test_large_instance_round_trip(self):
        hg = generate_multiproc(
            640, 64, g=4, dv=3, dh=6, weights="random", seed=3
        )
        back = hypergraph_from_dict(hypergraph_to_dict(hg))
        assert_same_hypergraph(back, hg)
        assert instance_digest(back) == instance_digest(hg)

    def test_value_beyond_int32_is_rejected(self):
        hg = TaskHypergraph.from_configurations([[[0]]], n_procs=1)
        too_big = dataclasses.replace(
            hg, n_procs=2**31 + 1, hedge_procs=np.array([2**31])
        )
        with pytest.raises(GraphStructureError, match="int32"):
            hypergraph_to_dict(too_big)

    def test_v1_dict_still_loads(self):
        hg = hypergraph_from_dict(V1_DICT)
        assert hg.hedge_task.tolist() == [0, 0, 1]
        assert hg.hedge_ptr.tolist() == [0, 1, 3, 4]
        assert hg.hedge_procs.tolist() == [0, 2, 1, 2]
        assert hg.hedge_w.tolist() == [1.0, 2.5, 0.1]
        # re-serialised as v2, it is the same instance
        assert_same_hypergraph(
            hypergraph_from_dict(hypergraph_to_dict(hg)), hg
        )

    def test_v1_file_still_loads(self, tmp_path):
        path = tmp_path / "v1.json"
        path.write_text(json.dumps(V1_DICT))
        assert_same_hypergraph(
            load_instance(path), hypergraph_from_dict(V1_DICT)
        )

    @pytest.mark.parametrize(
        "case,data", MALFORMED_V2, ids=[case for case, _ in MALFORMED_V2]
    )
    def test_malformed_v2_is_rejected(self, case, data):
        # a missing field is a malformed request (KeyError); every
        # other defect is a structural one
        expected = KeyError if case == "missing-field" else GraphStructureError
        with pytest.raises(expected):
            hypergraph_from_dict(data)


class TestFileIO:
    def test_save_load_bipartite(self, tmp_path):
        g = BipartiteGraph.from_neighbor_lists([[0, 1]], n_procs=2)
        path = tmp_path / "g.json"
        save_instance(g, path)
        g2 = load_instance(path)
        assert isinstance(g2, BipartiteGraph)
        assert g2.n_edges == 2

    def test_save_load_hypergraph(self, tmp_path):
        hg = TaskHypergraph.from_configurations([[[0], [1]]], n_procs=2)
        path = tmp_path / "hg.json"
        save_instance(hg, path)
        hg2 = load_instance(path)
        assert isinstance(hg2, TaskHypergraph)
        assert hg2.n_hedges == 2

    def test_save_rejects_unknown_type(self, tmp_path):
        with pytest.raises(TypeError):
            save_instance("not a graph", tmp_path / "x.json")

    def test_load_rejects_unknown_kind(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"kind": "mystery"}))
        with pytest.raises(GraphStructureError, match="unknown instance"):
            load_instance(path)


class TestMatchingDict:
    def test_semi_matching(self):
        g = BipartiteGraph.from_neighbor_lists([[0, 1]], n_procs=2)
        sm = SemiMatching(g, np.array([1]))
        d = matching_to_dict(sm)
        assert d["kind"] == "semi-matching"
        assert d["edge_of_task"] == [1]
        assert d["makespan"] == 1.0

    def test_hyper_semi_matching(self):
        hg = TaskHypergraph.from_configurations([[[0], [1]]], n_procs=2)
        m = HyperSemiMatching(hg, np.array([0]))
        d = matching_to_dict(m)
        assert d["kind"] == "hyper-semi-matching"
        assert d["hedge_of_task"] == [0]
