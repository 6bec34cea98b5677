"""Tests for the experiment harness (instances, runners, tables, CLI)."""

import multiprocessing

import numpy as np
import pytest

from repro.experiments import (
    GREEDY_NAMES,
    MEDIUM_SPECS,
    PAPER_TABLE1,
    PAPER_TABLE2,
    PAPER_TABLE3,
    SMALL_SPECS,
    TABLE1_SPECS,
    render_comparison,
    render_quality_table,
    render_table1,
    ranking_sweep,
    run_instances,
    run_singleproc,
    singleproc_specs,
    spec_by_name,
)
from repro.experiments.cli import main


class TestSpecs:
    def test_24_families(self):
        assert len(TABLE1_SPECS) == 24
        assert len({s.name for s in TABLE1_SPECS}) == 24

    def test_all_paper_rows_covered(self):
        ours = {s.name for s in TABLE1_SPECS}
        assert ours == set(PAPER_TABLE1)

    def test_table2_table3_keys_align(self):
        assert {k + "-W" for k in PAPER_TABLE2} == set(PAPER_TABLE3)

    def test_sizes_match_paper(self):
        for s in TABLE1_SPECS:
            v1, v2, _, _ = PAPER_TABLE1[s.name]
            assert (s.n, s.p) == (v1, v2)
            assert s.n >= 5 * s.p  # the paper's n >= 5p rule

    def test_small_medium_subsets(self):
        assert set(SMALL_SPECS) <= set(MEDIUM_SPECS) <= set(TABLE1_SPECS)
        assert all(s.n == 1280 for s in SMALL_SPECS)

    def test_spec_by_name_with_suffix(self):
        s = spec_by_name("FG-5-1-MP-W")
        assert s.weights == "related"
        assert s.name == "FG-5-1-MP-W"
        r = spec_by_name("FG-5-1-MP-R")
        assert r.weights == "random"
        with pytest.raises(KeyError, match="unknown instance"):
            spec_by_name("ZZ-1-1-MP")

    def test_generate_respects_weights(self):
        hg = spec_by_name("MG-5-1-MP-W").with_weights("related").generate(0)
        assert not hg.is_unit


def _tiny_specs():
    # shrunk instances so the harness tests run in milliseconds
    return [
        spec_by_name("FG-5-1-MP").__class__(
            name="TINY-FG",
            family="fewgmanyg",
            g=4,
            n=80,
            p=16,
            dv=2,
            dh=3,
        )
    ]


class TestRunner:
    def test_median_protocol(self):
        res = run_instances(_tiny_specs(), n_seeds=3, algorithms=("SGH", "EGH"))
        assert len(res.rows) == 1
        row = res.rows[0]
        assert row.name == "TINY-FG"
        assert row.lower_bound >= 1
        assert set(row.quality) == {"SGH", "EGH"}
        assert all(q >= 1.0 for q in row.quality.values())
        assert all(t >= 0 for t in row.time_s.values())

    def test_deterministic(self):
        a = run_instances(_tiny_specs(), n_seeds=2, algorithms=("SGH",))
        b = run_instances(_tiny_specs(), n_seeds=2, algorithms=("SGH",))
        assert a.rows[0].quality == b.rows[0].quality

    def test_averages(self):
        res = run_instances(
            _tiny_specs() * 2, n_seeds=2, algorithms=("SGH",)
        )
        avg = res.average_quality()
        assert avg["SGH"] == pytest.approx(
            np.mean([r.quality["SGH"] for r in res.rows])
        )
        assert set(res.average_time()) == {"SGH"}


class TestOneSweepPath:
    """The runner solves through a :class:`BatchSolver` whatever it is
    given (a pooled one in method-major batches), with the makespans of
    the serial run, and closes an engine it built."""

    def test_a_pooled_run_matches_the_serial_run(self):
        children = set(multiprocessing.active_children())
        serial = run_instances(_tiny_specs(), n_seeds=3)
        pooled = run_instances(_tiny_specs(), n_seeds=3, max_workers=2)
        assert pooled.rows[0].makespan == serial.rows[0].makespan
        assert pooled.rows[0].quality == serial.rows[0].quality
        # the runner closed the engine it built
        assert set(multiprocessing.active_children()) <= children

    def test_a_pooled_sweep_matches_the_serial_sweep(self):
        grid = dict(dv_values=(2,), dh_values=(2, 3), n_seeds=2)
        children = set(multiprocessing.active_children())
        serial = ranking_sweep(_tiny_specs(), **grid)
        pooled = ranking_sweep(_tiny_specs(), max_workers=2, **grid)
        assert pooled.average_quality == serial.average_quality
        assert pooled.rankings == serial.rankings
        assert set(multiprocessing.active_children()) <= children


class TestSingleproc:
    def test_small_run(self):
        specs = [
            s
            for s in singleproc_specs(d=2, sizes=((5, 1),))
            if s.family == "fewgmanyg"
        ]
        # shrink drastically
        specs = [
            s.__class__(
                name=s.name, family=s.family, g=4, n=64, p=16, d=2
            )
            for s in specs[:1]
        ]
        res = run_singleproc(specs, n_seeds=2)
        row = res.rows[0]
        assert row.optimum >= 1
        assert all(q >= 1.0 - 1e-9 for q in row.quality.values())
        assert set(row.quality) == set(GREEDY_NAMES)

    def test_hilo_single_seed(self):
        specs = [
            type(s)(name="HL-TINY", family="hilo", g=4, n=64, p=16, d=2)
            for s in singleproc_specs(d=2, sizes=((5, 1),))[:1]
        ]
        res = run_singleproc(specs, n_seeds=5)
        assert res.rows[0].optimum >= 1


class TestTables:
    @pytest.fixture
    def result(self):
        return run_instances(_tiny_specs(), n_seeds=2)

    def test_render_table1(self, result):
        text = render_table1(result)
        assert "TINY-FG" in text
        assert "|N|" in text

    def test_render_quality(self, result):
        text = render_quality_table(result, title="demo")
        assert "demo" in text
        assert "Average quality" in text
        assert "Average time" in text

    def test_render_comparison(self, result):
        text = render_comparison(result, PAPER_TABLE2, title="t2")
        assert "SGH(paper)" in text
        assert "Average quality" in text

    def test_capped_local_search_is_marked(self):
        result = run_instances(
            _tiny_specs()[:1], algorithms=("SGH", "SGH+ls"), n_seeds=1
        )
        row = result.rows[0]
        assert row.ls_capped == {"SGH": 0, "SGH+ls": 0}
        note = "local search stopped at its move budget"
        for render in (render_quality_table, render_comparison):
            args = (PAPER_TABLE2,) if render is render_comparison else ()
            assert note not in render(result, *args)
            row.ls_capped["SGH+ls"] = 1
            text = render(result, *args)
            row.ls_capped["SGH+ls"] = 0
            assert note in text
            assert f"{row.quality['SGH+ls']:.2f}*" in text


class TestCLI:
    def test_list(self, capsys):
        assert main(["list"]) == 0
        out = capsys.readouterr().out
        assert "FG-5-1-MP" in out
        assert "HLM-80-16-MP" in out

    def test_generate_and_solve(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        assert main(["generate", "MG-5-1-MP-W", "-o", str(path),
                     "--seed", "1"]) == 0
        out = capsys.readouterr().out
        assert "1280 tasks" in out
        assert path.exists()
        assert main(["solve", str(path), "--method", "SGH"]) == 0
        out = capsys.readouterr().out
        assert "SGH: makespan" in out
        assert "quality" in out

    def test_solve_with_refine(self, capsys, tmp_path):
        path = tmp_path / "inst.json"
        main(["generate", "MG-5-1-MP", "-o", str(path)])
        capsys.readouterr()
        assert main(["solve", str(path), "--method", "SGH+ls"]) == 0
        out = capsys.readouterr().out
        assert "SGH+ls: makespan" in out
        assert "quality" in out

    def test_solve_bipartite_instance(self, capsys, tmp_path):
        from repro.generators import fewgmanyg_bipartite
        from repro.io import save_instance

        path = tmp_path / "bip.json"
        save_instance(fewgmanyg_bipartite(64, 16, 4, 3, seed=0), path)
        assert main(["solve", str(path), "--method", "sorted-greedy"]) == 0
        assert "makespan" in capsys.readouterr().out

    def test_stats_command(self, capsys, tmp_path):
        from repro.generators import generate_multiproc
        from repro.io import save_instance

        path = tmp_path / "inst.json"
        save_instance(
            generate_multiproc(40, 16, g=4, dv=2, dh=3, seed=0), path
        )
        assert main(["stats", str(path)]) == 0
        out = capsys.readouterr().out
        assert "tasks: 40" in out
        assert "configurations per task" in out
        assert main(["stats", str(path), "--solve-with", "SGH"]) == 0
        out = capsys.readouterr().out
        assert "makespan" in out
        assert "loads (top" in out

    def test_stats_bipartite(self, capsys, tmp_path):
        from repro.generators import fewgmanyg_bipartite
        from repro.io import save_instance

        path = tmp_path / "bip.json"
        save_instance(fewgmanyg_bipartite(32, 16, 4, 2, seed=0), path)
        assert main(["stats", str(path), "--solve-with",
                     "sorted-greedy"]) == 0
        assert "utilization" in capsys.readouterr().out

    def test_stats_unknown_method(self, tmp_path):
        from repro.generators import fewgmanyg_bipartite
        from repro.io import save_instance

        path = tmp_path / "bip.json"
        save_instance(fewgmanyg_bipartite(16, 8, 2, 2, seed=0), path)
        with pytest.raises(SystemExit):
            main(["stats", str(path), "--solve-with", "quantum"])

    def test_solve_unknown_method(self, tmp_path):
        from repro.generators import fewgmanyg_bipartite
        from repro.io import save_instance

        path = tmp_path / "bip.json"
        save_instance(fewgmanyg_bipartite(16, 8, 2, 2, seed=0), path)
        with pytest.raises(SystemExit):
            main(["solve", str(path), "--method", "EVG"])

    def test_requires_command(self):
        with pytest.raises(SystemExit):
            main([])

    def test_unknown_command(self):
        with pytest.raises(SystemExit):
            main(["table9"])
