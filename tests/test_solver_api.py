"""Tests for the unified solver API (repro.api).

Covers the satellite contracts of the API redesign:

* alias / abbreviation / case-insensitive resolution, with
  did-you-mean errors unifying the old KeyError/ValueError split;
* ``known_methods()`` / ``default_portfolio()`` generated from the
  registry — a newly registered solver is instantly usable everywhere;
* Hypothesis properties: ``SolveResult.gap >= 0`` and
  metadata-vs-matching consistency;
* bit-identical matchings: the new dispatch returns exactly what the
  underlying algorithms produce, for every registered method;
* ``"EVG+ls"`` parses to the same composable object as the
  ``Refine``/``Portfolio`` constructors.
"""

import pickle

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro import (
    BatchSolver,
    Portfolio,
    Refine,
    SchedulingProblem,
    SolveOptions,
    SolveResult,
    UnknownSolverError,
    get_registry,
    parse_method,
    register_solver,
    solve,
    solve_many,
)
from repro.api import AUTO, Solver, known_methods
from repro.core import HyperSemiMatching, TaskHypergraph
from repro.engine import solve_hypergraph

from strategies import random_hypergraph, task_hypergraphs


@pytest.fixture
def engine():
    """A quiet engine: serial, uncached (no cross-test interference)."""
    return BatchSolver(max_workers=1, executor="serial", cache=False)


@pytest.fixture
def hg():
    return random_hypergraph(np.random.default_rng(7), max_tasks=10)


@pytest.fixture
def problems():
    probs = []
    for k in range(4):
        prob = SchedulingProblem(processors=["cpu0", "cpu1", "gpu"])
        prob.add_task(
            "render", [(("gpu",), 2.0 + k), (("cpu0", "cpu1"), 5.0)]
        )
        prob.add_task("encode", [(("cpu0",), 3.0), (("cpu1",), 3.0)])
        prob.add_task("mix", [(("cpu1",), 1.0), (("gpu",), 4.0)])
        probs.append(prob)
    return probs


# ---------------------------------------------------------------------------
# registry resolution
# ---------------------------------------------------------------------------
class TestResolution:
    def test_primary_names(self):
        reg = get_registry()
        for name in ("SGH", "VGH", "EGH", "EVG", "grasp", "exact"):
            assert reg.resolve(name).name == name

    @pytest.mark.parametrize("alias,primary", [
        ("sorted-greedy-hyp", "SGH"),
        ("vector-greedy-hyp", "VGH"),
        ("expected-greedy-hyp", "EGH"),
        ("expected-vector-greedy-hyp", "EVG"),
    ])
    def test_aliases(self, alias, primary):
        assert get_registry().resolve(alias).name == primary

    @pytest.mark.parametrize("spelling,primary", [
        ("evg", "EVG"),          # case-insensitive
        ("sgh", "SGH"),
        ("harv", "harvey"),      # unique prefix abbreviation
        ("exha", "exhaustive"),
        ("gra", "grasp"),
    ])
    def test_abbreviations(self, spelling, primary):
        assert get_registry().resolve(spelling).name == primary

    def test_ambiguous_prefix_rejected(self):
        # "ex" could start exact, exhaustive, expected-greedy, ...
        with pytest.raises(UnknownSolverError):
            get_registry().resolve("ex")

    def test_unknown_name_error_is_both_key_and_value_error(self):
        reg = get_registry()
        with pytest.raises(KeyError):
            reg.resolve("quantum")
        with pytest.raises(ValueError):
            reg.resolve("quantum")

    def test_error_carries_suggestions_and_known_list(self):
        with pytest.raises(UnknownSolverError) as exc:
            get_registry().resolve("EVH")
        err = exc.value
        assert "EVG" in err.suggestions or "EGH" in err.suggestions
        assert err.known == known_methods()
        assert "did you mean" in str(err)

    def test_domain_restriction(self):
        with pytest.raises(UnknownSolverError, match="unknown method"):
            get_registry().resolve("EVG", domain="bipartite")

    def test_dispatch_and_registry_raise_same_type(self, hg):
        """The old KeyError-vs-ValueError split is gone."""
        with pytest.raises(UnknownSolverError):
            solve_hypergraph(hg, method="quantum")
        with pytest.raises(UnknownSolverError):
            get_registry().resolve("quantum")


# ---------------------------------------------------------------------------
# registry-generated membership
# ---------------------------------------------------------------------------
class TestGeneratedMembership:
    def test_known_methods_cover_registry_and_pseudo(self):
        km = known_methods()
        assert {"auto", "portfolio"} <= set(km)
        for spec in get_registry():
            assert spec.name in km
            assert all(a in km for a in spec.aliases)

    def test_default_portfolio_shape(self):
        assert get_registry().default_portfolio() == (
            "SGH", "VGH", "EGH", "EVG", "EVG+ls", "grasp"
        )

    def test_bipartite_registry_membership(self):
        names = {s.name for s in get_registry().query(domain="bipartite")}
        assert {
            "basic-greedy", "sorted-greedy", "double-sorted",
            "expected-greedy", "exact", "harvey",
        } <= names

    def test_hypergraph_registry_membership(self):
        reg = get_registry()
        # paper abbreviations and long names resolve to one callable
        for short, long in (
            ("SGH", "sorted-greedy-hyp"),
            ("VGH", "vector-greedy-hyp"),
            ("EGH", "expected-greedy-hyp"),
            ("EVG", "expected-vector-greedy-hyp"),
        ):
            spec = reg.resolve(short, domain="hypergraph")
            assert reg.resolve(long, domain="hypergraph").fn is spec.fn

    def test_new_solver_is_instantly_usable(self, hg, engine):
        """Registering a solver makes it available in solve, the default
        portfolio, and known_methods — no dispatch edits."""
        reg = get_registry()

        @register_solver(
            name="first-hedge",
            domain="hypergraph",
            aliases=("fh",),
            capabilities={"greedy", "weighted"},
            portfolio=True,
            summary="picks every task's first configuration",
        )
        def first_hedge(h):
            assign = np.array(
                [
                    np.flatnonzero(h.hedge_task == i)[0]
                    for i in range(h.n_tasks)
                ],
                dtype=np.int64,
            )
            return HyperSemiMatching(h, assign)

        try:
            assert "first-hedge" in known_methods()
            assert "fh" in known_methods()
            assert "first-hedge" in reg.default_portfolio()
            direct = first_hedge(hg)
            via_solve = engine.solve(hg, method="first-hedge")
            assert np.array_equal(
                via_solve.hedge_of_task, direct.hedge_of_task
            )
            via_alias = engine.solve(hg, method="fh")
            assert np.array_equal(
                via_alias.hedge_of_task, direct.hedge_of_task
            )
            # the default portfolio now races it too
            port = engine.solve(hg, method="portfolio")
            assert any(
                e.method == "first-hedge" for e in port.portfolio
            )
            assert port.makespan <= direct.makespan
        finally:
            reg.unregister("first-hedge")
        assert "first-hedge" not in known_methods()

    def test_registry_table_lists_every_solver(self):
        from repro.api import registry_table

        table = registry_table()
        for spec in get_registry():
            assert f"`{spec.name}`" in table

    # API.md's registry/error-code tables are now checked statically by
    # the contract-sync rule (`semimatch check`); see
    # tests/test_analysis.py::TestContractSync::test_api_md_tables_in_sync

    def test_cli_solvers_subcommand(self, capsys):
        from repro.experiments.cli import main

        assert main(["solvers"]) == 0
        out = capsys.readouterr().out
        assert "`EVG`" in out
        assert "default portfolio: SGH, VGH, EGH, EVG, EVG+ls, grasp" in out

    def test_cli_solve_bad_method_is_usage_error(self, tmp_path, capsys):
        """Bad suffixes and capability violations exit via parser.error
        (SystemExit 2), not a raw traceback."""
        from repro.experiments.cli import main
        from repro.generators import generate_multiproc
        from repro.io import save_instance

        path = tmp_path / "inst.json"
        save_instance(
            generate_multiproc(
                12, 4, family="fewgmanyg", g=2, dv=3, dh=3,
                weights="related", seed=0,
            ),
            path,
        )
        for method in ("EVG+xx", "sorted-greedy", "quantum"):
            with pytest.raises(SystemExit):
                main(["solve", str(path), "--method", method])


# ---------------------------------------------------------------------------
# method expressions
# ---------------------------------------------------------------------------
class TestExpressions:
    def test_parse_equals_constructed(self):
        assert parse_method("EVG+ls") == Refine(Solver("EVG"))
        assert parse_method("EVG+ls") == Refine("EVG")
        assert parse_method("auto") == AUTO
        assert parse_method("portfolio") == Portfolio()
        assert parse_method("portfolio(SGH,EVG+ls,grasp)") == Portfolio(
            "SGH", Refine("EVG"), "grasp"
        )
        assert parse_method("portfolio(SGH,portfolio(EVG,EGH)+ls)") == (
            Portfolio("SGH", Refine(Portfolio("EVG", "EGH")))
        )

    def test_canonical_round_trips(self):
        for text in (
            "EVG", "EVG+ls", "auto", "portfolio",
            "portfolio(SGH,EVG+ls,grasp)",
        ):
            expr = parse_method(text)
            assert parse_method(expr.canonical()) == expr

    def test_bad_suffix_rejected(self):
        with pytest.raises(ValueError, match="unknown method suffix"):
            parse_method("EVG+foo")

    def test_expressions_pickle(self):
        for expr in (
            Solver("EVG"),
            Refine("EVG"),
            Portfolio("SGH", Refine("EVG")),
            AUTO,
        ):
            assert pickle.loads(pickle.dumps(expr)) == expr

    def test_solve_accepts_expression_objects(self, hg, engine):
        via_string = engine.solve(hg, method="EVG+ls")
        via_expr = engine.solve(
            hg, options=SolveOptions(method=Refine("EVG"))
        )
        assert np.array_equal(
            via_string.hedge_of_task, via_expr.hedge_of_task
        )
        assert via_string.method == via_expr.method == "EVG+ls"


# ---------------------------------------------------------------------------
# SolveOptions normalization and cache keys
# ---------------------------------------------------------------------------
class TestSolveOptions:
    def test_frozen(self):
        import dataclasses

        opts = SolveOptions(method="EVG")
        with pytest.raises(dataclasses.FrozenInstanceError):
            opts.method = "SGH"

    def test_alias_normalizes_to_primary(self):
        a = SolveOptions(method="expected-vector-greedy-hyp")
        b = SolveOptions(method="EVG")
        assert a.cache_token() == b.cache_token()
        # ...even when the alias arrives pre-wrapped in a MethodExpr
        c = SolveOptions(method=Solver("expected-vector-greedy-hyp"))
        assert c.cache_token() == b.cache_token()

    def test_seed_only_keys_randomized_methods(self):
        det1 = SolveOptions(method="EVG", seed=1).cache_token()
        det2 = SolveOptions(method="EVG", seed=2).cache_token()
        assert det1 == det2
        rnd1 = SolveOptions(method="grasp", seed=1).cache_token()
        rnd2 = SolveOptions(method="grasp", seed=2).cache_token()
        assert rnd1 != rnd2

    def test_unknown_portfolio_entry_message(self):
        with pytest.raises(
            UnknownSolverError, match="unknown portfolio entry"
        ):
            SolveOptions(method=Portfolio("quantum")).normalized()

    def test_default_portfolio_expansion(self):
        expr = SolveOptions(method="portfolio").expression()
        assert expr == Portfolio(*get_registry().default_portfolio())

    def test_normalized_idempotent(self):
        opts = SolveOptions(method="EVG+ls").normalized()
        assert opts.normalized() == opts
        assert opts.is_normalized

    def test_time_budget_validation(self):
        with pytest.raises(ValueError, match="positive"):
            SolveOptions(time_budget=0.0)

    @pytest.mark.parametrize("field,value,error", [
        ("seed", True, TypeError),
        ("seed", "7", TypeError),
        ("seed", 2.5, TypeError),
        ("seed", 2.7, TypeError),  # once truncated into seed=2's answers
        ("seed", None, TypeError),
        ("time_budget", True, TypeError),
        ("time_budget", "x", TypeError),
        ("time_budget", -1, ValueError),
        ("time_budget", float("nan"), ValueError),
    ])
    def test_rejects_bad_field_values(self, field, value, error):
        with pytest.raises(error, match=field):
            SolveOptions(**{field: value})

    @pytest.mark.parametrize("field,value", [
        ("seed", 7),
        ("seed", np.int64(7)),
        ("seed", np.int32(7)),
        ("time_budget", 1),
        ("time_budget", 0.5),
        ("time_budget", np.float64(2.0)),
    ])
    def test_accepts_good_field_values(self, field, value):
        opts = SolveOptions(**{field: value})
        assert getattr(opts, field) == value
        assert type(opts.seed) is int

    def test_options_pickle(self):
        opts = SolveOptions(
            method=Portfolio("SGH", Refine("EVG")), seed=3
        ).normalized()
        assert pickle.loads(pickle.dumps(opts)) == opts


# ---------------------------------------------------------------------------
# every entry point reads the same request
# ---------------------------------------------------------------------------
_METHODS = st.sampled_from([
    "auto", "SGH", "EVG+ls", "grasp", "portfolio", "portfolio(SGH,grasp)",
    "expected-vector-greedy-hyp",
    Refine("EVG"), Portfolio("SGH", Refine("VGH")), Solver("grasp"),
])
_SEEDS = st.integers(0, 2**31 - 1)
_REQUEST_FIELDS = st.fixed_dictionaries({}, optional={
    "method": _METHODS,
    "seed": st.one_of(_SEEDS, _SEEDS.map(np.int64)),
    "time_budget": st.none() | st.floats(0.5, 100.0),
    "backend": st.sampled_from(["numpy", "python"]),
})


def _dispatched_options(fields):
    """The normalized options :func:`solve_hypergraph` hands the engine."""
    from unittest import mock

    import repro.engine.dispatch as dispatch

    with mock.patch.object(
        dispatch,
        "solve_hypergraph_outcome",
        wraps=dispatch.solve_hypergraph_outcome,
    ) as spy:
        solve_hypergraph(_TINY, **fields)
    _hg, options = spy.call_args.args
    return options.normalized()


_TINY = random_hypergraph(np.random.default_rng(5), max_tasks=4)


class TestEntryPoints:
    @settings(max_examples=25, deadline=None)
    @given(_REQUEST_FIELDS)
    def test_every_entry_point_reads_the_same_request(self, fields):
        from repro.service import options_to_wire
        from repro.service.server import SolveServer

        expected = SolveOptions(**fields).normalized()
        quiet = dict(max_workers=1, cache=False)
        seen = {
            "api.solve": solve(_TINY, **fields).options,
            "BatchSolver(**f).solve": (
                BatchSolver(**quiet, **fields).solve(_TINY).options
            ),
            "BatchSolver().solve_many": (
                BatchSolver(**quiet).solve_many([_TINY], **fields)[0].options
            ),
            "solve_many": solve_many([_TINY], **quiet, **fields)[0].options,
            "solve_hypergraph": _dispatched_options(fields),
            "server": SolveServer()._normalized_options(
                options_to_wire(**fields)
            )[0],
        }
        for entry, options in seen.items():
            assert options == expected, entry
            assert options.cache_token() == expected.cache_token(), entry

    def test_options_and_fields_together_is_a_type_error(self):
        from repro.service import options_to_wire

        opts = SolveOptions(method="SGH")
        quiet = dict(max_workers=1, cache=False)
        calls = {
            "api.solve": lambda: solve(_TINY, options=opts, method="EVG"),
            "solve_hypergraph": (
                lambda: solve_hypergraph(_TINY, options=opts, method="EVG")
            ),
            "BatchSolver()": (
                lambda: BatchSolver(**quiet, options=opts, method="EVG")
            ),
            "BatchSolver.solve": lambda: BatchSolver(**quiet).solve(
                _TINY, options=opts, method="EVG"
            ),
            "BatchSolver.solve_many": lambda: BatchSolver(**quiet).solve_many(
                [_TINY], options=opts, method="EVG"
            ),
            "solve_many": lambda: solve_many(
                [_TINY], **quiet, options=opts, method="EVG"
            ),
            "options_to_wire": (
                lambda: options_to_wire(opts, method="EVG")
            ),
        }
        for entry, call in calls.items():
            with pytest.raises(TypeError, match="not both"):
                call()
                pytest.fail(entry)

    def test_per_call_fields_override_engine_defaults(self, hg):
        engine = BatchSolver(
            max_workers=1, executor="serial", cache=False,
            method="grasp", seed=4,
        )
        r = engine.solve(hg, seed=9)
        assert r.options == SolveOptions(method="grasp", seed=9).normalized()
        assert engine.solve(hg).options.seed == 4


# ---------------------------------------------------------------------------
# bit-identical dispatch (acceptance criterion)
# ---------------------------------------------------------------------------
class TestBitIdentical:
    def test_every_hypergraph_method_matches_direct_call(self):
        rng = np.random.default_rng(3)
        hgs = [random_hypergraph(rng, max_tasks=7) for _ in range(5)]
        for spec in get_registry().query(domain="hypergraph"):
            if spec.name == "exhaustive":
                hgs_m = hgs[:2]  # oracle: keep it tiny
            else:
                hgs_m = hgs
            for hg in hgs_m:
                direct = spec.run(hg, seed=0)
                via_dispatch = solve_hypergraph(hg, method=spec.name)
                assert np.array_equal(
                    via_dispatch.hedge_of_task, direct.hedge_of_task
                ), spec.name

    def test_solve_and_solve_many_match_direct(self, problems):
        for spec in get_registry().query(domain="hypergraph"):
            single = [
                solve(p, method=spec.name).matching for p in problems
            ]
            batched = solve_many(
                problems, method=spec.name, max_workers=1, cache=False
            )
            for p, s, b in zip(problems, single, batched):
                direct = spec.run(p.to_hypergraph(), seed=0)
                assert np.array_equal(
                    s.hedge_of_task, direct.hedge_of_task
                )
                assert np.array_equal(
                    b.hedge_of_task, direct.hedge_of_task
                )

    def test_bipartite_methods_match_direct_lift(self):
        rng = np.random.default_rng(11)
        # bipartite-shaped unit hypergraphs: singleton configurations
        for _ in range(4):
            n = int(rng.integers(2, 8))
            p = int(rng.integers(2, 5))
            confs = [
                [
                    [int(u)]
                    for u in rng.choice(
                        p, size=int(rng.integers(1, p + 1)), replace=False
                    )
                ]
                for _ in range(n)
            ]
            hg = TaskHypergraph.from_configurations(confs, n_procs=p)
            assert hg.is_bipartite_graph()
            for spec in get_registry().query(domain="bipartite"):
                direct = spec.run(hg.to_bipartite(), seed=0)
                via = solve_hypergraph(hg, method=spec.name)
                assert via.makespan == direct.makespan, spec.name

    def test_portfolio_string_and_expression_agree(self, hg, engine):
        via_string = solve_hypergraph(
            hg, method="portfolio(SGH,EVG+ls)", seed=1
        )
        via_expr = engine.solve(
            hg,
            options=SolveOptions(
                method=Portfolio("SGH", Refine("EVG")), seed=1
            ),
        )
        assert np.array_equal(
            via_string.hedge_of_task, via_expr.hedge_of_task
        )


# ---------------------------------------------------------------------------
# SolveResult properties (Hypothesis)
# ---------------------------------------------------------------------------
class TestSolveResultProperties:
    @settings(max_examples=25, deadline=None)
    @given(task_hypergraphs())
    def test_gap_nonnegative_and_metadata_consistent(self, hg):
        engine = BatchSolver(max_workers=1, executor="serial", cache=False)
        result = engine.solve(hg, method="EVG")
        assert isinstance(result, SolveResult)
        assert result.gap >= 0
        assert result.lower_bound <= result.makespan
        assert result.makespan == result.matching.makespan
        assert result.winner == "EVG"
        assert result.wall_time_s >= 0
        assert not result.cache_hit
        # the reported method round-trips through the parser
        assert parse_method(result.method) == result.options.method

    @settings(max_examples=15, deadline=None)
    @given(task_hypergraphs(max_tasks=5, max_procs=4))
    def test_portfolio_metadata_matches_matching(self, hg):
        engine = BatchSolver(max_workers=1, executor="serial", cache=False)
        result = engine.solve(
            hg, method=Portfolio("SGH", "VGH", "EVG"), seed=0
        )
        stats = result.portfolio
        assert stats is not None and len(stats) == 3
        best = min(e.makespan for e in stats)
        assert result.makespan == best
        winner_stat = next(
            e for e in stats if e.method == result.winner
        )
        assert winner_stat.makespan == result.makespan
        assert all(e.time_s >= 0 for e in stats)

    def test_quality_and_gap_edge_cases(self, engine):
        empty = SchedulingProblem(processors=["a"])
        r = engine.solve(empty)
        assert r.makespan == 0.0 and r.gap == 0.0 and r.quality == 1.0


# ---------------------------------------------------------------------------
# provenance plumbing
# ---------------------------------------------------------------------------
class TestProvenance:
    def test_auto_records_selected_solver(self, problems, engine):
        r = engine.solve(problems[0])  # weighted MULTIPROC -> EVG
        assert r.method == "auto"
        assert r.winner == "EVG"

    def test_auto_unit_singleproc_selects_exact(self, engine):
        prob = SchedulingProblem(processors=["a", "b"])
        for i in range(4):
            prob.add_sequential_task(f"t{i}", [("a", 1.0), ("b", 1.0)])
        r = engine.solve(prob)
        assert r.winner == "exact"
        assert r.makespan == 2.0

    def test_cache_hit_preserves_provenance(self, hg):
        from repro.engine import ResultCache

        engine = BatchSolver(
            max_workers=1, executor="serial", cache=ResultCache()
        )
        first = engine.solve(hg, method="portfolio")
        second = engine.solve(hg, method="portfolio")
        assert not first.cache_hit and second.cache_hit
        assert second.winner == first.winner
        assert second.wall_time_s == 0.0
        assert [e.method for e in second.portfolio] == [
            e.method for e in first.portfolio
        ]
        assert np.array_equal(
            first.hedge_of_task, second.hedge_of_task
        )

    def test_pooled_results_carry_provenance(self, problems):
        with BatchSolver(
            max_workers=2, executor="process", cache=False
        ) as engine:
            out = engine.solve_many(problems, method="portfolio")
        for r in out:
            assert r.winner is not None
            assert r.portfolio is not None
            assert r.wall_time_s > 0

    def test_time_budget_stops_portfolio_early(self, hg, engine):
        r = engine.solve(
            hg,
            options=SolveOptions(
                method="portfolio", time_budget=1e-9
            ),
        )
        # the budget expired after the first entry; result still valid
        assert len(r.portfolio) == 1
        assert r.portfolio[0].method == "SGH"
        assert r.winner == "SGH"

    def test_equivalent_spellings_share_cache_entry(self, hg):
        from repro.engine import ResultCache

        cache = ResultCache()
        engine = BatchSolver(
            max_workers=1, executor="serial", cache=cache
        )
        engine.solve(hg, method=Refine("EVG"))
        r = engine.solve(hg, method="EVG+ls")
        assert r.cache_hit
        assert cache.stats()["entries"] == 1
