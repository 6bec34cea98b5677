"""repro.analysis: rule fixtures, suppression mechanics, self-check.

Every rule family gets a known-bad fixture (each hazard fires, with
line-accurate anchors) and a known-good fixture (the accepted idiom
stays silent).  ``# line: NAME`` markers inside the fixtures pin the
expected anchors without hard-coding line numbers.

The self-check runs the full analyzer over ``src/repro`` exactly as CI
does and pins the suppression baseline: zero unsuppressed findings,
and the only intentional exemptions are the four client-side
``ConnectionError`` raises.  The project-level contract-sync test
replaces the old runtime API.md-registry-table test and extends it to
the error-code table.
"""

from pathlib import Path

import pytest

from repro.analysis import (
    ALL_RULES,
    ModuleContext,
    ProjectContext,
    analyze_paths,
)
from repro.analysis.asyncblock import AsyncBlockingRule
from repro.analysis.contracts import ContractSyncRule
from repro.analysis.lockguard import LockGuardRule
from repro.analysis.purity import KernelPurityRule
from repro.analysis.spanhygiene import SpanHygieneRule

FIXTURES = Path(__file__).parent / "analysis_fixtures"
REPO_ROOT = Path(__file__).resolve().parents[1]


def run_rule(rule, filename, *, hygiene=False):
    """One rule over one fixture, fixture-relative paths."""
    return analyze_paths(
        [FIXTURES / filename],
        rules=[rule],
        root=FIXTURES,
        project=False,
        hygiene=hygiene,
    )


def marker_line(filename: str, name: str) -> int:
    """Line number carrying a ``# line: NAME`` marker."""
    for i, text in enumerate(
        (FIXTURES / filename).read_text().splitlines(), start=1
    ):
        if f"# line: {name}" in text:
            return i
    raise AssertionError(f"no marker {name!r} in {filename}")


def lines_of(report, rule_id):
    return sorted(f.line for f in report.findings if f.rule == rule_id)


# ---------------------------------------------------------------------------
# lock-guard
# ---------------------------------------------------------------------------

class TestLockGuard:
    def test_flags_pre_pr5_ensure_pool_race(self):
        report = run_rule(LockGuardRule(), "lockguard_bad.py")
        lines = lines_of(report, "lock-guard")
        assert marker_line("lockguard_bad.py", "race-create") in lines
        assert marker_line("lockguard_bad.py", "race-counter") in lines
        assert any(
            "_ensure_pool" in f.message for f in report.findings
        ), "the finding must name the racing method"

    def test_flags_unlocked_module_global(self):
        report = run_rule(LockGuardRule(), "lockguard_bad.py")
        assert marker_line("lockguard_bad.py", "race-global") in lines_of(
            report, "lock-guard"
        )

    def test_good_fixture_is_clean(self):
        report = run_rule(LockGuardRule(), "lockguard_good.py")
        assert report.clean, [str(f) for f in report.findings]


# ---------------------------------------------------------------------------
# async-blocking
# ---------------------------------------------------------------------------

class TestAsyncBlocking:
    def test_flags_every_blocking_shape(self):
        report = run_rule(AsyncBlockingRule(), "asyncblock_bad.py")
        lines = lines_of(report, "async-blocking")
        for name in (
            "transitive-parse",
            "engine-solve",
            "decode-frame",
            "time-sleep",
            "open",
            "sendall",
            "recv",
        ):
            assert marker_line("asyncblock_bad.py", name) in lines, name

    def test_transitive_finding_names_the_helper(self):
        report = run_rule(AsyncBlockingRule(), "asyncblock_bad.py")
        assert any(
            "_parse()" in f.message and "hypergraph_from_wire" in f.message
            for f in report.findings
        )

    def test_executor_idiom_is_clean(self):
        report = run_rule(AsyncBlockingRule(), "asyncblock_good.py")
        assert report.clean, [str(f) for f in report.findings]


# ---------------------------------------------------------------------------
# kernel-purity
# ---------------------------------------------------------------------------

class TestKernelPurity:
    @pytest.mark.parametrize("name", [
        "tobytes",
        "unseeded-rng",
        "global-np-rng",
        "stdlib-rng",
        "set-to-array",
        "dict-view-to-array",
        "setcomp-to-list",
    ])
    def test_flags_each_hazard(self, name):
        report = run_rule(KernelPurityRule(), "purity_bad.py")
        assert marker_line("purity_bad.py", name) in lines_of(
            report, "kernel-purity"
        )

    def test_flags_weighted_bincount(self):
        report = run_rule(KernelPurityRule(), "purity_bad.py")
        assert any(
            "weights" in f.message and "add.at" in f.message
            for f in report.findings
        )

    def test_accepted_idioms_are_clean(self):
        report = run_rule(KernelPurityRule(), "purity_good.py")
        assert report.clean, [str(f) for f in report.findings]

    def test_rule_is_domain_scoped(self, tmp_path):
        # same hazards outside the kernel domain stay silent
        source = (FIXTURES / "purity_bad.py").read_text()
        unscoped = tmp_path / "purity_unscoped.py"
        unscoped.write_text(source.replace("# repro: domain=kernel\n", ""))
        report = analyze_paths(
            [unscoped],
            rules=[KernelPurityRule()],
            root=tmp_path,
            project=False,
            hygiene=False,
        )
        assert report.clean


# ---------------------------------------------------------------------------
# contract-sync
# ---------------------------------------------------------------------------

class TestContractSync:
    def test_flags_flag_signature_drift(self):
        report = run_rule(ContractSyncRule(), "contracts_bad.py")
        messages = " | ".join(f.message for f in report.findings)
        assert "'fixture-randomized'" in messages  # randomized w/o seed
        assert "'fixture-backend'" in messages  # flag w/o param
        assert "'fixture-silent-seed'" in messages  # param w/o flag

    def test_flags_uncoded_service_raise(self):
        report = run_rule(ContractSyncRule(), "contracts_bad.py")
        assert marker_line("contracts_bad.py", "uncoded-raise") in lines_of(
            report, "contract-sync"
        )

    def test_good_fixture_is_clean(self):
        report = run_rule(ContractSyncRule(), "contracts_good.py")
        assert report.clean, [str(f) for f in report.findings]

    def test_api_md_tables_in_sync(self):
        # replaces the old runtime registry-table test, and extends it
        # to the service error-code table
        findings = list(
            ContractSyncRule().check_project(ProjectContext(root=REPO_ROOT))
        )
        assert not findings, [str(f) for f in findings]

    def test_detects_tampered_api_md(self, tmp_path):
        (tmp_path / "src" / "repro").mkdir(parents=True)
        api = (REPO_ROOT / "API.md").read_text()
        api = api.replace("`semimatch-error`", "`made-up-code`")
        (tmp_path / "API.md").write_text(api)
        findings = list(
            ContractSyncRule().check_project(ProjectContext(root=tmp_path))
        )
        messages = " | ".join(f.message for f in findings)
        assert "'semimatch-error'" in messages  # live code missing
        assert "'made-up-code'" in messages  # documented but not live


# ---------------------------------------------------------------------------
# span-hygiene
# ---------------------------------------------------------------------------

class TestSpanHygiene:
    def test_flags_spans_in_kernel_domain(self):
        report = run_rule(SpanHygieneRule(), "spanhygiene_bad.py")
        lines = lines_of(report, "span-hygiene")
        assert marker_line("spanhygiene_bad.py", "kernel-span") in lines
        assert marker_line("spanhygiene_bad.py", "kernel-span-2") in lines

    def test_flags_manual_start_end(self):
        report = run_rule(SpanHygieneRule(), "spanhygiene_bad.py")
        lines = lines_of(report, "span-hygiene")
        for name in ("manual-start", "manual-end", "chained-start"):
            assert marker_line("spanhygiene_bad.py", name) in lines, name

    def test_flags_unguarded_piggyback(self):
        report = run_rule(SpanHygieneRule(), "spanhygiene_bad.py")
        assert marker_line(
            "spanhygiene_bad.py", "unguarded-piggyback"
        ) in lines_of(report, "span-hygiene")

    def test_scoped_spans_and_unrelated_starts_are_clean(self):
        # includes the guarded piggyback idiom and an unrelated
        # "spans" key assignment — both must stay silent
        report = run_rule(SpanHygieneRule(), "spanhygiene_good.py")
        assert report.clean, [str(f) for f in report.findings]


# ---------------------------------------------------------------------------
# suppression mechanics
# ---------------------------------------------------------------------------

class TestSuppression:
    def run(self):
        return analyze_paths(
            [FIXTURES / "suppressed.py"],
            rules=list(ALL_RULES),
            root=FIXTURES,
            project=False,
            hygiene=True,
        )

    def test_justified_suppression_silences_finding(self):
        report = self.run()
        assert not any(
            f.rule == "kernel-purity" for f in report.findings
        ), "suppressed hazards must not be reported"
        assert report.suppressed == 2  # tobytes + np.random.rand

    def test_unjustified_suppression_is_flagged(self):
        report = self.run()
        assert any(
            f.rule == "suppression" and "justification" in f.message
            for f in report.findings
        )

    def test_unused_suppression_is_flagged(self):
        report = self.run()
        assert any(
            f.rule == "suppression" and "unused" in f.message
            for f in report.findings
        )

    def test_partial_rule_runs_skip_hygiene(self):
        report = analyze_paths(
            [FIXTURES / "suppressed.py"],
            rules=[KernelPurityRule()],
            root=FIXTURES,
            project=False,
            hygiene=False,
        )
        assert not any(f.rule == "suppression" for f in report.findings)


# ---------------------------------------------------------------------------
# self-check: src/repro must be clean, with a pinned suppression baseline
# ---------------------------------------------------------------------------

class TestSelfCheck:
    def test_src_repro_has_zero_unsuppressed_findings(self):
        report = analyze_paths(
            [REPO_ROOT / "src" / "repro"],
            rules=list(ALL_RULES),
            root=REPO_ROOT,
            project=True,
            hygiene=True,
        )
        assert report.clean, "\n".join(str(f) for f in report.findings)

    def test_suppression_baseline_is_pinned(self):
        # the intentional exemptions: the client's ConnectionError and
        # TimeoutError raises (they surface to the local caller, never
        # the wire), the supervisor's in-process spawn/handshake errors
        # (same — local to the front-end, never serialized), and the
        # blessed once-per-call boundary spans in kernel-domain modules
        # (compile on digest miss, dynamic repair and compaction),
        # and the two on-loop decodes of small frames (the server's
        # below-the-floor branch and the client's response reader).
        # A new suppression anywhere in src/repro must update this.
        baseline = {}
        for path in sorted((REPO_ROOT / "src" / "repro").rglob("*.py")):
            if "__pycache__" in path.parts:
                continue
            rel = path.relative_to(REPO_ROOT).as_posix()
            ctx = ModuleContext(path, rel, path.read_text())
            for sup in ctx.suppressions:
                key = (rel, tuple(sorted(sup.rules)))
                baseline[key] = baseline.get(key, 0) + 1
        assert baseline == {
            ("src/repro/service/client.py", ("contract-sync",)): 2,
            ("src/repro/service/client.py", ("async-blocking",)): 1,
            ("src/repro/service/server.py", ("async-blocking",)): 1,
            ("src/repro/service/supervisor.py", ("contract-sync",)): 2,
            ("src/repro/kernels/compiled.py", ("span-hygiene",)): 1,
            ("src/repro/dynamic/solver.py", ("span-hygiene",)): 2,
        }


# ---------------------------------------------------------------------------
# CLI
# ---------------------------------------------------------------------------

class TestCli:
    def test_check_runs_clean_on_the_package(self, capsys):
        from repro.experiments.cli import main

        assert main(["check", "--fail-on-findings"]) == 0
        out = capsys.readouterr().out
        assert "0 finding(s)" in out

    def test_check_fails_on_violations(self, capsys):
        from repro.experiments.cli import main

        rc = main([
            "check", str(FIXTURES / "purity_bad.py"),
            "--rule", "kernel-purity", "--fail-on-findings",
        ])
        assert rc == 1
        assert "[kernel-purity]" in capsys.readouterr().out

    def test_json_format(self, capsys):
        import json

        from repro.experiments.cli import main

        rc = main([
            "check", str(FIXTURES / "purity_bad.py"),
            "--rule", "kernel-purity", "--format", "json",
        ])
        assert rc == 0  # no --fail-on-findings
        data = json.loads(capsys.readouterr().out)
        assert data["findings"]
        assert all(f["rule"] == "kernel-purity" for f in data["findings"])

    def test_list_rules(self, capsys):
        from repro.experiments.cli import main

        assert main(["check", "--list-rules"]) == 0
        out = capsys.readouterr().out
        for rule in ALL_RULES:
            assert rule.id in out

    def test_unknown_rule_is_an_error(self):
        from repro.experiments.cli import main

        assert main(["check", "--rule", "no-such-rule"]) == 2
