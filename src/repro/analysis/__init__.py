"""repro.analysis — the codebase-aware static checker.

Generic linters cannot see this repo's invariants: which attributes a
lock guards, that the asyncio service must never run engine solves on
the loop, that kernels must stay bit-identical to the python oracle,
or that API.md's tables mirror the live registry and protocol.  This
package encodes them as AST rules (stdlib ``ast`` + ``symtable``, no
dependencies) behind one entry point::

    semimatch check [PATHS] [--fail-on-findings]
    python -m repro.analysis

Rules
-----
``lock-guard``
    Inferred lock/attribute contracts; flags mutations of guarded
    state outside the lock (the PR 5 ``_ensure_pool`` race shape).
``async-blocking``
    Blocking or CPU-bound calls inside ``async def`` bodies of
    service modules, including one-hop sync-helper indirection.
``kernel-purity``
    Bit-identity hazards in kernel/dynamic code: ``.tobytes()``
    copies, unseeded RNG, set/dict-ordered array construction,
    unordered float reductions.
``contract-sync``
    ``register_solver`` flag consistency, coded exceptions across the
    service boundary, and API.md's registry/error-code tables versus
    the live code.
``span-hygiene``
    Tracing discipline: manual ``.start()``/``.end()`` span lifetimes
    (use ``with span(...)``), and span-factory calls in kernel-domain
    modules, where only justified boundary spans are allowed.
``suppression``
    Hygiene of the ``# repro: ignore[RULE]`` comments themselves:
    every suppression needs a justification and must still be load-
    bearing.

See the "Static analysis" section of API.md for the rule catalogue
and suppression syntax.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path
from typing import Sequence

from .asyncblock import AsyncBlockingRule
from .contracts import ContractSyncRule
from .core import (
    AnalysisReport,
    Finding,
    ModuleContext,
    ProjectContext,
    Rule,
    analyze_paths,
    format_json,
    format_text,
)
from .lockguard import LockGuardRule
from .purity import KernelPurityRule
from .spanhygiene import SpanHygieneRule

__all__ = [
    "ALL_RULES",
    "AnalysisReport",
    "Finding",
    "ModuleContext",
    "ProjectContext",
    "Rule",
    "analyze_paths",
    "default_target",
    "format_json",
    "format_text",
    "main",
    "run_check",
]

ALL_RULES: tuple[Rule, ...] = (
    LockGuardRule(),
    AsyncBlockingRule(),
    KernelPurityRule(),
    ContractSyncRule(),
    SpanHygieneRule(),
)


def default_target() -> tuple[Path, Path | None]:
    """``(scan_path, repo_root)`` when invoked with no paths.

    The scan target is the installed ``repro`` package itself, so
    ``semimatch check`` works from any working directory; the repo
    root (enabling doc-sync project checks) is only reported when the
    package actually sits inside a ``src/`` checkout with an API.md.
    """
    pkg = Path(__file__).resolve().parents[1]
    root = pkg.parents[1]
    if (root / "API.md").is_file() and (root / "src" / "repro").is_dir():
        return pkg, root
    return pkg, None


def run_check(
    paths: Sequence[str] = (),
    *,
    rules: Sequence[str] | None = None,
    fail_on_findings: bool = False,
    project: bool = True,
    fmt: str = "text",
    out=None,
) -> int:
    """Run the analyzer; returns the process exit status."""
    out = out if out is not None else sys.stdout
    known = {r.id: r for r in ALL_RULES}
    if rules:
        unknown = sorted(set(rules) - set(known))
        if unknown:
            print(f"unknown rule(s): {', '.join(unknown)}; "
                  f"known: {', '.join(sorted(known))}", file=sys.stderr)
            return 2
        selected = [known[r] for r in rules]
        hygiene = False  # partial runs cannot judge suppressions fairly
    else:
        selected = list(ALL_RULES)
        hygiene = True

    if paths:
        targets = [Path(p) for p in paths]
        root = Path.cwd()
    else:
        target, root = default_target()
        targets = [target]

    report = analyze_paths(
        targets,
        rules=selected,
        root=root,
        project=project,
        hygiene=hygiene,
    )
    print(
        format_json(report) if fmt == "json" else format_text(report),
        file=out,
    )
    if report.findings and fail_on_findings:
        return 1
    return 0


def add_check_arguments(parser: argparse.ArgumentParser) -> None:
    """Attach ``semimatch check`` flags (shared with ``__main__``)."""
    parser.add_argument(
        "paths", nargs="*",
        help="files/directories to analyze (default: the repro package)",
    )
    parser.add_argument(
        "--fail-on-findings", action="store_true",
        help="exit 1 when any unsuppressed finding remains (CI gate)",
    )
    parser.add_argument(
        "--rule", action="append", dest="rules", metavar="ID",
        help="run only this rule id (repeatable; disables suppression "
             "hygiene)",
    )
    parser.add_argument(
        "--no-project", action="store_true",
        help="skip repo-level doc-sync checks (API.md vs live registry)",
    )
    parser.add_argument(
        "--format", choices=("text", "json"), default="text",
        help="report format (default: text)",
    )
    parser.add_argument(
        "--list-rules", action="store_true",
        help="print the rule catalogue and exit",
    )


def run_from_args(args: argparse.Namespace) -> int:
    if args.list_rules:
        for rule in ALL_RULES:
            scope = ", ".join(sorted(rule.domains)) if rule.domains else "all"
            print(f"{rule.id:16} [{scope}] {rule.title}")
        print(f"{'suppression':16} [all] "
              f"hygiene of # repro: ignore[...] comments")
        return 0
    return run_check(
        args.paths,
        rules=args.rules,
        fail_on_findings=args.fail_on_findings,
        project=not args.no_project,
        fmt=args.format,
    )


def main(argv: Sequence[str] | None = None) -> int:
    parser = argparse.ArgumentParser(
        prog="python -m repro.analysis",
        description="repro's codebase-aware static checker",
    )
    add_check_arguments(parser)
    return run_from_args(parser.parse_args(argv))
