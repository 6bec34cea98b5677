"""Rule engine for the repro static analyzer.

This module is deliberately dependency-free (stdlib ``ast`` +
``symtable`` only): it must be importable in CI before the scientific
stack is, and it must never import the code it is analyzing.  Rules
receive parsed modules through :class:`ModuleContext` and report
:class:`Finding` objects with ``file:line`` anchors; repo-level
consistency rules (doc tables vs. live registries) additionally get a
:class:`ProjectContext` hook that only fires when the analyzer can see
the repository root.

Suppressions
------------
A finding is silenced by a ``# repro: ignore[RULE]`` comment on the
flagged line, or on a comment-only line directly above it.  Every
suppression must carry a one-line justification after the bracket —
an unexplained or unused suppression is itself reported (rule id
``suppression``), so the baseline of intentional exceptions stays
auditable and cannot rot.

Fixtures and path-independent domains
-------------------------------------
Package-scoped rules (kernel purity, service async rules) normally key
off the module path (``repro/kernels/...``).  Test fixtures live
outside those packages, so a module may opt into a domain explicitly
with a ``# repro: domain=kernel`` (or ``service``) marker comment.
"""

from __future__ import annotations

import ast
import dataclasses
import json
import re
import symtable
from pathlib import Path
from typing import Callable, Iterable, Iterator, Sequence

__all__ = [
    "Finding",
    "ModuleContext",
    "ProjectContext",
    "Rule",
    "AnalysisReport",
    "analyze_paths",
    "iter_python_files",
    "format_text",
    "format_json",
]

#: matches ``repro: ignore[rule-a, rule-b] — justification`` trailers.
#: Rule ids are lowercase kebab-case by construction, so uppercase
#: placeholders in prose (``ignore[RULE]`` in docstrings) stay inert.
_SUPPRESS_RE = re.compile(
    r"#\s*repro:\s*ignore\[([a-z0-9_,\- ]+)\]\s*[-—–:]*\s*(.*)"
)
#: ``# repro: domain=kernel`` — opt a module into a path-keyed domain.
_DOMAIN_RE = re.compile(r"#\s*repro:\s*domain=([a-z]+)")


@dataclasses.dataclass(frozen=True, order=True)
class Finding:
    """One rule violation, anchored to a source line."""

    path: str
    line: int
    rule: str
    message: str

    def anchor(self) -> str:
        return f"{self.path}:{self.line}"

    def __str__(self) -> str:
        return f"{self.anchor()}: [{self.rule}] {self.message}"


@dataclasses.dataclass
class Suppression:
    """One ``# repro: ignore[...]`` comment and what it covers."""

    line: int  # line the comment sits on
    covers: tuple[int, ...]  # source lines it silences
    rules: frozenset[str]
    justified: bool
    used: bool = False


class ModuleContext:
    """A parsed module plus everything rules need to inspect it."""

    def __init__(self, path: Path, rel: str, source: str):
        self.path = path
        self.rel = rel
        self.source = source
        self.lines = source.splitlines()
        self.tree = ast.parse(source, filename=rel)
        self.domains = self._infer_domains()
        self.suppressions = self._parse_suppressions()
        self._symtable: symtable.SymbolTable | None = None

    # -- domains ------------------------------------------------------
    def _infer_domains(self) -> frozenset[str]:
        parts = Path(self.rel).parts
        domains = set()
        if "kernels" in parts or "dynamic" in parts:
            domains.add("kernel")
        if "service" in parts:
            domains.add("service")
        for line in self.lines:
            m = _DOMAIN_RE.search(line)
            if m:
                domains.add(m.group(1))
        return frozenset(domains)

    # -- suppressions -------------------------------------------------
    def _parse_suppressions(self) -> list[Suppression]:
        sups = []
        for i, text in enumerate(self.lines, start=1):
            m = _SUPPRESS_RE.search(text)
            if m is None:
                continue
            rules = frozenset(
                r.strip() for r in m.group(1).split(",") if r.strip()
            )
            # a comment-only line shields the next source line; an
            # inline trailer shields its own line
            comment_only = text.lstrip().startswith("#")
            covers = (i, i + 1) if comment_only else (i,)
            sups.append(
                Suppression(
                    line=i,
                    covers=covers,
                    rules=rules,
                    justified=bool(m.group(2).strip()),
                )
            )
        return sups

    def suppressed(self, finding: Finding) -> bool:
        """Silence ``finding`` if a suppression covers it (marks use)."""
        hit = False
        for sup in self.suppressions:
            if finding.line in sup.covers and finding.rule in sup.rules:
                sup.used = True
                hit = True
        return hit

    # -- helpers for rules --------------------------------------------
    def finding(self, node: ast.AST | int, rule: str, message: str) -> Finding:
        line = node if isinstance(node, int) else getattr(node, "lineno", 1)
        return Finding(path=self.rel, line=line, rule=rule, message=message)

    def symbols(self) -> symtable.SymbolTable:
        """The module's ``symtable`` (built lazily, cached)."""
        if self._symtable is None:
            self._symtable = symtable.symtable(self.source, self.rel, "exec")
        return self._symtable

    def function_scope(
        self, node: ast.FunctionDef | ast.AsyncFunctionDef
    ) -> symtable.SymbolTable | None:
        """The symbol table of ``node``'s scope, matched by name+line."""

        def search(table: symtable.SymbolTable):
            for child in table.get_children():
                if (
                    child.get_name() == node.name
                    and child.get_lineno() == node.lineno
                ):
                    return child
                found = search(child)
                if found is not None:
                    return found
            return None

        return search(self.symbols())


@dataclasses.dataclass
class ProjectContext:
    """Repo-level view for rules that cross-check docs and registries.

    Only constructed when the analyzer can see a repository root (a
    directory holding ``API.md`` and ``src/repro``), so fixture runs in
    tests never trigger doc-sync checks by accident.
    """

    root: Path

    def read(self, rel: str) -> str | None:
        p = self.root / rel
        try:
            return p.read_text()
        except OSError:
            return None

    def finding(self, rel: str, line: int, rule: str, message: str) -> Finding:
        return Finding(path=rel, line=line, rule=rule, message=message)


class Rule:
    """Base class for analyzer rules.

    ``id`` names the rule in reports and suppression comments.
    ``domains`` restricts :meth:`check_module` to modules in any of the
    named domains (``None`` means every module).  Repo-level rules
    override :meth:`check_project` instead of / in addition to the
    module hook.
    """

    id: str = "rule"
    title: str = ""
    domains: frozenset[str] | None = None

    def applies(self, ctx: ModuleContext) -> bool:
        return self.domains is None or bool(self.domains & ctx.domains)

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        return ()

    def check_project(self, ctx: ProjectContext) -> Iterable[Finding]:
        return ()


@dataclasses.dataclass
class AnalysisReport:
    """The outcome of one analyzer run."""

    findings: list[Finding]
    suppressed: int
    files: int
    rules: tuple[str, ...]

    @property
    def clean(self) -> bool:
        return not self.findings


def iter_python_files(paths: Sequence[Path]) -> Iterator[Path]:
    """Every ``.py`` file under ``paths``, deterministically ordered."""
    seen = set()
    for base in paths:
        base = Path(base)
        if base.is_file():
            candidates: Iterable[Path] = [base]
        else:
            candidates = sorted(base.rglob("*.py"))
        for p in candidates:
            if "__pycache__" in p.parts:
                continue
            if any(part.startswith(".") for part in p.parts[1:]):
                continue
            rp = p.resolve()
            if rp not in seen:
                seen.add(rp)
                yield p


def _relpath(path: Path, root: Path | None) -> str:
    try:
        if root is not None:
            return path.resolve().relative_to(root.resolve()).as_posix()
    except ValueError:
        pass
    return path.as_posix()


def analyze_paths(
    paths: Sequence[Path],
    *,
    rules: Sequence[Rule],
    root: Path | None = None,
    project: bool = True,
    hygiene: bool = True,
) -> AnalysisReport:
    """Run ``rules`` over every module under ``paths``.

    ``root`` anchors report-relative paths and, when it looks like the
    repository root, enables :meth:`Rule.check_project` checks.
    ``hygiene`` additionally audits the suppression comments themselves
    (unjustified / unused); it only judges a suppression when every
    rule it names was actually executed, so partial runs (``--rule``)
    never report false "unused" hits.
    """
    executed = frozenset(r.id for r in rules)
    findings: list[Finding] = []
    suppressed = 0
    n_files = 0

    for path in iter_python_files(paths):
        rel = _relpath(path, root)
        try:
            source = path.read_text()
            ctx = ModuleContext(path, rel, source)
        except (OSError, SyntaxError, ValueError) as exc:
            findings.append(
                Finding(rel, getattr(exc, "lineno", 1) or 1, "parse",
                        f"cannot analyze module: {exc}")
            )
            continue
        n_files += 1
        for rule in rules:
            if not rule.applies(ctx):
                continue
            for f in rule.check_module(ctx):
                if ctx.suppressed(f):
                    suppressed += 1
                else:
                    findings.append(f)
        if hygiene:
            for sup in ctx.suppressions:
                if not sup.justified:
                    findings.append(ctx.finding(
                        sup.line, "suppression",
                        "suppression lacks a justification — add a short "
                        "reason after the bracket",
                    ))
                if not sup.used and sup.rules <= executed:
                    findings.append(ctx.finding(
                        sup.line, "suppression",
                        "unused suppression for "
                        f"[{', '.join(sorted(sup.rules))}] — the rule no "
                        "longer fires here; delete the comment",
                    ))

    if project and root is not None:
        root = Path(root)
        if (root / "API.md").is_file() and (root / "src" / "repro").is_dir():
            pctx = ProjectContext(root=root)
            for rule in rules:
                findings.extend(rule.check_project(pctx))

    findings.sort()
    return AnalysisReport(
        findings=findings,
        suppressed=suppressed,
        files=n_files,
        rules=tuple(sorted(executed)),
    )


def format_text(report: AnalysisReport) -> str:
    out = [str(f) for f in report.findings]
    out.append(
        f"{len(report.findings)} finding(s), {report.suppressed} "
        f"suppressed, {report.files} file(s) checked "
        f"[rules: {', '.join(report.rules)}]"
    )
    return "\n".join(out)


def format_json(report: AnalysisReport) -> str:
    return json.dumps(
        {
            "findings": [dataclasses.asdict(f) for f in report.findings],
            "suppressed": report.suppressed,
            "files": report.files,
            "rules": list(report.rules),
        },
        indent=2,
        sort_keys=True,
    )


# -- shared AST helpers (used by several rules) -----------------------

def dotted_name(node: ast.AST) -> str | None:
    """``a.b.c`` for a Name/Attribute chain, else ``None``."""
    parts: list[str] = []
    while isinstance(node, ast.Attribute):
        parts.append(node.attr)
        node = node.value
    if isinstance(node, ast.Name):
        parts.append(node.id)
        return ".".join(reversed(parts))
    return None


def self_attr(node: ast.AST) -> str | None:
    """``X`` when ``node`` is exactly ``self.X``, else ``None``."""
    if (
        isinstance(node, ast.Attribute)
        and isinstance(node.value, ast.Name)
        and node.value.id == "self"
    ):
        return node.attr
    return None


def const_names(node: ast.AST) -> set[str]:
    """String constants inside a set/tuple/list/call literal."""
    return {
        n.value
        for n in ast.walk(node)
        if isinstance(n, ast.Constant) and isinstance(n.value, str)
    }


Visitor = Callable[[ast.AST], None]
