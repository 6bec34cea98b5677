"""The capability-aware solver registry.

Every algorithm the package can dispatch to self-registers here via the
:func:`register_solver` decorator, declaring

* its **primary name** (the paper's abbreviation where one exists) and
  any **aliases** (long names, historical spellings);
* its **domain** — ``"hypergraph"`` (MULTIPROC) or ``"bipartite"``
  (SINGLEPROC; the engine lifts these onto bipartite-shaped
  hypergraphs);
* its **capabilities** — free-form tags such as ``"weighted"``,
  ``"unit_only"``, ``"exact"``, ``"randomized"``, ``"greedy"`` that
  drive guards and auto-selection as *queries* instead of if/elif
  chains;
* what instance trait it is **recommended for** (``"hypergraph:unit"``,
  ``"bipartite:weighted"``, ...) — ``method="auto"`` is exactly the
  registry query for the instance's trait;
* whether it belongs in the **default portfolio**.

``known_methods()`` and ``default_portfolio()`` are generated from the
registry, so registering a solver makes it instantly usable in
``solve``, portfolio mode, sweeps and the CLI with no dispatch edits.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Any, Callable, Iterable, Iterator

from .errors import UnknownSolverError

__all__ = [
    "SolverSpec",
    "SolverRegistry",
    "register_solver",
    "get_registry",
]

#: Pseudo-methods handled by the expression layer, not by any one solver.
PSEUDO_METHODS = ("auto", "portfolio")


@dataclass(frozen=True)
class SolverSpec:
    """Declarative metadata for one registered solver.

    ``fn`` takes the domain's instance type as its single positional
    argument (plus ``seed=`` when ``needs_seed``) and returns a matching
    object for that domain.
    """

    name: str
    fn: Callable
    domain: str  # "hypergraph" | "bipartite"
    aliases: tuple[str, ...] = ()
    capabilities: frozenset[str] = frozenset()
    recommended_for: frozenset[str] = frozenset()
    in_default_portfolio: bool = False
    needs_seed: bool = False
    needs_backend: bool = False
    summary: str = ""

    def __post_init__(self) -> None:
        if self.domain not in ("hypergraph", "bipartite"):
            raise ValueError(
                f"domain must be 'hypergraph' or 'bipartite', "
                f"got {self.domain!r}"
            )
        object.__setattr__(self, "aliases", tuple(self.aliases))
        object.__setattr__(
            self, "capabilities", frozenset(self.capabilities)
        )
        object.__setattr__(
            self, "recommended_for", frozenset(self.recommended_for)
        )

    def run(
        self, instance: Any, *, seed: int = 0, backend: str = "numpy"
    ) -> Any:
        """Invoke the solver, passing ``seed``/``backend`` only when the
        registration declared it wants them."""
        kwargs = {}
        if self.needs_seed:
            kwargs["seed"] = seed
        if self.needs_backend:
            kwargs["backend"] = backend
        return self.fn(instance, **kwargs)

    @property
    def is_randomized(self) -> bool:
        return "randomized" in self.capabilities


class SolverRegistry:
    """Name -> :class:`SolverSpec` mapping with capability queries.

    Resolution accepts primary names, aliases, case-insensitive
    spellings and unique abbreviations (prefixes); failures raise
    :class:`UnknownSolverError` with did-you-mean suggestions and the
    full method list.
    """

    def __init__(self) -> None:
        self._specs: dict[str, SolverSpec] = {}  # primary name -> spec
        self._index: dict[str, str] = {}  # every accepted name -> primary

    # -- registration ---------------------------------------------------
    def register(self, spec: SolverSpec) -> SolverSpec:
        for name in (spec.name, *spec.aliases):
            owner = self._index.get(name)
            if owner is not None and owner != spec.name:
                raise ValueError(
                    f"name {name!r} already registered by solver {owner!r}"
                )
        self._specs[spec.name] = spec
        for name in (spec.name, *spec.aliases):
            self._index[name] = spec.name
        return spec

    def unregister(self, name: str) -> None:
        """Remove a solver (test/plugin support)."""
        spec = self._specs.pop(self._index[name])
        for n in (spec.name, *spec.aliases):
            self._index.pop(n, None)

    # -- lookup ---------------------------------------------------------
    def __contains__(self, name: str) -> bool:
        try:
            self.resolve(name)
        except UnknownSolverError:
            return False
        return True

    def __iter__(self) -> Iterator[SolverSpec]:
        return iter(self._specs.values())

    def __len__(self) -> int:
        return len(self._specs)

    def names(self) -> list[str]:
        """Primary names, in registration order."""
        return list(self._specs)

    def known_methods(self) -> list[str]:
        """Every name :func:`repro.api.solve` accepts (sorted), including
        aliases and the pseudo-methods ``auto``/``portfolio``."""
        return sorted({*PSEUDO_METHODS, *self._index})

    def resolve(
        self,
        name: str,
        *,
        domain: str | None = None,
        context: str = "method",
    ) -> SolverSpec:
        """Resolve ``name`` to its spec.

        Tries, in order: exact primary/alias match, case-insensitive
        match, unique-prefix abbreviation.  ``domain`` restricts the
        answer (a miss there is reported as unknown, listing only that
        domain's methods).
        """
        candidates = (
            self._index
            if domain is None
            else {
                n: p
                for n, p in self._index.items()
                if self._specs[p].domain == domain
            }
        )
        primary = candidates.get(name)
        if primary is None and isinstance(name, str):
            folded = [
                p for n, p in candidates.items() if n.lower() == name.lower()
            ]
            if len(set(folded)) == 1:
                primary = folded[0]
            else:
                prefixed = {
                    p
                    for n, p in candidates.items()
                    if n.lower().startswith(name.lower())
                }
                if len(prefixed) == 1 and name:
                    primary = next(iter(prefixed))
        if primary is None:
            known = sorted(candidates)
            if domain is None:
                known = self.known_methods()
            raise UnknownSolverError(name, known=known, context=context)
        return self._specs[primary]

    def get(self, name: str) -> SolverSpec:
        """Exact-or-alias lookup (no abbreviation magic)."""
        try:
            return self._specs[self._index[name]]
        except KeyError:
            raise UnknownSolverError(
                name, known=self.known_methods(), context="solver"
            ) from None

    # -- capability queries ---------------------------------------------
    def query(
        self,
        *,
        domain: str | None = None,
        capabilities: Iterable[str] = (),
        without: Iterable[str] = (),
    ) -> list[SolverSpec]:
        """Specs matching the filters, in registration order."""
        need = frozenset(capabilities)
        veto = frozenset(without)
        return [
            s
            for s in self._specs.values()
            if (domain is None or s.domain == domain)
            and need <= s.capabilities
            and not (veto & s.capabilities)
        ]

    def recommended(self, trait: str) -> SolverSpec:
        """The solver recommended for an instance trait, e.g.
        ``"hypergraph:weighted"`` — the ``method="auto"`` query."""
        hits = [
            s for s in self._specs.values() if trait in s.recommended_for
        ]
        if not hits:
            raise UnknownSolverError(
                trait,
                known=sorted(
                    t for s in self._specs.values() for t in s.recommended_for
                ),
                context="instance trait",
            )
        return hits[0]

    def default_portfolio(self) -> tuple[str, ...]:
        """The line-up raced by ``method="portfolio"``, generated from
        solver metadata: every deterministic hypergraph solver flagged
        for the portfolio (registration order), then the recommended
        weighted heuristic with local-search refinement, then the
        flagged randomized solvers."""
        deterministic = [
            s.name
            for s in self._specs.values()
            if s.in_default_portfolio
            and s.domain == "hypergraph"
            and not s.is_randomized
        ]
        randomized = [
            s.name
            for s in self._specs.values()
            if s.in_default_portfolio
            and s.domain == "hypergraph"
            and s.is_randomized
        ]
        refined = []
        try:
            best = self.recommended("hypergraph:weighted").name
            if best in deterministic:
                refined = [f"{best}+ls"]
        except UnknownSolverError:  # pragma: no cover - degenerate registry
            pass
        return tuple([*deterministic, *refined, *randomized])

    # -- documentation --------------------------------------------------
    def table_markdown(self) -> str:
        """A markdown table of every registered solver (drives API.md
        and the ``semimatch solvers`` CLI command)."""
        rows = [
            "| Name | Aliases | Domain | Capabilities | Auto-selected for "
            "| Portfolio | Kernels | Summary |",
            "|---|---|---|---|---|---|---|---|",
        ]
        for s in self._specs.values():
            rows.append(
                "| `{}` | {} | {} | {} | {} | {} | {} | {} |".format(
                    s.name,
                    ", ".join(f"`{a}`" for a in s.aliases) or "—",
                    s.domain,
                    ", ".join(sorted(s.capabilities)) or "—",
                    ", ".join(sorted(s.recommended_for)) or "—",
                    "yes" if s.in_default_portfolio else "no",
                    "yes" if s.needs_backend else "no",
                    s.summary or "—",
                )
            )
        return "\n".join(rows)


#: The process-wide registry every built-in solver registers into.
_REGISTRY = SolverRegistry()


def get_registry() -> SolverRegistry:
    """The process-wide default :class:`SolverRegistry`."""
    return _REGISTRY


def register_solver(
    *,
    name: str,
    domain: str,
    aliases: Iterable[str] = (),
    capabilities: Iterable[str] = (),
    recommended_for: Iterable[str] = (),
    portfolio: bool = False,
    needs_seed: bool = False,
    needs_backend: bool = False,
    summary: str = "",
    registry: SolverRegistry | None = None,
) -> Callable[[Callable], Callable]:
    """Decorator: register the wrapped callable as a solver.

    >>> @register_solver(name="my-heuristic", domain="hypergraph",
    ...                  capabilities={"weighted"}, summary="demo")
    ... def my_heuristic(hg):
    ...     ...

    ``needs_backend=True`` declares the callable accepts a
    ``backend=`` keyword ("numpy"/"python") and is held to bit-equal
    results across backends by the conformance suite.  The callable is
    returned unchanged, so modules can still export and call it
    directly.
    """

    def decorate(fn: Callable) -> Callable:
        reg = registry if registry is not None else _REGISTRY
        reg.register(
            SolverSpec(
                name=name,
                fn=fn,
                domain=domain,
                aliases=tuple(aliases),
                capabilities=frozenset(capabilities),
                recommended_for=frozenset(recommended_for),
                in_default_portfolio=portfolio,
                needs_seed=needs_seed,
                needs_backend=needs_backend,
                summary=summary or (fn.__doc__ or "").strip().split("\n")[0],
            )
        )
        return fn

    return decorate
