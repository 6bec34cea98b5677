"""kernel-purity: bit-identity and determinism hazards in kernel code.

The conformance harness (PR 4/6) requires the numpy kernels to replay
the python oracle's float operations *bit-identically*, and the
content-addressed caches require instance digests to be cheap and
stable.  Four hazard classes, each with a concrete in-repo precedent:

* ``.tobytes()`` — copies the whole buffer; digesting megabytes per
  dynamic-instance mutation was a measured regression in PR 6.  Hash
  the ``.data`` memoryview instead (see
  ``engine/cache.instance_digest``).
* unseeded RNG — ``np.random.rand()``, ``default_rng()`` with no
  seed, ``random.random()``: any sampling that doesn't flow from the
  experiment seed breaks replayability of Tables I–III.
* set/dict iteration feeding array construction — set order is
  hash-randomized across processes and dict order depends on
  insertion history; arrays built from them differ run to run even
  when the contents are equal.  Sort first (``sorted(...)`` is the
  accepted idiom and is exempt).
* unordered float accumulation — ``np.bincount(..., weights=...)``
  and ``np.histogram(..., weights=...)`` reduce floats in
  unspecified order; the kernels' contract is the ordered
  ``np.add.at`` idiom (see ``kernels/ops.loads_from_assignment``).
  Integer counting (no ``weights=``) is exact and exempt.
"""

from __future__ import annotations

import ast
from typing import Iterable

from .core import Finding, ModuleContext, Rule, dotted_name

#: numpy sampling functions that draw from global state when unseeded
_NP_SAMPLERS = frozenset({
    "rand", "randn", "randint", "random", "random_sample", "choice",
    "shuffle", "permutation", "normal", "uniform", "exponential",
    "poisson", "binomial", "seed",
})
#: stdlib ``random`` module functions (always global state)
_PY_SAMPLERS = frozenset({
    "random", "randint", "randrange", "choice", "choices", "shuffle",
    "sample", "uniform", "gauss", "betavariate", "expovariate",
})
#: constructors whose element order becomes array order
_ARRAY_BUILDERS = frozenset({
    "np.array", "np.asarray", "np.fromiter", "np.stack",
    "np.concatenate", "numpy.array", "numpy.asarray", "numpy.fromiter",
    "list", "tuple",
})
_DICT_VIEWS = frozenset({"keys", "values", "items"})


def _is_unordered_iterable(node: ast.AST) -> str | None:
    """Describe ``node`` if its iteration order is nondeterministic."""
    if isinstance(node, ast.Call):
        name = dotted_name(node.func)
        if name == "set" or (name or "").endswith(".union"):
            return "a set"
        if (
            isinstance(node.func, ast.Attribute)
            and node.func.attr in _DICT_VIEWS
            and not node.args
        ):
            return f"a dict .{node.func.attr}() view"
    if isinstance(node, (ast.Set, ast.SetComp)):
        return "a set"
    if isinstance(node, ast.DictComp):
        return "a dict comprehension"
    return None


class KernelPurityRule(Rule):
    id = "kernel-purity"
    title = "nondeterminism / bit-identity hazards in kernels"
    domains = frozenset({"kernel"})

    def check_module(self, ctx: ModuleContext) -> Iterable[Finding]:
        findings: list[Finding] = []
        for node in ast.walk(ctx.tree):
            if not isinstance(node, ast.Call):
                continue
            name = dotted_name(node.func) or ""
            leaf = name.split(".")[-1]

            # 1. buffer copies on the digest path
            if (
                isinstance(node.func, ast.Attribute)
                and node.func.attr == "tobytes"
            ):
                findings.append(ctx.finding(
                    node, self.id,
                    ".tobytes() copies the whole buffer — hash/pass the "
                    ".data memoryview instead (PR 6 digest-path rule)",
                ))

            # 2. unseeded RNG
            chain = name.rsplit(".", 1)[0] if "." in name else ""
            if chain in ("np.random", "numpy.random"):
                if leaf in _NP_SAMPLERS:
                    findings.append(ctx.finding(
                        node, self.id,
                        f"np.random.{leaf} draws from global RNG state — "
                        f"thread a seeded np.random.default_rng(seed) "
                        f"Generator through instead",
                    ))
                elif leaf == "default_rng" and not (
                    node.args or node.keywords
                ):
                    findings.append(ctx.finding(
                        node, self.id,
                        "default_rng() without a seed is entropy-seeded — "
                        "pass the experiment seed",
                    ))
            elif chain == "random" and leaf in _PY_SAMPLERS:
                findings.append(ctx.finding(
                    node, self.id,
                    f"random.{leaf} uses the global stdlib RNG — use a "
                    f"seeded np.random.default_rng(seed)",
                ))
            elif name == "random.Random" and not (node.args or node.keywords):
                findings.append(ctx.finding(
                    node, self.id,
                    "random.Random() without a seed is entropy-seeded",
                ))

            # 3. unordered iteration feeding array construction
            if name in _ARRAY_BUILDERS and node.args:
                desc = _is_unordered_iterable(node.args[0])
                if desc is not None:
                    findings.append(ctx.finding(
                        node, self.id,
                        f"{name}(...) built from {desc} — iteration order "
                        f"is nondeterministic; wrap in sorted(...) first",
                    ))

            # 4. unordered float reductions
            if leaf in ("bincount", "histogram") and any(
                kw.arg == "weights" for kw in node.keywords
            ):
                findings.append(ctx.finding(
                    node, self.id,
                    f"{leaf}(..., weights=...) accumulates floats in "
                    f"unspecified order — use the ordered np.add.at idiom "
                    f"(kernels/ops.loads_from_assignment)",
                ))
        return findings
