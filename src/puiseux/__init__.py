"""Exact arithmetic for additive monoids of nonnegative rationals.

Everything here is built on ``fractions.Fraction``; no floating point
enters any computation. The package covers numerical semigroups,
finitely generated rational monoids and their factorization theory, a
catalog of generator families with a conservative classifier, cyclic
(one-ratio) monoids with exact membership, constructive witnesses,
and a claim verifier that replays the cataloged facts at desk scale.

Each submodule is imported on first use of one of its names (PEP 562),
so a caller pays only for the modules it touches.
"""

import sys

_EXPORTS = {
    "arith": (
        "format_rational",
        "is_prime",
        "nth_odd_prime",
        "nth_prime",
        "p_adic_valuation",
        "parse_rational",
        "prime_factors",
        "prime_in_progression",
        "prime_index",
        "primes",
    ),
    "cyclic": (
        "CyclicFactorization",
        "CyclicMembership",
        "cyclic_contains",
        "cyclic_factorizations",
        "cyclic_trade",
        "generalized_cyclic_embed",
    ),
    "errors": (
        "BadIndex",
        "BadProgression",
        "GcdOne",
        "HypothesisViolated",
        "InsufficientMultiplicity",
        "NonPositive",
        "NotAtomic",
        "NotCofinite",
        "NotDense",
        "NotFoundWithinLimit",
        "NotPrime",
        "ParseError",
        "PuiseuxError",
        "UnknownClaim",
    ),
    "families": (
        "ClassificationReport",
        "classify",
        "family_from_mapping",
        "generator_at",
        "rule_statement",
        "truncate",
    ),
    "monoid": ("Factorization", "FgMonoid", "isomorphism_witness"),
    "semigroup": ("NumericalSemigroup",),
    "verifier": ("ClaimOutcome", "ClaimParameters", "claim_ids", "run_claims"),
    "witnesses": (
        "approximate",
        "dense_atom_monoid",
        "disjoint_prime_noniso",
        "kprimary_antimatter_witness",
        "padic_candidate_atoms",
        "sum_kprimary_atom_check",
    ),
}
_OWNER = {name: module for module, names in _EXPORTS.items() for name in names}
_SUBMODULES = frozenset(_EXPORTS) | {"cli"}

__all__ = sorted(_OWNER)


def _submodule(name: str):
    # __import__ rather than importlib.import_module: an import-time
    # profile (-X importtime) then lists the module it loads.
    __import__(f"{__name__}.{name}")
    return sys.modules[f"{__name__}.{name}"]


def __getattr__(name: str):
    if name in _OWNER:
        value = getattr(_submodule(_OWNER[name]), name)
        # Bound here, so the next lookup is a plain attribute read.
        globals()[name] = value
        return value
    if name in _SUBMODULES:
        return _submodule(name)
    raise AttributeError(f"module {__name__!r} has no attribute {name!r}")


def __dir__() -> list[str]:
    return __all__
