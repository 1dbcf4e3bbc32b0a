"""Membership, factorizations, and trades in power monoids of one ratio.

The monoid of a positive rational r is generated by r, r^2, r^3, ...
Clearing denominators turns every question about sums of powers into a
question about a numerical semigroup: a sum using exponents up to T
equals x exactly when x * b^T is represented by the integer weights
a^t * b^(T-t), where r = a/b in lowest terms.

For r > 1 the exponents usable for a given x are intrinsically bounded
(r^t <= x), so membership is decidable outright whenever that bound
stays within the caller's cap. For r < 1 arbitrarily large exponents
can contribute and the cap is a genuine search horizon: failure to find
a representation is reported as unknown, never as a refusal.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from fractions import Fraction

from .arith import format_rational, prime_factors
from .errors import (
    BadIndex,
    InsufficientMultiplicity,
    NonPositive,
    NotAtomic,
    NotFoundWithinLimit,
    GcdOne,
    ParseError,
)
from .monoid import Factorization
from .semigroup import NumericalSemigroup

DEFAULT_EXPONENT_CAP = 8


@dataclass(frozen=True)
class CyclicFactorization:
    """A formal sum of powers of one ratio, keyed by exponent."""

    ratio: Fraction
    terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        ratio = self.ratio
        if type(ratio) is not Fraction:
            ratio = Fraction(ratio)
        if ratio.numerator <= 0:
            raise NonPositive(f"the ratio must be positive, got {ratio}")
        terms = tuple(self.terms)
        for exponent, mult in terms:
            if exponent < 1:
                raise BadIndex(f"exponents start at 1, got {exponent}")
            if mult < 1:
                raise NonPositive(f"multiplicities must be >= 1, got {mult}")
        if any(e >= f for (e, _), (f, _) in zip(terms, terms[1:])):
            merged: dict[int, int] = {}
            for exponent, mult in terms:
                merged[exponent] = merged.get(exponent, 0) + mult
            terms = sorted(merged.items())
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "terms", tuple(terms))

    @property
    def length(self) -> int:
        return sum(mult for _, mult in self.terms)

    def multiplicity(self, exponent: int) -> int:
        for e, mult in self.terms:
            if e == exponent:
                return mult
        return 0

    def value(self) -> Fraction:
        return sum((mult * self.ratio**e for e, mult in self.terms), Fraction(0))

    def as_factorization(self) -> Factorization:
        return Factorization(tuple((self.ratio**e, mult) for e, mult in self.terms))

    def as_mapping(self) -> dict:
        return {
            "length": self.length,
            "terms": [{"exponent": e, "mult": m} for e, m in self.terms],
        }


@dataclass(frozen=True)
class CyclicMembership:
    """Outcome of a membership test: member, non-member, or unknown.

    Member outcomes carry a witness; definitive refusals carry a one
    line certificate naming the obstruction. Unknown means the search
    horizon was exhausted without a verdict.
    """

    status: str
    cap: int
    witness: CyclicFactorization | None = None
    certificate: str | None = None

    def as_mapping(self) -> dict:
        return {
            "status": self.status,
            "cap": self.cap,
            "witness": None if self.witness is None else self.witness.as_mapping(),
            "certificate": self.certificate,
        }


def _weights(a: int, b: int, horizon: int) -> dict[int, int]:
    return {t: a**t * b ** (horizon - t) for t in range(1, horizon + 1)}


def _solve_one(a: int, b: int, horizon: int, target: int) -> CyclicFactorization | None:
    weights = _weights(a, b, horizon)
    by_weight = {w: t for t, w in weights.items()}
    ns = NumericalSemigroup(tuple(weights.values()))
    rep = ns.any_representation(target)
    if rep is None:
        return None
    terms = tuple(
        (by_weight[g], c) for g, c in zip(ns.generators, rep) if c > 0
    )
    return CyclicFactorization(Fraction(a, b), terms)


def _intrinsic_horizon(r: Fraction, x: Fraction) -> int:
    """Largest t >= 1 with r^t <= x, for r > 1 and x >= r."""
    t = 1
    power = r
    while power * r <= x:
        power *= r
        t += 1
    return t


def cyclic_contains(r: Fraction, x: Fraction, cap: int = DEFAULT_EXPONENT_CAP) -> CyclicMembership:
    """Decide, up to the exponent cap, whether x is a sum of powers of r."""
    r = Fraction(r)
    x = Fraction(x)
    if r <= 0:
        raise NonPositive(f"the ratio must be positive, got {r}")
    if cap < 1:
        raise NonPositive(f"the exponent cap must be >= 1, got {cap}")
    if x < 0:
        return CyclicMembership("non-member", cap, certificate="negative rationals never belong")
    if x == 0:
        return CyclicMembership("member", cap, witness=CyclicFactorization(r, ()))
    a, b = r.numerator, r.denominator

    # Denominator screen: any sum of powers of r has denominator dividing
    # a power of b, so a prime of d(x) outside b refutes membership.
    stray = x.denominator
    while (g := math.gcd(stray, b)) > 1:
        stray //= g
    if stray > 1:
        return CyclicMembership(
            "non-member",
            cap,
            certificate=f"the denominator of {x} has the factor {stray} outside the ratio's denominator",
        )

    # Numerator screen: clearing denominators leaves every term divisible
    # by a, so a must divide the numerator of x.
    if a >= 2 and x.numerator % a != 0:
        return CyclicMembership(
            "non-member",
            cap,
            certificate=f"every member's numerator is divisible by {a}, {x.numerator} is not",
        )

    if r == 1:
        return CyclicMembership(
            "member", cap, witness=CyclicFactorization(r, ((1, x.numerator),))
        )

    if r > 1:
        if x < r:
            return CyclicMembership(
                "non-member", cap, certificate=f"{x} is below the smallest generator {r}"
            )
        reach = _intrinsic_horizon(r, x)
        if (x * b**reach).denominator != 1:
            return CyclicMembership(
                "non-member",
                cap,
                certificate="the denominator needs higher exponents than any generator fitting under the target",
            )
        horizon = min(reach, cap)
        scaled = x * b**horizon
        if scaled.denominator != 1:
            return CyclicMembership(
                "unknown",
                cap,
                certificate=f"the denominator needs exponents beyond the cap {cap}",
            )
        witness = _solve_one(a, b, horizon, scaled.numerator)
        if witness is not None:
            return CyclicMembership("member", cap, witness=witness)
        if reach <= cap:
            return CyclicMembership(
                "non-member",
                cap,
                certificate=f"exhaustive search over exponents 1..{reach} found no representation",
            )
        return CyclicMembership(
            "unknown", cap, certificate=f"no representation with exponents up to {cap}"
        )

    scaled = x * b**cap
    if scaled.denominator != 1:
        return CyclicMembership(
            "unknown", cap, certificate=f"the denominator needs exponents beyond the cap {cap}"
        )
    witness = _solve_one(a, b, cap, scaled.numerator)
    if witness is not None:
        return CyclicMembership("member", cap, witness=witness)
    return CyclicMembership(
        "unknown", cap, certificate=f"no representation with exponents up to {cap}"
    )


def cyclic_factorizations(
    r: Fraction, x: Fraction, cap: int = DEFAULT_EXPONENT_CAP
) -> list[CyclicFactorization]:
    """All factorizations of x into atom powers with exponents up to cap.

    For r > 1 the list is complete whenever the intrinsic exponent bound
    fits under the cap; for r < 1 it is the complete list of
    factorizations supported on exponents 1..cap. Raises NotAtomic for
    ratios with numerator 1 and denominator at least 2, whose power
    monoids have no atoms at all.
    """
    r = Fraction(r)
    x = Fraction(x)
    if r <= 0:
        raise NonPositive(f"the ratio must be positive, got {r}")
    if cap < 1:
        raise NonPositive(f"the exponent cap must be >= 1, got {cap}")
    a, b = r.numerator, r.denominator
    if a == 1 and b >= 2:
        raise NotAtomic(f"powers of {r} generate a monoid without atoms")
    if x < 0:
        return []
    if x == 0:
        return [CyclicFactorization(r, ())]

    if b == 1:
        # The monoid is a times the naturals and its one atom is a itself.
        quotient = x / a
        if quotient.denominator != 1:
            return []
        return [CyclicFactorization(r, ((1, quotient.numerator),))]

    horizon = cap if r < 1 else min(cap, _intrinsic_horizon(r, x) if x >= r else 0)
    if horizon < 1:
        return []
    scaled = x * b**horizon
    if scaled.denominator != 1:
        return []
    weights = _weights(a, b, horizon)
    ns = NumericalSemigroup(tuple(weights.values()))
    # ns orders its generators by weight, which falls with the exponent
    # when r < 1 and rises with it when r > 1; read coefficients by exponent.
    slot = {g: i for i, g in enumerate(ns.generators)}
    order = [slot[weights[t]] for t in range(1, horizon + 1)]
    vectors = sorted(
        tuple(rep[i] for i in order) for rep in ns.representations(scaled.numerator)
    )
    return [
        CyclicFactorization(r, tuple((t, c) for t, c in enumerate(v, start=1) if c))
        for v in vectors
    ]


def cyclic_trade(
    r: Fraction, z: CyclicFactorization, t: int, direction: str
) -> CyclicFactorization:
    """Apply the defining trade a * r^t = b * r^(t+1) inside a factorization.

    Direction "up" converts a copies of r^t into b copies of r^(t+1);
    "down" is the inverse. The value is unchanged and the length moves
    by b - a (up) or a - b (down).
    """
    r = Fraction(r)
    if z.ratio != r:
        raise ParseError(f"the factorization is over ratio {z.ratio}, not {r}")
    if t < 1:
        raise BadIndex(f"exponents start at 1, got {t}")
    a, b = r.numerator, r.denominator
    counts = dict(z.terms)
    if direction == "up":
        have = counts.get(t, 0)
        if have < a:
            raise InsufficientMultiplicity(
                f"trading up at exponent {t} needs {a} copies, found {have}"
            )
        counts[t] = have - a
        counts[t + 1] = counts.get(t + 1, 0) + b
    elif direction == "down":
        have = counts.get(t + 1, 0)
        if have < b:
            raise InsufficientMultiplicity(
                f"trading down at exponent {t} needs {b} copies of exponent {t + 1}, found {have}"
            )
        counts[t + 1] = have - b
        counts[t] = counts.get(t, 0) + a
    else:
        raise ParseError(f"direction must be 'up' or 'down', got {direction!r}")
    return CyclicFactorization(r, tuple((e, m) for e, m in counts.items() if m > 0))


@dataclass(frozen=True)
class EmbeddingWitness:
    """An exact identity r_i^m = coefficient * (prime / denominators)^m.

    Exhibits the image of one ratio's powers inside the power monoid of
    prime / (product of all denominators), available whenever the
    ratios' numerators share a prime.
    """

    ratio_index: int
    power: int
    prime: int
    coefficient: int
    base: Fraction
    value: Fraction

    def as_mapping(self) -> dict:
        return {
            "ratio_index": self.ratio_index,
            "power": self.power,
            "prime": self.prime,
            "coefficient": self.coefficient,
            "base": format_rational(self.base),
            "value": format_rational(self.value),
        }


def generalized_cyclic_embed(
    ratios: tuple[Fraction, ...], i: int, m: int
) -> EmbeddingWitness:
    """Embed the i-th ratio's m-th power through a shared numerator prime."""
    rs = tuple(Fraction(r) for r in ratios)
    if not rs or any(r <= 0 for r in rs):
        raise NonPositive("ratios must be a nonempty list of positive rationals")
    if not 1 <= i <= len(rs):
        raise BadIndex(f"ratio index {i} is out of range 1..{len(rs)}")
    if m < 1:
        raise NonPositive(f"the power must be >= 1, got {m}")
    g = math.gcd(*(r.numerator for r in rs))
    if g == 1:
        raise GcdOne("the numerators share no prime, so this embedding does not apply")
    factors = prime_factors(g)
    if factors is None:
        raise NotFoundWithinLimit(f"could not factor the shared numerator gcd {g}")
    p = factors[0]
    target = rs[i - 1]
    quotient = target.numerator // p
    coefficient = quotient**m
    for j, r in enumerate(rs, start=1):
        if j != i:
            coefficient *= r.denominator**m
    big_d = math.prod(r.denominator for r in rs)
    base = Fraction(p, big_d)
    value = target**m
    assert value == coefficient * base**m
    return EmbeddingWitness(
        ratio_index=i,
        power=m,
        prime=p,
        coefficient=coefficient,
        base=base,
        value=value,
    )
