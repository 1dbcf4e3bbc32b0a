"""Membership, factorizations, and trades in power monoids of one ratio.

The monoid of r = a/b (lowest terms) is generated by r, r^2, r^3, ...
Each member has one factorization with fewer than b copies of every
power past r^1. Its multiplicities are forced digits, peeled off from
the top exponent down; this decides membership exactly, and every
other factorization adds trade counts a * r^t -> b * r^(t+1) from a
box. For r < 1 those trades lengthen a factorization, so this one is
the shortest. For r > 1 the shortest, the witness of membership, comes
from the same routine: the powers r^t <= x, t <= top, are r^(top + 1)
times powers of 1/r with exponents read backwards.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import _exact, prime_factors, record
from .errors import (
    BadIndex,
    InsufficientMultiplicity,
    NonPositive,
    NotAtomic,
    NotFoundWithinLimit,
    GcdOne,
    HypothesisViolated,
    ParseError,
)
from .monoid import Factorization

DEFAULT_EXPONENT_CAP = 8


@record
class CyclicFactorization:
    """A formal sum of powers of one ratio, keyed by exponent.

    The constructor checks the ratio (an exact positive rational) and
    every term (int exponents >= 1, int multiplicities >= 1; floats and
    bools refused), then merges and sorts. cyclic_factorizations checks
    the ratio once per call instead and builds its results with _sorted.
    """

    ratio: Fraction
    terms: tuple[tuple[int, int], ...]

    def __post_init__(self) -> None:
        ratio = self.ratio
        if type(ratio) is not Fraction:
            ratio = _exact(ratio, Fraction)
        if ratio.numerator <= 0:
            raise NonPositive(f"the ratio must be positive, got {ratio}")
        terms = []
        for exponent, mult in self.terms:
            if type(exponent) is not int:
                exponent = _exact(exponent)
            if type(mult) is not int:
                mult = _exact(mult)
            if exponent < 1:
                raise BadIndex(f"exponents start at 1, got {exponent}")
            if mult < 1:
                raise NonPositive(f"multiplicities must be >= 1, got {mult}")
            terms.append((exponent, mult))
        if any(e >= f for (e, _), (f, _) in zip(terms, terms[1:])):
            merged: dict[int, int] = {}
            for exponent, mult in terms:
                merged[exponent] = merged.get(exponent, 0) + mult
            terms = sorted(merged.items())
        object.__setattr__(self, "ratio", ratio)
        object.__setattr__(self, "terms", tuple(terms))

    @classmethod
    def _sorted(cls, ratio: Fraction, terms: tuple[tuple[int, int], ...]) -> "CyclicFactorization":
        """Store ratio and terms as given, unchecked. The caller
        guarantees what the constructor would establish: a positive
        Fraction ratio, and int exponents >= 1, strictly increasing,
        each with an int multiplicity >= 1."""
        z = object.__new__(cls)
        fields = z.__dict__
        fields["ratio"] = ratio
        fields["terms"] = terms
        return z

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


@record
class CyclicMembership:
    """Outcome of a membership test: member or non-member, always exact.

    A member carries its shortest factorization as the witness; a
    non-member carries a one line certificate naming the obstruction.
    The cap is recorded as given; it does not bound the decision.
    """

    status: str
    cap: int
    witness: CyclicFactorization | None = None
    certificate: str | None = None


def _intrinsic_horizon(r: Fraction, x: Fraction) -> int:
    """Largest t >= 1 with r^t <= x, for r > 1 and x >= r."""
    t = 1
    power = r
    while power * r <= x:
        power *= r
        t += 1
    return t


def _shortest(a: int, b: int, y: Fraction) -> tuple[list[int], int | None]:
    """The factorization of y > 0 over the powers of a/b with fewer than
    b copies of every power past the first: the shortest when a < b.

    y's denominator must divide a power of b. With T least such that
    s = y * b^T is an integer, for t = T down to 2 the multiplicity of
    (a/b)^t is c_t = s * a^(-t) mod b and s becomes (s - c_t * a^t) / b;
    last, c_1 = s / a. Returns [c_1, ..., c_T] and None for a member;
    otherwise also the t where c_t overshoots y or is not whole (t = 1).
    """
    top = 1
    while b**top % y.denominator:
        top += 1
    s = y.numerator * b**top // y.denominator
    digits = [0] * top
    for t in range(top, 1, -1):
        digits[t - 1] = c = s * pow(a, -t, b) % b
        s -= c * a**t
        if s < 0:
            return digits, t
        s //= b
    digits[0], rest = divmod(s, a)
    return digits, 1 if rest else None


def cyclic_contains(r: Fraction, x: Fraction, cap: int = DEFAULT_EXPONENT_CAP) -> CyclicMembership:
    """Decide exactly whether x is a sum of powers of r; a member's
    witness is its shortest factorization. The cap is only recorded."""
    r = _exact(r, Fraction)
    x = _exact(x, Fraction)
    if r <= 0:
        raise NonPositive(f"the ratio must be positive, got {r}")
    if _exact(cap) < 1:
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

    # Routine exponent u is r's exponent |flip - u|; the screens keep u <= top.
    flip = 0
    if r > 1:
        if x < r:
            return CyclicMembership(
                "non-member", cap, certificate=f"{x} is below the smallest generator {r}"
            )
        top = _intrinsic_horizon(r, x)
        if (x * b**top).denominator != 1:
            return CyclicMembership(
                "non-member",
                cap,
                certificate="the denominator needs higher exponents than any generator fitting under the target",
            )
        flip, a, b, x = top + 1, b, a, x / r ** (top + 1)
    digits, stuck = _shortest(a, b, x)
    if stuck is not None:
        # Past the screens s stays a multiple of a: only an overshoot fails.
        return CyclicMembership(
            "non-member",
            cap,
            certificate=f"no representation: the shortest factorization would need "
            f"{digits[stuck - 1]}*r^{abs(flip - stuck)}, more than is left of the target",
        )
    terms = tuple((abs(flip - t), c) for t, c in enumerate(digits, start=1) if c)
    return CyclicMembership("member", cap, witness=CyclicFactorization(r, terms))


def cyclic_factorizations(
    r: Fraction, x: Fraction, cap: int = DEFAULT_EXPONENT_CAP
) -> list[CyclicFactorization]:
    """All factorizations of x into powers r^1 .. r^cap, in ascending
    lexicographic order of their multiplicity vectors.

    For r > 1 the list is complete once every r^t <= x has t <= cap.
    With r = a/b, the factorization c of _shortest has fewer than b
    copies of every power past r^1 (for r > 1 it is the longest), and
    every factorization is c plus k_t trades a * r^t -> b * r^(t+1),
    t < cap, for each 0 <= k_t <= (c_t + b * k_(t-1)) / a. One iterative
    depth-first walk of that box, k_t decreasing, emits them in order,
    each extending the terms its branch fixed so far. A branch ends
    once nothing is left past c's last digit, so a short answer costs
    nothing that grows with cap. Raises NotAtomic for ratios 1/b with
    b >= 2, whose power monoids have no atoms at all.
    """
    r = _exact(r, Fraction)
    x = _exact(x, Fraction)
    if r <= 0:
        raise NonPositive(f"the ratio must be positive, got {r}")
    if _exact(cap) < 1:
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

    # _shortest needs x's denominator to divide a power of b: screen its
    # primes outside b first, as cyclic_contains does.
    stray = x.denominator
    while (g := math.gcd(stray, b)) > 1:
        stray //= g
    if stray > 1:
        return []
    c, stuck = _shortest(a, b, x)
    last = len(c)
    # Trades only move copies up, so no factorization fits under a cap
    # that c does not.
    if stuck is not None or last > cap:
        return []
    out: list = []
    # (t, have, terms, js) of each open exponent: its copies, the terms
    # fixed before it and the trade counts left to try. Exponent 0 holds
    # nothing and trades nothing on: the walk starts there.
    stack = [(0, 0, (), iter((0,)))]
    while stack:
        t, have, terms, js = stack[-1]
        for j in js:
            # j trades leave m copies of exponent t, and exponent t + 1
            # gets its digit plus b copies per trade.
            m = have - a * j
            fixed = terms + ((t, m),) if m else terms
            nxt = (c[t] if t < last else 0) + b * j
            if t + 1 == cap or not nxt and t >= last:
                # Exponent t + 1 trades nothing on, and nothing is left past it.
                out.append(fixed + ((t + 1, nxt),) if nxt else fixed)
                continue
            stack.append((t + 1, nxt, fixed, iter(range(nxt // a, -1, -1))))
            break
        else:
            stack.pop()
    # r is a positive Fraction, exponents increase from 1, every kept m >= 1.
    return [CyclicFactorization._sorted(r, terms) for terms in out]


def cyclic_trade(
    r: Fraction, z: CyclicFactorization, t: int, direction: str
) -> CyclicFactorization:
    """Apply the defining trade a * r^t = b * r^(t+1) inside a factorization.

    Direction "up" converts a copies of r^t into b copies of r^(t+1);
    "down" is the inverse. The value is unchanged and the length moves
    by b - a (up) or a - b (down).
    """
    r = _exact(r, Fraction)
    if z.ratio != r:
        raise ParseError(f"the factorization is over ratio {z.ratio}, not {r}")
    if _exact(t) < 1:
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


@record
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


def generalized_cyclic_embed(
    ratios: tuple[Fraction, ...], i: int, m: int
) -> EmbeddingWitness:
    """Embed the i-th ratio's m-th power through a shared numerator prime."""
    rs = tuple(_exact(r, Fraction) for r in ratios)
    if not rs or any(r <= 0 for r in rs):
        raise NonPositive("ratios must be a nonempty list of positive rationals")
    if not 1 <= _exact(i) <= len(rs):
        raise BadIndex(f"ratio index {i} is out of range 1..{len(rs)}")
    if _exact(m) < 1:
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
    if value != coefficient * base**m:
        raise HypothesisViolated(f"r_{i}^{m} = {coefficient} * ({base})^{m} fails")
    return EmbeddingWitness(
        ratio_index=i,
        power=m,
        prime=p,
        coefficient=coefficient,
        base=base,
        value=value,
    )
