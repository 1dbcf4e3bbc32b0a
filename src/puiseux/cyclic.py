"""Membership, factorizations, and trades in power monoids of one ratio.

The monoid of r = a/b (lowest terms) is generated by r, r^2, r^3, ...
Each member has one base factorization, with fewer than b copies of
every power past r^1. Its multiplicities are forced digits, peeled off
from the top exponent down; this decides membership exactly, and every
other factorization adds trade counts a * r^t -> b * r^(t+1) from a
box. For r < 1 those trades lengthen a factorization, so the base is
the shortest. For r > 1 they shorten it: the base is the longest, and
trading up greedily from r^1 on, while a copies remain, reaches the
shortest, the one with fewer than a copies of every power. An integer
ratio r = a (b = 1) is the exception: every power past r^1 is a
multiple of r, so r is the one atom and x = (x/a) * r^1 is both the
witness and the only factorization listed.

The listing is one depth-first walk over the box's states, (exponent,
copies held). The terms from an exponent on depend on its state only,
so a state the walk meets again reuses the suffixes of its first visit
instead of being walked again.
"""

from __future__ import annotations

import math
from fractions import Fraction
from itertools import repeat

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

DEFAULT_EXPONENT_CAP = 8


@record
class CyclicFactorization:
    """A formal sum of powers of one ratio, keyed by exponent.

    The constructor checks the ratio (an exact positive rational) and
    every term (int exponents >= 1, int multiplicities >= 1; floats and
    bools refused), then merges and sorts. Both fields live in slots, so
    instances carry no __dict__. cyclic_factorizations checks the ratio
    once per call instead and builds all its results at once with
    record's unchecked bulk constructor, _trusted.
    """

    __slots__ = ("ratio", "terms")
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
        from .monoid import Factorization

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
    """

    status: str
    witness: CyclicFactorization | None = None
    certificate: str | None = None


def _checked(r: Fraction, x: Fraction, cap: int) -> tuple[Fraction, Fraction, int]:
    """r and x as exact rationals, once r > 0 and cap >= 1 are checked,
    and the part of x's denominator prime to r's. Any sum of powers of r
    has a denominator dividing a power of r's, so a part above 1 refutes
    membership; _base needs it to be 1."""
    r = _exact(r, Fraction)
    x = _exact(x, Fraction)
    if r <= 0:
        raise NonPositive(f"the ratio must be positive, got {r}")
    if _exact(cap) < 1:
        raise NonPositive(f"the exponent cap must be >= 1, got {cap}")
    stray = x.denominator
    while (g := math.gcd(stray, r.denominator)) > 1:
        stray //= g
    return r, x, stray


def _base(a: int, b: int, y: Fraction) -> tuple[list[int], int | None]:
    """The base factorization of y >= 0 over the powers of a/b, the one
    with fewer than b copies of every power past the first: the shortest
    when a < b, the longest when a > b.

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
    witness is its shortest factorization, (x/r) * r^1 for an integer
    r, and a non-member's certificate names the first screen it fails.
    The cap is checked and otherwise unused."""
    r, x, stray = _checked(r, x, cap)
    a, b = r.numerator, r.denominator
    if x < 0:
        reason = "negative rationals never belong"
    elif stray > 1:
        reason = f"the denominator of {x} has the factor {stray} outside the ratio's denominator"
    elif x.numerator % a:
        # Clearing denominators leaves every term divisible by a.
        reason = f"every member's numerator is divisible by {a}, {x.numerator} is not"
    else:
        # Past the screens s stays a multiple of a: only an overshoot fails.
        digits, stuck = _base(a, b, x)
        reason = None if stuck is None else (
            f"no representation: the {'shortest' if a < b else 'longest'} "
            f"factorization would need {digits[stuck - 1]}*r^{stuck}, more than is left of the target"
        )
    # Both records get all three fields by position, the record
    # constructor's fast path.
    if reason is not None:
        return CyclicMembership("non-member", None, reason)
    if a > b >= 2:
        # Trade up greedily: k trades carried from r^(t-1) add b * k copies
        # of r^t, which keeps fewer than a of them and trades the rest on.
        t = k = 0
        while t < len(digits) or k:
            if t == len(digits):
                digits.append(0)
            k, digits[t] = divmod(digits[t] + b * k, a)
            t += 1
    terms = tuple((t, c) for t, c in enumerate(digits, start=1) if c)
    witness = CyclicFactorization._trusted(1, (r,), (terms,))[0]
    return CyclicMembership("member", witness, None)


def cyclic_factorizations(
    r: Fraction, x: Fraction, cap: int = DEFAULT_EXPONENT_CAP
) -> list[CyclicFactorization]:
    """All factorizations of x into powers r^1 .. r^cap, in ascending
    lexicographic order of their multiplicity vectors.

    For r > 1 the list is complete once every r^t <= x has t <= cap,
    and for an integer r, whose one atom is r^1, at any cap.
    With r = a/b, the base factorization c of _base has fewer than b
    copies of every power past r^1 (for r > 1 it is the longest), and
    every factorization is c plus k_t trades a * r^t -> b * r^(t+1),
    t < cap, for each 0 <= k_t <= (c_t + b * k_(t-1)) / a. Listed with
    k_t decreasing, the box comes out in order. An iterative depth-first
    walk extends the terms each branch fixed so far; it stops at the cap
    or once nothing is left to trade, so a short answer costs nothing
    that grows with cap. The terms from exponent t on depend only on the
    state (t, have), the copies t holds, and the walk lists a state's
    results contiguously while the state is on its stack. So a state met
    again is not walked again: its suffixes are cut once from the
    results of its first visit, and each new branch reaching it prefixes
    them with its own terms. Raises NotAtomic for ratios 1/b with b >= 2,
    whose power monoids have no atoms at all.
    """
    r, x, stray = _checked(r, x, cap)
    a, b = r.numerator, r.denominator
    if a == 1 and b >= 2:
        raise NotAtomic(f"powers of {r} generate a monoid without atoms")
    if x < 0 or stray > 1:
        return []
    if x == 0:
        return [CyclicFactorization(r, ())]

    if b == 1:
        # The monoid is a times the naturals and its one atom is a = r^1.
        cap = 1

    c, stuck = _base(a, b, x)
    last = len(c)
    # Trades only move copies up, so no factorization fits under a cap
    # that c does not.
    if stuck is not None or last > cap:
        return []
    # (t, have, terms, js, first) of each open exponent: its copies, the
    # terms fixed before it, the trade counts left to try and the index
    # of its first result in out. Exponent 0 holds nothing and trades
    # nothing on: the walk starts there. seen maps each finished state
    # to (first, end, len(terms)), where its results lie in out and how
    # many terms precede its suffixes in them; once met again, to those
    # suffixes.
    out: list = []
    seen: dict = {}
    stack = [(0, 0, (), iter((0,)), 0)]
    while stack:
        t, have, terms, js, first = stack[-1]
        for j in js:
            # j trades leave m copies of exponent t, and exponent t + 1
            # gets its digit plus b copies per trade.
            m = have - a * j
            fixed = terms + ((t, m),) if m else terms
            nxt = (c[t] if t < last else 0) + b * j
            if t + 1 == cap or not nxt and t >= last:
                # Exponent t + 1 trades nothing on, and nothing is left past it.
                out.append(fixed + ((t + 1, nxt),) if nxt else fixed)
            elif (done := seen.get((t + 1, nxt))) is None:
                stack.append((t + 1, nxt, fixed, iter(range(nxt // a, -1, -1)), len(out)))
                break
            else:
                # A finished state: its suffixes, cut out once.
                if type(done) is tuple:
                    start, end, cut = done
                    done = seen[t + 1, nxt] = [z[cut:] for z in out[start:end]]
                out += [fixed + s for s in done] if fixed else done
        else:
            stack.pop()
            seen[t, have] = (first, len(out), len(terms))
    # r is a positive Fraction, exponents increase from 1, every kept m >= 1.
    return CyclicFactorization._trusted(len(out), repeat(r), out)


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
    if direction not in ("up", "down"):
        raise ParseError(f"direction must be 'up' or 'down', got {direction!r}")
    a, b = r.numerator, r.denominator
    source, target, take, give = (t, t + 1, a, b) if direction == "up" else (t + 1, t, b, a)
    counts = dict(z.terms)
    have = counts.get(source, 0)
    if have < take:
        raise InsufficientMultiplicity(
            f"trading {direction} at exponent {t} needs {take} copies of r^{source}, found {have}"
        )
    counts[source] = have - take
    counts[target] = counts.get(target, 0) + give
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
