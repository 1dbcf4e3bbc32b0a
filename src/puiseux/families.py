"""Closed-form families of Puiseux monoids and their classification.

A family spec is a small immutable description of an infinite (or, for
the explicit escape hatch, finite) generating sequence of positive
rationals. Specs can be evaluated pointwise, truncated to a concrete
finitely generated monoid, serialized to JSON, and classified.

Classification is a dispatch table, not a theorem prover: each verdict
it emits is justified either by exact closed-form reasoning (generator
infimum, numerator bounds, denominator supports, explicit decomposition
identities) or by a cited structural result that the code does not
re-derive. Cited verdicts are tagged "[asserted]" in the justification
list. Any family/field pair the table cannot justify stays "unknown".
"""

from __future__ import annotations

import math
from fractions import Fraction
from typing import Iterator, Union

from .arith import (
    _exact,
    is_prime,
    json_int,
    nth_odd_prime,
    nth_prime,
    parse_rational,
    prime_factors,
    primes,
    record,
)
from .errors import BadIndex, BadProgression, NonPositive, NotPrime, ParseError
from .monoid import FgMonoid


# ---------------------------------------------------------------------------
# closed-form integer sequences (1-indexed)


@record
class IntSeq:
    """Listed values at n = 1..len(values), then a closed-form tail.

    Past the listed values the sequence takes scale * ratio^n +
    slope * n + offset, evaluated at the original index, so
    ExplicitSeq((9, 3), GeometricSeq(1, 3)) takes the values 9, 3, 27,
    81, ... The tail is geometric (slope = offset = 0) or affine
    (scale = 0). A tail that is all zero ends the sequence after its
    listed values, and indexing past them raises BadIndex.

    GeometricSeq, AffineSeq and ExplicitSeq build checked instances.
    """

    values: tuple[int, ...] = ()
    scale: int = 0
    ratio: int = 1
    slope: int = 0
    offset: int = 0

    @property
    def finite(self) -> bool:
        return self.scale == self.slope == self.offset == 0

    def value_at(self, n: int) -> int:
        _check_index(n)
        if n <= len(self.values):
            return self.values[n - 1]
        if self.finite:
            raise BadIndex(
                f"index {n} is past the end of an explicit sequence of length {len(self.values)}"
            )
        return self.scale * self.ratio**n + self.slope * n + self.offset

    def tends_to_infinity(self) -> bool:
        return (self.scale >= 1 and self.ratio >= 2) or self.slope >= 1

    def is_strictly_increasing(self) -> bool:
        k = len(self.values)
        if any(self.values[i] >= self.values[i + 1] for i in range(k - 1)):
            return False
        if self.finite:
            return True
        # A geometric or affine tail increases exactly when it is unbounded.
        return self.tends_to_infinity() and (k == 0 or self.value_at(k + 1) > self.values[-1])

    def min_from(self, n: int) -> int:
        _check_index(n)
        k = len(self.values)
        candidates = list(self.values[n - 1 :])
        if not self.finite:
            # The tail never decreases, so its first value is its least.
            candidates.append(self.value_at(max(n, k + 1)))
        if not candidates:
            raise BadIndex(f"no values at or after index {n}")
        return min(candidates)

    def prime_power_base(self) -> int | None:
        """The prime q when every value is a power of q, 1 when every
        value is 1, None otherwise."""
        if self.slope:
            return None
        # Past the listed values, (scale or offset) * ratio^n: one is 0.
        base = _combine_bases(
            _prime_power_base_int(self.scale or self.offset or 1),
            _prime_power_base_int(self.ratio),
        )
        for v in self.values:
            base = _combine_bases(base, _prime_power_base_int(v))
        return base

    def coprime_to(self, p: int) -> bool:
        """Whether p divides no value."""
        if any(v % p == 0 for v in self.values):
            return False
        if self.scale:
            return self.scale % p != 0 and self.ratio % p != 0
        return self.slope % p == 0 and (self.finite or self.offset % p != 0)

    def as_mapping(self) -> dict:
        if self.values:
            out: dict = {"kind": "explicit", "values": list(self.values)}
            if not self.finite:
                tail = IntSeq((), self.scale, self.ratio, self.slope, self.offset)
                out["then"] = tail.as_mapping()
            return out
        if self.scale == 0:
            return {"kind": "affine-exponent", "a": self.slope, "b": self.offset}
        if self.ratio == 1:
            return {"kind": "constant", "value": self.scale}
        if self.scale == 1:
            return {"kind": "power", "base": self.ratio}
        return {"kind": "geometric", "scale": self.scale, "ratio": self.ratio}


def GeometricSeq(scale: int, ratio: int) -> IntSeq:
    """c * q^n for n = 1, 2, ... with integers c >= 1, q >= 1.

    The constant sequence c, c, ... is GeometricSeq(c, 1) and the powers
    q, q^2, ... are GeometricSeq(1, q); their JSON kinds `constant` and
    `power` are read and written as shorthands.
    """
    if _exact(scale) < 1 or _exact(ratio) < 1:
        raise NonPositive("geometric sequences need scale >= 1 and ratio >= 1")
    return IntSeq(scale=scale, ratio=ratio)


def AffineSeq(a: int, b: int) -> IntSeq:
    """a*n + b for n = 1, 2, ... (the usual choice for exponent positions)."""
    if _exact(a) < 0 or _exact(b) < 0 or a + b < 1:
        raise NonPositive("affine sequences need a, b >= 0 with a + b >= 1")
    return IntSeq(slope=a, offset=b)


def ExplicitSeq(values: tuple[int, ...], then: IntSeq | None = None) -> IntSeq:
    """A finite prefix of listed values, optionally continued by a tail.

    The tail is evaluated at the original index. Listed values of the
    tail past the prefix are kept, so a nested tail flattens into one
    list: ExplicitSeq((9,), ExplicitSeq((1, 3))) is ExplicitSeq((9, 3)).
    Without a tail the sequence is finite.
    """
    vals = tuple(_exact(v) for v in values)
    if not vals:
        raise NonPositive("an explicit sequence needs at least one value")
    if min(vals) < 1:
        raise NonPositive("sequence values must be >= 1")
    if then is None:
        return IntSeq(vals)
    return IntSeq(vals + then.values[len(vals) :], then.scale, then.ratio, then.slope, then.offset)


def _check_index(n: int) -> None:
    if n < 1:
        raise BadIndex(f"sequence indices start at 1, got {n}")


def _prime_power_base_int(v: int) -> int | None:
    """The prime q with v = q^e (e >= 1); 1 for v = 1; None otherwise."""
    if v == 1:
        return 1
    ps = prime_factors(v)
    if ps is not None and len(ps) == 1:
        return ps[0]
    return None


def _combine_bases(a: int | None, b: int | None) -> int | None:
    if a is None or b is None:
        return None
    if a == 1:
        return b
    if b == 1 or a == b:
        return a
    return None


def json_rational(value) -> Fraction:
    """A positive rational written as an 'n/d' or integer string, or as
    a JSON integer."""
    if isinstance(value, bool) or not isinstance(value, (int, str)):
        raise ParseError(f"expected a rational as 'n/d' or an integer, got {value!r}")
    return parse_rational(str(value))


def json_list(value) -> list:
    """A JSON list; a string is not read as a list of characters."""
    if not isinstance(value, list):
        raise ParseError(f"expected a JSON list, got {value!r}")
    return value


def _parse(obj, tag: str, what: str, table: dict):
    """Build what a JSON object describes: table[obj[tag]](obj).

    The builders read obj's fields with json_int, json_rational and
    json_list; a field they find missing is reported as a ParseError.
    """
    if not isinstance(obj, dict) or tag not in obj:
        raise ParseError(f"a {what} must be an object with a {tag!r}, got {obj!r}")
    name = obj[tag]
    if not isinstance(name, str) or name not in table:
        raise ParseError(f"unknown {what} {name!r}")
    try:
        return table[name](obj)
    except KeyError as missing:
        raise ParseError(f"{what} {name!r} is missing field {missing}") from None


def _tagged(tag: str, builders: dict) -> dict:
    """A _parse table from builders keyed by record class, each under
    the value its json_tag gives tag."""
    return {cls.json_tag[tag]: build for cls, build in builders.items()}


_SEQUENCES = {
    "constant": lambda o: GeometricSeq(json_int(o["value"]), 1),
    "power": lambda o: GeometricSeq(1, json_int(o["base"])),
    "geometric": lambda o: GeometricSeq(json_int(o["scale"]), json_int(o["ratio"])),
    "affine-exponent": lambda o: AffineSeq(json_int(o["a"]), json_int(o["b"])),
    "explicit": lambda o: ExplicitSeq(
        tuple(json_int(v) for v in json_list(o["values"])),
        None if o.get("then") is None else sequence_from_mapping(o["then"]),
    ),
}


def sequence_from_mapping(obj) -> IntSeq:
    """Parse the JSON form of a closed-form integer sequence."""
    return _parse(obj, "kind", "sequence", _SEQUENCES)


# ---------------------------------------------------------------------------
# prime streams and the canonical disjoint partition


def partition_class_of_index(n: int) -> tuple[int, int]:
    """Class and member position of prime index n in the canonical partition.

    Index n factors uniquely as 2^(j-1) * (2t - 1); the n-th prime is
    then the t-th member of class j. The classes are infinite, pairwise
    disjoint, and jointly cover every prime.
    """
    if n < 1:
        raise BadIndex(f"prime indices start at 1, got {n}")
    j = 1
    while n % 2 == 0:
        n //= 2
        j += 1
    return j, (n + 1) // 2


def class_prime(j: int, t: int) -> int:
    """The t-th prime of partition class j."""
    if j < 1 or t < 1:
        raise BadIndex("partition class and member indices start at 1")
    return nth_prime(2 ** (j - 1) * (2 * t - 1))


@record
class AllPrimes:
    """Every prime, in increasing order."""

    json_tag = {"kind": "all"}

    def prime_at(self, n: int) -> int:
        _check_index(n)
        return nth_prime(n)


# Growing cache shared by every CongruencePrimes stream of one class,
# like arith's prime cache: (residue, modulus) -> the class's primes
# found so far, in order, and the prime iterator the scan resumes from.
_CLASS_PRIMES: dict[tuple[int, int], tuple[list[int], Iterator[int]]] = {}


@record
class CongruencePrimes:
    """Primes congruent to residue mod modulus, in increasing order.

    Requires gcd(residue, modulus) = 1 so the class contains infinitely
    many primes.
    """

    json_tag = {"kind": "congruence"}
    residue: int
    modulus: int

    def __post_init__(self) -> None:
        if _exact(self.modulus) < 2:
            raise NonPositive(f"modulus must be >= 2, got {self.modulus}")
        object.__setattr__(self, "residue", _exact(self.residue) % self.modulus)
        if math.gcd(self.residue, self.modulus) != 1:
            raise BadProgression(
                f"gcd({self.residue}, {self.modulus}) > 1, the class holds at most one prime"
            )

    def prime_at(self, n: int) -> int:
        _check_index(n)
        found, rest = _CLASS_PRIMES.setdefault(
            (self.residue, self.modulus), ([], primes())
        )
        while len(found) < n:
            p = next(rest)
            if p % self.modulus == self.residue:
                found.append(p)
        return found[n - 1]


@record
class PartitionClassPrimes:
    """One class of the canonical disjoint prime partition."""

    json_tag = {"kind": "partition-class"}
    index: int

    def __post_init__(self) -> None:
        if _exact(self.index) < 1:
            raise BadIndex(f"partition classes start at 1, got {self.index}")

    def prime_at(self, n: int) -> int:
        _check_index(n)
        return class_prime(self.index, n)


PrimeStream = Union[AllPrimes, CongruencePrimes, PartitionClassPrimes]


_STREAMS = _tagged(
    "kind",
    {
        AllPrimes: lambda o: AllPrimes(),
        CongruencePrimes: lambda o: CongruencePrimes(json_int(o["residue"]), json_int(o["modulus"])),
        PartitionClassPrimes: lambda o: PartitionClassPrimes(json_int(o["index"])),
    },
)


def stream_from_mapping(obj) -> PrimeStream:
    return _parse(obj, "kind", "prime stream", _STREAMS)


# ---------------------------------------------------------------------------
# colexicographic k-subsets of the positive integers


def colex_subset(rank: int, k: int) -> tuple[int, ...]:
    """The rank-th k-subset of {1, 2, 3, ...} in colexicographic order.

    Ranks start at 1: for k = 2 the order begins {1,2}, {1,3}, {2,3},
    {1,4}, ... Unranking uses the combinatorial number system, writing
    rank - 1 = binom(c_k - 1, k) + ... + binom(c_1 - 1, 1) with
    c_k > ... > c_1 >= 1.
    """
    if rank < 1 or k < 1:
        raise BadIndex("subset ranks and sizes start at 1")
    rest = rank - 1
    out = []
    for j in range(k, 0, -1):
        c = j
        while math.comb(c, j) <= rest:
            c += 1
        out.append(c)
        rest -= math.comb(c - 1, j)
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# rational target sequences for the dense-atom construction


@record
class CalkinWilfTargets:
    """The Calkin-Wilf enumeration of the positive rationals.

    Starts 1, 1/2, 2, 1/3, 3/2, 2/3, 3, ... and visits every positive
    rational exactly once, so its underlying set is dense in the
    positive reals.

    The n-th term is fusc(n)/fusc(n+1), where fusc is Stern's diatomic
    sequence (Calkin and Wilf, Recounting the rationals, 2000). It is
    read off the binary digits of n in O(log n) steps, instead of
    applying Newman's map q -> 1/(2*floor(q) - q + 1) n - 1 times.
    """

    json_tag = {"kind": "calkin-wilf"}

    def value_at(self, n: int) -> Fraction:
        _check_index(n)
        # (fusc(m), fusc(m+1)) for m the leading bits of n read so far:
        # appending bit 0 gives m -> 2m, appending bit 1 gives m -> 2m+1.
        a, b = 0, 1
        for bit in bin(n)[2:]:
            if bit == "1":
                a += b
            else:
                b += a
        return Fraction(a, b)


@record
class ExplicitTargets:
    """A finite list of positive rational targets."""

    json_tag = {"kind": "explicit"}
    values: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        vals = tuple(_exact(v, Fraction) for v in self.values)
        if any(v <= 0 for v in vals):
            raise NonPositive("targets must be positive rationals")
        object.__setattr__(self, "values", vals)

    def value_at(self, n: int) -> Fraction:
        _check_index(n)
        if n > len(self.values):
            raise BadIndex(f"only {len(self.values)} targets are listed")
        return self.values[n - 1]


TargetSeq = Union[CalkinWilfTargets, ExplicitTargets]


_TARGETS = _tagged(
    "kind",
    {
        CalkinWilfTargets: lambda o: CalkinWilfTargets(),
        ExplicitTargets: lambda o: ExplicitTargets(
            tuple(json_rational(v) for v in json_list(o["values"]))
        ),
    },
)


def targets_from_mapping(obj) -> TargetSeq:
    return _parse(obj, "kind", "target sequence", _TARGETS)


# ---------------------------------------------------------------------------
# family specs


@record
class PowerDenominator:
    """Generators 1/q^n for a prime q."""

    json_tag = {"family": "power-denominator"}
    q: int

    def __post_init__(self) -> None:
        if not is_prime(_exact(self.q)):
            raise NotPrime(f"{self.q} is not prime")

    def generator(self, n: int) -> Fraction:
        return Fraction(1, self.q**n)


@record
class HalfPrime:
    """Generators floor(p/2)/p over the primes in increasing order."""

    json_tag = {"family": "half-prime"}

    def generator(self, n: int) -> Fraction:
        p = nth_prime(n)
        return Fraction(p // 2, p)


@record
class TwoAdicOddPrime:
    """Generators 1/(2^n * p_n) with p_n the n-th odd prime."""

    json_tag = {"family": "two-adic-odd-prime"}

    def generator(self, n: int) -> Fraction:
        return Fraction(1, 2**n * nth_odd_prime(n))


@record
class ElementaryPrimary:
    """Generators 1/p over a prime stream."""

    json_tag = {"family": "elementary-primary"}
    primes: PrimeStream = AllPrimes()

    def generator(self, n: int) -> Fraction:
        return Fraction(1, self.primes.prime_at(n))


@record
class ElementaryKPrimary:
    """Generators 1/(p_1 ... p_k) over k-subsets of primes in colex order."""

    json_tag = {"family": "elementary-k-primary"}
    k: int

    def __post_init__(self) -> None:
        if _exact(self.k) < 1:
            raise NonPositive(f"k must be >= 1, got {self.k}")

    def generator(self, n: int) -> Fraction:
        d = 1
        for idx in colex_subset(n, self.k):
            d *= nth_prime(idx)
        return Fraction(1, d)


@record
class PartitionedKPrimary:
    """Generators over consecutive blocks of k primes: the n-th generator
    is the reciprocal of the product of primes (n-1)k+1 .. nk."""

    json_tag = {"family": "partitioned-k-primary"}
    k: int

    def __post_init__(self) -> None:
        if _exact(self.k) < 1:
            raise NonPositive(f"k must be >= 1, got {self.k}")

    def generator(self, n: int) -> Fraction:
        d = 1
        for i in range(1, self.k + 1):
            d *= nth_prime((n - 1) * self.k + i)
        return Fraction(1, d)


@record
class SumKPrimary:
    """Generators sum of 1/p_s over k-subsets S of prime indices, colex order."""

    json_tag = {"family": "sum-k-primary"}
    k: int

    def __post_init__(self) -> None:
        if _exact(self.k) < 1:
            raise NonPositive(f"k must be >= 1, got {self.k}")

    def generator(self, n: int) -> Fraction:
        return sum(
            (Fraction(1, nth_prime(idx)) for idx in colex_subset(n, self.k)),
            Fraction(0),
        )


@record
class PAdic:
    """Generators numerators(n) / p^exponents(n).

    Both sequences must be infinite (an explicit prefix needs a
    closed-form tail) and the exponents must be strictly increasing, so
    the denominators grow without bound.
    """

    json_tag = {"family": "p-adic"}
    p: int
    numerators: IntSeq
    exponents: IntSeq

    def __post_init__(self) -> None:
        if not is_prime(_exact(self.p)):
            raise NotPrime(f"{self.p} is not prime")
        for name, seq in (("numerator", self.numerators), ("exponent", self.exponents)):
            if seq.finite:
                raise NonPositive(
                    f"the {name} sequence must be infinite; give the explicit prefix a tail"
                )
        if not self.exponents.is_strictly_increasing():
            raise NonPositive("the exponent sequence must be strictly increasing")

    def generator(self, n: int) -> Fraction:
        return Fraction(self.numerators.value_at(n), self.p ** self.exponents.value_at(n))


@record
class PlusMinusPowers:
    """Interleaved generators (s - 1)/s^2 and (s + 1)/s^2 for s = p^(2^n).

    Generator 2n-1 takes the minus sign and generator 2n the plus sign
    at level n. Both reduce as written since s -+ 1 is coprime to s.
    """

    json_tag = {"family": "plus-minus-powers"}
    p: int

    def __post_init__(self) -> None:
        if not is_prime(_exact(self.p)) or self.p == 2:
            raise NotPrime(f"{self.p} is not an odd prime")

    def generator(self, n: int) -> Fraction:
        level = (n + 1) // 2
        s = self.p ** (2**level)
        return Fraction(s - 1 if n % 2 else s + 1, s * s)


@record
class Cyclic:
    """Generators r^n for a fixed positive rational r."""

    json_tag = {"family": "cyclic"}
    r: Fraction

    def __post_init__(self) -> None:
        r = _exact(self.r, Fraction)
        if r <= 0:
            raise NonPositive(f"the ratio must be positive, got {r}")
        object.__setattr__(self, "r", r)

    def generator(self, n: int) -> Fraction:
        return self.r**n


@record
class GeneralizedCyclic:
    """Generators r_i^n for a finite list of positive rationals.

    Enumeration interleaves the ratios: generator j is ratio (j-1) mod k
    raised to the power (j-1) div k + 1.
    """

    json_tag = {"family": "generalized-cyclic"}
    ratios: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        rs = tuple(_exact(r, Fraction) for r in self.ratios)
        if not rs:
            raise NonPositive("at least one ratio is required")
        if any(r <= 0 for r in rs):
            raise NonPositive("ratios must be positive")
        object.__setattr__(self, "ratios", rs)

    def generator(self, n: int) -> Fraction:
        k = len(self.ratios)
        power = (n - 1) // k + 1
        return self.ratios[(n - 1) % k] ** power


@record
class BfNotFf:
    """Generators floor(p/2)/p and (p - floor(p/2))/p over the odd primes.

    Generators 2n-1 and 2n are the complementary pair at the n-th odd
    prime; each pair sums to 1.
    """

    json_tag = {"family": "bf-not-ff"}

    def generator(self, n: int) -> Fraction:
        p = nth_odd_prime((n + 1) // 2)
        return Fraction(p // 2 if n % 2 else p - p // 2, p)


@record
class ExplicitList:
    """A finite generator list wrapped as a family."""

    json_tag = {"family": "explicit"}
    generators: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        gens = tuple(_exact(g, Fraction) for g in self.generators)
        if not gens:
            raise NonPositive("an explicit family needs at least one generator")
        if any(g <= 0 for g in gens):
            raise NonPositive("generators must be positive")
        object.__setattr__(self, "generators", gens)

    def generator(self, n: int) -> Fraction:
        if n > len(self.generators):
            raise BadIndex(
                f"index {n} exceeds the {len(self.generators)} listed generators"
            )
        return self.generators[n - 1]


FamilySpec = Union[
    PowerDenominator,
    HalfPrime,
    TwoAdicOddPrime,
    ElementaryPrimary,
    ElementaryKPrimary,
    PartitionedKPrimary,
    SumKPrimary,
    PAdic,
    PlusMinusPowers,
    Cyclic,
    GeneralizedCyclic,
    BfNotFf,
    ExplicitList,
]


_FAMILIES = _tagged(
    "family",
    {
        PowerDenominator: lambda o: PowerDenominator(json_int(o["q"])),
        HalfPrime: lambda o: HalfPrime(),
        TwoAdicOddPrime: lambda o: TwoAdicOddPrime(),
        ElementaryPrimary: lambda o: ElementaryPrimary(
            stream_from_mapping(o.get("primes", AllPrimes.json_tag))
        ),
        ElementaryKPrimary: lambda o: ElementaryKPrimary(json_int(o["k"])),
        PartitionedKPrimary: lambda o: PartitionedKPrimary(json_int(o["k"])),
        SumKPrimary: lambda o: SumKPrimary(json_int(o["k"])),
        PAdic: lambda o: PAdic(
            json_int(o["p"]),
            sequence_from_mapping(o["numerators"]),
            sequence_from_mapping(o["exponents"]),
        ),
        PlusMinusPowers: lambda o: PlusMinusPowers(json_int(o["p"])),
        Cyclic: lambda o: Cyclic(json_rational(o["r"])),
        GeneralizedCyclic: lambda o: GeneralizedCyclic(
            tuple(json_rational(r) for r in json_list(o["ratios"]))
        ),
        BfNotFf: lambda o: BfNotFf(),
        ExplicitList: lambda o: ExplicitList(
            tuple(json_rational(g) for g in json_list(o["generators"]))
        ),
    },
)


def family_from_mapping(obj) -> FamilySpec:
    """Parse the JSON form of a family spec."""
    return _parse(obj, "family", "family", _FAMILIES)


# ---------------------------------------------------------------------------
# evaluation and truncation


def generator_at(spec: FamilySpec, n: int) -> Fraction:
    """The n-th generator of the family, n >= 1."""
    n = n if type(n) is int else _exact(n)
    if n < 1:
        raise BadIndex(f"generator indices start at 1, got {n}")
    return spec.generator(n)


def truncate(spec: FamilySpec, n_generators: int) -> FgMonoid:
    """The monoid generated by the family's first n_generators members.

    Zero generators give the trivial monoid.
    """
    if _exact(n_generators) < 0:
        raise NonPositive(f"truncation size must be >= 0, got {n_generators}")
    return FgMonoid(tuple(generator_at(spec, n) for n in range(1, n_generators + 1)))


def denominator_support(spec: FamilySpec):
    """The primes dividing element denominators, if known.

    Returns a tuple of primes for a finite support, the prime stream of
    an elementary-primary family, or None when the family does not
    expose a usable support predicate.
    """
    if isinstance(spec, PowerDenominator):
        return (spec.q,)
    if isinstance(spec, (PAdic, PlusMinusPowers)):
        return (spec.p,)
    if isinstance(spec, ElementaryPrimary):
        return spec.primes
    return None


# ---------------------------------------------------------------------------
# classification


_RULES = {
    "generator-infimum-zero": "the generator sequence has infimum 0, so 0 is a limit point of the monoid",
    "generator-infimum-positive": "the generator infimum is positive, so 0 is not a limit point",
    "every-generator-decomposes": "each generator splits exactly into a sum of later generators, leaving no atoms",
    "antimatter-excludes-atoms": "a nontrivial monoid without atoms is neither atomic nor hereditarily atomic",
    "atomic-excludes-antimatter": "a nontrivial atomic monoid has atoms",
    "hereditary-implies-atomic": "hereditary atomicity covers the monoid itself",
    "not-dense-hereditarily-atomic": "a Puiseux monoid that is not dense is hereditarily atomic (cited result; not re-derived)",
    "primary-denominators-hereditary": "all generators have single-prime denominators, and primary monoids are hereditarily atomic (cited result; not re-derived)",
    "all-generators-are-atoms": "the generators are exactly the atoms, so the monoid is atomic (cited result; not re-derived)",
    "power-of-two-submonoid-not-atomic": "the reciprocals of the powers of two form a non-atomic submonoid, via 1/2^n = p_n * (1/(2^n p_n)) (cited result; identity checked exactly)",
    "k-subset-generators-decompose": "every k-subset generator decomposes through two larger primes (cited result; witnesses checked exactly at small scale)",
    "bounded-numerators-not-atomic": "bounded numerators leave finitely many atoms while the monoid is not finitely generated (cited result; not re-derived)",
    "prime-power-numerators-atomic": "prime-power numerators, decreasing generators, and numerators tending to infinity force atomicity (cited result; not re-derived)",
    "numerators-bounded": "the family is generated by rationals with bounded numerators",
    "atoms-have-unbounded-numerators": "every generating set contains every atom, and the atoms' numerators are unbounded (atom set per cited result)",
    "denominator-support-finite": "only finitely many primes divide denominators of elements",
    "denominator-support-infinite": "infinitely many primes divide denominators of elements",
    "finitely-generated-atomic": "a finitely generated Puiseux monoid is atomic with the minimal generators as atoms",
    "cyclic-ratio-atomic": "a ratio with numerator at least 2 generates an atomic power monoid (cited result; not re-derived)",
    "cyclic-hereditarily-atomic": "atomic power monoids of a single ratio are hereditarily atomic (cited result; not re-derived)",
    "shared-numerator-prime-embedding": "a common prime divisor of the numerators embeds the monoid in a hereditarily atomic power monoid (cited result; coefficients checked exactly)",
}

_ASSERTED = {
    "not-dense-hereditarily-atomic",
    "primary-denominators-hereditary",
    "all-generators-are-atoms",
    "power-of-two-submonoid-not-atomic",
    "k-subset-generators-decompose",
    "bounded-numerators-not-atomic",
    "prime-power-numerators-atomic",
    "atoms-have-unbounded-numerators",
    "cyclic-ratio-atomic",
    "cyclic-hereditarily-atomic",
    "shared-numerator-prime-embedding",
}

def rule_statement(rule_id: str) -> str:
    return _RULES[rule_id]


@record
class ClassificationReport:
    """Per-property verdicts with one justification line per decided field."""

    dense: str
    atomic: str
    antimatter: str
    strongly_bounded: str
    finite_puiseux: str
    hereditarily_atomic: str
    justification: tuple[str, ...]


class _Report:
    def __init__(self) -> None:
        # Every field of ClassificationReport but the last, justification.
        self.verdicts = {f: "unknown" for f in ClassificationReport.__match_args__[:-1]}
        self.lines: list[str] = []

    def set(self, field: str, verdict: str, rule: str) -> None:
        if self.verdicts[field] != "unknown":
            return
        self.verdicts[field] = verdict
        tag = " [asserted]" if rule in _ASSERTED else ""
        self.lines.append(f"{field}={verdict}: {rule}{tag}")

    def close(self) -> ClassificationReport:
        # Definitional consequences, run to a fixed point. Only fills
        # fields still unknown; direct verdicts always win.
        changed = True
        while changed:
            changed = False
            v = self.verdicts
            if v["dense"] == "no" and v["hereditarily_atomic"] == "unknown":
                self.set("hereditarily_atomic", "yes", "not-dense-hereditarily-atomic")
                changed = True
            if v["hereditarily_atomic"] == "yes" and v["atomic"] == "unknown":
                self.set("atomic", "yes", "hereditary-implies-atomic")
                changed = True
            if v["atomic"] == "no" and v["hereditarily_atomic"] == "unknown":
                self.set("hereditarily_atomic", "no", "hereditary-implies-atomic")
                changed = True
            if v["atomic"] == "yes" and v["antimatter"] == "unknown":
                self.set("antimatter", "no", "atomic-excludes-antimatter")
                changed = True
            if v["antimatter"] == "yes" and v["atomic"] == "unknown":
                self.set("atomic", "no", "antimatter-excludes-atoms")
                changed = True
        return ClassificationReport(justification=tuple(self.lines), **self.verdicts)


def classify(spec: FamilySpec) -> ClassificationReport:
    """Dispatch-table classification of a family spec.

    Every verdict is either computed exactly from the closed form or
    taken from a cited structural result (tagged "[asserted]" in the
    justification). Pairs the table cannot justify remain "unknown";
    the table never guesses.
    """
    r = _Report()

    if isinstance(spec, PowerDenominator):
        r.set("dense", "yes", "generator-infimum-zero")
        r.set("antimatter", "yes", "every-generator-decomposes")
        r.set("strongly_bounded", "yes", "numerators-bounded")
        r.set("finite_puiseux", "yes", "denominator-support-finite")

    elif isinstance(spec, HalfPrime):
        r.set("dense", "no", "generator-infimum-positive")
        r.set("strongly_bounded", "no", "atoms-have-unbounded-numerators")
        r.set("finite_puiseux", "no", "denominator-support-infinite")

    elif isinstance(spec, TwoAdicOddPrime):
        r.set("dense", "yes", "generator-infimum-zero")
        r.set("atomic", "yes", "all-generators-are-atoms")
        r.set("hereditarily_atomic", "no", "power-of-two-submonoid-not-atomic")
        r.set("strongly_bounded", "yes", "numerators-bounded")
        r.set("finite_puiseux", "no", "denominator-support-infinite")

    elif isinstance(spec, ElementaryPrimary) or (
        isinstance(spec, (ElementaryKPrimary, PartitionedKPrimary, SumKPrimary))
        and spec.k == 1
    ):
        r.set("dense", "yes", "generator-infimum-zero")
        r.set("hereditarily_atomic", "yes", "primary-denominators-hereditary")
        r.set("strongly_bounded", "yes", "numerators-bounded")
        r.set("finite_puiseux", "no", "denominator-support-infinite")

    elif isinstance(spec, ElementaryKPrimary):
        r.set("dense", "yes", "generator-infimum-zero")
        r.set("antimatter", "yes", "k-subset-generators-decompose")
        r.set("strongly_bounded", "yes", "numerators-bounded")
        r.set("finite_puiseux", "no", "denominator-support-infinite")

    elif isinstance(spec, PartitionedKPrimary):
        r.set("dense", "yes", "generator-infimum-zero")
        r.set("atomic", "yes", "all-generators-are-atoms")
        r.set("strongly_bounded", "yes", "numerators-bounded")
        r.set("finite_puiseux", "no", "denominator-support-infinite")

    elif isinstance(spec, SumKPrimary):
        r.set("dense", "yes", "generator-infimum-zero")
        r.set("atomic", "yes", "all-generators-are-atoms")
        r.set("strongly_bounded", "no", "atoms-have-unbounded-numerators")
        r.set("finite_puiseux", "no", "denominator-support-infinite")

    elif isinstance(spec, PAdic):
        r.set("finite_puiseux", "yes", "denominator-support-finite")
        nums = spec.numerators
        if not nums.tends_to_infinity():
            r.set("dense", "yes", "generator-infimum-zero")
            r.set("strongly_bounded", "yes", "numerators-bounded")
            if nums.coprime_to(spec.p):
                r.set("atomic", "no", "bounded-numerators-not-atomic")
        else:
            base = nums.prime_power_base()
            decreasing = _padic_decreasing_certified(spec)
            if decreasing:
                r.set("dense", "yes", "generator-infimum-zero")
            if base not in (None, 1) and base != spec.p and decreasing:
                r.set("atomic", "yes", "prime-power-numerators-atomic")
                r.set("strongly_bounded", "no", "atoms-have-unbounded-numerators")

    elif isinstance(spec, PlusMinusPowers):
        r.set("dense", "yes", "generator-infimum-zero")
        r.set("antimatter", "yes", "every-generator-decomposes")
        r.set("finite_puiseux", "yes", "denominator-support-finite")

    elif isinstance(spec, Cyclic):
        r.set("finite_puiseux", "yes", "denominator-support-finite")
        a, b = spec.r.numerator, spec.r.denominator
        if spec.r == 1:
            r.set("dense", "no", "generator-infimum-positive")
            r.set("atomic", "yes", "finitely-generated-atomic")
            r.set("strongly_bounded", "yes", "numerators-bounded")
        elif a == 1:
            r.set("dense", "yes", "generator-infimum-zero")
            r.set("antimatter", "yes", "every-generator-decomposes")
            r.set("strongly_bounded", "yes", "numerators-bounded")
        elif b == 1:
            # r^n = r^(n-1) * r, so the monoid is r times the naturals.
            r.set("dense", "no", "generator-infimum-positive")
            r.set("atomic", "yes", "finitely-generated-atomic")
            r.set("strongly_bounded", "yes", "numerators-bounded")
        else:
            if spec.r < 1:
                r.set("dense", "yes", "generator-infimum-zero")
            else:
                r.set("dense", "no", "generator-infimum-positive")
            r.set("atomic", "yes", "cyclic-ratio-atomic")
            r.set("hereditarily_atomic", "yes", "cyclic-hereditarily-atomic")
            r.set("strongly_bounded", "no", "atoms-have-unbounded-numerators")

    elif isinstance(spec, GeneralizedCyclic):
        r.set("finite_puiseux", "yes", "denominator-support-finite")
        if min(spec.ratios) < 1:
            r.set("dense", "yes", "generator-infimum-zero")
        else:
            r.set("dense", "no", "generator-infimum-positive")
        numerator_gcd = math.gcd(*(rr.numerator for rr in spec.ratios))
        if numerator_gcd != 1:
            r.set("hereditarily_atomic", "yes", "shared-numerator-prime-embedding")
        elif all(rr.numerator == 1 for rr in spec.ratios):
            r.set("strongly_bounded", "yes", "numerators-bounded")
            if all(rr == 1 for rr in spec.ratios):
                r.set("atomic", "yes", "finitely-generated-atomic")
            else:
                r.set("antimatter", "yes", "every-generator-decomposes")

    elif isinstance(spec, BfNotFf):
        # 2/3 = 1/3 + 1/3, so unlike the other listed families not every
        # generator is an atom; atomicity comes from the prime denominators.
        r.set("dense", "no", "generator-infimum-positive")
        r.set("hereditarily_atomic", "yes", "primary-denominators-hereditary")
        r.set("strongly_bounded", "no", "atoms-have-unbounded-numerators")
        r.set("finite_puiseux", "no", "denominator-support-infinite")

    elif isinstance(spec, ExplicitList):
        r.set("dense", "no", "generator-infimum-positive")
        r.set("atomic", "yes", "finitely-generated-atomic")
        r.set("strongly_bounded", "yes", "numerators-bounded")
        r.set("finite_puiseux", "yes", "denominator-support-finite")

    else:
        raise ParseError(f"not a family spec: {spec!r}")

    return r.close()


def _padic_decreasing_certified(spec: PAdic) -> bool:
    """Whether the generator sequence can be certified strictly decreasing.

    Checks exact values up to a horizon past both listed prefixes, then
    bounds the tails: it suffices that the numerator ratio stays below
    p ** (smallest exponent step). The power comparison is clamped so
    astronomically large exponent steps never materialize.
    """
    nums, exps = spec.numerators, spec.exponents
    horizon = max(len(nums.values) + 1, len(exps.values) + 1, 2)
    for n in range(1, horizon + 1):
        if spec.generator(n + 1) >= spec.generator(n):
            return False
    # From the horizon on both sequences follow their tails. A geometric
    # or affine tail's ratio never rises and its step never falls, so the
    # transition at the horizon bounds every later one exactly.
    ratio = Fraction(nums.value_at(horizon + 1), nums.value_at(horizon))
    step = exps.value_at(horizon + 1) - exps.value_at(horizon)
    if step < 1:
        return False
    return ratio < Fraction(spec.p) ** min(step, 64)
