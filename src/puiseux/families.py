"""Closed-form families of Puiseux monoids and their classification.

A family spec is a small immutable description of an infinite (or, for
the explicit escape hatch, finite) generating sequence of positive
rationals. Specs can be evaluated pointwise, truncated to a concrete
finitely generated monoid, serialized to JSON, and classified.

Each family record gives its rows and its support. rows() are its
verdicts as (field, verdict, rule) rows. support() is the primes
dividing its elements' denominators, a tuple of primes of unbounded
exponent or a prime stream, or None, as for every finitely generated
spec. Classification is a table, not a theorem prover: each verdict is
justified either by exact closed-form reasoning (generator infimum,
numerator bounds, denominator supports, explicit decomposition
identities) or by a cited structural result that the code does not
re-derive. A verdict whose rule statement says "cited result" is tagged
"[asserted]" in the justification list. Any family/field pair the table
cannot justify stays "unknown".
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction
from typing import Union

from .arith import (
    _check_prime_position,
    _exact,
    _prime_power_base_int,
    cached_value,
    is_prime,
    json_int,
    nth_odd_prime,
    nth_prime,
    parse_rational,
    prime_factors,
    prime_in_progression,
    prime_stride,
    record,
)
from .errors import BadIndex, BadProgression, NonPositive, NotFoundWithinLimit, NotPrime, ParseError
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
        value is 1, None otherwise. Where is_prime cannot decide whether
        a value's root is prime, its NotFoundWithinLimit is raised,
        unless the decided values already give None."""
        if self.slope:
            return None
        base, undecided = 1, None
        # Past the listed values, (scale or offset) * ratio^n: one is 0.
        for v in (self.scale or self.offset or 1, self.ratio, *self.values):
            try:
                base = _combine_bases(base, _prime_power_base_int(v))
            except NotFoundWithinLimit as refusal:
                undecided = refusal
            if base is None:
                return None
        if undecided:
            raise undecided
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


def _check_count(count: int) -> None:
    if _exact(count) < 0:
        raise NonPositive(f"the count must be >= 0, got {count}")


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
    """Build what a JSON object describes: table[obj[tag]] is (fields,
    build), and build(obj) builds it.

    The builders read obj's fields with json_int, json_rational and
    json_list; a field they find missing, and any key other than tag
    and fields, is reported as a ParseError.
    """
    if not isinstance(obj, dict) or tag not in obj:
        raise ParseError(f"a {what} must be an object with a {tag!r}, got {obj!r}")
    name = obj[tag]
    if not isinstance(name, str) or name not in table:
        raise ParseError(f"unknown {what} {name!r}")
    fields, build = table[name]
    for key in obj:
        if key != tag and key not in fields:
            raise ParseError(f"{what} {name!r} has no field {key!r}")
    try:
        return build(obj)
    except KeyError as missing:
        raise ParseError(f"{what} {name!r} is missing field {missing}") from None


def sequence_from_mapping(obj) -> IntSeq:
    """Parse the JSON form of a closed-form integer sequence."""
    return _parse(obj, "kind", "sequence", _SEQUENCES)


def stream_from_mapping(obj) -> PrimeStream:
    return _parse(obj, "kind", "prime stream", _STREAMS)


def targets_from_mapping(obj) -> TargetSeq:
    return _parse(obj, "kind", "target sequence", _TARGETS)


def family_from_mapping(obj) -> FamilySpec:
    """Parse the JSON form of a family spec."""
    return _parse(obj, "family", "family", _FAMILIES)


# The reader of each field annotation of the tagged records. _tagged
# looks them up as it builds a table, so an annotation missing here
# fails at import.
_READERS = {
    "int": json_int,
    "Fraction": json_rational,
    "tuple[Fraction, ...]": lambda value: tuple(json_rational(v) for v in json_list(value)),
    "IntSeq": sequence_from_mapping,
    "PrimeStream": stream_from_mapping,
}


def _tagged(tag: str, union) -> dict:
    """A _parse table over the record classes of union, each under the
    value its json_tag gives tag.

    A class is built from the fields its as_mapping() writes, in order,
    each read by the reader of its annotation. A field with a class
    default may be left out; a key that is not a field is refused.
    """
    return {cls.json_tag[tag]: _builder(cls) for cls in union.__args__}


def _builder(cls):
    fields = [
        (name, _READERS[kind], name in cls.__dict__)
        for name, kind in cls.__dict__.get("__annotations__", {}).items()
    ]

    def build(obj):
        return cls(**{name: read(obj[name]) for name, read, default in fields if not default or name in obj})

    return tuple(name for name, _, _ in fields), build


_SEQUENCES = {
    "constant": (("value",), lambda o: GeometricSeq(json_int(o["value"]), 1)),
    "power": (("base",), lambda o: GeometricSeq(1, json_int(o["base"]))),
    "geometric": (("scale", "ratio"), lambda o: GeometricSeq(json_int(o["scale"]), json_int(o["ratio"]))),
    "affine-exponent": (("a", "b"), lambda o: AffineSeq(json_int(o["a"]), json_int(o["b"]))),
    "explicit": (
        ("values", "then"),
        lambda o: ExplicitSeq(
            tuple(json_int(v) for v in json_list(o["values"])),
            None if o.get("then") is None else sequence_from_mapping(o["then"]),
        ),
    ),
}


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


def class_primes(j: int, count: int) -> list[int]:
    """The first count primes of partition class j, in order: the primes
    at positions 2^(j-1) * (2t - 1) for t = 1..count, read as one stride
    of the prime cache instead of count nth_prime calls."""
    if j < 1:
        raise BadIndex(f"partition classes start at 1, got {j}")
    _check_count(count)
    return prime_stride(2 ** (j - 1), 2**j, count)


@record
class AllPrimes:
    """Every prime, in increasing order."""

    json_tag = {"kind": "all"}

    def prime_at(self, n: int) -> int:
        _check_index(n)
        return nth_prime(n)


# Growing cache shared by every CongruencePrimes stream of one class,
# like arith's prime cache: (residue, modulus) -> the class's primes
# found so far, in order.
_CLASS_PRIMES: dict[tuple[int, int], list[int]] = {}

# The most terms of residue + k*modulus that CongruencePrimes tests past
# one class prime in search of the next.
_CLASS_STEP_BOUND = 100_000


@record
class CongruencePrimes:
    """Primes congruent to residue mod modulus, in increasing order.

    Requires gcd(residue, modulus) = 1 so the class contains infinitely
    many primes.

    prime_at(n) reads the n-th from a list shared by every stream of
    the class, found by stepping through residue + k*modulus and testing
    each term with is_prime, so a sparse class costs its own terms, not
    every prime below them. Between one class prime and the next at most
    _CLASS_STEP_BOUND terms are tested; past that NotFoundWithinLimit
    names the bound. A position past the prime cache's bound is
    refused so before any term is tested: the class's n-th prime is at
    least the n-th prime, which nth_prime refuses past that bound.
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

    @cached_value
    def _found(self) -> list[int]:
        return _CLASS_PRIMES.setdefault((self.residue, self.modulus), [])

    def prime_at(self, n: int) -> int:
        _check_index(n)
        found = self._found
        while len(found) < n:
            _check_prime_position(n, "class prime position")
            if not found and is_prime(self.residue):
                found.append(self.residue)
            else:
                last = found[-1] if found else self.residue
                found.append(prime_in_progression(last, self.modulus, _CLASS_STEP_BOUND)[1])
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


_STREAMS = _tagged("kind", PrimeStream)


# ---------------------------------------------------------------------------
# colexicographic k-subsets of the positive integers


def colex_subset(rank: int, k: int) -> tuple[int, ...]:
    """The rank-th k-subset of {1, 2, 3, ...} in colexicographic order.

    Ranks start at 1: for k = 2 the order begins {1,2}, {1,3}, {2,3},
    {1,4}, ... Unranking uses the combinatorial number system, writing
    rank - 1 = binom(c_k - 1, k) + ... + binom(c_1 - 1, 1) with
    c_k > ... > c_1 >= 1.

    Each c_j is the least c with binom(c, j) > rest, found by doubling
    c, then bisecting: O(k log rank) binomials.
    """
    if rank < 1 or k < 1:
        raise BadIndex("subset ranks and sizes start at 1")
    rest = rank - 1
    out = []
    for j in range(k, 0, -1):
        # binom(lo, j) <= rest < binom(hi, j); binom(j - 1, j) = 0.
        lo, hi = j - 1, j
        while math.comb(hi, j) <= rest:
            lo, hi = hi, 2 * hi
        while hi - lo > 1:
            mid = (lo + hi) // 2
            if math.comb(mid, j) <= rest:
                lo = mid
            else:
                hi = mid
        out.append(hi)
        rest -= math.comb(lo, j)
    return tuple(reversed(out))


# ---------------------------------------------------------------------------
# rational target sequences for the dense-atom construction


# The Calkin-Wilf sequence's terms found so far, shared by every
# CalkinWilfTargets: first(count) grows it to count terms if shorter,
# then copies a slice.
_CALKIN_WILF: list[Fraction] = [Fraction(1)]


@record
class CalkinWilfTargets:
    """The Calkin-Wilf enumeration of the positive rationals.

    Starts 1, 1/2, 2, 1/3, 3/2, 2/3, 3, ... and visits every positive
    rational exactly once, so its underlying set is dense in the
    positive reals.

    The n-th term is fusc(n)/fusc(n+1), where fusc is Stern's diatomic
    sequence (Calkin and Wilf, Recounting the rationals, 2000). value_at
    reads it off the binary digits of n in O(log n) steps, instead of
    applying Newman's map q -> 1/(2*floor(q) - q + 1) n - 1 times.
    first(count) returns a fresh list of the first count terms, sliced
    from a prefix shared by every instance and grown, one step of
    Newman's map per term, only past the longest count asked for so far.
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

    def first(self, count: int) -> list[Fraction]:
        _check_count(count)
        terms = _CALKIN_WILF
        if count > len(terms):
            # q = a/b in lowest terms steps to 1/(2*floor(q) - q + 1),
            # which is b/((2*floor(q) + 1)*b - a), again in lowest terms.
            a, b = terms[-1].numerator, terms[-1].denominator
            for _ in range(count - len(terms)):
                a, b = b, (2 * (a // b) + 1) * b - a
                terms.append(Fraction(a, b))
        return terms[:count]


@record
class ExplicitTargets:
    """A finite list of positive rational targets. first(count) lists the
    first count of them, and, as value_at, raises BadIndex past the
    end of the list."""

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

    def first(self, count: int) -> list[Fraction]:
        _check_count(count)
        if count > len(self.values):
            raise BadIndex(f"only {len(self.values)} targets are listed")
        return list(self.values[:count])


TargetSeq = Union[CalkinWilfTargets, ExplicitTargets]


_TARGETS = _tagged("kind", TargetSeq)


# ---------------------------------------------------------------------------
# family specs


# The (field, verdict, rule) rows of the classification table.
_DENSE = ("dense", "yes", "generator-infimum-zero")
_NOT_DENSE = ("dense", "no", "generator-infimum-positive")
_BOUNDED = ("strongly_bounded", "yes", "numerators-bounded")
_UNBOUNDED = ("strongly_bounded", "no", "atoms-have-unbounded-numerators")
_FINITE = ("finite_puiseux", "yes", "denominator-support-finite")
_INFINITE = ("finite_puiseux", "no", "denominator-support-infinite")
_DECOMPOSES = ("antimatter", "yes", "every-generator-decomposes")
_K_SUBSETS_DECOMPOSE = ("antimatter", "yes", "k-subset-generators-decompose")
_GENERATORS_ATOMS = ("atomic", "yes", "all-generators-are-atoms")
_FG_ATOMIC = ("atomic", "yes", "finitely-generated-atomic")
_CYCLIC_ATOMIC = ("atomic", "yes", "cyclic-ratio-atomic")
_PRIMARY_HEREDITARY = ("hereditarily_atomic", "yes", "primary-denominators-hereditary")
_CYCLIC_HEREDITARY = ("hereditarily_atomic", "yes", "cyclic-hereditarily-atomic")
_TWO_POWERS_NOT_HEREDITARY = ("hereditarily_atomic", "no", "power-of-two-submonoid-not-atomic")


def _always(value):
    """A method that returns value whatever the record's parameters."""
    return lambda spec: value


@record
class PowerDenominator:
    """Generators 1/q^n for a prime q."""

    json_tag = {"family": "power-denominator"}
    q: int

    rows = _always((_DENSE, _DECOMPOSES, _BOUNDED, _FINITE))

    def __post_init__(self) -> None:
        if not is_prime(_exact(self.q)):
            raise NotPrime(f"{self.q} is not prime")

    def generator(self, n: int) -> Fraction:
        return Fraction(1, self.q**n)

    def support(self) -> tuple[int, ...]:
        return (self.q,)


@record
class HalfPrime:
    """Generators floor(p/2)/p over the primes in increasing order."""

    json_tag = {"family": "half-prime"}
    rows = _always((_NOT_DENSE, _UNBOUNDED, _INFINITE))
    support = _always(None)

    def generator(self, n: int) -> Fraction:
        p = nth_prime(n)
        return Fraction(p // 2, p)


@record
class TwoAdicOddPrime:
    """Generators 1/(2^n * p_n) with p_n the n-th odd prime."""

    json_tag = {"family": "two-adic-odd-prime"}
    rows = _always((_DENSE, _GENERATORS_ATOMS, _TWO_POWERS_NOT_HEREDITARY, _BOUNDED, _INFINITE))
    support = _always(None)

    def generator(self, n: int) -> Fraction:
        return Fraction(1, 2**n * nth_odd_prime(n))


@record
class ElementaryPrimary:
    """Generators 1/p over a prime stream."""

    json_tag = {"family": "elementary-primary"}
    primes: PrimeStream = AllPrimes()

    rows = _always((_DENSE, _PRIMARY_HEREDITARY, _BOUNDED, _INFINITE))

    def generator(self, n: int) -> Fraction:
        return Fraction(1, self.primes.prime_at(n))

    def support(self) -> PrimeStream:
        return self.primes


def _check_k(spec) -> None:
    """The __post_init__ of the k-primary families: k >= 1."""
    if _exact(spec.k) < 1:
        raise NonPositive(f"k must be >= 1, got {spec.k}")


def _k_primary_rows(*rows):
    """The rows() of a k-primary family: rows, but ElementaryPrimary's
    for k = 1, where the generators are 1/p over every prime."""
    return lambda spec: ElementaryPrimary.rows(spec) if spec.k == 1 else rows


@record
class ElementaryKPrimary:
    """Generators 1/(p_1 ... p_k) over k-subsets of primes in colex order."""

    json_tag = {"family": "elementary-k-primary"}
    k: int

    __post_init__ = _check_k
    rows = _k_primary_rows(_DENSE, _K_SUBSETS_DECOMPOSE, _BOUNDED, _INFINITE)
    support = _always(None)

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

    __post_init__ = _check_k
    rows = _k_primary_rows(_DENSE, _GENERATORS_ATOMS, _BOUNDED, _INFINITE)
    support = _always(None)

    def generator(self, n: int) -> Fraction:
        return Fraction(1, math.prod(prime_stride((n - 1) * self.k + 1, 1, self.k)))


@record
class SumKPrimary:
    """Generators sum of 1/p_s over k-subsets S of prime indices, colex order."""

    json_tag = {"family": "sum-k-primary"}
    k: int

    __post_init__ = _check_k
    rows = _k_primary_rows(_DENSE, _GENERATORS_ATOMS, _UNBOUNDED, _INFINITE)
    support = _always(None)

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

    def rows(self) -> list[tuple[str, str, str]]:
        nums = self.numerators
        if not nums.tends_to_infinity():
            rows = [_FINITE, _DENSE, _BOUNDED]
            if nums.coprime_to(self.p):
                rows.append(("atomic", "no", "bounded-numerators-not-atomic"))
            return rows
        if not _padic_decreasing_certified(self):
            return [_FINITE]
        try:
            base = nums.prime_power_base()
        except NotFoundWithinLimit:
            base = None  # undecided, so no verdict rests on it
        if base in (None, 1, self.p):
            return [_FINITE, _DENSE]
        return [_FINITE, _DENSE, ("atomic", "yes", "prime-power-numerators-atomic"), _UNBOUNDED]

    def support(self) -> tuple[int, ...] | None:
        # A numerator divisible by p may cancel the denominator's powers
        # of p: 3^n / 3^n is 1 for every n.
        return (self.p,) if self.numerators.coprime_to(self.p) else None


@record
class PlusMinusPowers:
    """Interleaved generators (s - 1)/s^2 and (s + 1)/s^2 for s = p^(2^n).

    Generator 2n-1 takes the minus sign and generator 2n the plus sign
    at level n. Both reduce as written since s -+ 1 is coprime to s.
    """

    json_tag = {"family": "plus-minus-powers"}
    p: int

    rows = _always((_DENSE, _DECOMPOSES, _FINITE))

    def __post_init__(self) -> None:
        if not is_prime(_exact(self.p)) or self.p == 2:
            raise NotPrime(f"{self.p} is not an odd prime")

    def generator(self, n: int) -> Fraction:
        level = (n + 1) // 2
        s = self.p ** (2**level)
        return Fraction(s - 1 if n % 2 else s + 1, s * s)

    def support(self) -> tuple[int, ...]:
        return (self.p,)


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

    def rows(self) -> list[tuple[str, str, str]]:
        a, b = self.r.numerator, self.r.denominator
        if b == 1:
            # r^n = r^(n-1) * r, so the monoid is r times the naturals.
            return [_FINITE, _NOT_DENSE, _FG_ATOMIC, _BOUNDED]
        if a == 1:
            return [_FINITE, _DENSE, _DECOMPOSES, _BOUNDED]
        dense = _DENSE if self.r < 1 else _NOT_DENSE
        return [_FINITE, dense, _CYCLIC_ATOMIC, _CYCLIC_HEREDITARY, _UNBOUNDED]

    def support(self) -> tuple[int, ...] | None:
        # Not (): that would certify Cyclic(2) and Cyclic(3), both
        # isomorphic to the naturals, as sharing no prime.
        return prime_factors(self.r.denominator) or None


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

    def rows(self) -> list[tuple[str, str, str]]:
        rows = [_FINITE, _DENSE if min(self.ratios) < 1 else _NOT_DENSE]
        if math.gcd(*(rr.numerator for rr in self.ratios)) != 1:
            rows.append(("hereditarily_atomic", "yes", "shared-numerator-prime-embedding"))
        elif all(rr.numerator == 1 for rr in self.ratios):
            rows += [_BOUNDED, _FG_ATOMIC if all(rr == 1 for rr in self.ratios) else _DECOMPOSES]
        return rows

    def support(self) -> tuple[int, ...] | None:
        return prime_factors(math.lcm(*(r.denominator for r in self.ratios))) or None


@record
class BfNotFf:
    """Generators floor(p/2)/p and (p - floor(p/2))/p over the odd primes.

    Generators 2n-1 and 2n are the complementary pair at the n-th odd
    prime; each pair sums to 1.
    """

    json_tag = {"family": "bf-not-ff"}
    # 2/3 = 1/3 + 1/3, so unlike the other listed families not every
    # generator is an atom; atomicity comes from the prime denominators.
    rows = _always((_NOT_DENSE, _PRIMARY_HEREDITARY, _UNBOUNDED, _INFINITE))
    support = _always(None)

    def generator(self, n: int) -> Fraction:
        p = nth_odd_prime((n + 1) // 2)
        return Fraction(p // 2 if n % 2 else p - p // 2, p)


@record
class ExplicitList:
    """A finite generator list wrapped as a family."""

    json_tag = {"family": "explicit"}
    generators: tuple[Fraction, ...]

    rows = _always((_NOT_DENSE, _FG_ATOMIC, _BOUNDED, _FINITE))
    support = _always(None)

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


_FAMILIES = _tagged("family", FamilySpec)


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

# Rules whose statement cites a result; their verdicts are tagged "[asserted]".
_ASSERTED = frozenset(rule for rule, text in _RULES.items() if "cited result" in text)


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


# (field, verdict, implied field, its verdict, rule): a field with that
# verdict gives the implied field its verdict while it is unknown. No
# row gives the verdict an earlier row reads, so one pass in this order
# reaches every consequence.
_IMPLIED = (
    ("dense", "no", "hereditarily_atomic", "yes", "not-dense-hereditarily-atomic"),
    ("hereditarily_atomic", "yes", "atomic", "yes", "hereditary-implies-atomic"),
    ("antimatter", "yes", "atomic", "no", "antimatter-excludes-atoms"),
    ("atomic", "no", "hereditarily_atomic", "no", "hereditary-implies-atomic"),
    ("atomic", "yes", "antimatter", "no", "atomic-excludes-antimatter"),
)


def _decide(rows) -> ClassificationReport:
    """The report of the (field, verdict, rule) rows, set in order with
    the first verdict for a field winning, then of the _IMPLIED rows
    whose premise holds by the time the pass reaches them."""
    # Every field of ClassificationReport but the last, justification.
    verdicts = dict.fromkeys(ClassificationReport.__match_args__[:-1], "unknown")
    lines = []
    implied = ((to, verdict, rule) for field, given, to, verdict, rule in _IMPLIED if verdicts[field] == given)
    for field, verdict, rule in itertools.chain(rows, implied):
        if verdicts[field] == "unknown":
            verdicts[field] = verdict
            tag = " [asserted]" if rule in _ASSERTED else ""
            lines.append(f"{field}={verdict}: {rule}{tag}")
    return ClassificationReport(justification=tuple(lines), **verdicts)


def classify(spec: FamilySpec) -> ClassificationReport:
    """Table classification of a family spec, from the rows its record
    gives. The table never guesses."""
    return _decide(spec.rows())


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
