"""Constructive witnesses: approximations, dense atom monoids, antimatter
decompositions, truncation atom checks, and non-isomorphism certificates.

Everything here returns exact data that a reader (or the verifier) can
recheck by rational arithmetic alone. Searches are bounded and report
their bounds; nothing is ever rounded.
"""

from __future__ import annotations

import math
from fractions import Fraction

from .arith import (
    _exact,
    format_rational,
    is_prime,
    nth_prime,
    prime_in_progression,
    prime_index,
    record,
)
from .errors import (
    HypothesisViolated,
    NonPositive,
    NotDense,
    NotFoundWithinLimit,
    NotPrime,
    BadIndex,
)
from .families import (
    AllPrimes,
    CalkinWilfTargets,
    CongruencePrimes,
    FamilySpec,
    PAdic,
    PartitionClassPrimes,
    SumKPrimary,
    TargetSeq,
    class_primes,
    classify,
    generator_at,
    partition_class_of_index,
    truncate,
)
from .monoid import Factorization, FgMonoid

DEFAULT_SCAN_LIMIT = 10**6


# ---------------------------------------------------------------------------
# approximation inside a dense family


@record
class Approximation:
    """A member m * g of the monoid with 0 < target - m * g < eps."""

    value: Fraction
    generator_index: int
    generator: Fraction
    multiplier: int


def approximate(
    spec: FamilySpec,
    target: Fraction,
    eps: Fraction,
    scan_limit: int = DEFAULT_SCAN_LIMIT,
) -> Approximation:
    """Approach target from below within eps using one small generator.

    Scans the family in enumeration order for the first generator below
    both the target and eps, then takes the largest multiple that stays
    strictly under the target. Only families classified dense are
    accepted; the gap is always strictly between 0 and eps.
    """
    target = _exact(target, Fraction)
    eps = _exact(eps, Fraction)
    if target <= 0 or eps <= 0:
        raise NonPositive("the target and tolerance must be positive")
    if classify(spec).dense != "yes":
        raise NotDense("approximation needs a family classified dense")
    cutoff = min(target, eps)
    for n in range(1, scan_limit + 1):
        g = generator_at(spec, n)
        if g < cutoff:
            multiplier = -((-target) // g) - 1  # largest m with m * g < target
            value = multiplier * g
            return Approximation(value, n, g, int(multiplier))
    raise NotFoundWithinLimit(
        f"no generator below {cutoff} among the first {scan_limit}"
    )


# ---------------------------------------------------------------------------
# dense families of atomic monoids with prescribed atoms


@record
class DenseAtomEntry:
    """One constructed atom m / p^e within 1/k of its target.

    The six fields live in slots, so entries carry no __dict__;
    dense_atom_monoid builds a chain's entries at once with record's
    unchecked bulk constructor, _trusted."""

    __slots__ = ("k", "target", "prime", "exponent", "numerator", "atom")
    k: int
    target: Fraction
    prime: int
    exponent: int
    numerator: int
    atom: Fraction


@record
class DenseAtomConstruction:
    class_index: int
    entries: tuple[DenseAtomEntry, ...]
    monoid: FgMonoid

    def as_mapping(self) -> dict:
        return {
            "class_index": self.class_index,
            "entries": [e.as_mapping() for e in self.entries],
            "generators": [format_rational(g) for g in self.monoid.generators],
        }


def dense_atom_monoid(
    class_index: int, count: int, targets: TargetSeq | None = None
) -> DenseAtomConstruction:
    """Build an atomic monoid whose atoms track the target sequence.

    The k-th atom is m / p^e where p is the k-th prime of the chosen
    partition class, e is minimal with p^e > 2k, and m is the nearest
    integer to target * p^e nudged off multiples of p. That keeps every
    atom within 1/k of its target while the denominators stay inside
    one partition class, pairwise distinct, and coprime to the
    numerators; the generators are then exactly the atoms, and
    different class indices give monoids with disjoint denominator
    supports.

    The chain is read in one pass: the targets come from
    targets.first(count) and the primes from class_primes, each listed
    once, and p^e grows by one multiplication per exponent step. The
    entries are built once, from their six columns.
    """
    if _exact(class_index) < 1:
        raise BadIndex(f"partition classes start at 1, got {class_index}")
    if _exact(count) < 0:
        raise NonPositive(f"the atom count must be >= 0, got {count}")
    if targets is None:
        targets = CalkinWilfTargets()
    exponents, numerators, atoms = [], [], []
    # The primes first: a refused count leaves the shared target prefix as is.
    primes = class_primes(class_index, count)
    ks, chain = range(1, count + 1), targets.first(count)
    for k, target, p in zip(ks, chain, primes):
        e, scale = 1, p
        while scale <= 2 * k:
            e += 1
            scale *= p
        # m = floor(target * scale + 1/2) and |target - m/scale| < 1/k,
        # both cleared of denominators.
        a, b = target.numerator, target.denominator
        m = (2 * a * scale + b) // (2 * b)
        if m % p == 0:
            m = m + 1 if m - 1 < 1 else m - 1
        atom = Fraction(m, scale)
        if not k * abs(a * scale - m * b) < b * scale:
            raise HypothesisViolated(
                f"atom {atom} strays from target {target} by 1/{k} or more"
            )
        exponents.append(e)
        numerators.append(m)
        atoms.append(atom)
    # Each column holds count items: targets.first and class_primes list
    # exactly count, and the loop above refuses or appends to every list.
    entries = DenseAtomEntry._trusted(count, ks, chain, primes, exponents, numerators, atoms)
    return DenseAtomConstruction(class_index, tuple(entries), FgMonoid(atoms))


# ---------------------------------------------------------------------------
# antimatter witnesses for k-subset reciprocal families


@record
class AntimatterWitness:
    """An exact three-part decomposition of one k-subset generator.

    With p < q the two smallest of the given primes and R the product
    of the rest, the primes p' = m q + p and q' = n p' + q satisfy
    p' q' = m q q' + n p p' + p q, which after division by the product
    of all five reads

        1 / (p q R) = m / (p p' R) + n / (q q' R) + 1 / (p' q' R).

    All three summands are generators over k-subsets of distinct
    primes, so the left side is no atom.
    """

    primes: tuple[int, ...]
    m: int
    p_prime: int
    n: int
    q_prime: int
    target: Fraction
    decomposition: Factorization

    def as_mapping(self) -> dict:
        p, q = self.primes[0], self.primes[1]
        return {
            "primes": list(self.primes),
            "m": self.m,
            "p_prime": self.p_prime,
            "n": self.n,
            "q_prime": self.q_prime,
            "identity": (
                f"{self.p_prime}*{self.q_prime} = "
                f"{self.m}*{q}*{self.q_prime} + {self.n}*{p}*{self.p_prime} + {p}*{q}"
            ),
            "target": format_rational(self.target),
            "decomposition": self.decomposition.as_mapping(),
        }


def kprimary_antimatter_witness(
    primes: tuple[int, ...], search_limit: int = 10**5
) -> AntimatterWitness:
    """Decompose the reciprocal of a product of k >= 2 distinct primes."""
    ps = tuple(sorted(primes))
    if len(ps) < 2:
        raise NonPositive("at least two primes are needed")
    if len(set(ps)) != len(ps):
        raise NonPositive("the primes must be distinct")
    for p in ps:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
    p, q = ps[0], ps[1]
    rest = math.prod(ps[2:]) if len(ps) > 2 else 1
    biggest = ps[-1]

    # m*q + p lies above biggest exactly when m > s.
    s = (biggest - p) // q
    if s >= search_limit:
        raise NotFoundWithinLimit(
            f"no prime of the form m*{q} + {p} above {biggest} with m <= {search_limit}"
        )
    k, p_new = prime_in_progression(p + s * q, q, search_limit - s)
    m = s + k
    n, q_new = prime_in_progression(q, p_new, search_limit)

    if p_new * q_new != m * q * q_new + n * p * p_new + p * q:
        raise HypothesisViolated(
            f"{p_new}*{q_new} = {m}*{q}*{q_new} + {n}*{p}*{p_new} + {p}*{q} fails"
        )
    target = Fraction(1, p * q * rest)
    decomposition = Factorization(
        (
            (Fraction(1, p * p_new * rest), m),
            (Fraction(1, q * q_new * rest), n),
            (Fraction(1, p_new * q_new * rest), 1),
        )
    )
    if decomposition.evaluate() != target:
        raise HypothesisViolated(f"the decomposition does not sum to {format_rational(target)}")
    return AntimatterWitness(
        primes=ps,
        m=m,
        p_prime=p_new,
        n=n,
        q_prime=q_new,
        target=target,
        decomposition=decomposition,
    )


# ---------------------------------------------------------------------------
# truncation atom checks for sum-of-reciprocals families


def sum_kprimary_atom_check(k: int, indices: tuple[int, ...], max_index: int) -> bool:
    """Whether the sum over the given prime indices stays an atom in the
    truncation holding every k-subset drawn from the first max_index primes.

    True means the sum is an atom of the truncation: no sum of the
    truncation's other generators equals it. Only the generators below
    it can enter such a sum, so one membership test in their monoid
    decides it. The verdict is about the truncation; more generators
    can only turn it False.
    """
    subset = tuple(sorted(indices))
    if k < 1:
        raise NonPositive(f"k must be >= 1, got {k}")
    if len(subset) != k or len(set(subset)) != k:
        raise NonPositive(f"need {k} distinct prime indices, got {indices!r}")
    if subset[0] < 1:
        raise BadIndex("prime indices start at 1")
    if subset[-1] > max_index:
        raise BadIndex(
            f"index {subset[-1]} exceeds the truncation bound {max_index}"
        )
    value = sum((Fraction(1, nth_prime(i)) for i in subset), Fraction(0))
    gens = truncate(SumKPrimary(k), math.comb(max_index, k)).generators
    return not FgMonoid(gens[: gens.index(value)]).contains(value)


# ---------------------------------------------------------------------------
# candidate atoms for one-prime-denominator families


@record
class AtomExclusion:
    """Generator index i discarded because r_i = coefficient * r_m exactly."""

    index: int
    kept_index: int
    coefficient: int


@record
class PAdicAtomReport:
    prefix: int
    kept: tuple[int, ...]
    exclusions: tuple[AtomExclusion, ...]


def padic_candidate_atoms(spec: PAdic, prefix: int) -> PAdicAtomReport:
    """Split the first generators of a one-prime family into candidate
    atoms and exact multiples of later generators.

    Requires certified hypotheses: the numerators are powers of a single
    prime q different from p and they tend to infinity (PAdic itself
    makes the denominator exponents strictly increase). A generator is
    kept exactly when its numerator is strictly below every later
    numerator; under the cited atom criterion the kept generators are
    the atoms. Each discarded index i comes with the exact integer
    multiple r_i / r_m relating it to the last later generator r_m whose
    numerator is at most r_i's, which holds unconditionally. Where
    is_prime cannot decide whether the numerators' base is prime, its
    NotFoundWithinLimit propagates.
    """
    if not isinstance(spec, PAdic):
        family = getattr(spec, "json_tag", {"family": type(spec).__name__})["family"]
        raise HypothesisViolated(f"p-adic candidate atoms need a p-adic family, got {family}")
    prefix = _exact(prefix)
    if prefix < 1:
        raise NonPositive(f"the prefix length must be >= 1, got {prefix}")
    nums = spec.numerators
    base = nums.prime_power_base()
    if base in (None, 1):
        raise HypothesisViolated("the numerators are not all powers of one prime")
    if base == spec.p:
        raise HypothesisViolated(
            f"the numerator prime {base} coincides with the denominator prime"
        )
    if not nums.tends_to_infinity():
        raise HypothesisViolated("the numerators do not tend to infinity")

    kept = []
    exclusions = []
    for i in range(1, prefix + 1):
        c_i = nums.value_at(i)
        if c_i < nums.min_from(i + 1):
            kept.append(i)
            continue
        # Some numerator past i is at most c_i, so the scan sets last
        # before min_from(j) can pass c_i.
        j = i + 1
        while nums.min_from(j) <= c_i:
            if nums.value_at(j) <= c_i:
                last = j
            j += 1
            if j - i > DEFAULT_SCAN_LIMIT:
                raise NotFoundWithinLimit(
                    f"no end in sight scanning numerators past index {i}"
                )
        coefficient = spec.generator(i) / spec.generator(last)
        if coefficient.denominator != 1:
            raise HypothesisViolated(f"r_{i} / r_{last} = {coefficient} is not an integer")
        exclusions.append(AtomExclusion(i, last, coefficient.numerator))
    return PAdicAtomReport(prefix=prefix, kept=tuple(kept), exclusions=tuple(exclusions))


# ---------------------------------------------------------------------------
# non-isomorphism from disjoint denominator supports


@record
class NonIsoCertificate:
    """Disjoint denominator supports rule out any isomorphism.

    Isomorphisms between these monoids are multiplications by a positive
    rational (cited result), which can only move denominator primes into
    or out of the fixed factorizations of that rational. Two supports
    that are disjoint and each unbounded cannot be matched that way.
    """

    support_a: dict
    support_b: dict
    reason: str


def _support_mapping(support) -> dict:
    if isinstance(support, tuple):
        return {"kind": "finite", "primes": list(support)}
    return support.as_mapping()


def _prime_matches(p: int, stream) -> bool:
    if isinstance(stream, CongruencePrimes):
        return p % stream.modulus == stream.residue
    return partition_class_of_index(prime_index(p))[0] == stream.index


def _supports_disjoint(a, b) -> str | None:
    """A reason string when provably disjoint, None otherwise."""
    if isinstance(a, AllPrimes) or isinstance(b, AllPrimes):
        return None
    if isinstance(a, tuple) and isinstance(b, tuple):
        if set(a) & set(b):
            return None
        return "the two finite prime sets share no prime"
    if isinstance(a, tuple) or isinstance(b, tuple):
        fin, other = (a, b) if isinstance(a, tuple) else (b, a)
        if any(_prime_matches(p, other) for p in fin):
            return None
        kind = "congruence class" if isinstance(other, CongruencePrimes) else "partition class"
        return f"no prime of the finite set lies in the {kind}"
    if isinstance(a, CongruencePrimes) and isinstance(b, CongruencePrimes):
        if (a.residue - b.residue) % math.gcd(a.modulus, b.modulus) != 0:
            return "the two congruence classes are incompatible modulo the gcd of the moduli"
        return None
    if isinstance(a, PartitionClassPrimes) and isinstance(b, PartitionClassPrimes):
        if a.index != b.index:
            return "distinct classes of the canonical prime partition are disjoint"
        return None
    return None


def disjoint_prime_noniso(spec_a: FamilySpec, spec_b: FamilySpec) -> NonIsoCertificate | None:
    """A non-isomorphism certificate from disjoint denominator supports.

    Returns None whenever either family exposes no support descriptor or
    the supports cannot be proved disjoint; None never asserts that the
    monoids are isomorphic.
    """
    support_a = spec_a.support()
    support_b = spec_b.support()
    if support_a is None or support_b is None:
        return None
    reason = _supports_disjoint(support_a, support_b)
    if reason is None:
        return None
    return NonIsoCertificate(
        support_a=_support_mapping(support_a),
        support_b=_support_mapping(support_b),
        reason=reason,
    )
