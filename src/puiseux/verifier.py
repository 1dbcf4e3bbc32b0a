"""A registry of desk-scale claims, each replayed with exact arithmetic.

A claim is its citation plus two parts: cases(params, rng) yields the
cases it checks, and check(case) returns one witness row or raises
_Refuted with the witness that refutes it. A claim that folds its rows
or checks across cases also has summary(rows), which returns the
witnesses to report; without one the rows are the witnesses.

run_claims owns the one loop. For each claim it builds a fresh
random.Random(params.seed), so a claim run alone draws the same cases
as in a full run; it checks the cases in order, stops at the first
refutation, and contains refutations and domain errors per claim.
Every check recomputes its witnesses from scratch and re-validates them
independently of the code paths that produced them, so a confirmed
outcome always carries identities a reader can check by hand. One claim
(C11) reports measurements without a verdict, because the finiteness it
probes is not decided by the bounded search the library performs.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .arith import _exact, format_rational, is_prime, nth_odd_prime, prime_factors, prime_index, record
from .cyclic import cyclic_factorizations, generalized_cyclic_embed
from .errors import GcdOne, HypothesisViolated, NonPositive, ParseError, PuiseuxError, UnknownClaim
from .families import (
    AffineSeq,
    BfNotFf,
    Cyclic,
    CongruencePrimes,
    ElementaryKPrimary,
    ElementaryPrimary,
    ExplicitSeq,
    GeometricSeq,
    PAdic,
    PartitionClassPrimes,
    PartitionedKPrimary,
    PlusMinusPowers,
    PowerDenominator,
    TwoAdicOddPrime,
    classify,
    generator_at,
    partition_class_of_index,
    truncate,
)
from .monoid import FgMonoid
from .semigroup import NumericalSemigroup
from .witnesses import (
    approximate,
    dense_atom_monoid,
    disjoint_prime_noniso,
    kprimary_antimatter_witness,
    padic_candidate_atoms,
    sum_kprimary_atom_check,
)


@record
class ClaimParameters:
    """Exact integers, each no smaller than verify run's option allows;
    the seed may be any integer."""

    truncation: int = 50
    exponent_cap: int = 8
    prime_search_limit: int = 100_000
    seed: int = 7

    def __post_init__(self) -> None:
        for name, low in (("truncation", 2), ("exponent_cap", 1), ("prime_search_limit", 1), ("seed", None)):
            try:
                value = _exact(getattr(self, name))
            except ParseError as bad:
                raise ParseError(f"{name}: {bad}") from None
            if low is not None and value < low:
                raise NonPositive(f"{name} must be >= {low}, got {value}")


@record
class ClaimOutcome:
    claim_id: str
    status: str
    witnesses: tuple
    parameters: ClaimParameters
    citation: str


class _Refuted(Exception):
    def __init__(self, witness):
        super().__init__(str(witness))
        self.witness = witness


def _check(condition: bool, detail) -> None:
    """Refute the running claim unless condition holds. detail takes no
    arguments and returns the witness; it runs only on a refutation, so
    a check that passes formats nothing."""
    if not condition:
        raise _Refuted(detail())


def _refusal(error: type, inputs: str, call, *args) -> dict:
    """The message of the error that call(*args) must raise for these
    inputs, as a row; the claim is refuted if the call returns."""
    try:
        call(*args)
    except error as stop:
        return {"refusal": str(stop)}
    raise _Refuted({"expected": f"{error.__name__} for {inputs}"})


def _last_per_group(rows) -> list:
    """The last row of each group, in first-seen group order, from
    (group, row) pairs."""
    return list(dict(rows).values())


def _unit_sums(atoms) -> list[tuple[Fraction, ...]]:
    """Every multiset of one to three atoms summing to 1, as a nondecreasing
    tuple: the last part of a pair or triple is looked up in a set, and the
    triple loops stop once every tuple left in them must sum past 1."""
    pool = sorted(set(atoms))
    present = set(pool)
    found = [(a,) for a in pool if a == 1]
    found += [(a, 1 - a) for a in pool if a <= 1 - a and 1 - a in present]
    for i, a in enumerate(pool):
        if 3 * a > 1:
            break
        for b in pool[i:]:
            c = 1 - a - b
            if c < b:
                break
            if c in present:
                found.append((a, b, c))
    return found


def _random_generators(rng: random.Random) -> tuple[Fraction, ...]:
    """One to three generators n/d, 1 <= n, d <= 12: C2's and C15's draw."""
    return tuple(Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(rng.randint(1, 3)))


def _brute_contains(gens: tuple[Fraction, ...], x: Fraction) -> bool:
    """Whether x is a sum of gens, by brute force: every multiple of the
    first generator, then the rest on what is left; given the largest
    first, the outer loops are the shortest."""
    if x == 0:
        return True
    if not gens:
        return False
    head, rest = gens[0], gens[1:]
    if not rest:
        q = x / head
        return q.denominator == 1 and q >= 0
    c = 0
    while c * head <= x:
        if _brute_contains(rest, x - c * head):
            return True
        c += 1
    return False


# ---------------------------------------------------------------------------
# claims

_CLAIMS = {}


def _claim(cid: str, citation: str, cases, summary=tuple, status: str = "confirmed"):
    """Register the decorated check(case) as claim cid, with its
    citation, its cases(params, rng), its summary(rows) and the status
    it reports when nothing refutes it."""

    def register(check):
        _CLAIMS[cid] = (citation, cases, check, summary, status)
        return check

    return register


def _c1_cases(params, rng):
    for spec in (
        PowerDenominator(2),
        PowerDenominator(3),
        ElementaryPrimary(),
        TwoAdicOddPrime(),
        ElementaryKPrimary(2),
        Cyclic(Fraction(2, 3)),
        PlusMinusPowers(3),
    ):
        for _ in range(3):
            yield spec, Fraction(rng.randint(1, 40), rng.randint(1, 40)), Fraction(1, rng.randint(3, 150))


@_claim(
    "C1", "dense families admit members within any tolerance below any target", _c1_cases, _last_per_group
)
def _c1(case):
    spec, target, eps = case
    got = approximate(spec, target, eps)
    gap = target - got.value
    _check(0 < gap < eps, lambda: {"family": spec.as_mapping(), "gap": str(gap)})
    _check(
        got.value == got.multiplier * got.generator,
        lambda: {"family": spec.as_mapping(), "value": format_rational(got.value)},
    )
    _check(
        generator_at(spec, got.generator_index) == got.generator,
        lambda: {"family": spec.as_mapping(), "index": got.generator_index},
    )
    return spec, {"family": spec.as_mapping(), "last": got.as_mapping()}


def _c2_cases(params, rng):
    for _ in range(12):
        gens = _random_generators(rng)
        monoid = FgMonoid(gens)
        atoms = monoid.atoms()
        x = sum(
            (rng.randint(0, 3) * a for a in atoms[: rng.randint(1, len(atoms))]),
            Fraction(0),
        )
        yield gens, monoid, x, Fraction(rng.randint(1, 9), rng.randint(1, 9))


@_claim(
    "C2", "scaling by a positive rational transports factorizations one to one", _c2_cases,
    lambda rows: [{"rounds": len(rows), "sample": rows[-1]}],
)
def _c2(case):
    gens, monoid, x, c = case
    plain = {tuple((c * a, m) for a, m in f.terms) for f in monoid.factorizations(x)}
    moved = {f.terms for f in monoid.scale(c).factorizations(c * x)}
    shown = {"generators": [format_rational(g) for g in gens]}
    shown.update(x=format_rational(x), c=format_rational(c))
    _check(plain == moved, lambda: shown)
    return {**shown, "factorizations": len(moved)}


def _c3_cases(params, rng):
    """Pairs whose denominator supports are disjoint, then pairs where
    the certificate must not apply, each with whether it applies."""
    yield ElementaryPrimary(CongruencePrimes(1, 4)), ElementaryPrimary(CongruencePrimes(3, 4)), True
    yield PowerDenominator(2), PowerDenominator(3), True
    yield ElementaryPrimary(PartitionClassPrimes(1)), ElementaryPrimary(PartitionClassPrimes(2)), True
    yield PowerDenominator(7), ElementaryPrimary(CongruencePrimes(1, 4)), True
    yield PowerDenominator(2), PAdic(2, GeometricSeq(1, 3), AffineSeq(2, 0)), False
    yield Cyclic(Fraction(2, 3)), ElementaryPrimary(), False


@_claim(
    "C3", "disjoint denominator supports rule out isomorphism", _c3_cases,
    lambda rows: [row for row in rows if row is not None] + [{"inapplicable_pairs": rows.count(None)}],
)
def _c3(case):
    a, b, applies = case
    cert = disjoint_prime_noniso(a, b)
    _check((cert is not None) == applies, lambda: {"a": a.as_mapping(), "b": b.as_mapping()})
    return cert and cert.as_mapping()


def _disjoint_classes(rows) -> list:
    """C4's rows, once the prime sets of every two classes are disjoint."""
    for (pa, a), (pb, b) in itertools.combinations(rows, 2):
        _check(not (pa & pb), lambda: {"classes": [a["class_index"], b["class_index"]]})
    return [row for _, row in rows]


@_claim(
    "C4", "atom sets can track any target list within prescribed errors",
    lambda params, rng: ((j, min(20, params.truncation)) for j in (1, 2, 3)), _disjoint_classes,
)
def _c4(case):
    class_index, count = case
    made = dense_atom_monoid(class_index, count)
    _check(len(made.entries) == count, lambda: {"class": class_index})
    primes = set()
    for entry in made.entries:
        _check(
            abs(entry.target - entry.atom) < Fraction(1, entry.k),
            lambda: {"class": class_index, "entry": entry.as_mapping()},
        )
        _check(
            partition_class_of_index(prime_index(entry.prime))[0] == class_index,
            lambda: {"class": class_index, "prime": entry.prime},
        )
        _check(
            entry.prime**entry.exponent > 2 * entry.k
            and (entry.exponent == 1 or entry.prime ** (entry.exponent - 1) <= 2 * entry.k),
            lambda: {"class": class_index, "entry": entry.as_mapping()},
        )
        _check(entry.numerator % entry.prime != 0, lambda: {"entry": entry.as_mapping()})
        primes.add(entry.prime)
    _check(len(primes) == count, lambda: {"class": class_index, "primes": sorted(primes)})
    _check(set(made.monoid.atoms()) == set(made.monoid.generators), lambda: {"class": class_index})
    first = [e.as_mapping() for e in made.entries[:3]]
    return primes, {"class_index": class_index, "atoms": len(made.entries), "first_entries": first}


@_claim(
    "C5", "the power-of-two reciprocals embed, so atomicity is not inherited",
    lambda params, rng: range(1, 11),
    lambda rows: [{"identities": rows[:3], "checked_up_to": len(rows)}],
)
def _c5(n):
    p = nth_odd_prime(n)
    small = generator_at(TwoAdicOddPrime(), n)
    _check(Fraction(1, 2**n) == p * small, lambda: {"n": n})
    return f"1/2^{n} = {p} * {format_rational(small)}"


@_claim(
    "C6", "k-subset reciprocal generators all decompose through larger primes",
    lambda params, rng: (
        (k, subset, params.prime_search_limit)
        for k in (2, 3)
        for subset in itertools.combinations((2, 3, 5, 7, 11), k)
    ),
    _last_per_group,
)
def _c6(case):
    k, subset, limit = case
    w = kprimary_antimatter_witness(subset, limit)
    p, q = w.primes[0], w.primes[1]
    _check(w.p_prime * w.q_prime == w.m * q * w.q_prime + w.n * p * w.p_prime + p * q, w.as_mapping)
    _check(w.decomposition.evaluate() == w.target, w.as_mapping)
    _check(is_prime(w.p_prime) and is_prime(w.q_prime) and w.p_prime > max(subset), w.as_mapping)
    for atom, _ in w.decomposition.terms:
        factors = prime_factors(atom.denominator)
        _check(
            atom.numerator == 1
            and factors is not None
            and len(factors) == k
            and math.prod(factors) == atom.denominator,
            lambda: {"atom": format_rational(atom), "k": k},
        )
    return k, w.as_mapping()


def _partitioned_blocks(rows) -> list:
    """C7's rows, then the block generators of the partitioned family,
    once they are its truncation's atoms."""
    blocks = truncate(PartitionedKPrimary(2), 4)
    _check(set(blocks.atoms()) == set(blocks.generators), lambda: {"family": "partitioned"})
    return rows + [{"partitioned_generators": [format_rational(g) for g in blocks.generators]}]


@_claim(
    "C7", "sum and block reciprocal generators stay atoms at truncation scale",
    lambda params, rng: (
        {"k": 2, "indices": [1, 2], "max_index": 4},
        {"k": 1, "indices": [1], "max_index": 3},
        {"k": 2, "indices": [1, 2], "max_index": 2},
    ),
    _partitioned_blocks,
)
def _c7(c):
    _check(sum_kprimary_atom_check(c["k"], tuple(c["indices"]), c["max_index"]), lambda: c)
    return c


@_claim(
    "C8", "bounded numerators leave a single truncation atom",
    lambda params, rng: (
        PowerDenominator(3),
        PAdic(2, ExplicitSeq((3, 1), GeometricSeq(1, 1)), AffineSeq(1, 0)),
    ),
)
def _c8(spec):
    per_spec = []
    for size in (5, 10, 15):
        atoms = truncate(spec, size).atoms()
        _check(len(atoms) == 1, lambda: {"family": spec.as_mapping(), "size": size})
        per_spec.append({"size": size, "atoms": len(atoms)})
    _check(classify(spec).atomic == "no", lambda: {"family": spec.as_mapping()})
    return {"family": spec.as_mapping(), "truncations": per_spec}


@_claim(
    "C9", "plus-minus power generators decompose one level down",
    lambda params, rng: itertools.product((3, 5), (1, 2, 3)), _last_per_group,
)
def _c9(case):
    p, level = case
    spec = PlusMinusPowers(p)
    s = p ** (2**level)
    minus = generator_at(spec, 2 * level - 1)
    plus = generator_at(spec, 2 * level)
    _check(minus == Fraction(s - 1, s * s), lambda: {"p": p, "level": level})
    _check(plus == Fraction(s + 1, s * s), lambda: {"p": p, "level": level})
    _check(minus + plus == Fraction(2, s), lambda: {"p": p, "level": level})
    below_minus = generator_at(spec, 2 * level + 1)
    below_plus = generator_at(spec, 2 * level + 2)
    two_down = Fraction(2, s * s)
    _check(below_minus + below_plus == two_down, lambda: {"p": p, "level": level})
    _check(minus == (s - 1) // 2 * two_down, lambda: {"p": p, "level": level})
    _check(plus == (s + 1) // 2 * two_down, lambda: {"p": p, "level": level})
    return p, {"p": p, "levels": 3, "sample": f"{format_rational(minus)} + {format_rational(plus)} = 2/{s}"}


@_claim(
    "C10", "numerator-minimal generators are the candidate atoms",
    # A p-adic prefix, its kept indices, and each discarded index with
    # the kept one and the coefficient that write it out.
    lambda params, rng: (
        (PAdic(2, GeometricSeq(1, 3), AffineSeq(2, 0)), 5, (1, 2, 3, 4, 5), ()),
        (PAdic(2, ExplicitSeq((9, 3), GeometricSeq(1, 3)), AffineSeq(1, 0)), 4, (2, 3, 4), ((1, 2, 6),)),
    ),
    lambda rows: rows + [
        _refusal(
            HypothesisViolated, "constant numerators",
            padic_candidate_atoms, PAdic(2, GeometricSeq(3, 1), AffineSeq(1, 0)), 3,
        )
    ],
)
def _c10(case):
    spec, size, kept, exclusions = case
    report = padic_candidate_atoms(spec, size)
    _check(report.kept == kept, report.as_mapping)
    _check(
        tuple((e.index, e.kept_index, e.coefficient) for e in report.exclusions) == exclusions,
        report.as_mapping,
    )
    for e in report.exclusions:
        written = e.coefficient * generator_at(spec, e.kept_index)
        _check(generator_at(spec, e.index) == written, report.as_mapping)
    gens = [generator_at(spec, n) for n in range(1, size + 1)]
    for i in report.kept:
        others = tuple(g for n, g in enumerate(gens, start=1) if n != i)
        _check(not FgMonoid(others).contains(gens[i - 1]), lambda: {"family": spec.as_mapping(), "kept": i})
    return report.as_mapping()


@_claim(
    "C11", "factorization counts of one cyclic target across exponent caps",
    lambda params, rng: range(1, params.exponent_cap + 1), status="data-only",
)
def _c11(cap):
    r, x = Fraction(2, 3), Fraction(4, 3)
    found = cyclic_factorizations(r, x, cap)
    for f in found:
        _check(f.value() == x, lambda: {"cap": cap, "terms": f.as_mapping()})
    return {"cap": cap, "count": len(found), "lengths": sorted({f.length for f in found})}


def _c12_cases(params, rng):
    """Truncations of the one family up the ladder of sizes; its
    members are made once, for the largest."""
    ladder = sorted({max(2, params.truncation * step // 5) for step in range(1, 6)})
    spec = BfNotFf()
    members = tuple(generator_at(spec, n) for n in range(1, ladder[-1] + 1))
    return ((size, members[:size]) for size in ladder)


@_claim("C12", "atoms bounded below: short factorizations, unbounded atom support", _c12_cases)
def _c12(case):
    size, members = case
    third = Fraction(1, 3)
    gens = FgMonoid(members).generators
    _check(all(g >= third for g in gens), lambda: {"size": size})
    # Sums of two nonzero elements are at least 2/3, so every generator
    # under 2/3 is an atom outright; the one generator at 2/3 splits.
    atoms = [g for g in gens if g < 2 * third]
    for g in gens:
        if g >= 2 * third:
            _check(g == third + third, lambda: {"generator": format_rational(g)})
    found = _unit_sums(atoms)
    lengths = sorted({len(c) for c in found})
    _check(set(lengths) <= {2, 3}, lambda: {"size": size, "lengths": lengths})
    pairs = sum(1 for c in found if len(c) == 2)
    # One pair per odd prime past 3 in range: its floor and ceiling
    # halves sum to one and both stay under 2/3.
    _check(pairs == max(0, size // 2 - 1), lambda: {"size": size, "pairs": pairs})
    _check(len(found) == pairs + 1, lambda: {"size": size, "count": len(found)})
    meeting = {a for c in found for a in c}
    _check(len(meeting) == 2 * pairs + 1, lambda: {"size": size})
    return {
        "size": size, "factorizations_of_one": len(found), "pairs": pairs,
        "atoms_meeting_one": len(meeting), "lengths": lengths,
    }


@_claim(
    "C13", "a shared numerator prime embeds ratio powers exactly",
    lambda params, rng: itertools.product([(Fraction(2, 5), Fraction(4, 7))], (1, 2), (1, 2, 3)),
    lambda rows: _last_per_group(rows) + [
        _refusal(
            GcdOne, "coprime numerators",
            generalized_cyclic_embed, (Fraction(2, 77), Fraction(3, 77)), 1, 1,
        )
    ],
)
def _c13(case):
    ratios, i, m = case
    w = generalized_cyclic_embed(ratios, i, m)
    _check(w.value == w.coefficient * w.base**m, w.as_mapping)
    _check(w.value == ratios[i - 1] ** m, w.as_mapping)
    _check(w.base == Fraction(2, 35), w.as_mapping)
    return i, w.as_mapping()


@_claim("C14", "two-generator Frobenius bounds and membership chains", lambda params, rng: range(1, 5))
def _c14(k):
    a, b = 2**k, 3**k
    ns = NumericalSemigroup((a, b))
    frob = ns.frobenius()
    bound = (a - 1) * (b - 1)
    target = 11**k
    _check(frob < bound < target, lambda: {"k": k, "frobenius": frob})
    reps = ns.representations(target)
    _check(len(reps) > 0, lambda: {"k": k})
    for c0, c1 in reps:
        _check(c0 * a + c1 * b == target, lambda: {"k": k, "rep": [c0, c1]})
    fg = FgMonoid((Fraction(a, 77**k), Fraction(b, 77**k)))
    _check(fg.contains(Fraction(1, 7**k)), lambda: {"k": k})
    return {"k": k, "frobenius": frob, "bound": bound, "representations": len(reps), "first": list(reps[0])}


def _c15_cases(params, rng):
    for _ in range(15):
        gens = _random_generators(rng)
        yield gens, tuple(Fraction(rng.randint(0, 15), rng.randint(1, 6)) for _ in range(6))


@_claim(
    "C15", "clearing denominators reduces everything to numerical semigroups", _c15_cases,
    lambda rows: [{"rounds": len(rows), "membership_agreements": sum(rows)}],
)
def _c15(case):
    gens, xs = case
    monoid = FgMonoid(gens)
    scale, ns = monoid.to_scaled_integer()
    shown = {"generators": [format_rational(g) for g in gens]}
    _check(math.gcd(*ns.generators) == 1, lambda: shown)
    _check(tuple(scale * g for g in ns.generators) == monoid.generators, lambda: shown)
    for x in xs:
        _check(
            monoid.contains(x) == _brute_contains(monoid.generators[::-1], x),
            lambda: {**shown, "x": format_rational(x)},
        )
    return len(xs)


def claim_ids() -> tuple[str, ...]:
    return tuple(sorted(_CLAIMS, key=lambda cid: int(cid[1:])))


def run_claims(ids="all", parameters: ClaimParameters | None = None) -> list[ClaimOutcome]:
    """Run the registered claims and return their outcomes, id order.

    Each id runs once, however often it is listed. A claim that raises
    a domain error (a bounded search running out of budget, say) gets
    the status "error" with the message as its witness, and the other
    claims still run.
    """
    params = parameters if parameters is not None else ClaimParameters()
    if ids == "all":
        chosen = list(claim_ids())
    else:
        chosen = list(dict.fromkeys(ids))
        for cid in chosen:
            if cid not in _CLAIMS:
                raise UnknownClaim(f"no claim named {cid!r}")
        chosen.sort(key=lambda cid: int(cid[1:]))
    outcomes = []
    for cid in chosen:
        citation, cases, check, summary, status = _CLAIMS[cid]
        try:
            witnesses = summary([check(case) for case in cases(params, random.Random(params.seed))])
        except _Refuted as r:
            status, witnesses = "refuted", [r.witness]
        except PuiseuxError as e:
            status, witnesses = "error", [str(e)]
        outcomes.append(ClaimOutcome(cid, status, tuple(witnesses), params, citation))
    return outcomes
