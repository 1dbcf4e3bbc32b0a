"""A registry of desk-scale claims, each replayed with exact arithmetic.

Every claim recomputes its witnesses from scratch at the given
parameters and re-validates them independently of the code paths that
produced them, so a confirmed outcome always carries identities a
reader can check by hand. One claim (C11) reports measurements without
a verdict, because the finiteness it probes is not decided by the
bounded search the library performs.
"""

from __future__ import annotations

import itertools
import math
import random
from fractions import Fraction

from .arith import format_rational, is_prime, nth_odd_prime, prime_factors, prime_index, record
from .cyclic import cyclic_factorizations, cyclic_trade, generalized_cyclic_embed
from .errors import GcdOne, HypothesisViolated, PuiseuxError, UnknownClaim
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
    truncation: int = 50
    exponent_cap: int = 8
    prime_search_limit: int = 100_000
    seed: int = 7


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


# ---------------------------------------------------------------------------
# claims


def _random_generators(rng: random.Random) -> tuple[Fraction, ...]:
    """One to three generators n/d, 1 <= n, d <= 12: C2's and C15's draw."""
    return tuple(Fraction(rng.randint(1, 12), rng.randint(1, 12)) for _ in range(rng.randint(1, 3)))


def _c1(params: ClaimParameters):
    """Approximation from below inside every cataloged dense family."""
    rng = random.Random(params.seed)
    specs = [
        PowerDenominator(2),
        PowerDenominator(3),
        ElementaryPrimary(),
        TwoAdicOddPrime(),
        ElementaryKPrimary(2),
        Cyclic(Fraction(2, 3)),
        PlusMinusPowers(3),
    ]
    samples = []
    for spec in specs:
        for _ in range(3):
            target = Fraction(rng.randint(1, 40), rng.randint(1, 40))
            eps = Fraction(1, rng.randint(3, 150))
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
        samples.append({"family": spec.as_mapping(), "last": got.as_mapping()})
    return "confirmed", samples


def _c2(params: ClaimParameters):
    """Scaling by a positive rational transports factorizations one to one."""
    rng = random.Random(params.seed)
    rounds = 0
    sample = None
    for _ in range(12):
        gens = _random_generators(rng)
        monoid = FgMonoid(gens)
        atoms = monoid.atoms()
        x = sum(
            (rng.randint(0, 3) * a for a in atoms[: rng.randint(1, len(atoms))]),
            Fraction(0),
        )
        c = Fraction(rng.randint(1, 9), rng.randint(1, 9))
        scaled = monoid.scale(c)
        plain = {
            tuple((c * a, m) for a, m in f.terms) for f in monoid.factorizations(x)
        }
        moved = {f.terms for f in scaled.factorizations(c * x)}
        shown = {
            "generators": [format_rational(g) for g in gens],
            "x": format_rational(x),
            "c": format_rational(c),
        }
        _check(plain == moved, lambda: shown)
        rounds += 1
        sample = {**shown, "factorizations": len(moved)}
    return "confirmed", [{"rounds": rounds, "sample": sample}]


def _c3(params: ClaimParameters):
    """Disjoint denominator supports certify non-isomorphism."""
    disjoint = [
        (
            ElementaryPrimary(CongruencePrimes(1, 4)),
            ElementaryPrimary(CongruencePrimes(3, 4)),
        ),
        (PowerDenominator(2), PowerDenominator(3)),
        (
            ElementaryPrimary(PartitionClassPrimes(1)),
            ElementaryPrimary(PartitionClassPrimes(2)),
        ),
        (PowerDenominator(7), ElementaryPrimary(CongruencePrimes(1, 4))),
    ]
    overlapping = [
        (PowerDenominator(2), PAdic(2, GeometricSeq(1, 3), AffineSeq(2, 0))),
        (Cyclic(Fraction(2, 3)), ElementaryPrimary()),
    ]
    witnesses = []
    for a, b in disjoint:
        cert = disjoint_prime_noniso(a, b)
        _check(cert is not None, lambda: {"a": a.as_mapping(), "b": b.as_mapping()})
        witnesses.append(cert.as_mapping())
    for a, b in overlapping:
        cert = disjoint_prime_noniso(a, b)
        _check(cert is None, lambda: {"a": a.as_mapping(), "b": b.as_mapping()})
    witnesses.append({"inapplicable_pairs": len(overlapping)})
    return "confirmed", witnesses


def _c4(params: ClaimParameters):
    """Atoms tracking any target list, in disjoint-support classes."""
    count = min(20, params.truncation)
    built = []
    for class_index in (1, 2, 3):
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
        _check(
            set(made.monoid.atoms()) == set(made.monoid.generators),
            lambda: {"class": class_index},
        )
        built.append((class_index, primes, made))
    for (ja, pa, _), (jb, pb, _) in itertools.combinations(built, 2):
        _check(not (pa & pb), lambda: {"classes": [ja, jb]})
    return "confirmed", [
        {
            "class_index": j,
            "atoms": len(made.entries),
            "first_entries": [e.as_mapping() for e in made.entries[:3]],
        }
        for j, _, made in built
    ]


def _c5(params: ClaimParameters):
    """The power-of-two reciprocals sit inside the two-adic odd-prime family."""
    spec = TwoAdicOddPrime()
    shown = []
    for n in range(1, 11):
        p = nth_odd_prime(n)
        small = generator_at(spec, n)
        _check(Fraction(1, 2**n) == p * small, lambda: {"n": n})
        if n <= 3:
            shown.append(f"1/2^{n} = {p} * {format_rational(small)}")
    return "confirmed", [{"identities": shown, "checked_up_to": 10}]


def _c6(params: ClaimParameters):
    """Every k-subset reciprocal generator decomposes through larger primes."""
    first_five = (2, 3, 5, 7, 11)
    shown = []
    for k in (2, 3):
        for subset in itertools.combinations(first_five, k):
            w = kprimary_antimatter_witness(subset, params.prime_search_limit)
            p, q = w.primes[0], w.primes[1]
            _check(
                w.p_prime * w.q_prime
                == w.m * q * w.q_prime + w.n * p * w.p_prime + p * q,
                w.as_mapping,
            )
            _check(w.decomposition.evaluate() == w.target, w.as_mapping)
            _check(
                is_prime(w.p_prime) and is_prime(w.q_prime) and w.p_prime > max(subset),
                w.as_mapping,
            )
            for atom, _ in w.decomposition.terms:
                factors = prime_factors(atom.denominator)
                _check(
                    atom.numerator == 1
                    and factors is not None
                    and len(factors) == k
                    and math.prod(factors) == atom.denominator,
                    lambda: {"atom": format_rational(atom), "k": k},
                )
        shown.append(w.as_mapping())
    return "confirmed", shown


def _c7(params: ClaimParameters):
    """Block and sum reciprocal generators stay atoms at truncation scale."""
    checks = [
        {"k": 2, "indices": [1, 2], "max_index": 4},
        {"k": 1, "indices": [1], "max_index": 3},
        {"k": 2, "indices": [1, 2], "max_index": 2},
    ]
    for c in checks:
        _check(
            sum_kprimary_atom_check(c["k"], tuple(c["indices"]), c["max_index"]),
            lambda: c,
        )
    blocks = truncate(PartitionedKPrimary(2), 4)
    _check(set(blocks.atoms()) == set(blocks.generators), lambda: {"family": "partitioned"})
    return "confirmed", checks + [
        {"partitioned_generators": [format_rational(g) for g in blocks.generators]}
    ]


def _c8(params: ClaimParameters):
    """Bounded numerators leave a single atom in every truncation."""
    specs = [
        PowerDenominator(3),
        PAdic(2, ExplicitSeq((3, 1), GeometricSeq(1, 1)), AffineSeq(1, 0)),
    ]
    counts = []
    for spec in specs:
        per_spec = []
        for size in (5, 10, 15):
            atoms = truncate(spec, size).atoms()
            _check(len(atoms) == 1, lambda: {"family": spec.as_mapping(), "size": size})
            per_spec.append({"size": size, "atoms": len(atoms)})
        report = classify(spec)
        _check(report.atomic == "no", lambda: {"family": spec.as_mapping()})
        counts.append({"family": spec.as_mapping(), "truncations": per_spec})
    return "confirmed", counts


def _c9(params: ClaimParameters):
    """Each plus-minus generator decomposes one level down, exactly."""
    shown = []
    for p in (3, 5):
        spec = PlusMinusPowers(p)
        for level in (1, 2, 3):
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
        shown.append(
            {
                "p": p,
                "levels": 3,
                "sample": f"{format_rational(minus)} + {format_rational(plus)} = 2/{s}",
            }
        )
    return "confirmed", shown


def _c10(params: ClaimParameters):
    """Numerator-minimal generators are the candidate atoms, with exact
    multiples for everything discarded."""
    growing = PAdic(2, GeometricSeq(1, 3), AffineSeq(2, 0))
    report = padic_candidate_atoms(growing, 5)
    _check(report.kept == (1, 2, 3, 4, 5), report.as_mapping)
    _check(report.exclusions == (), report.as_mapping)

    dipping = PAdic(2, ExplicitSeq((9, 3), GeometricSeq(1, 3)), AffineSeq(1, 0))
    report2 = padic_candidate_atoms(dipping, 4)
    _check(report2.kept == (2, 3, 4), report2.as_mapping)
    _check(len(report2.exclusions) == 1, report2.as_mapping)
    exc = report2.exclusions[0]
    _check(
        (exc.index, exc.kept_index, exc.coefficient) == (1, 2, 6),
        report2.as_mapping,
    )
    _check(
        generator_at(dipping, 1) == 6 * generator_at(dipping, 2),
        report2.as_mapping,
    )
    for spec, report_n, size in ((growing, report, 5), (dipping, report2, 4)):
        gens = [generator_at(spec, n) for n in range(1, size + 1)]
        for i in report_n.kept:
            others = tuple(g for n, g in enumerate(gens, start=1) if n != i)
            _check(
                not FgMonoid(others).contains(gens[i - 1]),
                lambda: {"family": spec.as_mapping(), "kept": i},
            )

    try:
        padic_candidate_atoms(PAdic(2, GeometricSeq(3, 1), AffineSeq(1, 0)), 3)
    except HypothesisViolated as stop:
        refusal = str(stop)
    else:
        raise _Refuted({"expected": "HypothesisViolated for constant numerators"})
    return "confirmed", [report.as_mapping(), report2.as_mapping(), {"refusal": refusal}]


def _c11(params: ClaimParameters):
    """Counts of factorizations of one cyclic target across exponent caps."""
    r, x = Fraction(2, 3), Fraction(4, 3)
    data = []
    for cap in range(1, params.exponent_cap + 1):
        found = cyclic_factorizations(r, x, cap)
        for f in found:
            _check(f.value() == x, lambda: {"cap": cap, "terms": f.as_mapping()})
        data.append(
            {
                "cap": cap,
                "count": len(found),
                "lengths": sorted({f.length for f in found}),
            }
        )
    return "data-only", data


def _c12(params: ClaimParameters):
    """Atoms bounded below force short factorizations, yet ever more atoms
    meet the element 1 as the truncation grows."""
    ladder = sorted({max(2, params.truncation * step // 5) for step in range(1, 6)})
    # Each rung truncates the same family, so its members are made once.
    spec = BfNotFf()
    members = tuple(generator_at(spec, n) for n in range(1, ladder[-1] + 1))
    third = Fraction(1, 3)
    rows = []
    for size in ladder:
        gens = FgMonoid(members[:size]).generators
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
        rows.append(
            {
                "size": size,
                "factorizations_of_one": len(found),
                "pairs": pairs,
                "atoms_meeting_one": len(meeting),
                "lengths": lengths,
            }
        )
    return "confirmed", rows


def _c13(params: ClaimParameters):
    """A shared numerator prime embeds each ratio power exactly."""
    ratios = (Fraction(2, 5), Fraction(4, 7))
    shown = []
    for i in (1, 2):
        for m in (1, 2, 3):
            w = generalized_cyclic_embed(ratios, i, m)
            _check(w.value == w.coefficient * w.base**m, w.as_mapping)
            _check(w.value == ratios[i - 1] ** m, w.as_mapping)
            _check(w.base == Fraction(2, 35), w.as_mapping)
        shown.append(w.as_mapping())
    try:
        generalized_cyclic_embed((Fraction(2, 77), Fraction(3, 77)), 1, 1)
    except GcdOne as stop:
        shown.append({"refusal": str(stop)})
    else:
        raise _Refuted({"expected": "GcdOne for coprime numerators"})
    return "confirmed", shown


def _c14(params: ClaimParameters):
    """Two-generator Frobenius bounds and membership chains, k = 1..4."""
    rows = []
    for k in range(1, 5):
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
        rows.append(
            {
                "k": k,
                "frobenius": frob,
                "bound": bound,
                "representations": len(reps),
                "first": list(reps[0]),
            }
        )
    return "confirmed", rows


def _c15(params: ClaimParameters):
    """Clearing denominators round-trips and preserves membership."""
    rng = random.Random(params.seed)

    def brute(gens: tuple[Fraction, ...], x: Fraction) -> bool:
        # Every multiple of the first generator, then the rest on what is
        # left; given the largest first, the outer loops are the shortest.
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
            if brute(rest, x - c * head):
                return True
            c += 1
        return False

    rounds = 0
    agreements = 0
    for _ in range(15):
        gens = _random_generators(rng)
        monoid = FgMonoid(gens)
        scale, ns = monoid.to_scaled_integer()
        shown = {"generators": [format_rational(g) for g in gens]}
        _check(math.gcd(*ns.generators) == 1, lambda: shown)
        rebuilt = tuple(scale * g for g in ns.generators)
        _check(rebuilt == monoid.generators, lambda: shown)
        for _ in range(6):
            x = Fraction(rng.randint(0, 15), rng.randint(1, 6))
            fast = monoid.contains(x)
            slow = brute(monoid.generators[::-1], x)
            _check(fast == slow, lambda: {**shown, "x": format_rational(x)})
            agreements += 1
        rounds += 1
    return "confirmed", [{"rounds": rounds, "membership_agreements": agreements}]


_CLAIMS = {
    "C1": ("dense families admit members within any tolerance below any target", _c1),
    "C2": ("scaling by a positive rational transports factorizations one to one", _c2),
    "C3": ("disjoint denominator supports rule out isomorphism", _c3),
    "C4": ("atom sets can track any target list within prescribed errors", _c4),
    "C5": ("the power-of-two reciprocals embed, so atomicity is not inherited", _c5),
    "C6": ("k-subset reciprocal generators all decompose through larger primes", _c6),
    "C7": ("sum and block reciprocal generators stay atoms at truncation scale", _c7),
    "C8": ("bounded numerators leave a single truncation atom", _c8),
    "C9": ("plus-minus power generators decompose one level down", _c9),
    "C10": ("numerator-minimal generators are the candidate atoms", _c10),
    "C11": ("factorization counts of one cyclic target across exponent caps", _c11),
    "C12": ("atoms bounded below: short factorizations, unbounded atom support", _c12),
    "C13": ("a shared numerator prime embeds ratio powers exactly", _c13),
    "C14": ("two-generator Frobenius bounds and membership chains", _c14),
    "C15": ("clearing denominators reduces everything to numerical semigroups", _c15),
}


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
        citation, fn = _CLAIMS[cid]
        try:
            status, witnesses = fn(params)
        except _Refuted as r:
            status, witnesses = "refuted", [r.witness]
        except PuiseuxError as e:
            status, witnesses = "error", [str(e)]
        outcomes.append(
            ClaimOutcome(
                claim_id=cid,
                status=status,
                witnesses=tuple(witnesses),
                parameters=params,
                citation=citation,
            )
        )
    return outcomes
