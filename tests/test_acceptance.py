"""Acceptance gate: nine criteria, each with an explicit time budget.

Every check is exact (tolerance zero) and cross-checked against the
independent brute-force oracles in oracles.py. Each test prints one
PASS line with its elapsed time; a failed assertion or a blown budget
fails the criterion.
"""

import itertools
import math
import random
import time
from fractions import Fraction

from click.testing import CliRunner

from puiseux.arith import is_prime, nth_odd_prime, nth_prime
from puiseux.cli import main as cli_main
from puiseux.cyclic import cyclic_factorizations, cyclic_trade
from puiseux.errors import HypothesisViolated
from puiseux.families import (
    AffineSeq,
    Cyclic,
    ElementaryKPrimary,
    ElementaryPrimary,
    ExplicitSeq,
    GeometricSeq,
    PAdic,
    PlusMinusPowers,
    PowerDenominator,
    TwoAdicOddPrime,
    generator_at,
)
from puiseux.monoid import FgMonoid, isomorphism_witness
from puiseux.semigroup import NumericalSemigroup
from puiseux.verifier import run_claims
from puiseux.witnesses import (
    approximate,
    dense_atom_monoid,
    kprimary_antimatter_witness,
    padic_candidate_atoms,
)

from oracles import (
    brute_cyclic_factorizations,
    brute_frobenius,
    brute_rational_factorizations,
    brute_rational_member,
    brute_representations,
)

F = Fraction


def _pass(criterion: int, t0: float, budget: float) -> None:
    elapsed = time.monotonic() - t0
    assert elapsed < budget, (
        f"CRITERION {criterion}: FAIL, budget {budget}s exceeded ({elapsed:.1f}s)"
    )
    print(f"CRITERION {criterion}: PASS ({elapsed:.2f}s of {budget}s)")


def test_criterion_01_frobenius_and_membership_chain():
    t0 = time.monotonic()
    for k in range(1, 5):
        a, b = 2**k, 3**k
        sg = NumericalSemigroup((a, b))
        frob = sg.frobenius()
        assert frob == brute_frobenius((a, b))
        assert frob < (a - 1) * (b - 1) < 11**k
        reps = sg.representations(11**k)
        assert reps
        for alpha, beta in reps:
            assert alpha * a + beta * b == 11**k
        assert FgMonoid((F(a, 77**k), F(b, 77**k))).contains(F(1, 7**k))
        result = CliRunner().invoke(
            cli_main,
            ["fg", "member", "--gens", f"{a}/{77**k},{b}/{77**k}", "--x", f"1/{7**k}"],
        )
        assert result.exit_code == 0
        assert result.output.splitlines()[0] == "true"
    _pass(1, t0, 5)


def test_criterion_02_kprimary_antimatter_witnesses():
    t0 = time.monotonic()
    first_five = (2, 3, 5, 7, 11)
    for k in (2, 3):
        for subset in itertools.combinations(first_five, k):
            w = kprimary_antimatter_witness(subset, search_limit=10**5)
            p, q = w.primes[0], w.primes[1]
            rest = math.prod(w.primes[2:])
            assert is_prime(w.p_prime) and is_prime(w.q_prime)
            # The two-layer identity behind the decomposition.
            assert (
                w.p_prime * w.q_prime
                == w.m * q * w.q_prime + w.n * p * w.p_prime + p * q
            )
            assert w.target == F(1, p * q * rest)
            assert w.decomposition.evaluate() == w.target
            assert all(mult >= 1 for _, mult in w.decomposition.terms)
    _pass(2, t0, 10)


def test_criterion_03_dense_atom_construction():
    t0 = time.monotonic()
    made = dense_atom_monoid(1, 100)
    assert len(made.entries) == 100
    primes_seen = set()
    for entry in made.entries:
        assert abs(entry.target - entry.atom) < F(1, entry.k)
        assert entry.atom.denominator == entry.prime**entry.exponent
        primes_seen.add(entry.prime)
    assert len(primes_seen) == 100
    gens = [e.atom for e in made.entries]
    for n in range(1, 101):
        truncation = FgMonoid(tuple(gens[:n]))
        assert set(truncation.atoms()) == set(gens[:n]), n
    _pass(3, t0, 30)


def test_criterion_04_cyclic_enumeration_vs_oracle():
    t0 = time.monotonic()
    rng = random.Random(101)
    ratios = [F(2, 3), F(3, 2), F(2, 5), F(5, 2)]
    for trial in range(20):
        r = ratios[trial % 4]
        # Shrinking ratios get deep exponents so the combination stays
        # small; otherwise the number of factorizations itself explodes
        # and no exhaustive check could finish.
        window = range(5, 9) if r < 1 else range(1, 6)
        exponents = rng.sample(window, rng.randint(1, 3))
        x = sum((rng.randint(1, 2) * r**e for e in exponents), F(0))
        found = cyclic_factorizations(r, x, 8)
        assert {z.terms for z in found} == brute_cyclic_factorizations(r, x, 8), (
            r,
            x,
        )
        for z in found:
            assert z.value() == x
            for exponent, mult in z.terms:
                if mult >= r.numerator:
                    up = cyclic_trade(r, z, exponent, "up")
                    assert up.value() == x
                    assert abs(up.length - z.length) == abs(
                        r.denominator - r.numerator
                    )
                if exponent > 1 and mult >= r.denominator:
                    down = cyclic_trade(r, z, exponent - 1, "down")
                    assert down.value() == x
                    assert abs(down.length - z.length) == abs(
                        r.denominator - r.numerator
                    )

    found = cyclic_factorizations(F(3, 2), F(9, 2), 8)
    assert {z.terms for z in found} == {((1, 3),), ((2, 2),)}
    assert sorted(z.length for z in found) == [2, 3]

    found = cyclic_factorizations(F(2, 3), F(4, 3), 3)
    assert {z.terms for z in found} == brute_cyclic_factorizations(
        F(2, 3), F(4, 3), 3
    )
    assert len(found) == 3
    assert sorted(z.length for z in found) == [2, 3, 4]
    _pass(4, t0, 30)


def test_criterion_05_approximation_from_below():
    t0 = time.monotonic()
    rng = random.Random(103)
    specs = [
        PowerDenominator(2),
        PowerDenominator(3),
        ElementaryPrimary(),
        TwoAdicOddPrime(),
        ElementaryKPrimary(2),
        Cyclic(F(2, 3)),
        PlusMinusPowers(3),
    ]
    for _ in range(200):
        spec = rng.choice(specs)
        target = F(rng.randint(1, 60), rng.randint(1, 60))
        eps = F(1, rng.randint(2, 300))
        got = approximate(spec, target, eps)
        assert 0 < target - got.value < eps
        # Membership witness: the value is an exact generator multiple.
        assert got.value == got.multiplier * got.generator
        assert generator_at(spec, got.generator_index) == got.generator
    _pass(5, t0, 5)


def test_criterion_06_power_level_identities():
    t0 = time.monotonic()
    for p in (3, 5):
        spec = PlusMinusPowers(p)
        for level in (1, 2, 3):
            s = p ** (2**level)
            minus = generator_at(spec, 2 * level - 1)
            plus = generator_at(spec, 2 * level)
            assert minus == F(s - 1, s * s)
            assert plus == F(s + 1, s * s)
            assert minus + plus == F(2, s)
            assert minus == (s - 1) // 2 * F(2, s * s)
            assert plus == (s + 1) // 2 * F(2, s * s)
    two_adic = TwoAdicOddPrime()
    for n in range(1, 11):
        assert F(1, 2**n) == nth_odd_prime(n) * generator_at(two_adic, n)
    _pass(6, t0, 1)


def test_criterion_07_padic_atom_extraction():
    t0 = time.monotonic()
    naming = PAdic(2, GeometricSeq(1, 3), AffineSeq(2, 0))
    report = padic_candidate_atoms(naming, 5)
    assert report.kept == (1, 2, 3, 4, 5)
    assert report.exclusions == ()

    dipping = PAdic(2, ExplicitSeq((9, 3), GeometricSeq(1, 3)), AffineSeq(1, 0))
    report2 = padic_candidate_atoms(dipping, 4)
    assert report2.kept == (2, 3, 4)
    exc = report2.exclusions[0]
    assert (exc.index, exc.kept_index, exc.coefficient) == (1, 2, 6)

    # Kept indices stay outside the span of the other generators even
    # in the larger N = 6 truncation, by independent brute search.
    for spec, kept in ((naming, report.kept), (dipping, report2.kept)):
        gens = [generator_at(spec, n) for n in range(1, 7)]
        for i in kept:
            others = tuple(g for n, g in enumerate(gens, start=1) if n != i)
            assert not brute_rational_member(others, gens[i - 1]), (spec, i)

    # Excluded indices reproduce their returned expressions exactly.
    for exc in report2.exclusions:
        assert generator_at(dipping, exc.index) == exc.coefficient * generator_at(
            dipping, exc.kept_index
        )

    try:
        padic_candidate_atoms(PAdic(2, GeometricSeq(3, 1), AffineSeq(1, 0)), 3)
    except HypothesisViolated:
        pass
    else:
        raise AssertionError("constant numerators must be refused")
    _pass(7, t0, 10)


def test_criterion_08_fg_engine_properties():
    t0 = time.monotonic()
    rng = random.Random(107)
    for round_number in range(500):
        gens = tuple(
            F(rng.randint(1, 30), rng.randint(1, 30))
            for _ in range(rng.randint(1, 4))
        )
        monoid = FgMonoid(gens)
        atoms = monoid.atoms()

        if round_number % 2 == 0:
            x = sum(
                (rng.randint(0, 2) * a for a in rng.sample(atoms, min(3, len(atoms)))),
                F(0),
            )
        else:
            x = F(rng.randint(0, 20), rng.randint(1, 10))

        found = monoid.factorizations(x)
        assert bool(found) == monoid.contains(x), (gens, x)
        for f in found:
            assert f.evaluate() == x

        support = monoid.atom_support(x)
        assert set(support) <= set(atoms)
        assert set(support) == {a for f in found for a, _ in f.terms}

        c = F(rng.randint(1, 9), rng.randint(1, 9))
        scaled = monoid.scale(c)
        before = {tuple((c * a, m) for a, m in f.terms) for f in found}
        after = {f.terms for f in scaled.factorizations(c * x)}
        assert before == after, (gens, x, c)

        if round_number % 5 == 0:
            other = FgMonoid(
                tuple(
                    F(rng.randint(1, 30), rng.randint(1, 30))
                    for _ in range(rng.randint(1, 4))
                )
            )
            w_ab = isomorphism_witness(monoid, other)
            w_ba = isomorphism_witness(other, monoid)
            assert (w_ab is None) == (w_ba is None)
            if w_ab is not None:
                assert w_ab * w_ba == 1
            mirrored = monoid.scale(c)
            w = isomorphism_witness(monoid, mirrored)
            assert w is not None and w == c
    _pass(8, t0, 60)


def test_criterion_09_verifier_full_run():
    t0 = time.monotonic()
    outcomes = run_claims("all")
    assert [o.claim_id for o in outcomes] == [f"C{n}" for n in range(1, 16)]
    for o in outcomes:
        if o.claim_id == "C11":
            assert o.status == "data-only"
            for row in o.witnesses:
                want = brute_cyclic_factorizations(F(2, 3), F(4, 3), row["cap"])
                assert row["count"] == len(want)
        else:
            assert o.status == "confirmed", (o.claim_id, o.witnesses)
    _pass(9, t0, 120)
