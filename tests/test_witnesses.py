import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import assume, given, strategies as st

from puiseux import arith, families
from puiseux.arith import is_prime, nth_prime, prime_index
from puiseux.errors import (
    BadIndex,
    HypothesisViolated,
    NonPositive,
    NotDense,
    NotFoundWithinLimit,
)
from puiseux.families import (
    AffineSeq,
    CongruencePrimes,
    Cyclic,
    ElementaryPrimary,
    ExplicitList,
    ExplicitSeq,
    ExplicitTargets,
    GeneralizedCyclic,
    GeometricSeq,
    HalfPrime,
    PAdic,
    PartitionClassPrimes,
    PartitionedKPrimary,
    PowerDenominator,
    TwoAdicOddPrime,
    generator_at,
    partition_class_of_index,
    truncate,
)
from puiseux.monoid import FgMonoid
from puiseux.witnesses import (
    approximate,
    dense_atom_monoid,
    disjoint_prime_noniso,
    kprimary_antimatter_witness,
    padic_candidate_atoms,
    sum_kprimary_atom_check,
)

from oracles import (
    brute_rational_member,
    old_dense_atom_monoid,
    old_kprimary_antimatter_witness,
    padic_exclusion_coefficient,
    sieve_primes,
)

F = Fraction

FIRST_60_PRIMES = sieve_primes(281)


# ---------------------------------------------------------------------------
# approximation


def test_approximate_properties_randomized():
    rng = random.Random(73)
    specs = [
        PowerDenominator(2),
        ElementaryPrimary(),
        TwoAdicOddPrime(),
        Cyclic(F(2, 3)),
    ]
    for _ in range(40):
        spec = rng.choice(specs)
        target = F(rng.randint(1, 30), rng.randint(1, 30))
        eps = F(1, rng.randint(2, 200))
        got = approximate(spec, target, eps)
        assert 0 < target - got.value < eps
        assert got.value == got.multiplier * got.generator
        assert generator_at(spec, got.generator_index) == got.generator


def test_approximate_value_is_a_member():
    got = approximate(PowerDenominator(2), F(5, 7), F(1, 50))
    gens = tuple(F(1, 2**n) for n in range(1, got.generator_index + 1))
    assert brute_rational_member(gens, got.value)


def test_approximate_deterministic_and_tight():
    a = approximate(PowerDenominator(2), F(1, 4), F(1, 100))
    b = approximate(PowerDenominator(2), F(1, 4), F(1, 100))
    assert a == b
    # The witness multiplies the first generator below min(target, eps).
    assert a.generator < F(1, 100)
    assert (a.multiplier + 1) * a.generator >= F(1, 4)


def test_approximate_rejects_bad_inputs():
    with pytest.raises(NonPositive):
        approximate(PowerDenominator(2), F(0), F(1, 10))
    with pytest.raises(NonPositive):
        approximate(PowerDenominator(2), F(1, 2), F(0))
    with pytest.raises(NotDense):
        approximate(HalfPrime(), F(1, 2), F(1, 10))
    with pytest.raises(NotDense):
        approximate(Cyclic(F(3, 2)), F(1, 2), F(1, 10))


def test_approximate_respects_scan_limit():
    with pytest.raises(NotFoundWithinLimit):
        approximate(PowerDenominator(2), F(1, 2), F(1, 1000), scan_limit=3)


# ---------------------------------------------------------------------------
# dense atom construction


def test_dense_atom_monoid_tracks_calkin_wilf():
    made = dense_atom_monoid(1, 12)
    assert len(made.entries) == 12
    primes_seen = set()
    for entry in made.entries:
        assert abs(entry.target - entry.atom) < F(1, entry.k)
        assert is_prime(entry.prime)
        assert partition_class_of_index(prime_index(entry.prime))[0] == 1
        assert entry.prime**entry.exponent > 2 * entry.k
        assert entry.numerator % entry.prime != 0
        assert entry.atom == F(entry.numerator, entry.prime**entry.exponent)
        primes_seen.add(entry.prime)
    assert len(primes_seen) == 12
    assert made.monoid.generators == tuple(sorted(e.atom for e in made.entries))


def test_dense_atom_mapping_prints_integer_targets_bare():
    assert dense_atom_monoid(1, 2).as_mapping()["entries"][0]["target"] == "1"


def test_dense_atom_monoid_matches_fraction_formula():
    for j in range(1, 5):
        made = dense_atom_monoid(j, 400)
        target = F(1)
        for k, entry in enumerate(made.entries, start=1):
            p = nth_prime(2 ** (j - 1) * (2 * k - 1))
            e = 1
            while p**e <= 2 * k:
                e += 1
            m = math.floor(target * p**e + F(1, 2))
            if m % p == 0:
                m = m + 1 if m - 1 < 1 else m - 1
            assert (entry.target, entry.prime, entry.exponent, entry.numerator) == (target, p, e, m), (j, k)
            assert entry.atom == F(m, p**e)
            # The next Calkin-Wilf target, by Newman's map.
            target = 1 / (2 * math.floor(target) - target + 1)


def test_dense_atom_monoid_atoms_equal_generators():
    made = dense_atom_monoid(2, 10)
    assert set(made.monoid.atoms()) == set(made.monoid.generators)


def test_dense_atom_monoid_classes_use_disjoint_primes():
    a = {e.prime for e in dense_atom_monoid(1, 8).entries}
    b = {e.prime for e in dense_atom_monoid(2, 8).entries}
    c = {e.prime for e in dense_atom_monoid(3, 8).entries}
    assert not (a & b) and not (a & c) and not (b & c)


def test_dense_atom_monoid_explicit_targets():
    targets = ExplicitTargets((F(1, 2), F(7, 3)))
    made = dense_atom_monoid(1, 2, targets)
    assert [e.target for e in made.entries] == [F(1, 2), F(7, 3)]
    for e in made.entries:
        assert abs(e.target - e.atom) < F(1, e.k)


def test_dense_atom_monoid_rejects_bad_inputs():
    with pytest.raises(BadIndex):
        dense_atom_monoid(0, 5)
    with pytest.raises(NonPositive):
        dense_atom_monoid(1, -1)


def _outcome(build, *args):
    try:
        return build(*args)
    except BadIndex as exc:
        return type(exc), str(exc)


_TARGET_LISTS = st.lists(
    st.builds(F, st.integers(1, 10**6), st.integers(1, 10**6)), max_size=60
).map(lambda values: ExplicitTargets(tuple(values)))


@given(st.integers(1, 6), st.one_of(st.none(), _TARGET_LISTS), st.booleans(), st.data())
def test_dense_atom_monoid_matches_the_per_index_loop(class_index, targets, past_the_end, data):
    # An explicit list is read within its length, or with a count up to
    # 400 that mostly runs past its end, where both builds must refuse
    # with the same BadIndex message.
    most = len(targets.values) if targets is not None and not past_the_end else 400
    count = data.draw(st.integers(0, most))
    got = _outcome(dense_atom_monoid, class_index, count, targets)
    want = _outcome(old_dense_atom_monoid, class_index, count, targets)
    assert got == want
    if not isinstance(got, tuple):
        assert got.as_mapping() == want.as_mapping()


def test_dense_atom_monoid_refuses_primes_past_the_cache_bound():
    # Position 2^5 * (2 * 1563 - 1) = 100,000 is the last the cache may
    # reach; one more class-6 prime is refused before the cache grows.
    with pytest.raises(NotFoundWithinLimit, match="100064 is past the bound 100000"):
        dense_atom_monoid(6, 1564)
    with pytest.raises(NotFoundWithinLimit, match="549755813888 is past the bound 100000"):
        dense_atom_monoid(40, 1)
    # The primes are asked for before the targets, so a target list too
    # short is refused for the prime position too.
    with pytest.raises(NotFoundWithinLimit, match="549755813888 is past the bound 100000"):
        dense_atom_monoid(40, 1, ExplicitTargets(()))


def test_dense_atom_monoid_refusal_leaves_the_calkin_wilf_prefix():
    # Class-1 position 2 * 60000 - 1 is past the bound: refused before
    # the shared prefix of targets grows to 60,000 terms.
    with mock.patch.object(families, "_CALKIN_WILF", [F(1)]):
        with pytest.raises(NotFoundWithinLimit, match="119999 is past the bound 100000"):
            dense_atom_monoid(1, 60_000)
        assert families._CALKIN_WILF == [F(1)]


# ---------------------------------------------------------------------------
# k-primary antimatter witnesses


def test_kprimary_witness_two_primes():
    w = kprimary_antimatter_witness((2, 3))
    p, q = w.primes
    assert (p, q) == (2, 3)
    # The defining identity with both auxiliary primes.
    assert w.p_prime * w.q_prime == w.m * q * w.q_prime + w.n * p * w.p_prime + p * q
    assert is_prime(w.p_prime) and is_prime(w.q_prime)
    assert w.p_prime > max(w.primes)
    assert w.decomposition.evaluate() == w.target
    assert w.target == F(1, p * q)


def test_kprimary_witness_minimality():
    w = kprimary_antimatter_witness((2, 3))
    # m is the least multiplier making m*q + p prime and large enough.
    for smaller in range(1, w.m):
        candidate = smaller * w.primes[1] + w.primes[0]
        assert not (is_prime(candidate) and candidate > max(w.primes))
    for smaller in range(1, w.n):
        candidate = smaller * w.p_prime + w.primes[1]
        assert not is_prime(candidate)


def test_kprimary_witness_three_primes():
    w = kprimary_antimatter_witness((2, 3, 5))
    assert w.primes == (2, 3, 5)
    assert w.decomposition.evaluate() == w.target
    # Every atom in the decomposition has a squarefree 3-prime denominator.
    for atom, _ in w.decomposition.terms:
        assert atom.numerator == 1


def test_kprimary_witness_rejects_bad_inputs():
    with pytest.raises(NonPositive):
        kprimary_antimatter_witness((5,))
    with pytest.raises(NonPositive):
        kprimary_antimatter_witness((3, 3))


def test_kprimary_witness_search_limit():
    # m = 1 gives p' = 5; 1*5 + 3 = 8 is not prime, so the n-search refuses.
    with pytest.raises(NotFoundWithinLimit, match=r"^no prime of the form 3 \+ k\*5 for k <= 1$"):
        kprimary_antimatter_witness((2, 3), search_limit=1)
    # No m up to the limit clears the largest prime (1*3 + 2 < 7): refused
    # up front, naming m.
    with pytest.raises(
        NotFoundWithinLimit, match=r"^no prime of the form m\*3 \+ 2 above 7 with m <= 1$"
    ):
        kprimary_antimatter_witness((2, 3, 7), search_limit=1)
    # Some m clears it, but none gives a prime (5 + 3 = 8): the m-search
    # progression refuses in prime_in_progression's words.
    with pytest.raises(NotFoundWithinLimit, match=r"^no prime of the form 3 \+ k\*5 for k <= 1$"):
        kprimary_antimatter_witness((3, 5), search_limit=1)


def test_kprimary_witness_passes_the_primality_bound_refusal_through():
    # q is the largest prime below _MR_BOUND, so every m*q + 2 with m >= 2
    # lies past it; the first that passes Miller-Rabin (m = 85) is refused
    # by is_prime, whose text reaches the caller as it did from the loops.
    q = 318665857834031151167441
    assert is_prime(q)
    with pytest.raises(NotFoundWithinLimit) as got:
        kprimary_antimatter_witness((2, q))
    with pytest.raises(NotFoundWithinLimit) as want:
        old_kprimary_antimatter_witness((2, q))
    assert "passes every Miller-Rabin base" in str(got.value)
    assert str(got.value) == str(want.value)


def _witness_outcome(search, primes, search_limit):
    try:
        w = search(primes, search_limit)
    except NotFoundWithinLimit as exc:
        # The up-front refusal, where no m up to the limit clears the
        # largest prime, keeps its text. Both progressions' refusals now
        # have prime_in_progression's wording, so only their type is
        # pinned.
        return str(exc) if str(exc).startswith("no prime of the form m*") else type(exc)
    return w.m, w.p_prime, w.n, w.q_prime


@given(
    st.lists(st.sampled_from(FIRST_60_PRIMES), min_size=2, max_size=4, unique=True),
    st.sampled_from([1, 2, 3, 5, 10, 40, 10**5]),
)
def test_kprimary_witness_matches_the_loops(primes, search_limit):
    # Both progressions stepped by prime_in_progression give the least
    # m and n the loops over m and n found, and refuse where they did.
    got = _witness_outcome(kprimary_antimatter_witness, tuple(primes), search_limit)
    want = _witness_outcome(old_kprimary_antimatter_witness, tuple(primes), search_limit)
    if isinstance(want, str) and not isinstance(got, str):
        # The loops named m where the m-search progression ran out.
        want = NotFoundWithinLimit
    assert got == want


# ---------------------------------------------------------------------------
# sum-of-reciprocals atom checks


def test_sum_atom_check_examples():
    assert sum_kprimary_atom_check(2, (1, 2), 4) is True
    assert sum_kprimary_atom_check(1, (1,), 3) is True
    assert sum_kprimary_atom_check(2, (1, 2), 2) is True


def test_sum_atom_check_agrees_with_brute_count():
    from math import comb

    from puiseux.families import SumKPrimary
    from oracles import brute_rational_factorizations

    cases = [(2, (1, 2), 4), (2, (1, 3), 4), (2, (3, 4), 4), (1, (2,), 4)]
    for k, indices, max_index in cases:
        value = sum(F(1, nth_prime(i)) for i in indices)
        monoid = truncate(SumKPrimary(k), comb(max_index, k))
        count = len(brute_rational_factorizations(monoid.atoms(), value))
        assert sum_kprimary_atom_check(k, indices, max_index) == (count == 1), (
            k,
            indices,
            max_index,
        )


def test_sum_atom_check_is_atom_membership():
    from math import comb

    from puiseux.families import SumKPrimary
    from oracles import brute_atoms

    cases = [(2, (1, 2), 4), (2, (2, 4), 5), (3, (1, 2, 3), 5), (3, (2, 4, 5), 5)]
    for k, indices, max_index in cases:
        value = sum(F(1, nth_prime(i)) for i in indices)
        monoid = truncate(SumKPrimary(k), comb(max_index, k))
        assert sum_kprimary_atom_check(k, indices, max_index) == (
            value in brute_atoms(monoid.generators)
        ), (k, indices, max_index)


def test_sum_atom_check_matches_the_truncation_atoms():
    # The reference is the predicate the check used before: membership
    # in atoms() of the whole truncation.
    from itertools import combinations
    from math import comb

    from puiseux.families import SumKPrimary

    for k in (2, 3):
        for max_index in range(k, 9):
            atoms = set(truncate(SumKPrimary(k), comb(max_index, k)).atoms())
            for indices in combinations(range(1, max_index + 1), k):
                value = sum(F(1, nth_prime(i)) for i in indices)
                assert sum_kprimary_atom_check(k, indices, max_index) == (value in atoms), (
                    k,
                    indices,
                    max_index,
                )


def test_sum_atom_check_validation():
    with pytest.raises(NonPositive):
        sum_kprimary_atom_check(0, (), 3)
    with pytest.raises(NonPositive):
        sum_kprimary_atom_check(2, (1,), 4)
    with pytest.raises(BadIndex):
        sum_kprimary_atom_check(2, (1, 5), 4)
    with pytest.raises(BadIndex):
        sum_kprimary_atom_check(2, (0, 1), 4)


def test_partitioned_blocks_stay_atoms():
    m = truncate(PartitionedKPrimary(2), 5)
    assert set(m.atoms()) == set(m.generators)


# ---------------------------------------------------------------------------
# one-prime denominator candidate atoms


def test_padic_atoms_strictly_decreasing_example():
    spec = PAdic(2, GeometricSeq(1, 3), AffineSeq(2, 0))
    report = padic_candidate_atoms(spec, 5)
    assert report.kept == (1, 2, 3, 4, 5)
    assert report.exclusions == ()


def test_padic_atoms_with_an_excluded_index():
    spec = PAdic(2, ExplicitSeq((9, 3), GeometricSeq(1, 3)), AffineSeq(1, 0))
    report = padic_candidate_atoms(spec, 4)
    assert report.kept == (2, 3, 4)
    assert len(report.exclusions) == 1
    exc = report.exclusions[0]
    assert exc.index == 1
    assert exc.kept_index == 2
    assert exc.coefficient == 6
    assert generator_at(spec, 1) == 6 * generator_at(spec, 2)


def test_padic_atoms_with_a_numerator_prime_past_the_cache():
    # 1,299,721 is the first prime past the prime cache; the numerators
    # are powers of its square, which trial division cannot settle.
    spec = PAdic(2, GeometricSeq(1, 1_299_721**2), AffineSeq(2, 0))
    report = padic_candidate_atoms(spec, 3)
    assert report.kept == (1, 2, 3)
    assert report.exclusions == ()


def test_padic_atoms_refuses_an_undecided_numerator_base():
    # The least odd n from the Miller-Rabin bound up that passes every
    # base: is_prime's refusal reaches the caller, not a refutation.
    n = arith._MR_BOUND | 1
    while True:
        try:
            is_prime(n)
        except NotFoundWithinLimit:
            break
        n += 2
    spec = PAdic(3, GeometricSeq(1, n), AffineSeq(50, 0))
    with pytest.raises(NotFoundWithinLimit, match="passes every Miller-Rabin base"):
        padic_candidate_atoms(spec, 3)
    # A numerator of 6 refutes the hypothesis whatever n is.
    spec = PAdic(2, ExplicitSeq((6, n), GeometricSeq(1, 3)), AffineSeq(2, 0))
    with pytest.raises(HypothesisViolated, match="not all powers of one prime"):
        padic_candidate_atoms(spec, 3)


def test_padic_atoms_rejects_bounded_numerators():
    spec = PAdic(2, GeometricSeq(3, 1), AffineSeq(1, 0))
    with pytest.raises(HypothesisViolated):
        padic_candidate_atoms(spec, 3)


def test_padic_atoms_rejects_base_clash_with_denominator():
    spec = PAdic(3, GeometricSeq(1, 3), AffineSeq(2, 0))
    with pytest.raises(HypothesisViolated):
        padic_candidate_atoms(spec, 3)


def test_padic_kept_indices_resist_truncation_membership():
    spec = PAdic(2, ExplicitSeq((9, 3), GeometricSeq(1, 3)), AffineSeq(1, 0))
    report = padic_candidate_atoms(spec, 4)
    gens = [generator_at(spec, n) for n in range(1, 5)]
    for i in report.kept:
        others = tuple(g for n, g in enumerate(gens, start=1) if n != i)
        assert not FgMonoid(others).contains(gens[i - 1])
    for exc in report.exclusions:
        assert FgMonoid(
            tuple(g for n, g in enumerate(gens, start=1) if n != exc.index)
        ).contains(gens[exc.index - 1])


@given(
    p=st.sampled_from((2, 3, 5, 7)),
    q=st.sampled_from((2, 3, 5, 7)),
    powers=st.lists(st.integers(0, 6), min_size=1, max_size=6),
    tail_power=st.integers(0, 3),
    slope=st.integers(1, 3),
    offset=st.integers(0, 3),
)
def test_padic_exclusion_coefficients_match_the_valuation_formula(
    p, q, powers, tail_power, slope, offset
):
    assume(p != q)
    nums = ExplicitSeq(tuple(q**e for e in powers), GeometricSeq(q**tail_power, q))
    spec = PAdic(p, nums, AffineSeq(slope, offset))
    prefix = len(powers) + 2
    report = padic_candidate_atoms(spec, prefix)
    excluded = {exc.index for exc in report.exclusions}
    assert sorted(excluded | set(report.kept)) == list(range(1, prefix + 1))
    alpha = spec.exponents
    for exc in report.exclusions:
        i, m = exc.index, exc.kept_index
        assert exc.coefficient == padic_exclusion_coefficient(
            p, alpha.value_at(i), alpha.value_at(m), q, nums.value_at(i), nums.value_at(m)
        )
        assert generator_at(spec, i) == exc.coefficient * generator_at(spec, m)


# ---------------------------------------------------------------------------
# non-isomorphism certificates


def test_noniso_finite_supports():
    cert = disjoint_prime_noniso(PowerDenominator(2), PowerDenominator(3))
    assert cert is not None
    assert disjoint_prime_noniso(PowerDenominator(2), PowerDenominator(2)) is None


def test_noniso_congruence_classes():
    a = ElementaryPrimary(CongruencePrimes(1, 4))
    b = ElementaryPrimary(CongruencePrimes(3, 4))
    cert = disjoint_prime_noniso(a, b)
    assert cert is not None
    # Same class on both sides: no separation.
    assert disjoint_prime_noniso(a, a) is None
    # 1 mod 4 and 1 mod 8 can share primes.
    c = ElementaryPrimary(CongruencePrimes(1, 8))
    assert disjoint_prime_noniso(a, c) is None


def test_noniso_partition_classes():
    a = ElementaryPrimary(PartitionClassPrimes(1))
    b = ElementaryPrimary(PartitionClassPrimes(2))
    assert disjoint_prime_noniso(a, b) is not None
    assert disjoint_prime_noniso(a, a) is None


def test_noniso_mixed_kinds():
    assert (
        disjoint_prime_noniso(
            PowerDenominator(7), ElementaryPrimary(CongruencePrimes(1, 4))
        )
        is not None
    )
    # 5 is 1 mod 4, so the supports meet.
    assert (
        disjoint_prime_noniso(
            PowerDenominator(5), ElementaryPrimary(CongruencePrimes(1, 4))
        )
        is None
    )
    assert disjoint_prime_noniso(PowerDenominator(2), ElementaryPrimary()) is None


def test_noniso_needs_descriptors_on_both_sides():
    assert disjoint_prime_noniso(Cyclic(F(2, 3)), HalfPrime()) is None
    assert disjoint_prime_noniso(PowerDenominator(2), HalfPrime()) is None
    # Finitely generated specs give no support, never an empty one: both
    # monoids are isomorphic to the naturals.
    assert disjoint_prime_noniso(Cyclic(F(2)), Cyclic(F(3))) is None
    assert disjoint_prime_noniso(GeneralizedCyclic((F(2), F(3))), ExplicitList((F(5),))) is None
    # Numerators divisible by p give no support: 3^n / 3^n and 5^n / 5^n
    # are 1 for every n, so both monoids are the naturals.
    padic3 = PAdic(3, GeometricSeq(1, 3), AffineSeq(1, 0))
    padic5 = PAdic(5, GeometricSeq(1, 5), AffineSeq(1, 0))
    assert {generator_at(spec, n) for spec in (padic3, padic5) for n in range(1, 6)} == {1}
    assert disjoint_prime_noniso(padic3, padic5) is None


def test_noniso_cyclic_families():
    cert = disjoint_prime_noniso(Cyclic(F(2, 3)), GeneralizedCyclic((F(3, 5), F(7, 4))))
    assert cert.support_a == {"kind": "finite", "primes": [3]}
    assert cert.support_b == {"kind": "finite", "primes": [2, 5]}
    assert disjoint_prime_noniso(Cyclic(F(2, 3)), GeneralizedCyclic((F(1, 3), F(5)))) is None
    assert disjoint_prime_noniso(Cyclic(F(1, 3)), ElementaryPrimary(CongruencePrimes(1, 4))) is not None


def test_noniso_certificate_mapping():
    cert = disjoint_prime_noniso(PowerDenominator(2), PowerDenominator(3))
    m = cert.as_mapping()
    assert set(m) == {"support_a", "support_b", "reason"}
