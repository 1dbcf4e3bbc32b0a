import itertools
import json
import math
import random
from fractions import Fraction
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

from puiseux import arith, families
from puiseux.arith import is_prime, nth_odd_prime, nth_prime, prime_index
from puiseux.cyclic import (
    CyclicFactorization,
    cyclic_contains,
    cyclic_factorizations,
    cyclic_trade,
    generalized_cyclic_embed,
)
from puiseux.errors import BadIndex, BadProgression, NonPositive, NotFoundWithinLimit, NotPrime, ParseError
from puiseux.families import (
    AffineSeq,
    AllPrimes,
    BfNotFf,
    CalkinWilfTargets,
    ClassificationReport,
    CongruencePrimes,
    Cyclic,
    ElementaryKPrimary,
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
    PlusMinusPowers,
    PowerDenominator,
    SumKPrimary,
    TwoAdicOddPrime,
    classify,
    colex_subset,
    class_prime,
    class_primes,
    family_from_mapping,
    generator_at,
    partition_class_of_index,
    rule_statement,
    sequence_from_mapping,
    stream_from_mapping,
    targets_from_mapping,
    truncate,
)
from puiseux.monoid import Factorization, FgMonoid
from puiseux.semigroup import NumericalSemigroup
from puiseux.witnesses import approximate, dense_atom_monoid

from conftest import run_cli
from oracles import OldReport, naive_factor, old_classify, old_colex_subset, sieve_primes, subset_in_colex
from test_json import FAMILIES

F = Fraction


# ---------------------------------------------------------------------------
# sequences


def test_constant_sequence():
    s = GeometricSeq(3, 1)
    assert [s.value_at(n) for n in (1, 5, 100)] == [3, 3, 3]
    assert not s.tends_to_infinity()
    assert s.prime_power_base() == 3
    assert s.coprime_to(2) and not s.coprime_to(3)


def test_power_and_geometric_sequences():
    s = GeometricSeq(1, 3)
    assert [s.value_at(n) for n in (1, 2, 3)] == [3, 9, 27]
    assert s.tends_to_infinity() and s.is_strictly_increasing()
    assert s.prime_power_base() == 3
    g = GeometricSeq(9, 3)
    assert [g.value_at(n) for n in (1, 2)] == [27, 81]
    assert g.prime_power_base() == 3
    assert GeometricSeq(2, 3).prime_power_base() is None


def test_affine_sequence():
    s = AffineSeq(2, 0)
    assert [s.value_at(n) for n in (1, 2, 3)] == [2, 4, 6]
    assert s.tends_to_infinity()
    assert AffineSeq(0, 7).prime_power_base() == 7
    assert AffineSeq(1, 1).prime_power_base() is None
    with pytest.raises(NonPositive):
        AffineSeq(0, 0)


def test_explicit_sequence_with_tail():
    s = ExplicitSeq((9, 3), GeometricSeq(1, 3))
    assert [s.value_at(n) for n in (1, 2, 3, 4)] == [9, 3, 27, 81]
    assert s.tends_to_infinity()
    assert not s.is_strictly_increasing()
    assert s.min_from(2) == 3
    assert s.min_from(3) == 27
    assert s.prime_power_base() == 3


def test_prime_power_base_past_the_prime_cache():
    # 1,299,721 is the first prime past 1,299,709, the last the prime
    # cache may hold, so trial division cannot settle its square; the
    # exact square root does.
    p = 1_299_721
    assert GeometricSeq(1, p**2).prime_power_base() == p
    assert GeometricSeq(p**3, p).prime_power_base() == p
    assert ExplicitSeq((p**5,), GeometricSeq(1, p)).prime_power_base() == p
    assert GeometricSeq(1, p * 1_299_743).prime_power_base() is None
    assert GeometricSeq(1, (p * 1_299_743) ** 2).prime_power_base() is None
    assert GeometricSeq(1, 2**300).prime_power_base() == 2
    assert GeometricSeq(1, 6**7).prime_power_base() is None


def test_prime_power_base_matches_factoring():
    for v in range(1, 3000):
        factors = naive_factor(v)
        want = 1 if v == 1 else next(iter(factors)) if len(factors) == 1 else None
        assert arith._prime_power_base_int(v) == want, v
    rng = random.Random(3)
    for _ in range(200):
        v, e = rng.randint(2, 10**6), rng.randint(2, 40)
        assert arith._integer_root(v**e, e) == v
        assert arith._integer_root(v**e - 1, e) == v - 1
        assert arith._integer_root(v**e + 1, e) == v


def test_explicit_sequence_without_tail_is_finite():
    s = ExplicitSeq((5, 8))
    assert s.value_at(2) == 8
    with pytest.raises(BadIndex):
        s.value_at(3)


def test_sequence_mappings_round_trip():
    for s in (
        GeometricSeq(4, 1),
        GeometricSeq(1, 3),
        GeometricSeq(2, 5),
        AffineSeq(2, 1),
        ExplicitSeq((9, 3), GeometricSeq(1, 3)),
        ExplicitSeq((5, 8)),
    ):
        assert sequence_from_mapping(s.as_mapping()) == s
    # constant and power are the shorthands GeometricSeq writes when they fit.
    assert GeometricSeq(4, 1).as_mapping() == {"kind": "constant", "value": 4}
    assert GeometricSeq(1, 3).as_mapping() == {"kind": "power", "base": 3}


def test_nested_explicit_tail_flattens():
    # A nested tail's listed values count only past the outer prefix, so
    # the 9 and 1 below are never taken and the sequence increases.
    s = ExplicitSeq((1, 2, 3), ExplicitSeq((9, 1), GeometricSeq(1, 3)))
    assert [s.value_at(n) for n in range(1, 6)] == [1, 2, 3, 81, 243]
    assert s == ExplicitSeq((1, 2, 3), GeometricSeq(1, 3))
    assert s.is_strictly_increasing()
    assert PAdic(2, GeometricSeq(1, 1), s).exponents == s
    nested = {
        "kind": "explicit",
        "values": [9],
        "then": {"kind": "explicit", "values": [1, 3], "then": {"kind": "power", "base": 3}},
    }
    assert sequence_from_mapping(nested).as_mapping() == {
        "kind": "explicit",
        "values": [9, 3],
        "then": {"kind": "power", "base": 3},
    }


HIDDEN_FINITE_NUMERATORS = {
    "family": "p-adic",
    "p": 2,
    "numerators": {"kind": "explicit", "values": [9], "then": {"kind": "explicit", "values": [1, 3]}},
    "exponents": {"kind": "affine-exponent", "a": 1, "b": 0},
}


def test_finite_sequence_behind_a_nested_tail_is_refused():
    s = ExplicitSeq((9,), ExplicitSeq((1, 3)))
    assert s == ExplicitSeq((9, 3)) and s.finite
    with pytest.raises(NonPositive, match="the numerator sequence must be infinite"):
        PAdic(2, s, AffineSeq(1, 0))
    with pytest.raises(NonPositive, match="the numerator sequence must be infinite"):
        family_from_mapping(HIDDEN_FINITE_NUMERATORS)


def test_overshadowed_tail_values_leave_classification_alone():
    # 3, 1, 1, ...: the nested tail's 2 is never taken.
    nested = PAdic(2, ExplicitSeq((3,), ExplicitSeq((2, 1), GeometricSeq(1, 1))), AffineSeq(1, 0))
    flat = PAdic(2, ExplicitSeq((3, 1), GeometricSeq(1, 1)), AffineSeq(1, 0))
    assert nested == flat
    assert classify(nested).atomic == "no"
    assert classify(nested) == classify(flat)


# ---------------------------------------------------------------------------
# prime streams and partition classes


def test_partition_classes_tile_the_indices():
    # Every index lands in exactly one class, 2^(j-1) * (2t - 1).
    seen = {}
    for n in range(1, 65):
        j, t = partition_class_of_index(n)
        assert n == 2 ** (j - 1) * (2 * t - 1)
        seen.setdefault(j, []).append(t)
    for j, ts in seen.items():
        assert ts == list(range(1, len(ts) + 1)), j


def test_class_prime_values():
    assert class_prime(1, 1) == nth_prime(1) == 2
    assert class_prime(1, 2) == nth_prime(3) == 5
    assert class_prime(2, 1) == nth_prime(2) == 3
    assert class_prime(3, 1) == nth_prime(4) == 7


def test_class_primes_are_one_stride_of_class_prime():
    for j in range(1, 9):
        assert class_primes(j, 0) == []
        got = class_primes(j, 300)
        assert got == [class_prime(j, t) for t in range(1, 301)], j
        for count in (1, 2, 3, 299):
            assert class_primes(j, count) == got[:count], (j, count)


def test_class_primes_refuses_bad_input_and_the_cache_bound():
    with pytest.raises(BadIndex):
        class_primes(0, 3)
    with pytest.raises(NonPositive):
        class_primes(1, -1)
    cached = len(arith._PRIME_CACHE)
    with pytest.raises(NotFoundWithinLimit, match="549755813888 is past the bound 100000"):
        class_primes(40, 1)
    with pytest.raises(NotFoundWithinLimit, match="100001 is past the bound 100000"):
        nth_prime(100_001)
    assert len(arith._PRIME_CACHE) == cached


def test_congruence_primes():
    stream = CongruencePrimes(1, 4)
    got = [stream.prime_at(n) for n in range(1, 6)]
    want = [p for p in sieve_primes(200) if p % 4 == 1][:5]
    assert got == want
    with pytest.raises(BadProgression):
        CongruencePrimes(2, 4)


def test_congruence_primes_any_order(monkeypatch):
    # Start from an empty class cache, so the shuffled calls grow it in
    # jumps and the descending calls then extend a partial list.
    monkeypatch.setattr(families, "_CLASS_PRIMES", {})
    rng = random.Random(59)
    for residue, modulus in ((1, 4), (3, 4), (2, 9), (7, 10)):
        want = [p for p in map(nth_prime, range(1, 1000)) if p % modulus == residue]
        shuffled, descending = CongruencePrimes(residue, modulus), CongruencePrimes(residue, modulus)
        order = list(range(1, 61))
        rng.shuffle(order)
        for n in order:
            assert shuffled.prime_at(n) == want[n - 1], (residue, modulus, n)
        for n in range(120, 0, -1):
            assert descending.prime_at(n) == want[n - 1], (residue, modulus, n)


# Every class of primes mod 2..30 whose residue is coprime to the
# modulus, with its first 200 primes: mod 29 the 200th prime of class 1
# lies below 100,000.
PRIMES_TO_100000 = sieve_primes(100_000)
CLASS_PRIMES = {
    (r, m): [p for p in PRIMES_TO_100000 if p % m == r][:200]
    for m in range(2, 31)
    for r in range(m)
    if math.gcd(r, m) == 1
}


@settings(max_examples=3)
@given(st.integers(0, 2**32))
def test_congruence_primes_match_the_oracle_in_every_class(seed):
    # From an empty class cache, every class is read at n = 1..200 in an
    # order shuffled from the drawn seed: the first read grows the class
    # in one jump, later ones read or extend it.
    rng = random.Random(seed)
    with mock.patch.object(families, "_CLASS_PRIMES", {}):
        for (residue, modulus), want in CLASS_PRIMES.items():
            assert len(want) == 200, (residue, modulus)
            stream = CongruencePrimes(residue, modulus)
            order = list(range(1, 201))
            rng.shuffle(order)
            for n in order:
                assert stream.prime_at(n) == want[n - 1], (residue, modulus, n)


@given(st.lists(st.tuples(st.sampled_from(sorted(CLASS_PRIMES)), st.integers(1, 200)), max_size=40))
def test_congruence_primes_interleaved_across_classes(reads):
    # Fresh streams of several classes, read in an interleaved drawn order.
    with mock.patch.object(families, "_CLASS_PRIMES", {}):
        for (residue, modulus), n in reads:
            assert CongruencePrimes(residue, modulus).prime_at(n) == CLASS_PRIMES[residue, modulus][n - 1]


def test_congruence_primes_step_a_sparse_class_within_a_bound(monkeypatch):
    # The primes 1 + k*1000003 sit at k = 36, 64, 72, 84 and 150: 36,
    # 28, 8, 12 and 66 steps past the one before.
    monkeypatch.setattr(families, "_CLASS_PRIMES", {})
    monkeypatch.setattr(families, "_CLASS_STEP_BOUND", 35)
    stream = CongruencePrimes(1, 1000003)
    with pytest.raises(NotFoundWithinLimit, match=r"1 \+ k\*1000003 for k <= 35"):
        stream.prime_at(1)
    monkeypatch.setattr(families, "_CLASS_STEP_BOUND", 36)
    assert [stream.prime_at(n) for n in (1, 2, 3, 4)] == [36000109, 64000193, 72000217, 84000253]
    with pytest.raises(NotFoundWithinLimit, match=r"84000253 \+ k\*1000003 for k <= 36"):
        stream.prime_at(5)


def test_congruence_primes_refuse_a_position_past_the_prime_cache_bound():
    # The class's n-th prime is never below the n-th prime, which
    # nth_prime refuses past the same bound; the class list keeps its length.
    stream = CongruencePrimes(1, 4)
    stream.prime_at(10)
    cached = len(families._CLASS_PRIMES[1, 4])
    with pytest.raises(NotFoundWithinLimit, match="position 100001 is past the bound 100000"):
        stream.prime_at(arith._PRIME_INDEX_BOUND + 1)
    assert len(families._CLASS_PRIMES[1, 4]) == cached
    assert stream.prime_at(10) == 89


def test_partition_class_primes():
    stream = PartitionClassPrimes(1)
    # Class 1 holds the primes at odd positions.
    assert [stream.prime_at(n) for n in (1, 2, 3)] == [
        nth_prime(1),
        nth_prime(3),
        nth_prime(5),
    ]
    streams = [PartitionClassPrimes(j) for j in (1, 2, 3)]
    drawn = [{s.prime_at(n) for n in range(1, 6)} for s in streams]
    assert not (drawn[0] & drawn[1]) and not (drawn[0] & drawn[2])
    assert not (drawn[1] & drawn[2])


def test_all_primes_stream():
    s = AllPrimes()
    assert [s.prime_at(n) for n in range(1, 6)] == [2, 3, 5, 7, 11]


# ---------------------------------------------------------------------------
# colexicographic subsets, target sequences


def test_colex_subsets_enumerate_in_order():
    for k in (2, 3):
        want = subset_in_colex(8, k)
        got = [colex_subset(rank, k) for rank in range(1, len(want) + 1)]
        assert got == want, k


@given(st.integers(1, 20_000), st.integers(1, 6))
def test_colex_subset_matches_the_linear_unranking(rank, k):
    assert colex_subset(rank, k) == old_colex_subset(rank, k)


@given(st.integers(1, 10**40), st.integers(1, 8))
def test_colex_subset_unranks_huge_ranks(rank, k):
    # Far past what stepping c by one reaches: rank - 1 is the sum of
    # binom(c_j - 1, j) over the strictly increasing c_1 < ... < c_k.
    got = colex_subset(rank, k)
    assert len(got) == k and 1 <= got[0] and all(a < b for a, b in zip(got, got[1:]))
    assert sum(math.comb(c - 1, j) for j, c in enumerate(got, start=1)) == rank - 1


def test_calkin_wilf_targets():
    t = CalkinWilfTargets()
    first = [t.value_at(n) for n in range(1, 8)]
    assert first == [F(1), F(1, 2), F(2), F(1, 3), F(3, 2), F(2, 3), F(3)]
    # Distinct positive rationals; the walk never repeats.
    seen = {t.value_at(n) for n in range(1, 201)}
    assert len(seen) == 200
    assert all(q > 0 for q in seen)
    # Agreement with Newman's map q -> 1/(2*floor(q) - q + 1).
    q = F(1)
    for n in range(1, 2001):
        assert t.value_at(n) == q, n
        q = 1 / (2 * math.floor(q) - q + 1)
    # Closed forms along the leftmost and rightmost paths of the tree.
    k = 200
    assert t.value_at(2**k) == F(1, k + 1)
    assert t.value_at(2**k - 1) == F(k)


def test_calkin_wilf_first_lists_value_at():
    t = CalkinWilfTargets()
    want = [t.value_at(n) for n in range(1, 5001)]
    assert t.first(5000) == want
    for count in range(0, 40):
        assert t.first(count) == want[:count]
    with pytest.raises(NonPositive):
        t.first(-1)


CALKIN_WILF = [CalkinWilfTargets().value_at(n) for n in range(1, 601)]


@given(st.lists(st.integers(0, 600), max_size=8))
def test_calkin_wilf_first_reads_a_shared_prefix(counts):
    # From a one-term prefix, grown by counts in the drawn order; the
    # caller owns each returned list.
    with mock.patch.object(families, "_CALKIN_WILF", [F(1)]):
        for count in counts:
            got = CalkinWilfTargets().first(count)
            assert got == CALKIN_WILF[:count], count
            got.append(F(5))
            got[0] = F(7)
        assert families._CALKIN_WILF == CALKIN_WILF[: max([1, *counts])]


def test_explicit_targets():
    t = ExplicitTargets((F(1, 2), F(5)))
    assert t.value_at(2) == F(5)
    with pytest.raises(BadIndex):
        t.value_at(3)
    assert [t.first(n) for n in (0, 1, 2)] == [[], [F(1, 2)], [F(1, 2), F(5)]]
    with pytest.raises(BadIndex, match="only 2 targets are listed"):
        t.first(3)
    with pytest.raises(NonPositive):
        t.first(-1)
    assert targets_from_mapping(t.as_mapping()) == t
    assert t.as_mapping()["values"] == ["1/2", "5"]


# ---------------------------------------------------------------------------
# family generators


def test_power_denominator_generators():
    spec = PowerDenominator(3)
    assert [generator_at(spec, n) for n in (1, 2, 3)] == [F(1, 3), F(1, 9), F(1, 27)]
    with pytest.raises(NotPrime):
        PowerDenominator(4)


def test_half_prime_generators():
    spec = HalfPrime()
    assert [generator_at(spec, n) for n in range(1, 6)] == [
        F(1, 2),
        F(1, 3),
        F(2, 5),
        F(3, 7),
        F(5, 11),
    ]


def test_two_adic_odd_prime_generators():
    spec = TwoAdicOddPrime()
    assert [generator_at(spec, n) for n in (1, 2, 3)] == [
        F(1, 6),
        F(1, 20),
        F(1, 56),
    ]
    # The submonoid relation that breaks heredity: 1/2^n = p_n * gen_n.
    for n in range(1, 8):
        assert F(1, 2**n) == (generator_at(spec, n) * nth_prime(n + 1))


def test_elementary_primary_generators():
    spec = ElementaryPrimary()
    assert [generator_at(spec, n) for n in (1, 2, 3)] == [F(1, 2), F(1, 3), F(1, 5)]
    spec14 = ElementaryPrimary(CongruencePrimes(1, 4))
    assert generator_at(spec14, 1) == F(1, 5)


def test_elementary_k_primary_generators():
    spec = ElementaryKPrimary(2)
    assert [generator_at(spec, n) for n in (1, 2, 3, 4)] == [
        F(1, 6),
        F(1, 10),
        F(1, 15),
        F(1, 14),
    ]
    denominators = {generator_at(spec, n).denominator for n in range(1, 11)}
    assert len(denominators) == 10


def test_partitioned_k_primary_generators():
    spec = PartitionedKPrimary(2)
    assert [generator_at(spec, n) for n in (1, 2, 3)] == [
        F(1, 6),
        F(1, 35),
        F(1, 143),
    ]
    # A block before the first prime is refused, not read as empty.
    with pytest.raises(NonPositive):
        spec.generator(0)


def test_sum_k_primary_generators():
    spec = SumKPrimary(2)
    assert [generator_at(spec, n) for n in (1, 2, 3)] == [
        F(5, 6),
        F(7, 10),
        F(8, 15),
    ]


def test_padic_generators():
    spec = PAdic(2, GeometricSeq(1, 3), AffineSeq(2, 0))
    assert [generator_at(spec, n) for n in (1, 2, 3)] == [
        F(3, 4),
        F(9, 16),
        F(27, 64),
    ]
    with pytest.raises(NotPrime):
        PAdic(6, GeometricSeq(1, 3), AffineSeq(2, 0))


def test_plus_minus_generators_and_identities():
    spec = PlusMinusPowers(3)
    assert generator_at(spec, 1) == F(8, 81)
    assert generator_at(spec, 2) == F(10, 81)
    assert generator_at(spec, 3) == F(80, 6561)
    for level in (1, 2, 3):
        s = 3 ** (2**level)
        minus = generator_at(spec, 2 * level - 1)
        plus = generator_at(spec, 2 * level)
        assert minus + plus == F(2, s)
        assert minus == (s - 1) // 2 * F(2, s * s)
        assert plus == (s + 1) // 2 * F(2, s * s)
    with pytest.raises(NotPrime):
        PlusMinusPowers(4)
    with pytest.raises(NotPrime):
        PlusMinusPowers(2)


def test_cyclic_generators():
    spec = Cyclic(F(2, 3))
    assert [generator_at(spec, n) for n in (1, 2, 3)] == [
        F(2, 3),
        F(4, 9),
        F(8, 27),
    ]


def test_generalized_cyclic_generators():
    spec = GeneralizedCyclic((F(2, 5), F(4, 7)))
    assert [generator_at(spec, n) for n in (1, 2, 3, 4)] == [
        F(2, 5),
        F(4, 7),
        F(4, 25),
        F(16, 49),
    ]


def test_bf_not_ff_generators():
    spec = BfNotFf()
    assert [generator_at(spec, n) for n in range(1, 7)] == [
        F(1, 3),
        F(2, 3),
        F(2, 5),
        F(3, 5),
        F(3, 7),
        F(4, 7),
    ]
    # Every generator is at least 1/3, and paired halves sum to one.
    for n in range(1, 40, 2):
        assert generator_at(spec, n) + generator_at(spec, n + 1) == 1
        assert generator_at(spec, n) >= F(1, 3)


def test_explicit_list_generators():
    spec = ExplicitList((F(1, 2), F(3, 4)))
    assert generator_at(spec, 1) == F(1, 2)
    assert generator_at(spec, 2) == F(3, 4)
    with pytest.raises(BadIndex):
        generator_at(spec, 3)
    with pytest.raises(NonPositive):
        ExplicitList(())


def test_family_mappings_round_trip():
    specs = [
        PowerDenominator(3),
        HalfPrime(),
        TwoAdicOddPrime(),
        ElementaryPrimary(),
        ElementaryPrimary(CongruencePrimes(3, 4)),
        ElementaryPrimary(PartitionClassPrimes(2)),
        ElementaryKPrimary(2),
        PartitionedKPrimary(3),
        SumKPrimary(2),
        PAdic(2, GeometricSeq(1, 3), AffineSeq(2, 0)),
        PAdic(5, ExplicitSeq((9, 3), GeometricSeq(1, 3)), AffineSeq(1, 0)),
        PlusMinusPowers(3),
        Cyclic(F(2, 3)),
        GeneralizedCyclic((F(2, 5), F(4, 7))),
        BfNotFf(),
        ExplicitList((F(1, 2), F(3, 4))),
        Cyclic(F(2)),
        GeneralizedCyclic((F(2), F(4, 7))),
        ExplicitList((F(1), F(3, 4))),
    ]
    for spec in specs:
        assert family_from_mapping(spec.as_mapping()) == spec


# Drawn specs of every kind in the spec tables, keyed by kind.
_PRIMES = st.sampled_from((2, 3, 5, 7, 11, 13))
_RATIONAL = st.builds(F, st.integers(1, 60), st.integers(1, 60))
_RATIONALS = st.lists(_RATIONAL, min_size=1, max_size=4).map(tuple)
_VALUES = st.lists(st.integers(1, 99), min_size=1, max_size=4).map(tuple)
SEQUENCE_KINDS = {
    "constant": st.builds(GeometricSeq, st.integers(1, 9), st.just(1)),
    "power": st.builds(GeometricSeq, st.just(1), st.integers(2, 9)),
    "geometric": st.builds(GeometricSeq, st.integers(2, 9), st.integers(2, 9)),
    "affine-exponent": st.tuples(st.integers(0, 5), st.integers(0, 5))
    .filter(lambda ab: sum(ab) >= 1)
    .map(lambda ab: AffineSeq(*ab)),
}
_CLOSED_FORMS = st.one_of(*SEQUENCE_KINDS.values())
_SEQUENCES = st.recursive(_CLOSED_FORMS, lambda tails: st.builds(ExplicitSeq, _VALUES, st.none() | tails))
SEQUENCE_KINDS["explicit"] = st.builds(ExplicitSeq, _VALUES, st.none() | _SEQUENCES)
# PAdic needs infinite sequences (every explicit prefix has a tail),
# the exponents strictly increasing.
_INFINITE = st.recursive(_CLOSED_FORMS, lambda tails: st.builds(ExplicitSeq, _VALUES, tails))
_INCREASING = st.recursive(
    st.one_of(
        SEQUENCE_KINDS["power"],
        SEQUENCE_KINDS["geometric"],
        st.builds(AffineSeq, st.integers(1, 5), st.integers(0, 5)),
    ),
    lambda tails: st.builds(ExplicitSeq, st.sets(st.integers(1, 4), min_size=1).map(sorted).map(tuple), tails),
).filter(lambda s: s.is_strictly_increasing())
STREAM_KINDS = {
    "all": st.just(AllPrimes()),
    "congruence": st.tuples(st.integers(-40, 40), st.integers(2, 30))
    .filter(lambda rm: math.gcd(*rm) == 1)
    .map(lambda rm: CongruencePrimes(*rm)),
    "partition-class": st.builds(PartitionClassPrimes, st.integers(1, 6)),
}
TARGET_KINDS = {
    "calkin-wilf": st.just(CalkinWilfTargets()),
    "explicit": st.builds(ExplicitTargets, _RATIONALS),
}
FAMILY_KINDS = {
    "power-denominator": st.builds(PowerDenominator, _PRIMES),
    "half-prime": st.just(HalfPrime()),
    "two-adic-odd-prime": st.just(TwoAdicOddPrime()),
    "elementary-primary": st.builds(ElementaryPrimary, st.one_of(*STREAM_KINDS.values())),
    "elementary-k-primary": st.builds(ElementaryKPrimary, st.integers(1, 6)),
    "partitioned-k-primary": st.builds(PartitionedKPrimary, st.integers(1, 6)),
    "sum-k-primary": st.builds(SumKPrimary, st.integers(1, 6)),
    "p-adic": st.builds(PAdic, _PRIMES, _INFINITE, _INCREASING),
    "plus-minus-powers": st.builds(PlusMinusPowers, _PRIMES.filter(lambda p: p != 2)),
    "cyclic": st.builds(Cyclic, _RATIONAL),
    "generalized-cyclic": st.builds(GeneralizedCyclic, _RATIONALS),
    "bf-not-ff": st.just(BfNotFf()),
    "explicit": st.builds(ExplicitList, _RATIONALS),
}


@pytest.mark.parametrize(
    ("parse", "tag", "kind", "drawn"),
    [
        # A kind missing from the strategies fails collection with a KeyError.
        pytest.param(parse, tag, kind, strategies[kind], id=f"{what}-{kind}")
        for parse, tag, what, table, strategies in (
            (family_from_mapping, "family", "family", families._FAMILIES, FAMILY_KINDS),
            (sequence_from_mapping, "kind", "sequence", families._SEQUENCES, SEQUENCE_KINDS),
            (stream_from_mapping, "kind", "stream", families._STREAMS, STREAM_KINDS),
            (targets_from_mapping, "kind", "targets", families._TARGETS, TARGET_KINDS),
        )
        for kind in table
    ],
)
@settings(max_examples=25)
@given(data=st.data())
def test_mappings_round_trip_for_drawn_parameters(parse, tag, kind, drawn, data):
    spec = data.draw(drawn)
    mapping = spec.as_mapping()
    assert mapping[tag] == kind
    assert parse(json.loads(json.dumps(mapping))) == spec


def test_a_field_with_a_default_may_be_left_out():
    assert family_from_mapping({"family": "elementary-primary"}) == ElementaryPrimary()


def test_family_mappings_print_integers_bare():
    assert Cyclic(2).as_mapping() == {"family": "cyclic", "r": "2"}
    assert GeneralizedCyclic((F(2), F(4, 7))).as_mapping()["ratios"] == ["2", "4/7"]
    assert ExplicitList((F(1), F(3, 4))).as_mapping()["generators"] == ["1", "3/4"]


PADIC_EXPONENTS = {"kind": "affine-exponent", "a": 1, "b": 0}

MALFORMED_FAMILIES = {
    "float-q": {"family": "power-denominator", "q": 3.9},
    "bool-k": {"family": "sum-k-primary", "k": True},
    "text-q": {"family": "power-denominator", "q": "abc"},
    "string-generators": {"family": "explicit", "generators": "12"},
    "string-sequence-values": {
        "family": "p-adic",
        "p": 2,
        "numerators": {"kind": "explicit", "values": "93", "then": {"kind": "power", "base": 3}},
        "exponents": PADIC_EXPONENTS,
    },
    "null-r": {"family": "cyclic", "r": None},
    "unknown-family": {"family": "no-such"},
    "unknown-sequence-kind": {
        "family": "p-adic",
        "p": 2,
        "numerators": {"kind": "fibonacci"},
        "exponents": PADIC_EXPONENTS,
    },
    "missing-field": {"family": "power-denominator"},
    "missing-sequence-field": {
        "family": "p-adic",
        "p": 2,
        "numerators": {"kind": "power"},
        "exponents": PADIC_EXPONENTS,
    },
    "non-object-stream": {"family": "elementary-primary", "primes": 3},
    "non-object": [1],
    # A key that is no field of the record: a misspelt optional field
    # is refused, not dropped for its default.
    "misspelt-optional-field": {
        "family": "elementary-primary",
        "prime": {"kind": "congruence", "residue": 1, "modulus": 4},
    },
    "field-of-no-record": {"family": "half-prime", "q": 3},
    "unknown-sequence-field": {
        "family": "p-adic",
        "p": 2,
        "numerators": {"kind": "power", "base": 3, "then": None},
        "exponents": PADIC_EXPONENTS,
    },
}

MALFORMED_TARGETS = {
    "string-values": {"kind": "explicit", "values": "93"},
    "float-value": {"kind": "explicit", "values": [1.5]},
    "unknown-kind": {"kind": "stern"},
    "missing-field": {"kind": "explicit"},
    "non-object": "calkin-wilf",
}


@pytest.mark.parametrize(
    ("parse", "obj"),
    [pytest.param(family_from_mapping, o, id=f"family-{k}") for k, o in MALFORMED_FAMILIES.items()]
    + [pytest.param(targets_from_mapping, o, id=f"targets-{k}") for k, o in MALFORMED_TARGETS.items()],
)
def test_malformed_specs_are_parse_errors(parse, obj):
    with pytest.raises(ParseError):
        parse(obj)
    spec = json.dumps(obj)
    if parse is family_from_mapping:
        argv = ["family", "gen", "--spec", spec, "--n", "1"]
    else:
        argv = ["family", "dense-atoms", "--class-index", "1", "--count", "1", "--spec", spec]
    result = run_cli(argv)
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stderr.startswith("error: ")


# Every public constructor, cyclic entry point and semigroup or monoid
# query shares arith._exact.
INEXACT_CONSTRUCTIONS = {
    "explicit-seq-float": lambda: ExplicitSeq((1.5, 2)),
    "explicit-seq-bool": lambda: ExplicitSeq((True, 2)),
    "explicit-targets-float": lambda: ExplicitTargets((0.1,)),
    "power-denominator-bool": lambda: PowerDenominator(True),
    "power-denominator-float": lambda: PowerDenominator(3.0),
    "geometric-float": lambda: GeometricSeq(2, 3.0),
    "affine-bool": lambda: AffineSeq(True, 0),
    "congruence-float": lambda: CongruencePrimes(1.0, 4),
    "partition-class-bool": lambda: PartitionClassPrimes(True),
    "k-primary-float": lambda: SumKPrimary(2.0),
    "p-adic-bool": lambda: PAdic(True, GeometricSeq(1, 3), AffineSeq(2, 0)),
    "plus-minus-float": lambda: PlusMinusPowers(3.0),
    "cyclic-float": lambda: Cyclic(0.5),
    "generalized-cyclic-bool": lambda: GeneralizedCyclic((F(2, 3), True)),
    "explicit-list-float": lambda: ExplicitList((0.25,)),
    "fg-monoid-float": lambda: FgMonoid((0.1, 0.5)),
    "numerical-semigroup-float": lambda: NumericalSemigroup((4.0, 9)),
    "numerical-semigroup-bool": lambda: NumericalSemigroup((True, 9)),
    "factorization-float-atom": lambda: Factorization(((0.5, 1),)),
    "factorization-float-mult": lambda: Factorization(((F(1, 2), 2.5),)),
    "cyclic-factorization-float-ratio": lambda: CyclicFactorization(0.5, ((1, 1),)),
    "cyclic-factorization-float-exponent": lambda: CyclicFactorization(F(2, 3), ((1.5, 1),)),
    "cyclic-factorization-float-mult": lambda: CyclicFactorization(F(2, 3), ((1, 2.5),)),
    "cyclic-factorization-bool-exponent": lambda: CyclicFactorization(F(2, 3), ((True, 1),)),
    "cyclic-contains-float": lambda: cyclic_contains(0.5, 0.25),
    "cyclic-contains-float-target": lambda: cyclic_contains(F(2, 3), 0.25),
    "cyclic-contains-float-cap": lambda: cyclic_contains(F(2, 3), F(4, 3), 8.0),
    "cyclic-factorizations-float": lambda: cyclic_factorizations(F(2, 3), 4 / 3),
    "cyclic-factorizations-bool-cap": lambda: cyclic_factorizations(F(2, 3), F(4, 3), True),
    "cyclic-trade-float-ratio": lambda: cyclic_trade(1.5, CyclicFactorization(F(3, 2), ((1, 3),)), 1, "up"),
    "cyclic-trade-float-exponent": lambda: cyclic_trade(F(3, 2), CyclicFactorization(F(3, 2), ((1, 3),)), 1.5, "up"),
    "cyclic-embed-float": lambda: generalized_cyclic_embed((0.4, F(4, 7)), 1, 2),
    "ns-contains-float": lambda: NumericalSemigroup((4, 9)).contains(13.0),
    "ns-contains-bool": lambda: NumericalSemigroup((4, 9)).contains(True),
    "ns-representations-float": lambda: NumericalSemigroup((4, 9)).representations(13.0),
    "ns-representations-fraction": lambda: NumericalSemigroup((4, 9)).representations(F(13)),
    "ns-any-representation-float": lambda: NumericalSemigroup((4, 9)).any_representation(13.0),
    "fg-contains-float": lambda: FgMonoid((F(1, 2), F(1, 3))).contains(0.5),
    "fg-contains-bool": lambda: FgMonoid((F(1, 2), F(1, 3))).contains(True),
    "fg-factorizations-float": lambda: FgMonoid((F(1, 2), F(1, 3))).factorizations(0.5),
    "fg-lengths-float": lambda: FgMonoid((F(1, 2), F(1, 3))).lengths(1.0),
    "fg-atom-support-float": lambda: FgMonoid((F(1, 2), F(1, 3))).atom_support(0.5),
    "fg-scale-float": lambda: FgMonoid((F(1, 2), F(1, 3))).scale(0.1),
    "fg-scale-bool": lambda: FgMonoid((F(1, 2), F(1, 3))).scale(True),
    "nth-prime-bool": lambda: nth_prime(True),
    "nth-prime-float": lambda: nth_prime(2.0),
    "nth-odd-prime-bool": lambda: nth_odd_prime(True),
    "nth-odd-prime-float": lambda: nth_odd_prime(2.0),
    "is-prime-float": lambda: is_prime(7.0),
    "prime-index-float": lambda: prime_index(7.0),
    "truncate-bool": lambda: truncate(PowerDenominator(2), True),
    "generator-at-bool": lambda: generator_at(PowerDenominator(2), True),
    "dense-atom-monoid-bool-class": lambda: dense_atom_monoid(True, 2),
    "cyclic-embed-float-power": lambda: generalized_cyclic_embed((F(2, 3), F(4, 7)), 1, 2.0),
    "cyclic-embed-bool-index": lambda: generalized_cyclic_embed((F(2, 3), F(4, 7)), True, 2),
    "approximate-float-target": lambda: approximate(PowerDenominator(2), 0.5, F(1, 100)),
    "approximate-float-eps": lambda: approximate(PowerDenominator(2), F(1, 3), 0.01),
}


@pytest.mark.parametrize("make", INEXACT_CONSTRUCTIONS.values(), ids=INEXACT_CONSTRUCTIONS)
def test_constructors_refuse_floats_and_bools(make):
    with pytest.raises(ParseError, match="^expected an (integer|exact rational), got "):
        make()


def test_integer_fields_accept_integer_strings_and_targets_accept_integers():
    assert family_from_mapping({"family": "power-denominator", "q": "3"}) == PowerDenominator(3)
    got = targets_from_mapping({"kind": "explicit", "values": [1, 2, "1/2"]})
    assert got == ExplicitTargets((F(1), F(2), F(1, 2)))
    spec = json.dumps({"kind": "explicit", "values": [1, 2]})
    result = run_cli(
        ["family", "dense-atoms", "--class-index", "1", "--count", "2", "--spec", spec]
    )
    assert result.exit_code == 0
    assert result.stdout.startswith("1: target 1 atom ")


def test_truncate_sorts_ascending():
    m = truncate(PowerDenominator(2), 3)
    assert m.generators == (F(1, 8), F(1, 4), F(1, 2))
    assert truncate(PowerDenominator(2), 0).generators == ()


# ---------------------------------------------------------------------------
# classification


TABLE = {
    # family -> (dense, atomic, antimatter, strongly_bounded, finite, hereditary)
    "power": (PowerDenominator(3), "yes", "no", "yes", "yes", "yes", "no"),
    "half-prime": (HalfPrime(), "no", "yes", "no", "no", "no", "yes"),
    "two-adic": (TwoAdicOddPrime(), "yes", "yes", "no", "yes", "no", "no"),
    "elementary": (ElementaryPrimary(), "yes", "yes", "no", "yes", "no", "yes"),
    "elementary-1mod4": (
        ElementaryPrimary(CongruencePrimes(1, 4)),
        "yes", "yes", "no", "yes", "no", "yes",
    ),
    "elem-k1": (ElementaryKPrimary(1), "yes", "yes", "no", "yes", "no", "yes"),
    "elem-k2": (ElementaryKPrimary(2), "yes", "no", "yes", "yes", "no", "no"),
    "part-k2": (PartitionedKPrimary(2), "yes", "yes", "no", "yes", "no", "unknown"),
    "sum-k2": (SumKPrimary(2), "yes", "yes", "no", "no", "no", "unknown"),
    "padic-decreasing": (
        PAdic(2, GeometricSeq(1, 3), AffineSeq(2, 0)),
        "yes", "yes", "no", "no", "yes", "unknown",
    ),
    "padic-constant": (
        PAdic(2, GeometricSeq(3, 1), AffineSeq(1, 0)),
        "yes", "no", "unknown", "yes", "yes", "no",
    ),
    "plus-minus": (PlusMinusPowers(3), "yes", "no", "yes", "unknown", "yes", "no"),
    "cyclic-small": (Cyclic(F(2, 3)), "yes", "yes", "no", "no", "yes", "yes"),
    "cyclic-big": (Cyclic(F(3, 2)), "no", "yes", "no", "no", "yes", "yes"),
    "cyclic-integer": (Cyclic(F(2)), "no", "yes", "no", "yes", "yes", "yes"),
    "cyclic-one": (Cyclic(F(1)), "no", "yes", "no", "yes", "yes", "yes"),
    "cyclic-unit-numerator": (
        Cyclic(F(1, 2)),
        "yes", "no", "yes", "yes", "yes", "no",
    ),
    "gen-cyclic-shared": (
        GeneralizedCyclic((F(2, 5), F(4, 7))),
        "yes", "yes", "no", "unknown", "yes", "yes",
    ),
    "gen-cyclic-coprime": (
        GeneralizedCyclic((F(2, 5), F(3, 7))),
        "yes", "unknown", "unknown", "unknown", "yes", "unknown",
    ),
    "bf-not-ff": (BfNotFf(), "no", "yes", "no", "no", "no", "yes"),
    "explicit": (
        ExplicitList((F(1, 2), F(1, 3))),
        "no", "yes", "no", "yes", "yes", "yes",
    ),
}


@pytest.mark.parametrize("name", sorted(TABLE))
def test_classification_table(name):
    spec, dense, atomic, antimatter, sb, finite, hereditary = TABLE[name]
    report = classify(spec)
    assert report.dense == dense
    assert report.atomic == atomic
    assert report.antimatter == antimatter
    assert report.strongly_bounded == sb
    assert report.finite_puiseux == finite
    assert report.hereditarily_atomic == hereditary


@pytest.mark.parametrize("name", sorted(TABLE))
def test_classification_internally_consistent(name):
    spec = TABLE[name][0]
    report = classify(spec)
    # The verdicts must never contradict the defining implications.
    if report.hereditarily_atomic == "yes":
        assert report.atomic == "yes"
    if report.atomic == "yes":
        assert report.antimatter == "no"
        assert report.hereditarily_atomic != "yes" or report.atomic == "yes"
    if report.antimatter == "yes":
        assert report.atomic == "no"
    if report.dense == "no":
        assert report.hereditarily_atomic == "yes"
    if report.atomic == "no":
        assert report.hereditarily_atomic == "no"


def test_classification_justification_lines():
    report = classify(TwoAdicOddPrime())
    assert any("power-of-two-submonoid-not-atomic" in line for line in report.justification)
    joined = " ".join(report.justification)
    assert "dense=yes" in joined
    mapping = report.as_mapping()
    assert mapping["atomic"] == "yes"
    assert isinstance(mapping["justification"], list)


# classify(spec).as_mapping() for each spec of test_json.FAMILIES, by its
# family tag: the six verdicts in field order, then the justification.
# A rule that decides a field left unknown shows up here as a change.
CLASSIFIED = {
    "power-denominator": (
        "yes no yes yes yes no",
        "dense=yes: generator-infimum-zero",
        "antimatter=yes: every-generator-decomposes",
        "strongly_bounded=yes: numerators-bounded",
        "finite_puiseux=yes: denominator-support-finite",
        "atomic=no: antimatter-excludes-atoms",
        "hereditarily_atomic=no: hereditary-implies-atomic",
    ),
    "half-prime": (
        "no yes no no no yes",
        "dense=no: generator-infimum-positive",
        "strongly_bounded=no: atoms-have-unbounded-numerators [asserted]",
        "finite_puiseux=no: denominator-support-infinite",
        "hereditarily_atomic=yes: not-dense-hereditarily-atomic [asserted]",
        "atomic=yes: hereditary-implies-atomic",
        "antimatter=no: atomic-excludes-antimatter",
    ),
    "two-adic-odd-prime": (
        "yes yes no yes no no",
        "dense=yes: generator-infimum-zero",
        "atomic=yes: all-generators-are-atoms [asserted]",
        "hereditarily_atomic=no: power-of-two-submonoid-not-atomic [asserted]",
        "strongly_bounded=yes: numerators-bounded",
        "finite_puiseux=no: denominator-support-infinite",
        "antimatter=no: atomic-excludes-antimatter",
    ),
    "elementary-primary": (
        "yes yes no yes no yes",
        "dense=yes: generator-infimum-zero",
        "hereditarily_atomic=yes: primary-denominators-hereditary [asserted]",
        "strongly_bounded=yes: numerators-bounded",
        "finite_puiseux=no: denominator-support-infinite",
        "atomic=yes: hereditary-implies-atomic",
        "antimatter=no: atomic-excludes-antimatter",
    ),
    "elementary-k-primary": (
        "yes no yes yes no no",
        "dense=yes: generator-infimum-zero",
        "antimatter=yes: k-subset-generators-decompose [asserted]",
        "strongly_bounded=yes: numerators-bounded",
        "finite_puiseux=no: denominator-support-infinite",
        "atomic=no: antimatter-excludes-atoms",
        "hereditarily_atomic=no: hereditary-implies-atomic",
    ),
    "partitioned-k-primary": (
        "yes yes no yes no unknown",
        "dense=yes: generator-infimum-zero",
        "atomic=yes: all-generators-are-atoms [asserted]",
        "strongly_bounded=yes: numerators-bounded",
        "finite_puiseux=no: denominator-support-infinite",
        "antimatter=no: atomic-excludes-antimatter",
    ),
    "sum-k-primary": (
        "yes yes no no no unknown",
        "dense=yes: generator-infimum-zero",
        "atomic=yes: all-generators-are-atoms [asserted]",
        "strongly_bounded=no: atoms-have-unbounded-numerators [asserted]",
        "finite_puiseux=no: denominator-support-infinite",
        "antimatter=no: atomic-excludes-antimatter",
    ),
    "p-adic": (
        "yes unknown unknown unknown yes unknown",
        "finite_puiseux=yes: denominator-support-finite",
        "dense=yes: generator-infimum-zero",
    ),
    "plus-minus-powers": (
        "yes no yes unknown yes no",
        "dense=yes: generator-infimum-zero",
        "antimatter=yes: every-generator-decomposes",
        "finite_puiseux=yes: denominator-support-finite",
        "atomic=no: antimatter-excludes-atoms",
        "hereditarily_atomic=no: hereditary-implies-atomic",
    ),
    "cyclic": (
        "yes yes no no yes yes",
        "finite_puiseux=yes: denominator-support-finite",
        "dense=yes: generator-infimum-zero",
        "atomic=yes: cyclic-ratio-atomic [asserted]",
        "hereditarily_atomic=yes: cyclic-hereditarily-atomic [asserted]",
        "strongly_bounded=no: atoms-have-unbounded-numerators [asserted]",
        "antimatter=no: atomic-excludes-antimatter",
    ),
    "generalized-cyclic": (
        "yes unknown unknown unknown yes unknown",
        "finite_puiseux=yes: denominator-support-finite",
        "dense=yes: generator-infimum-zero",
    ),
    "bf-not-ff": (
        "no yes no no no yes",
        "dense=no: generator-infimum-positive",
        "hereditarily_atomic=yes: primary-denominators-hereditary [asserted]",
        "strongly_bounded=no: atoms-have-unbounded-numerators [asserted]",
        "finite_puiseux=no: denominator-support-infinite",
        "atomic=yes: hereditary-implies-atomic",
        "antimatter=no: atomic-excludes-antimatter",
    ),
    "explicit": (
        "no yes no yes yes yes",
        "dense=no: generator-infimum-positive",
        "atomic=yes: finitely-generated-atomic",
        "strongly_bounded=yes: numerators-bounded",
        "finite_puiseux=yes: denominator-support-finite",
        "hereditarily_atomic=yes: not-dense-hereditarily-atomic [asserted]",
        "antimatter=no: atomic-excludes-antimatter",
    ),
}


@pytest.mark.parametrize(("spec", "mapping"), FAMILIES, ids=[m["family"] for _, m in FAMILIES])
def test_every_classification_is_pinned(spec, mapping):
    verdicts, *justification = CLASSIFIED[mapping["family"]]
    fields = ClassificationReport.__match_args__[:-1]
    assert classify(spec).as_mapping() == {**dict(zip(fields, verdicts.split())), "justification": justification}


@pytest.mark.parametrize("kind", sorted(FAMILY_KINDS))
@given(data=st.data())
def test_classification_table_matches_the_isinstance_chain(kind, data):
    # All six verdicts and every justification line, in order.
    spec = data.draw(FAMILY_KINDS[kind])
    assert classify(spec) == old_classify(spec)


def test_one_pass_closure_matches_the_fixed_point_loop():
    # Every state of direct verdicts on the four fields the implication
    # rows read, 3^4 = 81, each in every order of its rows: the same
    # verdicts and the same justification lines, in the same order.
    fields = ("dense", "hereditarily_atomic", "atomic", "antimatter")
    states = 0
    for verdicts in itertools.product(("yes", "no", None), repeat=len(fields)):
        states += 1
        direct = [(f, v, f"direct-{f}") for f, v in zip(fields, verdicts) if v]
        for rows in itertools.permutations(direct):
            old = OldReport()
            for row in rows:
                old.set(*row)
            assert families._decide(rows) == old.close(), rows
    assert states == 81


def _undecided() -> int:
    # The least odd n from the Miller-Rabin bound up that passes every
    # base (the bound itself, a strong pseudoprime to all of them):
    # is_prime names the bound instead of a verdict.
    n = arith._MR_BOUND | 1
    while True:
        try:
            is_prime(n)
        except NotFoundWithinLimit:
            return n
        n += 2


def test_padic_classify_with_an_undecided_numerator_base():
    # 3^50 > q, so the generators q^n / 3^(50n) decrease and the verdict
    # waits on q, which is_prime cannot decide: the rows of an unknown
    # base, as when trial division gave up on q.
    q = _undecided()
    spec = PAdic(3, GeometricSeq(1, q), AffineSeq(50, 0))
    with pytest.raises(NotFoundWithinLimit):
        spec.numerators.prime_power_base()
    # A decided value that is no prime power settles the base anyway.
    assert ExplicitSeq((q, 6), GeometricSeq(1, 3)).prime_power_base() is None
    assert ExplicitSeq((q, 5), GeometricSeq(1, 3)).prime_power_base() is None
    with pytest.raises(NotFoundWithinLimit):
        ExplicitSeq((q, 9), GeometricSeq(1, 3)).prime_power_base()
    assert classify(spec).as_mapping() == {
        "dense": "yes",
        "atomic": "unknown",
        "antimatter": "unknown",
        "strongly_bounded": "unknown",
        "finite_puiseux": "yes",
        "hereditarily_atomic": "unknown",
        "justification": [
            "finite_puiseux=yes: denominator-support-finite",
            "dense=yes: generator-infimum-zero",
        ],
    }


def test_padic_classify_factors_no_numerator_it_need_not():
    # The generators (10^20 + 39)^n / 2^n increase, so no verdict reads
    # the numerators' prime base: classify factors nothing, where the
    # base of this prime would take trial division by every prime
    # below 10**6.
    spec = PAdic(2, GeometricSeq(1, 100_000_000_000_000_000_039), AffineSeq(1, 0))
    with mock.patch.object(arith, "_PRIME_CACHE", sieve_primes(47)):
        report = classify(spec)
        assert len(arith._PRIME_CACHE) == 15
        assert report == old_classify(spec)


def test_rule_statements_exist_for_cited_rules():
    cited = {
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
    for rule in cited:
        text = rule_statement(rule)
        assert isinstance(text, str) and "cited result" in text
    assert families._ASSERTED == cited
    # The [asserted] tag marks exactly the verdicts resting on a cited rule.
    for name in sorted(TABLE):
        for line in classify(TABLE[name][0]).justification:
            rule = line.split(": ", 1)[1].removesuffix(" [asserted]")
            assert line.endswith(" [asserted]") == (rule in cited), line


# ---------------------------------------------------------------------------
# denominator support


def test_denominator_support_descriptors():
    assert PowerDenominator(2).support() == (2,)
    assert PAdic(3, GeometricSeq(1, 2), AffineSeq(1, 0)).support() == (3,)
    assert PAdic(3, GeometricSeq(1, 3), AffineSeq(1, 0)).support() is None
    assert PlusMinusPowers(5).support() == (5,)
    assert ElementaryPrimary().support() == AllPrimes()
    assert ElementaryPrimary(CongruencePrimes(1, 4)).support() == CongruencePrimes(1, 4)
    assert ElementaryPrimary(PartitionClassPrimes(2)).support() == PartitionClassPrimes(2)
    assert HalfPrime().support() is None
    # The cyclic families: the primes of the non-integral ratios'
    # denominators, in increasing order, and None once finitely generated.
    assert Cyclic(F(2, 3)).support() == (3,)
    assert Cyclic(F(7, 12)).support() == (2, 3)
    assert Cyclic(F(2)).support() is None
    assert Cyclic(F(1)).support() is None
    assert GeneralizedCyclic((F(2, 5), F(4, 7), F(3))).support() == (5, 7)
    assert GeneralizedCyclic((F(5, 4), F(1, 6), F(1, 2))).support() == (2, 3)
    assert GeneralizedCyclic((F(2), F(3))).support() is None


# Every spec of the JSON table, and drawn cyclic and generalized-cyclic specs.
SUPPORT_CASES = [pytest.param(st.just(spec), id=m["family"]) for spec, m in FAMILIES] + [
    pytest.param(FAMILY_KINDS[kind], id=f"drawn-{kind}") for kind in ("cyclic", "generalized-cyclic")
]


def _in_stream(p: int, stream) -> bool:
    if isinstance(stream, CongruencePrimes):
        return p % stream.modulus == stream.residue
    if isinstance(stream, PartitionClassPrimes):
        return partition_class_of_index(prime_index(p))[0] == stream.index
    return isinstance(stream, AllPrimes)


def _denominators(spec) -> tuple[list[int], bool]:
    """The denominators of the first 12 generators (all of an explicit
    list's), and whether the spec is finitely generated: for these
    families, an explicit list or integers only."""
    count = len(spec.generators) if isinstance(spec, ExplicitList) else 12
    dens = [generator_at(spec, n).denominator for n in range(1, count + 1)]
    return dens, isinstance(spec, ExplicitList) or set(dens) == {1}


@pytest.mark.parametrize("drawn", SUPPORT_CASES)
@given(data=st.data())
def test_support_holds_every_denominator_prime(drawn, data):
    # A tuple holds every denominator prime, and each of its primes
    # reaches a higher exponent in the first 12 generators than in the
    # first 6; a stream holds every denominator prime; a finitely
    # generated spec gives None.
    spec = data.draw(drawn)
    dens, finitely_generated = _denominators(spec)
    primes = {p for d in dens for p in arith.prime_factors(d)}
    support = spec.support()
    if finitely_generated:
        assert support is None
    elif isinstance(support, tuple):
        assert primes <= set(support)
        for p in support:
            exponents = [arith.padic_valuation_int(p, d) for d in dens]
            assert max(exponents[:6]) < max(exponents), (spec, p)
    elif support is not None:
        assert all(is_prime(p) and _in_stream(p, support) for p in primes)


@pytest.mark.parametrize("drawn", SUPPORT_CASES)
@given(data=st.data())
def test_support_agrees_with_the_finite_puiseux_verdict(drawn, data):
    # The two halves of a record: a finite support is finite_puiseux=yes,
    # a prime stream finite_puiseux=no, and a spec classified
    # finite_puiseux=yes gives no support only when finitely generated.
    spec = data.draw(drawn)
    support, verdict = spec.support(), classify(spec).finite_puiseux
    if isinstance(support, tuple):
        assert verdict == "yes"
    elif support is not None:
        assert verdict == "no"
    elif verdict == "yes":
        assert _denominators(spec)[1], spec


def test_truncation_atoms_power_denominator():
    # Only the finest reciprocal survives in any truncation.
    for size in (1, 3, 5):
        atoms = truncate(PowerDenominator(2), size).atoms()
        assert atoms == (F(1, 2**size),)


def test_truncation_atoms_bf_not_ff():
    m = truncate(BfNotFf(), 10)
    atoms = set(m.atoms())
    assert atoms == set(m.generators) - {F(2, 3)}
