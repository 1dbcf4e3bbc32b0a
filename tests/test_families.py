import itertools
import json
import math
import random
from fractions import Fraction

import pytest
from hypothesis import given, settings, strategies as st

from puiseux import families
from puiseux.arith import is_prime, nth_odd_prime, nth_prime, prime_index
from puiseux.cyclic import (
    CyclicFactorization,
    cyclic_contains,
    cyclic_factorizations,
    cyclic_trade,
    generalized_cyclic_embed,
)
from puiseux.errors import BadIndex, BadProgression, NonPositive, NotPrime, ParseError
from puiseux.families import (
    AffineSeq,
    AllPrimes,
    BfNotFf,
    CalkinWilfTargets,
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
    denominator_support,
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
from oracles import sieve_primes, subset_in_colex

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


def test_explicit_targets():
    t = ExplicitTargets((F(1, 2), F(5)))
    assert t.value_at(2) == F(5)
    with pytest.raises(BadIndex):
        t.value_at(3)
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


def test_rule_statements_exist_for_cited_rules():
    for rule in (
        "not-dense-hereditarily-atomic",
        "primary-denominators-hereditary",
        "all-generators-are-atoms",
        "power-of-two-submonoid-not-atomic",
        "cyclic-ratio-atomic",
        "shared-numerator-prime-embedding",
    ):
        text = rule_statement(rule)
        assert isinstance(text, str) and text


# ---------------------------------------------------------------------------
# denominator support


def test_denominator_support_descriptors():
    assert denominator_support(PowerDenominator(2)) == (2,)
    assert denominator_support(PAdic(3, GeometricSeq(1, 2), AffineSeq(1, 0))) == (3,)
    assert denominator_support(PlusMinusPowers(5)) == (5,)
    assert denominator_support(ElementaryPrimary()) == AllPrimes()
    assert denominator_support(ElementaryPrimary(CongruencePrimes(1, 4))) == CongruencePrimes(1, 4)
    assert denominator_support(ElementaryPrimary(PartitionClassPrimes(2))) == PartitionClassPrimes(2)
    assert denominator_support(HalfPrime()) is None


def test_truncation_atoms_power_denominator():
    # Only the finest reciprocal survives in any truncation.
    for size in (1, 3, 5):
        atoms = truncate(PowerDenominator(2), size).atoms()
        assert atoms == (F(1, 2**size),)


def test_truncation_atoms_bf_not_ff():
    m = truncate(BfNotFf(), 10)
    atoms = set(m.atoms())
    assert atoms == set(m.generators) - {F(2, 3)}
