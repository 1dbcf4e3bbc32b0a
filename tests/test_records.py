"""Every record class behaves as the frozen dataclass it replaces.

The oracle is a dataclasses.make_dataclass(..., frozen=True) mirror of
each record class: same name, same fields and defaults, no
__post_init__, built from the record's own (already normalized) field
values.
"""

import copy
import dataclasses
import functools
import pickle
from fractions import Fraction as F

import pytest

from puiseux import cyclic, families, monoid, semigroup, verifier, witnesses
from puiseux.cyclic import CyclicFactorization, cyclic_contains, generalized_cyclic_embed
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
)
from puiseux.monoid import Factorization, FgMonoid
from puiseux.semigroup import NumericalSemigroup
from puiseux.verifier import ClaimParameters, run_claims
from puiseux.witnesses import (
    approximate,
    dense_atom_monoid,
    disjoint_prime_noniso,
    kprimary_antimatter_witness,
    padic_candidate_atoms,
)

DIPPING = PAdic(2, ExplicitSeq((9, 3), GeometricSeq(1, 3)), AffineSeq(1, 0))

# One sample instance per record class, by class name.
SAMPLES = {
    "NumericalSemigroup": lambda: NumericalSemigroup((9, 4, 4)),
    "Factorization": lambda: Factorization(((F(1, 2), 1), (F(1, 3), 2))),
    "FgMonoid": lambda: FgMonoid((F(1, 2), F(1, 3))),
    "CyclicFactorization": lambda: CyclicFactorization(F(2, 3), ((2, 1), (1, 3))),
    "CyclicMembership": lambda: cyclic_contains(F(2, 3), F(10, 9)),
    "EmbeddingWitness": lambda: generalized_cyclic_embed((F(2, 3), F(4, 7)), 1, 2),
    "IntSeq": lambda: ExplicitSeq((9, 3), GeometricSeq(1, 3)),
    "AllPrimes": AllPrimes,
    "CongruencePrimes": lambda: CongruencePrimes(5, 4),
    "PartitionClassPrimes": lambda: PartitionClassPrimes(2),
    "CalkinWilfTargets": CalkinWilfTargets,
    "ExplicitTargets": lambda: ExplicitTargets((F(1, 2), 3)),
    "PowerDenominator": lambda: PowerDenominator(3),
    "HalfPrime": HalfPrime,
    "TwoAdicOddPrime": TwoAdicOddPrime,
    "ElementaryPrimary": ElementaryPrimary,
    "ElementaryKPrimary": lambda: ElementaryKPrimary(2),
    "PartitionedKPrimary": lambda: PartitionedKPrimary(2),
    "SumKPrimary": lambda: SumKPrimary(2),
    "PAdic": lambda: DIPPING,
    "PlusMinusPowers": lambda: PlusMinusPowers(3),
    "Cyclic": lambda: Cyclic(F(2, 3)),
    "GeneralizedCyclic": lambda: GeneralizedCyclic((F(2, 3), F(4, 7))),
    "BfNotFf": BfNotFf,
    "ExplicitList": lambda: ExplicitList((F(1, 2), F(1, 3))),
    "ClassificationReport": lambda: classify(PowerDenominator(3)),
    "Approximation": lambda: approximate(PowerDenominator(2), F(1, 3), F(1, 100)),
    "DenseAtomEntry": lambda: dense_atom_monoid(1, 3).entries[1],
    "DenseAtomConstruction": lambda: dense_atom_monoid(1, 3),
    "AntimatterWitness": lambda: kprimary_antimatter_witness((2, 3, 5)),
    "AtomExclusion": lambda: padic_candidate_atoms(DIPPING, 4).exclusions[0],
    "PAdicAtomReport": lambda: padic_candidate_atoms(DIPPING, 4),
    "NonIsoCertificate": lambda: disjoint_prime_noniso(
        ElementaryPrimary(CongruencePrimes(1, 4)), ElementaryPrimary(CongruencePrimes(3, 4))
    ),
    "ClaimParameters": lambda: ClaimParameters(truncation=10),
    "ClaimOutcome": lambda: run_claims(["C5"], ClaimParameters(truncation=10))[0],
}


def record_classes():
    """Classes the library modules define with the record decorator."""
    found = {}
    for module in (semigroup, monoid, cyclic, families, witnesses, verifier):
        for name, value in vars(module).items():
            if isinstance(value, type) and value.__module__ == module.__name__ and "__match_args__" in vars(value):
                found[name] = value
    return found


def values_of(rec):
    return [getattr(rec, name) for name in rec.__match_args__]


@functools.cache
def mirror_class(cls):
    """The frozen dataclass with cls's name, fields and defaults."""
    spec = [(name, object, vars(cls)[name]) if name in vars(cls) else (name, object) for name in cls.__match_args__]
    return dataclasses.make_dataclass(cls.__name__, spec, frozen=True)


def mirror(rec):
    """rec's twin in the mirror dataclass."""
    return mirror_class(type(rec))(*values_of(rec))


def hash_or_error(value):
    try:
        return hash(value)
    except TypeError as err:
        return ("unhashable", str(err))


def test_samples_cover_every_record_class():
    assert set(record_classes()) == set(SAMPLES)
    assert len(SAMPLES) == 35
    for name, make in SAMPLES.items():
        assert type(make()).__name__ == name


@pytest.mark.parametrize("name", SAMPLES)
def test_repr_eq_and_hash_match_the_dataclass(name):
    rec = SAMPLES[name]()
    twin = mirror(rec)
    values = values_of(rec)
    assert repr(rec) == repr(twin)
    assert hash_or_error(rec) == hash_or_error(twin)
    assert type(rec).__match_args__ == type(twin).__match_args__
    # Rebuilt from its own fields, by position and by keyword.
    again = type(rec)(*values)
    by_name = type(rec)(**dict(zip(rec.__match_args__, values)))
    assert rec == again == by_name and not rec != again
    assert (rec == again) == (twin == mirror(again))
    assert hash_or_error(again) == hash_or_error(rec)
    # Equal fields in another class never compare equal.
    assert rec != twin and twin != rec
    assert rec != values and rec != tuple(values)


def test_records_with_equal_fields_in_different_classes_are_unequal():
    assert HalfPrime() != BfNotFf() and AllPrimes() != CalkinWilfTargets()
    assert SumKPrimary(2) != ElementaryKPrimary(2) != PartitionedKPrimary(2)
    assert PowerDenominator(3) != PlusMinusPowers(3)
    assert len({HalfPrime(), BfNotFf(), TwoAdicOddPrime(), HalfPrime()}) == 3


def test_unequal_fields_are_unequal():
    assert FgMonoid((F(1, 2),)) != FgMonoid((F(1, 3),))
    assert CongruencePrimes(1, 4) != CongruencePrimes(3, 4)
    assert CongruencePrimes(5, 4) == CongruencePrimes(1, 4)
    assert ClaimParameters() != ClaimParameters(seed=8)


def test_defaults_fill_missing_fields():
    assert ElementaryPrimary() == ElementaryPrimary(AllPrimes())
    assert repr(families.IntSeq()) == "IntSeq(values=(), scale=0, ratio=1, slope=0, offset=0)"
    assert ClaimParameters(seed=3) == ClaimParameters(50, 8, 100_000, 3)
    assert repr(ClaimParameters()) == repr(mirror(ClaimParameters()))


@pytest.mark.parametrize("name", SAMPLES)
def test_fields_are_frozen(name):
    rec = SAMPLES[name]()
    twin = mirror(rec)
    for field in (*rec.__match_args__, "not_a_field"):
        messages = []
        for target in (rec, twin):
            with pytest.raises(dataclasses.FrozenInstanceError) as assigned:
                setattr(target, field, 1)
            with pytest.raises(dataclasses.FrozenInstanceError) as deleted:
                delattr(target, field)
            messages.append((str(assigned.value), str(deleted.value)))
        assert messages[0] == messages[1]
    assert repr(rec) == repr(twin)


@pytest.mark.parametrize("name", SAMPLES)
def test_bad_arguments_raise_type_error(name):
    rec = SAMPLES[name]()
    twin = mirror(rec)
    names = rec.__match_args__
    values = values_of(rec)
    calls = [
        ((*values, 0), {}),  # one positional too many
        (values, {"bogus": 1}),  # unexpected keyword
        ((), {"value": 1}),  # not a field, or missing the others
    ]
    if names:
        calls.append((values, {names[0]: values[0]}))  # repeated
        if names[0] not in vars(type(rec)):
            calls.append(((), {}))  # missing
            calls.append(((), {field: value for field, value in zip(names[1:], values[1:])}))
    for args, kwargs in calls:
        for cls in (type(twin), type(rec)):
            with pytest.raises(TypeError):
                cls(*args, **dict(kwargs))


def fill_caches(rec):
    """Answer the queries that cache on the instance, in rec or its monoid."""
    for value in (rec, getattr(rec, "monoid", None)):
        if isinstance(value, FgMonoid):
            value.atoms()
            value.contains(F(5, 6))
            value.to_scaled_integer()
        if isinstance(value, NumericalSemigroup):
            value.contains(13)
            value.minimal_generators()
    return rec


@pytest.mark.parametrize("name", SAMPLES)
def test_pickle_and_copy_round_trip(name):
    rec = fill_caches(SAMPLES[name]())
    for back in (
        pickle.loads(pickle.dumps(rec)),
        pickle.loads(pickle.dumps(rec, protocol=0)),
        copy.copy(rec),
        copy.deepcopy(rec),
    ):
        assert type(back) is type(rec)
        assert back == rec
        assert repr(back) == repr(rec)
        assert hash_or_error(back) == hash_or_error(rec)
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(back, "not_a_field", 1)
    if isinstance(rec, (FgMonoid, NumericalSemigroup)):
        back = pickle.loads(pickle.dumps(rec))
        assert back.contains(13) and back.contains(5) == rec.contains(5)



def test_only_five_records_write_their_own_json():
    # The rest get arith.record's field-driven as_mapping.
    own = {name for name, cls in record_classes().items() if cls.as_mapping.__module__ != "puiseux.arith"}
    assert own == {"IntSeq", "Factorization", "CyclicFactorization", "DenseAtomConstruction", "AntimatterWitness"}


def test_the_field_driven_json_form():
    # Tag, then fields in order: rationals as n/d, tuples as lists,
    # nested records as their mappings, anything else as is.
    got = cyclic_contains(F(2, 3), F(4, 3), 8).as_mapping()
    assert list(got.items()) == [
        ("status", "member"),
        ("cap", 8),
        ("witness", {"length": 2, "terms": [{"exponent": 1, "mult": 2}]}),
        ("certificate", None),
    ]
    assert FgMonoid((F(1, 2), 3)).as_mapping() == {"generators": ["1/2", "3"]}
    assert ElementaryPrimary().as_mapping() == {"family": "elementary-primary", "primes": {"kind": "all"}}
