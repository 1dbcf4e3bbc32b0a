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
import types
from fractions import Fraction as F

import pytest
from hypothesis import given, strategies as st

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


def has_default(cls, name):
    """Whether field name of cls has a default: a class attribute that
    is not the member descriptor of a slot."""
    return name in vars(cls) and not isinstance(vars(cls)[name], types.MemberDescriptorType)


@functools.cache
def mirror_class(cls):
    """The frozen dataclass with cls's name, fields and defaults."""
    spec = [(name, object, vars(cls)[name]) if has_default(cls, name) else (name, object) for name in cls.__match_args__]
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
        if not has_default(type(rec), names[0]):
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


def slotted_samples():
    """Factorization, CyclicFactorization and DenseAtomEntry records,
    constructed and listed."""
    m = FgMonoid((F(1, 2), F(1, 3), F(2, 5)))
    return [
        SAMPLES["Factorization"](),
        Factorization(()),
        *m.factorizations(F(3)),
        *FgMonoid((F(2, 3),)).factorizations(F(4)),
        SAMPLES["CyclicFactorization"](),
        *cyclic.cyclic_factorizations(F(2, 3), F(4, 3), 3),
        cyclic_contains(F(2, 3), F(10, 9)).witness,
        SAMPLES["DenseAtomEntry"](),
        *dense_atom_monoid(2, 4).entries,
    ]


def test_slotted_records_have_no_dict():
    assert Factorization.__slots__ == ("terms",)
    assert CyclicFactorization.__slots__ == ("ratio", "terms")
    assert witnesses.DenseAtomEntry.__slots__ == ("k", "target", "prime", "exponent", "numerator", "atom")
    found = slotted_samples()
    assert len(found) > 15
    assert {type(rec) for rec in found} == {Factorization, CyclicFactorization, witnesses.DenseAtomEntry}
    for rec in found:
        assert not hasattr(rec, "__dict__")
        with pytest.raises(TypeError):
            vars(rec)


@st.composite
def listings(draw):
    """A listing built by record's bulk constructor, the factorizations of
    a sum of powers of a ratio or of a sum of generators, and a function
    rebuilding one of its records with the checked constructor."""
    if draw(st.booleans()):
        r = draw(st.sampled_from((F(2, 3), F(3, 2), F(3, 5), F(5, 3), F(4, 3), F(3))))
        cap = draw(st.integers(1, 5))
        x = sum((draw(st.integers(0, 3)) * r**t for t in range(1, cap + 1)), F(0))
        return cyclic.cyclic_factorizations(r, x, cap), lambda z: CyclicFactorization(z.ratio, z.terms)
    gens = draw(st.lists(st.builds(F, st.integers(1, 30), st.integers(1, 6)), min_size=1, max_size=5))
    x = sum((draw(st.integers(0, 3)) * g for g in gens), F(0))
    return FgMonoid(tuple(gens)).factorizations(x), lambda f: Factorization(f.terms)


@given(listings())
def test_listed_records_are_the_checked_records(listing):
    found, checked = listing
    assert found
    for rec in found:
        again = checked(rec)
        assert type(rec) is type(again) and not hasattr(rec, "__dict__")
        assert rec == again and values_of(rec) == values_of(again) and hash(rec) == hash(again)
        back = pickle.loads(pickle.dumps(rec))
        assert type(back) is type(rec) and values_of(back) == values_of(rec)


@pytest.mark.parametrize("rec", slotted_samples(), ids=lambda rec: type(rec).__name__)
def test_slotted_fields_are_frozen(rec):
    before = values_of(rec)
    for field in (*rec.__match_args__, "not_a_field"):
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(rec, field, 1)
        with pytest.raises(dataclasses.FrozenInstanceError):
            delattr(rec, field)
    assert values_of(rec) == before


@pytest.mark.parametrize("rec", slotted_samples(), ids=lambda rec: type(rec).__name__)
def test_slotted_pickle_and_copy_round_trip(rec):
    copies = [pickle.loads(pickle.dumps(rec, protocol)) for protocol in range(pickle.HIGHEST_PROTOCOL + 1)]
    assert len(copies) == 6
    for back in (*copies, copy.copy(rec), copy.deepcopy(rec)):
        assert type(back) is type(rec) and not hasattr(back, "__dict__")
        assert back == rec and hash(back) == hash(rec) and repr(back) == repr(rec)
        assert values_of(back) == values_of(rec)
        assert back.as_mapping() == rec.as_mapping()
        with pytest.raises(dataclasses.FrozenInstanceError):
            setattr(back, rec.__match_args__[0], 1)


def test_slots_must_name_the_fields():
    from puiseux.arith import record

    for slots in (("b", "a"), ("a",), ("a", "b", "c")):
        with pytest.raises(TypeError, match="__slots__"):
            record(type("Pair", (), {"__annotations__": {"a": int, "b": int}, "__slots__": slots}))
    pair = record(type("Pair", (), {"__annotations__": {"a": int, "b": int}, "__slots__": ("a", "b")}))
    assert pair(1, b=2) == pair(1, 2) and repr(pair(1, 2)) == "Pair(a=1, b=2)"
    with pytest.raises(TypeError):
        pair(1)
