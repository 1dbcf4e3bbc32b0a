import copy
import itertools
import math
import pickle
import random
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

from puiseux import families
from puiseux.errors import NonPositive, NotCofinite
from puiseux.families import CongruencePrimes
from puiseux.monoid import FgMonoid
from puiseux.semigroup import NumericalSemigroup, _frobenius3

from oracles import (
    apery_frobenius,
    brute_frobenius,
    brute_rational_factorizations,
    brute_representations,
    old_any_representation,
    reachable_integers,
)


def test_generators_sorted_and_deduplicated():
    sg = NumericalSemigroup((9, 4, 4, 6))
    assert sg.generators == (4, 6, 9)


def test_rejects_nonpositive_generators():
    with pytest.raises(NonPositive):
        NumericalSemigroup((4, 0))
    with pytest.raises(NonPositive):
        NumericalSemigroup(())


def test_contains_small_cases():
    sg = NumericalSemigroup((4, 9))
    hit = reachable_integers((4, 9), 60)
    for x in range(61):
        assert sg.contains(x) == (x in hit), x
    assert sg.contains(0)
    assert not sg.contains(-3)


@given(st.lists(st.integers(2, 25), min_size=1, max_size=6))
def test_contains_matches_closure_randomized(gens):
    sg = NumericalSemigroup(tuple(gens))
    hit = reachable_integers(tuple(gens), 120)
    for x in range(121):
        assert sg.contains(x) == (x in hit), x


def test_representations_canonical_example():
    sg = NumericalSemigroup((2, 3))
    assert sg.representations(11) == [(4, 1), (1, 3)]
    sg = NumericalSemigroup((4, 9))
    assert sg.representations(121) == [(28, 1), (19, 5), (10, 9), (1, 13)]


@st.composite
def semigroup_targets(draw, max_size=5):
    """1 to max_size generators, the smallest ones often sharing a
    factor, as in (4, 6, 9, 15), and a target from 0 up that may be a
    gap."""
    gens = sorted(draw(st.sets(st.integers(1, 16), min_size=1, max_size=max_size)))
    shared, factor = draw(st.integers(0, len(gens))), draw(st.integers(1, 4))
    gens = [g * factor if i < shared else g for i, g in enumerate(gens)]
    return tuple(gens), draw(st.integers(0, 48))


@given(semigroup_targets(), st.sets(st.integers(5, 9), min_size=4, max_size=5), st.integers(1, 6))
def test_representations_match_oracle_randomized(case, numerators, denominator):
    gens, x = case
    sg = NumericalSemigroup(gens)
    # Canonical order: the largest generator's coefficient varies slowest.
    want = sorted(brute_representations(sg.generators, x), key=lambda t: t[::-1])
    assert sg.representations(x) == want
    assert sg.representations(0) == [(0,) * len(sg.generators)]
    # Lengths over 4 or 5 atoms: no two numerators in 5..9 sum to a third.
    m = FgMonoid(tuple(F(n, denominator) for n in numerators))
    assert len(m.atoms()) == len(numerators)
    X = F(x, denominator)
    lengths = {sum(k for _, k in terms) for terms in brute_rational_factorizations(m.atoms(), X)}
    assert m.lengths(X) == tuple(sorted(lengths))


def test_representations_of_zero_and_gaps():
    sg = NumericalSemigroup((4, 9))
    assert sg.representations(0) == [(0, 0)]
    assert sg.representations(5) == []
    assert sg.representations(-5) == []
    assert sg.any_representation(5) is None
    assert sg.any_representation(13) is not None


@given(semigroup_targets(max_size=6), st.integers(0, 3))
def test_any_representation_matches_old_recursion(case, spread):
    gens, x = case
    sg = NumericalSemigroup(gens)
    # Targets past 48 too, where most of the walk's levels are reached.
    for y in (x, x + 37 * spread):
        got = sg.any_representation(y)
        assert got == old_any_representation(sg.generators, y), (gens, y)
        assert (got is None) == (y not in reachable_integers(sg.generators, y))
        assert sg.contains(y) == (got is not None)


def test_walk_is_iterative_past_the_recursion_limit():
    # The walk has one level per generator; with more generators than
    # the recursion limit allows frames, a recursion per level fails.
    n = sys.getrecursionlimit() + 200
    sg = NumericalSemigroup(tuple(range(n, 2 * n)))
    x = 2 * n + 1  # n + (n + 1), and no other pair or single generator
    m = FgMonoid(sg.generators)
    # atoms() walks once per generator, about n^2 / 2 levels in all, so
    # it is computed before the timed calls.
    m.atoms()
    for call, want in (
        (lambda: sg.contains(x), True),
        (lambda: sg.any_representation(x), (1, 1) + (0,) * (n - 2)),
        (lambda: sg.representations(x), [(1, 1) + (0,) * (n - 2)]),
        (lambda: [z.terms for z in m.factorizations(x)], [((F(n), 1), (F(n + 1), 1))]),
        (lambda: m.lengths(x), (2,)),
        (sg.minimal_generators, sg.generators),
        # x is past twice the smallest generator, so it takes the walk.
        (NumericalSemigroup(sg.generators + (x,)).minimal_generators, sg.generators),
    ):
        start = time.perf_counter()
        assert call() == want
        assert time.perf_counter() - start < 2


def test_generators_below_twice_the_smallest_are_minimal_without_a_walk():
    # No sum of two or more generators lies below 2 * gens[0]; walking
    # each such generator anyway made this quadratic (18 s).
    sg = NumericalSemigroup(tuple(range(5000, 10000)))
    start = time.perf_counter()
    assert sg.minimal_generators() == sg.generators
    assert time.perf_counter() - start < 0.5


def test_pickle_round_trip_after_queries():
    # A record is rebuilt from its fields: no cached value travels.
    sg = NumericalSemigroup((4, 6, 9))
    m = FgMonoid((F(1, 2), F(1, 3), F(5, 6)))
    assert sg.contains(13) and m.contains(F(7, 6)) and m.lengths(2) and m.atoms()
    sg2, m2 = pickle.loads(pickle.dumps((sg, m)))
    assert (sg2, m2) == (sg, m)
    assert sg2.any_representation(13) == sg.any_representation(13)
    assert m2.lengths(2) == m.lengths(2)
    # The monoid's int parts are rebuilt with it.
    assert m2.atoms() == m.atoms() and m2.to_scaled_integer() == m.to_scaled_integer()
    fresh = pickle.loads(pickle.dumps(FgMonoid(m.generators)))
    assert fresh.atoms() == m.atoms() and fresh.to_scaled_integer() == m.to_scaled_integer()
    # Queried again, so the caches are full when the copies are made.
    assert sg.contains(13) and m.lengths(2) and m.atoms()
    for back in (pickle.loads(pickle.dumps(m)), copy.copy(m), copy.deepcopy(m)):
        assert back == m and set(vars(back)) == {"generators", "_nums", "_dens"}
    for back in (pickle.loads(pickle.dumps(sg)), copy.copy(sg), copy.deepcopy(sg)):
        assert back == sg and set(vars(back)) == {"generators"}
    # Four generators: frobenius() keeps the Apery set, and no copy has it.
    sg4 = NumericalSemigroup((8, 20, 79, 122))
    assert sg4.frobenius() == 213 and sg4.contains(214) and sg4._apery is not None
    for back in (pickle.loads(pickle.dumps(sg4)), copy.copy(sg4), copy.deepcopy(sg4)):
        assert back == sg4 and set(vars(back)) == {"generators"} and back._apery is None
        assert back.frobenius() == 213 and back._apery == sg4._apery
    # A stream copy reads its class's one shared prime list.
    stream = CongruencePrimes(1, 4)
    assert stream.prime_at(20) == 193
    for back in (pickle.loads(pickle.dumps(stream)), copy.deepcopy(stream)):
        assert back == stream and back._found is families._CLASS_PRIMES[(1, 4)]


def test_minimal_generators():
    # 8 = 4 + 4 and 13 = 4 + 9 drop out; 11 cannot be assembled.
    assert NumericalSemigroup((4, 6, 9, 13, 8)).minimal_generators() == (4, 6, 9)
    assert NumericalSemigroup((4, 6, 9, 11, 8)).minimal_generators() == (4, 6, 9, 11)
    assert NumericalSemigroup((2, 4, 6)).minimal_generators() == (2,)
    assert NumericalSemigroup((1, 5)).minimal_generators() == (1,)


@given(st.lists(st.integers(1, 40), min_size=1, max_size=6), st.integers(1, 4))
def test_minimal_generators_match_closure(gens, factor):
    gens = tuple(sorted({g * factor if g % 3 else g for g in gens}))
    # A generator is minimal exactly when the others do not reach it.
    want = tuple(g for g in gens if g not in reachable_integers(tuple(h for h in gens if h != g), g))
    assert NumericalSemigroup(gens).minimal_generators() == want


def test_minimal_generators_regenerate_membership():
    rng = random.Random(17)
    for _ in range(30):
        gens = tuple(sorted({rng.randint(2, 30) for _ in range(rng.randint(1, 5))}))
        sg = NumericalSemigroup(gens)
        slim = NumericalSemigroup(sg.minimal_generators())
        for x in range(100):
            assert sg.contains(x) == slim.contains(x), (gens, x)


def test_frobenius_two_generator_closed_form():
    assert NumericalSemigroup((4, 9)).frobenius() == 23
    assert NumericalSemigroup((2, 3)).frobenius() == 1
    for a, b in [(3, 5), (5, 7), (4, 7), (11, 13)]:
        assert NumericalSemigroup((a, b)).frobenius() == a * b - a - b


def test_frobenius_three_generator_closed_form():
    assert NumericalSemigroup((6, 9, 20)).frobenius() == 43
    # Every pair shares a factor: 2, 3 or 5.
    assert NumericalSemigroup((6, 10, 15)).frobenius() == 29
    assert NumericalSemigroup((3, 5, 7)).frobenius() == 4
    assert NumericalSemigroup((4, 6, 9)).frobenius() == 11


@st.composite
def triples(draw):
    """Three generators up to 60 with gcd 1, each pair often sharing a
    factor of its own, as 6, 10 and 15 do."""
    ab, ac, bc = (draw(st.sampled_from((1, 1, 2, 3, 5))) for _ in range(3))
    gens = tuple(
        draw(st.integers(1, 60 // (d * e))) * d * e for d, e in ((ab, ac), (ab, bc), (ac, bc))
    )
    assume(math.gcd(*gens) == 1)
    return gens


@given(triples())
def test_frobenius_of_three_generators_matches_brute_scan(gens):
    want = brute_frobenius(gens)
    assert NumericalSemigroup(gens).frobenius() == want
    # In any order, with repeats or redundant generators left in.
    assert _frobenius3(*gens) == _frobenius3(*gens[::-1]) == want


def test_frobenius_with_a_redundant_third_generator_is_the_two_generator_form():
    for a, b, c in [(4, 9, 13), (5, 7, 24), (3, 11, 6), (7, 10, 30)]:
        sg = NumericalSemigroup((a, b, c))
        assert sg.minimal_generators() == (a, b)
        assert sg.frobenius() == NumericalSemigroup((a, b)).frobenius() == a * b - a - b
        assert _frobenius3(a, b, c) == a * b - a - b


def test_frobenius_of_three_large_generators_matches_round_robin_oracle():
    # A reachability table here needs a1 * a2, about 10^10 bytes.
    gens = (100003, 100019, 100043)
    start = time.perf_counter()
    assert NumericalSemigroup(gens).frobenius() == 2001060054
    assert time.perf_counter() - start < 0.1
    assert apery_frobenius(gens) == 2001060054


def test_frobenius_three_generator_boundary_membership():
    rng = random.Random(21)
    seen = 0
    while seen < 10:
        a1 = rng.randint(200, 1000)
        gens = (a1, rng.randint(a1 + 1, 3 * a1), rng.randint(a1 + 1, 3 * a1))
        sg = NumericalSemigroup(gens)
        if not sg.is_cofinite or len(sg.minimal_generators()) != 3:
            continue
        seen += 1
        f = sg.frobenius()
        assert not sg.contains(f), gens
        assert all(sg.contains(x) for x in range(f + 1, f + a1 + 1)), gens


@given(st.lists(st.integers(2, 40), min_size=2, max_size=4))
def test_frobenius_matches_brute_scan(gens):
    gens = tuple(sorted(set(gens)))
    assume(math.gcd(*gens) == 1)
    assert NumericalSemigroup(gens).frobenius() == brute_frobenius(gens)


def test_frobenius_of_every_four_generator_set_up_to_20_matches_brute_scan():
    # Every set of four generators from 2..20 with gcd 1, 3,650 of them,
    # with or without redundant generators.
    sets = [gens for gens in itertools.combinations(range(2, 21), 4) if math.gcd(*gens) == 1]
    assert len(sets) == 3650
    assert [gens for gens in sets if NumericalSemigroup(gens).frobenius() != brute_frobenius(gens)] == []


@pytest.mark.parametrize(
    "gens",
    [
        (64, 75, 93, 119),
        (97, 113, 131, 151),
        (150, 211, 317, 429),
        (1001, 1002, 1003, 1004),
        # The first table, of a1*a2 entries, holds a gap g with
        # g + a1 past its end, so the table must double.
        (8, 20, 79, 122),
        (6, 33, 154, 157),
        (9, 15, 71, 77),
    ],
)
def test_frobenius_of_larger_four_generator_sets_matches_round_robin_oracle(gens):
    assert len(NumericalSemigroup(gens).minimal_generators()) == 4
    assert NumericalSemigroup(gens).frobenius() == apery_frobenius(gens)


# The three sets above whose first table must double, and a seeded
# sample of the 3,650 four-generator sets from 2..20.
APERY_SETS = [(8, 20, 79, 122), (6, 33, 154, 157), (9, 15, 71, 77)] + random.Random(37).sample(
    [gens for gens in itertools.combinations(range(2, 21), 4) if math.gcd(*gens) == 1], 400
)


def test_frobenius_keeps_the_least_member_of_each_class():
    kept = 0
    for gens in APERY_SETS:
        sg = NumericalSemigroup(gens)
        f = sg.frobenius()
        if len(sg.minimal_generators()) < 4:
            # The closed forms fill no table.
            assert sg._apery is None, gens
            continue
        kept += 1
        a1 = gens[0]
        hit = reachable_integers(gens, max(gens) ** 2)
        want = tuple(min(x for x in hit if x % a1 == r) for r in range(a1))
        assert sg._apery == want, gens
        assert f == max(want) - a1 == sg.frobenius(), gens
    assert kept > 80


def test_queries_after_frobenius_answer_as_a_fresh_walk():
    # Ap answers a gap, or membership, at once; a member's
    # representation still comes from the walk, so it is the same one.
    for gens in APERY_SETS:
        sg = NumericalSemigroup(gens)
        f = sg.frobenius()
        fresh = NumericalSemigroup(gens)
        for x in range(-1, f + 2 * gens[0] + 1):
            assert sg.contains(x) == fresh.contains(x), (gens, x)
            assert sg.any_representation(x) == fresh.any_representation(x), (gens, x)
            assert sg.representations(x) == fresh.representations(x), (gens, x)
        assert fresh._apery is None


def test_frobenius_with_one_is_minus_one():
    assert NumericalSemigroup((1,)).frobenius() == -1
    assert NumericalSemigroup((1, 7)).frobenius() == -1


def test_frobenius_requires_cofinite():
    with pytest.raises(NotCofinite):
        NumericalSemigroup((4, 6)).frobenius()
    assert not NumericalSemigroup((4, 6)).is_cofinite
    assert NumericalSemigroup((4, 9)).is_cofinite


def test_frobenius_boundary_membership():
    rng = random.Random(31)
    seen = 0
    while seen < 25:
        gens = tuple(sorted({rng.randint(2, 30) for _ in range(rng.randint(2, 4))}))
        if math.gcd(*gens) != 1:
            continue
        seen += 1
        sg = NumericalSemigroup(gens)
        f = sg.frobenius()
        if f >= 0:
            assert not sg.contains(f)
        for x in range(f + 1, f + 2 * max(gens)):
            assert sg.contains(x)
