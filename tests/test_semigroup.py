import math
import pickle
import random
import sys
import time
from fractions import Fraction as F

import pytest
from hypothesis import assume, given, strategies as st

from puiseux.errors import NonPositive, NotCofinite
from puiseux.monoid import FgMonoid
from puiseux.semigroup import NumericalSemigroup

from oracles import (
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
    for call, want in (
        (lambda: sg.contains(x), True),
        (lambda: sg.any_representation(x), (1, 1) + (0,) * (n - 2)),
        (sg.minimal_generators, sg.generators),
    ):
        start = time.perf_counter()
        assert call() == want
        assert time.perf_counter() - start < 2


def test_pickle_round_trip_after_queries():
    # The cached walk set-up is left out of the pickled state.
    sg = NumericalSemigroup((4, 6, 9))
    m = FgMonoid((F(1, 2), F(1, 3), F(5, 6)))
    assert sg.contains(13) and m.contains(F(7, 6)) and m.lengths(2)
    sg2, m2 = pickle.loads(pickle.dumps((sg, m)))
    assert (sg2, m2) == (sg, m)
    assert sg2.any_representation(13) == sg.any_representation(13)
    assert m2.lengths(2) == m.lengths(2)


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


@given(st.lists(st.integers(2, 40), min_size=2, max_size=4))
def test_frobenius_matches_brute_scan(gens):
    gens = tuple(sorted(set(gens)))
    assume(math.gcd(*gens) == 1)
    assert NumericalSemigroup(gens).frobenius() == brute_frobenius(gens)


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
