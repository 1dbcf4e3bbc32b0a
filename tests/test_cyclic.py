import math
import random
import sys
import time
from fractions import Fraction

import pytest
from hypothesis import assume, given, settings, strategies as st

from puiseux.cyclic import (
    CyclicFactorization,
    cyclic_contains,
    cyclic_factorizations,
    cyclic_trade,
    generalized_cyclic_embed,
)
from puiseux.errors import (
    BadIndex,
    GcdOne,
    InsufficientMultiplicity,
    NonPositive,
    NotAtomic,
    NotFoundWithinLimit,
    ParseError,
)
from puiseux.monoid import Factorization, FgMonoid
from puiseux.semigroup import NumericalSemigroup

from oracles import brute_cyclic_factorizations, old_cyclic_factorizations

F = Fraction


def test_cyclic_factorization_merges_and_evaluates():
    z = CyclicFactorization(F(2, 3), ((2, 1), (1, 2), (2, 1)))
    assert z.terms == ((1, 2), (2, 2))
    assert CyclicFactorization(F(2, 3), ((1, 1), (1, 2))).terms == ((1, 3),)
    assert z.length == 4
    assert z.value() == 2 * F(2, 3) + 2 * F(4, 9)
    assert z.multiplicity(2) == 2 and z.multiplicity(5) == 0
    assert z.as_mapping() == {
        "length": 4,
        "terms": [
            {"exponent": 1, "mult": 2},
            {"exponent": 2, "mult": 2},
        ],
    }


def test_cyclic_factorization_checks_its_terms():
    for ratio in (0, F(-2, 3)):
        with pytest.raises(NonPositive):
            CyclicFactorization(ratio, ((1, 1),))
    with pytest.raises(NonPositive):
        CyclicFactorization(F(2, 3), ((1, 0),))
    with pytest.raises(BadIndex):
        CyclicFactorization(F(2, 3), ((0, 1),))


def test_cyclic_factorization_bridges_to_atoms():
    z = CyclicFactorization(F(3, 2), ((1, 3),))
    f = z.as_factorization()
    assert f.terms == ((F(3, 2), 3),)
    assert f.evaluate() == F(9, 2)


def test_pinned_factorization_sets():
    found = cyclic_factorizations(F(3, 2), F(9, 2), 8)
    assert {z.terms for z in found} == {((1, 3),), ((2, 2),)}
    assert sorted(z.length for z in found) == [2, 3]

    found = cyclic_factorizations(F(2, 3), F(4, 3), 3)
    assert {z.terms for z in found} == {
        ((1, 2),),
        ((2, 3),),
        ((2, 1), (3, 3)),
    }
    assert sorted(z.length for z in found) == [2, 3, 4]

    # Peeling ends on a remainder that is not a whole number of r^1.
    assert cyclic_factorizations(F(2, 3), F(1, 3), 4) == []
    # 9/4 = r^2 needs an exponent past the cap.
    assert cyclic_factorizations(F(3, 2), F(9, 4), 1) == []


def test_factorizations_against_oracle_randomized():
    rng = random.Random(67)
    # Both generator directions occur: weights fall with the exponent
    # when r < 1 and rise when r > 1.
    ratios = [F(2, 3), F(3, 2), F(2, 5), F(5, 2), F(3, 5), F(5, 3)]
    for _ in range(24):
        r = rng.choice(ratios)
        cap = rng.randint(2, 5)
        x = sum(
            (rng.randint(0, 2) * r**e for e in range(1, cap + 1)),
            F(0),
        )
        found = cyclic_factorizations(r, x, cap)
        got = {z.terms for z in found}
        want = brute_cyclic_factorizations(r, x, cap)
        assert got == want, (r, x, cap)
        # Ascending by multiplicity vector over exponents 1..cap.
        vectors = [tuple(z.multiplicity(e) for e in range(1, cap + 1)) for z in found]
        assert vectors == sorted(vectors), (r, x, cap)


def test_factorizations_degenerate_inputs():
    assert cyclic_factorizations(F(2, 3), F(-1), 4) == []
    zero = cyclic_factorizations(F(2, 3), F(0), 4)
    assert len(zero) == 1 and zero[0].terms == ()
    # Integer ratio: the monoid is r * naturals.
    found = cyclic_factorizations(F(3), F(6), 4)
    assert [z.terms for z in found] == [((1, 2),)]
    assert cyclic_factorizations(F(3), F(7), 4) == []


def test_factorizations_walk_past_the_recursion_limit():
    # 4/3 = 2 * (2/3): each exponent either keeps its 3 copies or
    # trades 2 of them on, so the walk has one level per exponent up to
    # the cap, more than the recursion limit allows frames.
    cap = sys.getrecursionlimit() + 200
    start = time.perf_counter()
    found = cyclic_factorizations(F(2, 3), F(4, 3), cap)
    assert len(found) == cap
    assert found[0].terms == tuple((t, 1) for t in range(2, cap)) + ((cap, 3),)
    assert found[-1].terms == ((1, 2),)
    # A one-term answer costs nothing that grows with the cap.
    assert [z.terms for z in cyclic_factorizations(F(2, 3), F(2, 3), 10**8)] == [((1, 1),)]
    assert time.perf_counter() - start < 2


def test_factorizations_reject_unit_numerator_small_ratio():
    with pytest.raises(NotAtomic):
        cyclic_factorizations(F(1, 2), F(3, 4), 4)


# Every a/b in lowest terms with a, b <= 7, both directions and the
# integers, except 1/b with b >= 2, whose monoid has no atoms.
LISTED_RATIOS = [
    F(a, b) for a in range(1, 8) for b in range(1, 8) if math.gcd(a, b) == 1 and (a > 1 or b == 1)
]


def test_listing_keeps_the_old_walks_order():
    sizes = []

    @settings(max_examples=200)
    @given(
        # perfbench's four ratios again, for more long listings.
        r=st.sampled_from(LISTED_RATIOS) | st.sampled_from([F(2, 3), F(3, 2), F(3, 5), F(5, 3)]),
        cap=st.one_of(st.integers(1, 10), st.just(10**8)),
        spots=st.permutations(range(4)),
        mults=st.lists(st.integers(0, 12), min_size=3, max_size=3),
    )
    def check(r, cap, spots, mults):
        # x is drawn as perfbench draws it. A shrinking ratio's copies
        # sit in the four exponents up to the cap, where many paths of
        # the trade box meet in one state; a growing ratio's sit in the
        # four lowest. At cap 10^8 a shrinking ratio's sit low too, with
        # fewer than a copies each: no trade applies, and the one answer
        # must not cost work that grows with the cap.
        x = F(0)
        for i, m in zip(spots, mults):
            if r < 1 and cap < 10**8:
                x += m * r ** max(1, cap - i)
            else:
                x += (m % r.numerator if r < 1 else m) * r ** min(1 + i, cap)
        found = [z.terms for z in cyclic_factorizations(r, x, cap)]
        assert found == [z.terms for z in old_cyclic_factorizations(r, x, cap)], (r, x, cap)
        sizes.append(len(found))

    check()
    # Some listings are long enough that the states' shared suffixes
    # carry most of the answer.
    assert sum(size >= 500 for size in sizes) >= 3
    # States met again at several exponents, whose suffixes are cut from
    # results that came from other reused states: 96,616 results at
    # r = 2/3, x = 4, cap 9.
    for r, x, cap in [*((F(2, 3), F(4), cap) for cap in range(1, 10)), (F(5, 3), F(400), 12)]:
        found = [z.terms for z in cyclic_factorizations(r, x, cap)]
        assert found == [z.terms for z in old_cyclic_factorizations(r, x, cap)], (r, x, cap)


def test_membership_members():
    got = cyclic_contains(F(3, 2), F(9, 2))
    assert got.status == "member"
    assert got.witness is not None and got.witness.value() == F(9, 2)

    got = cyclic_contains(F(2, 3), F(4, 3))
    assert got.status == "member"
    assert got.witness.value() == F(4, 3)

    assert cyclic_contains(F(2, 3), F(0)).status == "member"
    got = cyclic_contains(F(1), F(5))
    assert got.status == "member" and got.witness.terms == ((1, 5),)


def test_membership_screens():
    # Below the smallest generator, for an increasing ratio.
    got = cyclic_contains(F(3, 2), F(1, 2))
    assert got.status == "non-member" and got.certificate

    # Denominator carries a prime the ratio cannot produce.
    got = cyclic_contains(F(3, 2), F(10, 3))
    assert got.status == "non-member"

    # Numerators of members stay divisible by the ratio's numerator.
    got = cyclic_contains(F(2, 3), F(1, 3))
    assert got.status == "non-member"

    got = cyclic_contains(F(1), F(1, 2))
    assert got.status == "non-member"

    assert cyclic_contains(F(2, 3), F(-2)).status == "non-member"


def test_membership_exhaustive_refusal_above_one():
    # 33/8 passes the divisibility screens, but its base factorization
    # would need more of r^2 than is left of the target, which settles
    # the question for an increasing ratio too.
    got = cyclic_contains(F(3, 2), F(33, 8))
    assert got.status == "non-member"
    assert "no representation" in got.certificate
    # The early screen still wins when the numerator rules it out.
    got = cyclic_contains(F(3, 2), F(2))
    assert got.status == "non-member"
    assert "divisible" in got.certificate


def test_membership_decides_past_cap():
    # The denominator needs exponent 12, past the cap: still a member,
    # found by peeling digits rather than by a capped search.
    got = cyclic_contains(F(2, 3), F(2, 3) ** 12, 8)
    assert got.status == "member"
    assert got.witness.terms == ((12, 1),)

    # 2/9 forces two copies of r^2 = 4/9, more than 2/9: refuted exactly.
    got = cyclic_contains(F(2, 3), F(2, 9), 8)
    assert got.status == "non-member"
    assert "no representation" in got.certificate and "2*r^2" in got.certificate


def test_membership_verdict_ignores_cap():
    x = F(2, 3) ** 12
    for cap in (8, 12):
        got = cyclic_contains(F(2, 3), x, cap)
        assert got.status == "member" and got.witness.terms == ((12, 1),)
        assert got.cap == cap
        assert cyclic_contains(F(2, 3), F(2, 9), cap).status == "non-member"


@given(
    a=st.integers(2, 5),
    b=st.integers(2, 5),
    cap=st.integers(1, 4),
    mults=st.lists(st.integers(0, 2), min_size=4, max_size=4),
    shift=st.integers(-3, 3),
    depth=st.integers(0, 5),
)
def test_cyclic_against_brute_force(a, b, cap, mults, shift, depth):
    # x is a sum of powers of r shifted by a multiple of a/b^depth (of
    # a/7 at depth 5). The shift keeps the numerator screen quiet, so
    # non-members reach the digit routine as well as the other screens.
    assume(math.gcd(a, b) == 1)
    r = F(a, b)
    x = sum((m * r**e for e, m in enumerate(mults[:cap], start=1)), F(0))
    x += F(shift * a, b**depth if depth < 5 else 7)
    want = brute_cyclic_factorizations(r, x, cap)

    found = cyclic_factorizations(r, x, cap)
    assert {z.terms for z in found} == want and len(found) == len(want)
    vectors = [tuple(z.multiplicity(e) for e in range(1, cap + 1)) for z in found]
    assert vectors == sorted(vectors)
    # Listed results are built unchecked; the public constructor agrees.
    for z in found:
        again = CyclicFactorization(r, z.terms)
        assert z == again and hash(z) == hash(again) and repr(z) == repr(again)

    got = cyclic_contains(r, x, cap)
    assert got.status in ("member", "non-member")
    if got.status == "member":
        assert got.witness.value() == x
    else:
        assert not want and got.certificate


@given(
    a=st.integers(2, 6),
    b=st.integers(1, 6),
    mults=st.lists(st.integers(0, 4), min_size=1, max_size=5),
)
def test_membership_witness_is_a_shortest_factorization(a, b, mults):
    # For r > 1 the witness comes from trading the base factorization up;
    # the listing is complete once the cap reaches every r^t <= x. An
    # integer r (b = 1) is the one atom, so both give (x/r) * r^1.
    assume(math.gcd(a, b) == 1 and any(mults))
    r = F(a, b)
    x = sum((m * r**e for e, m in enumerate(mults, start=1)), F(0))
    witness = cyclic_contains(r, x).witness
    assert witness.value() == x
    cap = witness.terms[-1][0]
    while r > 1 and r ** (cap + 1) <= x:
        cap += 1
    found = cyclic_factorizations(r, x, cap)
    assert witness in found
    assert witness.length == min(z.length for z in found)
    if r > 1 and b >= 2:
        # Fewer than a copies of every power: no trade up is left.
        assert all(m < a for _, m in witness.terms)


def test_listings_skip_the_checking_constructors(monkeypatch):
    # A clock-free guard on the listings' speed: they build results
    # without running the public constructors' per-term checks.
    calls = []
    for cls in (Factorization, CyclicFactorization):
        checked = cls.__post_init__

        def counting(self, checked=checked):
            calls.append(type(self).__name__)
            checked(self)

        monkeypatch.setattr(cls, "__post_init__", counting)
    assert len(FgMonoid((F(1, 2), F(1, 3))).factorizations(10)) == 11
    assert len(cyclic_factorizations(F(2, 3), F(16, 9), 8)) == 433
    assert len(cyclic_factorizations(F(3, 2), F(60), 8)) == 300
    assert calls == []
    # The counter does see the public constructors.
    CyclicFactorization(F(2, 3), ((1, 1),))
    Factorization(((F(1, 2), 1),))
    assert calls == ["CyclicFactorization", "Factorization"]


def test_fg_listing_and_lengths_skip_representations(monkeypatch):
    # factorizations and lengths walk the scaled atoms themselves; no
    # call goes through NumericalSemigroup.representations.
    calls = []
    listing = NumericalSemigroup.representations

    def counting(self, x):
        calls.append(x)
        return listing(self, x)

    monkeypatch.setattr(NumericalSemigroup, "representations", counting)
    for gens, x in (
        ((F(1, 2), F(1, 3)), F(10)),
        ((F(1, 6), F(1, 10), F(1, 15)), F(3)),
        ((F(1, 6), F(1, 10), F(1, 15), F(7, 30)), F(3)),
        ((F(7, 12), F(11, 12), F(13, 12), F(17, 12), F(19, 12)), F(9)),
    ):
        m = FgMonoid(gens)
        assert m.factorizations(x) and m.lengths(x) and m.atom_support(x)
    assert calls == []
    # The counter does see a direct call.
    NumericalSemigroup((2, 3)).representations(6)
    assert calls == [6]


def test_trade_moves():
    z = CyclicFactorization(F(3, 2), ((1, 3),))
    up = cyclic_trade(F(3, 2), z, 1, "up")
    assert up.terms == ((2, 2),)
    assert up.value() == z.value()
    assert abs(up.length - z.length) == 1

    back = cyclic_trade(F(3, 2), up, 1, "down")
    assert back.terms == z.terms


def test_trade_preserves_value_randomized():
    rng = random.Random(71)
    for _ in range(30):
        r = rng.choice([F(2, 3), F(3, 2), F(2, 5), F(5, 2)])
        terms = tuple(
            (e, rng.randint(1, 6)) for e in rng.sample(range(1, 6), rng.randint(1, 3))
        )
        z = CyclicFactorization(r, terms)
        t = rng.choice([e for e, _ in z.terms])
        if z.multiplicity(t) >= r.numerator:
            moved = cyclic_trade(r, z, t, "up")
            assert moved.value() == z.value()
            assert abs(moved.length - z.length) == abs(
                r.denominator - r.numerator
            )


def test_trade_rejects_bad_inputs():
    z = CyclicFactorization(F(3, 2), ((1, 2),))
    with pytest.raises(InsufficientMultiplicity):
        cyclic_trade(F(3, 2), z, 1, "up")
    with pytest.raises(ParseError):
        cyclic_trade(F(2, 3), z, 1, "up")
    with pytest.raises(ParseError):
        cyclic_trade(F(3, 2), z, 1, "sideways")


def test_embedding_witness():
    w = generalized_cyclic_embed((F(2, 5), F(4, 7)), 1, 2)
    assert w.value == F(4, 25)
    assert w.base == F(2, 35)
    assert w.coefficient == 49
    assert w.value == w.coefficient * w.base**2

    w = generalized_cyclic_embed((F(2, 5), F(4, 7)), 2, 3)
    assert w.value == F(4, 7) ** 3
    assert w.value == w.coefficient * w.base**3

    w = generalized_cyclic_embed((F(2), F(4, 7)), 1, 1)
    assert w.as_mapping() == {
        "ratio_index": 1,
        "power": 1,
        "prime": 2,
        "coefficient": 7,
        "base": "2/7",
        "value": "2",
    }

    # The shared numerator gcd 1299721^2 lies past the prime cache's
    # square; its exact square root is the prime.
    q = 1_299_721
    w = generalized_cyclic_embed((F(q**2, 5), F(q**2, 7)), 1, 1)
    assert (w.prime, w.base, w.coefficient) == (q, F(q, 35), 7 * q)
    with pytest.raises(NotFoundWithinLimit):
        generalized_cyclic_embed((F(q * 1_299_743, 5), F(q * 1_299_743, 7)), 1, 1)


def test_embedding_requires_shared_prime():
    with pytest.raises(GcdOne):
        generalized_cyclic_embed((F(2, 77), F(3, 77)), 1, 1)
