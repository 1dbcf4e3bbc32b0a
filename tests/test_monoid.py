import random
from fractions import Fraction

import pytest
from hypothesis import given, strategies as st

from puiseux import arith
from puiseux.errors import NonPositive
from puiseux.monoid import Factorization, FgMonoid, isomorphism_witness
from puiseux.semigroup import NumericalSemigroup

from oracles import (
    brute_atoms,
    brute_rational_factorizations,
    brute_rational_member,
)

F = Fraction


def random_monoid(rng, max_gens=4, bound=12):
    gens = tuple(
        F(rng.randint(1, bound), rng.randint(1, bound))
        for _ in range(rng.randint(1, max_gens))
    )
    return FgMonoid(gens)


def test_factorization_merges_and_sorts():
    f = Factorization(((F(1, 2), 1), (F(1, 3), 2), (F(1, 2), 3)))
    assert f.terms == ((F(1, 3), 2), (F(1, 2), 4))
    assert Factorization(((F(1, 3), 1), (F(1, 3), 2))).terms == ((F(1, 3), 3),)
    assert f.length == 6
    assert f.evaluate() == 2 * F(1, 3) + 4 * F(1, 2)
    assert f.multiplicity(F(1, 2)) == 4
    assert f.multiplicity(F(1, 7)) == 0


def test_factorization_checks_its_terms():
    for atom in (0, F(-1, 2)):
        with pytest.raises(NonPositive):
            Factorization(((atom, 1),))
    with pytest.raises(NonPositive):
        Factorization(((F(1, 2), 0),))
    f = Factorization(((2, 1),))
    assert f.terms == ((F(2), 1),) and type(f.terms[0][0]) is Fraction


def test_factorization_mapping_shape():
    f = Factorization(((F(2, 3), 2),))
    assert f.as_mapping() == {
        "length": 2,
        "terms": [{"atom": "2/3", "mult": 2}],
    }


def test_generators_normalized():
    m = FgMonoid((F(2, 4), F(1, 2), F(3)))
    assert m.generators == (F(1, 2), F(3))
    with pytest.raises(NonPositive):
        FgMonoid((F(1, 2), F(0)))


@st.composite
def generator_inputs(draw):
    """Rationals, some zero or negative, each with near or equal twins.

    A twin q + c / t with t > 2**66 often ties q on floor(q * 2**64);
    an equal twin arrives as a str, an unreduced str, or an int.
    """
    out = []
    for q in draw(st.lists(st.builds(F, st.integers(-3, 2**90), st.integers(1, 2**70)), max_size=8)):
        out.append(q)
        if draw(st.booleans()):
            out.append(q + F(draw(st.integers(-3, 3)), draw(st.integers(2**66, 2**100))))
        k = draw(st.integers(1, 2**40))
        out.append(draw(st.sampled_from((str(q), f"{q.numerator * k}/{q.denominator * k}"))))
        if q.denominator == 1:
            out.append(q.numerator)
    return draw(st.permutations(out))


@given(generator_inputs())
def test_generators_are_sorted_distinct_fractions(gens):
    want = tuple(sorted(set(map(F, gens))))
    if want and want[0] <= 0:
        with pytest.raises(NonPositive):
            FgMonoid(gens)
        return
    got = FgMonoid(gens).generators
    assert got == want
    assert all(type(g) is Fraction for g in got)


def test_empty_monoid_is_trivial():
    m = FgMonoid(())
    assert m.contains(F(0))
    assert not m.contains(F(1, 2))
    assert m.atoms() == ()


def test_scaled_integer_round_trip():
    m = FgMonoid((F(2, 77), F(3, 77)))
    q, sg = m.to_scaled_integer()
    assert sg.generators == (2, 3)
    assert q == F(1, 77)
    assert tuple(q * g for g in sg.generators) == m.generators


def test_membership_examples():
    m = FgMonoid((F(2, 77), F(3, 77)))
    assert m.contains(F(1, 7))
    assert not m.contains(F(1, 77))
    assert m.contains(F(0))
    assert not m.contains(F(-1, 7))


def test_membership_matches_brute_force():
    rng = random.Random(41)
    for _ in range(60):
        m = random_monoid(rng)
        for _ in range(6):
            x = F(rng.randint(0, 12), rng.randint(1, 6))
            assert m.contains(x) == brute_rational_member(m.generators, x), (
                m.generators,
                x,
            )


def test_atoms_examples():
    assert FgMonoid((F(1, 2), F(1, 4))).atoms() == (F(1, 4),)
    assert FgMonoid((F(2, 3), F(1, 3))).atoms() == (F(1, 3),)
    assert FgMonoid((F(1, 2), F(1, 3))).atoms() == (F(1, 3), F(1, 2))
    assert FgMonoid((F(4, 9), F(2, 3))).atoms() == (F(4, 9), F(2, 3))


def test_atoms_match_brute_force():
    rng = random.Random(43)
    for _ in range(60):
        m = random_monoid(rng)
        assert set(m.atoms()) == brute_atoms(m.generators), m.generators
    # Ties on the least valuation at a prime: only the smallest of the
    # tied generators is proved an atom by it.
    ties = [
        (F(1, 4), F(3, 4), F(1, 2), F(1, 3)),
        (F(1, 3), F(1, 2), F(5, 6)),
        (F(3, 4), F(5, 4), F(1)),
        (F(1, 9), F(2, 9), F(4, 9), F(1, 2)),
        (F(1, 8), F(3, 8), F(5, 8), F(1, 4), F(3, 2)),
    ]
    # Primes shared across denominators.
    shared = [
        (F(1, 6), F(1, 10), F(1, 15), F(7, 30)),
        (F(1, 12), F(1, 18), F(5, 36)),
        (F(1, 6), F(1, 4), F(1, 9), F(5, 12)),
        (F(2, 15), F(1, 10), F(1, 6), F(1, 2)),
    ]
    smooth = [2 ** a * 3 ** b * 5 ** c for a in range(3) for b in range(3) for c in range(2)]
    shared += [
        tuple(F(rng.randint(1, 6), rng.choice(smooth)) for _ in range(rng.randint(2, 5)))
        for _ in range(40)
    ]
    for gens in ties + shared:
        m = FgMonoid(gens)
        assert set(m.atoms()) == brute_atoms(m.generators), m.generators


def test_atoms_with_unfactored_denominator():
    # atoms() factors no denominator: 143 = 11 * 13 is out of reach of
    # trial division up to 10, and 1/143 must still count against 1/11
    # and 1/13.
    assert arith.prime_factors(143, limit=10) is None
    for gens in (
        (F(1, 143), F(1, 11), F(1, 7)),
        (F(1, 7), F(3, 143), F(1, 11), F(1, 13)),
        (F(2, 143), F(3, 143), F(1, 2)),
    ):
        m = FgMonoid(gens)
        assert set(m.atoms()) == brute_atoms(m.generators), m.generators


def test_generators_below_twice_the_smallest_are_atoms_without_a_walk(monkeypatch):
    # No sum of two or more generators is below twice the smallest, so
    # 1,200 integer generators 1200..2399 need no membership walk.
    def no_walk(*args):
        raise AssertionError("walked")

    monkeypatch.setattr(NumericalSemigroup, "_find", no_walk)
    gens = tuple(range(1200, 2400))
    assert FgMonoid(gens).atoms() == tuple(F(g) for g in gens)


def test_cached_results_are_stable_and_hidden():
    rng = random.Random(67)
    for _ in range(30):
        gens = random_monoid(rng).generators
        m = FgMonoid(gens)
        atoms, reduction = m.atoms(), m.to_scaled_integer()
        untouched = FgMonoid(gens)
        assert m == untouched and hash(m) == hash(untouched) and repr(m) == repr(untouched)
        for _ in range(3):
            x = sum((rng.randint(0, 2) * a for a in atoms), F(0))
            for query in (m.factorizations, m.lengths, m.atom_support, m.contains):
                query(x)
        assert m.atoms() == atoms and m.to_scaled_integer() == reduction
        fresh = FgMonoid(gens)
        assert fresh.to_scaled_integer() == reduction and fresh.atoms() == atoms
        assert m == untouched and hash(m) == hash(untouched) and repr(m) == repr(untouched)
        assert {m: 1}[untouched] == 1


def test_atoms_generate_back():
    rng = random.Random(47)
    for _ in range(40):
        m = random_monoid(rng)
        again = FgMonoid(m.atoms())
        for _ in range(4):
            x = F(rng.randint(0, 10), rng.randint(1, 6))
            assert m.contains(x) == again.contains(x), (m.generators, x)


def test_factorizations_example():
    m = FgMonoid((F(1, 2), F(1, 3)))
    fs = m.factorizations(F(1))
    as_sets = {f.terms for f in fs}
    assert as_sets == {
        ((F(1, 3), 3),),
        ((F(1, 2), 2),),
    }
    assert m.lengths(F(1)) == (2, 3)


# Denominators sharing factors, so the listing's residue levels step by
# more than 1.
SHARED_DENOMINATORS = (
    (F(1, 6), F(1, 10), F(1, 15), F(7, 30)),
    (F(1, 12), F(1, 18), F(5, 36)),
    (F(2, 15), F(1, 10), F(1, 6), F(1, 2)),
)


def listed_generators(max_size=5):
    """1 to max_size generators: small ones, shared-factor sets, or up
    to 5 over one denominator D in [D / 2, 2 D], which keeps the
    brute force small."""
    over_one_denominator = st.sampled_from((6, 10, 12, 15, 30)).flatmap(
        lambda d: st.lists(st.builds(F, st.integers(d // 2, 2 * d), st.just(d)), min_size=2, max_size=max_size)
    )
    return st.one_of(
        st.lists(st.builds(F, st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=3),
        st.sampled_from(SHARED_DENOMINATORS).map(list),
        over_one_denominator,
    )


@given(
    gens=listed_generators(),
    mults=st.lists(st.integers(0, 2), min_size=5, max_size=5),
    offset=st.integers(0, 1),
)
def test_factorizations_match_brute_force(gens, mults, offset):
    m = FgMonoid(tuple(gens))
    atoms = m.atoms()
    x = sum((c * a for c, a in zip(mults, atoms)), F(offset))
    found = m.factorizations(x)
    want = brute_rational_factorizations(atoms, x)

    def vector(terms):
        return tuple(dict(terms).get(a, 0) for a in atoms)

    # Exactly the brute force's set, in ascending lexicographic order.
    assert [f.terms for f in found] == sorted(want, key=vector)
    # Listed results are built unchecked; the public constructor agrees.
    for f in found:
        again = Factorization(f.terms)
        assert f == again and hash(f) == hash(again) and repr(f) == repr(again)
    assert m.lengths(x) == tuple(sorted({sum(k for _, k in terms) for terms in want}))


@given(gens=listed_generators(max_size=4), mults=st.lists(st.integers(0, 2), min_size=4, max_size=4))
def test_atom_support_matches_brute_force(gens, mults):
    m = FgMonoid(tuple(gens))
    atoms = m.atoms()
    q, _ = m.to_scaled_integer()
    x = sum((c * a for c, a in zip(mults, atoms)), F(0))
    # x itself and its neighbours on q's lattice (among them gaps of the
    # monoid and negative values), 0, and points off the lattice.
    for y in [x + k * q for k in range(-2, 4)] + [F(0), -q, x + q / 2, q / 3]:
        used = {a for terms in brute_rational_factorizations(atoms, y) for a, _ in terms}
        assert m.atom_support(y) == tuple(sorted(used)), (m.generators, y)


def test_lengths_beyond_brute_force():
    # Lengths come without listing; the listing still pins them.
    ns = NumericalSemigroup((6, 9, 20, 31))
    listed = ns.representations(3000)
    assert len(listed) == 138932
    assert FgMonoid((6, 9, 20, 31)).lengths(3000) == tuple(sorted({sum(r) for r in listed}))
    # Over 1/2 and 1/3 the scale is 1/6, so 10**5 becomes 6 * 10**5 over 2 and 3.
    listed = NumericalSemigroup((2, 3)).representations(6 * 10**5)
    assert len(listed) == 10**5 + 1
    lengths = FgMonoid((F(1, 2), F(1, 3))).lengths(10**5)
    assert lengths == tuple(sorted({sum(r) for r in listed})) == tuple(range(2 * 10**5, 3 * 10**5 + 1))


def test_factorizations_order_and_degenerates():
    m = FgMonoid((F(1, 2), F(1, 3)))
    assert m.factorizations(F(-1)) == []
    zero = m.factorizations(F(0))
    assert len(zero) == 1 and zero[0].terms == ()
    # Ascending lexicographic order on multiplicity vectors over sorted atoms.
    fs = m.factorizations(F(2))
    vectors = [tuple(f.multiplicity(a) for a in m.atoms()) for f in fs]
    assert vectors == sorted(vectors)


def test_lengths_and_support():
    m = FgMonoid((F(1, 2), F(1, 3)))
    assert m.lengths(F(2)) == (4, 5, 6)
    assert m.lengths(F(1, 5)) == ()
    assert m.atom_support(F(1)) == (F(1, 3), F(1, 2))
    assert m.atom_support(F(1, 3)) == (F(1, 3),)
    assert m.atom_support(F(1, 5)) == ()


@given(
    gens=st.lists(st.builds(F, st.integers(1, 9), st.integers(1, 9)), min_size=1, max_size=4),
    mults=st.lists(st.integers(0, 2), min_size=4, max_size=4),
    c=st.builds(F, st.integers(1, 8), st.integers(1, 8)),
)
def test_scaling_transports_factorizations(gens, mults, c):
    m = FgMonoid(tuple(gens))
    scaled = m.scale(c)
    assert scaled.generators == tuple(sorted(c * g for g in set(m.generators)))
    assert scaled.atoms() == tuple(c * a for a in m.atoms())
    x = sum((k * a for k, a in zip(mults, m.atoms())), F(0))
    # Scaling keeps the atoms' order, so the listing maps term by term.
    image = [tuple((c * a, k) for a, k in f.terms) for f in m.factorizations(x)]
    assert [f.terms for f in scaled.factorizations(c * x)] == image


def test_isomorphism_witness_examples():
    a = FgMonoid((F(1, 2), F(1, 3)))
    b = a.scale(F(5, 7))
    w = isomorphism_witness(a, b)
    assert w == F(5, 7)
    back = isomorphism_witness(b, a)
    assert back == F(7, 5)
    assert isomorphism_witness(a, a) == F(1)


def test_isomorphism_witness_none_for_different_shapes():
    a = FgMonoid((F(1, 2), F(1, 3)))
    b = FgMonoid((F(1, 2), F(1, 5)))
    assert isomorphism_witness(a, b) is None
    c = FgMonoid((F(1, 2),))
    assert isomorphism_witness(a, c) is None


def test_isomorphism_witness_symmetric_randomized():
    rng = random.Random(61)
    for _ in range(40):
        a = random_monoid(rng, max_gens=3, bound=9)
        b = random_monoid(rng, max_gens=3, bound=9)
        w_ab = isomorphism_witness(a, b)
        w_ba = isomorphism_witness(b, a)
        assert (w_ab is None) == (w_ba is None)
        if w_ab is not None:
            assert w_ab * w_ba == 1
