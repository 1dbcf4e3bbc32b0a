"""Finitely generated monoids of nonnegative rationals.

Such a monoid is determined by finitely many positive generators. It
is always isomorphic, via multiplication by a single positive rational,
to a numerical semigroup whose generators have gcd 1: clear
denominators with the lcm, then divide out the gcd of the resulting
numerators. All membership and factorization questions are answered
exactly through that reduction.

The empty generator tuple is allowed and denotes the trivial monoid,
whose only element is 0.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import cached_property
from itertools import compress

from .arith import _exact, format_rational, record
from .errors import NonPositive
from .semigroup import NumericalSemigroup, _coefficients, _leaves, _levels


def _order_key(q: Fraction) -> tuple[int, Fraction]:
    """An exact sort key for rationals: floor(q * 2**64), then q.

    The floor is monotone in q, so almost every comparison is settled
    by one integer compare, and q itself orders the rare ties exactly.
    """
    return (q.numerator << 64) // q.denominator, q


@record
class Factorization:
    """A finite multiset of atoms with positive multiplicities.

    Terms are kept sorted by atom; duplicate atoms passed to the
    constructor are merged. The constructor checks every term: atoms
    must be exact positive rationals and multiplicities positive ints,
    floats and bools refused. FgMonoid.factorizations checks its atoms
    once per call instead and builds its results with _sorted.
    """

    terms: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        terms = []
        for atom, mult in self.terms:
            if type(atom) is not Fraction:
                atom = _exact(atom, Fraction)
            if type(mult) is not int:
                mult = _exact(mult)
            # A Fraction's denominator is positive, so its sign is the numerator's.
            if atom.numerator <= 0:
                raise NonPositive(f"atoms must be positive, got {atom}")
            if mult < 1:
                raise NonPositive(f"multiplicities must be >= 1, got {mult}")
            terms.append((atom, mult))
        # Results built from a sorted atom tuple are already strictly
        # increasing; only other input needs merging and sorting.
        keys = [_order_key(atom) for atom, _ in terms]
        if any(a >= b for a, b in zip(keys, keys[1:])):
            merged: dict[Fraction, int] = {}
            for atom, mult in terms:
                merged[atom] = merged.get(atom, 0) + mult
            terms = sorted(merged.items(), key=lambda term: _order_key(term[0]))
        object.__setattr__(self, "terms", tuple(terms))

    @classmethod
    def _sorted(cls, terms: tuple[tuple[Fraction, int], ...]) -> "Factorization":
        """Store terms as given, unchecked. The caller guarantees what
        the constructor would establish: Fraction atoms, strictly
        increasing and positive, each with an int multiplicity >= 1."""
        f = object.__new__(cls)
        f.__dict__["terms"] = terms
        return f

    @property
    def length(self) -> int:
        return sum(m for _, m in self.terms)

    def evaluate(self) -> Fraction:
        return sum((a * m for a, m in self.terms), Fraction(0))

    def multiplicity(self, atom: Fraction) -> int:
        for a, m in self.terms:
            if a == atom:
                return m
        return 0

    def as_mapping(self) -> dict:
        """JSON-ready form: total length plus one entry per atom."""
        return {
            "length": self.length,
            "terms": [
                {"atom": format_rational(a), "mult": m} for a, m in self.terms
            ],
        }


@record
class FgMonoid:
    """The additive closure of finitely many positive rationals.

    Generators are normalized to a strictly increasing tuple of reduced
    fractions; floats and bools are refused. An empty tuple gives the
    trivial monoid. The atoms and the reduction to a numerical
    semigroup are computed once per instance and cached beside the
    record's one field, so equality, hashing and repr see the generators
    only.
    """

    generators: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        unique: dict[tuple[int, int], Fraction] = {}
        for g in self.generators:
            if type(g) is not Fraction:
                g = _exact(g, Fraction)
            unique[g.numerator, g.denominator] = g
        gens = tuple(sorted(unique.values(), key=_order_key))
        if gens and gens[0].numerator <= 0:
            raise NonPositive(f"generators must be positive, got {gens[0]}")
        object.__setattr__(self, "generators", gens)

    def to_scaled_integer(self) -> tuple[Fraction, NumericalSemigroup]:
        """The scale q and semigroup N with self = q * N and gcd(N) = 1.

        q is the gcd of the generators in the rational sense: the
        largest rational whose integer multiples include every
        generator.
        """
        if not self.generators:
            raise NonPositive("the trivial monoid has no scaled integer form")
        return self._reduction

    @cached_property
    def _reduction(self) -> tuple[Fraction, NumericalSemigroup]:
        common = math.lcm(*(g.denominator for g in self.generators))
        nums = [g.numerator * (common // g.denominator) for g in self.generators]
        d = math.gcd(*nums)
        return Fraction(d, common), NumericalSemigroup(tuple(n // d for n in nums))

    def contains(self, x: Fraction | int) -> bool:
        """Whether x is a finite sum of generators (0 always is)."""
        t = self._target(x)
        return t == 0 or t is not None and self._reduction[1].contains(t)

    def atoms(self) -> tuple[Fraction, ...]:
        """The atoms, i.e. the minimal generating set, increasing.

        A generator g fails to be an atom exactly when the generators
        smaller than g already generate it: no larger generator can
        appear in such a sum. Every such sum has a denominator dividing
        L, the lcm of the smaller generators' denominators, so g is an
        atom whenever its denominator does not divide L. That is the
        case exactly when some prime power in g's denominator exceeds
        the one in every smaller generator's denominator, and it needs
        no factoring: one pass in increasing order keeps L as a running
        lcm. A generator below twice the smallest is no sum of two or
        more generators, so it is an atom. Any other generator whose
        denominator divides L falls back to membership in the monoid of
        the smaller generators, tested on the integer generators of
        to_scaled_integer: the semigroup's cached walk set-up is walked
        from the candidate's level, which reaches the smaller
        generators only.
        """
        return self._atoms

    @cached_property
    def _atoms(self) -> tuple[Fraction, ...]:
        gens = self.generators
        seen = 1  # lcm of the denominators of the generators before g
        out = []
        for i, g in enumerate(gens):
            d = g.denominator
            r = seen % d
            if r:
                seen *= d // math.gcd(d, r)
            elif g >= 2 * gens[0]:
                # Ask in the integers of self's reduction, where g and
                # the smaller generators keep their indices: its walk
                # started at level i stays within the i smallest.
                ns = self._reduction[1]
                if ns._find(i, ns.generators[i], True) is not None:
                    continue
            out.append(g)
        return tuple(out)

    @cached_property
    def _atom_semigroup(self) -> NumericalSemigroup:
        # The atoms generate the same monoid, so they share self's scale q.
        q = self._reduction[0]
        return NumericalSemigroup(
            tuple(a.numerator * q.denominator // (a.denominator * q.numerator) for a in self._atoms)
        )

    def _target(self, x: Fraction | int) -> int | None:
        """x / q, with q the scale of to_scaled_integer, when that is a
        nonnegative integer; 0 for x = 0 (also in the trivial monoid)
        and None otherwise. Members of self are among the integers."""
        x = x if type(x) is Fraction else _exact(x, Fraction)
        if x <= 0 or not self.generators:
            return 0 if x == 0 else None
        q = self._reduction[0]
        t, r = divmod(x.numerator * q.denominator, x.denominator * q.numerator)
        return None if r else t

    def factorizations(self, x: Fraction | int) -> list[Factorization]:
        """All factorizations of x into atoms.

        Results are ordered lexicographically, increasing, by the
        multiplicity vector indexed by increasing atoms. Note the
        difference from NumericalSemigroup.representations, whose
        canonical order varies the largest generator slowest; both
        orders are deterministic, they just serve different readers.

        The listing is representations' walk over the scaled atoms in
        reverse: the smallest atom's coefficient is fixed first,
        increasing, and the three largest are solved in closed form
        (semigroup._levels), so results come out in order. Each leaf of
        the walk builds the terms it fixed once, and its results extend
        them.
        """
        t = self._target(x)
        if not t:
            return [] if t is None else [Factorization._sorted(())]
        # The atoms are increasing positive Fractions (normalized with
        # the generators) and every kept c is an int >= 1.
        ats = self._atoms
        n = len(ats)
        if n == 1:
            # One atom generates q * N, so it is q itself.
            return [Factorization._sorted(((ats[0], t),))]
        # The scaled atoms have gcd 1, so every t is a possible target.
        levels, tail, pair, _ = _levels(self._atom_semigroup.generators[::-1])
        a1, a0 = ats[-2:]
        a2 = ats[-3] if n > 2 else None  # n == 2 passes c = 0 only
        new = Factorization._sorted

        def finish(prefix: tuple, solved) -> list[Factorization]:
            # solved holds (c, c0s, c1s): c for a2, the third largest
            # atom, then the ranges of a1 and a0, the largest. c1 = 0
            # can only come first, and c0 = 0 last.
            return [
                new(p + ((a1, c1), (a0, c0)) if c1 and c0 else p + ((a1, c1),) if c1
                    else p + ((a0, c0),) if c0 else p)
                for c, c0s, c1s in solved
                for p in (prefix + ((a2, c),) if c else prefix,)
                for c0, c1 in zip(c0s, c1s)
            ]

        if n == 2:
            return finish((), [(0, *pair(t))])
        if n == 3:
            return finish((), tail(t))
        # Level k >= 4 fixes the coefficient of atom n - k, so a leaf's
        # coefficients belong to the atoms from the smallest up.
        lead = ats[:n - 3]
        out: list[Factorization] = []
        for solved, cs in _leaves(levels, lambda r, _: tail(r), n, t, True):
            out.extend(finish(tuple(compress(zip(lead, cs), cs)), solved))
        return out

    def lengths(self, x: Fraction | int) -> tuple[int, ...]:
        """The set of factorization lengths of x, sorted increasing.

        Computed without listing, over representations' walk of the
        scaled atoms: bit L of mask(k, rem) says whether some
        representation of rem over the k smallest scaled atoms has
        length L, and mask(k, rem) is the union of mask(k - 1, rem - c *
        g) << c over the coefficients c of the k-th atom g. Each (k, rem)
        the walk reaches is computed once, level by level, without
        recursion; a nonzero remainder below the level's floor has mask
        0. Over the two smallest atoms the lengths of rem are an
        arithmetic progression, so that mask is one closed-form integer.
        """
        t = self._target(x)
        if not t:
            return () if t is None else (0,)
        gens = self._atom_semigroup.generators
        if len(gens) == 1:
            return (t,)
        levels, tail, pair, _ = self._atom_semigroup._walk
        # Each step along a pair's solutions trades g1 copies of the
        # smallest atom for g0 of the next (both over their gcd), so the
        # lengths c0 + c1 fall by delta = g1 - g0.
        delta = (gens[1] - gens[0]) // math.gcd(gens[0], gens[1])
        unit = (1 << delta) - 1

        def union(solved) -> int:
            # solved holds (c, c0s, c1s) as tail gives them.
            hit = 0
            for c, c0s, c1s in solved:
                hit |= ((1 << len(c0s) * delta) - 1) // unit << c0s[-1] + c1s[-1] + c
            return hit

        if len(gens) == 2:
            c0s, c1s = pair(t)
            found = union([(0, c0s, c1s)]) if c0s else 0
        elif len(gens) == 3:
            found = union(tail(t))
        else:
            # The remainders reaching each level, from the top down; a
            # nonzero one below the level's floor has mask 0 and is left out.
            reach: list[set[int]] = [set() for _ in levels]
            reach[-1].add(t)
            for k in range(len(gens), 3, -1):
                g, _, _, _, floor = levels[k]
                for rem in reach[k]:
                    left = (rem - c * g for c in _coefficients(levels[k], rem, True))
                    reach[k - 1].update(r for r in left if not 0 < r < floor)
            # Then their masks, level by level from the bottom up.
            masks = {rem: union(tail(rem)) for rem in reach[3]}
            for k in range(4, len(gens) + 1):
                g, below, masks = levels[k][0], masks, {}
                for rem in reach[k]:
                    hit = 0
                    for c in _coefficients(levels[k], rem, True):
                        hit |= below.get(rem - c * g, 0) << c
                    masks[rem] = hit
            found = masks[t]
        bits = bin(found)[:1:-1]
        # Reading the bits off the string is linear in their number;
        # testing mask >> i & 1 for each i would be quadratic.
        return tuple(i for i, bit in enumerate(bits) if bit == "1")

    def atom_support(self, x: Fraction | int) -> tuple[Fraction, ...]:
        """Atoms that appear in at least one factorization of x.

        An atom a qualifies exactly when x - a is still a member. With
        x = q * t and a = q * s in to_scaled_integer's terms, that is
        one integer membership test of t - s in the semigroup of the
        scaled atoms (whose contains rejects negative t - s).
        """
        t = self._target(x)
        if not t:
            return ()
        ns = self._atom_semigroup
        return tuple(a for a, s in zip(self._atoms, ns.generators) if ns.contains(t - s))

    def scale(self, c: Fraction | int) -> "FgMonoid":
        """The monoid c * self for a positive rational c."""
        c = c if type(c) is Fraction else _exact(c, Fraction)
        if c <= 0:
            raise NonPositive(f"scale factor must be positive, got {c}")
        return FgMonoid(tuple(g * c for g in self.generators))


def isomorphism_witness(a: FgMonoid, b: FgMonoid) -> Fraction | None:
    """The scale factor carrying a onto b, or None when they differ.

    Every isomorphism between monoids of nonnegative rationals is
    multiplication by a positive rational, so it suffices to compare
    atom lists: the ratio of the smallest atoms must carry each atom of
    a to the matching atom of b.
    """
    atoms_a, atoms_b = a.atoms(), b.atoms()
    if not atoms_a and not atoms_b:
        return Fraction(1)
    if len(atoms_a) != len(atoms_b) or not atoms_a:
        return None
    r = atoms_b[0] / atoms_a[0]
    if all(x * r == y for x, y in zip(atoms_a, atoms_b)):
        return r
    return None
