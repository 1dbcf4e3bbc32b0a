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
from itertools import compress

from .arith import _exact, cached_value, format_rational, record
from .errors import NonPositive
from .semigroup import NumericalSemigroup, _coefficients, _leaves, _levels


def _by_value(values) -> list[tuple[int, Fraction, int, int]]:
    """values sorted increasing, each decorated for that one sort as
    (floor(q * 2**64), q, n, d) with q = n/d its reduced Fraction.

    Each value is made an exact Fraction first, floats and bools
    refused, and its numerator and denominator are read once, here.
    The floor is monotone in q, so almost every comparison is settled
    by one integer compare, and q itself orders the rare ties exactly.
    Equal values end up side by side.
    """
    out = []
    for q in values:
        if type(q) is not Fraction:
            q = _exact(q, Fraction)
        n, d = q.as_integer_ratio()
        out.append(((n << 64) // d, q, n, d))
    out.sort()
    return out


@record
class Factorization:
    """A finite multiset of atoms with positive multiplicities.

    Terms are kept sorted by atom; duplicate atoms passed to the
    constructor are merged. The constructor checks every term: atoms
    must be exact positive rationals and multiplicities positive ints,
    floats and bools refused. The one field lives in a slot, so
    instances carry no __dict__. FgMonoid.factorizations checks its
    atoms once per call instead and builds all its results at once with
    record's unchecked bulk constructor, _trusted.
    """

    __slots__ = ("terms",)
    terms: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        merged: dict[Fraction, int] = {}
        for atom, mult in self.terms:
            if type(atom) is not Fraction:
                atom = _exact(atom, Fraction)
            if type(mult) is not int:
                mult = _exact(mult)
            if mult < 1:
                raise NonPositive(f"multiplicities must be >= 1, got {mult}")
            merged[atom] = merged.get(atom, 0) + mult
        entries = _by_value(merged)
        # A Fraction's denominator is positive, so its sign is the numerator's.
        if entries and entries[0][2] <= 0:
            raise NonPositive(f"atoms must be positive, got {entries[0][1]}")
        object.__setattr__(self, "terms", tuple((atom, merged[atom]) for _, atom, _, _ in entries))

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
    trivial monoid. Each generator's numerator and denominator are read
    once, at construction, and kept as int tuples beside the record's
    one field; the atoms and the reduction to a numerical semigroup are
    computed from them once per instance and cached there too. Equality,
    hashing and repr see the generators only.
    """

    generators: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        entries = _by_value(self.generators)
        if entries and entries[0][2] <= 0:
            raise NonPositive(f"generators must be positive, got {entries[0][1]}")
        # Equal values sort side by side; the first of each run is kept.
        kept = [e for e, before in zip(entries, [None, *entries]) if e != before]
        _, gens, nums, dens = zip(*kept) if kept else ((),) * 4
        fields = self.__dict__
        fields["generators"], fields["_nums"], fields["_dens"] = gens, nums, dens

    def to_scaled_integer(self) -> tuple[Fraction, NumericalSemigroup]:
        """The scale q and semigroup N with self = q * N and gcd(N) = 1.

        q is the gcd of the generators in the rational sense: the
        largest rational whose integer multiples include every
        generator.
        """
        if not self.generators:
            raise NonPositive("the trivial monoid has no scaled integer form")
        return self._reduction

    @cached_value
    def _reduction(self) -> tuple[Fraction, NumericalSemigroup]:
        dens = self._dens
        common = math.lcm(*dens)
        nums = [n * (common // d) for n, d in zip(self._nums, dens)]
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

    @cached_value
    def _atoms(self) -> tuple[Fraction, ...]:
        gens, nums, dens = self.generators, self._nums, self._dens
        seen = 1  # lcm of the denominators of the generators before g
        out = []
        for i, d in enumerate(dens):
            r = seen % d
            if r:
                seen *= d // math.gcd(d, r)
            elif nums[i] * dens[0] >= 2 * nums[0] * d:
                # g is at least twice the smallest: ask in the integers
                # of self's reduction, where g and the smaller generators
                # keep their indices. Its walk started at level i stays
                # within the i smallest.
                ns = self._reduction[1]
                if ns._find(i, ns.generators[i], True) is not None:
                    continue
            out.append(gens[i])
        return tuple(out)

    @cached_value
    def _atom_semigroup(self) -> NumericalSemigroup:
        # The atoms generate the same monoid, so they share self's scale q.
        qn, qd = self._reduction[0].as_integer_ratio()
        ratios = map(Fraction.as_integer_ratio, self._atoms)
        return NumericalSemigroup(tuple(n * qd // (d * qn) for n, d in ratios))

    def _target(self, x: Fraction | int) -> int | None:
        """x / q, with q the scale of to_scaled_integer, when that is a
        nonnegative integer; 0 for x = 0 (also in the trivial monoid)
        and None otherwise. Members of self are among the integers."""
        x = x if type(x) is Fraction else _exact(x, Fraction)
        n, d = x.as_integer_ratio()
        if n <= 0 or not self.generators:
            return 0 if n == 0 else None
        qn, qd = self._reduction[0].as_integer_ratio()
        t, r = divmod(n * qd, d * qn)
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
        them; the records are built once, from all the terms.
        """
        t = self._target(x)
        if not t:
            return [] if t is None else [Factorization(())]
        # The atoms are increasing positive Fractions (normalized with
        # the generators) and every kept c is an int >= 1.
        ats = self._atoms
        n = len(ats)
        if n == 1:
            # One atom generates q * N, so it is q itself.
            return Factorization._trusted(1, [((ats[0], t),)])
        # The scaled atoms have gcd 1, so every t is a possible target.
        levels, tail, _, _, ranges = _levels(self._atom_semigroup.generators[::-1])
        a1, a0 = ats[-2:]
        a2 = ats[-3] if n > 2 else None  # n == 2 passes c = 0 only
        # Level k >= 4 fixes the coefficient of atom n - k, so a leaf's
        # coefficients belong to the atoms from the smallest up.
        lead = ats[: n - 3]
        out: list[tuple] = []
        for solved, cs in _leaves(levels, lambda r, _: tail(r), n, t, True):
            prefix = tuple(compress(zip(lead, cs), cs))
            # solved holds (c, r, low) as tail gives them: c for a2, the
            # third largest atom, and ranges(r, low) the coefficients of
            # a1 and a0, the largest. c1 = 0 can only come first, and
            # c0 = 0 last.
            out += [
                p + ((a1, c1), (a0, c0)) if c1 and c0 else p + ((a1, c1),) if c1
                else p + ((a0, c0),) if c0 else p
                for c, r, low in solved
                for p in (prefix + ((a2, c),) if c else prefix,)
                for c0, c1 in zip(*ranges(r, low))
            ]
        return Factorization._trusted(len(out), out)

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
        arithmetic progression, so that mask is one closed-form integer:
        tail's (c, r, low) gives the progression's count and its
        shortest length directly, and no range is built.
        """
        t = self._target(x)
        if not t:
            return () if t is None else (0,)
        gens = self._atom_semigroup.generators
        if len(gens) == 1:
            return (t,)
        levels, tail, _, _, _ = self._atom_semigroup._walk
        # Each step along a pair's solutions trades g1 copies of the
        # smallest atom for g0 of the next (both over their gcd d), so
        # the lengths c0 + c1 fall by delta = g1 - g0.
        d = math.gcd(gens[0], gens[1])
        g0, g1 = gens[0] // d, gens[1] // d
        delta = g1 - g0
        unit = (1 << delta) - 1

        def union(solved) -> int:
            # solved holds (c, r, low) as tail gives them: the solutions
            # over the two smallest number (r // g0 - low) // g1 + 1, and
            # the one with c0 = low is the shortest.
            hit = 0
            for c, r, low in solved:
                count = (r // g0 - low) // g1 + 1
                hit |= ((1 << count * delta) - 1) // unit << low + (r - low * g0) // g1 + c
            return hit

        if len(gens) == 2:
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
