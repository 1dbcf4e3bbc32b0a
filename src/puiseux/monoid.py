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
from dataclasses import dataclass
from fractions import Fraction
from functools import cached_property

from .arith import _exact, format_rational
from .errors import NonPositive
from .semigroup import NumericalSemigroup


def _order_key(q: Fraction) -> tuple[int, Fraction]:
    """An exact sort key for rationals: floor(q * 2**64), then q.

    The floor is monotone in q, so almost every comparison is settled
    by one integer compare, and q itself orders the rare ties exactly.
    """
    return (q.numerator << 64) // q.denominator, q


@dataclass(frozen=True)
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
        object.__setattr__(f, "terms", terms)
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


@dataclass(frozen=True)
class FgMonoid:
    """The additive closure of finitely many positive rationals.

    Generators are normalized to a strictly increasing tuple of reduced
    fractions; floats and bools are refused. An empty tuple gives the
    trivial monoid. The atoms and the reduction to a numerical
    semigroup are computed once per instance and cached outside the
    dataclass fields, so equality, hashing and repr see the generators
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
        x = x if type(x) is Fraction else _exact(x, Fraction)
        if x < 0:
            return False
        if x == 0:
            return True
        if not self.generators:
            return False
        q, ns = self.to_scaled_integer()
        t = x / q
        return t.denominator == 1 and ns.contains(t.numerator)

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
        lcm. The smallest generator is always an atom; any other
        generator whose denominator divides L falls back to membership
        in the monoid of the smaller generators, tested on the integer
        generators of to_scaled_integer.
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
            elif out:
                # Ask in the integers of self's reduction, where g and
                # the smaller generators keep their indices.
                scaled = self._reduction[1].generators
                if NumericalSemigroup(scaled[:i]).contains(scaled[i]):
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

    def _representations(self, x: Fraction | int) -> tuple[tuple[Fraction, ...], list[tuple[int, ...]]]:
        """The atoms and every coefficient vector over them summing to x.

        Vectors are in NumericalSemigroup.representations order. For
        x = 0 the only vector is the empty one, over no atoms.
        """
        x = x if type(x) is Fraction else _exact(x, Fraction)
        if x <= 0:
            return (), ([()] if x == 0 else [])
        ats = self.atoms()
        if not ats:
            return ats, []
        t = x / self._reduction[0]
        if t.denominator != 1:
            return ats, []
        return ats, self._atom_semigroup.representations(t.numerator)

    def factorizations(self, x: Fraction | int) -> list[Factorization]:
        """All factorizations of x into atoms.

        Results are ordered lexicographically, increasing, by the
        multiplicity vector indexed by increasing atoms. Note the
        difference from NumericalSemigroup.representations, whose
        canonical order varies the largest generator slowest; both
        orders are deterministic, they just serve different readers.
        """
        # The atoms are increasing positive Fractions (normalized with
        # the generators) and every kept c is an int >= 1.
        ats, reps = self._representations(x)
        return [
            Factorization._sorted(tuple([(a, c) for a, c in zip(ats, rep) if c]))
            for rep in sorted(reps)
        ]

    def lengths(self, x: Fraction | int) -> tuple[int, ...]:
        """The set of factorization lengths of x, sorted increasing."""
        _, reps = self._representations(x)
        return tuple(sorted({sum(rep) for rep in reps}))

    def atom_support(self, x: Fraction | int) -> tuple[Fraction, ...]:
        """Atoms that appear in at least one factorization of x.

        An atom a qualifies exactly when x - a is still a member, which
        is tested against one reduction to a numerical semigroup (whose
        contains rejects the negative x - a of atoms above x).
        """
        x = x if type(x) is Fraction else _exact(x, Fraction)
        ats = self.atoms()
        if not ats:
            return ()
        q, ns = self.to_scaled_integer()
        ts = ((x - a) / q for a in ats)
        return tuple(a for a, t in zip(ats, ts) if t.denominator == 1 and ns.contains(t.numerator))

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
