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

from .arith import format_rational, padic_valuation_int, prime_factors
from .errors import NonPositive
from .semigroup import NumericalSemigroup


@dataclass(frozen=True)
class Factorization:
    """A finite multiset of atoms with positive multiplicities.

    Terms are kept sorted by atom; duplicate atoms passed to the
    constructor are merged.
    """

    terms: tuple[tuple[Fraction, int], ...]

    def __post_init__(self) -> None:
        terms = []
        for atom, mult in self.terms:
            if type(atom) is not Fraction:
                atom = Fraction(atom)
            mult = int(mult)
            # A Fraction's denominator is positive, so its sign is the numerator's.
            if atom.numerator <= 0:
                raise NonPositive(f"atoms must be positive, got {atom}")
            if mult < 1:
                raise NonPositive(f"multiplicities must be >= 1, got {mult}")
            terms.append((atom, mult))
        # Results built from a sorted atom tuple are already strictly
        # increasing; only other input needs merging and sorting.
        if any(a >= b for (a, _), (b, _) in zip(terms, terms[1:])):
            merged: dict[Fraction, int] = {}
            for atom, mult in terms:
                merged[atom] = merged.get(atom, 0) + mult
            terms = sorted(merged.items())
        object.__setattr__(self, "terms", tuple(terms))

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
    fractions. An empty tuple gives the trivial monoid.
    """

    generators: tuple[Fraction, ...]

    def __post_init__(self) -> None:
        gens = tuple(sorted(set(Fraction(g) for g in self.generators)))
        if gens and gens[0] <= 0:
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
        common = math.lcm(*(g.denominator for g in self.generators))
        nums = [g.numerator * (common // g.denominator) for g in self.generators]
        d = math.gcd(*nums)
        return Fraction(d, common), NumericalSemigroup(tuple(n // d for n in nums))

    def contains(self, x: Fraction | int) -> bool:
        """Whether x is a finite sum of generators (0 always is)."""
        x = Fraction(x)
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

        A generator g fails to be an atom exactly when the others
        already generate it, and only generators smaller than g can
        appear in such a sum. A shortcut avoids the membership test:
        g is an atom when, for some prime p, its denominator holds a
        higher power of p than the denominator of every smaller
        generator, since then v_p(g) is below the valuation of every
        possible summand, and valuations of sums cannot drop below the
        minimum over the summands. This covers every generator with the
        strictly least valuation at some prime.

        One pass in increasing order finds these records: each
        denominator is factored once, and for every prime the largest
        exponent seen so far is kept. A denominator that could not be
        factored is compared at every prime found in the others. The
        smallest generator is always an atom; any other generator
        without a record falls back to the membership test.
        """
        gens = self.generators
        factored = [prime_factors(g.denominator) for g in gens]
        found = {p for ps in factored if ps for p in ps}
        # prime -> largest exponent of it in the denominators seen so far
        top: dict[int, int] = {}
        out = []
        for i, (g, ps) in enumerate(zip(gens, factored)):
            record = i == 0
            for p in found if ps is None else ps:
                e = padic_valuation_int(p, g.denominator)
                if e > top.get(p, 0):
                    top[p] = e
                    record = True
            if record or not FgMonoid(gens[:i] + gens[i + 1 :]).contains(g):
                out.append(g)
        return tuple(out)

    def _representations(self, x: Fraction | int) -> tuple[tuple[Fraction, ...], list[tuple[int, ...]]]:
        """The atoms and every coefficient vector over them summing to x.

        Vectors are in NumericalSemigroup.representations order. For
        x = 0 the only vector is the empty one, over no atoms.
        """
        x = Fraction(x)
        if x <= 0:
            return (), ([()] if x == 0 else [])
        ats = self.atoms()
        if not ats:
            return ats, []
        q, ns = FgMonoid(ats).to_scaled_integer()
        t = x / q
        if t.denominator != 1:
            return ats, []
        return ats, ns.representations(t.numerator)

    def factorizations(self, x: Fraction | int) -> list[Factorization]:
        """All factorizations of x into atoms.

        Results are ordered lexicographically, increasing, by the
        multiplicity vector indexed by increasing atoms. Note the
        difference from NumericalSemigroup.representations, whose
        canonical order varies the largest generator slowest; both
        orders are deterministic, they just serve different readers.
        """
        ats, reps = self._representations(x)
        return [
            Factorization(tuple((a, c) for a, c in zip(ats, rep) if c))
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
        x = Fraction(x)
        ats = self.atoms()
        if not ats:
            return ()
        q, ns = self.to_scaled_integer()
        ts = ((x - a) / q for a in ats)
        return tuple(a for a, t in zip(ats, ts) if t.denominator == 1 and ns.contains(t.numerator))

    def scale(self, c: Fraction | int) -> "FgMonoid":
        """The monoid c * self for a positive rational c."""
        c = Fraction(c)
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
