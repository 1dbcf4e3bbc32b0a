"""Numerical semigroups given by finitely many positive integer generators.

A generating set G determines the set of all nonnegative integer
combinations of G. When gcd(G) = 1 the complement in the nonnegative
integers is finite and the largest missing value is the Frobenius
number; when gcd(G) = d > 1 the semigroup lives inside the multiples
of d and has no Frobenius number.

Membership and the listing of representations both reduce, one
generator at a time, to the two generator case, which is solved exactly
with modular arithmetic instead of search: c0*g0 + c1*g1 = x constrains
c0 to a single residue class mod g1/gcd, so the solutions can be walked
directly.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
from typing import Callable

from .arith import _exact
from .errors import NonPositive, NotCofinite


def _two_gen_first(g0: int, g1: int, x: int) -> tuple[int, int] | None:
    """The (c0, c1) with c0*g0 + c1*g1 == x and c0 largest, or None."""
    if x < 0:
        return None
    d = math.gcd(g0, g1)
    if x % d:
        return None
    g0, g1, x = g0 // d, g1 // d, x // d
    # c0 must lie in one residue class mod g1; pow(v, -1, 1) == 0 keeps
    # the degenerate g1 == 1 case uniform.
    c0_low = (x * pow(g0, -1, g1)) % g1
    cap = x // g0
    if c0_low > cap:
        return None
    c0 = c0_low + (cap - c0_low) // g1 * g1
    return c0, (x - c0 * g0) // g1


def _two_gen_member(g0: int, g1: int, x: int) -> bool:
    if x < 0:
        return False
    d = math.gcd(g0, g1)
    if x % d:
        return False
    g0, g1, x = g0 // d, g1 // d, x // d
    return (x * pow(g0, -1, g1)) % g1 * g0 <= x


@dataclass(frozen=True)
class NumericalSemigroup:
    """The additive closure of a nonempty finite set of positive integers.

    Generators are normalized to a strictly increasing tuple on
    construction; duplicates are dropped, and floats and bools are
    refused. The zero element is always a member.
    """

    generators: tuple[int, ...]

    def __post_init__(self) -> None:
        gens = tuple(sorted({g if type(g) is int else _exact(g) for g in self.generators}))
        if not gens:
            raise NonPositive("a numerical semigroup needs at least one generator")
        if gens[0] < 1:
            raise NonPositive(f"generators must be positive integers, got {gens[0]}")
        object.__setattr__(self, "generators", gens)

    @property
    def is_cofinite(self) -> bool:
        """True when gcd of the generators is 1, i.e. the gap set is finite."""
        return math.gcd(*self.generators) == 1

    def contains(self, x: int) -> bool:
        """Whether x is a nonnegative integer combination of the generators."""
        x = x if type(x) is int else _exact(x)
        if x < 0:
            return False
        return _member(self.generators, _prefix_gcds(self.generators), x, {})

    def representations(self, x: int) -> list[tuple[int, ...]]:
        """Every coefficient tuple representing x, in canonical order.

        Each tuple lists one coefficient per generator, generators in
        increasing order. Tuples are ordered so that the coefficient of
        the largest generator varies slowest, increasing, then the next
        largest, and so on.

        One depth-first walk (see _levels) fixes the coefficients from
        the largest generator down, each increasing, and passes the
        fixed suffix down; the three smallest generators are solved in
        closed form, and each finished tuple is appended to one output
        list.
        """
        x = x if type(x) is int else _exact(x)
        if x < 0:
            return []
        gens = self.generators
        if len(gens) == 1:
            if x % gens[0] == 0:
                return [(x // gens[0],)]
            return []
        whole, levels, tail, pair = _levels(gens)
        if x % whole:
            return []
        if len(gens) == 2:
            return list(zip(*pair(x)))
        out: list[tuple[int, ...]] = []

        def walk(k: int, rem: int, suffix: tuple[int, ...]) -> None:
            if k == 3:
                out.extend([
                    (c0, c1, c) + suffix for c, c0s, c1s in tail(rem) for c0, c1 in zip(c0s, c1s)
                ])
                return
            g, h, step, inverse = levels[k]
            for c in range(rem // h * inverse % step, rem // g + 1, step):
                walk(k - 1, rem - c * g, (c,) + suffix)

        walk(len(gens), x, ())
        # walk refers to itself through its closure; breaking that cycle
        # lets reference counting free the list as soon as callers drop it.
        del walk
        return out

    def any_representation(self, x: int) -> tuple[int, ...] | None:
        """One representation of x, or None; cheaper than enumerating all."""
        x = x if type(x) is int else _exact(x)
        if x < 0:
            return None
        gens = self.generators
        pg = _prefix_gcds(gens)

        def rec(k: int, rem: int) -> tuple[int, ...] | None:
            if k == 1:
                return (rem // gens[0],) if rem % gens[0] == 0 else None
            if k == 2:
                return _two_gen_first(gens[0], gens[1], rem)
            g = gens[k - 1]
            for c in range(rem // g, -1, -1):
                inner = rem - c * g
                if inner % pg[k - 1]:
                    continue
                sub = rec(k - 1, inner)
                if sub is not None:
                    return sub + (c,)
            return None

        return rec(len(gens), x)

    def minimal_generators(self) -> tuple[int, ...]:
        """The unique inclusion-minimal generating set, increasing."""
        gens = self.generators
        if len(gens) == 1:
            return gens
        kept = []
        for g in gens:
            others = tuple(h for h in gens if h != g)
            if not _member(others, _prefix_gcds(others), g, {}):
                kept.append(g)
        return tuple(kept)

    def frobenius(self) -> int:
        """Largest integer not in the semigroup, -1 when there are no gaps.

        Raises NotCofinite when gcd of the generators exceeds 1. Two
        coprime generators a < b give a*b - a - b in closed form; more
        generators fall back to a reachability table that grows until
        the top min-generator-width window is fully reachable, which
        certifies that no gap lies beyond the table.
        """
        if not self.is_cofinite:
            raise NotCofinite(
                f"gcd{self.generators} > 1, the complement is infinite"
            )
        mg = self.minimal_generators()
        if mg[0] == 1:
            return -1
        if len(mg) == 2:
            a, b = mg
            return a * b - a - b
        gmin = mg[0]
        bound = max(mg[0] * mg[1], mg[-1] + gmin + 1)
        while True:
            table = bytearray(bound)
            table[0] = 1
            for i in range(gmin, bound):
                for g in mg:
                    if g > i:
                        break
                    if table[i - g]:
                        table[i] = 1
                        break
            largest_gap = max(i for i in range(bound) if not table[i])
            if largest_gap + gmin < bound:
                return largest_gap
            bound *= 2


# pair's answer for a remainder without a representation.
_NONE = range(0), range(0)


def _levels(gens: tuple[int, ...]) -> tuple[int, list, Callable, Callable]:
    """The set-up of the depth-first walk over two or more generators.

    The walk takes gens in the order given (any order, no repeats). It
    fixes the coefficient of gens[k - 1] for k = len(gens) down to 4,
    and solves the first three generators, or the first two, in closed
    form. Returns (whole, levels, tail, pair):

    - whole is the gcd of all of gens; the walk starts from a multiple
      of it, and no other target has a representation.
    - levels[k] = (g, h, step, inverse) for k >= 3: g = gens[k - 1] and
      h the gcd of gens[:k]. The remainder rem reaching level k is a
      multiple of h, and what c * g leaves must be a multiple of the
      gcd of gens[:k - 1], so c runs over
      range(rem // h * inverse % step, rem // g + 1, step).
    - pair(rem), for rem a multiple of gcd(gens[0], gens[1]), gives the
      coefficient ranges (c0s, c1s) of gens[0] and gens[1], zipped
      pairwise: c0 falls and c1 rises. Both are empty when rem has no
      representation. (See the module docstring.)
    - tail(rem), for rem reaching level 3, lists (c, c0s, c1s) for each
      coefficient c of gens[2], increasing, whose remainder has a
      representation over gens[0] and gens[1], with pair's ranges for
      it. Along the loop over c the remainder falls by a constant, so
      the least admissible c0 moves by a constant mod g1, and no c
      costs a call to pair.
    """
    pg = _prefix_gcds(gens)
    levels: list = [None] * (len(gens) + 1)
    for k in range(3, len(gens) + 1):
        g, h = gens[k - 1], pg[k]
        step = pg[k - 1] // h
        levels[k] = g, h, step, pow(g // h, -1, step)
    d = pg[2]
    g0, g1 = gens[0] // d, gens[1] // d
    # c0 * g0 + c1 * g1 = r puts c0 in the class of r * inv mod g1, and
    # low, the least c0 in it, must satisfy low * g0 <= r. pow(v, -1, 1)
    # == 0 keeps the degenerate g1 == 1 case uniform.
    inv = pow(g0, -1, g1)

    def ranges(r: int, low: int) -> tuple[range, range]:
        high = low + (r // g0 - low) // g1 * g1
        c1 = (r - high * g0) // g1
        return range(high, low - 1, -g1), range(c1, c1 + (high - low) // g1 * g0 + 1, g0)

    def pair(rem: int) -> tuple[range, range]:
        r = rem // d
        low = r * inv % g1
        return ranges(r, low) if low * g0 <= r else _NONE

    def tail(rem: int) -> list[tuple[int, range, range]]:
        g, h, step, inverse = levels[3]
        c = rem // h * inverse % step
        r = (rem - c * g) // d
        low = r * inv % g1
        # One step of c lowers r by g / h, and low by (g / h) * inv.
        fall = g // h
        shift = fall * inv % g1
        out = []
        while r >= 0:
            if low * g0 <= r:
                out.append((c, *ranges(r, low)))
            c += step
            r -= fall
            low = (low - shift) % g1
        return out

    return pg[-1], levels, tail, pair


def _prefix_gcds(gens: tuple[int, ...]) -> tuple[int, ...]:
    """pg[k] = gcd of the first k generators (pg[0] unused)."""
    pg = [0] * (len(gens) + 1)
    for k, g in enumerate(gens, start=1):
        pg[k] = math.gcd(pg[k - 1], g)
    return tuple(pg)


def _member(gens, pg, x: int, memo) -> bool:
    if x == 0:
        return True
    k = len(gens)
    if k == 1:
        return x % gens[0] == 0
    if k == 2:
        return _two_gen_member(gens[0], gens[1], x)
    key = (k, x)
    hit = memo.get(key)
    if hit is not None:
        return hit
    g = gens[-1]
    res = False
    for c in range(x // g, -1, -1):
        rem = x - c * g
        if rem % pg[k - 1] == 0 and _member(gens[:-1], pg, rem, memo):
            res = True
            break
    memo[key] = res
    return res
