"""Numerical semigroups given by finitely many positive integer generators.

A generating set G determines the set of all nonnegative integer
combinations of G. When gcd(G) = 1 the complement in the nonnegative
integers is finite and the largest missing value is the Frobenius
number; when gcd(G) = d > 1 the semigroup lives inside the multiples
of d and has no Frobenius number.

Membership, minimal generators, any_representation and the listing of
representations share one iterative depth-first walk (_leaves), whose
set-up (_levels) is built once per semigroup. It fixes one coefficient
per generator from the largest down, and solves the two smallest
exactly with modular arithmetic instead of search: c0*g0 + c1*g1 = x
constrains c0 to a single residue class mod g1/gcd, so the solutions
can be walked directly.
"""

from __future__ import annotations

import math
from functools import cached_property
from typing import Callable, Iterator

from .arith import _exact, record
from .errors import NonPositive, NotCofinite


@record
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

    @cached_property
    def _walk(self) -> tuple[list, Callable, Callable, Callable]:
        # Kept in the instance __dict__ beside the record's one field;
        # ==, hash and repr read the generators only.
        return _levels(self.generators)

    def __getstate__(self) -> dict:
        # _walk holds closures, which pickle cannot store; a copy builds
        # its own on first use.
        return {"generators": self.generators}

    def contains(self, x: int) -> bool:
        """Whether x is a nonnegative integer combination of the generators."""
        x = x if type(x) is int else _exact(x)
        return x == 0 or x > 0 and self._find(len(self.generators), x, True) is not None

    def representations(self, x: int) -> list[tuple[int, ...]]:
        """Every coefficient tuple representing x, in canonical order.

        Each tuple lists one coefficient per generator, generators in
        increasing order. Tuples are ordered so that the coefficient of
        the largest generator varies slowest, increasing, then the next
        largest, and so on.

        Every leaf of the walk of _leaves, each coefficient increasing,
        lists the solutions tail gives it, in walk order.
        """
        x = x if type(x) is int else _exact(x)
        if x < 0:
            return []
        gens = self.generators
        if len(gens) == 1:
            return [] if x % gens[0] else [(x // gens[0],)]
        levels, tail, pair, _ = self._walk
        if x % levels[-1][1]:
            return []
        if len(gens) == 2:
            return list(zip(*pair(x)))
        leaves = [(tail(x), ())] if len(gens) == 3 else _leaves(levels, lambda r, _: tail(r), len(gens), x, True)
        return [
            (c0, c1, c) + cs[::-1] for solved, cs in leaves for c, c0s, c1s in solved for c0, c1 in zip(c0s, c1s)
        ]

    def any_representation(self, x: int) -> tuple[int, ...] | None:
        """One representation of x, or None; cheaper than enumerating all.

        It has the largest coefficient on the largest generator, then on
        the next largest, down to the third smallest; over the two
        smallest, the largest coefficient on the smallest.
        """
        x = x if type(x) is int else _exact(x)
        return None if x < 0 else self._find(len(self.generators), x, False)

    def minimal_generators(self) -> tuple[int, ...]:
        """The unique inclusion-minimal generating set, increasing: a
        generator drops out exactly when the smaller ones represent it.
        A sum of two or more generators is at least twice the smallest,
        so every generator below that is kept without a walk."""
        gens = self.generators
        return tuple(
            g for k, g in enumerate(gens) if g < 2 * gens[0] or self._find(k, g, True) is None
        )

    def _find(self, k: int, x: int, up: bool) -> tuple[int, ...] | None:
        """The first representation of x >= 0 over gens[:k] reached by the
        walk of _leaves, each coefficient increasing when up, else
        decreasing; None if there is none."""
        gens = self.generators
        if x == 0 or k == 1:
            return None if x % gens[0] else (x // gens[0],) + (0,) * (k - 1)
        levels, _, pair, first = self._walk
        if x % levels[k][1]:
            return None
        if k == 2:
            c0s, c1s = pair(x)
            return (c0s[0], c1s[0]) if c0s else None
        if k == 3:
            return first(x, up)
        for found, cs in _leaves(levels, first, k, x, up):
            return found + cs[::-1]
        return None

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


def _coefficients(level: tuple[int, int, int, int, int], rem: int, up: bool) -> range:
    """The coefficients of level's generator for rem, increasing when up."""
    g, h, step, inverse, _ = level
    cs = range(rem // h * inverse % step, rem // g + 1, step)
    return cs if up else cs[::-1]


def _leaves(levels: list, solve: Callable, k: int, x: int, up: bool) -> Iterator[tuple]:
    """Every leaf of the walk of _levels over gens[:k] from x, k >= 4.

    Depth first from an explicit stack, each coefficient increasing when
    up, else decreasing, it yields (solve(rem, up), coefficients of
    gens[k - 1] down to gens[3]) for each level-3 remainder rem that
    solve finds truthy. A remainder of 0 ends its branch with zeros
    below, a nonzero one below its level's floor has no representation,
    and a per-call set holds the (level, remainder) pairs whose subtree
    had no leaf, so no later branch walks them again.
    """
    dead: set[tuple[int, int]] = set()
    leaves = 0
    # (level, remainder, coefficients left, leaves before it) of each
    # open level, and the coefficient taken at each but the last.
    stack = [(k, x, iter(_coefficients(levels[k], x, up)), 0)]
    taken: list[int] = []
    while stack:
        level, base, cs, start = stack[-1]
        g, _, _, _, floor = levels[level]
        for c in cs:
            rem = base - c * g
            if rem < floor:
                if not rem:
                    leaves += 1
                    yield solve(0, up), (*taken, c) + (0,) * (level - 4)
                continue
            if (level - 1, rem) in dead:
                continue
            if level > 4:
                taken.append(c)
                stack.append((level - 1, rem, iter(_coefficients(levels[level - 1], rem, up)), leaves))
                break
            found = solve(rem, up)
            if found:
                leaves += 1
                yield found, (*taken, c)
            else:
                dead.add((3, rem))
        else:
            stack.pop()
            if leaves == start:
                dead.add((level, base))
            if taken:
                taken.pop()


def _levels(gens: tuple[int, ...]) -> tuple[list, Callable, Callable, Callable]:
    """The set-up of the depth-first walk over two or more generators.

    The walk takes gens in the order given (any order, no repeats). It
    fixes the coefficient of gens[k - 1] for k = len(gens) down to 4,
    and solves the first three generators, or the first two, in closed
    form; started at level k, it stays within gens[:k]. Returns (levels,
    tail, pair, first):

    - levels[k] = (g, h, step, inverse, floor) for k >= 2: g = gens[k -
      1] and h the gcd of gens[:k]. The remainder rem reaching level k
      is a multiple of h, and what c * g leaves must be a multiple of
      the gcd of gens[:k - 1], so c runs over _coefficients(levels[k],
      rem, up). floor is the least of gens[:k - 1], so a nonzero
      remainder below it has no representation.
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
    - first(rem, up) runs tail's loop with c increasing when up, else
      decreasing, and stops at the first c with a representation: it
      returns (c0, c1, c) with c0 largest, or None.
    """
    levels: list = [None] * (len(gens) + 1)
    h = floor = gens[0]
    for k in range(2, len(gens) + 1):
        g, prev = gens[k - 1], h
        h = math.gcd(prev, g)
        levels[k] = g, h, prev // h, pow(g // h, -1, prev // h), floor
        floor = min(floor, g)
    d = levels[2][1]
    g0, g1 = gens[0] // d, gens[1] // d
    # c0 * g0 + c1 * g1 = r puts c0 in the class of r * inv mod g1, and
    # low, the least c0 in it, must satisfy low * g0 <= r. pow(v, -1, 1)
    # == 0 keeps the degenerate g1 == 1 case uniform.
    inv = pow(g0, -1, g1)
    if len(gens) > 2:
        # One step up of gens[2]'s coefficient lowers r = (rem - c *
        # gens[2]) / d by fall, and low by shift mod g1.
        g2, h2, step2, inverse2, _ = levels[3]
        fall = g2 // h2
        shift = fall * inv % g1

    def ranges(r: int, low: int) -> tuple[range, range]:
        high = low + (r // g0 - low) // g1 * g1
        c1 = (r - high * g0) // g1
        return range(high, low - 1, -g1), range(c1, c1 + (high - low) // g1 * g0 + 1, g0)

    def pair(rem: int) -> tuple[range, range]:
        r = rem // d
        low = r * inv % g1
        return ranges(r, low) if low * g0 <= r else (range(0), range(0))

    def tail(rem: int) -> list[tuple[int, range, range]]:
        c = rem // h2 * inverse2 % step2
        r = (rem - c * g2) // d
        low = r * inv % g1
        out = []
        for c in range(c, rem // g2 + 1, step2):
            if low * g0 <= r:
                out.append((c, *ranges(r, low)))
            r -= fall
            low = (low - shift) % g1
        return out

    def first(rem: int, up: bool) -> tuple[int, int, int] | None:
        # _coefficients inlined, as in tail: both run per level-3 remainder.
        top = rem // g2
        c = rem // h2 * inverse2 % step2
        cs = range(c, top + 1, step2) if up else range(top - (top - c) % step2, -1, -step2)
        dr, dlow = (fall, shift) if up else (-fall, -shift)
        r = (rem - cs.start * g2) // d
        low = r * inv % g1
        for c in cs:
            if low * g0 <= r:
                c0s, c1s = ranges(r, low)
                return c0s[0], c1s[0], c
            r -= dr
            low = (low - dlow) % g1
        return None

    return levels, tail, pair, first
