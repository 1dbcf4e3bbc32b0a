"""Numerical semigroups given by finitely many positive integer generators.

A generating set G determines the set of all nonnegative integer
combinations of G. When gcd(G) = 1 the complement in the nonnegative
integers is finite and the largest missing value is the Frobenius
number; when gcd(G) = d > 1 the semigroup lives inside the multiples
of d and has no Frobenius number. frobenius() has closed forms for two
and three minimal generators, and a reachability table for four or
more.

Membership, minimal generators, any_representation and the listing of
representations share one iterative depth-first walk (_leaves), whose
set-up (_levels) is built once per semigroup. It fixes one coefficient
per generator from the largest down, and solves the two smallest
exactly with modular arithmetic instead of search: c0*g0 + c1*g1 = x
constrains c0 to a single residue class mod g1/gcd, so the solutions
can be walked directly. The walk hands each level-3 remainder's
solutions on as (c, r, low) triples, from which a listing builds the
coefficient ranges and a count (FgMonoid.lengths) reads their number
and ends without building any.
"""

from __future__ import annotations

import math
from typing import Callable, Iterable, Iterator

from .arith import _exact, cached_value, record
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

    @cached_value
    def _walk(self) -> tuple[list, Callable, Callable, Callable, Callable]:
        # Kept in the instance __dict__ beside the record's one field;
        # ==, hash and repr read the generators only.
        return _levels(self.generators)

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
        levels, tail, pair, _, ranges = self._walk
        if x % levels[-1][1]:
            return []
        if len(gens) == 2:
            return list(zip(*pair(x)))
        return [
            (c0, c1, c) + cs[::-1]
            for solved, cs in _leaves(levels, lambda r, _: tail(r), len(gens), x, True)
            for c, r, low in solved
            for c0, c1 in zip(*ranges(r, low))
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
        levels, _, pair, first, _ = self._walk
        if x % levels[k][1]:
            return None
        if k == 2:
            c0s, c1s = pair(x)
            return (c0s[0], c1s[0]) if c0s else None
        for found, cs in _leaves(levels, first, k, x, up):
            return found + cs[::-1]
        return None

    def frobenius(self) -> int:
        """Largest integer not in the semigroup, -1 when there are no gaps.

        Raises NotCofinite when gcd of the generators exceeds 1. Two
        and three minimal generators have closed forms: a*b - a - b for
        two, and _frobenius3 for three. Four or more fall back to a
        reachability table that grows until the top
        min-generator-width window is fully reachable, which certifies
        that no gap lies beyond the table.
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
        if len(mg) == 3:
            return _frobenius3(*mg)
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


def _frobenius3(a1: int, a2: int, a3: int) -> int:
    """The Frobenius number of three generators with gcd 1, exactly,
    in O(log a1) steps.

    Johnson's reduction (Canad. J. Math. 1960) first: while two
    generators a, b share a factor d > 1, F(a, b, c) = d * F(a/d, b/d,
    c) + (d - 1) * c, and a generator of 1 leaves no gaps, F = -1.
    Then Rodseth's formula (J. reine angew. Math. 1978) on the pairwise
    coprime a1 < a2 < a3: the ceiling Euclid steps r[i-1] = q * r[i] -
    r[i+1] from (r[-1], r[0]) = (a1, a3 / a2 mod a1), with p[-1] = 0,
    p[0] = 1 and p[i+1] = q * p[i] - p[i-1], give fractions r[i]/p[i]
    falling from infinity to 0. The step v with r[v+1]/p[v+1] <= a3/a2
    < r[v]/p[v] gives F = -a1 + a2*(r[v] - 1) + a3*(p[v+1] - 1) -
    min(a2*r[v+1], a3*p[v]).
    """
    gens = [a1, a2, a3]
    scale, offset = 1, 0
    while True:
        for i, j, k in ((0, 1, 2), (0, 2, 1), (1, 2, 0)):
            d = math.gcd(gens[i], gens[j])
            if d > 1:
                offset += scale * (d - 1) * gens[k]
                scale *= d
                gens[i] //= d
                gens[j] //= d
                break
        else:
            break
    a1, a2, a3 = sorted(gens)
    if a1 == 1:
        return offset - scale
    # (r, p) is step v + 1 and (r0, p0) step v; both comparisons are
    # cross-multiplied, and p0 = 0 stands for r0/p0 = infinity.
    r0, p0, r, p = a1, 0, a3 * pow(a2, -1, a1) % a1, 1
    while r * a2 > a3 * p:
        q = -(-r0 // r)
        r0, p0, r, p = r, p, q * r - r0, q * p - p0
    return offset + scale * (-a1 + a2 * (r0 - 1) + a3 * (p - 1) - min(a2 * r, a3 * p0))


def _coefficients(level: tuple[int, int, int, int, int], rem: int, up: bool) -> range:
    """The coefficients of level's generator for rem, increasing when up."""
    g, h, step, inverse, _ = level
    cs = range(rem // h * inverse % step, rem // g + 1, step)
    return cs if up else cs[::-1]


def _leaves(levels: list, solve: Callable, k: int, x: int, up: bool) -> Iterable[tuple]:
    """Every leaf of the walk of _levels over gens[:k] from x.

    Depth first from an explicit stack, each coefficient increasing when
    up, else decreasing, it yields (solve(rem, up), coefficients of
    gens[k - 1] down to gens[3]) for each level-3 remainder rem that
    solve finds truthy. A remainder of 0 ends its branch with zeros
    below, a nonzero one below its level's floor has no representation,
    and a per-call set holds the (level, remainder) pairs whose subtree
    had no leaf, so no later branch walks them again. For k <= 3 the one
    leaf, if solve finds it, is solve(x, up) with no coefficients, and
    it comes in a tuple rather than from a generator.
    """
    if k <= 3:
        found = solve(x, up)
        return ((found, ()),) if found else ()
    return _deep_leaves(levels, solve, k, x, up)


def _deep_leaves(levels: list, solve: Callable, k: int, x: int, up: bool) -> Iterator[tuple]:
    """The leaves of _leaves for k >= 4, from the depth-first walk."""
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


def _levels(gens: tuple[int, ...]) -> tuple[list, Callable, Callable, Callable, Callable]:
    """The set-up of the depth-first walk over two or more generators.

    The walk takes gens in the order given (any order, no repeats). It
    fixes the coefficient of gens[k - 1] for k = len(gens) down to 4,
    and solves the first three generators, or the first two, in closed
    form; started at level k, it stays within gens[:k]. Returns (levels,
    tail, pair, first, ranges):

    - levels[k] = (g, h, step, inverse, floor) for k >= 2: g = gens[k -
      1] and h the gcd of gens[:k]. The remainder rem reaching level k
      is a multiple of h, and what c * g leaves must be a multiple of
      the gcd of gens[:k - 1], so c runs over _coefficients(levels[k],
      rem, up). floor is the least of gens[:k - 1], so a nonzero
      remainder below it has no representation.
    - pair(rem), for rem a multiple of d = gcd(gens[0], gens[1]), gives
      the coefficient ranges (c0s, c1s) of gens[0] and gens[1], zipped
      pairwise: c0 falls and c1 rises. Both are empty when rem has no
      representation. (See the module docstring.)
    - ranges(r, low) are pair's ranges for rem = r * d, given low, the
      least c0 in the residue class the solutions need, when low *
      gens[0] <= rem. With g0, g1 = gens[0] / d, gens[1] / d there are
      (r // g0 - low) // g1 + 1 solutions, and the one at c0 = low has
      c1 = (r - low * g0) // g1, the most.
    - tail(rem), for rem reaching level 3, lists (c, r, low) for each
      coefficient c of gens[2], increasing, whose remainder rem - c *
      gens[2] = r * d has a representation over gens[0] and gens[1]:
      ranges(r, low) lists them, and a caller that only counts them
      builds no range. Along the loop over c the remainder falls by a
      constant, so low moves by a constant mod g1, and no c costs a
      call to pair. Over two generators tail(rem) lists (0, r, low)
      alone, or nothing when rem has no representation, and first is
      None.
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

    def ranges(r: int, low: int) -> tuple[range, range]:
        high = low + (r // g0 - low) // g1 * g1
        c1 = (r - high * g0) // g1
        return range(high, low - 1, -g1), range(c1, c1 + (high - low) // g1 * g0 + 1, g0)

    def pair(rem: int) -> tuple[range, range]:
        r = rem // d
        low = r * inv % g1
        return ranges(r, low) if low * g0 <= r else (range(0), range(0))

    if len(gens) == 2:
        # No gens[2]: tail's one coefficient is 0, and no walk calls first.

        def pair_tail(rem: int) -> list[tuple[int, int, int]]:
            r = rem // d
            low = r * inv % g1
            return [(0, r, low)] if low * g0 <= r else []

        return levels, pair_tail, pair, None, ranges
    # One step up of gens[2]'s coefficient lowers r = (rem - c *
    # gens[2]) / d by fall, and low by shift mod g1.
    g2, h2, step2, inverse2, _ = levels[3]
    fall = g2 // h2
    shift = fall * inv % g1

    def tail(rem: int) -> list[tuple[int, int, int]]:
        c = rem // h2 * inverse2 % step2
        r = (rem - c * g2) // d
        low = r * inv % g1
        out = []
        for c in range(c, rem // g2 + 1, step2):
            if low * g0 <= r:
                out.append((c, r, low))
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

    return levels, tail, pair, first, ranges
