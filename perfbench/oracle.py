"""Independent answer checks for the benchmark.

Nothing here imports the library. Frobenius numbers and membership
come from the Apery set by shortest paths over residues, minimal
generators from a big-integer bitset closure, primes from a sieve, and
the Calkin-Wilf sequence from Stern's diatomic sequence, so a check
never shares a code path with the answer it checks.
"""

from __future__ import annotations

import hashlib
import heapq
import itertools
import math
from array import array
from fractions import Fraction


def reach_bits(gens, bound: int) -> int:
    """Bit x is set exactly when 0 <= x <= bound is a sum of gens.

    Each generator is closed under repetition by doubling shifts: after
    shifting by g, 2g, 4g, ... every multiple c*g up to bound is in.
    """
    mask = (1 << (bound + 1)) - 1
    bits = 1
    for g in gens:
        step = g
        while step <= bound:
            bits |= (bits << step) & mask
            step <<= 1
    return bits


def has_bit(bits: int, x: int) -> bool:
    return x >= 0 and (bits >> x) & 1 == 1


def apery(gens) -> list[int]:
    """w[i] is the least sum of gens congruent to i mod min(gens), for
    gcd 1: shortest paths over the residues (Nijenhuis). It needs memory
    for min(gens) numbers, not for every integer up to the Frobenius
    number, so it stays small beside the library's own tables."""
    m = min(gens)
    w = [-1] * m
    w[0] = 0
    heap = [(0, 0)]
    while heap:
        d, r = heapq.heappop(heap)
        if d > w[r]:
            continue
        for g in gens:
            s = (r + g) % m
            if w[s] < 0 or d + g < w[s]:
                w[s] = d + g
                heapq.heappush(heap, (d + g, s))
    return w


def is_member(w: list[int], x: int) -> bool:
    return x >= w[x % len(w)]


def frobenius(gens) -> tuple[int, list[int]]:
    """(Frobenius number, Apery set) for gcd 1."""
    w = apery(gens)
    return max(w) - len(w), w


def minimal_generators(gens) -> tuple[int, ...]:
    g = sorted(set(gens))
    out = []
    for i, x in enumerate(g):
        others = g[:i] + g[i + 1 :]
        if not others or not has_bit(reach_bits(others, x), x):
            out.append(x)
    return tuple(out)


def scale_to_integers(values) -> list[int]:
    """[v * L] with L the lcm of the denominators."""
    L = math.lcm(*(Fraction(v).denominator for v in values))
    return [int(Fraction(v) * L) for v in values]


def rational_atoms(gens) -> tuple[Fraction, ...]:
    """Minimal generators of a finitely generated rational monoid."""
    g = sorted(set(Fraction(v) for v in gens))
    ints = scale_to_integers(g)
    keep = set(minimal_generators(ints))
    return tuple(v for v, n in zip(g, ints) if n in keep)


def multisets(weights, total: int):
    """Yield every tuple of nonnegative multiplicities c with
    sum c_i w_i == total."""
    k = len(weights)
    # suffix[i] divides every sum over weights[i:], so a remainder it
    # does not divide ends the branch.
    suffix = list(weights) + [0]
    for i in range(k - 1, -1, -1):
        suffix[i] = math.gcd(weights[i], suffix[i + 1])

    def walk(i: int, rem: int, prefix: tuple[int, ...]):
        if rem % suffix[i]:
            return
        if i == k - 1:
            yield prefix + (rem // weights[i],)
            return
        for c in range(rem // weights[i] + 1):
            yield from walk(i + 1, rem - c * weights[i], prefix + (c,))

    if k == 0:
        if total == 0:
            yield ()
        return
    yield from walk(0, total, ())


# Enumerations are streamed and stop as soon as they pass their limit,
# so a draw that is about to be rejected holds nothing, and the oracle's
# memory stays small beside the library's.


def rational_factorizations(atoms, x, limit: int) -> set[tuple[tuple[int, int, int], ...]] | None:
    """All factorizations of x over the atoms, as tuples of
    (atom numerator, atom denominator, mult) sorted by atom, or None
    when there are more than limit."""
    atoms = sorted(set(Fraction(a) for a in atoms))
    ints = scale_to_integers(list(atoms) + [Fraction(x)])
    weights, total = ints[:-1], ints[-1]
    keys = [(a.numerator, a.denominator) for a in atoms]
    out = set()
    for rep in multisets(weights, total):
        if len(out) == limit:
            return None
        out.add(tuple(key + (c,) for key, c in zip(keys, rep) if c))
    return out


def terms_digest(terms) -> tuple[int, int]:
    """(count, sum of the SHA-256 of each item's repr mod 2**256): the
    same for any order, computed without holding the items."""
    count = total = 0
    for t in terms:
        count += 1
        total += int.from_bytes(hashlib.sha256(repr(t).encode()).digest(), "big")
    return count, total % (1 << 256)


def cyclic_factorizations(r: Fraction, x: Fraction, top: int, limit: int) -> tuple[int, int] | None:
    """terms_digest of all sums of r^1 .. r^top equal to x, each a
    tuple of (exponent, mult) by exponent, or None when there are more
    than limit."""
    powers = [r**e for e in range(1, top + 1)]
    ints = scale_to_integers(powers + [x])
    weights, total = ints[:-1], ints[-1]
    if sum(1 for _ in itertools.islice(multisets(weights, total), limit + 1)) > limit:
        return None
    return terms_digest(
        tuple((e, c) for e, c in zip(range(1, top + 1), rep) if c) for rep in multisets(weights, total)
    )


def sieve(limit: int) -> array:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, math.isqrt(limit) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(range(p * p, limit + 1, p)))
    return array("q", itertools.compress(range(limit + 1), flags))


class Primes:
    """The prime sequence from a sieve that grows on demand."""

    def __init__(self) -> None:
        self.limit = 1 << 12
        self.list = sieve(self.limit)

    def nth(self, n: int) -> int:
        while len(self.list) < n:
            self.limit *= 2
            self.list = sieve(self.limit)
        return self.list[n - 1]

    def in_class(self, residue: int, modulus: int, count: int) -> list[int]:
        out: list[int] = []
        i = 1
        while len(out) < count:
            p = self.nth(i)
            if p % modulus == residue % modulus:
                out.append(p)
            i += 1
        return out


def stern(n: int) -> int:
    """Stern's diatomic sequence s(n), from the binary digits of n."""
    a, b = 1, 0
    while n:
        if n & 1:
            b += a
        else:
            a += b
        n >>= 1
    return b


def calkin_wilf(n: int) -> Fraction:
    """The n-th Calkin-Wilf rational (1-indexed): s(n) / s(n + 1)."""
    return Fraction(stern(n), stern(n + 1))
