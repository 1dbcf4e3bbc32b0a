"""Exact rationals, p-adic valuations, and prime utilities.

Rationals are plain ``fractions.Fraction`` values and stay exact
everywhere; nothing in this package ever rounds through floats. The
helpers here enforce the positivity conventions the monoid layers rely
on: a monoid generator is a reduced fraction n/d with n, d >= 1, and
zero is allowed only where an operation explicitly says so.

The p-adic valuation of a nonzero rational r is
v_p(r) = v_p(numerator) - v_p(denominator), and v_p(0) is +infinity,
represented by ``math.inf`` so that it compares above every integer and
absorbs addition.
"""

from __future__ import annotations

import math
import re
from fractions import Fraction
from typing import Iterator

from .errors import (
    BadProgression,
    NonPositive,
    NotFoundWithinLimit,
    NotPrime,
    ParseError,
)

INFINITY = math.inf

_RATIONAL_RE = re.compile(r"^\s*(\d+)\s*(?:/\s*(\d+)\s*)?$")


def _exact(value, kind: type = int):
    """value as an int, or as a Fraction when kind is Fraction. Floats and
    bools are refused with ParseError, never rounded or read as 0 and 1;
    so is anything but an int where an int is due."""
    if type(value) is kind:
        return value
    if isinstance(value, (bool, float)) or (kind is int and not isinstance(value, int)):
        what = "an integer" if kind is int else "an exact rational"
        raise ParseError(f"expected {what}, got {value!r}")
    return kind(value)


def make_rational(n: int, d: int) -> Fraction:
    """Build the reduced positive fraction n/d.

    Raises NonPositive unless n >= 1 and d >= 1. make_rational(4, 6)
    is Fraction(2, 3).
    """
    if n < 1 or d < 1:
        raise NonPositive(f"positive rational needs n >= 1 and d >= 1, got {n}/{d}")
    return Fraction(n, d)


def parse_rational(text: str, allow_zero: bool = False) -> Fraction:
    """Parse 'n/d' or a bare integer token into an exact Fraction.

    Unreduced input is fine ('8/12' gives 2/3). Decimals, signs and
    anything else are rejected with ParseError. Zero is accepted only
    when allow_zero is set.
    """
    m = _RATIONAL_RE.match(text)
    if not m:
        raise ParseError(f"not an exact rational token: {text!r}")
    n = int(m.group(1))
    d = int(m.group(2)) if m.group(2) else 1
    if d == 0:
        raise ParseError(f"zero denominator in {text!r}")
    value = Fraction(n, d)
    if value == 0:
        if allow_zero:
            return value
        raise NonPositive(f"zero is not allowed here: {text!r}")
    return value


def format_rational(r: Fraction | int) -> str:
    """Serialize a nonnegative rational as 'n/d' in lowest terms,
    integers without the unit denominator."""
    r = Fraction(r)
    if r < 0:
        raise NonPositive(f"cannot serialize negative value {r}")
    if r.denominator == 1:
        return str(r.numerator)
    return f"{r.numerator}/{r.denominator}"


# ---------------------------------------------------------------------------
# primality

# Deterministic Miller-Rabin witness set: the first twelve primes decide
# primality for every n below this bound, which comfortably covers 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461

_SMALL_PRIMES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47)


def is_prime(n: int) -> bool:
    """Exact primality for n >= 1.

    Uses trial division by a few small primes, then deterministic
    Miller-Rabin below the published witness bound (far above 2**64),
    then full trial division for anything larger.
    """
    if n < 1:
        raise NonPositive(f"primality is defined for n >= 1, got {n}")
    if n == 1:
        return False
    for p in _SMALL_PRIMES:
        if n == p:
            return True
        if n % p == 0:
            return False
    if n < _MR_BOUND:
        return _miller_rabin(n)
    return _trial_division(n)


def _miller_rabin(n: int) -> bool:
    d = n - 1
    s = 0
    while d % 2 == 0:
        d //= 2
        s += 1
    for a in _MR_BASES:
        x = pow(a, d, n)
        if x == 1 or x == n - 1:
            continue
        for _ in range(s - 1):
            x = x * x % n
            if x == n - 1:
                break
        else:
            return False
    return True


def _trial_division(n: int) -> bool:
    f = 53
    while f * f <= n:
        if n % f == 0:
            return False
        f += 2
    return True


# Growing cache of the prime sequence p_1 = 2, p_2 = 3, p_3 = 5, ...
_PRIME_CACHE = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]


def _extend_prime_cache() -> None:
    candidate = _PRIME_CACHE[-1] + 2
    while True:
        for p in _PRIME_CACHE:
            if p * p > candidate:
                _PRIME_CACHE.append(candidate)
                return
            if candidate % p == 0:
                break
        else:
            _PRIME_CACHE.append(candidate)
            return
        candidate += 2


def nth_prime(n: int) -> int:
    """The n-th prime, 1-indexed: nth_prime(1) == 2."""
    if n < 1:
        raise NonPositive(f"prime index must be >= 1, got {n}")
    while len(_PRIME_CACHE) < n:
        _extend_prime_cache()
    return _PRIME_CACHE[n - 1]


def nth_odd_prime(n: int) -> int:
    """The n-th odd prime, 1-indexed: 3, 5, 7, 11, ..."""
    return nth_prime(n + 1)


def primes() -> Iterator[int]:
    """Yield 2, 3, 5, 7, ... indefinitely, read from the prime cache."""
    i = 0
    while True:
        if i == len(_PRIME_CACHE):
            _extend_prime_cache()
        yield _PRIME_CACHE[i]
        i += 1


def prime_index(p: int) -> int:
    """Position of the prime p in the prime sequence (2 is position 1)."""
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    i = 1
    while True:
        q = nth_prime(i)
        if q == p:
            return i
        if q > p:
            raise NotPrime(f"{p} is not prime")
        i += 1


def prime_factors(n: int, limit: int = 10**6) -> tuple[int, ...] | None:
    """Distinct prime factors of n >= 1, in increasing order.

    Returns None when a cofactor above limit**2 remains unfactored, so
    callers can fall back to something slower but sound.
    """
    if n < 1:
        raise NonPositive(f"cannot factor {n}")
    out = []
    rest = n
    for p in primes():
        if p > limit or p * p > rest:
            break
        if rest % p == 0:
            out.append(p)
            while rest % p == 0:
                rest //= p
    if rest > 1:
        if rest <= limit * limit or is_prime(rest):
            out.append(rest)
        else:
            return None
    return tuple(out)


# ---------------------------------------------------------------------------
# valuations


def padic_valuation_int(p: int, n: int) -> int:
    """v_p(n) for an integer n >= 1 (p assumed prime)."""
    v = 0
    while n % p == 0:
        n //= p
        v += 1
    return v


def p_adic_valuation(p: int, r: Fraction | int) -> int | float:
    """The p-adic valuation of a nonnegative rational.

    v_p(0) is +infinity. For r = n/d in lowest terms the result is
    v_p(n) - v_p(d); only one of the two terms can be nonzero.

    Raises NotPrime when p is not prime and NonPositive when r < 0.
    """
    if not is_prime(p):
        raise NotPrime(f"valuation base must be prime, got {p}")
    r = Fraction(r)
    if r < 0:
        raise NonPositive(f"valuation domain is the nonnegative rationals, got {r}")
    if r == 0:
        return INFINITY
    return padic_valuation_int(p, r.numerator) - padic_valuation_int(p, r.denominator)


# ---------------------------------------------------------------------------
# primes in arithmetic progressions


def prime_in_progression(first: int, step: int, max_steps: int) -> tuple[int, int]:
    """Least k in 1..max_steps with first + k*step prime.

    Returns (k, first + k*step). Raises BadProgression when
    gcd(first, step) > 1 (at most one term of such a progression can be
    prime) and NotFoundWithinLimit when no prime shows up in range.
    """
    if first < 1 or step < 1 or max_steps < 1:
        raise NonPositive("progression parameters must be positive")
    if math.gcd(first, step) != 1:
        raise BadProgression(
            f"gcd({first}, {step}) > 1, the progression has no primes beyond a possible first term"
        )
    for k in range(1, max_steps + 1):
        candidate = first + k * step
        if is_prime(candidate):
            return k, candidate
    raise NotFoundWithinLimit(
        f"no prime of the form {first} + k*{step} for k <= {max_steps}"
    )
