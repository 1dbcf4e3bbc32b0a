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
from operator import attrgetter
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


def record(cls: type) -> type:
    """Make cls a frozen record, as @dataclass(frozen=True) does for the
    classes of this package, from closures shared by every record
    rather than from generated source, and without importing dataclasses.

    Kept: the fields are the class's own annotations in order, a class
    attribute of the same name being the default. __init__ takes them
    by position or keyword, then calls __post_init__ if the class has
    one. == holds between instances of one class with equal field
    tuples, hash is the hash of the field tuple (a tuple even for one
    field), repr is Name(field=value, ...), and __match_args__ names the
    fields. Assigning or deleting an attribute raises
    dataclasses.FrozenInstanceError. Instances keep their __dict__, so
    functools.cached_property works and private constructors may fill
    fields through it.

    Added: unless the class defines its own, as_mapping() returns the
    JSON form: the class attribute json_tag (a dict, empty if absent),
    then each field in order, written by _json_value.

    Dropped: dataclasses.fields, replace, asdict and is_dataclass do not
    apply; inspect.signature shows the shared __init__'s parameters,
    such as (*args, **kwargs), not the fields; no __doc__ is made up for
    a class without one; and there are no field() options, InitVar,
    ClassVar, inherited fields, ordering, slots or recursion guard in
    repr.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    defaults = {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    count = len(names)
    post_init = hasattr(cls, "__post_init__")
    setattr_ = object.__setattr__

    def bind(args, kwargs):
        # The values a def with these parameters would bind, or its TypeError.
        values = list(args)
        for name in names[len(args) :]:
            if name in kwargs:
                values.append(kwargs.pop(name))
            elif name in defaults:
                values.append(defaults[name])
            else:
                raise TypeError(f"{cls.__qualname__}() missing required argument {name!r}")
        if len(values) > count:
            raise TypeError(f"{cls.__qualname__}() takes {count} arguments, got {len(args)}")
        for name in kwargs:
            problem = "multiple values for" if name in names else "an unexpected keyword"
            raise TypeError(f"{cls.__qualname__}() got {problem} argument {name!r}")
        return values

    # One getter serves == and hash. For one field it reads the bare
    # value, hash wraps it in the tuple a dataclass hashes, and a lone
    # positional argument binds without packing a tuple.
    if count == 1:
        (field,) = names
        key = attrgetter(field)

        def __hash__(self):
            return hash((key(self),))

        def __init__(self, value=_UNSET, /, *rest, **kwargs):
            if rest or kwargs or value is _UNSET:
                (value,) = bind(() if value is _UNSET else (value, *rest), kwargs)
            setattr_(self, field, value)
            if post_init:
                self.__post_init__()

    else:
        key = attrgetter(*names) if names else lambda self: ()

        def __hash__(self):
            return hash(key(self))

        def __init__(self, *args, **kwargs):
            if kwargs or len(args) != count:
                args = bind(args, kwargs)
            self.__dict__.update(zip(names, args))
            if post_init:
                self.__post_init__()

    def __repr__(self):
        fields = ", ".join(f"{name}={getattr(self, name)!r}" for name in names)
        return f"{type(self).__qualname__}({fields})"

    def __eq__(self, other):
        if other.__class__ is self.__class__:
            return key(self) == key(other)
        return NotImplemented

    def __setattr__(self, name, value):
        _frozen("assign to", name)

    def __delattr__(self, name):
        _frozen("delete", name)

    tag = getattr(cls, "json_tag", {})

    def as_mapping(self) -> dict:
        out = dict(tag)
        for name in names:
            out[name] = _json_value(getattr(self, name))
        return out

    for method in (__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__):
        setattr(cls, method.__name__, method)
    if "as_mapping" not in cls.__dict__:
        cls.as_mapping = as_mapping
    cls.__match_args__ = names
    return cls


_UNSET = object()


def _json_value(value):
    """A field as JSON: a Fraction as 'n/d', a tuple as a list of its
    items' JSON, a record as its as_mapping(), anything else as is."""
    if isinstance(value, Fraction):
        return format_rational(value)
    if isinstance(value, tuple):
        return [_json_value(item) for item in value]
    if hasattr(value, "as_mapping"):
        return value.as_mapping()
    return value


def _frozen(verb: str, name: str):
    from dataclasses import FrozenInstanceError

    raise FrozenInstanceError(f"cannot {verb} field {name!r}")


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


def json_int(value) -> int:
    """A JSON integer, or a string of decimal digits with an optional
    minus sign. Booleans and floats are refused, never truncated."""
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return int(value)
    return _exact(value)


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
    n = n if type(n) is int else _exact(n)
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
    n = n if type(n) is int else _exact(n)
    if n < 1:
        raise NonPositive(f"prime index must be >= 1, got {n}")
    while len(_PRIME_CACHE) < n:
        _extend_prime_cache()
    return _PRIME_CACHE[n - 1]


def nth_odd_prime(n: int) -> int:
    """The n-th odd prime, 1-indexed: 3, 5, 7, 11, ..."""
    return nth_prime(_exact(n) + 1)


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
