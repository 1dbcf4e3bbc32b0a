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

import bisect
import math
import re
import sys
from fractions import Fraction
from itertools import compress, count, islice, repeat
from operator import attrgetter
from typing import Iterator

from .errors import (
    BadProgression,
    NonPositive,
    NotFoundWithinLimit,
    NotPrime,
    ParseError,
    PuiseuxError,
)

INFINITY = math.inf

_RATIONAL_RE = re.compile(r"^\s*(\d+)\s*(?:/\s*(\d+)\s*)?$")
# What int() reads in base 10: only the digit limit can refuse a match.
_NUMERAL_RE = re.compile(r"\s*[+-]?\d+(?:_\d+)*\s*")


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
    one. A call passing every field by position, and nothing else,
    writes the values straight into the instance in one loop. Any other
    call first binds its arguments in Python, as a def with these
    parameters would, at a higher cost, so hot call sites pass every
    field by position. == holds between instances of one class with
    equal field tuples, hash is the hash of the field tuple (a tuple
    even for one field), repr is Name(field=value, ...), and
    __match_args__ names the fields. Assigning or deleting an attribute
    raises dataclasses.FrozenInstanceError. Pickle, copy and deepcopy
    rebuild a record from its field tuple through __init__, so no
    cached_value travels with it.

    Slots: a class body may set __slots__ to exactly its fields, in
    order, and then has no defaults. Its instances have no __dict__:
    the values live in the slots' member descriptors. Without __slots__
    instances keep their __dict__, the one loop writes into it, and
    cached_value, which needs it, works.

    Bulk: a slotted class also gets cls._trusted(n, *columns), the one
    constructor that skips the checks. It returns a list of n new
    instances, the i-th holding the i-th item of each column, one column
    per field in order; a column may be longer than n, such as
    itertools.repeat(value). The instances come from object.__new__ and
    each column goes into its slot through the member descriptor's
    __set__, both driven by map, so no Python frame runs per instance.
    Neither __init__ nor __post_init__ runs: the caller guarantees what
    they would establish, and that every column holds at least n items.

    Added: unless the class defines its own, as_mapping() returns the
    JSON form: the class attribute json_tag (a dict, empty if absent),
    then each field in order, written by _json_value.

    Dropped: dataclasses.fields, replace, asdict and is_dataclass do not
    apply; inspect.signature shows the shared __init__'s parameters,
    such as (*args, **kwargs), not the fields; no __doc__ is made up for
    a class without one; and there are no field() options, InitVar,
    ClassVar, inherited fields, ordering or recursion guard in repr.
    """
    names = tuple(cls.__dict__.get("__annotations__", ()))
    slots = cls.__dict__.get("__slots__")
    if slots is not None and tuple(slots) != names:
        raise TypeError(f"{cls.__qualname__}.__slots__ must name the fields {names}, got {slots!r}")
    # Under __slots__ each field's class attribute is its member descriptor.
    setters = [cls.__dict__[name].__set__ for name in names] if slots is not None else None
    defaults = {} if setters is not None else {name: cls.__dict__[name] for name in names if name in cls.__dict__}
    count = len(names)
    post_init = hasattr(cls, "__post_init__")

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

    # One getter serves ==, hash and pickle: the field tuple, which a
    # dataclass hashes; attrgetter would give a lone field bare.
    key = attrgetter(*names) if count > 1 else lambda self: tuple(getattr(self, name) for name in names)

    def __hash__(self):
        return hash(key(self))

    def __init__(self, *args, **kwargs):
        if kwargs or len(args) != count:
            args = bind(args, kwargs)
        if setters is None:
            fields = self.__dict__
            for i, name in enumerate(names):
                fields[name] = args[i]
        else:
            for set_, value in zip(setters, args):
                set_(self, value)
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

    def __reduce__(self):
        return type(self), key(self)

    tag = getattr(cls, "json_tag", {})

    def as_mapping(self) -> dict:
        out = dict(tag)
        for name in names:
            out[name] = _json_value(getattr(self, name))
        return out

    methods = [__init__, __repr__, __eq__, __hash__, __setattr__, __delattr__, __reduce__]
    if setters is not None:
        # The bulk constructor: the loops over instances run in map, in
        # C. A slot's __set__ returns None, so any() drains each map to
        # its end; at a few instances it costs less than a deque.
        def _trusted(n: int, *columns) -> list:
            out = list(map(object.__new__, repeat(cls, n)))
            for set_, column in zip(setters, columns):
                any(map(set_, out, column))
            return out

        cls._trusted = staticmethod(_trusted)
    for method in methods:
        setattr(cls, method.__name__, method)
    if "as_mapping" not in cls.__dict__:
        cls.as_mapping = as_mapping
    cls.__match_args__ = names
    return cls


class cached_value:
    """A method computed once per instance, on first access, then read
    as an attribute: the value goes into the instance __dict__, which
    the next lookup reads before this non-data descriptor, so it serves
    records without __slots__ only. A pickled or copied record is
    rebuilt from its fields, so the copy computes its own. Unlike
    functools.cached_property on Python 3.10 and 3.11, it takes no lock
    (about 0.6 us saved per first access on 3.11); two threads racing on
    one first access may both compute the value, the same one, since
    the records are immutable.
    """

    def __init__(self, method):
        self.method = method
        self.name = method.__name__

    def __get__(self, instance, owner=None):
        if instance is None:
            return self
        value = instance.__dict__[self.name] = self.method(instance)
        return value


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


def parse_rational(text: str, allow_zero: bool = False) -> Fraction:
    """Parse 'n/d' or a bare integer token into an exact Fraction.

    Unreduced input is fine ('8/12' gives 2/3). Decimals, signs and
    anything else are rejected with ParseError. Zero is accepted only
    when allow_zero is set.
    """
    m = _RATIONAL_RE.match(text)
    if not m:
        raise ParseError(f"not an exact rational token: {text!r}")
    n = read_int(m.group(1))
    d = read_int(m.group(2)) if m.group(2) else 1
    if d == 0:
        raise ParseError(f"zero denominator in {text!r}")
    value = Fraction(n, d)
    if value == 0:
        if allow_zero:
            return value
        raise NonPositive(f"zero is not allowed here: {text!r}")
    return value


def read_int(digits: str) -> int:
    """int(digits). A decimal numeral past Python's str-to-int digit
    limit (sys.get_int_max_str_digits()) is refused with PuiseuxError
    naming the limit; the limit itself is left as it is. Anything int()
    cannot read as a numeral keeps int()'s own ValueError."""
    try:
        return int(digits)
    except ValueError:
        if not _NUMERAL_RE.fullmatch(digits):
            raise
        raise PuiseuxError(
            f"cannot read an integer with more than {sys.get_int_max_str_digits()} digits,"
            " Python's str-to-int limit"
        ) from None


def json_int(value) -> int:
    """A JSON integer, or a string of decimal digits with an optional
    minus sign. Booleans and floats are refused, never truncated."""
    if isinstance(value, str) and re.fullmatch(r"-?[0-9]+", value):
        return read_int(value)
    return _exact(value)


def format_rational(r: Fraction | int) -> str:
    """Serialize a nonnegative rational as 'n/d' in lowest terms,
    integers without the unit denominator.

    A numerator or denominator past Python's int-to-str digit limit
    (sys.get_int_max_str_digits(), 4300 by default) is refused with
    PuiseuxError naming the limit; the limit itself is left as it is.
    """
    r = r if type(r) is Fraction else _exact(r, Fraction)
    if r < 0:
        raise NonPositive(f"cannot serialize negative value {r}")
    try:
        if r.denominator == 1:
            return str(r.numerator)
        return f"{r.numerator}/{r.denominator}"
    except ValueError:
        raise PuiseuxError(
            f"cannot write a rational with more than {sys.get_int_max_str_digits()} digits"
            " in its numerator or denominator, Python's int-to-str limit"
        ) from None


def format_int(n: int) -> str:
    """str(n) for an integer n of either sign.

    As in format_rational, an integer past Python's int-to-str digit
    limit is refused with PuiseuxError naming the limit; the limit
    itself is left as it is.
    """
    try:
        return str(n)
    except ValueError:
        raise PuiseuxError(
            f"cannot write an integer with more than {sys.get_int_max_str_digits()} digits,"
            " Python's int-to-str limit"
        ) from None


# ---------------------------------------------------------------------------
# primality

# Deterministic Miller-Rabin witness set: the first twelve primes decide
# primality for every n below this bound, which comfortably covers 2**64.
_MR_BASES = (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37)
_MR_BOUND = 318665857834031151167461

# Growing cache of the prime sequence p_1 = 2, p_2 = 3, p_3 = 5, ...
_PRIME_CACHE = [2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41, 43, 47]

# is_prime's trial divisors: the primes the cache starts with.
_SMALL_PRIMES = tuple(_PRIME_CACHE)


def is_prime(n: int) -> bool:
    """Exact primality for n >= 1.

    Uses trial division by a few small primes, then Miller-Rabin on a
    fixed witness set, which decides primality below the published
    bound _MR_BOUND (far above 2**64). From the bound up a witness
    still proves n composite; without one, NotFoundWithinLimit names
    the bound instead of a verdict.
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
    if not _miller_rabin(n):
        return False
    if n >= _MR_BOUND:
        raise NotFoundWithinLimit(
            f"{n} passes every Miller-Rabin base, which decides primality only below {_MR_BOUND}"
        )
    return True


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


# The cache grows by sieving: about 0.035 s to reach this position from
# its first 15 primes with Python 3.11 on a 2-vCPU x86-64 VM. The sieve
# stops there, so every reader of the cache refuses a position past it
# rather than hold millions of primes.
_PRIME_INDEX_BOUND = 100_000


def _check_prime_position(position: int, what: str = "prime index") -> None:
    """Refuse a position past the cache's bound with NotFoundWithinLimit."""
    if position > _PRIME_INDEX_BOUND:
        raise NotFoundWithinLimit(
            f"{what} {position} is past the bound {_PRIME_INDEX_BOUND} of the prime cache"
        )


def _sieve_through(top: int) -> None:
    """Append to the cache every prime up to top, but never more than
    _PRIME_INDEX_BOUND primes in all.

    Each block runs from just past the last cached prime q to at most
    q**2, so every composite in it has a prime factor already cached.
    Those factors strike their multiples from a bytearray of flags, and
    itertools.compress reads the survivors out.
    """
    lo = _PRIME_CACHE[-1] + 1
    while lo <= top and len(_PRIME_CACHE) < _PRIME_INDEX_BOUND:
        hi = min(top, _PRIME_CACHE[-1] ** 2)
        flags = bytearray(b"\x01") * (hi - lo + 1)
        for p in _PRIME_CACHE:
            if p * p > hi:
                break
            first = max(p * p, lo + -lo % p) - lo
            flags[first::p] = bytes(len(range(first, len(flags), p)))
        found = compress(range(lo, hi + 1), flags)
        _PRIME_CACHE.extend(islice(found, _PRIME_INDEX_BOUND - len(_PRIME_CACHE)))
        lo = hi + 1


def _above_nth_prime(n: int) -> int:
    """An integer above the n-th prime, for n >= 6: p_n < n(ln n + ln ln n)
    (Rosser and Schoenfeld, 1962). It sizes sieve blocks; the float
    error, far below 1, is covered by rounding up."""
    log_n = math.log(n)
    return int(n * (log_n + math.log(log_n))) + 1


def _fill_prime_cache(last: int) -> None:
    """Grow the cache through position last in one sieve pass (it holds
    the first 15 primes already), or refuse past the bound."""
    _check_prime_position(last)
    _sieve_through(_above_nth_prime(last))


def nth_prime(n: int) -> int:
    """The n-th prime, 1-indexed: nth_prime(1) == 2.

    A position past _PRIME_INDEX_BOUND that the cache does not hold
    yet is refused with NotFoundWithinLimit, before any work.
    """
    n = n if type(n) is int else _exact(n)
    if n < 1:
        raise NonPositive(f"prime index must be >= 1, got {n}")
    if n > len(_PRIME_CACHE):
        _fill_prime_cache(n)
    return _PRIME_CACHE[n - 1]


def prime_stride(start: int, step: int, count: int) -> list[int]:
    """The primes at positions start, start + step, ..., count of them,
    as one slice of the prime cache. Positions past the cache are
    refused as nth_prime refuses them."""
    if count < 1:
        return []
    if start < 1:
        raise NonPositive(f"prime index must be >= 1, got {start}")
    last = start + step * (count - 1)
    if last > len(_PRIME_CACHE):
        _fill_prime_cache(last)
    return _PRIME_CACHE[start - 1 : last : step]


def nth_odd_prime(n: int) -> int:
    """The n-th odd prime, 1-indexed: 3, 5, 7, 11, ..."""
    return nth_prime(_exact(n) + 1)


def primes() -> Iterator[int]:
    """An iterator over 2, 3, 5, 7, ..., each read by nth_prime: past
    position _PRIME_INDEX_BOUND the next read raises its refusal."""
    return map(nth_prime, count(1))


def prime_index(p: int) -> int:
    """Position of the prime p in the prime sequence (2 is position 1).

    The cache grows to hold p, but not past position _PRIME_INDEX_BOUND:
    a prime beyond the one there, if the cache does not hold it yet, is
    refused with NotFoundWithinLimit naming the bound, and one above
    n(ln n + ln ln n) for n the bound (about 1.4 million) is refused
    before any sieving.
    """
    if not is_prime(p):
        raise NotPrime(f"{p} is not prime")
    if p > _PRIME_CACHE[-1]:
        if p < _above_nth_prime(_PRIME_INDEX_BOUND):
            _sieve_through(p)
        if p > _PRIME_CACHE[-1]:
            raise NotFoundWithinLimit(
                f"prime {p} is past position {_PRIME_INDEX_BOUND}, the bound of the prime cache"
            )
    return bisect.bisect_left(_PRIME_CACHE, p) + 1


def _prime_power_base_int(v: int) -> int | None:
    """The prime q with v = q^e (e >= 1); 1 for v = 1; None otherwise.

    Decided exactly, with no trial division: v is a prime power exactly
    when the root r of v = r^e for the largest such e is prime. Where
    is_prime cannot decide r, its NotFoundWithinLimit propagates.
    """
    if v == 1:
        return 1
    # r >= 2 needs 2^e <= v, so e < v.bit_length(); e = 1 gives r = v.
    for e in range(v.bit_length() - 1, 0, -1):
        r = _integer_root(v, e)
        if r**e == v:
            return r if is_prime(r) else None


def _integer_root(v: int, e: int) -> int:
    """floor(v^(1/e)) for v, e >= 1, by Newton's method in integers,
    falling from a start above the root."""
    r = 1 << -(-v.bit_length() // e)
    while True:
        s = ((e - 1) * r + v // r ** (e - 1)) // e
        if s >= r:
            return r
        r = s


def prime_factors(n: int) -> tuple[int, ...] | None:
    """Distinct prime factors of n >= 1, in increasing order.

    Trial division runs through the primes the cache may hold, up to
    1,299,709, the one at position _PRIME_INDEX_BOUND. A cofactor left
    above that prime's square is settled when it is a power of a prime
    is_prime can decide; otherwise the result is None, so callers can
    fall back to something slower but sound.
    """
    n = n if type(n) is int else _exact(n)
    if n < 1:
        raise NonPositive(f"cannot factor {n}")
    out = []
    rest = n
    i = 0
    while True:
        if i == len(_PRIME_CACHE):
            # Off the end of the cache: one sieve pass through the largest
            # prime the loop may still test, since rest only shrinks.
            _sieve_through(math.isqrt(rest))
            if i == len(_PRIME_CACHE):
                break
        p = _PRIME_CACHE[i]
        if p * p > rest:
            break
        if rest % p == 0:
            out.append(p)
            while rest % p == 0:
                rest //= p
        i += 1
    if rest > 1:
        # No cached prime divides rest, so below the last one's square
        # it is prime.
        if rest > _PRIME_CACHE[-1] ** 2:
            try:
                rest = _prime_power_base_int(rest)
            except NotFoundWithinLimit:
                return None
            if rest is None:
                return None
        out.append(rest)
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

    Raises NotPrime when p is not prime, NonPositive when r < 0 and
    ParseError for a float or a bool.
    """
    if not is_prime(p):
        raise NotPrime(f"valuation base must be prime, got {p}")
    r = r if type(r) is Fraction else _exact(r, Fraction)
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
    prime), NotFoundWithinLimit when no prime shows up in range and
    ParseError for a float or a bool.
    """
    if type(first) is not int or type(step) is not int or type(max_steps) is not int:
        first, step, max_steps = _exact(first), _exact(step), _exact(max_steps)
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
