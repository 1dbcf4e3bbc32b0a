import functools
import math
import random
import sys
from fractions import Fraction
from itertools import islice
from unittest import mock

import pytest
from hypothesis import given, settings, strategies as st

import puiseux.arith as arith
from puiseux.arith import (
    format_rational,
    is_prime,
    json_int,
    nth_odd_prime,
    nth_prime,
    p_adic_valuation,
    padic_valuation_int,
    parse_rational,
    prime_factors,
    prime_in_progression,
    prime_index,
    prime_stride,
    primes,
    read_int,
)
from puiseux.errors import (
    BadProgression,
    NonPositive,
    NotFoundWithinLimit,
    NotPrime,
    ParseError,
    PuiseuxError,
)

from oracles import naive_factor, naive_valuation, sieve_primes

SIEVE = sieve_primes(10_000)


def test_is_prime_matches_sieve():
    flags = set(SIEVE)
    for n in range(1, 10_000 + 1):
        assert is_prime(n) == (n in flags), n


def test_is_prime_large_composites_and_primes():
    # Carmichael numbers and near-prime products trip weak tests.
    assert not is_prime(561)
    assert not is_prime(1_729)
    assert not is_prime(2_465)
    assert not is_prime(75_361)
    assert not is_prime(104_729 * 104_723)
    assert is_prime(2**31 - 1)
    assert is_prime(10**18 + 9)


def test_is_prime_at_or_above_the_deterministic_bound():
    # Both factors are primes near 10**12, far above the small primes.
    composite = (10**12 + 39) * (10**12 + 61)
    mersenne = 2**89 - 1  # a prime
    assert composite >= arith._MR_BOUND and mersenne >= arith._MR_BOUND
    assert is_prime(composite) is False
    with pytest.raises(NotFoundWithinLimit, match=str(arith._MR_BOUND)):
        is_prime(mersenne)
    assert prime_factors(mersenne) is None
    assert prime_factors(2 * composite) is None


def test_nth_prime_matches_sieve():
    for i, p in enumerate(SIEVE[:500], start=1):
        assert nth_prime(i) == p
    assert nth_prime(1) == 2


def test_nth_odd_prime_skips_two():
    assert [nth_odd_prime(n) for n in range(1, 6)] == [3, 5, 7, 11, 13]


def test_primes_stream():
    stream = primes()
    assert [next(stream) for _ in range(10)] == SIEVE[:10]


def test_prime_index_round_trip():
    for i in range(1, 200):
        assert prime_index(nth_prime(i)) == i
    with pytest.raises(NotPrime):
        prime_index(10)


def test_prime_index_matches_the_linear_definition(monkeypatch):
    # From the 15-prime cache a fresh process starts with, so that
    # prime_index itself extends the cache.
    monkeypatch.setattr(arith, "_PRIME_CACHE", list(SIEVE[:15]))
    position = {p: i for i, p in enumerate(SIEVE[:600], start=1)}
    for n in range(1, SIEVE[599] + 1):
        if n in position:
            assert prime_index(n) == position[n], n
        else:
            with pytest.raises(NotPrime):
                prime_index(n)
    assert arith._PRIME_CACHE == SIEVE[:600]


@functools.cache
def oracle_past_the_bound() -> list[int]:
    # Through twice the prime at the cache's bound, so that tests can
    # name primes past it, which every reader of the cache refuses.
    return sieve_primes(2 * 1_299_709)


def test_the_cache_bound_and_its_prime():
    assert arith._PRIME_INDEX_BOUND == 100_000
    assert oracle_past_the_bound()[arith._PRIME_INDEX_BOUND - 1] == 1_299_709


def test_sieve_block_sizes_lie_above_the_prime_they_reach():
    want = oracle_past_the_bound()
    for n in range(6, arith._PRIME_INDEX_BOUND + 1):
        assert arith._above_nth_prime(n) > want[n - 1], n


def test_sieved_cache_matches_the_oracle_at_every_position_to_the_bound():
    bound = arith._PRIME_INDEX_BOUND
    want = oracle_past_the_bound()[:bound]
    with mock.patch.object(arith, "_PRIME_CACHE", want[:15]):
        assert nth_prime(bound) == want[-1]
        # Filled in one sieve pass, and no further than the bound.
        assert arith._PRIME_CACHE == want
        assert [nth_prime(n) for n in range(1, bound + 1)] == want
        assert prime_stride(1, 1, bound) == want
        stride = want[2::7]
        assert prime_stride(3, 7, len(stride)) == stride
        assert [prime_index(p) for p in want] == list(range(1, bound + 1))
        assert list(islice(primes(), bound)) == want
        with pytest.raises(NotFoundWithinLimit, match="100001 is past the bound 100000"):
            nth_prime(bound + 1)
        assert arith._PRIME_CACHE == want


def test_primes_stops_at_the_cache_bound():
    bound = arith._PRIME_INDEX_BOUND
    want = oracle_past_the_bound()[:bound]
    with mock.patch.object(arith, "_PRIME_CACHE", want[:15]):
        stream = primes()
        assert list(islice(stream, bound)) == want
        with pytest.raises(NotFoundWithinLimit, match="prime index 100001 is past the bound 100000"):
            next(stream)
        assert arith._PRIME_CACHE == want


ACCESSES = st.sampled_from(["nth_prime", "prime_stride", "primes", "prime_index"])
STEPS = st.one_of(st.integers(1, 64), st.integers(1, 40_000))


@settings(max_examples=25)
@given(st.integers(6, 60), st.lists(st.tuples(ACCESSES, STEPS), min_size=1, max_size=10))
def test_sieved_cache_grown_in_random_steps_matches_the_oracle(start, steps):
    # From a cache of the first few primes (a fresh process holds 15;
    # the block size bound needs 6), each access moves the position it
    # reads by a drawn amount, so that sieve blocks start and end at
    # many places, the first one at the square of the last cached prime.
    want = oracle_past_the_bound()
    bound = arith._PRIME_INDEX_BOUND
    with mock.patch.object(arith, "_PRIME_CACHE", want[:start]):
        position = 0
        for access, step in steps:
            before, position = position, min(bound, position + step)
            if access == "nth_prime":
                assert nth_prime(position) == want[position - 1]
            elif access == "prime_stride":
                count = (position - before + 1) // 2
                assert prime_stride(before + 1, 2, count) == want[before : before + 2 * count : 2]
            elif access == "primes":
                assert list(islice(primes(), position)) == want[:position]
            else:
                assert prime_index(want[position - 1]) == position
            cache = arith._PRIME_CACHE
            assert len(cache) >= position and cache == want[: len(cache)]


def test_prime_index_refuses_past_the_bound():
    want = oracle_past_the_bound()
    bound = arith._PRIME_INDEX_BOUND
    with mock.patch.object(arith, "_PRIME_CACHE", want[:15]):
        # Far past the bound: refused before any sieving.
        with pytest.raises(NotFoundWithinLimit, match="100000007 is past position 100000"):
            prime_index(100_000_007)
        assert arith._PRIME_CACHE == want[:15]
        # Just past it: the cache grows to the bound, and no further.
        with pytest.raises(NotFoundWithinLimit, match="1299721 is past position 100000"):
            prime_index(want[bound])
        assert arith._PRIME_CACHE == want[:bound]
        assert prime_index(want[bound - 1]) == bound


def test_prime_factors_sieves_once_through_the_cache():
    want = oracle_past_the_bound()
    bound = arith._PRIME_INDEX_BOUND
    prime = 100_000_000_000_000_000_039
    with mock.patch.object(arith, "_PRIME_CACHE", want[:15]):
        # A small cofactor ends the loop inside the cache.
        assert prime_factors(2**60 * 3) == (2, 3)
        assert arith._PRIME_CACHE == want[:15]
        # Past the cache, one pass sieves through the cofactor's square
        # root: the 26 primes through 101, for 101 * 103.
        assert prime_factors(101 * 103) == (101, 103)
        assert arith._PRIME_CACHE == want[:26]
        # Then to the cache's bound, the 100,000 primes through 1,299,709,
        # and no further, whatever the cofactor's square root.
        assert prime_factors(prime) == (prime,)
        assert arith._PRIME_CACHE == want[:bound]


@settings(max_examples=40)
@given(
    st.lists(st.integers(0, 1999), max_size=4),
    st.lists(st.integers(0, 999), max_size=2),
)
def test_prime_factors_stays_within_the_cache_bound(small, large):
    # Small factors, times up to two primes past the prime at the
    # cache's bound, 1,299,709. Trial division stops at that prime: one
    # prime past it, or its square, is settled, and a product of two
    # distinct ones is left as None rather than grow the cache.
    want = oracle_past_the_bound()
    bound = arith._PRIME_INDEX_BOUND
    n = math.prod(want[i] for i in small) * math.prod(want[bound + i] for i in large)
    with mock.patch.object(arith, "_PRIME_CACHE", want[:bound]):
        got = prime_factors(n)
        assert len(arith._PRIME_CACHE) == bound
    if len(set(large)) == 2:
        assert got is None
    else:
        assert got == tuple(sorted({want[i] for i in small} | {want[bound + i] for i in large}))


def test_prime_factors_matches_naive():
    rng = random.Random(5)
    for _ in range(300):
        n = rng.randint(2, 100_000)
        got = prime_factors(n)
        assert got == tuple(sorted(naive_factor(n)))


def test_prime_factors_distinct_and_sorted():
    assert prime_factors(12) == (2, 3)
    assert prime_factors(97) == (97,)
    assert prime_factors(2**10) == (2,)


def test_prime_factors_gives_up_past_the_cache():
    # Products of two primes past 1,299,709, the last prime the cache
    # may hold, and above its square.
    assert prime_factors(1_299_721 * 1_299_743) is None
    assert prime_factors((10**9 + 7) * (10**9 + 9)) is None
    assert prime_factors((1_299_721 * 1_299_743) ** 2) is None
    # A power of one such prime is settled by its exact root.
    assert prime_factors(1_299_721**2) == (1_299_721,)
    assert prime_factors(12 * 1_299_721**3) == (2, 3, 1_299_721)
    assert prime_factors(6 * 1_299_721) == (2, 3, 1_299_721)


def test_padic_valuation_matches_naive():
    rng = random.Random(11)
    for _ in range(200):
        p = rng.choice([2, 3, 5, 7, 11])
        r = Fraction(rng.randint(1, 500), rng.randint(1, 500))
        assert p_adic_valuation(p, r) == naive_valuation(p, r)


def test_padic_valuation_of_zero_is_infinite():
    assert p_adic_valuation(3, Fraction(0)) == float("inf")


def test_padic_valuation_int():
    assert padic_valuation_int(2, 48) == 4
    assert padic_valuation_int(5, 48) == 0


def test_parse_rational_tokens():
    assert parse_rational("3/4") == Fraction(3, 4)
    assert parse_rational("6/8") == Fraction(3, 4)
    assert parse_rational("7") == Fraction(7)
    assert parse_rational("0", allow_zero=True) == Fraction(0)


@pytest.mark.parametrize("bad", ["", "1.5", "a/b", "1/0", "--2", "1e3", "2/3/4"])
def test_parse_rational_rejects_junk(bad):
    with pytest.raises(ParseError):
        parse_rational(bad)


def test_parse_rational_rejects_nonpositive():
    with pytest.raises(NonPositive):
        parse_rational("0")
    with pytest.raises(ParseError):
        parse_rational("-3/4")


def test_format_round_trip():
    rng = random.Random(3)
    for _ in range(100):
        r = Fraction(rng.randint(1, 400), rng.randint(1, 400))
        assert parse_rational(format_rational(r)) == r
    assert format_rational(Fraction(5)) == "5"
    assert format_rational(Fraction(1, 2)) == "1/2"


def test_prime_in_progression_finds_dirichlet_primes():
    # Steps start at k = 1; the constant term itself is never reported.
    k, p = prime_in_progression(1, 4, 1000)
    assert (k, p) == (1, 5)
    k, p = prime_in_progression(7, 10, 1000)
    assert (k, p) == (1, 17)
    k, p = prime_in_progression(9, 10, 1000)
    assert (k, p) == (1, 19)
    k, p = prime_in_progression(1, 30, 1000)
    assert p == 1 + 30 * k and p == 31


def test_prime_in_progression_respects_limit():
    # 25 + 2 = 27 is composite, so one step is not enough.
    with pytest.raises(NotFoundWithinLimit):
        prime_in_progression(25, 2, 1)


def test_prime_in_progression_rejects_shared_factor():
    with pytest.raises(BadProgression):
        prime_in_progression(4, 2, 100)


def test_reading_past_the_digit_limit_is_refused():
    limit = sys.get_int_max_str_digits()
    assert parse_rational("7" * limit) == int("7" * limit)
    for read in (parse_rational, json_int, read_int, lambda digits: parse_rational(f"1/{digits}")):
        with pytest.raises(PuiseuxError, match=f"more than {limit} digits"):
            read("7" * (limit + 1))
    # int()'s own spellings of a numeral count too; anything else keeps
    # int()'s ValueError, whatever its length.
    for numeral in (f" -{'7' * limit}1 ", f"+1_{'7' * limit}"):
        with pytest.raises(PuiseuxError, match=f"more than {limit} digits"):
            read_int(numeral)
    for token in ("abc", "4,9", "1/2", "1__2", "7" * limit + "x"):
        with pytest.raises(ValueError, match="invalid literal"):
            read_int(token)
    assert sys.get_int_max_str_digits() == limit
