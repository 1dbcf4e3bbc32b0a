"""Independent brute-force reference implementations.

Everything in this module is deliberately naive: sieves, exhaustive
scans, and recursive searches written without looking at the library
code paths they check. Slow on purpose; the tests keep inputs small.
"""

from __future__ import annotations

import itertools
import math
from fractions import Fraction


def sieve_primes(limit: int) -> list[int]:
    flags = bytearray([1]) * (limit + 1)
    flags[0:2] = b"\x00\x00"
    for p in range(2, int(limit**0.5) + 1):
        if flags[p]:
            flags[p * p :: p] = bytearray(len(flags[p * p :: p]))
    return [n for n in range(2, limit + 1) if flags[n]]


def naive_factor(n: int) -> dict[int, int]:
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            out[d] = out.get(d, 0) + 1
            n //= d
        d += 1
    if n > 1:
        out[n] = out.get(n, 0) + 1
    return out


def naive_valuation(p: int, r: Fraction) -> int:
    return naive_factor(r.numerator).get(p, 0) - naive_factor(r.denominator).get(p, 0)


def padic_exclusion_coefficient(
    p: int, alpha_i: int, alpha_m: int, q: int, c_i: int, c_m: int
) -> int:
    """The integer k with c_i / p^alpha_i = k * c_m / p^alpha_m, for
    numerators c_i >= c_m that are powers of the prime q and exponents
    alpha_i < alpha_m, from the valuations: p^(alpha_m - alpha_i) *
    q^(v_q(c_i) - v_q(c_m))."""
    beta_i = naive_factor(c_i).get(q, 0)
    beta_m = naive_factor(c_m).get(q, 0)
    return p ** (alpha_m - alpha_i) * q ** (beta_i - beta_m)


def reachable_integers(gens: tuple[int, ...], bound: int) -> set[int]:
    """All semigroup elements up to bound, by forward closure."""
    hit = {0}
    frontier = [0]
    while frontier:
        x = frontier.pop()
        for g in gens:
            y = x + g
            if y <= bound and y not in hit:
                hit.add(y)
                frontier.append(y)
    return hit


def brute_frobenius(gens: tuple[int, ...]) -> int:
    """Largest integer outside the semigroup, by scanning."""
    bound = max(gens) ** 2 + max(gens)
    hit = reachable_integers(gens, bound)
    gaps = [n for n in range(bound + 1) if n not in hit]
    return max(gaps) if gaps else -1


def apery_frobenius(gens: tuple[int, ...]) -> int:
    """Largest integer outside the semigroup, from the Apery set of the
    smallest generator a: the least element in each residue class mod
    a, filled in by round robin (Bocker and Liptak, Algorithmica 2007).
    For each further generator g, each class mod gcd(a, g) is walked
    from its least entry, adding g to it a / gcd(a, g) - 1 times.
    Memory is one entry per residue, so a of 10^5 is cheap where a
    scan is not."""
    a = min(gens)
    least = [math.inf] * a
    least[0] = 0
    for g in gens:
        d = math.gcd(a, g)
        for start in range(d):
            n = min(least[start::d])
            if n == math.inf:
                continue
            for _ in range(a // d - 1):
                n += g
                n = min(n, least[n % a])
                least[n % a] = n
    return max(least) - a


def brute_representations(gens: tuple[int, ...], x: int) -> set[tuple[int, ...]]:
    """Every coefficient tuple over the generators, nested loops."""
    found = set()

    def walk(i: int, remaining: int, prefix: tuple[int, ...]):
        if i == len(gens):
            if remaining == 0:
                found.add(prefix)
            return
        g = gens[i]
        for c in range(remaining // g + 1):
            walk(i + 1, remaining - c * g, prefix + (c,))

    walk(0, x, ())
    return found


def old_any_representation(gens: tuple[int, ...], x: int) -> tuple[int, ...] | None:
    """The recursion NumericalSemigroup.any_representation ran before
    its walk became iterative, kept as the reference for which
    representation it returns: gens increasing, the largest coefficient
    on the largest generator first, then the next, down to the third;
    over the two smallest, the largest coefficient on the smallest. One
    level of recursion per generator, scanning every coefficient."""

    def rec(k: int, rem: int) -> tuple[int, ...] | None:
        if k == 1:
            return (rem // gens[0],) if rem % gens[0] == 0 else None
        if k == 2:
            for c1 in range(rem // gens[1] + 1):
                if (rem - c1 * gens[1]) % gens[0] == 0:
                    return (rem - c1 * gens[1]) // gens[0], c1
            return None
        g = gens[k - 1]
        for c in range(rem // g, -1, -1):
            # What the smaller generators cannot reach by divisibility
            # is skipped without recursing, as the old code did.
            if (rem - c * g) % math.gcd(*gens[: k - 1]) == 0:
                sub = rec(k - 1, rem - c * g)
                if sub is not None:
                    return sub + (c,)
        return None

    return None if x < 0 else rec(len(gens), x)


def brute_rational_member(gens: tuple[Fraction, ...], x: Fraction) -> bool:
    if x == 0:
        return True
    if x < 0 or not gens:
        return False
    head, rest = gens[0], gens[1:]
    if not rest:
        q = x / head
        return q.denominator == 1
    c = 0
    while c * head <= x:
        if brute_rational_member(rest, x - c * head):
            return True
        c += 1
    return False


def brute_rational_factorizations(
    atoms: tuple[Fraction, ...], x: Fraction
) -> set[tuple[tuple[Fraction, int], ...]]:
    """All multisets of atoms summing to x, as sorted (atom, mult) tuples."""
    atoms = tuple(sorted(set(atoms)))
    found = set()

    def walk(i: int, remaining: Fraction, prefix):
        if remaining == 0:
            found.add(tuple(prefix))
            return
        if i == len(atoms):
            return
        a = atoms[i]
        walk(i + 1, remaining, prefix)
        c = 1
        while c * a <= remaining:
            walk(i + 1, remaining - c * a, prefix + [(a, c)])
            c += 1

    walk(0, x, [])
    return found


def brute_cyclic_factorizations(
    r: Fraction, x: Fraction, cap: int
) -> set[tuple[tuple[int, int], ...]]:
    """All multisets over the powers r, r^2, ..., r^cap summing to x."""
    powers = [(e, r**e) for e in range(1, cap + 1)]
    found = set()

    def walk(i: int, remaining: Fraction, prefix):
        if remaining == 0:
            found.add(tuple(prefix))
            return
        if i == len(powers):
            return
        e, v = powers[i]
        walk(i + 1, remaining, prefix)
        c = 1
        while c * v <= remaining:
            walk(i + 1, remaining - c * v, prefix + [(e, c)])
            c += 1

    walk(0, x, [])
    return found


def old_generator_normalization(gens) -> tuple[Fraction, ...]:
    """Generators normalized as FgMonoid did before its keyed sort: one
    Fraction per reduced (numerator, denominator), the later input
    winning, then sorted by (floor(q * 2**64), q). Positivity is left
    to the caller."""
    unique: dict[tuple[int, int], Fraction] = {}
    for g in gens:
        q = Fraction(g)
        unique[q.numerator, q.denominator] = q
    return tuple(sorted(unique.values(), key=lambda q: ((q.numerator << 64) // q.denominator, q)))


def brute_atoms(gens: tuple[Fraction, ...], ) -> set[Fraction]:
    """Generators not reachable from the others, checked by brute
    membership."""
    distinct = sorted(set(gens))
    out = set()
    for g in distinct:
        others = tuple(h for h in distinct if h != g)
        if not brute_rational_member(others, g):
            out.add(g)
    return out


def brute_unit_sums(
    atoms: tuple[Fraction, ...], max_len: int
) -> set[tuple[Fraction, ...]]:
    """Every multiset of 1 to max_len atoms summing to 1, as a
    nondecreasing tuple, by trying every combination with repetition."""
    pool = sorted(set(atoms))
    found = set()
    for length in range(1, max_len + 1):
        for combo in itertools.combinations_with_replacement(pool, length):
            if sum(combo) == 1:
                found.add(combo)
    return found


def old_colex_subset(rank: int, k: int) -> tuple[int, ...]:
    """colex_subset as it stepped each c_j up by one from j: the
    unranking before it doubled, then bisected. Kept verbatim to pin
    the subsets."""
    rest = rank - 1
    out = []
    for j in range(k, 0, -1):
        c = j
        while math.comb(c, j) <= rest:
            c += 1
        out.append(c)
        rest -= math.comb(c - 1, j)
    return tuple(reversed(out))


def subset_in_colex(universe_size: int, k: int) -> list[tuple[int, ...]]:
    """All k-subsets of 1..universe_size in colexicographic order."""
    subsets = list(itertools.combinations(range(1, universe_size + 1), k))
    return sorted(subsets, key=lambda s: tuple(reversed(s)))


def old_cyclic_factorizations(r: Fraction, x: Fraction, cap: int = 8) -> list:
    """cyclic_factorizations as one iterative depth-first walk of the
    trade box, every subtree visited again for each prefix reaching it:
    the listing before it shared its (exponent, copies) states. Kept
    verbatim to pin the new listing's order."""
    from puiseux.cyclic import CyclicFactorization, _base, _checked
    from puiseux.errors import NotAtomic

    r, x, stray = _checked(r, x, cap)
    a, b = r.numerator, r.denominator
    if a == 1 and b >= 2:
        raise NotAtomic(f"powers of {r} generate a monoid without atoms")
    if x < 0 or stray > 1:
        return []
    if x == 0:
        return [CyclicFactorization(r, ())]

    if b == 1:
        # The monoid is a times the naturals and its one atom is a = r^1.
        cap = 1

    c, stuck = _base(a, b, x)
    last = len(c)
    # Trades only move copies up, so no factorization fits under a cap
    # that c does not.
    if stuck is not None or last > cap:
        return []
    out: list = []
    # (t, have, terms, js) of each open exponent: its copies, the terms
    # fixed before it and the trade counts left to try. Exponent 0 holds
    # nothing and trades nothing on: the walk starts there.
    stack = [(0, 0, (), iter((0,)))]
    while stack:
        t, have, terms, js = stack[-1]
        for j in js:
            # j trades leave m copies of exponent t, and exponent t + 1
            # gets its digit plus b copies per trade.
            m = have - a * j
            fixed = terms + ((t, m),) if m else terms
            nxt = (c[t] if t < last else 0) + b * j
            if t + 1 == cap or not nxt and t >= last:
                # Exponent t + 1 trades nothing on, and nothing is left past it.
                out.append(fixed + ((t + 1, nxt),) if nxt else fixed)
                continue
            stack.append((t + 1, nxt, fixed, iter(range(nxt // a, -1, -1))))
            break
        else:
            stack.pop()
    return [CyclicFactorization(r, terms) for terms in out]


def old_dense_atom_monoid(class_index: int, count: int, targets=None):
    """dense_atom_monoid as a loop over k that asks for the k-th target
    and the k-th class prime anew and recomputes p**e on every exponent
    step: the construction before it read its chain in one pass. Kept
    verbatim to pin the new build's records and errors."""
    from puiseux.arith import _exact
    from puiseux.errors import BadIndex, HypothesisViolated, NonPositive
    from puiseux.families import CalkinWilfTargets, class_prime
    from puiseux.monoid import FgMonoid
    from puiseux.witnesses import DenseAtomConstruction, DenseAtomEntry

    if _exact(class_index) < 1:
        raise BadIndex(f"partition classes start at 1, got {class_index}")
    if _exact(count) < 0:
        raise NonPositive(f"the atom count must be >= 0, got {count}")
    if targets is None:
        targets = CalkinWilfTargets()
    entries = []
    for k in range(1, count + 1):
        target = targets.value_at(k)
        p = class_prime(class_index, k)
        e = 1
        while p**e <= 2 * k:
            e += 1
        scale = p**e
        a, b = target.numerator, target.denominator
        m = (2 * a * scale + b) // (2 * b)
        if m % p == 0:
            m = m + 1 if m - 1 < 1 else m - 1
        atom = Fraction(m, scale)
        if not k * abs(a * scale - m * b) < b * scale:
            raise HypothesisViolated(
                f"atom {atom} strays from target {target} by 1/{k} or more"
            )
        entries.append(DenseAtomEntry(k, target, p, e, m, atom))
    return DenseAtomConstruction(
        class_index=class_index,
        entries=tuple(entries),
        monoid=FgMonoid(tuple(e.atom for e in entries)),
    )


class OldReport:
    """The classification report as built before one ordered pass over
    the implication rows: set() keeps the first verdict for a field,
    and close() runs the rows, in their old order, to a fixed point.
    Kept verbatim to pin the one pass's verdicts and the order of its
    justification lines."""

    IMPLIED = (
        ("dense", "no", "hereditarily_atomic", "yes", "not-dense-hereditarily-atomic"),
        ("hereditarily_atomic", "yes", "atomic", "yes", "hereditary-implies-atomic"),
        ("atomic", "no", "hereditarily_atomic", "no", "hereditary-implies-atomic"),
        ("atomic", "yes", "antimatter", "no", "atomic-excludes-antimatter"),
        ("antimatter", "yes", "atomic", "no", "antimatter-excludes-atoms"),
    )

    def __init__(self) -> None:
        from puiseux.families import ClassificationReport

        self.report = ClassificationReport
        # Every field of ClassificationReport but the last, justification.
        self.verdicts = {f: "unknown" for f in ClassificationReport.__match_args__[:-1]}
        self.lines: list[str] = []

    def set(self, field: str, verdict: str, rule: str) -> None:
        from puiseux.families import _ASSERTED

        if self.verdicts[field] != "unknown":
            return
        self.verdicts[field] = verdict
        tag = " [asserted]" if rule in _ASSERTED else ""
        self.lines.append(f"{field}={verdict}: {rule}{tag}")

    def close(self):
        # Definitional consequences, run to a fixed point. Only fills
        # fields still unknown; direct verdicts always win.
        changed = True
        while changed:
            changed = False
            v = self.verdicts
            for field, verdict, implied, implied_verdict, rule in self.IMPLIED:
                if v[field] == verdict and v[implied] == "unknown":
                    self.set(implied, implied_verdict, rule)
                    changed = True
        return self.report(justification=tuple(self.lines), **self.verdicts)


def old_classify(spec):
    """classify as a chain of isinstance tests, one OldReport.set call
    per verdict: the classification before it read fixed families' rows
    from one table. Kept verbatim to pin the table's verdicts and the
    order of its justification lines."""
    import math

    from puiseux.errors import ParseError
    from puiseux.families import (
        BfNotFf,
        Cyclic,
        ElementaryKPrimary,
        ElementaryPrimary,
        ExplicitList,
        GeneralizedCyclic,
        HalfPrime,
        PAdic,
        PartitionedKPrimary,
        PlusMinusPowers,
        PowerDenominator,
        SumKPrimary,
        TwoAdicOddPrime,
        _padic_decreasing_certified,
    )

    r = OldReport()

    if isinstance(spec, PowerDenominator):
        r.set("dense", "yes", "generator-infimum-zero")
        r.set("antimatter", "yes", "every-generator-decomposes")
        r.set("strongly_bounded", "yes", "numerators-bounded")
        r.set("finite_puiseux", "yes", "denominator-support-finite")

    elif isinstance(spec, HalfPrime):
        r.set("dense", "no", "generator-infimum-positive")
        r.set("strongly_bounded", "no", "atoms-have-unbounded-numerators")
        r.set("finite_puiseux", "no", "denominator-support-infinite")

    elif isinstance(spec, TwoAdicOddPrime):
        r.set("dense", "yes", "generator-infimum-zero")
        r.set("atomic", "yes", "all-generators-are-atoms")
        r.set("hereditarily_atomic", "no", "power-of-two-submonoid-not-atomic")
        r.set("strongly_bounded", "yes", "numerators-bounded")
        r.set("finite_puiseux", "no", "denominator-support-infinite")

    elif isinstance(spec, ElementaryPrimary) or (
        isinstance(spec, (ElementaryKPrimary, PartitionedKPrimary, SumKPrimary))
        and spec.k == 1
    ):
        r.set("dense", "yes", "generator-infimum-zero")
        r.set("hereditarily_atomic", "yes", "primary-denominators-hereditary")
        r.set("strongly_bounded", "yes", "numerators-bounded")
        r.set("finite_puiseux", "no", "denominator-support-infinite")

    elif isinstance(spec, ElementaryKPrimary):
        r.set("dense", "yes", "generator-infimum-zero")
        r.set("antimatter", "yes", "k-subset-generators-decompose")
        r.set("strongly_bounded", "yes", "numerators-bounded")
        r.set("finite_puiseux", "no", "denominator-support-infinite")

    elif isinstance(spec, PartitionedKPrimary):
        r.set("dense", "yes", "generator-infimum-zero")
        r.set("atomic", "yes", "all-generators-are-atoms")
        r.set("strongly_bounded", "yes", "numerators-bounded")
        r.set("finite_puiseux", "no", "denominator-support-infinite")

    elif isinstance(spec, SumKPrimary):
        r.set("dense", "yes", "generator-infimum-zero")
        r.set("atomic", "yes", "all-generators-are-atoms")
        r.set("strongly_bounded", "no", "atoms-have-unbounded-numerators")
        r.set("finite_puiseux", "no", "denominator-support-infinite")

    elif isinstance(spec, PAdic):
        r.set("finite_puiseux", "yes", "denominator-support-finite")
        nums = spec.numerators
        if not nums.tends_to_infinity():
            r.set("dense", "yes", "generator-infimum-zero")
            r.set("strongly_bounded", "yes", "numerators-bounded")
            if nums.coprime_to(spec.p):
                r.set("atomic", "no", "bounded-numerators-not-atomic")
        else:
            base = nums.prime_power_base()
            decreasing = _padic_decreasing_certified(spec)
            if decreasing:
                r.set("dense", "yes", "generator-infimum-zero")
            if base not in (None, 1) and base != spec.p and decreasing:
                r.set("atomic", "yes", "prime-power-numerators-atomic")
                r.set("strongly_bounded", "no", "atoms-have-unbounded-numerators")

    elif isinstance(spec, PlusMinusPowers):
        r.set("dense", "yes", "generator-infimum-zero")
        r.set("antimatter", "yes", "every-generator-decomposes")
        r.set("finite_puiseux", "yes", "denominator-support-finite")

    elif isinstance(spec, Cyclic):
        r.set("finite_puiseux", "yes", "denominator-support-finite")
        a, b = spec.r.numerator, spec.r.denominator
        if spec.r == 1:
            r.set("dense", "no", "generator-infimum-positive")
            r.set("atomic", "yes", "finitely-generated-atomic")
            r.set("strongly_bounded", "yes", "numerators-bounded")
        elif a == 1:
            r.set("dense", "yes", "generator-infimum-zero")
            r.set("antimatter", "yes", "every-generator-decomposes")
            r.set("strongly_bounded", "yes", "numerators-bounded")
        elif b == 1:
            # r^n = r^(n-1) * r, so the monoid is r times the naturals.
            r.set("dense", "no", "generator-infimum-positive")
            r.set("atomic", "yes", "finitely-generated-atomic")
            r.set("strongly_bounded", "yes", "numerators-bounded")
        else:
            if spec.r < 1:
                r.set("dense", "yes", "generator-infimum-zero")
            else:
                r.set("dense", "no", "generator-infimum-positive")
            r.set("atomic", "yes", "cyclic-ratio-atomic")
            r.set("hereditarily_atomic", "yes", "cyclic-hereditarily-atomic")
            r.set("strongly_bounded", "no", "atoms-have-unbounded-numerators")

    elif isinstance(spec, GeneralizedCyclic):
        r.set("finite_puiseux", "yes", "denominator-support-finite")
        if min(spec.ratios) < 1:
            r.set("dense", "yes", "generator-infimum-zero")
        else:
            r.set("dense", "no", "generator-infimum-positive")
        numerator_gcd = math.gcd(*(rr.numerator for rr in spec.ratios))
        if numerator_gcd != 1:
            r.set("hereditarily_atomic", "yes", "shared-numerator-prime-embedding")
        elif all(rr.numerator == 1 for rr in spec.ratios):
            r.set("strongly_bounded", "yes", "numerators-bounded")
            if all(rr == 1 for rr in spec.ratios):
                r.set("atomic", "yes", "finitely-generated-atomic")
            else:
                r.set("antimatter", "yes", "every-generator-decomposes")

    elif isinstance(spec, BfNotFf):
        # 2/3 = 1/3 + 1/3, so unlike the other listed families not every
        # generator is an atom; atomicity comes from the prime denominators.
        r.set("dense", "no", "generator-infimum-positive")
        r.set("hereditarily_atomic", "yes", "primary-denominators-hereditary")
        r.set("strongly_bounded", "no", "atoms-have-unbounded-numerators")
        r.set("finite_puiseux", "no", "denominator-support-infinite")

    elif isinstance(spec, ExplicitList):
        r.set("dense", "no", "generator-infimum-positive")
        r.set("atomic", "yes", "finitely-generated-atomic")
        r.set("strongly_bounded", "yes", "numerators-bounded")
        r.set("finite_puiseux", "yes", "denominator-support-finite")

    else:
        raise ParseError(f"not a family spec: {spec!r}")

    return r.close()


def old_kprimary_antimatter_witness(primes: tuple[int, ...], search_limit: int = 10**5):
    """kprimary_antimatter_witness with its two searches written as loops
    over m and n: the witness before it stepped both progressions with
    prime_in_progression. Kept verbatim to pin m, p', n and q' and the
    refusals."""
    from puiseux.arith import format_rational, is_prime
    from puiseux.errors import HypothesisViolated, NonPositive, NotFoundWithinLimit, NotPrime
    from puiseux.monoid import Factorization
    from puiseux.witnesses import AntimatterWitness

    ps = tuple(sorted(primes))
    if len(ps) < 2:
        raise NonPositive("at least two primes are needed")
    if len(set(ps)) != len(ps):
        raise NonPositive("the primes must be distinct")
    for p in ps:
        if not is_prime(p):
            raise NotPrime(f"{p} is not prime")
    p, q = ps[0], ps[1]
    rest = math.prod(ps[2:]) if len(ps) > 2 else 1
    biggest = ps[-1]

    m = None
    for cand in range(1, search_limit + 1):
        value = cand * q + p
        if value > biggest and is_prime(value):
            m = cand
            break
    if m is None:
        raise NotFoundWithinLimit(
            f"no prime of the form m*{q} + {p} above {biggest} with m <= {search_limit}"
        )
    p_new = m * q + p
    n = None
    for cand in range(1, search_limit + 1):
        value = cand * p_new + q
        if is_prime(value):
            n = cand
            break
    if n is None:
        raise NotFoundWithinLimit(
            f"no prime of the form n*{p_new} + {q} with n <= {search_limit}"
        )
    q_new = n * p_new + q

    if p_new * q_new != m * q * q_new + n * p * p_new + p * q:
        raise HypothesisViolated(
            f"{p_new}*{q_new} = {m}*{q}*{q_new} + {n}*{p}*{p_new} + {p}*{q} fails"
        )
    target = Fraction(1, p * q * rest)
    decomposition = Factorization(
        (
            (Fraction(1, p * p_new * rest), m),
            (Fraction(1, q * q_new * rest), n),
            (Fraction(1, p_new * q_new * rest), 1),
        )
    )
    if decomposition.evaluate() != target:
        raise HypothesisViolated(f"the decomposition does not sum to {format_rational(target)}")
    return AntimatterWitness(
        primes=ps,
        m=m,
        p_prime=p_new,
        n=n,
        q_prime=q_new,
        target=target,
        decomposition=decomposition,
    )

