"""Seeded op streams for the four benchmark workloads.

A workload is an endless stream of ops drawn from one seeded random
generator, with None yielded at the end of each cycle of its schedule.
An op is one call into the library: a kind, a no-argument callable
that makes the call (looking the library up at call time, so tracing
wrappers installed later are seen), and a check that judges the answer
with the independent code in oracle.py. Expected answers are computed
when the inputs are drawn and checks run between ops, never inside an
op's timed call.

Costs differ by orders of magnitude between inputs, so each stream
cycles through a fixed schedule of input classes and the seed only
draws the inputs within a class. A timed run stops only at the end of
a cycle. That keeps the op mix, and so the figures, the same from seed
to seed while the inputs change.
"""

from __future__ import annotations

import json
import math
import os
import random
import subprocess
import sys
from dataclasses import dataclass
from fractions import Fraction
from typing import Any, Callable, Iterator

import puiseux as P

import oracle

F = Fraction


@dataclass
class Op:
    kind: str
    call: Callable[[], Any]
    check: Callable[[Any], bool]


# ---------------------------------------------------------------------------
# ns-decide: numerical semigroup decisions

# (generator count, clustered, smallest generator range). Clustered
# generators sit a few apart, like (1001, 1003, 1007, 1013); spread ones
# lie anywhere below twice the smallest. Frobenius cost grows with the
# product of the two smallest generators, so each range is narrow and
# the seed moves a run's total cost little. Smallest generators stop
# near 1000 (Frobenius up to about 0.3 s): a cell near 1500 (0.5 s)
# leaves too few semigroups per timed run for op_p50_ms and ops_per_s
# to hold still from seed to seed.
NS_CELLS = (
    (3, True, (950, 1050)),
    (4, False, (560, 620)),
    (4, True, (500, 560)),
    (5, False, (460, 520)),
    (5, True, (280, 320)),
    (3, False, (620, 680)),
)
NS_QUERIES = 8  # of each query kind per semigroup


def _ns_generators(rng: random.Random, k: int, clustered: bool, lo: int, hi: int):
    while True:
        a = rng.randint(lo, hi)
        if clustered:
            gens = [a]
            while len(gens) < k:
                gens.append(gens[-1] + rng.randint(1, 6))
        else:
            gens = [a] + rng.sample(range(a + 1, 2 * a), k - 1)
        if math.gcd(*gens) == 1:
            return tuple(sorted(gens))


def _representation_ok(gens, x, expected_member):
    def check(rep):
        if rep is None:
            return not expected_member
        return (
            expected_member
            and len(rep) == len(gens)
            and all(c >= 0 for c in rep)
            and sum(c * g for c, g in zip(rep, gens)) == x
        )

    return check


def ns_decide(rng: random.Random) -> Iterator[Op]:
    for i in range(10**9):
        k, clustered, (lo, hi) = NS_CELLS[i % len(NS_CELLS)]
        gens = _ns_generators(rng, k, clustered, lo, hi)
        frob, apery = oracle.frobenius(gens)
        mingens = oracle.minimal_generators(gens)
        sg = P.NumericalSemigroup(gens)
        q = F(rng.randint(1, 9), rng.randint(2, 11))
        fg = P.FgMonoid(tuple(q * g for g in gens))
        yield Op("ns.minimal_generators", lambda sg=sg: sg.minimal_generators(), lambda a, w=mingens: a == w)
        yield Op("ns.frobenius", lambda sg=sg: sg.frobenius(), lambda a, w=frob: a == w)
        for _ in range(NS_QUERIES):
            for kind in ("contains", "any_representation", "fg_contains"):
                x = rng.randint(frob // 2, frob)
                member = oracle.is_member(apery, x)
                if kind == "contains":
                    yield Op("ns.contains", lambda x=x, sg=sg: sg.contains(x), lambda a, m=member: a is m)
                elif kind == "any_representation":
                    yield Op(
                        "ns.any_representation",
                        lambda x=x, sg=sg: sg.any_representation(x),
                        _representation_ok(gens, x, member),
                    )
                else:
                    y = q * x
                    yield Op("fg.contains", lambda y=y, fg=fg: fg.contains(y), lambda a, m=member: a is m)
        if (i + 1) % len(NS_CELLS) == 0:
            yield None


# ---------------------------------------------------------------------------
# fg-enumerate: atoms and every factorization

# (generator count, multiplicity range, atoms summed) of successive
# monoids: fewer generators get larger multiplicities, so factorization
# counts stay in the tens to hundreds instead of growing without bound.
FG_CELLS = ((2, (10, 30), 2), (3, (8, 16), 3), (4, (5, 11), 3), (5, (4, 8), 3))
FG_DENOMINATORS = (12, 18, 20, 24, 28, 30)
# Factorization counts grow without bound with x (ROADMAP item 2, out of
# scope here); draws above this count are redrawn.
FG_MAX_FACTORIZATIONS = 300
# One large cyclic enumeration every CYCLIC_EVERY monoids: few and
# long, so the tail (the 11th slowest op) falls inside this class and a
# short slowdown of the machine moves it little.
CYCLIC_EVERY = 50
CYCLIC_RATIOS = (F(2, 3), F(3, 2), F(3, 5), F(5, 3))
CYCLIC_MULTIPLICITIES = {F(2, 3): (7, 12), F(3, 2): (5, 9), F(3, 5): (14, 24), F(5, 3): (7, 12)}
CYCLIC_FACTORIZATIONS = (1800, 2600)
CYCLIC_CAP = 8


def _fg_monoid_inputs(rng: random.Random, k: int, mults: tuple[int, int], parts: int):
    """(generators, atoms, x, every factorization of x) with at most
    FG_MAX_FACTORIZATIONS factorizations; larger draws are redrawn."""
    while True:
        # Denominators divide one common D <= 30, so the generators
        # satisfy many relations and elements have many factorizations.
        D = rng.choice(FG_DENOMINATORS)
        divisors = [d for d in range(2, D + 1) if D % d == 0]
        gens: set[Fraction] = set()
        while len(gens) < k:
            d = rng.choice(divisors)
            gens.add(F(rng.randint((d + 1) // 2, 2 * d), d))
        gens_t = tuple(sorted(gens))
        atoms = oracle.rational_atoms(gens_t)
        chosen = rng.sample(atoms, min(len(atoms), parts))
        x = sum((rng.randint(*mults) * a for a in chosen), F(0))
        want = oracle.rational_factorizations(atoms, x, FG_MAX_FACTORIZATIONS)
        if want is not None:
            return gens_t, atoms, x, want


def _cyclic_inputs(rng: random.Random, r: Fraction):
    """x = sum of c * r^e over three exponents, with between
    CYCLIC_FACTORIZATIONS[0] and [1] factorizations, and the
    oracle.terms_digest of those factorizations (the set itself is never
    held, so it does not add to the memory the run measures)."""
    lo, hi = CYCLIC_MULTIPLICITIES[r]
    # Shrinking ratios draw exponents from the top window below the cap,
    # as acceptance criterion 4 does; small exponents there give
    # factorization counts in the millions.
    window = range(CYCLIC_CAP - 3, CYCLIC_CAP + 1) if r < 1 else range(1, 6)
    while True:
        x = sum((rng.randint(lo, hi) * r**e for e in rng.sample(window, 3)), F(0))
        want = oracle.cyclic_factorizations(r, x, CYCLIC_CAP, CYCLIC_FACTORIZATIONS[1])
        if want is not None and want[0] >= CYCLIC_FACTORIZATIONS[0]:
            return x, want


def fg_enumerate(rng: random.Random) -> Iterator[Op]:
    for i in range(10**9):
        gens, atoms, x, want = _fg_monoid_inputs(rng, *FG_CELLS[i % len(FG_CELLS)])
        m = P.FgMonoid(gens)
        lengths = tuple(sorted({sum(t[2] for t in f) for f in want}))
        support = tuple(sorted({F(t[0], t[1]) for f in want for t in f}))
        yield Op("fg.atoms", lambda m=m: m.atoms(), lambda a, t=atoms: tuple(a) == t)
        yield Op(
            "fg.factorizations",
            lambda m=m, x=x: m.factorizations(x),
            lambda a, want=want: len(a) == len(want)
            and {tuple((t.numerator, t.denominator, c) for t, c in f.terms) for f in a} == want,
        )
        yield Op("fg.lengths", lambda m=m, x=x: m.lengths(x), lambda a, w=lengths: tuple(a) == w)
        yield Op("fg.atom_support", lambda m=m, x=x: m.atom_support(x), lambda a, w=support: tuple(a) == w)

        if i % CYCLIC_EVERY:
            continue
        if i:
            yield None
        r = CYCLIC_RATIOS[i // CYCLIC_EVERY % len(CYCLIC_RATIOS)]
        cx, want = _cyclic_inputs(rng, r)
        yield Op(
            "cyclic.factorizations",
            lambda r=r, cx=cx: P.cyclic_factorizations(r, cx, CYCLIC_CAP),
            # Equal digests of equal counts mean the same set of answers,
            # so a repeated answer fails too.
            lambda a, want=want: oracle.terms_digest(f.terms for f in a) == want,
        )
        yield Op(
            "cyclic.contains",
            lambda r=r, cx=cx: P.cyclic_contains(r, cx, CYCLIC_CAP),
            lambda a, r=r, cx=cx: a.status == "member"
            and sum((c * r**e for e, c in a.witness.terms), F(0)) == cx,
        )


# ---------------------------------------------------------------------------
# families-atoms: generator streams, dense atom chains and witnesses

CONGRUENCE_CLASSES = ((1, 4), (3, 4), (1, 3), (2, 3), (1, 6), (5, 6), (1, 8), (7, 8))
_PRIMES = oracle.Primes()


def _colex_pair(n: int) -> tuple[int, int]:
    j = 2
    while j * (j - 1) // 2 < n:
        j += 1
    return n - (j - 1) * (j - 2) // 2, j


def _dense_specs():
    fam = P.families
    p = _PRIMES.nth
    return (
        (fam.PowerDenominator(2), lambda n: F(1, 2**n)),
        (fam.PowerDenominator(3), lambda n: F(1, 3**n)),
        (fam.ElementaryPrimary(), lambda n: F(1, p(n))),
        (fam.TwoAdicOddPrime(), lambda n: F(1, 2**n * p(n + 1))),
        (fam.ElementaryKPrimary(2), lambda n: F(1, p(_colex_pair(n)[0]) * p(_colex_pair(n)[1]))),
        (fam.Cyclic(F(2, 3)), lambda n: F(2, 3) ** n),
        (
            fam.PlusMinusPowers(3),
            lambda n: F(
                3 ** (2 ** ((n + 1) // 2)) + (-1 if n % 2 else 1),
                3 ** (2 ** ((n + 1) // 2 + 1)),
            ),
        ),
    )


def _classify_specs():
    fam = P.families
    # (spec, field, verdict) pairs that are theorems of the paper.
    return (
        (fam.PowerDenominator(5), "antimatter", "yes"),
        (fam.ElementaryPrimary(fam.CongruencePrimes(1, 4)), "atomic", "yes"),
        (fam.TwoAdicOddPrime(), "hereditarily_atomic", "no"),
        (fam.ElementaryKPrimary(2), "antimatter", "yes"),
        (fam.Cyclic(F(3, 5)), "dense", "yes"),
        (fam.Cyclic(F(5, 3)), "dense", "no"),
        (fam.HalfPrime(), "dense", "no"),
        (fam.PlusMinusPowers(5), "antimatter", "yes"),
    )


def dense_chain(class_index: int, count: int):
    """The atoms dense_atom_monoid must build, recomputed from scratch."""
    out = []
    for k in range(1, count + 1):
        target = oracle.calkin_wilf(k)
        p = _PRIMES.nth(2 ** (class_index - 1) * (2 * k - 1))
        e = 1
        while p**e <= 2 * k:
            e += 1
        m = math.floor(target * p**e + F(1, 2))
        if m % p == 0:
            m = m + 1 if m - 1 < 1 else m - 1
        out.append((target, p, e, F(m, p**e)))
    return out


def _dense_ok(want):
    def check(made):
        got = [(e.target, e.prime, e.exponent, e.atom) for e in made.entries]
        return got == want and tuple(made.monoid.generators) == tuple(sorted(w[3] for w in want))

    return check


def families_atoms(rng: random.Random) -> Iterator[Op]:
    fam = P.families
    dense_specs = _dense_specs()
    classify_specs = _classify_specs()
    for i in range(10**9):
        # One criterion-3 style chain: build, then atoms on every prefix.
        if i and i % 4 == 0:
            yield None
        j = 1 + i % 4
        n = rng.randint(46, 54)
        want = dense_chain(j, n)
        yield Op("witnesses.dense_atom_monoid", lambda j=j, n=n: P.dense_atom_monoid(j, n), _dense_ok(want))
        atoms = [w[3] for w in want]
        for size in range(1, n + 1):
            prefix = tuple(atoms[:size])
            yield Op(
                "fg.atoms_dense_prefix",
                lambda prefix=prefix: P.FgMonoid(prefix).atoms(),
                lambda a, prefix=prefix: set(a) == set(prefix),
            )

        # A long build: Calkin-Wilf targets at indices in the hundreds.
        # The slowest op of the unit, so the tail falls among these.
        jb, nb = 1 + (i + 2) % 4, rng.randint(300, 310)
        yield Op(
            "witnesses.dense_atom_monoid_long",
            lambda jb=jb, nb=nb: P.dense_atom_monoid(jb, nb),
            _dense_ok(dense_chain(jb, nb)),
        )

        # Truncations of 1/p over primes in one congruence class.
        res, mod = CONGRUENCE_CLASSES[i % len(CONGRUENCE_CLASSES)]
        size = rng.randint(110, 120)
        spec = fam.ElementaryPrimary(fam.CongruencePrimes(res, mod))
        gens = tuple(F(1, p) for p in _PRIMES.in_class(res, mod, size))
        yield Op(
            "families.truncate_congruence",
            lambda spec=spec, size=size: P.truncate(spec, size),
            lambda a, gens=gens: a.generators == tuple(sorted(gens)),
        )
        yield Op(
            "fg.atoms_congruence",
            lambda gens=gens: P.FgMonoid(gens).atoms(),
            lambda a, gens=gens: set(a) == set(gens),
        )

        for spec, field, verdict in classify_specs:
            yield Op(
                "families.classify",
                lambda spec=spec: P.classify(spec),
                lambda a, field=field, verdict=verdict: getattr(a, field) == verdict,
            )
        for spec, gen in dense_specs:
            target = oracle.calkin_wilf(rng.randint(100, 999))
            eps = F(1, rng.randint(50, 400))
            yield Op(
                "witnesses.approximate",
                lambda spec=spec, target=target, eps=eps: P.approximate(spec, target, eps),
                lambda a, gen=gen, target=target, eps=eps: 0 < target - a.value < eps
                and a.value == a.multiplier * a.generator
                and a.generator == gen(a.generator_index),
            )


# ---------------------------------------------------------------------------
# verify-cli: one CLI process per op


def _short_commands(rng: random.Random):
    """README-style commands with a check of their plain or JSON output."""
    a = rng.randint(3, 40)
    b = rng.randint(a + 1, 90)
    while math.gcd(a, b) != 1:
        b += 1
    k = rng.randint(1, 3)
    ga, gb = 2**k, 3**k
    d = 77**k
    x = F(1, 7**k)
    fa, fb = rng.randint(1, 6), rng.randint(1, 6)
    fgens = (F(1, 2), F(1, 3))
    fx = fa * F(1, 2) + fb * F(1, 3)
    r = rng.choice((F(2, 3), F(3, 2), F(2, 5), F(5, 2)))
    e = rng.randint(1, 3)
    cx = rng.randint(1, 3) * r**e
    p1, p2 = sorted(rng.sample((2, 3, 5, 7, 11, 13), 2))
    q = rng.choice((2, 3, 5))
    target = F(rng.randint(1, 40), rng.randint(1, 40))
    eps = F(1, rng.randint(3, 150))
    m = rng.randint(1, 3)

    def out_json(res):
        return json.loads(res[1]) if res[0] == 0 else None

    def fg_member_ok(res):
        lines = res[1].splitlines()
        if res[0] != 0 or lines[0] != "true":
            return False
        terms = lines[1].removeprefix("witness: ").split(" + ")
        total = sum((int(c) * F(g) for c, g in (t.split("*") for t in terms)), F(0))
        return total == x

    def factorize_ok(res):
        got = {
            tuple((F(t["atom"]).numerator, F(t["atom"]).denominator, t["mult"]) for t in f["terms"])
            for f in out_json(res)
        }
        return got == oracle.rational_factorizations(fgens, fx, len(got))

    def approx_ok(res):
        got = out_json(res)
        value, g = F(got["value"]), F(got["generator"])
        return (
            0 < target - value < eps
            and value == got["multiplier"] * g
            and g == F(1, q ** got["generator_index"])
        )

    def kprimary_ok(res):
        got = out_json(res)
        pp, qq, mm, nn = got["p_prime"], got["q_prime"], got["m"], got["n"]
        return pp * qq == mm * p2 * qq + nn * p1 * pp + p1 * p2 and got["primes"] == [p1, p2]

    def embed_ok(res):
        got = out_json(res)
        return F(got["value"]) == F(2, 5) ** m == got["coefficient"] * F(got["base"]) ** m

    def cyclic_ok(res):
        got = out_json(res)
        return got["status"] == "member" and sum(
            (t["mult"] * r ** t["exponent"] for t in got["witness"]["terms"]), F(0)
        ) == cx

    def fmt(v):
        return f"{v.numerator}/{v.denominator}"

    return [
        (
            ["ns", "frobenius", "--gens", f"{a},{b}"],
            lambda res: res[0] == 0 and res[1] == f"{a * b - a - b}\n",
        ),
        (["fg", "member", "--gens", f"{ga}/{d},{gb}/{d}", "--x", fmt(x)], fg_member_ok),
        (["fg", "factorize", "--gens", "1/2,1/3", "--x", fmt(fx), "--json"], factorize_ok),
        (
            ["family", "classify", "--spec", '{"family": "cyclic", "r": "%s"}' % fmt(r), "--json"],
            lambda res: out_json(res)["dense"] == ("yes" if r < 1 else "no"),
        ),
        (["cyclic", "member", "--r", fmt(r), "--x", fmt(cx), "--json"], cyclic_ok),
        (
            ["family", "approx", "--spec", '{"family": "power-denominator", "q": %d}' % q,
             "--target", fmt(target), "--eps", fmt(eps), "--json"],
            approx_ok,
        ),
        (["witness", "kprimary", "--primes", f"{p1},{p2}", "--json"], kprimary_ok),
        (["cyclic", "embed", "--ratios", "2/5,4/7", "--i", "1", "--m", str(m), "--json"], embed_ok),
        (
            ["verify", "run", "--claims", "C5,C9"],
            lambda res: res[0] == 0 and res[1] == "C5 confirmed\nC9 confirmed\n",
        ),
    ]


def _verify_ok(res):
    if res[0] != 0:
        return False
    status = {o["claim_id"]: o["status"] for o in json.loads(res[1])}
    return len(status) == 15 and all(
        s == ("data-only" if cid == "C11" else "confirmed") for cid, s in status.items()
    )


# Slot pattern of one cycle: 16 short commands, 3 default-size verifier
# runs and one scaled one. Short commands are four fifths of the ops,
# so the median falls in their middle; a timed run completes three or
# four cycles, so the tail (the 11th slowest op) is a default-size
# verifier run.
CLI_CYCLE = (("short",) * 4 + ("verify",)) * 3 + ("short",) * 4 + ("verify-scaled",)
CLI_SCALED_TRUNCATION = 100


def cli_runner(src_dir: str, in_process: bool):
    """A function running one argv: a fresh `python -m puiseux.cli`
    process, or the click entry point in this process for tracing."""
    if in_process:
        import puiseux.cli  # noqa: F401  (binds P.cli)
        from click.testing import CliRunner

        runner = CliRunner()

        def run(argv):
            res = runner.invoke(P.cli.main, argv)
            return res.exit_code, res.output

        return run

    env = dict(os.environ, PYTHONPATH=src_dir)

    def run(argv):
        proc = subprocess.run(
            [sys.executable, "-m", "puiseux.cli", *argv],
            env=env,
            capture_output=True,
            text=True,
            timeout=120,
        )
        return proc.returncode, proc.stdout

    return run


def verify_cli(rng: random.Random, run) -> Iterator[Op]:
    shorts: list = []
    for i in range(10**9):
        if i and i % len(CLI_CYCLE) == 0:
            yield None
        slot = CLI_CYCLE[i % len(CLI_CYCLE)]
        if slot == "short":
            if not shorts:
                shorts = _short_commands(rng)
                rng.shuffle(shorts)
            argv, check = shorts.pop()
            yield Op("cli." + argv[0] + "." + argv[1], lambda argv=argv: run(argv), check)
        else:
            truncation = 50 if slot == "verify" else CLI_SCALED_TRUNCATION
            seed = str(rng.randint(1, 10**6))
            argv = ["verify", "run", "--json", "--truncation", str(truncation), "--seed", seed]
            yield Op("cli.verify.run." + str(truncation), lambda argv=argv: run(argv), _verify_ok)


WORKLOADS = ("ns-decide", "fg-enumerate", "families-atoms", "verify-cli")


def stream(name: str, rng: random.Random, cli_run=None) -> Iterator[Op]:
    """The op stream of a workload; cli_run runs one CLI argv."""
    if name == "ns-decide":
        return ns_decide(rng)
    if name == "fg-enumerate":
        return fg_enumerate(rng)
    if name == "families-atoms":
        return families_atoms(rng)
    if name == "verify-cli":
        return verify_cli(rng, cli_run)
    raise ValueError(f"unknown workload {name!r}")
