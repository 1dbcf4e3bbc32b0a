"""Command line front end.

Plain mode prints compact human-readable text; ``--json`` switches the
command to exactly one JSON document on standard output, with keys
sorted so identical invocations stay byte-identical. Exit codes: 0 on
success, 1 for domain errors (reported on standard error), 2 for usage
errors. Rationals on the command line are always ``n/d`` or integer
tokens, and list-valued flags take one comma-separated token.
"""

from __future__ import annotations

import functools
import json
import sys
from fractions import Fraction
from pathlib import Path

import click

from .arith import format_rational, parse_rational
from .cyclic import (
    CyclicFactorization,
    cyclic_contains,
    cyclic_factorizations,
    cyclic_trade,
    generalized_cyclic_embed,
)
from .errors import ParseError, PuiseuxError
from .families import (
    classify,
    family_from_mapping,
    generator_at,
    json_int,
    targets_from_mapping,
    truncate,
)
from .monoid import FgMonoid, isomorphism_witness
from .semigroup import NumericalSemigroup
from .verifier import ClaimParameters, run_claims
from .witnesses import (
    approximate,
    dense_atom_monoid,
    disjoint_prime_noniso,
    kprimary_antimatter_witness,
    padic_candidate_atoms,
    sum_kprimary_atom_check,
)


class RationalType(click.ParamType):
    name = "rational"

    def __init__(self, allow_zero: bool = False):
        self.allow_zero = allow_zero

    def convert(self, value, param, ctx):
        if isinstance(value, Fraction):
            return value
        try:
            return parse_rational(value, allow_zero=self.allow_zero)
        except PuiseuxError as bad:
            self.fail(str(bad), param, ctx)


class RationalListType(click.ParamType):
    name = "rationals"

    def convert(self, value, param, ctx):
        if isinstance(value, tuple):
            return value
        try:
            parts = [p for p in value.split(",") if p != ""]
            if not parts:
                raise ParseError("expected a comma-separated list of rationals")
            return tuple(parse_rational(p) for p in parts)
        except PuiseuxError as bad:
            self.fail(str(bad), param, ctx)


class IntListType(click.ParamType):
    name = "integers"

    def convert(self, value, param, ctx):
        if isinstance(value, tuple):
            return value
        parts = [p for p in value.split(",") if p != ""]
        if not parts:
            self.fail("expected a comma-separated list of integers", param, ctx)
        try:
            return tuple(int(p) for p in parts)
        except ValueError:
            self.fail(f"not a list of integers: {value!r}", param, ctx)


RATIONAL = RationalType()
RATIONAL_OR_ZERO = RationalType(allow_zero=True)
RATIONALS = RationalListType()
INTS = IntListType()


def _load_mapping(token: str) -> dict:
    """A ``--spec`` or ``--z`` value: the JSON in the file it names, if
    there is one, else the token itself read as JSON."""
    try:
        text, is_file = Path(token).read_text(), True
    except (OSError, ValueError):
        text, is_file = token, False
    try:
        data = json.loads(text)
    except json.JSONDecodeError as bad:
        if not (is_file or token.lstrip().startswith("{")):
            raise ParseError(f"spec file not found: {token}") from None
        raise ParseError(f"spec is not valid JSON: {bad}") from bad
    if not isinstance(data, dict):
        raise ParseError("spec must be a JSON object")
    return data


def _load_family(token: str):
    return family_from_mapping(_load_mapping(token))


def command(group: click.Group, name: str):
    """Register the decorated function as the subcommand `group name`.

    The function takes the command's options and returns (payload,
    lines). The command gets the one --json flag: with it, the payload
    is printed as one JSON document with sorted keys; without it, the
    lines are printed. A PuiseuxError becomes `error: ...` on stderr and
    exit status 1; a click.UsageError still exits 2.
    """

    def register(fn):
        def run(as_json, **options):
            try:
                payload, lines = fn(**options)
            except PuiseuxError as bad:
                click.echo(f"error: {bad}", err=True)
                sys.exit(1)
            if as_json:
                click.echo(json.dumps(payload, sort_keys=True))
            else:
                for line in lines:
                    click.echo(line)

        # update_wrapper hands the click.option parameters attached to fn
        # over to run, so click builds the command from them.
        cmd = group.command(name)(functools.update_wrapper(run, fn))
        cmd.params.append(click.Option(["--json", "as_json"], is_flag=True))
        return fn

    return register


def _format_terms(terms, label) -> str:
    if not terms:
        return "0"
    return " + ".join(f"{mult}*{label(a)}" for a, mult in terms)


def _format_factorization(f) -> str:
    return _format_terms(f.terms, format_rational)


def _format_cyclic(f: CyclicFactorization) -> str:
    return _format_terms(f.terms, lambda e: f"r^{e}")


def _membership(member: bool, witness, label):
    """The `ns member` / `fg member` result: a verdict and the generator
    combination reaching x, when there is one to show."""
    shown = None
    if witness is not None:
        shown = [{"generator": label(g), "mult": c} for g, c in witness]
    lines = ["true" if member else "false"]
    if witness:
        lines.append("witness: " + _format_terms(witness, label))
    return {"member": member, "witness": shown}, lines


def _member_witness(monoid: FgMonoid, x: Fraction):
    """A generator combination reaching x, or None."""
    if x == 0:
        return []
    scale, sg = monoid.to_scaled_integer()
    t = x / scale
    if t.denominator != 1:
        return None
    rep = sg.any_representation(t.numerator)
    if rep is None:
        return None
    return [
        (g, c)
        for g, c in zip(monoid.generators, rep)
        if c > 0
    ]


@click.group()
def main():
    """Exact arithmetic for numerical semigroups and rational-generated
    monoids."""


# ---------------------------------------------------------------------------
# ns


@main.group()
def ns():
    """Numerical semigroups given by integer generators."""


@command(ns, "mingens")
@click.option("--gens", type=INTS, required=True)
def ns_mingens(gens):
    minimal = list(NumericalSemigroup(gens).minimal_generators())
    return minimal, [" ".join(str(g) for g in minimal)]


@command(ns, "frobenius")
@click.option("--gens", type=INTS, required=True)
def ns_frobenius(gens):
    value = NumericalSemigroup(gens).frobenius()
    return value, [str(value)]


@command(ns, "member")
@click.option("--gens", type=INTS, required=True)
@click.option("--x", type=int, required=True)
def ns_member(gens, x):
    sg = NumericalSemigroup(gens)
    rep = sg.any_representation(x) if x > 0 else None
    witness = None
    if rep is not None:
        witness = [(g, c) for g, c in zip(sg.generators, rep) if c > 0]
    return _membership(x == 0 or witness is not None, witness, int)


@command(ns, "factorize")
@click.option("--gens", type=INTS, required=True)
@click.option("--x", type=int, required=True)
def ns_factorize(gens, x):
    sg = NumericalSemigroup(gens)
    reps = sg.representations(x) if x >= 0 else []
    lines = [
        _format_terms([(g, c) for g, c in zip(sg.generators, rep) if c > 0], str)
        for rep in reps
    ]
    return [list(rep) for rep in reps], lines or ["none"]


# ---------------------------------------------------------------------------
# fg


@main.group()
def fg():
    """Finitely generated monoids of nonnegative rationals."""


@command(fg, "atoms")
@click.option("--gens", type=RATIONALS, required=True)
def fg_atoms(gens):
    atoms = [format_rational(a) for a in FgMonoid(gens).atoms()]
    return atoms, atoms


@command(fg, "member")
@click.option("--gens", type=RATIONALS, required=True)
@click.option("--x", type=RATIONAL_OR_ZERO, required=True)
def fg_member(gens, x):
    witness = _member_witness(FgMonoid(gens), x)
    return _membership(witness is not None, witness, format_rational)


@command(fg, "factorize")
@click.option("--gens", type=RATIONALS, required=True)
@click.option("--x", type=RATIONAL_OR_ZERO, required=True)
def fg_factorize(gens, x):
    found = FgMonoid(gens).factorizations(x)
    lines = [_format_factorization(f) for f in found]
    return [f.as_mapping() for f in found], lines or ["none"]


@command(fg, "lengths")
@click.option("--gens", type=RATIONALS, required=True)
@click.option("--x", type=RATIONAL_OR_ZERO, required=True)
def fg_lengths(gens, x):
    lengths = list(FgMonoid(gens).lengths(x))
    return lengths, [" ".join(str(n) for n in lengths) if lengths else "none"]


@command(fg, "support")
@click.option("--gens", type=RATIONALS, required=True)
@click.option("--x", type=RATIONAL_OR_ZERO, required=True)
def fg_support(gens, x):
    support = [format_rational(a) for a in FgMonoid(gens).atom_support(x)]
    return support, support or ["none"]


@command(fg, "iso")
@click.option("--gens", type=RATIONALS, required=True, multiple=True)
def fg_iso(gens):
    if len(gens) != 2:
        raise click.UsageError("fg iso needs --gens twice, one list per monoid")
    witness = isomorphism_witness(FgMonoid(gens[0]), FgMonoid(gens[1]))
    shown = format_rational(witness) if witness else None
    return {"witness": shown}, [shown or "none"]


# ---------------------------------------------------------------------------
# family


@main.group()
def family():
    """Cataloged generator families described by JSON specs."""


@command(family, "gen")
@click.option("--spec", required=True)
@click.option("--n", type=click.IntRange(min=1), required=True)
def family_gen(spec, n):
    value = format_rational(generator_at(_load_family(spec), n))
    return value, [value]


@command(family, "truncate")
@click.option("--spec", required=True)
@click.option("--n", type=click.IntRange(min=0), required=True)
def family_truncate(spec, n):
    gens = [format_rational(g) for g in truncate(_load_family(spec), n).generators]
    return gens, gens


@command(family, "classify")
@click.option("--spec", required=True)
def family_classify(spec):
    report = classify(_load_family(spec))
    payload = report.as_mapping()
    lines = [f"{k}: {v}" for k, v in payload.items() if k != "justification"]
    lines += [f"  {line}" for line in report.justification]
    return payload, lines


@command(family, "approx")
@click.option("--spec", required=True)
@click.option("--target", type=RATIONAL, required=True)
@click.option("--eps", type=RATIONAL, required=True)
@click.option("--limit", type=click.IntRange(min=1), default=None)
def family_approx(spec, target, eps, limit):
    kwargs = {} if limit is None else {"scan_limit": limit}
    got = approximate(_load_family(spec), target, eps, **kwargs)
    return got.as_mapping(), [
        f"{format_rational(got.value)} = {got.multiplier}"
        f"*{format_rational(got.generator)} (generator {got.generator_index})"
    ]


@command(family, "dense-atoms")
@click.option("--class-index", type=click.IntRange(min=1), required=True)
@click.option("--count", type=click.IntRange(min=1), required=True)
@click.option("--spec", default=None, help="optional JSON target sequence")
def family_dense_atoms(class_index, count, spec):
    targets = None
    if spec is not None:
        targets = targets_from_mapping(_load_mapping(spec))
    made = dense_atom_monoid(class_index, count, targets)
    return made.as_mapping(), [
        f"{e.k}: target {format_rational(e.target)} atom "
        f"{format_rational(e.atom)} = {e.numerator}/{e.prime}^{e.exponent}"
        for e in made.entries
    ]


@command(family, "noniso")
@click.option("--spec", required=True, multiple=True)
def family_noniso(spec):
    if len(spec) != 2:
        raise click.UsageError("family noniso needs --spec twice")
    cert = disjoint_prime_noniso(_load_family(spec[0]), _load_family(spec[1]))
    if cert is None:
        return {"certificate": None}, ["no certificate"]
    return {"certificate": cert.as_mapping()}, [f"not isomorphic: {cert.reason}"]


# ---------------------------------------------------------------------------
# cyclic


@main.group()
def cyclic():
    """Monoids generated by the positive powers of one rational."""


@command(cyclic, "member")
@click.option("--r", type=RATIONAL, required=True)
@click.option("--x", type=RATIONAL_OR_ZERO, required=True)
@click.option("--cap", type=click.IntRange(min=1), default=8, show_default=True)
def cyclic_member(r, x, cap):
    got = cyclic_contains(r, x, cap)
    lines = [got.status]
    if got.witness is not None:
        lines.append("witness: " + _format_cyclic(got.witness))
    if got.certificate is not None:
        lines.append(f"certificate: {got.certificate}")
    return got.as_mapping(), lines


@command(cyclic, "factorize")
@click.option("--r", type=RATIONAL, required=True)
@click.option("--x", type=RATIONAL_OR_ZERO, required=True)
@click.option("--cap", type=click.IntRange(min=1), default=8, show_default=True)
def cyclic_factorize(r, x, cap):
    found = cyclic_factorizations(r, x, cap)
    lines = [_format_cyclic(f) for f in found]
    return [f.as_mapping() for f in found], lines or ["none"]


@command(cyclic, "trade")
@click.option("--r", type=RATIONAL, required=True)
@click.option("--z", required=True, help="factorization as JSON (file or inline)")
@click.option("--t", type=click.IntRange(min=1), required=True)
@click.option(
    "--direction", type=click.Choice(["up", "down"]), required=True
)
def cyclic_trade_cmd(r, z, t, direction):
    data = _load_mapping(z)
    try:
        terms = tuple(
            (json_int(term["exponent"]), json_int(term["mult"]))
            for term in data["terms"]
        )
    except (KeyError, TypeError) as bad:
        raise ParseError(
            'factorization JSON needs "terms": [{"exponent": e, "mult": m}, ...]'
        ) from bad
    moved = cyclic_trade(r, CyclicFactorization(r, terms), t, direction)
    return moved.as_mapping(), [_format_cyclic(moved)]


@command(cyclic, "embed")
@click.option("--ratios", type=RATIONALS, required=True)
@click.option("--i", type=click.IntRange(min=1), required=True)
@click.option("--m", type=click.IntRange(min=1), required=True)
def cyclic_embed(ratios, i, m):
    w = generalized_cyclic_embed(ratios, i, m)
    return w.as_mapping(), [
        f"{format_rational(w.value)} = {w.coefficient}"
        f"*({format_rational(w.base)})^{w.power}"
    ]


# ---------------------------------------------------------------------------
# witness


@main.group()
def witness():
    """Constructive witnesses for structural statements."""


@command(witness, "kprimary")
@click.option("--primes", type=INTS, required=True)
@click.option("--limit", type=click.IntRange(min=1), default=None)
def witness_kprimary(primes, limit):
    kwargs = {} if limit is None else {"search_limit": limit}
    w = kprimary_antimatter_witness(primes, **kwargs)
    payload = w.as_mapping()
    return payload, [
        payload["identity"],
        "decomposition: " + _format_factorization(w.decomposition),
    ]


@command(witness, "padic-atoms")
@click.option("--spec", required=True)
@click.option("--prefix", type=click.IntRange(min=1), required=True)
def witness_padic_atoms(spec, prefix):
    report = padic_candidate_atoms(_load_family(spec), prefix)
    lines = ["kept: " + " ".join(str(i) for i in report.kept)]
    lines += [
        f"excluded {exc.index}: generator({exc.index}) = "
        f"{exc.coefficient}*generator({exc.kept_index})"
        for exc in report.exclusions
    ]
    return report.as_mapping(), lines


@command(witness, "sumk-atom")
@click.option("--k", type=click.IntRange(min=1), required=True)
@click.option("--indices", type=INTS, required=True)
@click.option("--max-index", type=click.IntRange(min=1), required=True)
def witness_sumk_atom(k, indices, max_index):
    still_atom = sum_kprimary_atom_check(k, indices, max_index)
    return still_atom, ["true" if still_atom else "false"]


# ---------------------------------------------------------------------------
# verify


@main.group()
def verify():
    """Replay the registered claims with independent checks."""


@command(verify, "run")
@click.option("--claims", default="all", show_default=True)
@click.option("--truncation", type=click.IntRange(min=2), default=50, show_default=True)
@click.option("--cap", type=click.IntRange(min=1), default=8, show_default=True)
@click.option("--limit", type=click.IntRange(min=1), default=100_000, show_default=True)
@click.option("--seed", type=int, default=7, show_default=True)
@click.option("--report", "report_path", type=click.Path(), default=None)
def verify_run(claims, truncation, cap, limit, seed, report_path):
    ids = "all" if claims == "all" else tuple(p for p in claims.split(",") if p)
    params = ClaimParameters(
        truncation=truncation,
        exponent_cap=cap,
        prime_search_limit=limit,
        seed=seed,
    )
    outcomes = run_claims(ids, params)
    payload = [o.as_mapping() for o in outcomes]
    lines = [f"{o.claim_id} {o.status}" for o in outcomes]
    if report_path is not None:
        Path(report_path).write_text(json.dumps(payload, sort_keys=True) + "\n")
        lines.append(f"report written to {report_path}")
    return payload, lines


if __name__ == "__main__":
    main()
