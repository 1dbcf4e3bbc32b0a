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
    """A ``--spec`` value is a JSON file path, or inline JSON starting
    with a brace."""
    text = token
    if not token.lstrip().startswith("{"):
        path = Path(token)
        if not path.is_file():
            raise ParseError(f"spec file not found: {token}")
        text = path.read_text()
    try:
        data = json.loads(text)
    except json.JSONDecodeError as bad:
        raise ParseError(f"spec is not valid JSON: {bad}") from bad
    if not isinstance(data, dict):
        raise ParseError("spec must be a JSON object")
    return data


def _load_family(token: str):
    return family_from_mapping(_load_mapping(token))


def domain_errors(fn):
    @functools.wraps(fn)
    def wrapped(*args, **kwargs):
        try:
            return fn(*args, **kwargs)
        except PuiseuxError as bad:
            click.echo(f"error: {bad}", err=True)
            sys.exit(1)

    return wrapped


def _emit(value) -> None:
    click.echo(json.dumps(value, sort_keys=True))


def _format_terms(terms, label) -> str:
    if not terms:
        return "0"
    return " + ".join(f"{mult}*{label(a)}" for a, mult in terms)


def _format_factorization(f) -> str:
    return _format_terms(f.terms, format_rational)


def _format_cyclic(f: CyclicFactorization) -> str:
    return _format_terms(f.terms, lambda e: f"r^{e}")


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


@ns.command("mingens")
@click.option("--gens", type=INTS, required=True)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def ns_mingens(gens, as_json):
    minimal = NumericalSemigroup(gens).minimal_generators()
    if as_json:
        _emit(list(minimal))
    else:
        click.echo(" ".join(str(g) for g in minimal))


@ns.command("frobenius")
@click.option("--gens", type=INTS, required=True)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def ns_frobenius(gens, as_json):
    value = NumericalSemigroup(gens).frobenius()
    _emit(value) if as_json else click.echo(str(value))


@ns.command("member")
@click.option("--gens", type=INTS, required=True)
@click.option("--x", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def ns_member(gens, x, as_json):
    sg = NumericalSemigroup(gens)
    rep = sg.any_representation(x) if x >= 0 else None
    member = x == 0 or rep is not None
    if as_json:
        witness = None
        if member and x != 0:
            witness = [
                {"generator": g, "mult": c}
                for g, c in zip(sg.generators, rep)
                if c > 0
            ]
        _emit({"member": member, "witness": witness if member else None})
        return
    if not member:
        click.echo("false")
        return
    click.echo("true")
    if x != 0:
        shown = [(g, c) for g, c in zip(sg.generators, rep) if c > 0]
        click.echo("witness: " + _format_terms(shown, str))


@ns.command("factorize")
@click.option("--gens", type=INTS, required=True)
@click.option("--x", type=int, required=True)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def ns_factorize(gens, x, as_json):
    sg = NumericalSemigroup(gens)
    reps = sg.representations(x) if x >= 0 else []
    if as_json:
        _emit([list(rep) for rep in reps])
        return
    for rep in reps:
        shown = [(g, c) for g, c in zip(sg.generators, rep) if c > 0]
        click.echo(_format_terms(shown, str))
    if not reps:
        click.echo("none")


# ---------------------------------------------------------------------------
# fg


@main.group()
def fg():
    """Finitely generated monoids of nonnegative rationals."""


@fg.command("atoms")
@click.option("--gens", type=RATIONALS, required=True)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def fg_atoms(gens, as_json):
    atoms = FgMonoid(gens).atoms()
    if as_json:
        _emit([format_rational(a) for a in atoms])
    else:
        for a in atoms:
            click.echo(format_rational(a))


@fg.command("member")
@click.option("--gens", type=RATIONALS, required=True)
@click.option("--x", type=RATIONAL_OR_ZERO, required=True)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def fg_member(gens, x, as_json):
    monoid = FgMonoid(gens)
    witness = _member_witness(monoid, x)
    member = witness is not None
    if as_json:
        shown = None
        if member:
            shown = [
                {"generator": format_rational(g), "mult": c} for g, c in witness
            ]
        _emit({"member": member, "witness": shown})
        return
    if not member:
        click.echo("false")
        return
    click.echo("true")
    if witness:
        click.echo("witness: " + _format_terms(witness, format_rational))


@fg.command("factorize")
@click.option("--gens", type=RATIONALS, required=True)
@click.option("--x", type=RATIONAL_OR_ZERO, required=True)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def fg_factorize(gens, x, as_json):
    found = FgMonoid(gens).factorizations(x)
    if as_json:
        _emit([f.as_mapping() for f in found])
        return
    for f in found:
        click.echo(_format_factorization(f))
    if not found:
        click.echo("none")


@fg.command("lengths")
@click.option("--gens", type=RATIONALS, required=True)
@click.option("--x", type=RATIONAL_OR_ZERO, required=True)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def fg_lengths(gens, x, as_json):
    lengths = FgMonoid(gens).lengths(x)
    if as_json:
        _emit(list(lengths))
    else:
        click.echo(" ".join(str(n) for n in lengths) if lengths else "none")


@fg.command("support")
@click.option("--gens", type=RATIONALS, required=True)
@click.option("--x", type=RATIONAL_OR_ZERO, required=True)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def fg_support(gens, x, as_json):
    support = FgMonoid(gens).atom_support(x)
    if as_json:
        _emit([format_rational(a) for a in support])
    else:
        for a in support:
            click.echo(format_rational(a))
        if not support:
            click.echo("none")


@fg.command("iso")
@click.option("--gens", type=RATIONALS, required=True, multiple=True)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def fg_iso(gens, as_json):
    if len(gens) != 2:
        raise click.UsageError("fg iso needs --gens twice, one list per monoid")
    witness = isomorphism_witness(FgMonoid(gens[0]), FgMonoid(gens[1]))
    if as_json:
        _emit({"witness": format_rational(witness) if witness else None})
    else:
        click.echo(format_rational(witness) if witness else "none")


# ---------------------------------------------------------------------------
# family


@main.group()
def family():
    """Cataloged generator families described by JSON specs."""


@family.command("gen")
@click.option("--spec", required=True)
@click.option("--n", type=click.IntRange(min=1), required=True)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def family_gen(spec, n, as_json):
    value = generator_at(_load_family(spec), n)
    _emit(format_rational(value)) if as_json else click.echo(format_rational(value))


@family.command("truncate")
@click.option("--spec", required=True)
@click.option("--n", type=click.IntRange(min=0), required=True)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def family_truncate(spec, n, as_json):
    monoid = truncate(_load_family(spec), n)
    if as_json:
        _emit([format_rational(g) for g in monoid.generators])
    else:
        for g in monoid.generators:
            click.echo(format_rational(g))


@family.command("classify")
@click.option("--spec", required=True)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def family_classify(spec, as_json):
    report = classify(_load_family(spec))
    if as_json:
        _emit(report.as_mapping())
        return
    for field in (
        "dense",
        "atomic",
        "antimatter",
        "strongly_bounded",
        "finite_puiseux",
        "hereditarily_atomic",
    ):
        click.echo(f"{field}: {getattr(report, field)}")
    for line in report.justification:
        click.echo(f"  {line}")


@family.command("approx")
@click.option("--spec", required=True)
@click.option("--target", type=RATIONAL, required=True)
@click.option("--eps", type=RATIONAL, required=True)
@click.option("--limit", type=click.IntRange(min=1), default=None)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def family_approx(spec, target, eps, limit, as_json):
    kwargs = {} if limit is None else {"scan_limit": limit}
    got = approximate(_load_family(spec), target, eps, **kwargs)
    if as_json:
        _emit(got.as_mapping())
    else:
        click.echo(
            f"{format_rational(got.value)} = {got.multiplier}"
            f"*{format_rational(got.generator)} (generator {got.generator_index})"
        )


@family.command("dense-atoms")
@click.option("--class-index", type=click.IntRange(min=1), required=True)
@click.option("--count", type=click.IntRange(min=1), required=True)
@click.option("--spec", default=None, help="optional JSON target sequence")
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def family_dense_atoms(class_index, count, spec, as_json):
    targets = None
    if spec is not None:
        targets = targets_from_mapping(_load_mapping(spec))
    made = dense_atom_monoid(class_index, count, targets)
    if as_json:
        _emit(made.as_mapping())
        return
    for e in made.entries:
        click.echo(
            f"{e.k}: target {format_rational(e.target)} atom "
            f"{format_rational(e.atom)} = {e.numerator}/{e.prime}^{e.exponent}"
        )


@family.command("noniso")
@click.option("--spec", required=True, multiple=True)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def family_noniso(spec, as_json):
    if len(spec) != 2:
        raise click.UsageError("family noniso needs --spec twice")
    cert = disjoint_prime_noniso(_load_family(spec[0]), _load_family(spec[1]))
    if as_json:
        _emit({"certificate": cert.as_mapping() if cert else None})
    elif cert is None:
        click.echo("no certificate")
    else:
        click.echo(f"not isomorphic: {cert.reason}")


# ---------------------------------------------------------------------------
# cyclic


@main.group()
def cyclic():
    """Monoids generated by the positive powers of one rational."""


@cyclic.command("member")
@click.option("--r", type=RATIONAL, required=True)
@click.option("--x", type=RATIONAL_OR_ZERO, required=True)
@click.option("--cap", type=click.IntRange(min=1), default=8, show_default=True)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def cyclic_member(r, x, cap, as_json):
    got = cyclic_contains(r, x, cap)
    if as_json:
        _emit(got.as_mapping())
        return
    click.echo(got.status)
    if got.witness is not None:
        click.echo("witness: " + _format_cyclic(got.witness))
    if got.certificate is not None:
        click.echo(f"certificate: {got.certificate}")


@cyclic.command("factorize")
@click.option("--r", type=RATIONAL, required=True)
@click.option("--x", type=RATIONAL_OR_ZERO, required=True)
@click.option("--cap", type=click.IntRange(min=1), default=8, show_default=True)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def cyclic_factorize(r, x, cap, as_json):
    found = cyclic_factorizations(r, x, cap)
    if as_json:
        _emit([f.as_mapping() for f in found])
        return
    for f in found:
        click.echo(_format_cyclic(f))
    if not found:
        click.echo("none")


@cyclic.command("trade")
@click.option("--r", type=RATIONAL, required=True)
@click.option("--z", required=True, help="factorization as JSON (file or inline)")
@click.option("--t", type=click.IntRange(min=1), required=True)
@click.option(
    "--direction", type=click.Choice(["up", "down"]), required=True
)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def cyclic_trade_cmd(r, z, t, direction, as_json):
    data = _load_mapping(z)
    try:
        terms = tuple(
            (int(term["exponent"]), int(term["mult"])) for term in data["terms"]
        )
    except (KeyError, TypeError) as bad:
        raise ParseError(
            'factorization JSON needs "terms": [{"exponent": e, "mult": m}, ...]'
        ) from bad
    moved = cyclic_trade(r, CyclicFactorization(r, terms), t, direction)
    _emit(moved.as_mapping()) if as_json else click.echo(_format_cyclic(moved))


@cyclic.command("embed")
@click.option("--ratios", type=RATIONALS, required=True)
@click.option("--i", type=click.IntRange(min=1), required=True)
@click.option("--m", type=click.IntRange(min=1), required=True)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def cyclic_embed(ratios, i, m, as_json):
    w = generalized_cyclic_embed(ratios, i, m)
    if as_json:
        _emit(w.as_mapping())
    else:
        click.echo(
            f"{format_rational(w.value)} = {w.coefficient}"
            f"*({format_rational(w.base)})^{w.power}"
        )


# ---------------------------------------------------------------------------
# witness


@main.group()
def witness():
    """Constructive witnesses for structural statements."""


@witness.command("kprimary")
@click.option("--primes", type=INTS, required=True)
@click.option("--limit", type=click.IntRange(min=1), default=None)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def witness_kprimary(primes, limit, as_json):
    kwargs = {} if limit is None else {"search_limit": limit}
    w = kprimary_antimatter_witness(primes, **kwargs)
    if as_json:
        _emit(w.as_mapping())
    else:
        click.echo(w.as_mapping()["identity"])
        click.echo(
            "decomposition: " + _format_factorization(w.decomposition)
        )


@witness.command("padic-atoms")
@click.option("--spec", required=True)
@click.option("--prefix", type=click.IntRange(min=1), required=True)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def witness_padic_atoms(spec, prefix, as_json):
    family_spec = _load_family(spec)
    report = padic_candidate_atoms(family_spec, prefix)
    if as_json:
        _emit(report.as_mapping())
        return
    click.echo("kept: " + " ".join(str(i) for i in report.kept))
    for exc in report.exclusions:
        click.echo(
            f"excluded {exc.index}: generator({exc.index}) = "
            f"{exc.coefficient}*generator({exc.kept_index})"
        )


@witness.command("sumk-atom")
@click.option("--k", type=click.IntRange(min=1), required=True)
@click.option("--indices", type=INTS, required=True)
@click.option("--max-index", type=click.IntRange(min=1), required=True)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def witness_sumk_atom(k, indices, max_index, as_json):
    still_atom = sum_kprimary_atom_check(k, indices, max_index)
    _emit(still_atom) if as_json else click.echo("true" if still_atom else "false")


# ---------------------------------------------------------------------------
# verify


@main.group()
def verify():
    """Replay the registered claims with independent checks."""


@verify.command("run")
@click.option("--claims", default="all", show_default=True)
@click.option("--truncation", type=click.IntRange(min=2), default=50, show_default=True)
@click.option("--cap", type=click.IntRange(min=1), default=8, show_default=True)
@click.option("--limit", type=click.IntRange(min=1), default=100_000, show_default=True)
@click.option("--seed", type=int, default=7, show_default=True)
@click.option("--report", "report_path", type=click.Path(), default=None)
@click.option("--json", "as_json", is_flag=True)
@domain_errors
def verify_run(claims, truncation, cap, limit, seed, report_path, as_json):
    ids = "all" if claims == "all" else tuple(p for p in claims.split(",") if p)
    params = ClaimParameters(
        truncation=truncation,
        exponent_cap=cap,
        prime_search_limit=limit,
        seed=seed,
    )
    outcomes = run_claims(ids, params)
    payload = [o.as_mapping() for o in outcomes]
    if report_path is not None:
        Path(report_path).write_text(json.dumps(payload, sort_keys=True) + "\n")
    if as_json:
        _emit(payload)
        return
    for o in outcomes:
        click.echo(f"{o.claim_id} {o.status}")
    if report_path is not None:
        click.echo(f"report written to {report_path}")


if __name__ == "__main__":
    main()
