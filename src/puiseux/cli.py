"""Command line front end: `puiseux GROUP COMMAND [options]`.

One table, `COMMANDS`, holds the six command groups and their 24
subcommands. `main` builds an argparse parser from it for the command
its argv names: the root, that group and that subcommand, or the whole
tree when argv names no subcommand, so help text and usage errors read
the same either way. Plain mode prints compact human-readable text;
``--json`` switches the command to exactly one JSON document on
standard output, with keys sorted so identical invocations stay
byte-identical. Exit codes: 0 on success, 1 for domain errors (reported
on standard error as ``error: ...``), 2 for usage errors. Rationals on
the command line are always ``n/d`` or integer tokens, and list-valued
flags take one comma-separated token. A computed value is written
through format_rational or format_int, which refuse one past Python's
int-to-str limit as a domain error, before either output is printed.
"""

from __future__ import annotations

import argparse
import functools
import json
import re
import sys
from pathlib import Path

import puiseux as P

from .arith import format_int, format_rational, json_int, parse_rational, read_int
from .errors import ParseError, PuiseuxError


def _usage(parse):
    """An argparse type from a parse function: the PuiseuxError or
    ValueError it raises becomes a usage error (exit 2)."""

    def convert(token: str):
        try:
            return parse(token)
        except (PuiseuxError, ValueError) as bad:
            raise argparse.ArgumentTypeError(str(bad)) from None

    return convert


def _split(token: str, what: str) -> list[str]:
    parts = [p for p in token.split(",") if p != ""]
    if not parts:
        raise ParseError(f"expected a comma-separated list of {what}")
    return parts


def at_least(low: int):
    """An argparse type for integers no smaller than low."""

    def convert(token: str) -> int:
        value = read_int(token)
        if value < low:
            raise ValueError(f"expected an integer >= {low}, got {value}")
        return value

    return _usage(convert)


RATIONAL = _usage(parse_rational)
RATIONAL_OR_ZERO = _usage(functools.partial(parse_rational, allow_zero=True))
RATIONALS = _usage(lambda token: tuple(parse_rational(p) for p in _split(token, "rationals")))
INT = _usage(read_int)
INTS = _usage(lambda token: tuple(read_int(p) for p in _split(token, "integers")))
CLAIMS = _usage(lambda token: token if token == "all" else tuple(_split(token, "claim ids")))


def _load_mapping(token: str) -> dict:
    """A ``--spec`` or ``--z`` value: the JSON in the file it names, if
    there is one, else the token itself read as JSON. Its integers are
    read with read_int, which refuses one past Python's digit limit."""
    try:
        text, is_file = Path(token).read_text(), True
    except (OSError, ValueError):
        text, is_file = token, False
    try:
        data = json.loads(text, parse_int=read_int)
    except json.JSONDecodeError as bad:
        if not (is_file or token.lstrip().startswith("{")):
            raise ParseError(f"spec file not found: {token}") from None
        raise ParseError(f"spec is not valid JSON: {bad}") from bad
    if not isinstance(data, dict):
        raise ParseError("spec must be a JSON object")
    return data


def _load_family(token: str):
    return P.family_from_mapping(_load_mapping(token))


# group -> (its help, {subcommand -> (function, options)}), filled in
# by @command below.
COMMANDS: dict[str, tuple[str, dict]] = {
    "ns": ("Numerical semigroups given by integer generators.", {}),
    "fg": ("Finitely generated monoids of nonnegative rationals.", {}),
    "family": ("Cataloged generator families described by JSON specs.", {}),
    "cyclic": ("Monoids generated by the positive powers of one rational.", {}),
    "witness": ("Constructive witnesses for structural statements.", {}),
    "verify": ("Replay the registered claims with independent checks.", {}),
}


def opt(flag: str, type=None, **kwargs):
    """One option of a command, as add_argument takes it; required
    unless it has a default."""
    return flag, {"type": type, "required": "default" not in kwargs, **kwargs}


def command(group: str, name: str, *options):
    """Register the decorated function as the subcommand `group name`
    with the given opt(...) options.

    The function takes the options by name and returns (payload, lines);
    _render prints one of them.
    """

    def register(fn):
        COMMANDS[group][1][name] = (fn, options)
        return fn

    return register


def _render(fn, leaf, as_json, **options):
    """Run one command. With --json its payload is printed as one JSON
    document with sorted keys; without, its lines. A PuiseuxError
    becomes `error: ...` on stderr and exit status 1; an
    argparse.ArgumentError becomes a usage error, exit status 2."""
    try:
        payload, lines = fn(**options)
    except argparse.ArgumentError as bad:
        leaf.error(str(bad))
    except PuiseuxError as bad:
        print(f"error: {bad}", file=sys.stderr)
        sys.exit(1)
    if as_json:
        print(json.dumps(payload, sort_keys=True))
    else:
        for line in lines:
            print(line)


def _format_terms(terms, label) -> str:
    if not terms:
        return "0"
    return " + ".join(f"{format_int(mult)}*{label(a)}" for a, mult in terms)


def _format_factorization(f) -> str:
    return _format_terms(f.terms, format_rational)


def _format_cyclic(f: P.CyclicFactorization) -> str:
    return _format_terms(f.terms, lambda e: f"r^{e}")


def _membership(sg: P.NumericalSemigroup, t, label):
    """The `ns member` / `fg member` result: whether t, an int or a
    Fraction, is in sg, and the generator combination reaching it, each
    generator shown by label."""
    rep = sg.any_representation(t.numerator) if t.denominator == 1 else None
    if rep is None:
        return {"member": False, "witness": None}, ["false"]
    witness = [(g, c) for g, c in zip(sg.generators, rep) if c]
    shown = [{"generator": label(g), "mult": c} for g, c in witness]
    lines = ["true", "witness: " + _format_terms(witness, label)] if witness else ["true"]
    return {"member": True, "witness": shown}, lines


# ---------------------------------------------------------------------------
# ns


@command("ns", "mingens", opt("--gens", INTS))
def ns_mingens(gens):
    minimal = list(P.NumericalSemigroup(gens).minimal_generators())
    return minimal, [" ".join(str(g) for g in minimal)]


@command("ns", "frobenius", opt("--gens", INTS))
def ns_frobenius(gens):
    value = P.NumericalSemigroup(gens).frobenius()
    return value, [format_int(value)]


@command("ns", "member", opt("--gens", INTS), opt("--x", INT))
def ns_member(gens, x):
    return _membership(P.NumericalSemigroup(gens), x, int)


@command("ns", "factorize", opt("--gens", INTS), opt("--x", INT))
def ns_factorize(gens, x):
    sg = P.NumericalSemigroup(gens)
    reps = sg.representations(x)
    lines = [
        _format_terms([(g, c) for g, c in zip(sg.generators, rep) if c > 0], str)
        for rep in reps
    ]
    return [list(rep) for rep in reps], lines or ["none"]


# ---------------------------------------------------------------------------
# fg


@command("fg", "atoms", opt("--gens", RATIONALS))
def fg_atoms(gens):
    atoms = [format_rational(a) for a in P.FgMonoid(gens).atoms()]
    return atoms, atoms


@command("fg", "member", opt("--gens", RATIONALS), opt("--x", RATIONAL_OR_ZERO))
def fg_member(gens, x):
    q, sg = P.FgMonoid(gens).to_scaled_integer()
    return _membership(sg, x / q, lambda g: format_rational(g * q))


@command("fg", "factorize", opt("--gens", RATIONALS), opt("--x", RATIONAL_OR_ZERO))
def fg_factorize(gens, x):
    found = P.FgMonoid(gens).factorizations(x)
    lines = [_format_factorization(f) for f in found]
    return [f.as_mapping() for f in found], lines or ["none"]


@command("fg", "lengths", opt("--gens", RATIONALS), opt("--x", RATIONAL_OR_ZERO))
def fg_lengths(gens, x):
    lengths = list(P.FgMonoid(gens).lengths(x))
    return lengths, [" ".join(map(format_int, lengths)) if lengths else "none"]


@command("fg", "support", opt("--gens", RATIONALS), opt("--x", RATIONAL_OR_ZERO))
def fg_support(gens, x):
    support = [format_rational(a) for a in P.FgMonoid(gens).atom_support(x)]
    return support, support or ["none"]


@command("fg", "iso", opt("--gens", RATIONALS, action="append"))
def fg_iso(gens):
    if len(gens) != 2:
        raise argparse.ArgumentError(None, "fg iso needs --gens twice, one list per monoid")
    witness = P.isomorphism_witness(P.FgMonoid(gens[0]), P.FgMonoid(gens[1]))
    shown = format_rational(witness) if witness else None
    return {"witness": shown}, [shown or "none"]


# ---------------------------------------------------------------------------
# family


@command("family", "gen", opt("--spec"), opt("--n", at_least(1)))
def family_gen(spec, n):
    value = format_rational(P.generator_at(_load_family(spec), n))
    return value, [value]


@command("family", "truncate", opt("--spec"), opt("--n", at_least(0)))
def family_truncate(spec, n):
    gens = [format_rational(g) for g in P.truncate(_load_family(spec), n).generators]
    return gens, gens


@command("family", "classify", opt("--spec"))
def family_classify(spec):
    report = P.classify(_load_family(spec))
    payload = report.as_mapping()
    lines = [f"{k}: {v}" for k, v in payload.items() if k != "justification"]
    lines += [f"  {line}" for line in report.justification]
    return payload, lines


@command(
    "family", "approx", opt("--spec"), opt("--target", RATIONAL), opt("--eps", RATIONAL),
    opt("--limit", at_least(1), default=None),
)
def family_approx(spec, target, eps, limit):
    kwargs = {} if limit is None else {"scan_limit": limit}
    got = P.approximate(_load_family(spec), target, eps, **kwargs)
    return got.as_mapping(), [
        f"{format_rational(got.value)} = {format_int(got.multiplier)}"
        f"*{format_rational(got.generator)} (generator {got.generator_index})"
    ]


@command(
    "family", "dense-atoms", opt("--class-index", at_least(1)), opt("--count", at_least(1)),
    opt("--spec", default=None, help="optional JSON target sequence"),
)
def family_dense_atoms(class_index, count, spec):
    targets = None
    if spec is not None:
        targets = P.families.targets_from_mapping(_load_mapping(spec))
    made = P.dense_atom_monoid(class_index, count, targets)
    return made.as_mapping(), [
        f"{e.k}: target {format_rational(e.target)} atom "
        f"{format_rational(e.atom)} = {format_int(e.numerator)}/{e.prime}^{format_int(e.exponent)}"
        for e in made.entries
    ]


@command("family", "noniso", opt("--spec", action="append"))
def family_noniso(spec):
    if len(spec) != 2:
        raise argparse.ArgumentError(None, "family noniso needs --spec twice")
    cert = P.disjoint_prime_noniso(_load_family(spec[0]), _load_family(spec[1]))
    if cert is None:
        return {"certificate": None}, ["no certificate"]
    return {"certificate": cert.as_mapping()}, [f"not isomorphic: {cert.reason}"]


# ---------------------------------------------------------------------------
# cyclic


@command("cyclic", "member", opt("--r", RATIONAL), opt("--x", RATIONAL_OR_ZERO))
def cyclic_member(r, x):
    got = P.cyclic_contains(r, x)
    lines = [got.status]
    if got.witness is not None:
        lines.append("witness: " + _format_cyclic(got.witness))
    if got.certificate is not None:
        lines.append(f"certificate: {got.certificate}")
    return got.as_mapping(), lines


@command(
    "cyclic", "factorize", opt("--r", RATIONAL), opt("--x", RATIONAL_OR_ZERO),
    opt("--cap", at_least(1), default=8),
)
def cyclic_factorize(r, x, cap):
    found = P.cyclic_factorizations(r, x, cap)
    lines = [_format_cyclic(f) for f in found]
    return [f.as_mapping() for f in found], lines or ["none"]


@command(
    "cyclic", "trade", opt("--r", RATIONAL), opt("--z", help="factorization JSON, file or inline"),
    opt("--t", at_least(1)), opt("--direction", choices=("up", "down")),
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
    # The keys cyclic factorize --json writes, and no others.
    extra = [key for key in data if key not in ("terms", "length")]
    extra += [key for term in data["terms"] for key in term if key not in ("exponent", "mult")]
    if extra:
        raise ParseError(f"the factorization has no field {extra[0]!r}")
    zf = P.CyclicFactorization(r, terms)
    if "length" in data and json_int(data["length"]) != zf.length:
        raise ParseError(f"the factorization has length {zf.length}, not {data['length']}")
    moved = P.cyclic_trade(r, zf, t, direction)
    return moved.as_mapping(), [_format_cyclic(moved)]


@command(
    "cyclic", "embed", opt("--ratios", RATIONALS), opt("--i", at_least(1)), opt("--m", at_least(1)),
)
def cyclic_embed(ratios, i, m):
    w = P.generalized_cyclic_embed(ratios, i, m)
    return w.as_mapping(), [
        f"{format_rational(w.value)} = {format_int(w.coefficient)}"
        f"*({format_rational(w.base)})^{format_int(w.power)}"
    ]


# ---------------------------------------------------------------------------
# witness


@command("witness", "kprimary", opt("--primes", INTS), opt("--limit", at_least(1), default=None))
def witness_kprimary(primes, limit):
    kwargs = {} if limit is None else {"search_limit": limit}
    w = P.kprimary_antimatter_witness(primes, **kwargs)
    payload = w.as_mapping()
    return payload, [
        payload["identity"],
        "decomposition: " + _format_factorization(w.decomposition),
    ]


@command("witness", "padic-atoms", opt("--spec"), opt("--prefix", at_least(1)))
def witness_padic_atoms(spec, prefix):
    report = P.padic_candidate_atoms(_load_family(spec), prefix)
    lines = ["kept: " + " ".join(str(i) for i in report.kept)]
    lines += [
        f"excluded {exc.index}: generator({exc.index}) = "
        f"{format_int(exc.coefficient)}*generator({exc.kept_index})"
        for exc in report.exclusions
    ]
    return report.as_mapping(), lines


@command(
    "witness", "sumk-atom", opt("--k", at_least(1)), opt("--indices", INTS),
    opt("--max-index", at_least(1)),
)
def witness_sumk_atom(k, indices, max_index):
    still_atom = P.sum_kprimary_atom_check(k, indices, max_index)
    return still_atom, ["true" if still_atom else "false"]


# ---------------------------------------------------------------------------
# verify


@command(
    "verify", "run", opt("--claims", CLAIMS, default="all"), opt("--truncation", at_least(2), default=50),
    opt("--cap", at_least(1), default=8), opt("--limit", at_least(1), default=100_000),
    opt("--seed", INT, default=7), opt("--report", default=None),
)
def verify_run(claims, truncation, cap, limit, seed, report):
    params = P.ClaimParameters(
        truncation=truncation,
        exponent_cap=cap,
        prime_search_limit=limit,
        seed=seed,
    )
    if report is not None:
        # Create the file now, so an unwritable path is refused before any claim runs.
        _write_report(report, "")
    outcomes = P.run_claims(claims, params)
    payload = [o.as_mapping() for o in outcomes]
    lines = [f"{o.claim_id} {o.status}" for o in outcomes]
    if report is not None:
        _write_report(report, json.dumps(payload, sort_keys=True) + "\n")
        lines.append(f"report written to {report}")
    return payload, lines


def _write_report(path: str, text: str) -> None:
    try:
        Path(path).write_text(text)
    except OSError as bad:
        raise PuiseuxError(f"cannot write the report to {path}: {bad.strerror}") from None


# ---------------------------------------------------------------------------
# the parser


class _Parser(argparse.ArgumentParser):
    """Flags are never abbreviated, and a value that starts with a dash
    and a digit, such as -4,9 or -1/2, is read as a value (and refused
    by its converter or the library) rather than as an unknown flag."""

    def __init__(self, **kwargs):
        super().__init__(allow_abbrev=False, **kwargs)
        self._negative_number_matcher = re.compile(r"-\.?\d")


def parser(argv=()) -> argparse.ArgumentParser:
    """The parser for the command argv names.

    When argv starts with a group and one of its subcommands, only that
    group and subcommand get parsers under the root; else every command
    in COMMANDS does. Help text and usage errors read the same either
    way: a command line naming a subcommand can only print that
    subcommand's usage, or the root's, which names every group.
    """
    named = tuple(argv[:2])
    full = len(named) < 2 or named[1] not in COMMANDS.get(named[0], (None, {}))[1]

    def wanted(*path) -> bool:
        return full or path == named[: len(path)]

    about = "Exact arithmetic for numerical semigroups and rational-generated monoids."
    root = _Parser(prog="puiseux", description=about)
    # Built for one command, the root's usage still names every group.
    # The full tree leaves the metavar to argparse, whose missing-group
    # and invalid-choice errors read it as the argument's name; neither
    # error can follow a command line that names a subcommand.
    metavar = None if full else "{" + ",".join(COMMANDS) + "}"
    groups = root.add_subparsers(dest="group", required=True, metavar=metavar)
    for group, (summary, commands) in COMMANDS.items():
        if not wanted(group):
            continue
        sub = groups.add_parser(group, help=summary, description=summary)
        leaves = sub.add_subparsers(dest="command", required=True)
        for name, (fn, options) in commands.items():
            if not wanted(group, name):
                continue
            leaf = leaves.add_parser(name)
            for flag, kwargs in options:
                leaf.add_argument(flag, **kwargs)
            leaf.add_argument("--json", action="store_true", dest="as_json", help="print JSON")
            leaf.set_defaults(run=functools.partial(_render, fn, leaf))
    return root


def main(argv=None) -> None:
    """Run one command line; argv defaults to sys.argv[1:]."""
    argv = sys.argv[1:] if argv is None else list(argv)
    options = vars(parser(argv).parse_args(argv))
    del options["group"], options["command"]
    options.pop("run")(**options)


# perfbench's in-process runner drives main through click.testing.CliRunner,
# which reads these two attributes; they go when ROADMAP item 0 replaces it.
main.name = "puiseux"
main.main = lambda args, prog_name: main(args)


if __name__ == "__main__":
    main()
