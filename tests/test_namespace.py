"""The public namespace, and what the CLI loads to serve one command."""

import ast
import os
import subprocess
import sys
from pathlib import Path

import pytest

import puiseux

SRC = Path(__file__).resolve().parent.parent / "src"

PUBLIC = [
    "BadIndex",
    "BadProgression",
    "ClaimOutcome",
    "ClaimParameters",
    "ClassificationReport",
    "CyclicFactorization",
    "CyclicMembership",
    "Factorization",
    "FgMonoid",
    "GcdOne",
    "HypothesisViolated",
    "InsufficientMultiplicity",
    "NonPositive",
    "NotAtomic",
    "NotCofinite",
    "NotDense",
    "NotFoundWithinLimit",
    "NotPrime",
    "NumericalSemigroup",
    "ParseError",
    "PuiseuxError",
    "UnknownClaim",
    "approximate",
    "claim_ids",
    "classify",
    "cyclic_contains",
    "cyclic_factorizations",
    "cyclic_trade",
    "dense_atom_monoid",
    "disjoint_prime_noniso",
    "family_from_mapping",
    "format_rational",
    "generalized_cyclic_embed",
    "generator_at",
    "is_prime",
    "isomorphism_witness",
    "kprimary_antimatter_witness",
    "nth_odd_prime",
    "nth_prime",
    "p_adic_valuation",
    "padic_candidate_atoms",
    "parse_rational",
    "prime_factors",
    "prime_in_progression",
    "prime_index",
    "primes",
    "rule_statement",
    "run_claims",
    "sum_kprimary_atom_check",
    "truncate",
]


def test_all_is_the_public_list():
    assert puiseux.__all__ == PUBLIC
    assert dir(puiseux) == PUBLIC


def test_every_public_name_resolves_to_its_module_attribute():
    for name in PUBLIC:
        value = getattr(puiseux, name)
        module = sys.modules[value.__module__]
        assert getattr(module, name) is value, name
        # Bound on first use, so later lookups skip the hook.
        assert vars(puiseux)[name] is value, name
    assert puiseux.families is sys.modules["puiseux.families"]


def test_star_import_binds_exactly_the_public_names():
    scope: dict = {}
    exec("from puiseux import *", scope)
    assert sorted(k for k in scope if k != "__builtins__") == PUBLIC


def test_unknown_names_raise_attribute_error():
    assert not hasattr(puiseux, "no_such_name")


# (argv, its stdout, the layers it loads): each command group loads
# the layers it runs and none above them.
LOADS = [
    (["ns", "frobenius", "--gens", "4,9"], "23", {"semigroup"}),
    (["fg", "member", "--gens", "2/77,3/77", "--x", "1/7"], "true", {"semigroup", "monoid"}),
    (
        ["cyclic", "trade", "--r", "3/2", "--z", '{"terms": [{"exponent": 1, "mult": 3}]}', "--t", "1",
         "--direction", "up"],
        "2*r^2",
        {"cyclic"},
    ),
    (
        ["family", "classify", "--spec", '{"family": "cyclic", "r": "2/3"}'],
        "dense: yes",
        {"families"},
    ),
    (
        ["witness", "kprimary", "--primes", "2,3"],
        "5*13 = 1*3*13 + 2*2*5 + 2*3",
        {"semigroup", "monoid", "families", "witnesses"},
    ),
    (
        ["verify", "run", "--claims", "C5,C9"],
        "C5 confirmed",
        {"semigroup", "monoid", "cyclic", "families", "witnesses", "verifier"},
    ),
]


@pytest.mark.parametrize("argv, first_line, layers", LOADS, ids=[" ".join(a[:2]) for a, _, _ in LOADS])
def test_cli_loads_only_the_layers_a_command_runs(argv, first_line, layers):
    # runpy runs the module as `python -m puiseux.cli` does, then the
    # process reports which puiseux modules it imported.
    code = (
        "import runpy, sys\n"
        f"sys.argv = ['puiseux', *{argv!r}]\n"
        "try:\n"
        "    runpy.run_module('puiseux.cli', run_name='__main__', alter_sys=True)\n"
        "except SystemExit as done:\n"
        "    assert not done.code, done.code\n"
        "print('click' in sys.modules)\n"
        "print(' '.join(sorted(m for m in sys.modules if m.startswith('puiseux.'))))\n"
    )
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    lines = proc.stdout.splitlines()
    assert lines[0] == first_line
    assert lines[-2] == "False"  # the parser is the standard library's argparse
    assert set(lines[-1].split()) == {"puiseux.arith", "puiseux.errors"} | {"puiseux." + n for n in layers}


def test_library_import_leaves_dataclasses_unloaded():
    # The record classes are built without the dataclasses module, so
    # importing the top layer (which loads every other) never pays for it.
    code = "import sys, puiseux.verifier; print('dataclasses' in sys.modules)"
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    proc = subprocess.run([sys.executable, "-c", code], env=env, capture_output=True, text=True, timeout=60)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout == "False\n"


def test_library_code_has_no_assert_statements():
    # python -O strips assert statements, so an exact re-check in the
    # library must raise a PuiseuxError instead.
    found = [
        f"{path.name}:{node.lineno}"
        for path in sorted((SRC / "puiseux").glob("*.py"))
        for node in ast.walk(ast.parse(path.read_text()))
        if isinstance(node, ast.Assert)
    ]
    assert found == []


def _callee(call: ast.Call) -> str | None:
    """The name a call reaches: f(...), or self.f(...) and cls.f(...)."""
    f = call.func
    if isinstance(f, ast.Name):
        return f.id
    if isinstance(f, ast.Attribute) and isinstance(f.value, ast.Name) and f.value.id in ("self", "cls"):
        return f.attr
    return None


def test_the_walks_do_not_recurse():
    # The walks have one level per generator or exponent, so a function
    # that calls itself would fail past Python's recursion limit.
    found = [
        f"{name}:{call.lineno} {fn.name}"
        for name in ("semigroup.py", "monoid.py", "cyclic.py")
        for fn in ast.walk(ast.parse((SRC / "puiseux" / name).read_text()))
        if isinstance(fn, ast.FunctionDef)
        for call in ast.walk(fn)
        if isinstance(call, ast.Call) and _callee(call) == fn.name
    ]
    assert found == []
