"""The JSON contract, pinned byte for byte.

`fixtures/cli_json.json` holds the `--json` output of one command per
subcommand, the rows at the top of `test_cli_budgets.ROWS`. The spec
records' `as_mapping()` forms are written out below as literals, key
order included, and each parses back to the record it came from.
"""

import json
import shlex
from fractions import Fraction as F
from pathlib import Path

import pytest

from puiseux.cli import COMMANDS
from puiseux.families import (
    AffineSeq,
    AllPrimes,
    BfNotFf,
    CalkinWilfTargets,
    CongruencePrimes,
    Cyclic,
    ElementaryKPrimary,
    ElementaryPrimary,
    ExplicitList,
    ExplicitSeq,
    ExplicitTargets,
    GeneralizedCyclic,
    GeometricSeq,
    HalfPrime,
    PAdic,
    PartitionClassPrimes,
    PartitionedKPrimary,
    PlusMinusPowers,
    PowerDenominator,
    SumKPrimary,
    TwoAdicOddPrime,
    family_from_mapping,
    stream_from_mapping,
    targets_from_mapping,
)

from conftest import run_cli
from test_cli_budgets import SUBCOMMANDS

PINNED = json.loads((Path(__file__).resolve().parent / "fixtures" / "cli_json.json").read_text())


def test_one_pinned_command_per_subcommand():
    registered = sorted(f"{group} {name}" for group, (_, cmds) in COMMANDS.items() for name in cmds)
    assert sorted(" ".join(shlex.split(cmd)[:2]) for cmd in SUBCOMMANDS) == registered
    assert sorted(PINNED) == sorted(SUBCOMMANDS)


@pytest.mark.parametrize("cmd", SUBCOMMANDS)
def test_json_output_matches_pinned(cmd):
    result = run_cli(shlex.split(cmd) + ["--json"])
    assert result.exit_code == 0, result.output
    assert result.stdout == PINNED[cmd]


FAMILIES = [
    (PowerDenominator(3), {"family": "power-denominator", "q": 3}),
    (HalfPrime(), {"family": "half-prime"}),
    (TwoAdicOddPrime(), {"family": "two-adic-odd-prime"}),
    (
        ElementaryPrimary(CongruencePrimes(1, 4)),
        {"family": "elementary-primary", "primes": {"kind": "congruence", "residue": 1, "modulus": 4}},
    ),
    (ElementaryKPrimary(2), {"family": "elementary-k-primary", "k": 2}),
    (PartitionedKPrimary(3), {"family": "partitioned-k-primary", "k": 3}),
    (SumKPrimary(2), {"family": "sum-k-primary", "k": 2}),
    (
        PAdic(2, ExplicitSeq((5, 7), GeometricSeq(1, 3)), AffineSeq(2, 1)),
        {
            "family": "p-adic",
            "p": 2,
            "numerators": {"kind": "explicit", "values": [5, 7], "then": {"kind": "power", "base": 3}},
            "exponents": {"kind": "affine-exponent", "a": 2, "b": 1},
        },
    ),
    (PlusMinusPowers(3), {"family": "plus-minus-powers", "p": 3}),
    (Cyclic(F(2, 3)), {"family": "cyclic", "r": "2/3"}),
    (
        GeneralizedCyclic((F(2, 5), F(4, 7), F(3))),
        {"family": "generalized-cyclic", "ratios": ["2/5", "4/7", "3"]},
    ),
    (BfNotFf(), {"family": "bf-not-ff"}),
    (ExplicitList((F(1, 2), F(3), F(5, 4))), {"family": "explicit", "generators": ["1/2", "3", "5/4"]}),
]

STREAMS = [
    (AllPrimes(), {"kind": "all"}),
    (CongruencePrimes(3, 4), {"kind": "congruence", "residue": 3, "modulus": 4}),
    (PartitionClassPrimes(2), {"kind": "partition-class", "index": 2}),
]

TARGETS = [
    (CalkinWilfTargets(), {"kind": "calkin-wilf"}),
    (ExplicitTargets((F(1, 3), F(2))), {"kind": "explicit", "values": ["1/3", "2"]}),
]


@pytest.mark.parametrize(
    "record, expected, parse",
    [
        pytest.param(record, expected, parse, id=type(record).__name__)
        for table, parse in (
            (FAMILIES, family_from_mapping),
            (STREAMS, stream_from_mapping),
            (TARGETS, targets_from_mapping),
        )
        for record, expected in table
    ],
)
def test_spec_mapping_is_pinned(record, expected, parse):
    # json.dumps keeps key order, which dict equality ignores.
    assert json.dumps(record.as_mapping()) == json.dumps(expected)
    assert parse(expected) == record
