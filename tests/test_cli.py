import argparse
import json
import time

import pytest

import puiseux as P
from puiseux import cli
from puiseux.cli import COMMANDS, main, parser

from conftest import run_cli
from test_json import FAMILIES

PADIC_SPEC = json.dumps(
    {
        "family": "p-adic",
        "p": 2,
        "numerators": {"kind": "power", "base": 3},
        "exponents": {"kind": "affine-exponent", "a": 2, "b": 0},
    }
)


def invoke(*argv):
    return run_cli(argv)


def test_ns_frobenius_example():
    result = invoke("ns", "frobenius", "--gens", "4,9")
    assert result.exit_code == 0
    assert result.output == "23\n"


def test_ns_mingens_member_factorize():
    result = invoke("ns", "mingens", "--gens", "4,6,9,13,8")
    assert result.exit_code == 0
    assert result.output == "4 6 9\n"

    result = invoke("ns", "member", "--gens", "4,9", "--x", "23")
    assert result.exit_code == 0
    assert result.output == "false\n"

    result = invoke("ns", "member", "--gens", "4,9", "--x", "13", "--json")
    payload = json.loads(result.output)
    assert payload["member"] is True
    assert payload["witness"] == [
        {"generator": 4, "mult": 1},
        {"generator": 9, "mult": 1},
    ]

    result = invoke("ns", "factorize", "--gens", "2,3", "--x", "11", "--json")
    assert json.loads(result.output) == [[4, 1], [1, 3]]


def test_ns_and_fg_member_of_zero_print_one_document():
    ns = invoke("ns", "member", "--gens", "4,9", "--x", "0", "--json")
    fg = invoke("fg", "member", "--gens", "4,9", "--x", "0", "--json")
    assert ns.exit_code == fg.exit_code == 0
    assert ns.output == fg.output == '{"member": true, "witness": []}\n'


def test_fg_member_example_with_witness():
    result = invoke("fg", "member", "--gens", "2/77,3/77", "--x", "1/7")
    assert result.exit_code == 0
    assert result.output == "true\nwitness: 4*2/77 + 1*3/77\n"


def test_fg_atoms_and_lengths():
    result = invoke("fg", "atoms", "--gens", "1/2,1/4,3")
    assert result.exit_code == 0
    assert result.output == "1/4\n"

    result = invoke("fg", "lengths", "--gens", "1/2,1/3", "--x", "2")
    assert result.output == "4 5 6\n"

    result = invoke("fg", "lengths", "--gens", "1/2,1/3", "--x", "2", "--json")
    assert json.loads(result.output) == [4, 5, 6]


def test_fg_factorize_and_support():
    result = invoke("fg", "factorize", "--gens", "1/2,1/3", "--x", "1")
    assert result.exit_code == 0
    assert result.output == "2*1/2\n3*1/3\n"

    result = invoke("fg", "support", "--gens", "1/2,1/3", "--x", "1/5")
    assert result.output == "none\n"


def test_fg_iso_two_monoids():
    result = invoke("fg", "iso", "--gens", "1/2,1/3", "--gens", "5/14,15/28")
    assert result.exit_code == 0
    assert result.output == "15/14\n"

    result = invoke("fg", "iso", "--gens", "1/2,1/3", "--gens", "1/2,1/5")
    assert result.output == "none\n"

    result = invoke("fg", "iso", "--gens", "1/2,1/3")
    assert result.exit_code == 2


def test_cyclic_factorize_json_example():
    result = invoke(
        "cyclic", "factorize", "--r", "2/3", "--x", "4/3", "--cap", "3", "--json"
    )
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 1
    payload = json.loads(lines[0])
    assert isinstance(payload, list) and len(payload) == 3
    assert sorted(f["length"] for f in payload) == [2, 3, 4]


def test_cyclic_member_and_trade():
    result = invoke("cyclic", "member", "--r", "3/2", "--x", "9/2")
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "member"

    z = json.dumps({"terms": [{"exponent": 1, "mult": 3}]})
    result = invoke(
        "cyclic", "trade", "--r", "3/2", "--z", z, "--t", "1", "--direction", "up"
    )
    assert result.exit_code == 0
    assert result.output == "2*r^2\n"

    result = invoke(
        "cyclic", "trade", "--r", "3/2", "--z", z, "--t", "2", "--direction", "down"
    )
    assert result.exit_code == 1


@pytest.mark.parametrize("exponent", [1.7, "x", True, None])
def test_cyclic_trade_rejects_non_integer_exponents(exponent):
    z = json.dumps({"terms": [{"exponent": exponent, "mult": 3}]})
    result = invoke(
        "cyclic", "trade", "--r", "3/2", "--z", z, "--t", "1", "--direction", "up"
    )
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stderr.startswith("error: ")


@pytest.mark.parametrize(
    "z, key",
    [
        ({"terms": [{"exponent": 1, "mult": 3}], "extra": 0}, "extra"),
        ({"terms": [{"exponent": 1, "mult": 3, "bogus": 1}]}, "bogus"),
        ({"terms": [{"exponent": 1, "mult": 3, "bogus": 1}], "extra": 0}, "extra"),
    ],
)
def test_cyclic_trade_refuses_unknown_keys(z, key):
    result = invoke(
        "cyclic", "trade", "--r", "3/2", "--z", json.dumps(z), "--t", "1", "--direction", "up"
    )
    assert result.exit_code == 1
    assert result.stderr == f"error: the factorization has no field {key!r}\n"


def test_cyclic_trade_refuses_a_length_that_disagrees_with_the_terms():
    z = json.dumps({"terms": [{"exponent": 1, "mult": 3}], "length": 99})
    result = invoke(
        "cyclic", "trade", "--r", "3/2", "--z", z, "--t", "1", "--direction", "up"
    )
    assert result.exit_code == 1
    assert result.stderr == "error: the factorization has length 3, not 99\n"


def test_cyclic_trade_reads_what_cyclic_factorize_writes():
    # Each element of the --json listing, length included, round-trips:
    # trading up two copies of r^t for three of r^(t+1), r = 2/3.
    listed = json.loads(invoke("cyclic", "factorize", "--r", "2/3", "--x", "4/3", "--cap", "3", "--json").output)
    assert [z["length"] for z in listed] == [4, 3, 2]
    for z in listed:
        t = max(term["exponent"] for term in z["terms"] if term["mult"] >= 2)
        result = invoke(
            "cyclic", "trade", "--r", "2/3", "--z", json.dumps(z), "--t", str(t), "--direction", "up", "--json"
        )
        assert result.exit_code == 0, result.stderr
        r = P.parse_rational("2/3")
        given = P.CyclicFactorization(r, tuple((term["exponent"], term["mult"]) for term in z["terms"]))
        assert given.as_mapping() == z
        assert json.loads(result.output) == P.cyclic_trade(r, given, t, "up").as_mapping()
        assert json.loads(result.output)["length"] == z["length"] + 1


def test_cyclic_embed():
    result = invoke("cyclic", "embed", "--ratios", "2/5,4/7", "--i", "1", "--m", "2")
    assert result.exit_code == 0
    assert result.output == "4/25 = 49*(2/35)^2\n"

    result = invoke("cyclic", "embed", "--ratios", "2/77,3/77", "--i", "1", "--m", "1")
    assert result.exit_code == 1


def test_family_gen_and_truncate_inline_spec():
    spec = '{"family": "power-denominator", "q": 2}'
    result = invoke("family", "gen", "--spec", spec, "--n", "3")
    assert result.exit_code == 0
    assert result.output == "1/8\n"

    result = invoke("family", "truncate", "--spec", spec, "--n", "3")
    assert result.output == "1/8\n1/4\n1/2\n"

    result = invoke("family", "truncate", "--spec", spec, "--n", "3", "--json")
    assert json.loads(result.output) == ["1/8", "1/4", "1/2"]


def test_family_spec_from_file(tmp_path):
    path = tmp_path / "family.json"
    path.write_text('{"family": "half-prime"}')
    result = invoke("family", "gen", "--spec", str(path), "--n", "3")
    assert result.exit_code == 0
    assert result.output == "2/5\n"


def test_family_classify_plain_and_json():
    result = invoke("family", "classify", "--spec", '{"family": "bf-not-ff"}')
    assert result.exit_code == 0
    assert "atomic: yes" in result.output
    assert "strongly_bounded: no" in result.output

    result = invoke(
        "family", "classify", "--spec", '{"family": "bf-not-ff"}', "--json"
    )
    payload = json.loads(result.output)
    assert payload["dense"] == "no"
    assert payload["hereditarily_atomic"] == "yes"


def test_family_approx():
    result = invoke(
        "family",
        "approx",
        "--spec",
        '{"family": "power-denominator", "q": 2}',
        "--target",
        "1/4",
        "--eps",
        "1/100",
    )
    assert result.exit_code == 0
    assert "= " in result.output

    result = invoke(
        "family",
        "approx",
        "--spec",
        '{"family": "half-prime"}',
        "--target",
        "1/4",
        "--eps",
        "1/100",
    )
    assert result.exit_code == 1


def test_family_dense_atoms():
    result = invoke(
        "family", "dense-atoms", "--class-index", "1", "--count", "3", "--json"
    )
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert len(payload["entries"]) == 3


def test_family_noniso():
    a = '{"family": "power-denominator", "q": 2}'
    b = '{"family": "power-denominator", "q": 3}'
    result = invoke("family", "noniso", "--spec", a, "--spec", b)
    assert result.exit_code == 0
    assert result.output.startswith("not isomorphic")

    result = invoke("family", "noniso", "--spec", a, "--spec", a)
    assert result.output == "no certificate\n"

    # 3^n / 3^n and 5^n / 5^n: every generator of both is 1.
    specs = [
        f'{{"family": "p-adic", "p": {p}, "numerators": {{"kind": "power", "base": {p}}}, '
        '"exponents": {"kind": "affine-exponent", "a": 1, "b": 0}}'
        for p in (3, 5)
    ]
    for spec in specs:
        result = invoke("family", "gen", "--spec", spec, "--n", "4")
        assert (result.exit_code, result.output) == (0, "1\n")
    result = invoke("family", "noniso", "--spec", specs[0], "--spec", specs[1])
    assert (result.exit_code, result.output) == (0, "no certificate\n")


def test_family_noniso_certifies_cyclic_ratios_with_coprime_denominators():
    # (2/3)^n and (2/5)^n: denominators the powers of 3 and of 5.
    a = '{"family": "cyclic", "r": "2/3"}'
    b = '{"family": "cyclic", "r": "2/5"}'
    result = invoke("family", "noniso", "--spec", a, "--spec", b)
    assert result.exit_code == 0
    assert result.output == "not isomorphic: the two finite prime sets share no prime\n"
    result = invoke("family", "noniso", "--spec", a, "--spec", b, "--json")
    assert result.exit_code == 0
    assert json.loads(result.output) == {
        "certificate": {
            "reason": "the two finite prime sets share no prime",
            "support_a": {"kind": "finite", "primes": [3]},
            "support_b": {"kind": "finite", "primes": [5]},
        }
    }
    # Integer ratios: both monoids are isomorphic to the naturals.
    two, three = '{"family": "cyclic", "r": "2"}', '{"family": "cyclic", "r": "3"}'
    result = invoke("family", "noniso", "--spec", two, "--spec", three)
    assert (result.exit_code, result.output) == (0, "no certificate\n")


def test_witness_kprimary():
    result = invoke("witness", "kprimary", "--primes", "2,3")
    assert result.exit_code == 0
    assert "decomposition:" in result.output

    result = invoke("witness", "kprimary", "--primes", "2,3", "--json")
    payload = json.loads(result.output)
    assert payload["primes"] == [2, 3]


def test_witness_padic_atoms():
    result = invoke("witness", "padic-atoms", "--spec", PADIC_SPEC, "--prefix", "5")
    assert result.exit_code == 0
    assert result.output == "kept: 1 2 3 4 5\n"

    bad = json.dumps(
        {
            "family": "p-adic",
            "p": 2,
            "numerators": {"kind": "constant", "value": 3},
            "exponents": {"kind": "affine-exponent", "a": 1, "b": 0},
        }
    )
    result = invoke("witness", "padic-atoms", "--spec", bad, "--prefix", "3")
    assert result.exit_code == 1


def test_witness_sumk_atom():
    result = invoke(
        "witness", "sumk-atom", "--k", "2", "--indices", "1,2", "--max-index", "4"
    )
    assert result.exit_code == 0
    assert result.output == "true\n"


def test_witness_sumk_atom_asks_atoms_not_factorizations():
    # 120 generators: listing the sum's factorizations took about 18 s;
    # asking whether it is among the atoms takes milliseconds.
    start = time.perf_counter()
    result = invoke(
        "witness", "sumk-atom", "--k", "3", "--indices", "1,2,3", "--max-index", "10"
    )
    assert time.perf_counter() - start < 5
    assert result.exit_code == 0
    assert result.output == "true\n"


def test_verify_run_single_claim_and_report(tmp_path):
    report = tmp_path / "report.json"
    result = invoke(
        "verify", "run", "--claims", "C5", "--report", str(report)
    )
    assert result.exit_code == 0
    assert result.output.splitlines()[0] == "C5 confirmed"
    payload = json.loads(report.read_text())
    assert payload[0]["claim_id"] == "C5"
    assert payload[0]["status"] == "confirmed"
    assert payload[0]["citation"]

    result = invoke("verify", "run", "--claims", "C99")
    assert result.exit_code == 1

    result = invoke("verify", "run", "--claims", "C5,C5")
    assert result.exit_code == 0
    assert result.output.splitlines() == ["C5 confirmed"]


def test_verify_run_report_to_an_unwritable_path_is_a_domain_error(tmp_path, monkeypatch):
    # The path is refused before any claim runs.
    def run_claims(*args):
        raise AssertionError("the claims ran before the report path was checked")

    monkeypatch.setattr(P, "run_claims", run_claims)
    target = tmp_path / "missing" / "report.json"
    result = invoke("verify", "run", "--claims", "C5", "--report", str(target))
    assert (result.exit_code, result.stdout) == (1, "")
    assert result.stderr == f"error: cannot write the report to {target}: No such file or directory\n"


@pytest.mark.parametrize("claims", [",", ""])
def test_verify_run_refuses_an_empty_claim_list(claims):
    result = invoke("verify", "run", "--claims", claims)
    assert (result.exit_code, result.stdout) == (2, "")
    assert result.stderr.endswith(
        "puiseux verify run: error: argument --claims: expected a comma-separated list of claim ids\n"
    )


def test_verify_run_scaled_truncation_json():
    result = invoke("verify", "run", "--json", "--truncation", "100")
    assert result.exit_code == 0
    payload = json.loads(result.output)
    assert [o["claim_id"] for o in payload] == [f"C{n}" for n in range(1, 16)]
    for o in payload:
        expected = "data-only" if o["claim_id"] == "C11" else "confirmed"
        assert o["status"] == expected, o["claim_id"]
        assert o["parameters"]["truncation"] == 100


def test_verify_run_small_limit_reports_claim_error():
    result = invoke("verify", "run", "--limit", "10")
    assert result.exit_code == 0
    lines = result.output.splitlines()
    assert len(lines) == 15
    assert "C6 error" in lines
    assert "C5 confirmed" in lines

    result = invoke("verify", "run", "--claims", "C6", "--limit", "10", "--json")
    assert result.exit_code == 0
    (outcome,) = json.loads(result.output)
    assert outcome["status"] == "error"
    assert outcome["witnesses"] == ["no prime of the form 11 + k*71 for k <= 10"]

    result = invoke("verify", "run", "--claims", "C6", "--limit", "0")
    assert result.exit_code == 2


def test_domain_errors_exit_one():
    result = invoke("ns", "frobenius", "--gens", "4,6")
    assert result.exit_code == 1

    # A value with a leading minus sign reaches the library; it is not
    # read as an unknown flag.
    result = invoke("ns", "frobenius", "--gens", "-4,9")
    assert (result.exit_code, result.stderr) == (1, "error: generators must be positive integers, got -4\n")

    result = invoke("fg", "atoms", "--gens", "0/3")
    assert result.exit_code == 2  # rejected at parse time


# The options besides --spec that each command taking --spec needs.
SPEC_COMMAND_ARGS = {
    ("family", "gen"): ("--n", "3"),
    ("family", "truncate"): ("--n", "3"),
    ("family", "classify"): (),
    ("family", "approx"): ("--target", "1/2", "--eps", "1/10"),
    ("family", "dense-atoms"): ("--class-index", "1", "--count", "2"),
    ("family", "noniso"): ("--spec", '{"family": "half-prime"}'),
    ("witness", "padic-atoms"): ("--prefix", "3"),
}


def test_every_spec_command_finishes_or_refuses_on_every_family():
    # A family a command does not apply to is refused with one error
    # line, never a traceback. dense-atoms reads a target sequence, so
    # every family spec is a parse error there.
    taking_spec = {
        (group, name)
        for group, (_, cmds) in COMMANDS.items()
        for name, (_, options) in cmds.items()
        if any(flag == "--spec" for flag, _ in options)
    }
    assert taking_spec == set(SPEC_COMMAND_ARGS)
    for (group, name), args in SPEC_COMMAND_ARGS.items():
        for _, mapping in FAMILIES:
            argv = (group, name, "--spec", json.dumps(mapping), *args)
            result = invoke(*argv)
            assert result.exit_code in (0, 1), argv
            if result.exit_code:
                assert result.stderr.startswith("error: ") and result.stderr.count("\n") == 1, argv


def test_family_classify_refuses_a_finite_nested_tail():
    spec = json.dumps(
        {
            "family": "p-adic",
            "p": 2,
            "numerators": {"kind": "explicit", "values": [9], "then": {"kind": "explicit", "values": [1, 3]}},
            "exponents": {"kind": "affine-exponent", "a": 1, "b": 0},
        }
    )
    result = invoke("family", "classify", "--spec", spec)
    assert result.exit_code == 1
    assert result.stdout == ""
    assert result.stderr.startswith("error: the numerator sequence must be infinite")


def test_usage_errors_exit_two():
    result = invoke("ns", "frobenius", "--gens", "4,9x")
    assert result.exit_code == 2

    result = invoke("fg", "member", "--gens", "1/2", "--x", "0.5")
    assert result.exit_code == 2

    result = invoke("family", "gen", "--spec", '{"family": "no-such"}', "--n", "1")
    assert result.exit_code == 1

    for argv in (
        ("ns", "frobenius", "--gen", "4,9"),  # flags are never abbreviated
        ("cyclic", "trade", "--r", "3/2", "--z", '{"terms": [{"exponent": 1, "mult": 3}]}', "--t", "1",
         "--direction", "sideways"),
        ("family", "gen", "--spec", '{"family": "half-prime"}', "--n", "0"),
        ("ns",),
        ("ns", "frobenius", "--gens", "4,9", "--json", "extra"),
        ("verify", "run", "--claims", ","),
        ("verify", "run", "--claims", ""),
    ):
        result = invoke(*argv)
        assert result.exit_code == 2, argv
        assert result.stdout == "", argv


@pytest.mark.parametrize(
    "argv",
    [
        ("ns", "frobenius", "--gens", "4,{}"),
        ("ns", "member", "--gens", "4,9", "--x", "{}"),
        ("verify", "run", "--claims", "C5", "--limit", "{}"),
    ],
    ids=["--gens", "--x", "--limit"],
)
def test_integer_options_refuse_past_the_digit_limit(argv):
    # 5,000 digits, past Python's str-to-int limit of 4,300: read_int's
    # refusal, never Python's advice to raise the limit.
    flag = argv[-2]
    result = invoke(*argv[:-1], argv[-1].format("7" * 5000))
    assert result.exit_code == 2 and result.stdout == ""
    assert f"argument {flag}: cannot read an integer with more than" in result.stderr
    assert "set_int_max_str_digits" not in result.stderr
    # A token that is no numeral keeps int()'s message.
    result = invoke(*argv[:-1], argv[-1].format("abc"))
    assert result.exit_code == 2 and result.stdout == ""
    assert f"argument {flag}: invalid literal for int() with base 10:" in result.stderr
    assert "digits" not in result.stderr


@pytest.mark.parametrize(
    ("token", "message"),
    [
        ("[1]", "spec must be a JSON object"),
        ('"calkin-wilf"', "spec must be a JSON object"),
        ("3", "spec must be a JSON object"),
        ("no-such-spec.json", "spec file not found: no-such-spec.json"),
    ],
)
def test_spec_tokens_that_are_not_objects(token, message, tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    result = invoke("family", "gen", "--spec", token, "--n", "1")
    assert result.exit_code == 1
    assert isinstance(result.exception, SystemExit)  # not a traceback
    assert result.stderr == f"error: {message}\n"


def test_spec_token_naming_a_file_is_read_as_the_file(tmp_path, monkeypatch):
    monkeypatch.chdir(tmp_path)
    (tmp_path / "3").write_text('{"family": "half-prime"}')
    result = invoke("family", "gen", "--spec", "3", "--n", "1")
    assert result.exit_code == 0
    assert result.stdout == "1/2\n"


def test_json_outputs_are_single_documents():
    for argv in (
        ("ns", "frobenius", "--gens", "4,9", "--json"),
        ("fg", "member", "--gens", "2/77,3/77", "--x", "1/7", "--json"),
        ("family", "classify", "--spec", '{"family": "half-prime"}', "--json"),
        ("cyclic", "member", "--r", "2/3", "--x", "4/3", "--json"),
    ):
        result = invoke(*argv)
        assert result.exit_code == 0, argv
        json.loads(result.output)  # parses as exactly one document
        assert result.output.endswith("\n")
        assert result.output.count("\n") == 1


def test_byte_identical_reruns():
    for argv in (
        ("family", "classify", "--spec", '{"family": "two-adic-odd-prime"}'),
        ("cyclic", "factorize", "--r", "2/3", "--x", "4/3", "--cap", "4", "--json"),
        ("verify", "run", "--claims", "C9", "--json"),
    ):
        assert invoke(*argv).output == invoke(*argv).output


def test_main_runs_under_click_cli_runner():
    # perfbench's in-process runner, cli_runner(in_process=True) in
    # perfbench/workloads.py, drives main through click.testing.CliRunner
    # until ROADMAP item 0 replaces it.
    pytest.importorskip("click")
    from click.testing import CliRunner

    result = CliRunner().invoke(main, ["ns", "frobenius", "--gens", "4,9"])
    assert (result.exit_code, result.stdout) == (0, "23\n")
    result = CliRunner().invoke(main, ["ns", "frobenius", "--gens", "4,6"])
    assert (result.exit_code, result.output) == (1, "error: gcd(4, 6) > 1, the complement is infinite\n")
    assert CliRunner().invoke(main, ["ns", "frobenius"]).exit_code == 2


def test_every_command_accepts_json():
    commands = [(group, name) for group, (_, cmds) in COMMANDS.items() for name in cmds]
    assert len(commands) >= 24
    for group, name in commands:
        result = invoke(group, name, "--help")
        assert result.exit_code == 0, (group, name)
        usage = result.stdout.split("\n\n")[0]
        assert usage.count("--json") == 1 and "[--json]" in usage, (group, name)


@pytest.mark.parametrize(
    "argv",
    [[group, name, "--help"] for group, (_, cmds) in COMMANDS.items() for name in cmds]
    + [
        ["--help"],
        [],
        ["fg", "--help"],
        ["fg"],
        ["fg", "bogus"],
        ["bogus"],
        ["ns", "frobenius"],  # a missing required option
        ["ns", "frobenius", "--gens", "4,9x"],
        ["ns", "frobenius", "--gens", "4,9", "--json", "extra"],  # the root's usage
        ["fg", "iso", "--gens", "1/2"],  # the command's own usage error
        ["ns", "frobenius", "--gens", "4,9"],
        ["verify", "run", "--claims", ","],
    ],
    ids=lambda argv: " ".join(argv) or "(no arguments)",
)
def test_the_parser_built_for_argv_prints_what_the_full_tree_prints(argv, monkeypatch):
    built = invoke(*argv)
    monkeypatch.setattr(cli, "parser", lambda argv=(): parser())
    full = invoke(*argv)
    assert (built.exit_code, built.stdout, built.stderr) == (full.exit_code, full.stdout, full.stderr)


def _subcommands(tree: argparse.ArgumentParser) -> dict:
    (action,) = (a for a in tree._actions if isinstance(a, argparse._SubParsersAction))
    return action.choices


def test_a_command_line_builds_only_the_parsers_it_names():
    named = _subcommands(parser(["fg", "atoms", "--gens", "1/2,1/3"]))
    assert list(named) == ["fg"]
    assert list(_subcommands(named["fg"])) == ["atoms"]
    for argv in ([], ["fg"], ["fg", "bogus"], ["bogus", "atoms"]):
        groups = _subcommands(parser(argv))
        assert list(groups) == list(COMMANDS), argv
        for group, (_, cmds) in COMMANDS.items():
            assert list(_subcommands(groups[group])) == list(cmds), argv
