import random
import time
from fractions import Fraction
from pathlib import Path

import pytest

from puiseux import verifier
from puiseux.errors import NonPositive, ParseError, UnknownClaim
from puiseux.families import BfNotFf, truncate
from puiseux.monoid import Factorization
from puiseux.verifier import ClaimParameters, _unit_sums, claim_ids, run_claims

from conftest import run_cli
from oracles import brute_cyclic_factorizations, brute_unit_sums

FIXTURES = Path(__file__).resolve().parent / "fixtures"


def test_claim_ids_cover_c1_through_c15():
    ids = claim_ids()
    assert ids == tuple(f"C{n}" for n in range(1, 16))


def test_run_all_default_statuses():
    outcomes = run_claims("all")
    assert [o.claim_id for o in outcomes] == list(claim_ids())
    for o in outcomes:
        expected = "data-only" if o.claim_id == "C11" else "confirmed"
        assert o.status == expected, (o.claim_id, o.status, o.witnesses)
        assert len(o.witnesses) >= 1
        assert o.citation


def test_a_failed_identity_is_an_error_and_the_other_claims_still_run(monkeypatch):
    # kprimary_antimatter_witness re-checks its decomposition exactly; a
    # wrong sum must reach run_claims as a PuiseuxError, also under -O.
    monkeypatch.setattr(Factorization, "evaluate", lambda self: Fraction(0))
    outcomes = run_claims(["C5", "C6", "C9"])
    assert [(o.claim_id, o.status) for o in outcomes] == [
        ("C5", "confirmed"),
        ("C6", "error"),
        ("C9", "confirmed"),
    ]
    assert outcomes[1].witnesses == ("the decomposition does not sum to 1/6",)


def _moved(got, **offsets):
    """The record got with each named field moved by its offset."""
    return type(got)(**{**got.__dict__, **{k: getattr(got, k) + d for k, d in offsets.items()}})


# A library answer made wrong on purpose refutes its claim with the
# witness the checks gave when they built every detail up front.
@pytest.mark.parametrize(
    ("claim", "owner", "name", "wrong", "witness"),
    [
        (
            "C1", verifier, "approximate",
            lambda real: lambda spec, target, eps: _moved(real(spec, target, eps), value=eps),
            {"family": {"family": "power-denominator", "q": 2}, "gap": "-7/2080"},
        ),
        (
            "C13", verifier, "generalized_cyclic_embed",
            lambda real: lambda *args: _moved(real(*args), coefficient=1),
            {"base": "2/35", "coefficient": 8, "power": 1, "prime": 2, "ratio_index": 1, "value": "2/5"},
        ),
        (
            "C15", verifier.FgMonoid, "contains",
            lambda real: lambda self, x: not real(self, x),
            {"generators": ["3/7", "11"], "x": "2/5"},
        ),
    ],
)
def test_a_wrong_library_answer_refutes_with_the_same_witness(monkeypatch, claim, owner, name, wrong, witness):
    monkeypatch.setattr(owner, name, wrong(getattr(owner, name)))
    (outcome,) = run_claims([claim])
    assert (outcome.status, outcome.witnesses) == ("refuted", (witness,))


def test_selection_is_sorted_and_validated():
    outcomes = run_claims(["C14", "C2"])
    assert [o.claim_id for o in outcomes] == ["C2", "C14"]
    with pytest.raises(UnknownClaim):
        run_claims(["C99"])
    with pytest.raises(UnknownClaim):
        run_claims(["C0"])


def test_duplicate_ids_run_once():
    outcomes = run_claims(["C3", "C1", "C1", "C3"])
    assert [o.claim_id for o in outcomes] == ["C1", "C3"]


def test_claim_error_is_contained():
    tight = run_claims("all", ClaimParameters(prime_search_limit=1))
    default = run_claims("all")
    assert [o.claim_id for o in tight] == list(claim_ids())
    by_id = {o.claim_id: o for o in tight}
    assert by_id["C6"].status == "error"
    assert len(by_id["C6"].witnesses) == 1
    assert "<= 1" in by_id["C6"].witnesses[0]
    for want in default:
        if want.claim_id == "C6":
            continue
        got = by_id[want.claim_id]
        assert (got.status, got.witnesses) == (want.status, want.witnesses)


# Each field is an exact integer: floats and bools are refused, never
# read as 50, 3, 10 or 1.
@pytest.mark.parametrize(
    "fields",
    [
        {"truncation": 50.5},
        {"exponent_cap": 3.0},
        {"prime_search_limit": 10.0},
        {"truncation": True},
        {"exponent_cap": False},
        {"prime_search_limit": True},
        {"seed": 1.5},
        {"seed": True},
    ],
    ids=repr,
)
def test_parameters_refuse_inexact_values(fields):
    ((field, value),) = fields.items()
    with pytest.raises(ParseError, match=f"^{field}: expected an integer, got {value!r}$"):
        ClaimParameters(**fields)


# The lower bounds of verify run's options, naming the field.
@pytest.mark.parametrize(
    ("field", "value"),
    [("truncation", 1), ("exponent_cap", 0), ("prime_search_limit", 0)],
)
def test_parameters_refuse_values_below_their_bounds(field, value):
    with pytest.raises(NonPositive, match=field):
        ClaimParameters(**{field: value})


def test_parameters_take_their_bounds_and_any_seed():
    params = ClaimParameters(truncation=2, exponent_cap=1, prime_search_limit=1, seed=-(10**30))
    assert [o.claim_id for o in run_claims("all", params)] == list(claim_ids())


# Every claim draws from its own stream of the seed, so a claim run
# alone reports what it reports in a full run.
@pytest.mark.parametrize("params", [ClaimParameters(), ClaimParameters(truncation=100)], ids=["default", "truncation=100"])
def test_a_claim_run_alone_matches_the_full_run(params):
    full = {o.claim_id: o for o in run_claims("all", params)}
    for cid in claim_ids():
        assert run_claims([cid], params) == [full[cid]], cid


def test_c11_counts_match_independent_enumeration():
    outcome = run_claims(["C11"])[0]
    assert outcome.status == "data-only"
    r, x = Fraction(2, 3), Fraction(4, 3)
    for row in outcome.witnesses:
        want = brute_cyclic_factorizations(r, x, row["cap"])
        assert row["count"] == len(want), row
    by_cap = {row["cap"]: row["count"] for row in outcome.witnesses}
    assert by_cap[1] == 1 and by_cap[2] == 2 and by_cap[3] == 3


def test_reports_are_deterministic():
    first = [o.as_mapping() for o in run_claims("all")]
    second = [o.as_mapping() for o in run_claims("all")]
    assert first == second


@pytest.mark.parametrize("truncation", [50, 100])
def test_verify_run_json_matches_pinned_document(truncation):
    # Pins every claim's witnesses byte for byte, among them the family,
    # sequence and prime-support JSON that C3, C8 and C10 print.
    result = run_cli(["verify", "run", "--json", "--truncation", str(truncation)])
    assert result.exit_code == 0
    assert result.stdout_bytes == (FIXTURES / f"verify_run_truncation_{truncation}.json").read_bytes()


def test_parameters_travel_into_outcomes():
    params = ClaimParameters(truncation=20, exponent_cap=4)
    outcome = run_claims(["C11"], params)[0]
    assert outcome.parameters.exponent_cap == 4
    assert len(outcome.witnesses) == 4
    mapping = outcome.as_mapping()
    assert mapping["parameters"]["truncation"] == 20
    assert set(mapping) == {
        "claim_id",
        "status",
        "witnesses",
        "parameters",
        "citation",
    }


def test_c12_scales_with_truncation_parameter():
    outcome = run_claims(["C12"], ClaimParameters(truncation=20))[0]
    assert outcome.status == "confirmed"
    sizes = [row["size"] for row in outcome.witnesses]
    assert sizes == sorted(sizes)
    assert sizes[-1] == 20
    final = outcome.witnesses[-1]
    assert final["factorizations_of_one"] == final["pairs"] + 1


def test_unit_sums_match_brute_force():
    rng = random.Random(17)
    seen_lengths = set()
    for _ in range(200):
        atoms = [
            Fraction(rng.randint(1, 12), rng.randint(1, 12))
            for _ in range(rng.randint(1, 25))
        ]
        got = _unit_sums(atoms)
        assert len(got) == len(set(got))
        assert set(got) == brute_unit_sums(tuple(atoms), 3), atoms
        seen_lengths |= {len(c) for c in got}
    assert seen_lengths == {1, 2, 3}


def test_c12_rows_match_brute_force():
    expected = {}
    for size in range(2, 41):
        found = brute_unit_sums(truncate(BfNotFf(), size).atoms(), 3)
        expected[size] = {
            "size": size,
            "factorizations_of_one": len(found),
            "pairs": sum(1 for c in found if len(c) == 2),
            "atoms_meeting_one": len({a for c in found for a in c}),
            "lengths": sorted({len(c) for c in found}),
        }
    for truncation in range(2, 41):
        outcome = run_claims(["C12"], ClaimParameters(truncation=truncation))[0]
        assert outcome.status == "confirmed", outcome.witnesses
        assert outcome.witnesses[-1]["size"] == truncation
        for row in outcome.witnesses:
            assert row == expected[row["size"]], truncation


def test_c12_at_truncation_400_is_fast():
    start = time.perf_counter()
    outcome = run_claims(["C12"], ClaimParameters(truncation=400))[0]
    elapsed = time.perf_counter() - start
    assert outcome.status == "confirmed", outcome.witnesses
    last = outcome.witnesses[-1]
    assert last["size"] == 400
    assert last["pairs"] == 199
    assert last["factorizations_of_one"] == 200
    assert elapsed < 10.0
