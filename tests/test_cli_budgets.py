"""Every CLI command finishes or refuses.

Each row runs `python -m puiseux.cli ...` in its own process, with the
child's address space capped at 512 MB and a 4 s timeout, so a runaway
input fails its row instead of exhausting the machine. A row passes
when the command exits 0, or exits 1 with exactly one `error: ...` line
on stderr; a traceback also exits 1, so stderr is read too. A signal,
a timeout or a traceback fails the row.

Rows that fail today are strict xfails naming the ROADMAP item whose
fix must flip them.
"""

import os
import resource
import shlex
import subprocess
import sys
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src"
MEMORY_BYTES = 512 * 2**20
TIMEOUT_S = 4

PD2 = """'{"family": "power-denominator", "q": 2}'"""
PD3 = """'{"family": "power-denominator", "q": 3}'"""
PADIC = """'{"family": "p-adic", "p": 2, "numerators": {"kind": "power", "base": 3}, \
"exponents": {"kind": "affine-exponent", "a": 2, "b": 0}}'"""
Z = """'{"terms": [{"exponent": 1, "mult": 3}]}'"""
# Composite, with no factor below 10**6, and above the bound where
# Miller-Rabin on fixed bases decides primality.
BIG = 10**27 + 7
BIG_Q = f"""'{{"family": "power-denominator", "q": {BIG}}}'"""
# 5,000 digits, past Python's str-to-int limit of 4,300.
HUGE = "7" * 5000
# 1,200 generators: more walk levels than Python's recursion limit.
MANY_GENS = ",".join(str(g) for g in range(1200, 2400))
# Two coprime 2,201-digit generators, whose Frobenius number has about
# 4,400 digits, past Python's int-to-str limit of 4,300.
GENS_2200 = f"{10**2200 + 1},{10**2200 + 3}"
# The 36 generators of truncate(GeneralizedCyclic((2/5, 4/7, 3)), 36).
GC36 = (
    "4096/244140625,2048/48828125,1024/9765625,512/1953125,256/390625,16777216/13841287201,"
    "128/78125,4194304/1977326743,1048576/282475249,64/15625,262144/40353607,32/3125,"
    "65536/5764801,16384/823543,16/625,4096/117649,1024/16807,8/125,256/2401,4/25,64/343,"
    "16/49,2/5,4/7,3,9,27,81,243,729,2187,6561,19683,59049,177147,531441"
)


def _xfail(cmd: str, item: int, today: str, id: str | None = None):
    return pytest.param(cmd, marks=pytest.mark.xfail(strict=True, reason=f"ROADMAP item {item}: {today}"), id=id)


# One row per subcommand; tests/test_json.py pins their --json output.
SUBCOMMANDS = [
    "ns mingens --gens 4,6,9,13,8",
    "ns frobenius --gens 4,9",
    "ns member --gens 4,9 --x 23",
    "ns factorize --gens 2,3 --x 11",
    "fg atoms --gens 1/2,1/4,3",
    "fg member --gens 2/77,3/77 --x 1/7",
    "fg factorize --gens 1/2,1/3 --x 1",
    "fg lengths --gens 1/2,1/3 --x 2",
    "fg support --gens 1/2,1/3 --x 1/5",
    "fg iso --gens 1/2,1/3 --gens 5/14,15/28",
    f"family gen --spec {PD2} --n 3",
    f"family truncate --spec {PD2} --n 3",
    """family classify --spec '{"family": "cyclic", "r": "2/3"}'""",
    f"family approx --spec {PD2} --target 5/3 --eps 1/10",
    "family dense-atoms --class-index 1 --count 3",
    f"family noniso --spec {PD2} --spec {PD3}",
    "cyclic member --r 2/3 --x 4/3",
    "cyclic factorize --r 2/3 --x 4/3 --cap 3",
    f"cyclic trade --r 3/2 --z {Z} --t 1 --direction up",
    "cyclic embed --ratios 2/5,4/7 --i 1 --m 2",
    "witness kprimary --primes 2,3",
    f"witness padic-atoms --spec {PADIC} --prefix 5",
    "witness sumk-atom --k 3 --indices 1,2,3 --max-index 10",
    "verify run --claims C5,C9",
]

ROWS = SUBCOMMANDS + [
    # Boundary inputs that pass today: refusals and larger sizes.
    "ns frobenius --gens 4,6",
    "ns frobenius --gens 1009,1013,1019",
    "ns member --gens 6,9,20,31 --x 100000",
    "ns factorize --gens 4,9 --x -5",
    "ns factorize --gens 6,9,20,31 --x 2000",
    "fg lengths --gens 6,9,20,31 --x 10000",
    "cyclic member --r 2/3 --x 40",
    f"cyclic trade --r 3/2 --z {Z} --t 2 --direction down",
    "cyclic embed --ratios 2/77,3/77 --i 1 --m 1",
    f"family approx --spec {PD2} --target 5/3 --eps 1/10 --limit 1",
    "witness kprimary --primes 2,3 --limit 1",
    "verify run --claims C99",
    "verify run --claims C6 --limit 10",
    "verify run --claims C5 --report /nonexistent/dir/x.json",
    pytest.param(f"ns factorize --gens {MANY_GENS} --x 2401", id="ns factorize --gens 1200..2399 --x 2401"),
    pytest.param(f"fg factorize --gens {MANY_GENS} --x 2401", id="fg factorize --gens 1200..2399 --x 2401"),
    pytest.param(f"fg lengths --gens {MANY_GENS} --x 2401", id="fg lengths --gens 1200..2399 --x 2401"),
    # One term, whatever the cap: past the recursion limit, and past
    # what a cost linear in the cap could pay.
    "cyclic factorize --r 2/3 --x 2/3 --cap 1500",
    "cyclic factorize --r 2/3 --x 2/3 --cap 100000000",
    # Three generators in closed form; a table of a*b bytes ran out of memory.
    "ns frobenius --gens 100003,100019,100043",
    # One membership test over the 1,140 generators' smaller ones, not atoms().
    "witness sumk-atom --k 3 --indices 1,2,3 --max-index 20",
    # Above the deterministic Miller-Rabin bound: a base refutes BIG.
    f"family gen --spec {BIG_Q} --n 1",
    f"witness kprimary --primes 2,{BIG}",
    # Prime positions 2^39 and 2^44 are refused at once, past the prime
    # cache's bound of 100,000; 2^5 * (2 * 1563 - 1) = 100,000 is reached.
    "family dense-atoms --class-index 40 --count 1",
    """family gen --spec '{"family": "elementary-primary", "primes": {"kind": "partition-class", "index": 45}}' --n 1""",
    "family dense-atoms --class-index 6 --count 1563",
    # Stepping 1 + k*1000003 finds the class's primes at k = 36, 64, 72.
    """family gen --spec '{"family": "elementary-primary", "primes": {"kind": "congruence", "residue": 1, "modulus": 1000003}}' --n 3""",
    # A class prime position past the prime cache's bound of 100,000 is
    # refused before the class list grows.
    """family gen --spec '{"family": "elementary-primary", "primes": {"kind": "congruence", "residue": 1, "modulus": 4}}' --n 3000000""",
    # prime_index refuses a prime past position 100,000 before sieving.
    """family noniso --spec '{"family": "power-denominator", "q": 100000007}' \
--spec '{"family": "elementary-primary", "primes": {"kind": "partition-class", "index": 2}}'""",
    # A prime cofactor below the Miller-Rabin bound, after trial division
    # by every prime below 10**6: one sieve pass.
    """family classify --spec '{"family": "p-adic", "p": 2, "numerators": {"kind": "power", \
"base": 100000000000000000039}, "exponents": {"kind": "affine-exponent", "a": 1, "b": 0}}'""",
    # Rank 10**16 unranks in O(k log rank) binomials to the primes at
    # positions 104,271,310 and 141,421,356, which the prime cache's
    # bound refuses at once; stepping c by one took over 8 s.
    """family gen --spec '{"family": "elementary-k-primary", "k": 2}' --n 10000000000000000""",
    # Powers of 1,299,721^2, a square past the prime cache: its exact
    # square root is the prime.
    """witness padic-atoms --spec '{"family": "p-adic", "p": 2, "numerators": {"kind": "power", \
"base": 1689274677841}, "exponents": {"kind": "affine-exponent", "a": 2, "b": 0}}' --prefix 3""",
    # Denominators of 6,021 and 7,818 digits, past Python's int-to-str
    # limit of 4,300: format_rational refuses them.
    f"family gen --spec {PD2} --n 20000",
    """family gen --spec '{"family": "plus-minus-powers", "p": 3}' --n 25""",
    # Integers of 5,000 digits in a spec or a factorization, bare or
    # quoted: read_int refuses them, the limit kept.
    pytest.param(
        f"""family gen --spec '{{"family": "power-denominator", "q": {HUGE}}}' --n 1""",
        id="family gen --spec <q of 5,000 digits> --n 1",
    ),
    pytest.param(
        f"""family gen --spec '{{"family": "power-denominator", "q": "{HUGE}"}}' --n 1""",
        id="family gen --spec <q of 5,000 digits, quoted> --n 1",
    ),
    pytest.param(
        f"""cyclic trade --r 3/2 --z '{{"terms": [{{"exponent": 1, "mult": {HUGE}}}]}}' --t 1 --direction up""",
        id="cyclic trade --r 3/2 --z <mult of 5,000 digits> --t 1 --direction up",
    ),
    # An answer of about 4,400 digits, past the int-to-str limit:
    # format_int refuses it, plain and --json, the limit kept.
    pytest.param(f"ns frobenius --gens {GENS_2200}", id="ns frobenius --gens <10^2200+1>,<10^2200+3>"),
    pytest.param(f"ns frobenius --gens {GENS_2200} --json", id="ns frobenius --gens <10^2200+1>,<10^2200+3> --json"),
    # One generator 1/10^2200 and x = 10^2200: a length and a
    # multiplicity of 10^4400, refused the same way.
    pytest.param(f"fg lengths --gens 1/{10**2200} --x {10**2200}", id="fg lengths --gens 1/<10^2200> --x <10^2200>"),
    pytest.param(
        f"fg member --gens 1/{10**2200} --x {10**2200} --json", id="fg member --gens 1/<10^2200> --x <10^2200> --json"
    ),
    # Failing today.
    _xfail("ns factorize --gens 6,9,20,31 --x 20000", 7, "MemoryError listing every representation"),
    _xfail("cyclic factorize --r 2/3 --x 40", 7, "killed by a signal listing 27,263,194,918 factorizations"),
    _xfail("cyclic factorize --r 2/3 --x 40 --cap 30", 7, "MemoryError listing factorizations"),
    _xfail(f"fg atoms --gens {GC36}", 15, "no answer within 8 s", id="fg atoms --gens <truncate(GeneralizedCyclic((2/5, 4/7, 3)), 36)>"),
    _xfail("ns frobenius --gens 100003,100019,100043,100049", 3, "MemoryError from a table of at least a1*a2 bytes"),
]


def _cap_memory() -> None:
    # Runs in the child between fork and exec; the test process keeps
    # its own limit.
    resource.setrlimit(resource.RLIMIT_AS, (MEMORY_BYTES, MEMORY_BYTES))


@pytest.mark.parametrize("cmd", ROWS)
def test_command_finishes_or_refuses(cmd):
    env = dict(os.environ, PYTHONPATH=os.pathsep.join(filter(None, [str(SRC), os.environ.get("PYTHONPATH")])))
    try:
        proc = subprocess.run(
            [sys.executable, "-m", "puiseux.cli", *shlex.split(cmd)],
            env=env,
            capture_output=True,
            text=True,
            timeout=TIMEOUT_S,
            preexec_fn=_cap_memory,
        )
    except subprocess.TimeoutExpired:
        pytest.fail(f"no answer within {TIMEOUT_S} s")
    errors = proc.stderr.splitlines()
    refused = proc.returncode == 1 and len(errors) == 1 and errors[0].startswith("error: ")
    assert proc.returncode == 0 or refused, (proc.returncode, proc.stderr[-2000:])
