"""One-shot report of pinned cases: before-numbers for later speed-ups.

    python3 perfbench/pinned.py [--out FILE]

Each case runs once, in a fresh interpreter that imports the library
from ./src, and is timed inside that process around the case alone.
A case still running after CAP_S seconds is killed and reported as
"timeout", never as a number. The report does not gate anything; it
pins the slow cases that the roadmap sets targets for.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import subprocess
import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CAP_S = 60

_BIG = "(10007, 10009, 10037, 10039, 10061)"
CASES = {
    "frobenius of (10007,10009,10037,10039,10061)": f"NumericalSemigroup({_BIG}).frobenius()",
    "contains(3742612) on (10007,10009,10037,10039,10061)": f"NumericalSemigroup({_BIG}).contains(3742612)",
    "frobenius of (1001,1003,1007,1013)": "NumericalSemigroup((1001, 1003, 1007, 1013)).frobenius()",
    "first 2000 CalkinWilfTargets": "[CalkinWilfTargets().value_at(n) for n in range(1, 2001)][-1]",
    "first 2000 CongruencePrimes(1,4)": "[CongruencePrimes(1, 4).prime_at(n) for n in range(1, 2001)][-1]",
    **{
        f"claim C12 at truncation {t}": f"run_claims(('C12',), ClaimParameters(truncation={t}))[0].status"
        for t in (50, 100, 200, 400)
    },
    "acceptance criterion 3": (
        "[set(FgMonoid(g[:n]).atoms()) == set(g[:n]) for g in "
        "[tuple(e.atom for e in dense_atom_monoid(1, 100).entries)] for n in range(1, 101)].count(True)"
    ),
}

CHILD = """
import sys, time
from puiseux import *
from puiseux.families import CalkinWilfTargets, CongruencePrimes
t = time.perf_counter()
value = {expr}
print(time.perf_counter() - t)
print(repr(value)[:200])
"""


def run_case(expr: str) -> dict:
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))
    try:
        out = subprocess.run(
            [sys.executable, "-c", CHILD.format(expr=expr)],
            env=env, cwd=ROOT, capture_output=True, text=True, timeout=CAP_S, check=True,
        )
    except subprocess.TimeoutExpired:
        return {"seconds": "timeout", "cap_s": CAP_S}
    seconds, value = out.stdout.splitlines()[:2]
    return {"seconds": float(seconds), "result": value}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--out", type=Path, default=None, help="also write the report as JSON here")
    args = ap.parse_args()
    if not (ROOT / "src" / "puiseux" / "__init__.py").is_file():
        print("error: no library source under ./src", file=sys.stderr)
        return 2

    cpuinfo = Path("/proc/cpuinfo")
    lines = cpuinfo.read_text().splitlines() if cpuinfo.is_file() else []
    cpu = next((l.split(":", 1)[1].strip() for l in lines if l.startswith("model name")), platform.processor())
    report = {
        "hardware": f"{cpu}, {os.cpu_count()} cores",
        "python": platform.python_version(),
        "cap_s": CAP_S,
        "cases": {},
    }
    for name, expr in CASES.items():
        t0 = time.perf_counter()
        report["cases"][name] = got = run_case(expr)
        shown = got["seconds"] if got["seconds"] == "timeout" else f"{got['seconds']:.3f} s"
        print(f"{name:55s} {shown}  ({time.perf_counter() - t0:.1f} s with start-up)", flush=True)
    if args.out is not None:
        args.out.write_text(json.dumps(report, indent=2) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
