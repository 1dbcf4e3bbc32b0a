"""Determinism and contract self-check for the benchmark.

    python3 perfbench/selfcheck.py

For each workload: two traced fixed-prefix runs with one seed must give
identical answer digests and identical work counts (calls, results and
distinct arguments of every span), and a run with another seed must
give other answers; then one short run.py call per trace mode must
print exactly the metric names BENCHMARK.json lists. Exits 1 on any
mismatch.
"""

from __future__ import annotations

import json
import subprocess
import sys

import run

SEED_A, SEED_B = "101", "202"
PREFIX_SECONDS = 2  # the traced prefix is this many seconds' worth of ops


def work_counts(result: dict) -> dict:
    return {
        name: (s["calls"], s["results"], s["distinct"]) for name, s in result["spans"].items()
    }


def traced(workload: str, seed: str) -> dict:
    n_ops = max(1, round(run.TRACE_OPS_PER_SECOND[workload] * PREFIX_SECONDS))
    _, result = run.run_worker(
        ["--workload", workload, "--seed", seed, "--mode", "fixed", "--ops", str(n_ops), "--trace"], 170
    )
    return result


def metric_names(workload: str, trace: int) -> list[str]:
    out = subprocess.run(
        [sys.executable, str(run.HERE / "run.py"), "--workload", workload, "--seed", SEED_A,
         "--seconds", "1", "--trace", str(trace)],
        cwd=run.ROOT, capture_output=True, text=True, timeout=170, check=True,
    )
    return list(json.loads(out.stdout.strip().splitlines()[-1])["metrics"])


def main() -> int:
    run.OUT.mkdir(exist_ok=True)
    spec = json.loads((run.ROOT / "BENCHMARK.json").read_text())
    problems = []
    for workload in run.WORKLOADS:
        a1, a2, b = traced(workload, SEED_A), traced(workload, SEED_A), traced(workload, SEED_B)
        same_digest = a1["digest"] == a2["digest"]
        same_counts = work_counts(a1) == work_counts(a2)
        seed_matters = a1["digest"] != b["digest"]
        correct = a1["failed"] == a2["failed"] == b["failed"] == 0
        print(
            f"{workload}: digest repeats {same_digest}, work counts repeat {same_counts}, "
            f"other seed changes inputs {seed_matters}, all answers correct {correct}"
        )
        if not (same_digest and same_counts and seed_matters and correct):
            problems.append(workload)

        for trace, key in ((0, "end_to_end"), (1, "per_layer")):
            want = [m["name"] for m in spec[key]]
            got = metric_names(workload, trace)
            print(f"{workload}: --trace {trace} prints the {key} metrics of BENCHMARK.json: {got == want}")
            if got != want:
                problems.append(
                    f"{workload} {key}: missing {sorted(set(want) - set(got))}, extra {sorted(set(got) - set(want))}"
                )
    if problems:
        print("FAILED:", problems)
        return 1
    print("OK")
    return 0


if __name__ == "__main__":
    sys.exit(main())
