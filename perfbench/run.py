"""Benchmark entry point: one workload, one seed, one run.

    python3 perfbench/run.py --workload ns-decide --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the library is imported from
./src, and nothing is installed. Every workload runs in fresh worker
processes (perfbench/worker.py), closed loop, one client: one op at a
time, the next issued only when the previous answer has returned.

--trace 0 prints the end-to-end metrics. Set-up is timed from process
start to the end of the warm-up, less the benchmark's own input drawing
and answer checking in it, over several fresh processes, and reported
as the median; the timed loop then runs for --seconds and on
to the end of the schedule cycle under way. Times are scaled to a
nominal machine speed (reference.py); the raw figures are printed too.

--trace 1 prints the per-layer metrics. It runs a fixed op prefix,
whose length follows from --seconds, once untraced and once traced,
each in a fresh process, so work counts repeat exactly for one seed and
the two give the tracing overhead.

The last line of standard output is one JSON object with the keys
correct, attempted, failed and metrics. Human-readable lines come
before it. The process exits 2 without a result when ./src holds no
library.
"""

from __future__ import annotations

import argparse
import compileall
import json
import os
import statistics
import subprocess
import sys
import threading
import time
from pathlib import Path

import reference
from tracing import LAYERS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench"
WORKER = HERE / "worker.py"

WORKLOADS = ("ns-decide", "fg-enumerate", "families-atoms", "verify-cli")
SETUP_SAMPLES = 9  # fresh processes timed for set-up; the last one also runs the loop
# Ops per second of --seconds in the traced prefix: about half of
# --seconds untraced, at nominal speed (see reference.py).
TRACE_OPS_PER_SECOND = {"ns-decide": 115, "fg-enumerate": 570, "families-atoms": 35, "verify-cli": 3}
IMPORT_SAMPLES = 5
# (metric, span, span statistic, unit)
SPAN_METRICS = (
    ("arith.is_prime.calls", "arith.is_prime", "calls", "count"),
    ("arith.is_prime.distinct_ratio", "arith.is_prime", "distinct_ratio", "ratio"),
    ("arith.nth_prime.calls", "arith.nth_prime", "calls", "count"),
    ("semigroup.frobenius.self_s", "semigroup.frobenius", "self_s", "s"),
    ("semigroup.contains.calls", "semigroup.contains", "calls", "count"),
    ("semigroup.contains.self_s", "semigroup.contains", "self_s", "s"),
    ("semigroup.representations.results", "semigroup.representations", "results", "count"),
    ("monoid.factorizations.results", "monoid.factorizations", "results", "count"),
    ("monoid.atoms.self_s", "monoid.atoms", "self_s", "s"),
    ("monoid.to_scaled_integer.calls", "monoid.to_scaled_integer", "calls", "count"),
    ("monoid.contains.calls", "monoid.contains", "calls", "count"),
    ("families.value_at.self_s", "families.value_at", "self_s", "s"),
    ("families.prime_at.calls", "families.prime_at", "calls", "count"),
    ("families.prime_at.self_s", "families.prime_at", "self_s", "s"),
    ("families.generator_at.calls", "families.generator_at", "calls", "count"),
    ("cyclic.factorizations.results", "cyclic.cyclic_factorizations", "results", "count"),
    ("witnesses.dense_atom_monoid.self_s", "witnesses.dense_atom_monoid", "self_s", "s"),
)


class WorkerFailed(RuntimeError):
    pass


def _env() -> dict:
    return dict(os.environ, PYTHONPATH=str(SRC), PYTHONHASHSEED="0")


def run_worker(args: list[str], limit_s: float) -> tuple[float, dict | None]:
    """Start one worker; return (its set-up seconds, its result or None).

    Set-up is the time to READY less the seconds the worker reports it
    spent on the benchmark's own inputs and checks during the warm-up.
    The worker is killed if it outlives limit_s, and always waited for.
    """
    t0 = time.perf_counter()
    proc = subprocess.Popen(
        [sys.executable, str(WORKER), *args, "--src", str(SRC), "--out", str(OUT)],
        stdout=subprocess.PIPE,
        text=True,
        env=_env(),
        cwd=ROOT,
    )
    killer = threading.Timer(limit_s, proc.kill)
    killer.start()
    try:
        line = proc.stdout.readline()
        ready_s = time.perf_counter() - t0
        rest = proc.stdout.read()
        code = proc.wait()
    finally:
        killer.cancel()
        if proc.poll() is None:
            proc.kill()
        proc.wait()
    ready = line.split()
    if len(ready) != 2 or ready[0] != "READY" or code != 0:
        raise WorkerFailed(f"worker {' '.join(args)} exited with {code}")
    lines = rest.strip().splitlines()
    return ready_s - float(ready[1]), json.loads(lines[-1]) if lines else None


def cli_import_s() -> float:
    """Median time of a fresh `import puiseux.cli`, in its own process."""
    code = "import time; t = time.perf_counter(); import puiseux.cli; print(time.perf_counter() - t)"
    samples = []
    for _ in range(IMPORT_SAMPLES):
        out = subprocess.run(
            [sys.executable, "-c", code], env=_env(), cwd=ROOT, capture_output=True, text=True, timeout=60, check=True
        )
        samples.append(float(out.stdout))
    return statistics.median(samples)


def latency_metrics(result: dict, scaled: bool = True) -> dict:
    """Throughput and latency figures of one worker's ops, scaled to
    nominal machine speed (see reference.py) unless scaled is False."""
    lat = result["latencies_ns"]
    if scaled:
        lat = [t * reference.NOMINAL_NS / r for t, r in zip(lat, result["reference_ns"])]
    order = sorted(range(len(lat)), key=lat.__getitem__)
    n = len(lat)
    # The tail is the highest percentile with at least ten samples beyond it.
    tail_index = max(0, n - 11)
    tail_kinds: dict[str, int] = {}
    for i in order[tail_index:]:
        kind = result["kinds"][result["op_kinds"][i]]
        tail_kinds[kind] = tail_kinds.get(kind, 0) + 1
    lat = [lat[i] for i in order]
    return {
        "ops_per_s": n / (sum(lat) / 1e9),
        "op_p50_ms": statistics.median(lat) / 1e6,
        "op_tail_ms": lat[tail_index] / 1e6,
        "tail_percentile": 100 * (tail_index + 1) / n,
        "samples": n,
        "tail_kinds": tail_kinds,
    }


def end_to_end(workload: str, seed: str, seconds: int) -> tuple[dict, dict]:
    setup, scaled_setup = [], []
    for i in range(SETUP_SAMPLES):
        speed = statistics.median(reference.reference_ns() for _ in range(3))
        args = ["--workload", workload, "--seed", seed]
        if i < SETUP_SAMPLES - 1:
            setup_s, _ = run_worker(args + ["--mode", "setup"], 120)
        else:
            setup_s, result = run_worker(args + ["--mode", "run", "--seconds", str(seconds)], seconds + 150)
        setup.append(setup_s)
        scaled_setup.append(setup_s * reference.NOMINAL_NS / speed)
    lat = latency_metrics(result)
    raw = latency_metrics(result, scaled=False)
    metrics = {
        "setup_s": (statistics.median(scaled_setup), "s"),
        "ops_per_s": (lat["ops_per_s"], "1/s"),
        "op_p50_ms": (lat["op_p50_ms"], "ms"),
        "op_tail_ms": (lat["op_tail_ms"], "ms"),
        "peak_rss_mb": (result["peak_rss_mb"], "MB"),
    }
    notes = {
        "op_tail_ms is": f"p{lat['tail_percentile']:.2f} of {lat['samples']} op samples",
        "op kinds at and beyond the tail": lat["tail_kinds"],
        "raw, unscaled": (
            f"setup_s {statistics.median(setup):.4f}  ops_per_s {raw['ops_per_s']:.4f}  "
            f"op_p50_ms {raw['op_p50_ms']:.4f}  op_tail_ms {raw['op_tail_ms']:.4f}"
        ),
        "reference loop median (ns)": statistics.median(result["reference_ns"]),
        "failed_ratio": result["failed"] / result["attempted"],
        "failures by op kind": result["failures"],
        "setup samples, raw (s)": [round(s, 4) for s in setup],
        "answer digest": result["digest"],
    }
    return result, {"metrics": metrics, "notes": notes}


def _span(spans: dict, name: str, key: str):
    return spans.get(name, {}).get(key) or 0


def per_layer(workload: str, seed: str, seconds: int) -> tuple[dict, dict]:
    n_ops = max(1, round(TRACE_OPS_PER_SECOND[workload] * seconds))
    fixed = ["--workload", workload, "--seed", seed, "--mode", "fixed", "--ops", str(n_ops)]
    _, plain = run_worker(fixed, 170)
    _, traced = run_worker(fixed + ["--trace"], 170)
    traced["failed"] = max(traced["failed"], plain["failed"])
    traced["warmup_failed"] += plain["warmup_failed"]
    if plain["digest"] != traced["digest"]:
        traced["failed"] = max(traced["failed"], 1)
        traced["failures"]["traced answers differ from untraced"] = 1
    spans = traced["spans"]

    def layer_self(layer):
        return sum(v["self_s"] for n, v in spans.items() if n.split(".")[0] == layer)

    metrics = {f"{layer}.self_s": (layer_self(layer), "s") for layer in LAYERS}
    for name, span, key, unit in SPAN_METRICS:
        metrics[name] = (_span(spans, span, key), unit)
    for i in range(1, 16):
        metrics[f"verifier.C{i}.s"] = (_span(spans, f"verifier.C{i}", "total_s"), "s")
    metrics["cli.import_s"] = (cli_import_s(), "s")
    plain_rate = latency_metrics(plain)["ops_per_s"]
    traced_rate = latency_metrics(traced)["ops_per_s"]
    metrics["trace.untraced_ops_per_s"] = (plain_rate, "1/s")
    metrics["trace.ops_per_s"] = (traced_rate, "1/s")
    metrics["trace.overhead_ratio"] = (plain_rate / traced_rate, "ratio")
    metrics["trace.spans"] = (traced["span_count"], "count")
    notes = {
        "fixed prefix ops": n_ops,
        "answer digest": traced["digest"],
        "span file": os.path.relpath(traced["span_file"], ROOT),
    }
    return traced, {"metrics": metrics, "notes": notes}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--seconds", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args()

    if not (SRC / "puiseux" / "__init__.py").is_file():
        print(f"error: no library source at {SRC / 'puiseux'}; run from a source checkout", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    # One CPU for this process and every process it starts, so the
    # reference loop times the CPU the measured ops run on.
    os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    # Build: byte-compile once, so no run pays compilation inside set-up.
    compileall.compile_dir(str(SRC / "puiseux"), quiet=1)
    compileall.compile_dir(str(HERE), quiet=1)

    measure = per_layer if args.trace else end_to_end
    try:
        result, report = measure(args.workload, args.seed, args.seconds)
    except (WorkerFailed, subprocess.SubprocessError) as failure:
        print(f"error: {failure}", file=sys.stderr)
        return 1

    print(f"workload {args.workload}  seed {args.seed}  trace {args.trace}  closed loop, 1 client")
    for name, (value, unit) in report["metrics"].items():
        print(f"  {name:40s} {value:>16.6g} {unit}")
    for name, value in report["notes"].items():
        print(f"  {name}: {value}")
    correct = result["failed"] == 0 and result["warmup_failed"] == 0
    print(
        json.dumps(
            {
                "correct": correct,
                "attempted": result["attempted"],
                "failed": result["failed"],
                "metrics": {n: {"value": v, "unit": u} for n, (v, u) in report["metrics"].items()},
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
