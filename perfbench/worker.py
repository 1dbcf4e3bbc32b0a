"""One benchmark process: set up, warm up, run a workload, check it.

Run by run.py in a fresh interpreter per workload, since the library
keeps module-level state (the prime cache) that would otherwise leak
from one workload into the next. The process imports the library,
runs a warm-up pass, the same for every seed, and prints READY with
the seconds of the warm-up spent drawing inputs, computing the expected
answers and checking them; run.py times set-up from process start to
that line and takes those seconds off, so set-up holds interpreter
start, the imports and the warm-up's calls into the library. Then it
runs the closed loop, one op at a time with one client, checks every
answer between ops and prints one JSON line of results.

Modes:
  setup  stop after READY.
  run    issue ops until --seconds have passed, then finish the
         schedule cycle under way.
  fixed  issue exactly --ops ops, optionally traced, so work counts
         and answers repeat exactly for one seed. verify-cli replays
         its argv in-process through the click entry point here.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import random
import resource
import sys
import time

import reference
import workloads

WARMUP_OPS = {"ns-decide": 26, "fg-enumerate": 60, "families-atoms": 30, "verify-cli": 1}


def _check(op, answer, error) -> bool:
    if error is not None:
        return False
    try:
        return bool(op.check(answer))
    except Exception:  # a malformed answer is a wrong answer
        return False


def _digest(digest, kind, answer) -> None:
    # Item by item, so a long answer never becomes one long string.
    digest.update(f"{kind}:".encode())
    for item in answer if isinstance(answer, (list, tuple)) else (answer,):
        digest.update(f"{item!r}\n".encode())


def _call(op, tracer, op_id):
    if tracer is not None:
        tracer.op_id = op_id
    t0 = time.perf_counter_ns()
    try:
        answer, error = op.call(), None
    except Exception as exc:  # counted as a failed op
        answer, error = None, exc
    return answer, error, time.perf_counter_ns() - t0


def main() -> int:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=workloads.WORKLOADS)
    ap.add_argument("--seed", required=True)
    ap.add_argument("--mode", required=True, choices=("setup", "run", "fixed"))
    ap.add_argument("--seconds", type=float, default=0.0)
    ap.add_argument("--ops", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--src", required=True)
    ap.add_argument("--out", required=True)
    args = ap.parse_args()

    # verify-cli spawns one CLI process per op, except in fixed mode,
    # where both the traced and the untraced pass replay the same argv
    # in this process so that tracing overhead compares like with like.
    in_process = args.mode == "fixed" or args.workload != "verify-cli"
    runner = workloads.cli_runner(args.src, in_process) if args.workload == "verify-cli" else None
    warm_failed = 0
    # The warm-up stream is the same for every seed and disjoint from the
    # measured one, so set-up does the same work in every run and no
    # result cache can turn the measured pass into lookups.
    warm = workloads.stream(args.workload, random.Random(f"{args.workload}:warm"), runner)
    warm_ops = (op for op in warm if op is not None)
    harness_ns = 0
    for _ in range(WARMUP_OPS[args.workload]):
        t0 = time.perf_counter_ns()
        op = next(warm_ops)
        t1 = time.perf_counter_ns()
        answer, error, _ = _call(op, None, -1)
        t2 = time.perf_counter_ns()
        warm_failed += not _check(op, answer, error)
        harness_ns += t1 - t0 + time.perf_counter_ns() - t2
    print(f"READY {harness_ns / 1e9}", flush=True)
    if args.mode == "setup":
        return 0

    tracer = None
    if args.trace:
        import tracing

        tracer = tracing.Tracer()
        tracing.install(tracer)
        if runner is not None:
            runner = tracer.wrap("cli.command", runner)

    ops = workloads.stream(args.workload, random.Random(f"{args.workload}:{args.seed}:run"), runner)
    digest = hashlib.sha256()
    latencies = []
    reference_times = []  # the reference loop's time when each op ran
    kinds: dict[str, int] = {}
    op_kinds = []  # index into kinds, per op
    calibrator = reference.Calibrator()
    failures: dict[str, int] = {}
    deadline = time.perf_counter() + args.seconds
    while True:
        if args.mode == "fixed" and len(latencies) >= args.ops:
            break
        op = next(ops)
        if op is None:  # end of a cycle: the only place a timed run stops
            if args.mode == "run" and time.perf_counter() >= deadline:
                break
            continue
        reference_times.append(calibrator.now_ns())
        op_kinds.append(kinds.setdefault(op.kind, len(kinds)))
        answer, error, ns = _call(op, tracer, len(latencies))
        latencies.append(ns)
        # Checked and dropped at once, outside the op's timed call, so
        # memory holds one answer at a time, as it would for a user.
        _digest(digest, op.kind, answer)
        if not _check(op, answer, error):
            failures[op.kind] = failures.get(op.kind, 0) + 1

    who = resource.RUSAGE_CHILDREN if not in_process else resource.RUSAGE_SELF
    result = {
        "attempted": len(latencies),
        "failed": sum(failures.values()),
        "failures": failures,
        "warmup_failed": warm_failed,
        "latencies_ns": latencies,
        "reference_ns": reference_times,
        "kinds": list(kinds),
        "op_kinds": op_kinds,
        "peak_rss_mb": resource.getrusage(who).ru_maxrss / 1024,
        "digest": digest.hexdigest(),
    }
    if tracer is not None:
        result["spans"] = tracer.summary()
        result["span_count"] = len(tracer.start)
        path = os.path.join(args.out, f"spans-{args.workload}.bin")
        tracer.write(path)
        result["span_file"] = path
    print(json.dumps(result), flush=True)
    return 0


if __name__ == "__main__":
    sys.exit(main())
