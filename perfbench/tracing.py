"""Span tracing installed from outside the library.

install() wraps every public function and public method that the
layer modules define, and rebinds each wrapped function in every
puiseux module namespace that imported it (monoid holds its own
p_adic_valuation, verifier and witnesses their own is_prime, and so
on), so calls between layers are seen too. A span records its name,
start, end, parent span and op id in flat arrays kept in memory and
written out once at the end. Self time is a span's duration minus the
time its child spans cover.

Each call's bookkeeping sits inside its own span, so tracing cost is
billed to the callee, not to its caller.
"""

from __future__ import annotations

import functools
import importlib
import inspect
import json
import sys
import time
from array import array

LAYERS = ("arith", "semigroup", "monoid", "families", "cyclic", "witnesses", "verifier", "cli")

# Spans whose list results are counted: a work count that no speed-up
# may change.
RESULT_SPANS = {"semigroup.representations", "monoid.factorizations", "cyclic.cyclic_factorizations"}
# Spans whose distinct first arguments are counted, to see repeated work.
DISTINCT_SPANS = {"arith.is_prime"}


class Tracer:
    def __init__(self) -> None:
        self.names: list[str] = []
        self.ids: dict[str, int] = {}
        self.name = array("i")
        self.parent = array("i")
        self.op = array("i")
        self.start = array("q")
        self.end = array("q")
        self.stack = [-1]
        self.child_ns = [0]
        self.op_id = -1
        # per name id: [calls, total ns, self ns, results]
        self.stats: list[list[int]] = []
        self.distinct: dict[int, set] = {}

    def intern(self, name: str) -> int:
        if name not in self.ids:
            self.ids[name] = len(self.names)
            self.names.append(name)
            self.stats.append([0, 0, 0, 0])
            if name in DISTINCT_SPANS:
                self.distinct[self.ids[name]] = set()
        return self.ids[name]

    def wrap(self, name: str, fn):
        nid = self.intern(name)
        stat = self.stats[nid]
        seen = self.distinct.get(nid)
        count_results = name in RESULT_SPANS
        clock = time.perf_counter_ns
        tr = self

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            t0 = clock()
            idx = len(tr.start)
            tr.name.append(nid)
            tr.parent.append(tr.stack[-1])
            tr.op.append(tr.op_id)
            tr.start.append(t0)
            tr.end.append(0)
            tr.stack.append(idx)
            tr.child_ns.append(0)
            try:
                out = fn(*args, **kwargs)
                if count_results:
                    stat[3] += len(out)
                if seen is not None:
                    seen.add(args[0])
                return out
            finally:
                tr.stack.pop()
                inner = tr.child_ns.pop()
                t1 = clock()
                tr.end[idx] = t1
                tr.child_ns[-1] += t1 - t0
                stat[0] += 1
                stat[1] += t1 - t0
                stat[2] += t1 - t0 - inner

        return traced

    def summary(self) -> dict:
        """Per span name: calls, total and self seconds, results, and
        distinct first arguments with their share of calls."""
        out = {}
        for nid, name in enumerate(self.names):
            calls, total, own, results = self.stats[nid]
            distinct = len(self.distinct[nid]) if nid in self.distinct else None
            out[name] = {
                "calls": calls,
                "total_s": total / 1e9,
                "self_s": own / 1e9,
                "results": results,
                "distinct": distinct,
                "distinct_ratio": distinct / calls if distinct is not None and calls else None,
            }
        return out

    def write(self, path) -> None:
        """One JSON header line, then the span arrays as raw bytes."""
        fields = (("name", self.name), ("parent", self.parent), ("op", self.op),
                  ("start_ns", self.start), ("end_ns", self.end))
        header = {
            "names": self.names,
            "spans": len(self.start),
            "fields": [[f, a.typecode, a.itemsize] for f, a in fields],
            "byteorder": sys.byteorder,
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for _, a in fields:
                a.tofile(fh)


def _per_claim(tracer: Tracer, run_claims, claim_ids):
    """run_claims, dispatched one claim at a time so each claim gets a
    span; the outcome list is the same as one call over all ids."""

    def dispatch(ids="all", parameters=None):
        chosen = claim_ids() if ids == "all" else sorted(ids, key=lambda c: int(c[1:]))
        out = []
        for cid in chosen:
            out.extend(tracer.wrap(f"verifier.{cid}", run_claims)((cid,), parameters))
        return out

    return functools.wraps(run_claims)(dispatch)


def install(tracer: Tracer) -> None:
    modules = {layer: importlib.import_module("puiseux." + layer) for layer in LAYERS}
    namespaces = [m for n, m in sys.modules.items() if n == "puiseux" or n.startswith("puiseux.")]

    def rebind(original, replacement) -> None:
        for ns in namespaces:
            for attr, value in list(vars(ns).items()):
                if value is original:
                    setattr(ns, attr, replacement)

    verifier = modules["verifier"]
    rebind(verifier.run_claims, _per_claim(tracer, verifier.run_claims, verifier.claim_ids))

    for layer, mod in modules.items():
        for attr, obj in list(vars(mod).items()):
            if attr.startswith("_") or getattr(obj, "__module__", None) != mod.__name__:
                continue
            if inspect.isfunction(obj) and not inspect.isgeneratorfunction(obj):
                rebind(obj, tracer.wrap(f"{layer}.{attr}", obj))
            elif inspect.isclass(obj):
                for name, method in list(vars(obj).items()):
                    if not name.startswith("_") and inspect.isfunction(method):
                        setattr(obj, name, tracer.wrap(f"{layer}.{name}", method))
