"""Spans around the public calls between latmass layers, and the per-layer
metrics derived from them.

A traced round replaces the public names each layer is reached through
(``solver.enumerate_systems``, ``siegel.local_invariants``, ...) with
wrappers that record a span ``[name, start, end, parent]``, where parent is
the index of the enclosing span in the same process (-1 at top level).
Spans stay in memory and are written out when the round ends.  Worker
processes forked by ``solve_masses(workers=...)`` inherit the wrappers;
each writes its own spans and cache statistics to ``dump_dir`` when it
exits, and the round merges them.

The untraced round uses ``NullTracer``, whose ``wrap`` hands back the
function itself, so the timed code is the same minus the wrappers.
"""

from __future__ import annotations

import json
import os
from multiprocessing import util as mp_util
from pathlib import Path
from time import perf_counter

# (module attribute, span name) pairs patched in a traced round.  Calls the
# benchmark makes itself are wrapped at the call site under the same names.
PATCHES = (
    ("solver", "enumerate_systems", "roots.enumerate"),
    ("solver", "eisenstein_coefficient", "siegel.coeff"),
    ("solver", "rep_count", "embeddings.rep_count"),
    ("siegel", "system_blocks", "padic.blocks"),
    ("siegel", "local_invariants", "padic.invariants"),
    ("siegel", "f_value", "siegel.poly"),
    ("siegel", "l_value", "exact.lvalue"),
    ("siegel", "zeta_value", "exact.lvalue"),
)

# Per-layer metrics in print order: name -> unit.
LAYER_UNITS = {
    "roots.enumerate_s": "s",
    "roots.systems": "count",
    "padic.blocks_s": "s",
    "padic.invariants_s": "s",
    "padic.invariants_misses": "count",
    "padic.invariants_hit_ratio": "ratio",
    "siegel.coeff_calls": "count",
    "siegel.coeff_s": "s",
    "siegel.coeff_self_s": "s",
    "siegel.poly_s": "s",
    "siegel.f_polynomial_misses": "count",
    "siegel.f_polynomial_hit_ratio": "ratio",
    "siegel.f_eval_misses": "count",
    "exact.lvalue_s": "s",
    "embeddings.rep_count_calls": "count",
    "embeddings.rep_count_s": "s",
    "embeddings.nonzero_ratio": "ratio",
    "embeddings.memo_entries": "count",
    "solver.self_s": "s",
    "solver.pull_terms": "count",
    "solver.nonzero_masses": "count",
    "solver.pool_s": "s",
    "solver.pool_cpu_s": "s",
    "solver.backsub_s": "s",
    "reduction.reduce_s": "s",
    "reduction.bounds_s": "s",
    "reduction.buckets": "count",
    "trace.overhead_s": "s",
}


def count_systems(counts, result):
    counts["roots.systems"] = counts.get("roots.systems", 0) + len(result)


def count_nonzero(counts, result):
    if result:
        counts["embeddings.nonzero"] = counts.get("embeddings.nonzero", 0) + 1


MEASURES = {"roots.enumerate": count_systems, "embeddings.rep_count": count_nonzero}
CALIBRATION_CALLS = 20000  # no-op calls timed to find the cost of one span


def cache_stats():
    """hits and misses of the coefficient caches in this process."""
    from latmass import padic, siegel

    out = {}
    for key, fn in (
        ("local_invariants", padic.local_invariants),
        ("f_polynomial", siegel.f_polynomial),
        ("_f_eval", getattr(siegel, "_f_eval", None)),
    ):
        info = fn.cache_info() if hasattr(fn, "cache_info") else None
        out[key] = [info.hits, info.misses] if info else [0, 0]
    return out


class NullTracer:
    def wrap(self, name, fn):
        return fn


class Tracer:
    def __init__(self, dump_dir: Path):
        self.dump_dir = dump_dir
        self.pid = os.getpid()
        self.spans: list[list] = []
        self.stack: list[int] = []
        self.counts: dict[str, int] = {}

    def _enter_process(self):
        # first span in a forked worker: drop the parent's copy and dump
        # this process's spans when multiprocessing shuts the worker down
        self.pid = os.getpid()
        self.spans, self.stack, self.counts = [], [], {}
        mp_util.Finalize(None, self._dump_worker, exitpriority=10)

    def _dump_worker(self):
        data = {"spans": self.spans, "counts": self.counts, "caches": cache_stats()}
        path = self.dump_dir / f"worker-{self.pid}.json"
        path.write_text(json.dumps(data))

    def wrap(self, name, fn):
        measure = MEASURES.get(name)

        def traced(*args, **kwargs):
            if os.getpid() != self.pid:
                self._enter_process()
            spans, stack = self.spans, self.stack
            idx = len(spans)
            spans.append([name, perf_counter(), 0.0, stack[-1] if stack else -1])
            stack.append(idx)
            try:
                result = fn(*args, **kwargs)
            finally:
                stack.pop()
                spans[idx][2] = perf_counter()
            if measure is not None:
                measure(self.counts, result)
            return result

        return traced

    def calibrate(self) -> tuple[float, float, float]:
        """Times CALIBRATION_CALLS bare and then as many wrapped calls of a
        no-op and returns the three perf_counter() marks around them; the
        spans of the wrapped calls are dropped."""

        def noop():
            return None

        wrapped = self.wrap("trace.calibrate", noop)
        first = len(self.spans)
        t0 = perf_counter()
        for _ in range(CALIBRATION_CALLS):
            noop()
        t1 = perf_counter()
        for _ in range(CALIBRATION_CALLS):
            wrapped()
        t2 = perf_counter()
        del self.spans[first:]
        return t0, t1, t2

    def install(self):
        from latmass import siegel, solver

        modules = {"siegel": siegel, "solver": solver}
        for module, attr, name in PATCHES:
            setattr(modules[module], attr, self.wrap(name, getattr(modules[module], attr)))

    def worker_dumps(self):
        dumps = []
        for path in sorted(self.dump_dir.glob("worker-*.json")):
            dumps.append(json.loads(path.read_text()))
            path.unlink()
        return dumps


def _span_sums(spans):
    """Per span name: [calls, inclusive seconds, self seconds]."""
    child = [0.0] * len(spans)
    for name, start, end, parent in spans:
        if parent >= 0:
            child[parent] += end - start
    sums: dict[str, list] = {}
    for (name, start, end, _), inner in zip(spans, child):
        row = sums.setdefault(name, [0, 0.0, 0.0])
        row[0] += 1
        row[1] += end - start
        row[2] += end - start - inner
    return sums


def _solver_times(spans, solves):
    """pool_s, backsub_s and the pool wait inside each traced solve.

    ``solves`` pairs each top-level solve span index with the progress
    timestamps of that solve.  Back-substitution of a system runs from its
    coefficient being available (the end of its coefficient span, or the
    previous progress call when the pool computed it) to its progress call.
    """
    pool = backsub = wait = 0.0
    for idx, marks in solves:
        _, start, _, _ = spans[idx]
        coeff_ends = sorted(
            e for n, s, e, p in spans if n == "siegel.coeff" and p == idx
        )
        enum_end = max(
            (e for n, s, e, p in spans if n == "roots.enumerate" and p == idx), default=start
        )
        if not marks:
            continue
        pool += marks[0] - start
        prev = None
        j = 0
        for mark in marks:
            last_coeff = None
            while j < len(coeff_ends) and coeff_ends[j] <= mark:
                last_coeff = coeff_ends[j]
                j += 1
            if prev is None and last_coeff is None:
                wait += mark - enum_end  # pool path: waiting for the workers
            else:
                backsub += mark - max(t for t in (prev, last_coeff) if t is not None)
            prev = mark
    return pool, backsub, wait


def layer_metrics(spans, counts, caches, workers, solves, extra):
    """Per-layer metrics of one traced round.

    ``workers`` holds the dumps of forked pool workers, ``solves`` the
    (solve span index, progress timestamps) pairs, ``extra`` the counts the
    workload measured itself (memo size, buckets, pool CPU, pull terms) and
    the cost of one span.  The tracing overhead is that cost times the
    spans recorded, in all processes."""
    sums: dict[str, list] = {}
    all_counts = dict(counts)
    all_caches = {k: list(v) for k, v in caches.items()}
    for part in [_span_sums(spans)] + [_span_sums(w["spans"]) for w in workers]:
        for name, row in part.items():
            acc = sums.setdefault(name, [0, 0.0, 0.0])
            for i in range(3):
                acc[i] += row[i]
    for w in workers:
        for k, v in w["counts"].items():
            all_counts[k] = all_counts.get(k, 0) + v
        for k, (hits, misses) in w["caches"].items():
            all_caches[k][0] += hits
            all_caches[k][1] += misses

    def calls(name):
        return sums.get(name, [0, 0.0, 0.0])[0]

    def incl(name):
        return sums.get(name, [0, 0.0, 0.0])[1]

    def own(name):
        return sums.get(name, [0, 0.0, 0.0])[2]

    def hit_ratio(key):
        hits, misses = all_caches[key]
        return hits / (hits + misses) if hits + misses else 0.0

    pool, backsub, wait = _solver_times(spans, solves)
    rep_calls = calls("embeddings.rep_count")
    return {
        "roots.enumerate_s": incl("roots.enumerate"),
        "roots.systems": all_counts.get("roots.systems", 0),
        "padic.blocks_s": incl("padic.blocks"),
        "padic.invariants_s": incl("padic.invariants"),
        "padic.invariants_misses": all_caches["local_invariants"][1],
        "padic.invariants_hit_ratio": hit_ratio("local_invariants"),
        "siegel.coeff_calls": calls("siegel.coeff"),
        "siegel.coeff_s": incl("siegel.coeff"),
        "siegel.coeff_self_s": own("siegel.coeff"),
        "siegel.poly_s": incl("siegel.poly"),
        "siegel.f_polynomial_misses": all_caches["f_polynomial"][1],
        "siegel.f_polynomial_hit_ratio": hit_ratio("f_polynomial"),
        "siegel.f_eval_misses": all_caches["_f_eval"][1],
        "exact.lvalue_s": incl("exact.lvalue"),
        "embeddings.rep_count_calls": rep_calls,
        "embeddings.rep_count_s": incl("embeddings.rep_count"),
        "embeddings.nonzero_ratio": (
            all_counts.get("embeddings.nonzero", 0) / rep_calls if rep_calls else 0.0
        ),
        "embeddings.memo_entries": extra["memo_entries"],
        "solver.self_s": own("solver.solve") - wait,
        "solver.pull_terms": extra["pull_terms"],
        "solver.nonzero_masses": extra["nonzero_masses"],
        "solver.pool_s": pool,
        "solver.pool_cpu_s": extra["pool_cpu_s"],
        "solver.backsub_s": backsub,
        "reduction.reduce_s": incl("reduction.reduce"),
        "reduction.bounds_s": incl("reduction.bounds"),
        "reduction.buckets": extra["buckets"],
        "trace.overhead_s": extra["span_cost_s"] * (len(spans) + sum(len(w["spans"]) for w in workers)),
    }
