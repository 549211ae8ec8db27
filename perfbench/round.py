"""One cold round of a benchmark workload, in a fresh interpreter.

    python3 perfbench/round.py --workload W --seed N --trace 0|1 \
        --spawned T --out FILE [--size full|smoke] [--corrupt] [--setup-only]

``--spawned`` is the parent's ``perf_counter()`` just before it started
this process (CLOCK_MONOTONIC is shared between processes), so set-up
time covers interpreter start, ``import latmass`` and input generation.
With ``--setup-only`` the round stops there and reports only that time.

A speed probe (probe.py) runs from the start of the round to the end of
its timed section, and every time the round reports is measured on the
probe's nominal timeline; the raw times are reported next to them.  The
round writes one JSON object to ``--out``; run.py aggregates rounds.
"""

from __future__ import annotations

import argparse
import json
import resource
import sys
from pathlib import Path
from time import perf_counter

import probe

PROBE = probe.Probe()
PROBE.start()

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from latmass import embeddings  # noqa: E402

import tracing  # noqa: E402
import workloads  # noqa: E402


def peak_rss_mb() -> float:
    own = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
    kids = resource.getrusage(resource.RUSAGE_CHILDREN).ru_maxrss
    return max(own, kids) / 1024


def children_cpu_s() -> float:
    usage = resource.getrusage(resource.RUSAGE_CHILDREN)
    return usage.ru_utime + usage.ru_stime


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--workload", required=True, choices=sorted(workloads.WORKLOADS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--spawned", type=float, required=True)
    ap.add_argument("--out", type=Path, required=True)
    ap.add_argument("--size", choices=sorted(workloads.SIZES), default="full")
    ap.add_argument("--corrupt", action="store_true")
    ap.add_argument("--setup-only", action="store_true")
    args = ap.parse_args()

    PROBE.dump_dir = args.out.with_suffix(".probes")
    workload = workloads.WORKLOADS[args.workload]
    inputs = workload.setup(args.seed, workloads.SIZES[args.size])
    setup_end = perf_counter()
    if args.setup_only:
        PROBE.stop()
        clock = PROBE.clock()
        args.out.write_text(json.dumps({
            "setup_s": clock(setup_end) - clock(args.spawned),
            "raw_setup_s": setup_end - args.spawned,
        }))
        return

    dump_dir = args.out.with_suffix(".workers")
    if args.trace:
        dump_dir.mkdir(parents=True, exist_ok=True)
        tracer = tracing.Tracer(dump_dir)
        tracer.install()
    else:
        tracer = tracing.NullTracer()

    cpu0 = children_cpu_s()
    t0 = perf_counter()
    outputs, item_times, progresses = workload.run(inputs, tracer)
    t1 = perf_counter()
    pool_cpu_s = children_cpu_s() - cpu0
    if args.trace:
        marks = tracer.calibrate()
    PROBE.stop()
    worker_samples = PROBE.worker_samples()
    clock = PROBE.clock(worker_samples)

    layers = None
    if args.trace:
        for span in tracer.spans:
            span[1], span[2] = clock(span[1]), clock(span[2])
        for p in progresses:
            p.marks = [clock(t) for t in p.marks]
        c0, c1, c2 = map(clock, marks)
        reduced = outputs.get("reduced")
        extra = {
            "memo_entries": len(getattr(embeddings, "_MEMO", ())),
            "buckets": sum(len(reduced.systems(n)) for n in reduced.dimensions()) if reduced else 0,
            "pool_cpu_s": pool_cpu_s,
            "pull_terms": sum(p.pull_terms for p in progresses),
            "nonzero_masses": sum(p.nonzero for p in progresses),
            "span_cost_s": ((c2 - c1) - (c1 - c0)) / tracing.CALIBRATION_CALLS,
        }
        spans = tracer.spans
        solves = [i for i, s in enumerate(spans) if s[0] == "solver.solve" and s[3] < 0]
        workers = tracer.worker_dumps()
        for span in (s for w in workers for s in w["spans"]):
            span[1], span[2] = clock(span[1]), clock(span[2])
        layers = tracing.layer_metrics(
            spans,
            tracer.counts,
            tracing.cache_stats(),
            workers,
            list(zip(solves, (p.marks for p in progresses))),
            extra,
        )
        trace_file = args.out.with_suffix(".spans.json")
        trace_file.write_text(
            json.dumps({"main": spans, "workers": [w["spans"] for w in workers]})
        )
        dump_dir.rmdir()

    if args.corrupt:
        workload.corrupt(outputs)
    attempted, failed = workload.check(inputs, outputs)

    result = {
        "workload": args.workload,
        "seed": args.seed,
        "trace": args.trace,
        "setup_s": clock(setup_end) - clock(args.spawned),
        "wall_s": clock(t1) - clock(t0),
        "items": [clock(b) - clock(a) for a, b in item_times],
        "raw_setup_s": setup_end - args.spawned,
        "raw_wall_s": t1 - t0,
        "probes": [len(PROBE.own()), sum(len(w) for w in worker_samples)],
        "probe_s": PROBE.busy_s(),
        "peak_rss_mb": peak_rss_mb(),
        "attempted": attempted,
        "failed": failed,
        "layers": layers,
        "sizes": {k: len(v) if isinstance(v, list) else v for k, v in inputs.items()},
    }
    args.out.write_text(json.dumps(result))


if __name__ == "__main__":
    main()
