"""latmass benchmark: one workload, measured over several cold rounds.

    python3 perfbench/run.py --workload {solve16,coeff32,head32,emb24} \
        --seed N --seconds S --trace 0|1

Each round runs in a fresh interpreter (perfbench/round.py), so it pays
interpreter start, ``import latmass`` and cold caches, as a command-line
user does.  Rounds repeat until ``--seconds`` have passed (at least
MIN_ROUNDS of them, of each kind); every round of a run gets the same
inputs.  With ``--trace 0``, SETUP_ONLY set-up-only rounds go before each
round: each starts a fresh interpreter, sets up and exits, so setup_s is
a median over three times as many set-ups.

Every time a round reports is measured at a nominal machine speed: a
probe samples the speed of the processor all through the round and the
round's timestamps are mapped to a timeline that runs at nominal speed
(see probe.py).  The raw figures are kept in the record.

With ``--trace 0`` the run reports the end-to-end metrics as medians over
its rounds.  With ``--trace 1`` it alternates untraced and traced rounds
and reports the per-layer metrics, medians over the traced rounds, among
them ``trace.overhead_s``: the spans a round recorded times the cost of
one span, which the round measures on a no-op.  The difference between
traced and untraced wall times is in the record too, as
``traced_minus_untraced_s``, but it is below the remaining noise on most
workloads.

Output checks run after each round's timed section; ``attempted`` and
``failed`` count them, and fail_ratio = failed / attempted.  The last line
of stdout is the result object; the lines before it give provenance and
every metric with its unit.  A full record of the run, with per-round
figures, goes to perfbench/out/.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import signal
import statistics
import subprocess
import sys
from pathlib import Path
from time import perf_counter

from tracing import LAYER_UNITS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
OUT = HERE / "out"
WORKLOADS = ("solve16", "coeff32", "head32", "emb24")
MIN_ROUNDS = {"full": 3, "smoke": 2}
SETUP_ONLY = 2  # set-up-only rounds before each untraced round
RUN_LIMIT_S = 170  # a run ends within this many seconds, or fails
PERCENTILES = (50, 90, 95, 99, 99.5, 99.9)

E2E_UNITS = {
    "wall_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "item_p50_ms": "ms",
    "item_tail_ms": "ms",
}


class BenchError(RuntimeError):
    pass


def tail_percentile(n: int) -> float:
    """Highest of PERCENTILES with at least ten of n samples beyond it."""
    return max((p for p in PERCENTILES if n - math.ceil(p / 100 * n) >= 10), default=50)


def percentile(sorted_values, p: float) -> float:
    """Nearest-rank percentile."""
    return sorted_values[max(0, math.ceil(p / 100 * len(sorted_values)) - 1)]


def provenance(args, rounds) -> dict:
    src = ROOT / "src" / "latmass"
    h = hashlib.sha256()
    for path in sorted(src.rglob("*.py")):
        h.update(path.relative_to(src).as_posix().encode() + b"\0" + path.read_bytes())
    sha = dirty = None
    if (ROOT / ".git").exists():
        git = ["git", "-C", str(ROOT)]
        got = subprocess.run(git + ["rev-parse", "HEAD"], capture_output=True, text=True)
        if got.returncode == 0:
            sha = got.stdout.strip()
            status = subprocess.run(
                git + ["status", "--porcelain", "--", "src"], capture_output=True, text=True
            )
            dirty = bool(status.stdout.strip())
    return {
        "git_sha": sha,
        "git_dirty": dirty,
        "src_sha256": h.hexdigest()[:16],
        "python": platform.python_version(),
        "nproc": len(os.sched_getaffinity(0)),
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "size": args.size,
        "rounds": len(rounds),
        "sizes": rounds[0]["sizes"],
    }


def run_round(args, mode: int, index: str, timeout: float, setup_only: bool = False) -> dict:
    out = OUT / f"{args.workload}-s{args.seed}-t{args.trace}-r{index}.json"
    cmd = [
        sys.executable, str(HERE / "round.py"),
        "--workload", args.workload, "--seed", str(args.seed),
        "--trace", str(mode), "--out", str(out), "--size", args.size,
    ]
    if args.corrupt:
        cmd.append("--corrupt")
    if setup_only:
        cmd.append("--setup-only")
    cmd += ["--spawned", repr(perf_counter())]
    # own process group, so that a timeout can stop the round's pool workers too
    proc = subprocess.Popen(
        cmd, stdout=subprocess.PIPE, stderr=subprocess.STDOUT, text=True, preexec_fn=os.setpgrp
    )
    try:
        log, _ = proc.communicate(timeout=timeout)
    except subprocess.TimeoutExpired:
        os.killpg(proc.pid, signal.SIGKILL)
        proc.communicate()
        raise BenchError(f"round {index} of {args.workload} timed out") from None
    if proc.returncode != 0:
        sys.stderr.write(log)
        raise BenchError(f"round {index} of {args.workload} exited with {proc.returncode}")
    result = json.loads(out.read_text())
    out.unlink()
    return result


def run_rounds(args) -> tuple[list[dict], list[dict]]:
    """The full rounds, and the set-up-only rounds."""
    modes = (0, 1) if args.trace else (0,)
    rounds: list[dict] = []
    setups: list[dict] = []
    start = perf_counter()
    while True:
        elapsed = perf_counter() - start
        longest = max((r["round_s"] for r in rounds), default=0.0)
        if rounds and (elapsed >= args.seconds and len(rounds) >= MIN_ROUNDS[args.size] * len(modes)):
            break
        if rounds and elapsed + longest > RUN_LIMIT_S:
            break
        t0 = perf_counter()
        mode = modes[len(rounds) % len(modes)]
        for _ in range(0 if args.trace else SETUP_ONLY):
            setups.append(run_round(args, 0, f"s{len(setups)}", RUN_LIMIT_S - elapsed, setup_only=True))
        result = run_round(args, mode, str(len(rounds)), RUN_LIMIT_S - (perf_counter() - start))
        result["round_s"] = perf_counter() - t0
        rounds.append(result)
    return rounds, setups


def e2e_metrics(rounds, setups) -> tuple[dict, dict]:
    """End-to-end metrics from the untraced and the set-up-only rounds.

    wall_s and setup_s are medians over the rounds.  Every round times the
    same items in the same order, so the item percentiles are taken over
    each item's median over the rounds.
    """
    untraced = [r for r in rounds if not r["trace"]]
    setup_rounds = untraced + setups
    per_item = sorted(statistics.median(col) for col in zip(*(r["items"] for r in untraced)))
    tail = tail_percentile(len(per_item))
    metrics = {
        "wall_s": statistics.median(r["wall_s"] for r in untraced),
        "setup_s": statistics.median(r["setup_s"] for r in setup_rounds),
        "peak_rss_mb": max(r["peak_rss_mb"] for r in untraced),
        "item_p50_ms": percentile(per_item, 50) * 1e3,
        "item_tail_ms": percentile(per_item, tail) * 1e3,
    }
    notes = {
        "item_tail_percentile": tail,
        "items_per_round": len(per_item),
        "timed_rounds": len(untraced),
        "raw_wall_s": statistics.median(r["raw_wall_s"] for r in untraced),
        "raw_setup_s": statistics.median(r["raw_setup_s"] for r in setup_rounds),
        "setup_samples": len(setup_rounds),
        "round_walls_s": [r["wall_s"] for r in untraced],
    }
    return metrics, notes


def layer_metrics(rounds) -> tuple[dict, dict]:
    """Per-layer metrics, medians over the traced rounds, and the median
    difference between each traced round's wall time and that of the
    untraced round before it."""
    traced = [r["layers"] for r in rounds if r["trace"]]
    metrics = {
        name: (statistics.median_low if LAYER_UNITS[name] == "count" else statistics.median)(
            t[name] for t in traced
        )
        for name in traced[0]
    }
    diff = statistics.median(
        b["wall_s"] - a["wall_s"] for a, b in zip(rounds, rounds[1:]) if b["trace"] and not a["trace"]
    )
    return metrics, {"traced_minus_untraced_s": diff}


def main() -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full", help="smoke: reduced inputs")
    ap.add_argument("--corrupt", action="store_true", help="damage one output before the checks")
    args = ap.parse_args()

    if not (ROOT / "src" / "latmass" / "__init__.py").is_file():
        print(f"latmass sources not found under {ROOT / 'src'}", file=sys.stderr)
        return 2
    OUT.mkdir(exist_ok=True)
    try:
        rounds, setups = run_rounds(args)
    except BenchError as exc:
        print(f"benchmark failed: {exc}", file=sys.stderr)
        return 1

    attempted = sum(r["attempted"] for r in rounds)
    failed = sum(r["failed"] for r in rounds)
    e2e, notes = e2e_metrics(rounds, setups)
    if args.trace:
        layers, trace_notes = layer_metrics(rounds)
        notes |= trace_notes
        metrics = {k: {"value": v, "unit": LAYER_UNITS[k]} for k, v in layers.items()}
    else:
        metrics = {k: {"value": v, "unit": E2E_UNITS[k]} for k, v in e2e.items()}

    record = {
        "provenance": provenance(args, rounds) | notes,
        "fail_ratio": failed / attempted,
        "metrics": metrics,
        "rounds": [{k: v for k, v in r.items() if k != "items"} for r in rounds],
    }
    (OUT / f"{args.workload}-s{args.seed}-t{args.trace}.json").write_text(
        json.dumps(record, indent=1) + "\n"
    )
    print("provenance " + json.dumps(record["provenance"]))
    for name, m in metrics.items():
        print(f"{args.workload} {name} {m['value']:.6g} {m['unit']}")
    print(f"{args.workload} fail_ratio {failed / attempted:.6g} ({failed}/{attempted})")
    print(json.dumps({"correct": failed == 0, "attempted": attempted, "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
