"""Run-to-run spread of the end-to-end metrics over several seeds.

    python3 perfbench/spread.py --seeds 1-10 [--workloads coeff32,emb24] [--seconds S]

Runs perfbench/run.py once per seed and workload (untraced) and prints,
per metric, the median and the quartile distance (as Python's
statistics.quantiles(values, n=4) gives it) as a share of the median,
next to the metric's bound from BENCHMARK.json; "ok" marks a spread below
a third of its bound.  A seed may repeat (``--seeds 1,1,1,1,1``), which
separates the machine's run-to-run noise from the seeds' input variation.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def seed_list(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seeds", type=seed_list, default=seed_list("1-10"))
    ap.add_argument("--workloads", default=",".join(w["name"] for w in spec["workloads"]))
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    args = ap.parse_args()

    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    for workload in args.workloads.split(","):
        values: dict[str, list[float]] = {name: [] for name in bounds}
        for seed in args.seeds:
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
                   "--seed", str(seed), "--seconds", str(args.seconds), "--trace", "0"]
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            if not result["correct"]:
                sys.exit(f"{workload} seed {seed}: {result['failed']} output checks failed")
            for name in bounds:
                values[name].append(result["metrics"][name]["value"])
            line = " ".join(f"{k}={v[-1]:.4g}" for k, v in values.items())
            print(f"{workload} seed={seed} {line}", flush=True)
        for name, vals in values.items():
            med = statistics.median(vals)
            q1, _, q3 = statistics.quantiles(vals, n=4)
            share = (q3 - q1) / med
            print(f"{workload} {name}: median {med:.5g}  spread {share:.3f}  bound {bounds[name]}"
                  f"  {'ok' if share < bounds[name] / 3 else 'WIDE'}", flush=True)


if __name__ == "__main__":
    main()
