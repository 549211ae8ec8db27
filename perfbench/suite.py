"""All four workloads, untraced and traced, in one command.

    python3 perfbench/suite.py [--seed N] [--seconds S] [--record FILE]

Prints every end-to-end metric (and fail_ratio) from the untraced runs and
every per-layer metric (and trace.overhead_s) from the traced runs, by
workload, name and unit.  With --record it also writes the figures and the
runs' provenance as one trajectory point, e.g.
perfbench/trajectory/000-seed.json.  Takes about five minutes.
"""

from __future__ import annotations

import argparse
import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent


def main() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    ap = argparse.ArgumentParser()
    ap.add_argument("--seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=spec["run_seconds"])
    ap.add_argument("--record", type=Path)
    args = ap.parse_args()

    point = {"seed": args.seed, "seconds": args.seconds, "workloads": {}}
    failed = 0
    for w in spec["workloads"]:
        name = w["name"]
        entry = point["workloads"][name] = {}
        for trace in (0, 1):
            cmd = [sys.executable, str(HERE / "run.py"), "--workload", name, "--seed",
                   str(args.seed), "--seconds", str(args.seconds), "--trace", str(trace)]
            done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, check=True)
            result = json.loads(done.stdout.strip().splitlines()[-1])
            record = json.loads((HERE / "out" / f"{name}-s{args.seed}-t{trace}.json").read_text())
            failed += result["failed"]
            entry["trace" if trace else "untraced"] = {
                "metrics": {k: [v["value"], v["unit"]] for k, v in result["metrics"].items()},
                "fail_ratio": result["failed"] / result["attempted"],
                "attempted": result["attempted"],
                "provenance": record["provenance"],
            }
            for key, (value, unit) in entry["trace" if trace else "untraced"]["metrics"].items():
                print(f"{name:8} {key:32} {value:14.6g} {unit}", flush=True)
            print(f"{name:8} {'fail_ratio':32} {result['failed'] / result['attempted']:14.6g} "
                  f"({result['failed']}/{result['attempted']})", flush=True)
    if args.record:
        args.record.parent.mkdir(parents=True, exist_ok=True)
        args.record.write_text(json.dumps(point, indent=1) + "\n")
        print(f"wrote {args.record}")
    sys.exit(1 if failed else 0)


if __name__ == "__main__":
    main()
