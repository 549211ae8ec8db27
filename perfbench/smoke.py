"""Reduced-size smoke test of the benchmark itself.

    python3 perfbench/smoke.py

For every workload, at the "smoke" input size, it checks that:
- an untraced run prints every end-to-end metric of BENCHMARK.json with
  its unit, and no output check fails;
- a traced run prints every per-layer metric with its unit, and a second
  traced run repeats the work counts exactly (on solve16 the cache misses
  are left out: each pool worker fills its own caches, and which worker
  gets which chunk of systems depends on timing);
- a run with one output deliberately damaged (--corrupt) counts the
  failed check in fail_ratio and reports correct = false.
Exits 1 on the first failed expectation.  Takes about four minutes.
"""

from __future__ import annotations

import json
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
REPEATED_COUNTS = (
    "roots.systems",
    "siegel.f_eval_misses",
    "padic.invariants_misses",
    "embeddings.rep_count_calls",
    "solver.pull_terms",
)
POOL_DEPENDENT = {"siegel.f_eval_misses", "padic.invariants_misses"}


def run(workload: str, trace: int, corrupt: bool = False) -> tuple[dict, list[str]]:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload, "--seed", "7",
           "--seconds", "1", "--trace", str(trace), "--size", "smoke"]
    if corrupt:
        cmd.append("--corrupt")
    done = subprocess.run(cmd, capture_output=True, text=True, cwd=ROOT, timeout=170)
    if done.returncode != 0:
        sys.exit(f"FAIL {workload}: run.py exited with {done.returncode}\n{done.stderr}")
    lines = done.stdout.strip().splitlines()
    return json.loads(lines[-1]), lines[:-1]


def expect(ok: bool, what: str) -> None:
    print(("ok   " if ok else "FAIL ") + what, flush=True)
    if not ok:
        sys.exit(1)


def same_units(result: dict, spec_metrics: list[dict]) -> bool:
    want = {m["name"]: m["unit"] for m in spec_metrics}
    got = {k: v["unit"] for k, v in result["metrics"].items()}
    return got == want and all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())


def main() -> None:
    for w in SPEC["workloads"]:
        name = w["name"]
        result, lines = run(name, 0)
        expect(same_units(result, SPEC["end_to_end"]), f"{name}: end-to-end metrics and units")
        expect(result["correct"] and result["failed"] == 0 and result["attempted"] > 0,
               f"{name}: all {result['attempted']} output checks pass")
        expect(any(f"{name} fail_ratio 0 " in line for line in lines), f"{name}: fail_ratio 0 printed")

        first, _ = run(name, 1)
        second, _ = run(name, 1)
        expect(same_units(first, SPEC["per_layer"]), f"{name}: per-layer metrics and units")
        keys = [k for k in REPEATED_COUNTS if name != "solve16" or k not in POOL_DEPENDENT]
        counts = {k: first["metrics"][k]["value"] for k in keys}
        again = {k: second["metrics"][k]["value"] for k in keys}
        expect(counts == again, f"{name}: work counts repeat {counts}")

        bad, lines = run(name, 0, corrupt=True)
        ratio = [line for line in lines if line.startswith(f"{name} fail_ratio ")]
        expect(not bad["correct"] and bad["failed"] >= 1 and ratio and not ratio[0].startswith(f"{name} fail_ratio 0 "),
               f"{name}: corrupted output counted ({bad['failed']}/{bad['attempted']})")
    print("smoke test passed")


if __name__ == "__main__":
    main()
