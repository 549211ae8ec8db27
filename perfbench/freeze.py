"""Record the output digests that the coeff32, head32 and emb24 checks compare with.

    python3 perfbench/freeze.py            # rewrite perfbench/frozen.json
    python3 perfbench/freeze.py --verify   # recompute and compare only

coeff32: the digest of coefficient_for_gram(system_gram(rs), 32), the
full-Gram Jordan path, for every system of the full-size set.  head32:
one digest per 50-row chunk of the full window's (system, mass) rows.
emb24: one digest per stratum of the full dim-24 pull table, so the
strata of any size can be checked.  The committed file was recorded with
an unchanged src/ from the seed commit of the benchmark; rewrite it only
after a change that is meant to alter these outputs, or one that changes
the benchmark's inputs.  Takes about a minute.
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT / "src"))

from latmass.roots import system_gram  # noqa: E402
from latmass.siegel import coefficient_for_gram  # noqa: E402

import tracing  # noqa: E402
import workloads as wl  # noqa: E402


def compute() -> dict:
    null = tracing.NullTracer()
    coeff = {
        str(rs): wl.digest([str(coefficient_for_gram(system_gram(rs), 32))])
        for rs in wl.coeff32_setup(0, wl.SIZES["full"])["systems"]
    }

    head = wl.head32_setup(0, wl.SIZES["full"])
    outputs, _, _ = wl.head32_run(head, null)
    lines = [f"{rs}\t{m}" for rs, m in outputs["rows"]]
    head_digests = [wl.digest(lines[i : i + wl.HEAD_CHUNK]) for i in range(0, len(lines), wl.HEAD_CHUNK)]

    emb = wl.emb24_setup(0, wl.SIZES["full"], strata=list(range(wl.EMB_STRATA)))
    outputs, _, _ = wl.emb24_run(emb, null)
    by_stratum = wl.emb24_stratum_digests(emb, outputs["rows"])
    return {
        "coeff32": coeff,
        "head32": head_digests,
        "emb24": [by_stratum[s] for s in range(wl.EMB_STRATA)],
    }


def main() -> None:
    ap = argparse.ArgumentParser()
    ap.add_argument("--verify", action="store_true")
    args = ap.parse_args()
    data = compute()
    if args.verify:
        same = data == wl.frozen()
        print("frozen digests match" if same else "frozen digests differ")
        sys.exit(0 if same else 1)
    wl.FROZEN_PATH.write_text(json.dumps(data, indent=1) + "\n")
    print(f"wrote {wl.FROZEN_PATH}")


if __name__ == "__main__":
    main()
