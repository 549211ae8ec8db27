"""The four benchmark workloads: inputs from a seed, the timed calls into
latmass's public entry points, and the checks of their outputs.

Each workload has ``setup(seed, size) -> inputs`` (timed as set-up),
``run(inputs, tracer) -> (outputs, items, progresses)`` (timed as wall;
items are the (start, end) ``perf_counter()`` times of the items behind
item_p50_ms / item_tail_ms, and progresses the ``Progress`` callback of
each solve, in call order) and
``check(inputs, outputs) -> (attempted, failed)``, run after the timed
section against values recorded at the benchmark's seed commit
(frozen.json, written by freeze.py).  ``corrupt(outputs)`` damages one
output so that the smoke test can see a failed check counted.
"""

from __future__ import annotations

import hashlib
import json
import random
from dataclasses import dataclass
from pathlib import Path
from time import perf_counter
from typing import Callable

from latmass import embeddings, reduction, roots, siegel, solver
from latmass.roots import RootSystem

FROZEN_PATH = Path(__file__).parent / "frozen.json"

# Workload sizes; "smoke" is the reduced size the smoke test runs.
SIZES = {
    "full": {"coeff_ranks": range(12, 33), "coeff_per_rank": 14, "head_window": 250, "emb_strata": 16},
    "smoke": {"coeff_ranks": range(12, 15), "coeff_per_rank": 2, "head_window": 50, "emb_strata": 1},
}
COEFF_SET_SEED = 32  # fixes the coeff32 systems and their order
EMB_STRATA = 64  # dim-24 sources are split into this many fixed strata
HEAD_CHUNK = 50  # head32 rows are digested in chunks of this many
SOLVE16_WORKERS = 2
ODD_BOUNDS_16 = [1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 4]
NIEMEIER = (
    "D24", "D16 E8", "E8^3", "A24", "D12^2", "A17 E7", "D10 E7^2", "A15 D9",
    "D8^3", "A12^2", "A11 D7 E6", "E6^4", "A9^2 D6", "D6^4", "A8^3",
    "A7^2 D5^2", "A6^4", "A5^4 D4", "D4^6", "A4^6", "A3^8", "A2^12", "A1^24",
)


def digest(lines) -> str:
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()[:16]


class WindowDone(Exception):
    """Raised from the progress callback to end a solve window."""


class Progress:
    """Progress callback for solve_masses: timestamps each solved system,
    keeps the (system, mass) rows, and counts the pull terms, i.e. the
    nonzero masses each back-substitution step runs over."""

    def __init__(self, stop_after: int | None = None):
        self.stop_after = stop_after
        self.marks: list[float] = []
        self.rows: list = []
        self.nonzero = 0
        self.pull_terms = 0

    def __call__(self, done, count, rs, m):
        self.marks.append(perf_counter())
        self.rows.append((rs, m))
        self.pull_terms += self.nonzero
        if m:
            self.nonzero += 1
        if self.stop_after is not None and done >= self.stop_after:
            raise WindowDone

    def intervals(self) -> list[tuple[float, float]]:
        return list(zip(self.marks, self.marks[1:]))


def frozen() -> dict:
    """Digests of outputs recorded at the seed commit (see freeze.py)."""
    return json.loads(FROZEN_PATH.read_text())


# ---------------------------------------------------------------------------
# solve16: the dim-16 pipeline on the pool path, then reduction and bounds


def solve16_setup(seed, size):
    return {"workers": SOLVE16_WORKERS}


def solve16_run(inputs, tracer):
    solve = tracer.wrap("solver.solve", solver.solve_masses)
    reduce_masses = tracer.wrap("reduction.reduce", reduction.reduce_masses)
    even_bound = tracer.wrap("reduction.bounds", reduction.even_class_bound)
    odd_bound = tracer.wrap("reduction.bounds", reduction.class_lower_bound)
    p8, p16 = Progress(), Progress()
    t8 = solve(8, progress=p8)
    t16 = solve(16, workers=inputs["workers"], progress=p16)
    total_ok = t16.verify_total()
    even = even_bound(t16)
    reduced = reduce_masses(t16)
    odd = [odd_bound(reduced, n, even_tables={8: t8}).bound for n in range(1, 15)]
    outputs = {"table": t16, "total_ok": total_ok, "even": even[:2], "odd": odd, "reduced": reduced}
    return outputs, p16.intervals(), [p8, p16]


def solve16_check(inputs, outputs):
    table = outputs["table"]
    results = [
        len(table.masses) == 2,
        table.total_mass == solver.genus_mass(16),
        outputs["total_ok"] is True,
        tuple(outputs["even"]) == (2, 2),
    ]
    results += [got == want for got, want in zip(outputs["odd"], ODD_BOUNDS_16)]
    results.append(len(outputs["odd"]) == len(ODD_BOUNDS_16))
    return len(results), results.count(False)


def solve16_corrupt(outputs):
    outputs["odd"][0] += 1


# ---------------------------------------------------------------------------
# coeff32: dim-32 Eisenstein coefficients on a seeded sample, no solve


def random_system(rng: random.Random, rank: int) -> RootSystem:
    """A root system of exactly the given rank built from random components."""
    parts = []
    left = rank
    while left:
        kind = rng.choice("AAAADDE")
        if kind == "A":
            r = rng.randint(1, left)
        elif kind == "D" and left >= 4:
            r = rng.randint(4, left)
        elif kind == "E" and left >= 6:
            r = rng.choice([e for e in (6, 7, 8) if e <= left])
        else:
            continue
        parts.append((kind, r, 1))
        left -= r
    return RootSystem.from_parts(parts)


def coeff32_setup(seed, size):
    """The fixed coeff32 set: the first ``coeff_per_rank`` distinct random
    systems of each rank in ``coeff_ranks``, in a fixed random order.  Each
    rank has a generator of its own, so a smaller size takes a subset of a
    larger one.  The seed picks nothing: a seeded order moved the cost
    between items and with it item_p50_ms by about 10 % from seed to seed,
    which is wider than the machine's noise; a seeded sample moved wall_s."""
    systems: list[RootSystem] = []
    for rank in size["coeff_ranks"]:
        rng = random.Random(COEFF_SET_SEED * 1000 + rank)
        chosen: dict[RootSystem, None] = {}
        while len(chosen) < size["coeff_per_rank"]:
            chosen.setdefault(random_system(rng, rank))
        systems += chosen
    random.Random(COEFF_SET_SEED).shuffle(systems)
    return {"systems": systems}


def coeff32_run(inputs, tracer):
    coefficient = tracer.wrap("siegel.coeff", siegel.eisenstein_coefficient)
    values, items = [], []
    for rs in inputs["systems"]:
        t0 = perf_counter()
        values.append(coefficient(rs, 32))
        items.append((t0, perf_counter()))
    return {"values": values}, items, []


def coeff32_check(inputs, outputs):
    """Each value against coefficient_for_gram(system_gram(rs), 32), the
    full-Gram Jordan path, as recorded for the full-size set by freeze.py."""
    want = frozen()["coeff32"]
    systems, values = inputs["systems"], outputs["values"]
    results = [len(values) == len(systems)]
    results += [digest([str(v)]) == want[str(rs)] for rs, v in zip(systems, values)]
    return len(results), results.count(False)


def coeff32_corrupt(outputs):
    outputs["values"][0] += 1


# ---------------------------------------------------------------------------
# head32: the opening window of the dim-32 solve, serial


def head32_setup(seed, size):
    return {"window": size["head_window"]}


def head32_run(inputs, tracer):
    solve = tracer.wrap("solver.solve", solver.solve_masses)
    progress = Progress(stop_after=inputs["window"])
    try:
        solve(32, progress=progress)
    except WindowDone:
        pass
    return {"rows": progress.rows}, progress.intervals(), [progress]


def head32_check(inputs, outputs):
    lines = [f"{rs}\t{m}" for rs, m in outputs["rows"]]
    want = frozen()["head32"]
    chunks = [lines[i : i + HEAD_CHUNK] for i in range(0, inputs["window"], HEAD_CHUNK)]
    results = [len(lines) == inputs["window"], len(chunks) <= len(want)]
    results += [digest(chunk) == d for chunk, d in zip(chunks, want)]
    return len(results), results.count(False)


def head32_corrupt(outputs):
    rs, m = outputs["rows"][0]
    outputs["rows"][0] = (rs, m + 1)


# ---------------------------------------------------------------------------
# emb24: dim-24 back-substitution traffic against the Niemeier systems


def emb24_setup(seed, size, strata=None):
    """Sources of evenly spaced strata in descending solve order.  Stratum
    k holds every EMB_STRATA-th source of that order from position k on.
    The seed picks nothing: with seeded strata, item_tail_ms spread by 10
    to 25 % between seeds (which source first meets an expensive sub-count
    and fills the memo for the others depends on the sample), against 5 %
    between runs of one seed."""
    if strata is None:
        strata = list(range(0, EMB_STRATA, EMB_STRATA // size["emb_strata"]))
    ordered = roots.enumerate_systems(24, dim=24, filters=True)[::-1]
    chosen = set(strata)
    positions = [i for i in range(len(ordered)) if i % EMB_STRATA in chosen]
    return {
        "strata": strata,
        "sources": [ordered[i] for i in positions],
        "source_strata": [i % EMB_STRATA for i in positions],
        "targets": [RootSystem.parse(name) for name in NIEMEIER],
    }


def emb24_run(inputs, tracer):
    rep_count = tracer.wrap("embeddings.rep_count", embeddings.rep_count)
    targets = inputs["targets"]
    rows, items = [], []
    for source in inputs["sources"]:
        t0 = perf_counter()
        rows.append([rep_count(source, t) for t in targets])
        items.append((t0, perf_counter()))
    return {"rows": rows}, items, []


def emb24_stratum_digests(inputs, rows) -> dict[int, str]:
    lines: dict[int, list[str]] = {s: [] for s in inputs["strata"]}
    for source, k, row in zip(inputs["sources"], inputs["source_strata"], rows):
        lines[k].append(f"{source}\t{','.join(map(str, row))}")
    return {s: digest(v) for s, v in lines.items()}


def emb24_check(inputs, outputs):
    targets = inputs["targets"]
    a1 = RootSystem.parse("A1")
    results = [len(outputs["rows"]) == len(inputs["sources"])]
    results += [embeddings.rep_count(a1, t) == t.root_count for t in targets]
    results += [embeddings.rep_count(t, t) == t.aut_order for t in targets]
    got = emb24_stratum_digests(inputs, outputs["rows"])
    want = frozen()["emb24"]
    results += [got[s] == want[s] for s in inputs["strata"]]
    return len(results), results.count(False)


def emb24_corrupt(outputs):
    outputs["rows"][0][0] += 1


@dataclass(frozen=True)
class Workload:
    setup: Callable
    run: Callable
    check: Callable
    corrupt: Callable


WORKLOADS = {
    "solve16": Workload(solve16_setup, solve16_run, solve16_check, solve16_corrupt),
    "coeff32": Workload(coeff32_setup, coeff32_run, coeff32_check, coeff32_corrupt),
    "head32": Workload(head32_setup, head32_run, head32_check, head32_corrupt),
    "emb24": Workload(emb24_setup, emb24_run, emb24_check, emb24_corrupt),
}
