"""Acceptance gate: one test per top-level criterion, one PASS/FAIL line each.

Criteria 1-6 run at desk scale.  Criterion 7 is the dim-32 solve (12 to 14
min serial on a 2-vCPU VM); it is skipped unless LATMASS_LONG_RUN=1 is set, and
uses a resumable checkpoint so an interrupted run can continue.  It currently
fails at its class bounds: n = 28 gives 327973 and n = 30 gives 20169641026,
one above the recorded values.
"""

import os
import random
import time
from fractions import Fraction

import pytest

from latmass.embeddings import rep_count
from latmass.padic import block_matrix, hilbert_symbol, jordan_decompose
from latmass.reduction import class_lower_bound, even_class_bound, reduce_masses
from latmass.roots import EMPTY, RootSystem, enumerate_systems, system_gram
from latmass.siegel import (
    coefficient_for_gram,
    eisenstein_coefficient,
    f_polynomial,
    f_value,
    scalar_coefficient,
    system_blocks,
)
from latmass.solver import genus_mass, solve_masses

R = RootSystem.parse
E8 = R("E8")

BOUNDS_UP_TO_22 = [1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 5, 6, 9, 13, 16, 28, 40, 68]


def report(capsys, name, fn):
    start = time.perf_counter()
    try:
        detail = fn()
    except BaseException:
        with capsys.disabled():
            print(f"FAIL {name} ({time.perf_counter() - start:.1f}s)", flush=True)
        raise
    with capsys.disabled():
        print(f"PASS {name}: {detail} ({time.perf_counter() - start:.1f}s)", flush=True)


def sigma(k: int, m: int) -> int:
    return sum(d**k for d in range(1, m + 1) if m % d == 0)


def test_criterion_1_scalar_coefficients(capsys):
    def check():
        start = time.perf_counter()
        for m in range(1, 21):
            assert scalar_coefficient(m, 8) == 240 * sigma(3, m), m
        for m in range(1, 6):
            assert scalar_coefficient(m, 24) == Fraction(65520, 691) * sigma(11, m), m
        elapsed = time.perf_counter() - start
        assert elapsed < 1.0, elapsed
        return "a((m)) matches 240*sigma_3 (m<=20) and (65520/691)*sigma_11 (m<=5)"

    report(capsys, "criterion 1 (degree-1 coefficients)", check)


def test_criterion_2_dim8_coefficients_vs_embeddings(capsys):
    def check():
        start = time.perf_counter()
        systems = enumerate_systems(8)
        for rs in systems:
            assert eisenstein_coefficient(rs, 8) == rep_count(rs, E8), rs
        elapsed = time.perf_counter() - start
        assert elapsed < 60.0, elapsed
        return f"analytic = combinatorial for all {len(systems)} systems of rank <= 8"

    report(capsys, "criterion 2 (dim-8 genus cross-check)", check)


def test_criterion_3_dim8_dim16_solves(capsys):
    def check():
        start = time.perf_counter()
        t8 = solve_masses(8)
        assert t8.masses == {E8: Fraction(1, 696729600)}
        t16 = solve_masses(16)
        assert t16.total_mass == genus_mass(16)
        assert abs(float(t16.total_mass) / 2.489e-18 - 1) < 5e-4
        assert even_class_bound(t16)[:2] == (2, 2)
        elapsed = time.perf_counter() - start
        assert elapsed < 300.0, elapsed
        return "m(E8) = 1/696729600; dim-16 total = genus mass, class bound 2"

    report(capsys, "criterion 3 (dim-8 and dim-16 solves)", check)


def test_criterion_4_dim24_solve(capsys, table24):
    def check():
        table, solve_seconds = table24
        assert solve_seconds < 7200.0, solve_seconds
        assert len(table.masses) == 24
        assert sum(1 for rs in table.masses if rs.rank == 24) == 23
        assert table.mass(EMPTY) == Fraction(1, 8315553613086720000)
        assert table.total_mass == genus_mass(24)
        assert abs(float(table.total_mass) / 7.937e-15 - 1) < 5e-4
        assert even_class_bound(table)[:2] == (24, 24)
        return (
            "24 nonzero masses (23 full-rank + the rootless class), "
            f"total = genus mass, class bound 24, solved in {solve_seconds:.0f}s"
        )

    report(capsys, "criterion 4 (dim-24 solve)", check)


def test_criterion_5_reduction_pipeline(capsys, table24, table8, table16):
    def check():
        table, _ = table24
        start = time.perf_counter()
        reduced = reduce_masses(table)
        assert reduced.mass(0, EMPTY) == 1
        for n in range(1, 23):
            assert reduced.no_root_mass(n) == 0, n
        even = {8: table8, 16: table16}
        for n, want in enumerate(BOUNDS_UP_TO_22, start=1):
            got = class_lower_bound(reduced, n, even_tables=even)
            assert (got.bound, got.root_system_count) == (want, want), n
        elapsed = time.perf_counter() - start
        assert elapsed < 600.0, elapsed
        return "m_0 = 1, rootless masses vanish for n = 1..22, bounds and counts match"

    report(capsys, "criterion 5 (reduction pipeline from dim 24)", check)


def test_criterion_6_property_suites(capsys):
    from test_embeddings import brute_rep
    from test_padic import _congruent, _random_blocks, _random_unimodular, _signature
    from test_siegel import _random_blocks as _random_siegel_blocks, digest as siegel_digest

    def off_support():
        for name in ("A2", "D4", "E6", "A1 D5", "E8"):
            rs = R(name)
            for p in (3, 5, 7, 11, 13):
                if rs.det % p:
                    assert f_polynomial(system_blocks(rs, p), p) == (1,), (name, p)

    def value_at_zero():
        for name, p in (("E8", 2), ("A2", 2), ("D4", 3), ("A4", 5)):
            assert f_value(system_blocks(R(name), p), p, Fraction(0)) == 1

    def interpolation_matches_recursion():
        # digest of the values recorded where f_value was checked against a
        # separate evaluation of the recursion at each x
        rng = random.Random(5)
        values = []
        for p in (2, 3, 5):
            xs = (Fraction(3, 5), Fraction(-1, 3)) if p == 2 else (Fraction(1, 2),)
            for _ in range(40):
                blocks = _random_siegel_blocks(rng, p)
                values += [str(f_value(blocks, p, x)) for x in xs]
        want = "a2fb0903c9a03372dfc08775d9f42eda2e985ec970935cb6fd55e2d6bb1a2192"
        assert siegel_digest(values) == want

    def jordan_roundtrip():
        rng = random.Random(11)
        for p in (2, 3, 5):
            for _ in range(120):
                blocks = _random_blocks(rng, p)
                mat = block_matrix(blocks, p)
                sig = _signature(blocks, p)
                twisted = _congruent(mat, _random_unimodular(rng, len(mat)))
                assert _signature(jordan_decompose(twisted, p), p) == sig

    def hilbert_properties():
        rng = random.Random(13)
        values = [Fraction(n, d) for n in range(-8, 9) if n for d in range(1, 6)]
        for _ in range(200):
            a, b, c = (rng.choice(values) for _ in range(3))
            for p in (None, 2, 3, 5, 7):
                assert hilbert_symbol(a, b * c, p) == hilbert_symbol(
                    a, b, p
                ) * hilbert_symbol(a, c, p)
            prod = hilbert_symbol(a, b, None)
            for p in (2, 3, 5, 7, 11, 13):
                prod *= hilbert_symbol(a, b, p)
            assert prod == 1

    def embeddings_brute_force():
        targets = [R(s) for s in ("A4", "D4", "A2^2", "A1 A3", "A5")]
        checked = 0
        for target in targets:
            for source in enumerate_systems(target.rank):
                assert rep_count(source, target) == brute_rep(source, target)
                checked += 1
        return checked

    def shuffle_invariance():
        rng = random.Random(17)
        pairs = [("A1^2 A3", "E8"), ("A2 D4", "A2 D4 E6"), ("A1 A2", "D6")]
        for s, t in pairs:
            want = rep_count(R(s), R(t))
            for _ in range(5):
                s_parts = s.split()
                t_parts = t.split()
                rng.shuffle(s_parts)
                rng.shuffle(t_parts)
                assert rep_count(R(" ".join(s_parts)), R(" ".join(t_parts))) == want

    def coefficients_on_corpus():
        # every dim-16 solve-list coefficient against a recorded digest, and
        # a seeded sample against the full-Gram Jordan path
        systems = enumerate_systems(16, dim=16)
        values = {rs: eisenstein_coefficient(rs, 16) for rs in systems}
        want = "266de6f4c6d4786478a3ecc38b2d554538aa4003c234df5022c8ec8a32464a1b"
        assert siegel_digest([f"{rs} {value}" for rs, value in values.items()]) == want
        for rs in random.Random(16).sample(systems, 50):
            assert values[rs] == coefficient_for_gram(system_gram(rs), 16), rs
        return len(systems)

    def check():
        off_support()
        value_at_zero()
        interpolation_matches_recursion()
        jordan_roundtrip()
        hilbert_properties()
        pairs = embeddings_brute_force()
        shuffle_invariance()
        corpus = coefficients_on_corpus()
        return (
            f"local-series, Jordan, Hilbert, embedding ({pairs} pairs) and "
            f"recorded and full-Gram coefficient ({corpus} systems) properties hold"
        )

    report(capsys, "criterion 6 (property suites)", check)


LONG_RUN = os.environ.get("LATMASS_LONG_RUN") == "1"

# dim-32 golden rows, rank <= 4: root system -> mass times Weyl order
DIM32_MASS_TIMES_WEYL = {
    "0": Fraction(1310037331282023326658917, 238863431761920000),
    "A1": Fraction(111536168182433, 5677056),
    "A1^2": Fraction(72024731351193941, 1857945600),
    "A2": Fraction(1327104974887, 2939328),
    "A1^3": Fraction(6904800898075, 124416),
    "A1 A2": Fraction(977951251237, 445440),
    "A3": Fraction(329127961, 74240),
    "A1^4": Fraction(30223371257980501, 471859200),
    "A1^2 A2": Fraction(19867101805, 3456),
    "A2^2": Fraction(1772535692573, 42598400),
    "A1 A3": Fraction(21073837, 768),
    "A4": Fraction(8397751, 384000),
    "D4": Fraction(35841940559, 157212057600),
}

ROOTLESS_BELOW_32 = {
    23: Fraction(1, 84610842624000),
    24: Fraction(1, 1002795171840),
    25: Fraction(0),
    26: Fraction(1, 18720000),
    27: Fraction(206867, 1585059840),
    28: Fraction(17924389897, 26202009600),
    29: Fraction(49612728929, 11136000),
    30: Fraction(7180069576834562839, 175111372800),
}

LEECH_MASS = Fraction(1, 8315553613086720000)


@pytest.mark.skipif(not LONG_RUN, reason="12-min serial dim-32 solve; set LATMASS_LONG_RUN=1")
def test_criterion_7_dim32_long_run(capsys):
    def check():
        cache = os.environ.get("LATTICE_MASS_CACHE") or "/tmp/latmass-long-run"
        os.makedirs(cache, exist_ok=True)
        checkpoint = os.path.join(cache, "masses_dim32.json")  # the CLI cache file
        table = solve_masses(32, checkpoint=checkpoint, workers=os.cpu_count())

        for name, want in DIM32_MASS_TIMES_WEYL.items():
            rs = R(name)
            assert table.mass(rs) * rs.weyl_order == want, name
        assert len(table.masses) == 13218
        assert sum(1 for rs in table.masses if rs.rank == 32) == 143
        assert table.total_mass == genus_mass(32)
        assert even_class_bound(table)[:2] == (1162109024, 13218)

        reduced = reduce_masses(table)
        for n, want in ROOTLESS_BELOW_32.items():
            total = reduced.no_root_mass(n)
            if n == 24:
                total -= LEECH_MASS
            assert total == want, n
        assert class_lower_bound(reduced, 28).bound == 327972
        assert class_lower_bound(reduced, 30).bound == 20169641025
        return "dim-32 table, class bound 1162109024, rootless masses and bounds match"

    report(capsys, "criterion 7 (dim-32 long run)", check)
