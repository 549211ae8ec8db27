"""Reduction to odd lattices and the class-number machinery built on it."""

import math
from fractions import Fraction

import pytest

from conftest import run_python
from latmass.reduction import (
    OddMassTable,
    bound_dim31,
    bound_dim32_odd,
    class_lower_bound,
    even_class_bound,
    milgram_norm4_count,
    mod_ceiling,
    no_root_masses,
    reduce_masses,
    w_prime,
)
from latmass.roots import EMPTY, RootSystem
from latmass.solver import MassTable

R = RootSystem.parse

# class-number lower bounds and root-system counts for odd unimodular
# lattices, dimensions 1..22 (the two agree throughout this range)
BOUNDS_UP_TO_22 = [1, 1, 1, 1, 1, 1, 1, 1, 2, 2, 2, 3, 3, 4, 5, 6, 9, 13, 16, 28, 40, 68]

M32_NO_ROOTS = Fraction(1310037331282023326658917, 238863431761920000)


def test_mod_ceiling_cases():
    assert mod_ceiling(0) == 0
    assert mod_ceiling(5) == 5
    assert mod_ceiling(Fraction(22, 7)) == 4  # 3 + 1/7
    assert mod_ceiling(Fraction(1, 2)) == 1
    assert mod_ceiling(Fraction(2, 3)) == 2
    assert mod_ceiling(Fraction(17, 3)) == 7  # 5 + 2/3
    assert mod_ceiling(Fraction(2, 4)) == 1  # reduces to 1/2 first
    with pytest.raises(ValueError):
        mod_ceiling(Fraction(-1, 2))


def test_w_prime():
    assert w_prime(R("E8"), 8) == 696729600
    assert w_prime(R("A2"), 2) == 12
    assert w_prime(EMPTY, 5) == 2
    assert w_prime(R("Z^9"), 9) == 2**9 * 362880
    assert w_prime(R("D6"), 6) == R("D6").weyl_order
    assert w_prime(R("D7"), 7) == 2 * R("D7").weyl_order
    assert w_prime(R("A1"), 1) == 2
    assert w_prime(R("Z E8"), 9) == 2 * 696729600
    assert w_prime(R("A15"), 15) == 2 * R("A15").weyl_order
    # rank below the lattice dimension always doubles
    assert w_prime(R("E8"), 9) == 2 * 696729600


def test_reduce_dim8(table8):
    reduced = reduce_masses(table8)
    assert reduced.dimensions() == [0]
    assert reduced.mass(0, EMPTY) == 1
    assert reduced.summands(0, EMPTY) == [(R("E8"), Fraction(1))]


def test_reduce_dim16(table16, table8):
    reduced = reduce_masses(table16)
    # E8 consumed inside one copy of E8^2 regenerates the dim-8 genus
    assert reduced.mass(8, R("E8")) == table8.mass(R("E8"))
    assert reduced.mass(0, EMPTY) == 1
    # the dim-0 bucket is one summand of mass 1, so class_lower_bound needs
    # no branch of its own for it: D_base consumed whole, at every base
    assert reduced.summands(0, EMPTY) == [(R("D16"), Fraction(1))]
    assert reduced.systems(14) == [R("E7^2")]
    assert reduced.systems(12) == [R("D12")]


def test_case1_vector_count_example():
    # a single norm-4 vector shape: one A_1 root against one D_5 root
    source = R("A1^4 D5")
    table = MassTable(32, {source: Fraction(1, 7)})
    reduced = reduce_masses(table)
    target = R("A1^4 A3")
    assert reduced.summands(30, target) == [(source, Fraction(320, 7))]


def test_low_dimensional_bounds_from_dim8(table8):
    reduced = reduce_masses(table8)
    for n in range(1, 7):
        got = class_lower_bound(reduced, n)
        assert (got.bound, got.root_system_count) == (1, 1)
    one = class_lower_bound(reduced, 1)
    assert one.systems == {R("Z"): Fraction(1, 2)}


def test_bound_dim8_strips_even_lattices(table16, table8):
    reduced = reduce_masses(table16)
    got = class_lower_bound(reduced, 8, even_tables={8: table8})
    assert (got.bound, got.root_system_count) == (1, 1)
    assert set(got.systems) == {R("Z^8")}
    with pytest.raises(ValueError):
        class_lower_bound(reduced, 8)


def test_reduction_base_independence(table16, table24):
    table, _ = table24
    from16 = reduce_masses(table16)
    from24 = reduce_masses(table)
    for n in range(15):
        assert from16.systems(n) == from24.systems(n), n
        for rs in from16.systems(n):
            assert from16.mass(n, rs) == from24.mass(n, rs), (n, rs)


def test_even_class_bounds(table8, table16, table24):
    assert even_class_bound(table8)[:2] == (1, 1)
    assert even_class_bound(table16)[:2] == (2, 2)
    table, _ = table24
    assert even_class_bound(table)[:2] == (24, 24)


def test_dim24_no_root_buckets(table24):
    table, _ = table24
    reduced = reduce_masses(table)
    assert reduced.mass(0, EMPTY) == 1
    assert reduced.summands(0, EMPTY) == [(R("D24"), Fraction(1))]
    for n in range(1, 23):
        assert reduced.no_root_mass(n) == 0, n
    rootless = no_root_masses(table)
    assert set(rootless) == set(range(15, 23))
    assert all(v == 0 for v in rootless.values())


def test_no_root_closed_forms_one_source_at_a_time():
    # each base system a single step can consume, alone in a table: the
    # closed forms must equal the rootless buckets of the full reduction
    # (dims 8 to 24 have no pure D5..D9 mass, so the solved tables cannot
    # show this)
    sources = ["D4", "D5", "D6", "D7", "D8", "D9", "E6", "E8", "A3", "A4", "A1^2", "A1 A2", "A2^2"]
    for base in (24, 32):
        for name in sources:
            table = MassTable(base, {R(name): Fraction(1)})
            reduced = reduce_masses(table)
            want = {n: reduced.no_root_mass(n) for n in range(base - 9, base - 1)}
            assert any(want.values()), (base, name)
            assert no_root_masses(table) == want, (base, name)


def test_dim24_even_sub_tables(table24, table16):
    # consuming the E8 factor of R + E8 recovers the dim-16 even masses
    table, _ = table24
    reduced = reduce_masses(table)
    for rs in (R("D16"), R("E8^2")):
        assert reduced.mass(16, rs) == table16.mass(rs), rs


def test_class_bounds_match_reference_up_to_22(table24, table8, table16):
    table, _ = table24
    reduced = reduce_masses(table)
    even = {8: table8, 16: table16}
    for n, want in enumerate(BOUNDS_UP_TO_22, start=1):
        got = class_lower_bound(reduced, n, even_tables=even)
        assert got.bound == want, (n, got.bound, want)
        assert got.root_system_count == want, (n, got.root_system_count, want)


def test_odd_genus_masses_up_to_12(table16, table8):
    # the odd unimodular lattices of dimension n <= 12 are known: Z^n, from
    # n = 9 also E8 + Z^(n-8), and at n = 12 also D12+ (Conway and Sloane,
    # "Low-dimensional lattices IV", Proc. R. Soc. A 419, 1988); the masses
    # of the bound's systems, Z^j factors restored, add up to their 1/|Aut|
    reduced = reduce_masses(table16)
    w_e8 = R("E8").weyl_order
    for n in range(1, 13):
        want = Fraction(1, 2**n * math.factorial(n))
        if n >= 9:
            want += Fraction(1, w_e8 * 2 ** (n - 8) * math.factorial(n - 8))
        if n == 12:
            want += Fraction(1, 2**11 * math.factorial(12))
        got = class_lower_bound(reduced, n, even_tables={8: table8}).systems
        assert sum(got.values(), Fraction(0)) == want, n


def test_dim16_bound_mechanism(table24, table8, table16):
    table, _ = table24
    reduced = reduce_masses(table)
    got = class_lower_bound(reduced, 16, even_tables={8: table8, 16: table16})
    want = {R("Z^16"), R("Z^8 E8"), R("Z^4 D12"), R("Z^2 E7^2"), R("Z A15"), R("D8^2")}
    assert set(got.systems) == want


def test_milgram_count():
    assert milgram_norm4_count(32) == 2**31 + 2**15 == 2147516416


def test_dim31_and_dim32_bounds():
    assert bound_dim31(M32_NO_ROOTS) == Fraction(
        22270634631794396553201589, 55292461056000
    )
    assert bound_dim31(Fraction(0)) == 0
    odd32 = bound_dim32_odd(M32_NO_ROOTS)
    assert odd32 == Fraction(2147442975, 2) * M32_NO_ROOTS
    assert 5.8e15 < float(odd32) < 5.9e15
    assert bound_dim32_odd(Fraction(0)) == 0


def test_checks_raise_under_optimize():
    # bad arguments raise ValueError and failed self-checks RuntimeError,
    # not asserts, so they hold under python -O too
    script = (
        "from fractions import Fraction\n"
        "from latmass import reduction as red\n"
        "from latmass.roots import RootSystem\n"
        "from latmass.solver import MassTable\n"
        "R = RootSystem.parse\n"
        "e8 = MassTable(8, {R('E8'): Fraction(1, 696729600)})\n"
        "heavy_e8 = MassTable(8, {R('E8'): Fraction(1)})\n"
        "def odd16():\n"
        "    table = red.OddMassTable(16)\n"
        "    table._add(8, R('E8'), R('E8^2'), Fraction(1, 3))\n"
        "    return table\n"
        "calls = [\n"
        "    (ValueError, lambda: red._orbit_factor(0)),\n"
        "    (ValueError, lambda: red.reduce_masses(MassTable(12, {}))),\n"
        "    (ValueError, lambda: red.milgram_norm4_count(12)),\n"
        "    (ValueError, lambda: red.mod_ceiling(Fraction(-1, 2))),\n"
        "    (ValueError, lambda: red.class_lower_bound(odd16(), 0)),\n"
        "    (ValueError, lambda: red.class_lower_bound(odd16(), 15)),\n"
        "    (RuntimeError, lambda: odd16()._add(8, R('E8'), R('D16'), Fraction(0))),\n"
        "    (RuntimeError, lambda: red.reduce_masses(MassTable(8, {R('E8'): Fraction(-1)}))),\n"
        "    (RuntimeError, lambda: red.class_lower_bound(odd16(), 1)),\n"
        "    (RuntimeError, lambda: red.class_lower_bound(odd16(), 8, {8: heavy_e8})),\n"
        "]\n"
        "for i, (error, call) in enumerate(calls):\n"
        "    try:\n"
        "        call()\n"
        "    except error:\n"
        "        continue\n"
        "    raise SystemExit(f'no {error.__name__} from call {i}')\n"
        "red.no_root_masses(e8)\n"
        "red._no_root_closed_forms = lambda table: {0: Fraction(2)}\n"
        "red._consumed_weight = lambda kind, rank: 0\n"
        "for check in (lambda: red.no_root_masses(e8), red._check_factor_identities):\n"
        "    try:\n"
        "        check()\n"
        "    except RuntimeError:\n"
        "        continue\n"
        "    raise SystemExit(f'no RuntimeError from {check}')\n"
    )
    result = run_python("-O", "-c", script)
    assert result.returncode == 0, result.stderr


def test_odd_table_accessors():
    table = OddMassTable(16)
    table._add(8, R("E8"), R("E8^2"), Fraction(1, 3))
    table._add(8, R("E8"), R("D16"), Fraction(1, 6))
    assert table.dimensions() == [8]
    assert table.mass(8, R("E8")) == Fraction(1, 2)
    assert table.mass(8, R("D8")) == 0
    assert [s for s, _ in table.summands(8, R("E8"))] == [R("D16"), R("E8^2")]
