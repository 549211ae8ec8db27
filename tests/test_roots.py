"""Root system components, orders, Gram matrices, and enumeration."""

import math
import os
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

import latmass

from latmass.roots import (
    EMPTY,
    RootSystem,
    component_gram,
    component_roots,
    enumerate_systems,
    normalize_component,
    system_gram,
)
from latmass.solver import _order_digest


def det(mat):
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        inv = 1 / a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] * inv
            for k in range(c, n):
                a[r][k] -= f * a[c][k]
    return out


def test_normalization():
    assert normalize_component("A", 0) == ()
    assert normalize_component("A", -1) == ()
    assert normalize_component("D", 0) == ()
    assert normalize_component("D", 1) == ()
    assert normalize_component("D", 2) == (("A", 1), ("A", 1))
    assert normalize_component("D", 3) == (("A", 3),)
    assert RootSystem.parse("D2") == RootSystem.parse("A1^2")
    assert RootSystem.parse("D3") == RootSystem.parse("A3")


def test_parse_and_str_round_trip():
    for text in ["0", "A1", "A1^2", "A2", "D4", "E8", "A1^2 A3 D5", "Z^3 A1", "A17 E7"]:
        rs = RootSystem.parse(text)
        assert str(rs) == text
        assert RootSystem.parse(str(rs)) == rs
    assert RootSystem.parse("") == EMPTY
    assert str(EMPTY) == "0"
    assert RootSystem.parse("A3 A1^2 D5") == RootSystem.parse("A1^2 A3 D5")


def test_parse_rejects_junk():
    for bad in ["E5", "B2", "A1^", "Q", "A", "E9", "A0", "D1"]:
        with pytest.raises(ValueError):
            RootSystem.parse(bad)


def test_basic_invariants():
    cases = {
        "0": (0, 1, 0, 1, 1),
        "A1": (1, 2, 2, 2, 2),
        "A2": (2, 3, 6, 6, 12),
        "A1^2": (2, 4, 4, 4, 8),
        "A3": (3, 4, 12, 24, 48),
        "D4": (4, 4, 24, 192, 1152),
        "D5": (5, 4, 40, 1920, 3840),
        "E6": (6, 3, 72, 51840, 103680),
        "E7": (7, 2, 126, 2903040, 2903040),
        "E8": (8, 1, 240, 696729600, 696729600),
        "Z": (1, 1, 0, 2, 2),
        "Z^3": (3, 1, 0, 48, 48),
        "Z^2 A1": (3, 2, 2, 16, 16),
    }
    for text, (rank, d, roots, weyl, aut) in cases.items():
        rs = RootSystem.parse(text)
        assert rs.rank == rank, text
        assert rs.det == d, text
        assert rs.root_count == roots, text
        assert rs.weyl_order == weyl, text
        assert rs.aut_order == aut, text


def test_root_counts_formulae():
    for n in range(1, 12):
        assert RootSystem.parse(f"A{n}").root_count == n * (n + 1)
    for n in range(4, 12):
        assert RootSystem.parse(f"D{n}").root_count == 2 * n * (n - 1)


def test_gram_determinants():
    for n in range(1, 9):
        assert det(component_gram("A", n)) == n + 1
    for n in range(4, 9):
        assert det(component_gram("D", n)) == 4
    assert det(component_gram("E", 6)) == 3
    assert det(component_gram("E", 7)) == 2
    assert det(component_gram("E", 8)) == 1
    rs = RootSystem.parse("A2 D4")
    assert det(system_gram(rs)) == rs.det == 12


def test_reflection_closure_counts():
    for kind, rank in [("A", 1), ("A", 2), ("A", 4), ("D", 4), ("D", 5), ("E", 6)]:
        roots = component_roots(kind, rank)
        assert len(roots) == RootSystem.from_parts([(kind, rank)]).root_count
        assert all(tuple(-c for c in v) in roots for v in roots)


def test_remove_and_add():
    rs = RootSystem.parse("A1^2 D4")
    assert rs.remove("A", 1) == RootSystem.parse("A1 D4")
    assert rs.remove("A", 1, 2) == RootSystem.parse("D4")
    assert rs.remove("D", 4).add_parts([("A", 1), ("A", 1)]) == RootSystem.parse("A1^4")
    with pytest.raises(ValueError):
        rs.remove("E", 8)


def test_small_enumeration_order():
    systems = enumerate_systems(2)
    assert [str(rs) for rs in systems] == ["0", "A1", "A1^2", "A2"]
    s8 = enumerate_systems(8)
    assert s8[0] == EMPTY
    ranks = [rs.rank for rs in s8]
    assert ranks == sorted(ranks)
    for a, b in zip(s8, s8[1:]):
        assert a.sort_key < b.sort_key
    assert RootSystem.parse("E8") in s8
    assert len(set(s8)) == len(s8)


def test_rank_equal_dim_filter():
    systems = enumerate_systems(8, dim=8)
    full = [rs for rs in systems if rs.rank == 8]
    assert all(rs.det == int(rs.det**0.5 + 0.5) ** 2 for rs in full)
    assert RootSystem.parse("E8") in full
    assert RootSystem.parse("A8") in full  # det 9 is a square
    assert RootSystem.parse("A2 A6") not in systems  # det 21 is not
    assert RootSystem.parse("A2 A5") in systems  # rank 7 < dim, never filtered


# (dim, filters) -> (count, digest of the names in solver order), recorded
# from the enumeration that built every system and then filtered and sorted
ORDER_DIGESTS = {
    (8, True): (79, "d51f473f4e4974e5"),
    (8, False): (101, "b2299842cb8342dc"),
    (16, True): (2013, "3d43eedb5e50d756"),
    (16, False): (2631, "af57e04946002eac"),
    (24, True): (30104, "b665711468e2e669"),
    (24, False): (38708, "d2e2fa41c01ae9fe"),
    (32, True): (135443, "361da096e3ea56da"),
    (32, False): (405844, "d737709ab7830d56"),
}


def test_enumeration_counts():
    for (dim, filters), (count, digest) in ORDER_DIGESTS.items():
        names = [str(rs) for rs in enumerate_systems(dim, dim=dim, filters=filters)]
        assert len(names) == count, (dim, filters)
        assert _order_digest(names) == digest, (dim, filters)


def reference_systems(dim, filters):
    """For dim < 32: every multiset of components of rank <= dim, grown one
    component at a time from the empty system, then filtered and sorted on
    properties each RootSystem computes afresh."""
    kinds = [("A", n) for n in range(1, dim + 1)] + [("D", n) for n in range(4, dim + 1)]
    kinds += [("E", n) for n in (6, 7, 8) if n <= dim]
    found = {EMPTY}
    frontier = [EMPTY]
    while frontier:
        grown = {
            rs.add_parts([part])
            for rs in frontier
            for part in kinds
            if rs.rank + part[1] <= dim
        }
        frontier = list(grown - found)
        found |= grown

    def keep(rs):
        # below dimension 32 the only filter is a square determinant at full rank
        return rs.rank < dim or math.isqrt(rs.det) ** 2 == rs.det

    systems = list(found)
    if filters:
        systems = [rs for rs in systems if keep(rs)]
    return sorted(systems, key=lambda rs: (rs.rank, -rs.det, str(rs)))


def test_enumeration_matches_reference():
    # the recursion stores the name, rank, det and root count it carried;
    # each must equal what the reference's fresh RootSystems compute
    def seen(systems):
        return [(rs.components, rs.name, rs.rank, rs.det, rs.root_count) for rs in systems]

    for dim in (4, 8, 12, 16):
        for filters in (True, False):
            got = enumerate_systems(dim, dim=dim, filters=filters)
            assert seen(got) == seen(reference_systems(dim, filters)), (dim, filters)


def test_bad_arguments_raise_under_optimize():
    # the argument and self checks are raises, not asserts, so they hold
    # under python -O too
    script = (
        "from latmass import roots\n"
        "from latmass.embeddings import rep_count\n"
        "R = roots.RootSystem.parse\n"
        "calls = [\n"
        "    lambda: roots.normalize_component('E', 5),\n"
        "    lambda: roots.normalize_component('A', -2),\n"
        "    lambda: roots.normalize_component('B', 2),\n"
        "    lambda: roots.RootSystem.from_parts([('A', 1, -1)]),\n"
        "    lambda: R('A1^2 D4').remove('E', 8),\n"
        "    lambda: R('A1').remove('A', 1, 2),\n"
        "    lambda: roots.system_gram(R('Z A1')),\n"
        "    lambda: roots.component_gram('D', 3),\n"
        "    lambda: rep_count(R('Z'), R('A1')),\n"
        "    lambda: rep_count(R('A1'), R('Z A1')),\n"
        "]\n"
        "for i, call in enumerate(calls):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'no ValueError from call {i}')\n"
        "roots._component_roots = lambda kind, rank: 0\n"
        "try:\n"
        "    roots.component_roots('A', 2)\n"
        "except RuntimeError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no RuntimeError from a wrong root count')\n"
    )
    env = dict(os.environ, PYTHONPATH=str(Path(latmass.__file__).parents[1]))
    result = subprocess.run(
        [sys.executable, "-O", "-c", script], capture_output=True, text=True, env=env
    )
    assert result.returncode == 0, result.stderr
