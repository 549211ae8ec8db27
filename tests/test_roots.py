"""Root system components, orders, Gram matrices, and enumeration."""

import dataclasses
import math
import pickle
from collections import Counter
from fractions import Fraction
from itertools import combinations

import pytest

from conftest import run_python
from latmass.roots import (
    EMPTY,
    RootSystem,
    _borcherds_mod,
    _completion_table,
    _component_types,
    _rank_counts,
    _walk,
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
    bad_tokens = ["E5", "B2", "A1^", "Q", "A", "E9", "E-6", "A0", "A-1", "D0", "D1"]
    # a multiplicity of 0 would drop the component, as A0 and D1 would be
    bad_tokens += ["A1^0", "Z^0", "E6^0 A2"]
    for bad in bad_tokens:
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
    # signed multiplicities: a system with components swapped out is one call
    comps = RootSystem.parse("A1^2 D4").components
    assert RootSystem.from_parts([*comps, ("A", 1, -1)]) == RootSystem.parse("A1 D4")
    assert RootSystem.from_parts([*comps, ("A", 1, -2)]) == RootSystem.parse("D4")
    # D2 normalizes to A1^2 before the counts are summed
    assert RootSystem.from_parts([*comps, ("D", 4, -1), ("D", 2)]) == RootSystem.parse("A1^4")
    with pytest.raises(ValueError, match="E8"):
        RootSystem.from_parts([*comps, ("E", 8, -1)])


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


def test_smallest_enumerations():
    assert enumerate_systems(0) == [EMPTY]
    assert [str(rs) for rs in enumerate_systems(1)] == ["0", "A1"]


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


# the dim-32 walks several tests check, each made once for the module:
# the solve list, the ranks below 32 and rank 32 alone


@pytest.fixture(scope="module")
def full32():
    return enumerate_systems(32, dim=32)


@pytest.fixture(scope="module")
def lower32():
    return enumerate_systems(31, dim=32)


@pytest.fixture(scope="module")
def top32():
    return _walk(32, 32, True)


def test_enumeration_counts(full32):
    for (dim, filters), (count, digest) in ORDER_DIGESTS.items():
        if (dim, filters) == (32, True):
            systems = full32
        else:
            systems = enumerate_systems(dim, dim=dim, filters=filters)
        names = [str(rs) for rs in systems]
        assert len(names) == count, (dim, filters)
        assert _order_digest(names) == digest, (dim, filters)


# dim -> (count, digest of repr(rs.components) in solver order), recorded
# from the recursion that added components in name order and then sorted them
COMPONENT_DIGESTS = {24: (30104, "cbe734c79d156ad4"), 32: (135443, "5a5091ce0a85d866")}
# dim -> digest of "name\trank\tdet\troot_count" in solver order, recorded
# from the enumeration that sorted (-det, name, ...) tuples and built each
# system through RootSystem's __init__
FIELD_DIGESTS = {24: "307b818e6ff10e7a", 32: "6cd381b57ac0cfc1"}


def test_enumeration_components(full32):
    for dim, (count, digest) in COMPONENT_DIGESTS.items():
        systems = full32 if dim == 32 else enumerate_systems(dim, dim=dim)
        assert len(systems) == count, dim
        assert _order_digest([repr(rs.components) for rs in systems]) == digest, dim
        fields = [f"{rs.name}\t{rs.rank}\t{rs.det}\t{rs.root_count}" for rs in systems]
        assert _order_digest(fields) == FIELD_DIGESTS[dim], dim
    # on every 97th dim-32 system: canonical components, the invariants the
    # recursion passes in equal those from_parts derives, and the system is
    # the same frozen, slotted value as one from_parts builds
    for rs in systems[::97]:
        fresh = RootSystem.from_parts(rs.components)
        assert rs.components == fresh.components
        seeded = (rs.name, rs.rank, rs.det, rs.root_count)
        assert seeded == (fresh.name, fresh.rank, fresh.det, fresh.root_count), rs.components
        assert rs == fresh and hash(rs) == hash(fresh), rs
        assert not hasattr(rs, "__dict__"), rs
        back = pickle.loads(pickle.dumps(rs))
        assert back == rs and hash(back) == hash(rs)
        assert (back.name, back.rank, back.det, back.root_count) == seeded, rs
        for f in dataclasses.fields(RootSystem):
            with pytest.raises(dataclasses.FrozenInstanceError):
                setattr(rs, f.name, getattr(rs, f.name))


def test_walk_counts_and_top_bucket(full32, lower32, top32):
    # the solve takes its count from the top walk and the counted lower
    # ranks, and its list from the top walk followed by the enumeration one
    # rank short
    def seen(systems):
        return [(rs.components, rs.name, rs.rank, rs.det, rs.root_count) for rs in systems]

    for dim in (8, 16, 24, 32):
        if dim == 32:
            full, top, lower = full32, top32, lower32
        else:
            full = enumerate_systems(dim, dim=dim)
            top = _walk(dim, dim, True)
            lower = enumerate_systems(dim - 1, dim=dim)
        assert seen(top) == seen(rs for rs in full if rs.rank == dim), dim
        assert sum(_rank_counts(dim - 1, dim)) + len(top) == len(full), dim
        assert seen(lower + top) == seen(full), dim
    # a walk that keeps only systems of rank max_rank skips the prefixes
    # that no completion brings through the filters: below dim 32 only the
    # Borcherds one, at (12, 24) none, so there only the rank must fill, and
    # without a dim it builds no completion table
    for max_rank, dim in ((9, 32), (17, 32), (25, 32), (31, 32), (12, 24), (14, None)):
        full = lower32 if (max_rank, dim) == (31, 32) else _walk(max_rank, dim, False)
        got = _walk(max_rank, dim, True)
        assert seen(got) == seen(rs for rs in full if rs.rank == max_rank), (max_rank, dim)


def test_completion_table_matches_every_multiset(monkeypatch):
    # the table a walk filling the rank consults, at every type and budget
    # up to 8, against every multiset of component types that fills it:
    # each maps (squarefree part of the determinant, lcm of the moduli) of a
    # system to the root counts mod width with which the multiset completes
    # it through the filters, which are decided here by the determinant
    # itself and by _borcherds_mod
    def multisets(types, i, b):
        if not b:
            yield ()
        for j in range(i, len(types)):
            if types[j][1] <= b:
                for rest in multisets(types, j, b - types[j][1]):
                    yield (types[j], *rest)

    def squarefree(n):
        return next(q for q in range(1, n + 1) if not n % q and math.isqrt(n // q) ** 2 == n // q)

    tables = []

    def capture(*args):
        tables.append(_completion_table(*args))
        return tables[-1]

    monkeypatch.setattr("latmass.roots._completion_table", capture)
    for dim in (24, 32):
        types = _component_types(dim)
        mods = {_borcherds_mod(kind, r, dim) for kind, r in types}
        lcms = {math.lcm(*sub) for k in range(len(mods) + 1) for sub in combinations(mods, k)}
        _walk(dim, dim, True)
        width, table = tables.pop()
        assert width == math.lcm(*mods), dim
        # the root counts mod width that are -y mod m
        hits = {
            (m, y): sum(1 << x for x in range(width) if not (x + y) % m)
            for m in lcms
            for y in range(m)
        }
        for i in range(len(types) + 1):
            for b in range(9):
                want = {}
                for parts in multisets(types, i, b):
                    rs = RootSystem.from_parts(parts)
                    m = math.lcm(*(_borcherds_mod(kind, r, dim) for kind, r in parts))
                    for m0 in lcms:
                        key, lcm = (squarefree(rs.det), m0), math.lcm(m0, m)
                        want[key] = want.get(key, 0) | hits[lcm, rs.root_count % lcm]
                got = {
                    (math.prod(p for p in range(64) if key >> 6 >> p & 1), key & 63): mask
                    for key, mask in table[i][b].items()
                }
                assert got == want, (dim, i, b)


# systems per rank 0..32 of the filtered dim-32 solve list, recorded from
# the walk that visited every system of every rank
RANKS_32 = [
    1, 1, 2, 3, 6, 9, 16, 20, 35, 51, 72, 97, 149, 200, 285, 381, 540, 717,
    979, 1262, 1709, 2281, 2973, 3831, 5153, 6545, 8486, 10941, 13945, 17861,
    22934, 28652, 5306,
]


def test_rank_counts_match_the_walk(lower32, top32):
    # the serial solve counts the ranks below dim instead of walking them;
    # the count must be the walk's, Borcherds filter (dim 32) and all
    for dim in (8, 16, 24, 32):
        lower = lower32 if dim == 32 else enumerate_systems(dim - 1, dim=dim)
        ranks = Counter(rs.rank for rs in lower)
        assert _rank_counts(dim - 1, dim) == [ranks[r] for r in range(dim)], dim
    ranks = Counter(rs.rank for rs in enumerate_systems(24))
    for max_rank in range(25):
        assert _rank_counts(max_rank, None) == [ranks[r] for r in range(max_rank + 1)]
    assert sum(RANKS_32) == 135443
    assert _rank_counts(31, 32) + [len(top32)] == RANKS_32


def test_root_system_is_a_slotted_value():
    # pool workers get their systems by pickle, fields and all
    systems = [
        RootSystem.parse("A1^2 D4 E8"),
        RootSystem.parse("0"),
        RootSystem.from_parts([("D", 3), ("Z", 1, 2)]),
        *enumerate_systems(16, dim=16)[::400],
    ]
    for rs in systems:
        assert not hasattr(rs, "__dict__"), rs
        back = pickle.loads(pickle.dumps(rs))
        assert back == rs and hash(back) == hash(rs)
        fields = (back.name, back.rank, back.det, back.root_count)
        assert fields == (rs.name, rs.rank, rs.det, rs.root_count), rs


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
            RootSystem.from_parts([*rs.components, part])
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
        "    lambda: roots.RootSystem.from_parts([*R('A1^2 D4').components, ('E', 8, -1)]),\n"
        "    lambda: roots.RootSystem.from_parts([('A', 1), ('A', 1, -2)]),\n"
        "    lambda: roots.system_gram(R('Z A1')),\n"
        "    lambda: roots.component_gram('D', 3),\n"
        "    lambda: roots.enumerate_systems(-1),\n"
        "    lambda: roots._walk(16, 8, True),\n"
        "    lambda: roots.enumerate_systems(10, dim=8),\n"
        "    lambda: roots._rank_counts(16, 16),\n"
        "    lambda: rep_count(R('Z'), R('A1')),\n"
        "    lambda: rep_count(R('A1'), R('Z A1')),\n"
        "    lambda: rep_count(R('Z^3'), R('A1')),\n"
        "    lambda: rep_count(R('A1'), R('Z')),\n"
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
    result = run_python("-O", "-c", script)
    assert result.returncode == 0, result.stderr
