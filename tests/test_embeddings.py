"""Embedding counts against a brute-force root enumeration oracle."""

import hashlib

from latmass import embeddings
from latmass.embeddings import component_rows, rep_count
from latmass.roots import RootSystem, component_roots, enumerate_systems, system_gram
from latmass.siegel import eisenstein_coefficient

parse = RootSystem.parse


def brute_rep(source: RootSystem, target: RootSystem) -> int:
    """Count simple-system maps by explicit backtracking over target roots."""
    dim = target.rank
    troots = []
    at = 0
    for kind, rank, mult in target.components:
        for _ in range(mult):
            for v in component_roots(kind, rank):
                troots.append((0,) * at + v + (0,) * (dim - at - rank))
            at += rank
    gram = system_gram(target)
    # by_product[a][t]: the roots whose inner product with root a is t
    by_product = []
    for u in troots:
        gu = tuple(sum(gram[i][j] * u[i] for i in range(dim)) for j in range(dim))
        groups = {}
        for b, v in enumerate(troots):
            groups.setdefault(sum(gu[j] * v[j] for j in range(dim)), set()).add(b)
        by_product.append(groups)
    sgram = system_gram(source)
    r = source.rank
    count = 0
    chosen = []

    def extend(i):
        nonlocal count
        if i == r:
            count += 1
            return
        candidates = set(range(len(troots)))
        for j in range(i):
            candidates &= by_product[chosen[j]].get(sgram[j][i], set())
        for c in candidates:
            chosen.append(c)
            extend(i + 1)
            chosen.pop()

    extend(0)
    return count


def test_self_embeddings_count_automorphisms():
    for name in ["A1", "A2", "A3", "A4", "A5", "D4", "D5", "E6", "E7", "E8", "A1^2 D4", "A2^3"]:
        rs = parse(name)
        assert rep_count(rs, rs) == rs.aut_order, name


def test_frozen_counts():
    assert rep_count(parse("0"), parse("E8")) == 1
    assert rep_count(parse("A1"), parse("D4")) == 24
    assert rep_count(parse("A1^3"), parse("D4")) == 576
    assert rep_count(parse("A1^2"), parse("E8")) == 30240
    assert rep_count(parse("A1^3"), parse("E8")) == 1814400
    assert rep_count(parse("A2"), parse("E8")) == 13440
    assert rep_count(parse("A1^2"), parse("A4")) == 120
    assert rep_count(parse("A1^3"), parse("A4")) == 0
    assert rep_count(parse("E8"), parse("D8")) == 0
    assert rep_count(parse("A2"), parse("A1^4")) == 0


def test_component_rows_basics():
    assert component_rows("A", 1, "A", 2) == ((3, (("A", 0),)),)
    assert component_rows("D", 4, "D", 6) == ((15, (("D", 2),)),)
    assert component_rows("E", 6, "A", 9) == ()
    assert component_rows("A", 3, "D", 4) == ((8, (("D", 0),)), (4, (("D", 1),)))


def test_against_brute_force():
    targets = ["A4", "D4", "A5", "D5", "A2^2", "A1 D4", "E6"]
    for tname in targets:
        target = parse(tname)
        for source in enumerate_systems(target.rank):
            assert rep_count(source, target) == brute_rep(source, target), (
                str(source),
                tname,
            )


def test_matches_eisenstein_in_dimension_8():
    for name in ["A1 D4", "A2^2", "D6", "A1 E6", "A1^2 A3", "A4"]:
        rs = parse(name)
        assert eisenstein_coefficient(rs, 8) == rep_count(rs, parse("E8")), name


NIEMEIER = (
    "D24", "D16 E8", "E8^3", "A24", "D12^2", "A17 E7", "D10 E7^2", "A15 D9",
    "D8^3", "A12^2", "A11 D7 E6", "E6^4", "A9^2 D6", "D6^4", "A8^3",
    "A7^2 D5^2", "A6^4", "A5^4 D4", "D4^6", "A4^6", "A3^8", "A2^12", "A1^24",
)


def dim24_pairs():
    """Every 16th filtered dim-24 system against the Niemeier systems."""
    niemeier = [parse(name) for name in NIEMEIER]
    return [(s, t) for s in enumerate_systems(24, dim=24)[::16] for t in niemeier]


def dim16_pairs():
    """Every filtered dim-16 system against D16 and E8^2."""
    targets = [parse("D16"), parse("E8^2")]
    return [(s, t) for s in enumerate_systems(16, dim=16) for t in targets]


def test_rep_count_matches_recorded():
    # digest of the "source<TAB>target<TAB>count" lines, recorded with the
    # RootSystem-based recursion this one replaced
    lines = [f"{s}\t{t}\t{rep_count(s, t)}" for s, t in dim24_pairs() + dim16_pairs()]
    assert len(lines) == 47312
    assert (
        hashlib.sha256("\n".join(lines).encode()).hexdigest()
        == "d03b4e99d6bd9a72cf3e8a8ca969cd915e5cf25100a45c6c8d231319100d181d"
    )


def test_memo_cap_clears(monkeypatch):
    pairs = dim16_pairs()
    want = [rep_count(s, t) for s, t in pairs]
    monkeypatch.setattr(embeddings, "_MEMO", {})
    monkeypatch.setattr(embeddings, "_MEMO_CAP", 16)
    assert [rep_count(s, t) for s, t in pairs] == want
    assert 0 < len(embeddings._MEMO) <= 16


def test_memo_holds_only_sub_problems(monkeypatch):
    # the pair asked for is never asked again, so only the pairs the
    # recursion peels down to are stored: A2 from E8 leaves E6, then A1 A5
    monkeypatch.setattr(embeddings, "_MEMO", {})
    source, target = parse("A1^2 A2"), parse("E8")
    assert rep_count(source, target) > 0
    assert (source.components, target.components) not in embeddings._MEMO

    def key(s, t):
        return parse(s).components, parse(t).components

    assert set(embeddings._MEMO) == {key("A1^2", "E6"), key("A1", "A5")}
    assert embeddings._MEMO[key("A1^2", "E6")] == rep_count(parse("A1^2"), parse("E6"))
