"""Embedding counts against a brute-force root enumeration oracle."""

import collections
import gc
import hashlib
import operator
import random

from conftest import run_python
from latmass import embeddings
from latmass.embeddings import component_rows, rep_count
from latmass.roots import RootSystem, component_roots, enumerate_systems, system_gram
from latmass.siegel import eisenstein_coefficient
from latmass.solver import solve_masses

parse = RootSystem.parse


def brute_rep(source: RootSystem, target: RootSystem) -> int:
    """Count simple-system maps by explicit backtracking over target roots,
    on int bitmasks of root indices; the last simple root's candidates are
    counted, not visited."""
    dim = target.rank
    troots = []
    at = 0
    for kind, rank, mult in target.components:
        for _ in range(mult):
            for v in component_roots(kind, rank):
                troots.append((0,) * at + v + (0,) * (dim - at - rank))
            at += rank
    gram = system_gram(target)
    # by_product[a][t]: the mask of roots whose inner product with root a is t
    by_product = []
    for u in troots:
        gu = tuple(sum(gram[i][j] * u[i] for i in range(dim)) for j in range(dim))
        groups = {}
        for b, v in enumerate(troots):
            t = sum(gu[j] * v[j] for j in range(dim))
            groups[t] = groups.get(t, 0) | 1 << b
        by_product.append(groups)
    sgram = system_gram(source)
    r = source.rank
    chosen = []

    def extend(i):
        candidates = (1 << len(troots)) - 1
        for j in range(i):
            candidates &= by_product[chosen[j]].get(sgram[j][i], 0)
        if i == r - 1:
            return candidates.bit_count()
        count = 0
        while candidates:
            c = candidates.bit_length() - 1
            candidates ^= 1 << c
            chosen.append(c)
            count += extend(i + 1)
            chosen.pop()
        return count

    return extend(0) if r else 1


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
    # the capacity test rep_count applies first passes every pair that
    # embeds: each field of the source's capacities fits the target's
    targets = ["A4", "D4", "A5", "D5", "A2^2", "A1 D4", "E6"]
    for tname in targets:
        target = parse(tname)
        t_caps = embeddings._codes(target)[2]
        for source in enumerate_systems(target.rank):
            n = brute_rep(source, target)
            assert rep_count(source, target) == n, (str(source), tname)
            if n:
                s_caps, guard = embeddings._codes(source)[2:]
                assert ((t_caps | guard) - s_caps) & guard == guard, (str(source), tname)


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


def test_rep_count_matches_recorded_dim32():
    # digest of the "source<TAB>target<TAB>count" lines of a seeded sample
    # of dim-32 solve pairs (source rank 20 to 31, target rank 32),
    # recorded with the component-tuple recursion this one replaced
    systems = enumerate_systems(32, dim=32)
    sources = [s for s in systems if 20 <= s.rank <= 31]
    targets = [s for s in systems if s.rank == 32]
    rng = random.Random(32)
    pairs = [(rng.choice(sources), rng.choice(targets)) for _ in range(20000)]
    counts = [rep_count(s, t) for s, t in pairs]
    assert sum(1 for n in counts if n) == 1711
    lines = [f"{s}\t{t}\t{n}" for (s, t), n in zip(pairs, counts)]
    assert (
        hashlib.sha256("\n".join(lines).encode()).hexdigest()
        == "847d7366e59ecbdd4156de860e9c89d9924806062c1acc28c60fd273cc088203"
    )


def test_code_table():
    # one copy of every component type up to rank 64, in canonical order
    types = [
        (k, r)
        for k, r, _ in RootSystem.from_parts(
            [("A", r) for r in range(1, 65)]
            + [("D", r) for r in range(4, 65)]
            + [("E", r) for r in (6, 7, 8)]
        ).components
    ]
    # sorting codes gives canonical order: the codes of that order ascend
    # (the system itself, of rank 4,175, is beyond what rep_count takes)
    embeddings._grow(64)
    assert [embeddings._CODE[t] for t in types] == list(range(len(types)))
    assert list(embeddings._CODE)[: len(types)] == types
    for s, (sk, sr) in enumerate(types):
        aut = parse(f"{sk}{sr}").aut_order
        for t, (tk, tr) in enumerate(types):
            rows = embeddings._ROWS[s][t]
            # rep_count starts its scan of a target at the source's code
            assert t >= s or not rows
            want = [
                (copies * aut, RootSystem.from_parts(parts))
                for copies, parts in component_rows(sk, sr, tk, tr)
                if copies
            ]
            got = [(w, RootSystem.from_parts(types[c] for c in comp)) for w, comp, *_ in rows]
            assert got == want, (sk, sr, tk, tr)
            target = parse(f"{tk}{tr}")
            for (_, rest), (_, comp, d_rank, d_roots, d_key) in zip(want, rows):
                assert comp == tuple(sorted(comp))
                assert (d_rank, d_roots) == (
                    rest.rank - target.rank,
                    rest.root_count - target.root_count,
                )
                assert d_key == sum(1 << 8 * c for c in comp) - (1 << 8 * t)


def test_capacity_matches_recursion():
    # _cap(c, x) is the largest k such that c^k embeds in x, as the
    # recursion (which never applies the capacity test) counts it
    embeddings._grow(24)
    rank, roots = embeddings._RANK, embeddings._ROOTS
    codes = [c for c in range(len(rank)) if rank[c] <= 24]
    pairs = 0
    for x in codes:
        for c in codes[: x + 1]:
            k = 0
            while (k + 1) * rank[c] <= rank[x] and (k + 1) * roots[c] <= roots[x]:
                fit = ((c,) * (k + 1), (x,), 1 << 8 * x, rank[c] * (k + 1), roots[c] * (k + 1))
                if not embeddings._count(*fit, rank[x], roots[x]):
                    break
                k += 1
            assert embeddings._cap(c, x) == k, (c, x)
            assert embeddings._CAPS[x] >> 8 * c & 255 == k, (c, x)
            pairs += 1
    assert pairs == 1176
    # the capacity vector of a code has no field above its own
    assert all(embeddings._CAPS[x] >> 8 * (x + 1) == 0 for x in codes)


def test_capacity_rejects_no_embedding(table16, table24):
    # every pair the dims 16 and 24 solves ask for: Targets admits a target,
    # with its weight, exactly when the rank, root count and capacity tests
    # pass, the capacities compared field by field; every pair it rejects
    # counts 0 in rep_count, and one that passes the rank and root count
    # tests but fails the capacity test counts 0 in the recursion, which
    # applies no capacity test.  rep_count's guard-bit subtraction, with
    # the source's guard, agrees with the field comparison, and comparing
    # the source's counts instead of its capacities rejects a subset of
    # those pairs.  No source ranks above a target solved before it
    rejected = {}
    for table in (table16, table24[0]):
        index, nonzero, by_counts, by_caps = embeddings.Targets(), [], 0, 0
        for rs in reversed(enumerate_systems(table.dim, dim=table.dim)):
            s, s_counts, s_caps, guard = embeddings._codes(rs)
            admitted = []
            for t_rs, t, t_counts, t_caps, weight in nonzero:
                assert rs.rank <= t_rs.rank, (rs, t_rs)
                if rs.root_count > t_rs.root_count:
                    assert rep_count(rs, t_rs) == 0
                    continue
                counts_fail = ((t_caps | guard) - s_counts) & guard != guard
                caps_fail = ((t_caps | guard) - s_caps) & guard != guard
                fields = (caps.to_bytes(64, "little") for caps in (s_caps, t_caps))
                assert caps_fail != all(map(operator.le, *fields)), (rs, t_rs)
                assert caps_fail or not counts_fail, (rs, t_rs)
                if caps_fail:
                    args = (rs.rank, rs.root_count, t_rs.rank, t_rs.root_count)
                    assert embeddings._count(s, t, t_counts, *args) == 0, (rs, t_rs)
                    assert rep_count(rs, t_rs) == 0
                else:
                    admitted.append((t_rs, weight))
                by_counts += counts_fail
                by_caps += caps_fail
            assert index.admit(rs) == admitted, rs
            if table.mass(rs):
                nonzero.append((rs, s, s_counts, s_caps, len(nonzero) + 1))
                index.add(rs, len(nonzero))
        rejected[table.dim] = by_counts, by_caps
    assert rejected == {16: (574, 647), 24: (258953, 300249)}


def test_admit_reads_the_guard_when_the_table_grows(monkeypatch):
    # the targets' capacities are made while the table holds types up to
    # rank 4; A5 then grows it, which must change no stored capacities:
    # each source brings its own guard
    fresh_table(monkeypatch)
    targets = [parse("D4^2"), parse("A1^8"), parse("A1 A3")]
    index = embeddings.Targets()
    for w, t in enumerate(targets, 1):
        index.add(t, w)
    n = len(embeddings._CAPS)
    admitted = {}
    for name in ("A5", "A1^2", "A3", "D4", "A2 A1", "0"):
        source = parse(name)
        admitted[name] = [t for t, _ in index.admit(source)]
        assert all(rep_count(source, t) == 0 for t in targets if t not in admitted[name]), name
    assert len(embeddings._CAPS) > n
    assert {name: [str(t) for t in ts] for name, ts in admitted.items()} == {
        "A5": [],
        "A1^2": ["D4^2", "A1^8", "A1 A3"],
        "A3": ["D4^2", "A1 A3"],
        "D4": ["D4^2"],
        "A2 A1": ["D4^2", "A1 A3"],
        "0": ["D4^2", "A1^8", "A1 A3"],
    }


def test_codes_while_the_table_grows(monkeypatch):
    # _codes reads each component's code and capacities in the same pass
    # that grows the table for a type new to it, so the codes and
    # capacities made before a growth must stand: A1, E8 and D12 each grow
    # an empty table, and the entry equals that of a fully grown one
    rs = parse("A1 E8 D12")
    embeddings._grow(12)
    full = embeddings._codes(rs)
    full_rows, full_caps = embeddings._ROWS, embeddings._CAPS
    fresh_table(monkeypatch)
    grow, grown = embeddings._grow, []
    monkeypatch.setattr(embeddings, "_grow", lambda rank: grow(rank) or grown.append(rank))
    assert embeddings._codes(rs) == full
    assert grown == [1, 8, 12]
    n = len(embeddings._CAPS)
    assert embeddings._CAPS == full_caps[:n]
    assert embeddings._ROWS == [row[:n] for row in full_rows[:n]]
    assert full[3] == sum(1 << 8 * c + 7 for c in range(n))
    assert rep_count(rs, rs) == rs.aut_order


def test_guard_covers_each_field_up_to_the_last_code(monkeypatch):
    # an entry's guard is bit 8c + 7 for each code c up to its last, 0 for
    # the empty system, and the entry stands when the table grows
    fresh_table(monkeypatch)
    names = ["0", "A1", "A1^8", "A2", "D4", "A1^2 A3", "E8", "A1 E6"]
    entries = {name: embeddings._codes(parse(name)) for name in names}
    embeddings._grow(24)
    for name, entry in entries.items():
        codes, _, _, guard = entry
        assert guard == sum(1 << 8 * c + 7 for c in range(max(codes, default=-1) + 1)), name
        assert embeddings._codes(parse(name)) == entry, name
    assert entries["0"][3] == 0


def test_source_guard_rejects_a_field_above_the_target(monkeypatch):
    # A2's field lies above every field of A1^8 and its rank and root count
    # fit, so only the capacity test rejects it, and only with A2's guard:
    # the target's guard, or one a field short, lets its field borrow out
    # of the top of the integer unseen
    fresh_table(monkeypatch)
    source, target = parse("A2"), parse("A1^8")
    s_last, t_last = (embeddings._codes(rs)[0][-1] for rs in (source, target))
    assert s_last > t_last
    assert source.rank <= target.rank and source.root_count <= target.root_count
    index = embeddings.Targets()
    index.add(target, 1)
    assert index.admit(source) == []

    def refuse(*args):
        raise AssertionError("the pair reached the recursion")

    monkeypatch.setattr(embeddings, "_count", refuse)
    assert rep_count(source, target) == 0


def test_solve_makes_each_entry_once(monkeypatch):
    # a dim-16 solve never clears the memo, so each system's entry is made
    # once as a source and a nonzero target's once more, when it is added:
    # rep_count finds it in the code cache
    fresh_memo(monkeypatch)
    codes, target, made, targets = embeddings._codes, embeddings._target, [], []
    monkeypatch.setattr(embeddings, "_codes", lambda rs: made.append(rs.name) or codes(rs))
    monkeypatch.setattr(embeddings, "_target", lambda rs: targets.append(rs.name) or target(rs))
    table = solve_masses(16)
    nonzero = {rs.name for rs in table.masses}
    assert sorted(targets) == sorted(nonzero)
    names = [rs.name for rs in enumerate_systems(16, dim=16)]
    assert collections.Counter(made) == {name: 1 + (name in nonzero) for name in names}


def test_rank_limit():
    # packed counts and capacities hold values up to 127 per field
    a127 = parse("A1^127")
    assert rep_count(a127, a127) == a127.aut_order
    script = (
        "from latmass.embeddings import rep_count\n"
        "from latmass.roots import RootSystem\n"
        "big, a1 = RootSystem.parse('A1^128'), RootSystem.parse('A1')\n"
        "for call in (lambda: rep_count(big, big), lambda: rep_count(a1, big)):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError as exc:\n"
        "        assert 'A1^128' in str(exc), exc\n"
        "    else:\n"
        "        raise SystemExit('no ValueError at rank 128')\n"
    )
    for flags in ((), ("-O",)):
        result = run_python(*flags, "-c", script)
        assert result.returncode == 0, (flags, result.stderr)


def fresh_table(monkeypatch):
    """An empty code table, memo and code cache for this test, restored
    after it."""
    fresh_memo(monkeypatch)
    for name, empty in (("_CODE", {}), ("_RANK", []), ("_ROOTS", []), ("_ROWS", []), ("_CAPS", [])):
        monkeypatch.setattr(embeddings, name, empty)


def fresh_memo(monkeypatch, cap=None):
    """An empty memo and code cache for this test, restored after it."""
    monkeypatch.setattr(embeddings, "_MEMO", {})
    monkeypatch.setattr(embeddings, "_CODES", {})
    monkeypatch.setattr(embeddings, "_source", (None, None))
    monkeypatch.setattr(embeddings, "_stored", 0)
    if cap is not None:
        monkeypatch.setattr(embeddings, "_MEMO_CAP", cap)


def memo_entries():
    """The memo as {(sub-source codes, packed target counts): count}."""
    return {(sub, t): n for sub, row in embeddings._MEMO.items() for t, n in row.items()}


def test_memo_cap_clears(monkeypatch):
    # the dim-16 sources against D16 and E8^2 fill the memo; A1 against 40
    # dim-16 systems gives the code cache more targets than the cap
    pairs = dim16_pairs() + [(parse("A1"), t) for t in enumerate_systems(16, dim=16)[-40:]]
    want = [rep_count(s, t) for s, t in pairs]
    targets = {t.name for _, t in pairs}
    fresh_memo(monkeypatch, cap=16)
    got, sizes = [], []
    for s, t in pairs:
        got.append(rep_count(s, t))
        sizes.append((len(memo_entries()), embeddings._stored, len(embeddings._CODES)))
        # the slot holds the current source's entry and the cache only
        # targets' (a clear inside the recursion may have dropped this
        # one), each with its system's counts, capacities and guard beside
        # its codes, so the cap bounds and clears all three at once
        assert embeddings._source[0] == s.name
        assert set(embeddings._CODES) <= targets
        for codes, counts, caps, guard in [embeddings._source[1], *embeddings._CODES.values()]:
            assert counts == sum(1 << 8 * c for c in codes)
            assert caps == sum(embeddings._CAPS[c] for c in codes)
            assert guard == sum(1 << 8 * c + 7 for c in range(max(codes, default=-1) + 1))
    assert got == want
    # the cap bounds the stored entries, summed over rows, and the codes
    assert all(entries == stored <= 16 and codes <= 16 for entries, stored, codes in sizes)
    assert max(entries for entries, _, _ in sizes) > 0
    assert len(targets) > 16  # so the code cache was cleared


def test_memo_holds_only_sub_problems(monkeypatch):
    # the pair asked for is never asked again, so only the pairs the
    # recursion peels down to are stored, each target as its packed
    # counts: A2 from E8 leaves E6, then A1 A5
    fresh_memo(monkeypatch)
    source, target = parse("A1^2 A2"), parse("E8")
    assert rep_count(source, target) > 0
    stored = memo_entries()
    codes = embeddings._codes

    def key(s, t):
        return codes(parse(s))[0], codes(parse(t))[1]

    assert key(str(source), str(target)) not in stored
    assert stored == {key("A1^2", "E6"): 2160, key("A1", "A5"): 30}
    assert embeddings._stored == 2
    assert brute_rep(parse("A1^2"), parse("E6")) == 2160
    assert brute_rep(parse("A1"), parse("A5")) == 30


def test_memo_rows_untracked_by_gc(monkeypatch):
    # rows of int keys and int counts hold no container, so the cyclic
    # collector does not track them
    fresh_memo(monkeypatch)
    for s, t in dim16_pairs():
        rep_count(s, t)
    assert len(embeddings._MEMO) > 100
    assert not any(gc.is_tracked(row) for row in embeddings._MEMO.values())
