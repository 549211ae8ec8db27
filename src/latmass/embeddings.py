"""Counting embeddings between root systems.

rep_count(S, T) is the number of maps from a fixed simple system of S to
roots of T that preserve inner products.  Equivalently it counts subsystems
of T isomorphic to S weighted by |Aut S|, so rep_count(S, S) = |Aut S|.
The recursion peels the largest component of S and consults a table of
per-component subsystem counts together with the orthogonal complement
left inside the target component.

Codes.  The component types are numbered in canonical (rank, kind) order,
and the recursion runs on systems written as the sorted tuple of their
codes, one per copy: A1^2 D4 is (0, 0, 4).  The largest component is the
last code, and a code's rank and root count are list lookups.  rep_count
converts each RootSystem once, through `_CODES`, a cache keyed by name.

Rows.  For each (source code, target code) pair the table `_ROWS` keeps
one row per way of placing the source component in the target component:
(weight, complement codes, rank change, root count change), built from
`component_rows`.  Peeling a source component from one copy of a target
component drops that copy from the target tuple and merges the complement
in; the rank and root count of both sides are carried as integers, so a
branch whose remaining source no longer fits is cut before its target is
built.

Memo.  Sub-problems are memoised per sub-source: `_MEMO[sub][target]`, so
one `_count` call looks its sub-source's row up once.  When the stored
entries, summed over rows, or the code cache reach `_MEMO_CAP`, both are
cleared.  The pair rep_count is asked for is not stored: callers ask for
each pair once, in descending solve order, and every later sub-problem's
source ranks below a system no earlier in that order, so the entry could
never be hit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from functools import lru_cache
from math import comb

from .roots import RootSystem, _component_aut, _component_roots, _component_types

# Explicit counts for exceptional targets: (source kind, source rank,
# target E rank) -> ((copies, complement parts), ...).
_E_TABLE: dict[tuple[str, int, int], tuple] = {
    ("A", 1, 6): ((36, (("A", 5),)),),
    ("A", 2, 6): ((120, (("A", 2), ("A", 2))),),
    ("A", 3, 6): ((270, (("A", 1), ("A", 1))),),
    ("A", 4, 6): ((216, (("A", 1),)),),
    ("A", 5, 6): ((36, (("A", 1),)),),
    ("D", 4, 6): ((45, ()),),
    ("D", 5, 6): ((27, ()),),
    ("E", 6, 6): ((1, ()),),
    ("A", 1, 7): ((63, (("D", 6),)),),
    ("A", 2, 7): ((336, (("A", 5),)),),
    ("A", 3, 7): ((1260, (("A", 3), ("A", 1))),),
    ("A", 4, 7): ((2016, (("A", 2),)),),
    ("A", 5, 7): ((336, (("A", 2),)), (1008, (("A", 1),))),
    ("A", 6, 7): ((288, ()),),
    ("A", 7, 7): ((36, ()),),
    ("D", 4, 7): ((315, (("A", 1), ("A", 1), ("A", 1))),),
    ("D", 5, 7): ((378, (("A", 1),)),),
    ("D", 6, 7): ((63, (("A", 1),)),),
    ("E", 6, 7): ((28, ()),),
    ("E", 7, 7): ((1, ()),),
    ("A", 1, 8): ((120, (("E", 7),)),),
    ("A", 2, 8): ((1120, (("E", 6),)),),
    ("A", 3, 8): ((7560, (("D", 5),)),),
    ("A", 4, 8): ((24192, (("A", 4),)),),
    ("A", 5, 8): ((40320, (("A", 2), ("A", 1))),),
    ("A", 6, 8): ((34560, (("A", 1),)),),
    ("A", 7, 8): ((4320, (("A", 1),)), (8640, ())),
    ("A", 8, 8): ((960, ()),),
    ("D", 4, 8): ((3150, (("D", 4),)),),
    ("D", 5, 8): ((7560, (("A", 3),)),),
    ("D", 6, 8): ((3780, (("A", 1), ("A", 1))),),
    ("D", 7, 8): ((1080, ()),),
    ("D", 8, 8): ((135, ()),),
    ("E", 6, 8): ((1120, (("A", 2),)),),
    ("E", 7, 8): ((120, (("A", 1),)),),
    ("E", 8, 8): ((1, ()),),
}


@lru_cache(maxsize=None)
def component_rows(sk: str, sr: int, tk: str, tr: int) -> tuple:
    """Subsystem copies of one component inside one target component,
    each with the complement it leaves."""
    if tk == "A":
        if sk != "A" or sr > tr:
            return ()
        return ((comb(tr + 1, sr + 1), (("A", tr - sr - 1),)),)
    if tk == "D":
        if sk == "E":
            return ()
        if sk == "D":
            return ((comb(tr, sr), (("D", tr - sr),)),) if sr <= tr else ()
        if sr == 1:
            return ((2 * comb(tr, 2), (("A", 1), ("D", tr - 2))),)
        if sr == 3:
            rows = []
            if tr >= 4:
                rows.append((8 * comb(tr, 4), (("D", tr - 4),)))
            rows.append((comb(tr, 3), (("D", tr - 3),)))
            return tuple(rows)
        if sr < tr:
            return ((2**sr * comb(tr, sr + 1), (("D", tr - sr - 1),)),)
        return ()
    return _E_TABLE.get((sk, sr, tr), ())


# The component types by code, in canonical order, so a system's sorted
# codes list its components canonically: _CODE[kind, rank] is the code,
# _RANK and _ROOTS give each code's rank and root count, and _ROWS[s][t]
# holds the rows of source code s in target code t.  _grow extends them a
# whole rank at a time, which keeps the codes in canonical order.
_CODE: dict[tuple[str, int], int] = {}
_RANK: list[int] = []
_ROOTS: list[int] = []
_ROWS: list[list[tuple]] = []


def _grow(max_rank: int) -> None:
    """Number every component type of rank at most max_rank and fill in the
    rows of every pair of codes."""
    old = len(_RANK)
    for kind, rank in _component_types(max_rank)[old:]:
        _CODE[kind, rank] = len(_RANK)
        _RANK.append(rank)
        _ROOTS.append(_component_roots(kind, rank))
    types = list(_CODE)
    for s, (sk, sr) in enumerate(types):
        if s >= old:
            _ROWS.append([])
        _ROWS[s] += [_code_rows(sk, sr, tk, tr) for tk, tr in types[len(_ROWS[s]) :]]


def _code_rows(sk: str, sr: int, tk: str, tr: int) -> tuple:
    """component_rows ready for the recursion, one row per nonzero copy
    count: (weight, complement, rank change, root count change).  The
    weight is copies times |Aut| of the source component.  The complement
    is the sorted codes of what is left, its degenerate indices (A0, A-1,
    D0 to D3) normalized as from_parts does, and the changes are what
    swapping the target component for it does to the target's rank and
    root count."""
    aut = _component_aut(sk, sr)
    rows = []
    for copies, parts in component_rows(sk, sr, tk, tr):
        if copies:
            rest = RootSystem.from_parts(parts)
            rows.append(
                (
                    copies * aut,
                    _codes(rest),
                    rest.rank - tr,
                    rest.root_count - _component_roots(tk, tr),
                )
            )
    return tuple(rows)


_CODES: dict[str, tuple] = {}  # RootSystem name -> sorted codes
_MEMO: dict[tuple, dict[tuple, int]] = {}  # sub-source -> target -> count
_MEMO_CAP = 1 << 20
_stored = 0  # entries in _MEMO, summed over its rows


def _clear() -> None:
    """Empty the memo and the code cache together."""
    global _stored
    _MEMO.clear()
    _CODES.clear()
    _stored = 0


def _codes(rs: RootSystem) -> tuple:
    """The sorted codes of a system, one per copy of each component, added
    to the cache; rep_count reads the cache itself first."""
    for kind, rank, _ in rs.components:
        if kind == "Z":
            raise ValueError(f"rep_count: {rs} has Z components, which have no roots")
        if (kind, rank) not in _CODE:
            _grow(rank)
    if len(_CODES) >= _MEMO_CAP:
        _clear()
    codes = _CODES[rs.name] = tuple(_CODE[k, r] for k, r, m in rs.components for _ in range(m))
    return codes


def rep_count(source: RootSystem, target: RootSystem) -> int:
    """Number of inner product preserving maps of a simple system of the
    source into the roots of the target."""
    s = _CODES.get(source.name)
    if s is None:
        s = _codes(source)
    t = _CODES.get(target.name)
    if t is None:
        t = _codes(target)
    if not s:
        return 1
    if source.rank > target.rank or source.root_count > target.root_count:
        return 0
    return _count(s, t, source.rank, source.root_count, target.rank, target.root_count)


def _store(sub: tuple, target: tuple, n: int) -> dict:
    """Memoise one sub-problem and return its sub-source's row."""
    global _stored
    if _stored >= _MEMO_CAP:
        _clear()
    row = _MEMO.get(sub)
    if row is None:
        row = _MEMO[sub] = {}
    row[target] = n
    _stored += 1
    return row


def _count(
    source: tuple, target: tuple, s_rank: int, s_roots: int, t_rank: int, t_roots: int
) -> int:
    """rep_count on nonempty sorted code tuples, whose ranks and root counts
    are given and fit: the source's are at most the target's."""
    s = source[-1]
    sub = source[:-1]
    rows = _ROWS[s]
    # a component fits only in components of its rank or more and, at its
    # own rank, of its own kind or a later one: no code below its own
    i, n = bisect_left(target, s), len(target)
    total = 0
    if not sub:
        for t in target[i:]:
            for row in rows[t]:
                total += row[0]
        return total
    sub_rank = s_rank - _RANK[s]
    sub_roots = s_roots - _ROOTS[s]
    memo = _MEMO.get(sub, {})
    while i < n:
        t = target[i]
        j = bisect_right(target, t, i)
        for weight, complement, d_rank, d_roots in rows[t]:
            if sub_rank <= t_rank + d_rank and sub_roots <= t_roots + d_roots:
                new = target[:i] + target[i + 1 :]
                if complement:
                    new = tuple(sorted(new + complement))
                c = memo.get(new)
                if c is None:
                    c = _count(sub, new, sub_rank, sub_roots, t_rank + d_rank, t_roots + d_roots)
                    memo = _store(sub, new, c)
                total += (j - i) * weight * c
        i = j
    return total
