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
last code, and a code's rank and root count are list lookups.  A system is
also a packed multiplicity integer, whose 8-bit field c holds the count of
code c: A1^2 D4 is 2 + (1 << 8*4).  A system's entry holds its codes,
its packed counts, its packed capacities and its guard (below), all made
in one pass over its components.  Callers ask for one source in a run of
consecutive calls against targets that recur, so rep_count keeps the
current source's entry in a one-entry slot, `_source`, and only the
targets' in `_CODES`, a cache keyed by name.  Fields stay below 128 only
while ranks do, so a system of rank 128 or more raises ValueError.

Rows.  For each (source code, target code) pair the table `_ROWS` keeps
one row per way of placing the source component in the target component:
(weight, complement codes, rank change, root count change, key change),
built from `component_rows`.  Peeling a source component from one copy of
a target component drops that copy from the target tuple and merges the
complement in; the rank and root count of both sides are carried as
integers, so a branch whose remaining source no longer fits is cut before
its target is built.  The key change is what the swap adds to the
target's packed counts.

Capacities.  cap_c(X) is the largest number of mutually orthogonal copies
of component type c in a system X.  It adds up over X's components, and
for one component it is the best over the rows of c in it of one plus the
capacity of the complement, since the other copies lie in the complement
of the first (as in Dynkin's subsystem tables).  `_CAPS[x]` packs cap_c(x)
for every c, so a system's capacities are a sum over its components.  If
S embeds in T then cap_c(S) <= cap_c(T) for every c: an embedding extends
linearly to an isometry of root lattices, whose norm-2 vectors are the
roots, so it carries mutually orthogonal copies of c in S to mutually
orthogonal copies in T.  So rep_count returns 0 at once when some field
of S's capacities exceeds T's.  This is stronger than comparing S's
counts, since cap_c(S) >= mult_S(c).  The test is one subtraction with
S's guard, the top bit of each of its fields up to its last code: with
those bits set in T's capacities, a field that S exceeds borrows its
guard bit.  It is exact, since S is 0 above its last code and no field
can borrow from the next (T + 128 - S >= 1), and the guard is S's own,
so growing the table later changes nothing.

Filtering.  rep_count's top tests (rank, root count, capacities) answer
most of the pairs a solve visits, each after a Python call.  So a solve
keeps its nonzero targets in a `Targets` index, with their root counts
and capacities, and `Targets.admit` runs the root count test and then the
capacity test inline in one loop over them; the solver calls rep_count
only on the targets it admits.  The rank test is left out: a solve adds
a target only after solving it, in descending rank order, so no source
ranks above a target.  A target's entry is made in `_CODES` when it is
added, where rep_count finds it.  rep_count keeps all three tests for the
callers that ask for single pairs (`latmass emb`, the benchmark's pull
rows).

Memo.  Sub-problems are memoised per sub-source, keyed by the packed counts
of the target: `_MEMO[sub][key]`, so one `_count` call looks its
sub-source's row up once, and a branch's key is the parent's key plus the
row's key change.  A target tuple is built and sorted only on a miss.  The
rows hold only integers, so the cyclic garbage collector does not track
them.  When the stored entries, summed over rows, or the code cache's
entries reach `_MEMO_CAP`, both are cleared.  The pair rep_count is asked
for is not stored: callers ask for each pair once, in descending solve
order, and every later sub-problem's source ranks below a system no
earlier in that order, so the entry could never be hit.
"""

from __future__ import annotations

from bisect import bisect_left, bisect_right
from math import comb

from .roots import (
    RootSystem,
    _component_aut,
    _component_roots,
    _component_types,
    normalize_component,
)

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
# _RANK and _ROOTS give each code's rank and root count, _ROWS[s][t] holds
# the rows of source code s in target code t, and _CAPS[x] is the packed
# capacity vector of code x.  _grow extends them a whole rank at a time,
# which keeps the codes in canonical order.
_CODE: dict[tuple[str, int], int] = {}
_RANK: list[int] = []
_ROOTS: list[int] = []
_ROWS: list[list[tuple]] = []
_CAPS: list[int] = []

# A packed vector keeps the value for code c in bits 8c to 8c + 7.  Counts
# and capacities stay below 128 while ranks do, so bit 8c + 7 of every
# field is free to catch a borrow.
_FIELD = 8
_MAX_RANK = (1 << _FIELD - 1) - 1


def _grow(max_rank: int) -> None:
    """Number every component type of rank at most max_rank, fill in the
    rows of every pair of codes and the capacity vector of every code."""
    old = len(_RANK)
    for kind, rank in _component_types(max_rank)[old:]:
        _CODE[kind, rank] = len(_RANK)
        _RANK.append(rank)
        _ROOTS.append(_component_roots(kind, rank))
    types = list(_CODE)
    for s, (sk, sr) in enumerate(types):
        if s >= old:
            _ROWS.append([])
        new = enumerate(types[len(_ROWS[s]) :], len(_ROWS[s]))
        _ROWS[s] += [_code_rows(sk, sr, t, tk, tr) for t, (tk, tr) in new]
    # only codes of lower rank fit in a new code, and no new code fits in
    # an old one, so the old vectors stand; a complement ranks below its
    # component, so its vectors are in place when the component's are made
    for x in range(old, len(types)):
        _CAPS.append(sum(_cap(c, x) << _FIELD * c for c in range(x + 1)))


def _code_rows(sk: str, sr: int, t: int, tk: str, tr: int) -> tuple:
    """component_rows ready for the recursion, one row per nonzero copy
    count: (weight, complement, rank change, root count change, key
    change).  The weight is copies times |Aut| of the source component.
    The complement is the sorted codes of what is left, its degenerate
    indices (A0, A-1, D0 to D3) normalized by normalize_component, and the
    changes are what swapping the target component, code t, for it does
    to the target's rank, root count and packed counts."""
    aut = _component_aut(sk, sr)
    rows = []
    for copies, parts in component_rows(sk, sr, tk, tr):
        if copies:
            complement = tuple(
                sorted(_CODE[p] for kind, rank in parts for p in normalize_component(kind, rank))
            )
            rows.append(
                (
                    copies * aut,
                    complement,
                    sum(_RANK[u] for u in complement) - tr,
                    sum(_ROOTS[u] for u in complement) - _ROOTS[t],
                    sum(1 << _FIELD * u for u in complement) - (1 << _FIELD * t),
                )
            )
    return tuple(rows)


def _cap(c: int, x: int) -> int:
    """The largest number of mutually orthogonal copies of component c in
    component x.  The copies besides a first lie in its complement, each
    inside one of its components, so the count is the best over the rows
    of one plus the complement's capacities, read off the vectors of its
    codes, which rank below x."""
    mask = (1 << _FIELD) - 1
    return max(
        (1 + sum(_CAPS[y] >> _FIELD * c & mask for y in row[1]) for row in _ROWS[c][x]),
        default=0,
    )


_CODES: dict[str, tuple[tuple, int, int, int]] = {}  # target name -> its _codes entry
_source: tuple = (None, None)  # the last source's name and its _codes entry
_MEMO: dict[tuple, dict[int, int]] = {}  # sub-source -> packed target -> count
_MEMO_CAP = 1 << 20
_stored = 0  # entries in _MEMO, summed over its rows
_NO_ROW: dict[int, int] = {}  # read for a sub-source with no row yet; never written


def _clear() -> None:
    """Empty the memo and the code cache together."""
    global _stored
    _MEMO.clear()
    _CODES.clear()
    _stored = 0


def _codes(rs: RootSystem) -> tuple[tuple, int, int, int]:
    """A system's sorted codes, one per copy of each component, its packed
    counts, its packed capacities and its guard, bit 8c + 7 for every code
    c up to its last.  A type new to the table grows it, which keeps the
    codes and capacities of the types before it."""
    if rs.rank > _MAX_RANK:
        raise ValueError(f"rep_count: {rs} has rank {rs.rank}, above {_MAX_RANK}")
    codes: list[int] = []
    counts = caps = 0
    for kind, rank, mult in rs.components:
        if kind == "Z":
            raise ValueError(f"rep_count: {rs} has Z components, which have no roots")
        if (kind, rank) not in _CODE:
            _grow(rank)
        c = _CODE[kind, rank]
        codes += [c] * mult
        counts += mult << _FIELD * c
        caps += mult * _CAPS[c]
    guard = int.from_bytes(b"\x80" * (codes[-1] + 1 if codes else 0), "little")
    return tuple(codes), counts, caps, guard


def _target(rs: RootSystem) -> tuple[tuple, int, int, int]:
    """A target's _codes entry, added to the cache; callers read the cache
    itself first."""
    if len(_CODES) >= _MEMO_CAP:
        _clear()
    entry = _CODES[rs.name] = _codes(rs)
    return entry


class Targets:
    """The nonzero targets of a solve, each with an integer weight (its
    mass times a common denominator), indexed for `admit`."""

    __slots__ = ("_rows",)

    def __init__(self):
        self._rows: list[tuple] = []  # (root count, capacities, system, weight)

    def add(self, target: RootSystem, weight: int) -> None:
        caps = (_CODES.get(target.name) or _target(target))[2]
        self._rows.append((target.root_count, caps, target, weight))

    def scale(self, k: int) -> None:
        """Multiply every weight by k."""
        self._rows = [(roots, caps, t, w * k) for roots, caps, t, w in self._rows]

    def admit(self, source: RootSystem) -> list[tuple[RootSystem, int]]:
        """The (target, weight) pairs whose target passes rep_count's root
        count and capacity tests for this source: every target of rank at
        least the source's that it can embed in, and some it cannot."""
        global _source
        if source.name != _source[0]:
            _source = source.name, _codes(source)
        _, _, s_caps, guard = _source[1]
        s_roots = source.root_count
        return [
            (t, w)
            for roots, caps, t, w in self._rows
            if s_roots <= roots and ((caps | guard) - s_caps) & guard == guard
        ]


def rep_count(source: RootSystem, target: RootSystem) -> int:
    """Number of inner product preserving maps of a simple system of the
    source into the roots of the target.  Both must have rank at most
    127, so that a packed count or capacity fits its field; a larger rank
    raises ValueError."""
    global _source
    if source.name != _source[0]:
        _source = source.name, _codes(source)
    s, _, s_caps, guard = _source[1]
    t, t_counts, t_caps, _ = _CODES.get(target.name) or _target(target)
    if not s:
        return 1
    if source.rank > target.rank or source.root_count > target.root_count:
        return 0
    # an embedding carries orthogonal copies of each component type in the
    # source to orthogonal copies in the target, so the target's capacities
    # must cover the source's: a field that the source's exceeds borrows
    # its guard bit
    if ((t_caps | guard) - s_caps) & guard != guard:
        return 0
    return _count(s, t, t_counts, source.rank, source.root_count, target.rank, target.root_count)


def _store(sub: tuple, key: int, n: int) -> dict:
    """Memoise one sub-problem and return its sub-source's row."""
    global _stored
    if _stored >= _MEMO_CAP:
        _clear()
    row = _MEMO.get(sub)
    if row is None:
        row = _MEMO[sub] = {}
    row[key] = n
    _stored += 1
    return row


def _count(
    source: tuple,
    target: tuple,
    key: int,
    s_rank: int,
    s_roots: int,
    t_rank: int,
    t_roots: int,
) -> int:
    """rep_count on nonempty sorted code tuples, whose ranks and root counts
    are given and fit: the source's are at most the target's.  key is the
    target's packed counts."""
    s = source[-1]
    rows = _ROWS[s]
    # a component fits only in components of its rank or more and, at its
    # own rank, of its own kind or a later one: no code below its own
    i, n = bisect_left(target, s), len(target)
    total = 0
    if len(source) == 1:
        for t in target[i:]:
            for row in rows[t]:
                total += row[0]
        return total
    sub = source[:-1]
    sub_rank = s_rank - _RANK[s]
    sub_roots = s_roots - _ROOTS[s]
    memo = _MEMO.get(sub, _NO_ROW)
    while i < n:
        t = target[i]
        j = bisect_right(target, t, i)
        for weight, complement, d_rank, d_roots, d_key in rows[t]:
            rank = t_rank + d_rank
            roots = t_roots + d_roots
            if sub_rank <= rank and sub_roots <= roots:
                new_key = key + d_key
                c = memo.get(new_key)
                if c is None:
                    new = target[:i] + target[i + 1 :]
                    if complement:
                        new = tuple(sorted(new + complement))
                    c = _count(sub, new, new_key, sub_rank, sub_roots, rank, roots)
                    memo = _store(sub, new_key, c)
                if c:
                    total += (j - i) * weight * c
        i = j
    return total
