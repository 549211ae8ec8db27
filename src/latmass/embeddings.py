"""Counting embeddings between root systems.

rep_count(S, T) is the number of maps from a fixed simple system of S to
roots of T that preserve inner products.  Equivalently it counts subsystems
of T isomorphic to S weighted by |Aut S|, so rep_count(S, S) = |Aut S|.
The recursion peels the largest component of S and consults a table of
per-component subsystem counts together with the orthogonal complement
left inside the target component.

The recursion runs on canonical component tuples ((kind, rank, mult), ...),
the `components` of a RootSystem, and carries the rank and root count of
source and target as integers, so a branch whose source no longer fits is
cut before its target is built.  Each new target is the old one with one
component swapped for its complement (`_swap`), merged in canonical order.
Sub-problems are memoised in `_MEMO` under the key (source components,
target components) until it holds `_MEMO_CAP` entries, when it is cleared.
The pair rep_count is asked for is not: callers ask for each pair once, in
descending solve order, and every later sub-problem's source ranks below a
system no earlier in that order, so the entry could never be hit.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .roots import RootSystem, _component_aut, _component_roots

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


@lru_cache(maxsize=None)
def _peel_rows(sk: str, sr: int, tk: str, tr: int) -> tuple:
    """component_rows ready for the recursion, one row per nonzero copy
    count: (weight, complement, rank change, root count change).  The
    weight is copies times |Aut| of the source component.  The complement
    is canonical, its degenerate indices (A0, A-1, D0 to D3) normalized as
    from_parts does, and the changes are what swapping the target component
    for it does to the target's rank and root count."""
    aut = _component_aut(sk, sr)
    rows = []
    for copies, parts in component_rows(sk, sr, tk, tr):
        if copies:
            rest = RootSystem.from_parts(parts)
            rows.append(
                (
                    copies * aut,
                    rest.components,
                    rest.rank - tr,
                    rest.root_count - _component_roots(tk, tr),
                )
            )
    return tuple(rows)


def _swap(target: tuple, i: int, complement: tuple) -> tuple:
    """The canonical target with one copy of its i-th component replaced by
    a canonical complement.  Canonical order is by (rank, kind), and for the
    kinds A < D < E met here the letters compare in that order."""
    kind, rank, mult = target[i]
    comps = list(target)
    if mult > 1:
        comps[i] = (kind, rank, mult - 1)
    else:
        del comps[i]
    for ck, cr, cm in complement:
        j, n = 0, len(comps)
        while j < n and (comps[j][1], comps[j][0]) < (cr, ck):
            j += 1
        if j < n and comps[j][1] == cr and comps[j][0] == ck:
            comps[j] = (ck, cr, comps[j][2] + cm)
        else:
            comps.insert(j, (ck, cr, cm))
    return tuple(comps)


_MEMO: dict = {}
_MEMO_CAP = 1 << 20


def rep_count(source: RootSystem, target: RootSystem) -> int:
    """Number of inner product preserving maps of a simple system of the
    source into the roots of the target."""
    # Z (rank 1, first kind) sorts first in a canonical system
    for rs in (source, target):
        if rs.components and rs.components[0][0] == "Z":
            raise ValueError(f"rep_count({source}, {target}): Z components have no roots")
    if not source.components:
        return 1
    if source.rank > target.rank or source.root_count > target.root_count:
        return 0
    return _count(
        source.components,
        target.components,
        source.rank,
        source.root_count,
        target.rank,
        target.root_count,
    )


def _count(
    source: tuple, target: tuple, s_rank: int, s_roots: int, t_rank: int, t_roots: int
) -> int:
    """rep_count on nonempty canonical component tuples, whose ranks and root
    counts are given and fit: the source's are at most the target's."""
    sk, sr, sm = source[-1]
    sub = source[:-1] + ((sk, sr, sm - 1),) if sm > 1 else source[:-1]
    sub_rank = s_rank - sr
    sub_roots = s_roots - _component_roots(sk, sr)
    total = 0
    for i, (tk, tr, tm) in enumerate(target):
        for weight, complement, d_rank, d_roots in _peel_rows(sk, sr, tk, tr):
            if not sub:
                total += tm * weight
            elif sub_rank <= t_rank + d_rank and sub_roots <= t_roots + d_roots:
                key = (sub, _swap(target, i, complement))
                n = _MEMO.get(key)
                if n is None:
                    n = _count(*key, sub_rank, sub_roots, t_rank + d_rank, t_roots + d_roots)
                    if len(_MEMO) >= _MEMO_CAP:
                        _MEMO.clear()
                    _MEMO[key] = n
                total += tm * weight * n
    return total
