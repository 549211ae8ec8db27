"""Counting embeddings between root systems.

rep_count(S, T) is the number of maps from a fixed simple system of S to
roots of T that preserve inner products.  Equivalently it counts subsystems
of T isomorphic to S weighted by |Aut S|, so rep_count(S, S) = |Aut S|.
The recursion peels the largest component of S and consults a table of
per-component subsystem counts together with the orthogonal complement
left inside the target component.
"""

from __future__ import annotations

from functools import lru_cache
from math import comb

from .roots import RootSystem, _component_aut

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


_MEMO: dict = {}
_MEMO_CAP = 1 << 20


def rep_count(source: RootSystem, target: RootSystem) -> int:
    """Number of inner product preserving maps of a simple system of the
    source into the roots of the target."""
    if not source.components:
        return 1
    if source.rank > target.rank or source.root_count > target.root_count:
        return 0
    key = (source.components, target.components)
    hit = _MEMO.get(key)
    if hit is not None:
        return hit
    sk, sr, _ = source.components[-1]
    if sk == "Z" or any(k == "Z" for k, _, _ in target.components):
        raise ValueError(f"rep_count({source}, {target}): Z components have no roots")
    sub = source.remove(sk, sr)
    aut = _component_aut(sk, sr)
    total = 0
    for tk, tr, mult in target.components:
        for copies, parts in component_rows(sk, sr, tk, tr):
            if copies:
                rest = target.remove(tk, tr).add_parts(parts)
                total += mult * copies * aut * rep_count(sub, rest)
    if len(_MEMO) >= _MEMO_CAP:
        _MEMO.clear()
    _MEMO[key] = total
    return total
