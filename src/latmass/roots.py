"""Simply laced root systems: components, orders, Gram matrices, enumeration.

A root system here is a finite multiset of components A_n (n >= 1), D_n
(n >= 4), E_6, E_7, E_8, plus the rank-one rootless marker Z used when odd
lattices with norm-one vectors enter the bookkeeping.  Degenerate indices
normalize away: A_0, A_-1, D_0, D_1 are empty, D_2 = A_1^2, D_3 = A_3.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass
from functools import cached_property, lru_cache

_KIND_ORDER = {"Z": -1, "A": 0, "D": 1, "E": 2}
_TOKEN = re.compile(r"^([ADE])(-?\d+)(?:\^(\d+))?$|^(Z)(?:\^(\d+))?$")


def normalize_component(kind: str, rank: int) -> tuple[tuple[str, int], ...]:
    """Resolve degenerate indices to honest components (possibly none)."""
    if kind == "A":
        assert rank >= -1
        return ((kind, rank),) if rank >= 1 else ()
    if kind == "D":
        assert rank >= 0
        if rank <= 1:
            return ()
        if rank == 2:
            return (("A", 1), ("A", 1))
        if rank == 3:
            return (("A", 3),)
        return (("D", rank),)
    if kind == "E":
        assert rank in (6, 7, 8)
        return (("E", rank),)
    assert kind == "Z" and rank == 1
    return (("Z", 1),)


def _component_determinant(kind: str, rank: int) -> int:
    return {"A": rank + 1, "D": 4, "Z": 1}.get(kind) or {6: 3, 7: 2, 8: 1}[rank]


def _component_roots(kind: str, rank: int) -> int:
    if kind == "A":
        return rank * (rank + 1)
    if kind == "D":
        return 2 * rank * (rank - 1)
    if kind == "Z":
        return 0
    return {6: 72, 7: 126, 8: 240}[rank]


def _component_weyl(kind: str, rank: int) -> int:
    if kind == "A":
        return math.factorial(rank + 1)
    if kind == "D":
        return 2 ** (rank - 1) * math.factorial(rank)
    return {6: 51840, 7: 2903040, 8: 696729600}[rank]


def _component_aut(kind: str, rank: int) -> int:
    """Automorphisms of one component: Weyl group times graph symmetries."""
    if kind == "A":
        return 2 * math.factorial(rank + 1) if rank >= 2 else 2
    if kind == "D":
        return 1152 if rank == 4 else 2**rank * math.factorial(rank)
    return {6: 103680, 7: 2903040, 8: 696729600}[rank]


@dataclass(frozen=True)
class RootSystem:
    """Canonically sorted multiset of components: ((kind, rank, mult), ...)."""

    components: tuple[tuple[str, int, int], ...]

    @classmethod
    def from_parts(cls, parts) -> "RootSystem":
        counts: dict[tuple[str, int], int] = {}
        for item in parts:
            kind, rank = item[0], item[1]
            mult = item[2] if len(item) > 2 else 1
            assert mult >= 0
            for nk, nr in normalize_component(kind, rank):
                counts[nk, nr] = counts.get((nk, nr), 0) + mult
        comps = tuple(
            (k, r, m)
            for (k, r), m in sorted(counts.items(), key=lambda t: (t[0][1], _KIND_ORDER[t[0][0]]))
            if m
        )
        return cls(comps)

    @classmethod
    def parse(cls, text: str) -> "RootSystem":
        text = text.strip()
        if text in ("", "0"):
            return cls(())
        parts = []
        for token in text.split():
            m = _TOKEN.match(token)
            if not m:
                raise ValueError(f"bad root system token: {token!r}")
            if m.group(4):
                parts.append(("Z", 1, int(m.group(5) or 1)))
            else:
                kind, rank = m.group(1), int(m.group(2))
                if kind == "E" and rank not in (6, 7, 8):
                    raise ValueError(f"bad root system token: {token!r}")
                if kind == "A" and rank < 1 or kind == "D" and rank < 2:
                    raise ValueError(f"bad root system token: {token!r}")
                parts.append((kind, rank, int(m.group(3) or 1)))
        return cls.from_parts(parts)

    def __str__(self) -> str:
        if not self.components:
            return "0"
        bits = []
        shown = sorted(self.components, key=lambda t: (_KIND_ORDER[t[0]], t[1]))
        for kind, rank, mult in shown:
            base = "Z" if kind == "Z" else f"{kind}{rank}"
            bits.append(base if mult == 1 else f"{base}^{mult}")
        return " ".join(bits)

    @cached_property
    def rank(self) -> int:
        return sum(r * m for _, r, m in self.components)

    @cached_property
    def det(self) -> int:
        return math.prod(_component_determinant(k, r) ** m for k, r, m in self.components)

    @cached_property
    def root_count(self) -> int:
        return sum(_component_roots(k, r) * m for k, r, m in self.components)

    @cached_property
    def weyl_order(self) -> int:
        w = 1
        for k, r, m in self.components:
            if k == "Z":
                w *= 2**m * math.factorial(m)
            else:
                w *= _component_weyl(k, r) ** m
        return w

    @cached_property
    def aut_order(self) -> int:
        a = 1
        for k, r, m in self.components:
            if k == "Z":
                a *= 2**m * math.factorial(m)
            else:
                a *= _component_aut(k, r) ** m * math.factorial(m)
        return a

    @property
    def sort_key(self):
        return (self.rank, -self.det, str(self))

    def remove(self, kind: str, rank: int, times: int = 1) -> "RootSystem":
        parts = []
        removed = 0
        for k, r, m in self.components:
            if k == kind and r == rank:
                take = min(times - removed, m)
                removed += take
                m -= take
            if m:
                parts.append((k, r, m))
        assert removed == times, (self, kind, rank, times)
        return RootSystem(tuple(parts))

    def add_parts(self, parts) -> "RootSystem":
        return RootSystem.from_parts(
            [(k, r, m) for k, r, m in self.components] + [(k, r, 1) for k, r in parts]
        )


EMPTY = RootSystem(())


# ---------------------------------------------------------------------------
# Gram matrices and explicit roots


def _dynkin_edges(kind: str, rank: int) -> list[tuple[int, int]]:
    if kind == "A":
        return [(i, i + 1) for i in range(rank - 1)]
    if kind == "D":
        assert rank >= 4
        return [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
    assert kind == "E" and rank in (6, 7, 8)
    return [(i, i + 1) for i in range(rank - 2)] + [(2, rank - 1)]


@lru_cache(maxsize=None)
def component_gram(kind: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """Gram matrix of the simple roots (all norms 2)."""
    g = [[0] * rank for _ in range(rank)]
    for i in range(rank):
        g[i][i] = 2
    for i, j in _dynkin_edges(kind, rank):
        g[i][j] = g[j][i] = -1
    return tuple(tuple(row) for row in g)


def system_gram(rs: RootSystem) -> tuple[tuple[int, ...], ...]:
    """Block diagonal Gram matrix over all component instances."""
    mats = []
    for k, r, m in rs.components:
        assert k != "Z"
        mats.extend([component_gram(k, r)] * m)
    n = sum(len(mat) for mat in mats)
    out = [[0] * n for _ in range(n)]
    at = 0
    for mat in mats:
        for i in range(len(mat)):
            for j in range(len(mat)):
                out[at + i][at + j] = mat[i][j]
        at += len(mat)
    return tuple(tuple(row) for row in out)


@lru_cache(maxsize=None)
def component_roots(kind: str, rank: int) -> tuple[tuple[int, ...], ...]:
    """All roots in simple root coordinates, by reflection closure."""
    gram = component_gram(kind, rank)
    simple = [tuple(1 if j == i else 0 for j in range(rank)) for i in range(rank)]

    def pair(a, b):
        return sum(a[i] * gram[i][j] * b[j] for i in range(rank) for j in range(rank))

    roots = set(simple) | {tuple(-x for x in v) for v in simple}
    frontier = set(roots)
    while frontier:
        new = set()
        for beta in frontier:
            for alpha in simple:
                c = pair(beta, alpha)
                cand = tuple(beta[i] - c * alpha[i] for i in range(rank))
                if cand not in roots:
                    new.add(cand)
        roots |= new
        frontier = new
    assert all(pair(v, v) == 2 for v in roots)
    assert len(roots) == _component_roots(kind, rank)
    return tuple(sorted(roots))


# ---------------------------------------------------------------------------
# Enumeration

_BORCHERDS_MOD = {("E", 8): 24, ("E", 7): 12, ("E", 6): 6, ("D", 6): 4, ("D", 7): 8, ("D", 8): 8}


def _passes_filters(rs: RootSystem, dim: int) -> bool:
    if rs.rank == dim and math.isqrt(rs.det) ** 2 != rs.det:
        return False
    if dim == 32:
        for kind, rank, _ in rs.components:
            mod = _BORCHERDS_MOD.get((kind, rank))
            if kind == "D" and rank > 8:
                mod = 16
            if mod and rs.root_count % mod:
                return False
    return True


def enumerate_systems(max_rank: int, dim: int | None = None, filters: bool = True):
    """All root systems of rank <= max_rank in solver order (rank ascending,
    determinant descending, name ascending).  With a target dimension and
    filters on, systems that provably carry zero mass are dropped."""
    types = [("A", n) for n in range(1, max_rank + 1)]
    types += [("D", n) for n in range(4, max_rank + 1)]
    types += [("E", n) for n in (6, 7, 8) if n <= max_rank]
    out: list[RootSystem] = []

    def build(idx: int, budget: int, acc: list[tuple[str, int, int]]):
        out.append(RootSystem(tuple(sorted(acc, key=lambda t: (t[1], _KIND_ORDER[t[0]])))))
        for i in range(idx, len(types)):
            kind, rank = types[i]
            if rank > budget:
                continue
            acc.append((kind, rank, 1))
            mult = 1
            while rank * mult <= budget:
                acc[-1] = (kind, rank, mult)
                build(i + 1, budget - rank * mult, acc)
                mult += 1
            acc.pop()

    build(0, max_rank, [])
    if dim is not None and filters:
        out = [rs for rs in out if _passes_filters(rs, dim)]
    out.sort(key=lambda rs: rs.sort_key)
    return out
