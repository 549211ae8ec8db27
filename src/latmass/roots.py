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
from operator import itemgetter

_KIND_ORDER = {"Z": -1, "A": 0, "D": 1, "E": 2}
_TOKEN = re.compile(r"^([ADE])(-?\d+)(?:\^(\d+))?$|^(Z)(?:\^(\d+))?$")


def normalize_component(kind: str, rank: int) -> tuple[tuple[str, int], ...]:
    """Resolve degenerate indices to honest components (possibly none)."""
    if kind == "A" and rank >= -1:
        return ((kind, rank),) if rank >= 1 else ()
    if kind == "D" and rank >= 0:
        if rank <= 1:
            return ()
        if rank == 2:
            return (("A", 1), ("A", 1))
        if rank == 3:
            return (("A", 3),)
        return (("D", rank),)
    if kind == "E" and rank in (6, 7, 8) or kind == "Z" and rank == 1:
        return ((kind, rank),)
    raise ValueError(f"no root system component {kind}{rank}")


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
            if mult < 0:
                raise ValueError(f"negative multiplicity {mult} of {kind}{rank}")
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
        return self.name

    @cached_property
    def name(self) -> str:
        """Components in kind order (Z, A, D, E), each by rank, with
        multiplicities as exponents; "0" for the empty system."""
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
        return (self.rank, -self.det, self.name)

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
        if removed != times:
            raise ValueError(f"{self} has fewer than {times} components {kind}{rank}")
        return RootSystem(tuple(parts))

    def add_parts(self, parts) -> "RootSystem":
        return RootSystem.from_parts(
            [(k, r, m) for k, r, m in self.components] + [(k, r, 1) for k, r in parts]
        )


EMPTY = RootSystem(())


# ---------------------------------------------------------------------------
# Gram matrices and explicit roots


def _dynkin_edges(kind: str, rank: int) -> list[tuple[int, int]]:
    if kind == "A" and rank >= 1:
        return [(i, i + 1) for i in range(rank - 1)]
    if kind == "D" and rank >= 4:
        return [(i, i + 1) for i in range(rank - 2)] + [(rank - 3, rank - 1)]
    if kind == "E" and rank in (6, 7, 8):
        return [(i, i + 1) for i in range(rank - 2)] + [(2, rank - 1)]
    raise ValueError(f"no Dynkin diagram {kind}{rank}")


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
        if k == "Z":
            raise ValueError(f"{rs} has a Z component, which has no roots")
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
    if len(roots) != _component_roots(kind, rank) or any(pair(v, v) != 2 for v in roots):
        raise RuntimeError(f"reflection closure of {kind}{rank} is not its root system")
    return tuple(sorted(roots))


# ---------------------------------------------------------------------------
# Enumeration

_BORCHERDS_MOD = {("E", 8): 24, ("E", 7): 12, ("E", 6): 6, ("D", 6): 4, ("D", 7): 8, ("D", 8): 8}


def _borcherds_mod(kind: str, rank: int) -> int:
    """Modulus a dim-32 root count must meet when this component occurs."""
    if kind == "D" and rank > 8:
        return 16
    return _BORCHERDS_MOD.get((kind, rank), 1)


def enumerate_systems(max_rank: int, dim: int | None = None, filters: bool = True):
    """All root systems of rank <= max_rank in solver order (rank ascending,
    determinant descending, name ascending).  With a target dimension and
    filters on, systems that provably carry zero mass are dropped: those of
    rank dim whose determinant is not a square and, in dimension 32, those
    whose root count some component's Borcherds modulus does not divide.

    One recursion over components in name order (A by rank, then D, then E)
    carries rank, determinant, root count, the lcm of the moduli and the
    name tokens, so each filter is one integer test and a RootSystem is
    built only for the systems kept, with those invariants cached."""
    full_rank = dim if filters else None
    borcherds = filters and dim == 32
    # per component type: (rank, Borcherds modulus, index of the next
    # kind's first type, steps), one step per multiplicity that fits, as
    # (rank used, det factor, root count, name token, component)
    types = []
    for kind, ranks in (
        ("A", range(1, max_rank + 1)),
        ("D", range(4, max_rank + 1)),
        ("E", [n for n in (6, 7, 8) if n <= max_rank]),
    ):
        next_kind = len(types) + len(ranks)
        for r in ranks:
            det, roots = _component_determinant(kind, r), _component_roots(kind, r)
            base = f"{kind}{r}"
            steps = [
                (r * m, det**m, roots * m, base if m == 1 else f"{base}^{m}", (kind, r, m))
                for m in range(1, max_rank // r + 1)
            ]
            types.append((r, _borcherds_mod(kind, r), next_kind, steps))
    n_types = len(types)
    kept: list[tuple] = []
    parts: list[tuple[str, int, int]] = []
    names: list[str] = []

    def build(idx: int, budget: int, det: int, roots: int, mod: int):
        rank = max_rank - budget
        if (rank != full_rank or math.isqrt(det) ** 2 == det) and not (borcherds and roots % mod):
            kept.append((rank, -det, " ".join(names) or "0", roots, tuple(parts)))
        i = idx
        while i < n_types:
            r, r_mod, next_kind, steps = types[i]
            if r > budget:
                i = next_kind  # ranks ascend within a kind
                continue
            i += 1
            sub_mod = math.lcm(mod, r_mod)
            for used, cdet, croots, token, part in steps:
                if used > budget:
                    break
                parts.append(part)
                names.append(token)
                build(i, budget - used, det * cdet, roots + croots, sub_mod)
                names.pop()
                parts.pop()

    build(0, max_rank, 1, 0, 1)
    kept.sort()
    canonical = itemgetter(1, 0)  # (rank, kind) with A < D < E; no Z is enumerated
    out = []
    for rank, neg_det, name, roots, found in kept:
        rs = RootSystem(tuple(sorted(found, key=canonical)))
        # cached properties read the instance dict first: seed them
        rs.__dict__.update(name=name, rank=rank, det=-neg_det, root_count=roots)
        out.append(rs)
    return out
