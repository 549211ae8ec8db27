"""Simply laced root systems: components, orders, Gram matrices, enumeration.

A root system here is a finite multiset of components A_n (n >= 1), D_n
(n >= 4), E_6, E_7, E_8, plus the rank-one rootless marker Z used when odd
lattices with norm-one vectors enter the bookkeeping.  Degenerate indices
normalize away: A_0, A_-1, D_0, D_1 are empty, D_2 = A_1^2, D_3 = A_3.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import lru_cache
from operator import attrgetter

from .exact import factorize

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
    if kind == "Z":
        return 2  # the sign
    if kind == "A":
        return 2 * math.factorial(rank + 1) if rank >= 2 else 2
    if kind == "D":
        return 1152 if rank == 4 else 2**rank * math.factorial(rank)
    return {6: 103680, 7: 2903040, 8: 696729600}[rank]


def _token(kind: str, rank: int, mult: int) -> str:
    """One component's part of a name: Z or kind and rank, mult as exponent."""
    base = "Z" if kind == "Z" else f"{kind}{rank}"
    return base if mult == 1 else f"{base}^{mult}"


@dataclass(frozen=True, slots=True)
class RootSystem:
    """Canonically sorted multiset of components: ((kind, rank, mult), ...),
    the only field compared and hashed.  The name (components in kind order
    Z, A, D, E, each by rank, multiplicities as exponents; "0" if empty),
    rank, determinant and root count are fields that `from_parts` derives
    and `enumerate_systems` sets through the slots from what it carried."""

    components: tuple[tuple[str, int, int], ...]
    name: str = field(compare=False, repr=False)
    rank: int = field(compare=False, repr=False)
    det: int = field(compare=False, repr=False)
    root_count: int = field(compare=False, repr=False)

    @classmethod
    def from_parts(cls, parts) -> "RootSystem":
        """The system of the given (kind, rank[, mult]) parts, multiplicity 1
        by default.  Multiplicities are signed, so a system with some
        components swapped out is one call: the net count of each component
        must not be negative.  Canonical components pass through unchanged."""
        counts: dict[tuple[str, int], int] = {}
        for item in parts:
            kind, rank = item[0], item[1]
            mult = item[2] if len(item) > 2 else 1
            for nk, nr in normalize_component(kind, rank):
                counts[nk, nr] = counts.get((nk, nr), 0) + mult
        for (kind, rank), mult in counts.items():
            if mult < 0:
                raise ValueError(f"net multiplicity {mult} of {kind}{rank}")
        comps = tuple(
            (k, r, m)
            for (k, r), m in sorted(counts.items(), key=lambda t: (t[0][1], _KIND_ORDER[t[0][0]]))
            if m
        )
        shown = sorted(comps, key=lambda t: (_KIND_ORDER[t[0]], t[1]))
        return cls(
            comps,
            " ".join(_token(k, r, m) for k, r, m in shown) or "0",
            sum(r * m for _, r, m in comps),
            math.prod(_component_determinant(k, r) ** m for k, r, m in comps),
            sum(_component_roots(k, r) * m for k, r, m in comps),
        )

    @classmethod
    def parse(cls, text: str) -> "RootSystem":
        text = text.strip()
        if text in ("", "0"):
            return cls.from_parts(())
        parts = []
        for token in text.split():
            m = _TOKEN.match(token)
            if not m:
                raise ValueError(f"bad root system token: {token!r}")
            if m.group(4):
                kind, rank, mult = "Z", 1, m.group(5)
            else:
                kind, rank, mult = m.group(1), int(m.group(2)), m.group(3)
            mult = int(mult or 1)
            # normalize_component would take these as empty systems, and
            # from_parts drops a component of multiplicity 0
            if kind == "A" and rank < 1 or kind == "D" and rank < 2 or mult < 1:
                raise ValueError(f"bad root system token: {token!r}")
            parts.append((kind, rank, mult))
        return cls.from_parts(parts)

    def __str__(self) -> str:
        return self.name

    @property
    def weyl_order(self) -> int:
        w = 1
        for k, r, m in self.components:
            if k == "Z":
                w *= 2**m * math.factorial(m)
            else:
                w *= _component_weyl(k, r) ** m
        return w

    @property
    def aut_order(self) -> int:
        return math.prod(
            _component_aut(k, r) ** m * math.factorial(m) for k, r, m in self.components
        )

    @property
    def sort_key(self):
        return (self.rank, -self.det, self.name)


EMPTY = RootSystem.from_parts(())


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


def _borcherds_mod(kind: str, rank: int, dim: int | None) -> int:
    """Modulus a root count must meet in dimension dim when this component
    occurs: 1 outside dimension 32."""
    if dim != 32:
        return 1
    if kind == "D" and rank > 8:
        return 16
    return _BORCHERDS_MOD.get((kind, rank), 1)


def _component_types(max_rank: int) -> list[tuple[str, int]]:
    """The component types (kind, rank) of rank at most max_rank, in
    canonical (rank, kind) order: A < D < E at each rank."""
    return [
        (kind, r)
        for r in range(1, max_rank + 1)
        for kind in ("A", "D", "E")
        if kind == "A" or kind == "D" and r >= 4 or r in (6, 7, 8)
    ]


def enumerate_systems(max_rank: int, dim: int | None = None, filters: bool = True):
    """All root systems of rank <= max_rank in solver order (rank ascending,
    determinant descending, name ascending).  With a target dimension and
    filters on, systems that provably carry zero mass are dropped: those of
    rank dim whose determinant is not a square and, in dimension 32, those
    whose root count some component's Borcherds modulus does not divide.
    The filters are for the solve list, which needs only the systems that
    can carry mass; a listing of coefficients wants every system, so it
    passes no dim, which is what filters=False amounts to.  A dim below
    max_rank raises ValueError: no lattice of that dimension holds the
    systems of a higher rank."""
    return _walk(max_rank, dim if filters else None, False)


def _rank_counts(max_rank: int, dim: int | None) -> list[int]:
    """The number of systems `enumerate_systems` keeps at each rank
    0..max_rank: every multiset of component types counts, and in dimension
    32 only those whose root count the lcm of their Borcherds moduli
    divides.  The square-determinant filter at rank dim is not applied, so
    with a dim, max_rank must lie below it.

    The systems are counted, not visited.  The types of modulus 1 (every
    type outside dimension 32) go into one unbounded-knapsack table, their
    multisets by rank and root count mod the lcm of all the moduli, built
    by one list rotation per (type, rank).  The few multisets of the types
    that carry a modulus (D6 and up, E6, E7, E8 in dimension 32) are then
    listed, and each adds, at every rank it leaves room for, the table's
    count of the one residue that its own lcm accepts, read from the table
    folded to that lcm."""
    if dim is not None and max_rank >= dim:
        raise ValueError(f"max_rank must lie below dim {dim}, got {max_rank}")
    free, carrying = [], []
    for kind, r in _component_types(max_rank):
        mod = _borcherds_mod(kind, r, dim)
        (carrying if mod > 1 else free).append((r, _component_roots(kind, r), mod))
    width = math.lcm(*(mod for _, _, mod in carrying))
    # table[k][x]: the multisets of free types of rank k whose root count
    # is x mod width, the empty one at rank 0
    table = [[int(k == 0)] + [0] * (width - 1) for k in range(max_rank + 1)]
    for r, roots, _ in free:
        s = roots % width
        for k in range(r, max_rank + 1):
            row = table[k - r]
            table[k] = [a + b for a, b in zip(table[k], row[-s:] + row[:-s])]
    counts = [sum(row) for row in table]
    # lcm -> per residue mod it, the column of table counts by rank
    folded: dict[int, list[list[int]]] = {}

    def add(i: int, rank: int, roots: int, mod: int):
        # one more carrying component, of type i or later
        for j in range(i, len(carrying)):
            r, c, m = carrying[j]
            sub_rank, sub_roots, sub_mod = rank + r, roots + c, math.lcm(mod, m)
            if sub_rank > max_rank:
                return  # carrying is in rank order, so no later type fits
            if sub_mod not in folded:
                folded[sub_mod] = [
                    [sum(row[y::sub_mod]) for row in table] for y in range(sub_mod)
                ]
            column = folded[sub_mod][-sub_roots % sub_mod]
            for k in range(sub_rank, max_rank + 1):
                counts[k] += column[k - sub_rank]
            add(j, sub_rank, sub_roots, sub_mod)

    add(0, 0, 0, 1)
    return counts


def _square_class(n: int) -> int:
    """The primes that divide n to an odd power, bit p for the prime p: two
    numbers' product is a square exactly where their classes agree."""
    return sum(1 << p for p, e in factorize(n).items() if e % 2)


def _completion_table(types: list[tuple[int, int, int, int]], cap: int):
    """Which systems a walk that fills the rank exactly can still complete,
    as (width, table).  types holds, per component type in canonical order,
    its rank, root count, Borcherds modulus and key class: its
    determinant's `_square_class` << 6, or 0 where no square test applies.
    A system is looked up by its key, the xor of its components' key
    classes | the lcm of their moduli (at most 48, so below 1 << 6), and by
    its root count mod width, the lcm of every modulus.  For b <= cap,
    table[i][b] maps each key to the mask of the root counts with which
    some multiset of the types >= i, of rank exactly b, completes the
    system to one that passes the filters: the lcm of its moduli divides
    its root count, and its key class is 0 (a square determinant).

    It is an unbounded knapsack run backwards from the empty completion: a
    system completes from the types >= i if it completes from the types
    > i, or if it does once one more component of type i is added.  A type
    of rank above cap changes no entry, so it shares the row after it."""
    width = math.lcm(*(mod for _, _, mod, _ in types))
    full = (1 << width) - 1
    lcms = {1}
    for _, _, mod, _ in types:
        lcms |= {math.lcm(m, mod) for m in lcms}
    # per modulus: for each lcm once a component of it is added, the lcms
    # that were there before
    before = {
        mod: {m: [m0 for m0 in lcms if math.lcm(m0, mod) == m] for m in lcms}
        for mod in {mod for _, _, mod, _ in types}
    }
    row = [{m: sum(1 << x for x in range(0, width, m)) for m in lcms}] + [{}] * cap
    table = [row]
    for rank, roots, mod, sq in reversed(types):
        if rank <= cap:
            after, row, shift, back = row, row[:rank], roots % width, before[mod]
            for b in range(rank, cap + 1):
                entry = dict(after[b])
                # the systems that complete from row[b - rank] once one
                # more component of this type is added to them
                for key, mask in row[b - rank].items():
                    mask = (mask >> shift | mask << (width - shift)) & full
                    key ^= sq
                    for m0 in back[key & 63]:
                        k = key & ~63 | m0
                        entry[k] = entry.get(k, 0) | mask
                row.append(entry)
        table.append(row)
    table.reverse()
    return width, table


def _walk(max_rank: int, dim: int | None, top: bool) -> list[RootSystem]:
    """The systems `enumerate_systems` keeps, filtered for dim unless it is
    None, as one list in solver order: those of every rank 0..max_rank, or
    with top only those of rank max_rank.  A dim below max_rank raises
    ValueError.

    One recursion adds components in canonical (rank, kind) order, so the
    components it has pushed already are the RootSystem's components.  It
    carries rank, determinant, root count, the lcm of the moduli and one
    stack of name tokens per kind, and tests each candidate's filters
    before pushing it.  At each step it first tries the types that fit
    twice into the rank left, recursing while a further type fits; a type
    that fits only once ends the system, so there it only tests the
    filters, the root count first (8 in 10 of the dim-32 steps).  With top,
    as in the solve, only a system of rank max_rank is tested and kept: the
    types that fit once are tried only where their rank fills the budget
    left, and a type that fits twice is tested only where its multiple
    fills it, so the prefixes below are walked but no leaf of a lower rank
    is.

    There, with a dim, a component is pushed only if some completion can
    still pass the filters.  Once the budget left is at most cap =
    max_rank // 2, each step looks its system up in the completion table
    (`_completion_table`), before it multiplies the determinant: if no
    multiset of this type and later ones completes the system, no larger
    multiple of the type does either, and the type is done; if no multiset
    of the later types does, the step is skipped.  For the lookup the walk
    carries its determinant's square class where the square test applies,
    and 0 elsewhere, as in every other walk, which builds no table.  The
    cap keeps the table small, for its entries grow quickly with the
    budget, and it loses little: a dim-32 walk that skipped nothing made
    35,630 calls that kept no system, and 34,665 of them had at most 16
    left.

    A RootSystem is built for each kept system, by `object.__new__` and
    the slot descriptors' setters, so the frozen dataclass's `__init__`
    (one `object.__setattr__` per field) is skipped; it is handed the
    invariants and the name it would derive, and goes into its rank's
    bucket.  Each bucket is sorted twice, stably: on the name, then on the
    determinant, descending.  Names are unique, so that is the order on
    (-det, name), and each sort compares one field only.  The buckets are
    joined in rank order."""
    if max_rank < 0:
        raise ValueError(f"max_rank must be at least 0, got {max_rank}")
    if dim is not None and dim < max_rank:
        raise ValueError(f"max_rank {max_rank} lies above dim {dim}")
    slack = 0 if top else max_rank  # the most budget a kept system leaves unused
    # budget left when a system reaches rank dim; -1 (never) without a dim
    full_left = max_rank - dim if dim is not None else -1
    a_names, d_names, e_names = [], [], []
    names = {"A": a_names, "D": d_names, "E": e_names}
    comps = _component_types(max_rank)
    # a top walk with a dim looks up the budgets up to cap in the
    # completion table; -1 looks up none
    exact = dim is not None and top
    cap = max_rank // 2 if exact else -1
    square = exact and not full_left  # every kept system must have a square det
    # per component type, in canonical order: (Borcherds modulus, name
    # stack, steps), one step per multiplicity that fits, as (rank used,
    # det factor, root count, key class, token, component); and what the
    # completion table needs of it
    types, invariants = [], []
    for kind, r in comps:
        det, roots = _component_determinant(kind, r), _component_roots(kind, r)
        mod = _borcherds_mod(kind, r, dim)
        sq = _square_class(det) << 6 if square else 0
        steps = [
            (r * m, det**m, roots * m, sq if m % 2 else 0, _token(kind, r, m), (kind, r, m))
            for m in range(1, max_rank // r + 1)
        ]
        types.append((mod, names[kind], steps))
        invariants.append((r, roots, mod, sq))
    width, table = _completion_table(invariants, cap) if exact else (1, [])
    fit = [sum(r <= b for _, r in comps) for b in range(max_rank + 1)]  # types of rank <= b
    # per budget, the first type that can end a kept system there
    least = [fit[max(b - slack - 1, 0)] for b in range(max_rank + 1)]
    new = object.__new__
    set_components, set_name, set_rank, set_det, set_roots = (
        getattr(RootSystem, f).__set__ for f in ("components", "name", "rank", "det", "root_count")
    )
    buckets: list[list[RootSystem]] = [[] for _ in range(max_rank + 1)]
    parts: list[tuple[str, int, int]] = []

    def keep(left: int, d: int, n_roots: int):
        # the system on the stacks passed the filters at a built rank
        rank = max_rank - left
        rs = new(RootSystem)
        set_components(rs, tuple(parts))
        set_name(rs, " ".join(a_names + d_names + e_names))
        set_rank(rs, rank)
        set_det(rs, d)
        set_roots(rs, n_roots)
        buckets[rank].append(rs)

    def build(i: int, budget: int, det: int, roots: int, mod: int, sq: int):
        # add one component of type i or later to the system on the stacks:
        # first of the types that fit twice, after which more may fit
        twice = max(i, fit[budget // 2])
        for j in range(i, twice):
            r_mod, stack, steps = types[j]
            sub_mod = math.lcm(mod, r_mod)
            for used, cdet, croots, csq, token, part in steps:
                left = budget - used
                if left < 0:
                    break
                n_roots = roots + croots
                if left <= cap:
                    key, x = sq ^ csq | sub_mod, n_roots % width
                    if not table[j][left].get(key, 0) >> x & 1:
                        break  # nor does any larger multiple
                    if not table[j + 1][left].get(key, 0) >> x & 1:
                        continue
                d = det * cdet
                passed = (
                    left <= slack
                    and not n_roots % sub_mod
                    and (left != full_left or math.isqrt(d) ** 2 == d)
                )
                grow = fit[left] > j + 1
                if not (passed or grow):
                    continue
                parts.append(part)
                stack.append(token)
                if passed:
                    keep(left, d, n_roots)
                if grow:
                    build(j + 1, left, d, n_roots, sub_mod, sq ^ csq)
                stack.pop()
                parts.pop()
        # then of the types that fit once, which end the system, from the
        # first that leaves at most slack
        for j in range(max(twice, least[budget]), fit[budget]):
            r_mod, stack, steps = types[j]
            used, cdet, croots, _, token, part = steps[0]
            n_roots = roots + croots
            if n_roots % mod or n_roots % r_mod:
                continue
            d, left = det * cdet, budget - used
            if left == full_left and math.isqrt(d) ** 2 != d:
                continue
            parts.append(part)
            stack.append(token)
            keep(left, d, n_roots)
            stack.pop()
            parts.pop()

    # the empty system passes every filter
    if max_rank <= slack:
        buckets[0].append(EMPTY)
    build(0, max_rank, 1, 0, 1, 0)
    # build refers to itself, so its cells live until a full collection;
    # the table need not
    del table
    by_name, by_det = attrgetter("name"), attrgetter("det")
    out = []
    for bucket in buckets:
        bucket.sort(key=by_name)
        bucket.sort(key=by_det, reverse=True)  # stable: names stay ascending
        out += bucket
    return out
