"""Reduction of even unimodular mass tables to odd lattices in lower dimensions.

An even unimodular lattice of dimension 8k with a norm-4 vector v = r + s
(r, s orthogonal roots) determines a unimodular lattice of dimension 8k - 2
with minimum norm 2, and conversely every such lattice arises this way.
Summing over the finitely many shapes of v, weighted by orbit sizes, turns a
complete even mass table into mass tables for rootless and near-rootless odd
lattices below the base dimension, and from there into class-number lower
bounds.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from fractions import Fraction
from typing import NamedTuple

from .embeddings import component_rows
from .roots import EMPTY, RootSystem, _component_roots
from .solver import MassTable

Part = tuple[str, int]


# ---------------------------------------------------------------------------
# Shape tables
#
# Case 1: the two roots lie in distinct irreducible components.  Each
# component is replaced by the subsystem orthogonal to one of its roots.
# Case 2: both roots lie in a single component; each row lists the count of
# norm-4 vectors of that shape, the drop in dimension after splitting off the
# resulting unimodular Z^kappa summand, and what remains of the component.


def _case2_rows(kind: str, rank: int) -> tuple[tuple[int, int, tuple[Part, ...]], ...]:
    """Rows (#v, dimension drop, replacement parts) for pairs within one component."""
    if kind == "A":
        return ((6 * math.comb(rank + 1, 4), 3, (("A", rank - 4),)),)
    if kind == "D":
        if rank == 4:
            return ((24, 4, ()),)
        return (
            (16 * math.comb(rank, 4), 4, (("D", rank - 4),)),
            (2 * rank, rank, ()),
        )
    return {
        6: ((270, 5, ()),),
        7: ((756, 6, (("A", 1),)),),
        8: ((2160, 8, ()),),
    }[rank]


def _orbit_factor(kappa: int) -> int:
    # each orbit of norm-4 vectors with a Z^kappa complement carries 2^(kappa-1) kappa!
    if kappa < 1:
        raise ValueError(f"orbit factor needs kappa >= 1, got {kappa}")
    return 2 ** (kappa - 1) * math.factorial(kappa)


def _consumed_weight(kind: str, rank: int) -> int:
    """Sum over case-2 rows that empty the component of #v * orbit factor * w(rest)."""
    total = 0
    for count, drop, parts in _case2_rows(kind, rank):
        rest = RootSystem.from_parts(parts)
        total += count * _orbit_factor(drop - 1) * rest.weyl_order
    return total


def _check_factor_identities() -> None:
    # The orbit factor is self-checking: consuming a whole component must
    # account for exactly its Weyl group order (three shapes for D_4).
    for kind, rank, copies in [
        ("A", 3, 1),
        ("A", 4, 1),
        ("D", 4, 3),
        ("E", 6, 1),
        ("E", 7, 1),
        ("E", 8, 1),
    ]:
        wanted = copies * RootSystem.from_parts([(kind, rank, 1)]).weyl_order
        if _consumed_weight(kind, rank) != wanted:
            raise RuntimeError(f"shapes of {kind}{rank} do not add up to its Weyl group")
    for j in range(5, 25):
        count, drop, _ = _case2_rows("D", j)[1]
        if count * _orbit_factor(drop - 1) != 2 ** (j - 1) * math.factorial(j):
            raise RuntimeError(f"the D{j} shape of dimension drop {j} has the wrong weight")


_check_factor_identities()


# ---------------------------------------------------------------------------
# Mass reduction


@dataclass
class OddMassTable:
    """Masses of unimodular minimum-norm-2 lattices below an even base dimension.

    contributions[n][target][source] is the part of the dimension-n mass of
    lattices with root system `target` that comes from the base-table entry
    `source`.  Keeping the summands separate sharpens the integrality bounds
    later on.
    """

    base_dim: int
    contributions: dict[int, dict[RootSystem, dict[RootSystem, Fraction]]] = field(
        default_factory=dict
    )

    def _add(self, n: int, target: RootSystem, source: RootSystem, value: Fraction) -> None:
        if value <= 0:
            raise RuntimeError(f"contribution {value} of {source} to {target} is not positive")
        bucket = self.contributions.setdefault(n, {})
        per_source = bucket.setdefault(target, {})
        per_source[source] = per_source.get(source, Fraction(0)) + value

    def dimensions(self) -> list[int]:
        return sorted(self.contributions)

    def systems(self, n: int) -> list[RootSystem]:
        return sorted(self.contributions.get(n, {}), key=lambda rs: rs.sort_key)

    def summands(self, n: int, target: RootSystem) -> list[tuple[RootSystem, Fraction]]:
        per_source = self.contributions.get(n, {}).get(target, {})
        return sorted(per_source.items(), key=lambda t: t[0].sort_key)

    def mass(self, n: int, target: RootSystem) -> Fraction:
        return sum(
            self.contributions.get(n, {}).get(target, {}).values(), Fraction(0)
        )

    def no_root_mass(self, n: int) -> Fraction:
        return self.mass(n, EMPTY)


def reduce_masses(table: MassTable) -> OddMassTable:
    """Convert a full even mass table into the odd tables below it.

    Each positive entry m(R) of the base table is fanned out over the norm-4
    vector shapes of R.  A shape with vector count #v and dimension drop
    kappa + 1 contributes m(R) * #v * 2^(kappa-1) * kappa! to the bucket at
    (base - drop, R with the touched components replaced).
    """
    if table.dim % 8 or table.dim < 8:
        raise ValueError(f"the base table needs a positive multiple of 8, got {table.dim}")
    out = OddMassTable(table.dim)
    for source, m in table.masses.items():
        if m <= 0:
            raise RuntimeError(f"base mass {m} of {source} is not positive")
        comps = source.components
        for i, (k1, r1, mu1) in enumerate(comps):
            v1 = _component_roots(k1, r1)
            hat1 = component_rows("A", 1, k1, r1)[0][1]  # complement of one root
            # case 1, the roots in two instances: both of this type, or one
            # of this type and one of a later type
            for k2, r2, mu2 in comps[i:]:
                pairs = math.comb(mu1, 2) if (k2, r2) == (k1, r1) else mu1 * mu2
                if not pairs:
                    continue
                v2 = _component_roots(k2, r2)
                hat2 = component_rows("A", 1, k2, r2)[0][1]
                target = RootSystem.from_parts([*comps, (k1, r1, -1), (k2, r2, -1), *hat1, *hat2])
                out._add(table.dim - 2, target, source, m * pairs * v1 * v2)
            # case 2, both roots inside one instance
            for count, drop, parts in _case2_rows(k1, r1):
                if count == 0:
                    continue
                target = RootSystem.from_parts([*comps, (k1, r1, -1), *parts])
                value = m * mu1 * count * _orbit_factor(drop - 1)
                out._add(table.dim - drop, target, source, value)
    return out


def _no_root_closed_forms(table: MassTable) -> dict[int, Fraction]:
    # independent re-derivation of the rootless buckets: only a handful of
    # base systems can be consumed entirely by a single reduction step
    base = table.dim
    out = {n: Fraction(0) for n in range(base - 9, base - 1)}

    def pure(kind: str, rank: int) -> RootSystem:
        return RootSystem.from_parts([(kind, rank, 1)])

    for j in range(4, 10):
        # only the last row, dimension drop j, empties D_j; from D5 on the
        # other one (drop 4) leaves D_(j-4), rootless only for D5, below
        count, drop, _ = _case2_rows("D", j)[-1]
        out[base - j] += table.mass(pure("D", j)) * count * _orbit_factor(drop - 1)
    for kind, rank, n in [("E", 6, base - 5), ("E", 8, base - 8)]:
        out[n] += table.mass(pure(kind, rank)) * _consumed_weight(kind, rank)
    for rank in (3, 4):
        out[base - 3] += table.mass(pure("A", rank)) * _consumed_weight("A", rank)
    out[base - 4] += table.mass(pure("D", 5)) * 16 * math.comb(5, 4) * _orbit_factor(3)
    for parts, pair_count in [
        ((("A", 1, 2),), 1),
        ((("A", 1, 1), ("A", 2, 1)), 1),
        ((("A", 2, 2),), 1),
    ]:
        source = RootSystem.from_parts(parts)
        vectors = 1
        for k, r, mult in source.components:
            vectors *= _component_roots(k, r) ** mult
        out[base - 2] += table.mass(source) * pair_count * vectors
    return out


def no_root_masses(table: MassTable) -> dict[int, Fraction]:
    """Masses of rootless unimodular lattices in the eight dimensions below the base.

    Cross-checked against the closed forms obtained by listing the base
    systems a single reduction step can consume entirely.
    """
    reduced = reduce_masses(table)
    out = {n: reduced.no_root_mass(n) for n in range(table.dim - 9, table.dim - 1)}
    for n, value in _no_root_closed_forms(table).items():
        if out[n] != value:
            raise RuntimeError(f"rootless mass {out[n]} at dimension {n}, closed form {value}")
    return out


# ---------------------------------------------------------------------------
# Class-number lower bounds


def milgram_norm4_count(n: int) -> int:
    """Classes of Lambda/2Lambda with norm divisible by 4, for even unimodular Lambda."""
    if n % 8 or n <= 0:
        raise ValueError(f"need a positive multiple of 8, got {n}")
    return 2 ** (n - 1) + 2 ** (n // 2 - 1)


def bound_dim31(m32_noroots: Fraction) -> Fraction:
    """Mass of rootless 31-dimensional lattices with no norm-7 parity vectors.

    Every rootless 32-dimensional even unimodular lattice has exactly 146880
    norm-4 vectors, each orbit pair {v, -v} yielding one reduced lattice.
    """
    return Fraction(146880, 2) * m32_noroots


def bound_dim32_odd(m32_noroots: Fraction) -> Fraction:
    """Lower bound for the mass of rootless odd 32-dimensional lattices.

    Counts nonzero classes of Lambda/2Lambda with norm divisible by 4 but not
    represented by norm-0 or norm-4 vectors; each gives an odd neighbor, and
    each odd lattice has two even neighbors.
    """
    usable = milgram_norm4_count(32) - 146880 // 2 - 1
    return Fraction(usable, 2) * m32_noroots


def w_prime(rs: RootSystem, lattice_dim: int) -> int:
    """Order of the automorphisms every lattice with root system rs must have.

    The reflection group of rs always acts; -1 gives a further factor of 2
    unless it is already a product of reflections, which happens exactly when
    rs spans the lattice and each component has -1 in its Weyl group.  Z
    components carry their full signed-permutation group and never obstruct.
    """
    w = rs.weyl_order
    if rs.rank != lattice_dim:
        return 2 * w
    for kind, rank, _ in rs.components:
        if kind == "Z":
            continue
        contains_minus_one = (
            (kind == "A" and rank == 1)
            or (kind == "E" and rank in (7, 8))
            or (kind == "D" and rank % 2 == 0)
        )
        if not contains_minus_one:
            return 2 * w
    return w


def mod_ceiling(x: Fraction | int) -> int:
    """Least class count compatible with a mass x = q + a/b in lowest terms.

    A fractional mass needs at least one lattice with extra automorphisms; if
    a > 1 one such lattice is not enough, so the count is q, q + 1, or q + 2
    according to a = 0, a = 1, or a > 1.
    """
    x = Fraction(x)
    if x < 0:
        raise ValueError(f"a mass cannot be negative, got {x}")
    q, rem = divmod(x.numerator, x.denominator)
    if rem == 0:
        return q
    return q + 1 if Fraction(rem, x.denominator).numerator == 1 else q + 2


class ClassBound(NamedTuple):
    bound: int
    root_system_count: int
    systems: dict[RootSystem, Fraction]


def even_class_bound(table: MassTable) -> ClassBound:
    """Lower bound for the class number of an even unimodular genus."""
    total = 0
    systems: dict[RootSystem, Fraction] = {}
    for rs, m in table.rows():
        total += mod_ceiling(m * w_prime(rs, table.dim))
        systems[rs] = m
    return ClassBound(total, len(systems), systems)


def class_lower_bound(
    odd_table: OddMassTable,
    n: int,
    even_tables: dict[int, MassTable] | None = None,
) -> ClassBound:
    """Lower bound for the number of odd unimodular lattices of dimension n.

    Every such lattice splits as Z^j orthogonal to a minimum-norm-2 lattice,
    so the buckets of odd_table at dimensions n - j cover the genus once the
    Z^j prefix (mass factor 1 / (2^j j!)) is restored.  Each bucket summand is
    rounded up separately.  At j = 0 the bucket of a dimension divisible by 8
    also counts even lattices; their mass, taken from even_tables, is removed
    first.  The bucket at dimension 0 is the empty lattice with mass 1.
    """
    if not 1 <= n <= odd_table.base_dim - 2:
        raise ValueError(f"n must lie in 1..{odd_table.base_dim - 2}, got {n}")
    even_tables = even_tables or {}
    total = 0
    systems: dict[RootSystem, Fraction] = {}
    for j in range(n + 1):
        n0 = n - j
        z_norm = 2**j * math.factorial(j)
        # the unique empty lattice; its reduction bucket carries mass exactly 1
        if n0 == 0 and odd_table.mass(0, EMPTY) != 1:
            raise RuntimeError("the empty lattice does not have mass 1")
        for target in odd_table.systems(n0):
            full = RootSystem.from_parts([*target.components, ("Z", 1, j)])
            # w'(full, n) = z_norm * w'(target, n0), which cancels the mass
            # factor 1 / z_norm of Z^j: a summand's rounding is the same at every j
            wp = w_prime(target, n0)
            if j == 0 and n0 % 8 == 0:
                # the bucket also counts even unimodular lattices; strip them
                if n0 not in even_tables:
                    raise ValueError(
                        f"need the even mass table at dimension {n0} "
                        f"to bound dimension {n}"
                    )
                diff = odd_table.mass(n0, target) - even_tables[n0].mass(target)
                if diff < 0:
                    raise RuntimeError(f"even mass of {target} exceeds its bucket at {n0}")
                if diff > 0:
                    total += mod_ceiling(diff * wp)
                    systems[full] = diff
                continue
            bucket_total = Fraction(0)
            for _, value in odd_table.summands(n0, target):
                total += mod_ceiling(value * wp)
                bucket_total += value
            systems[full] = bucket_total / z_norm
    return ClassBound(total, len(systems), systems)
