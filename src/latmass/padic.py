"""Local structure of half-integral symmetric matrices.

A half-integral matrix B (integral diagonal, off-diagonal entries in (1/2)Z)
is split over Z_p into a Jordan direct sum.  For odd p the blocks are scaled
units p^e * u.  For p = 2 the blocks are 2^e * u with u an odd unit residue,
or scaled copies of the even binary forms

    H = [[0, 1/2], [1/2, 0]]      (det -1/4)
    Y = [[1, 1/2], [1/2, 1]]      (det  3/4)

The invariants extracted from a block list here (d, i, delta, xi, eta) drive
the Siegel series recursion.
"""

from __future__ import annotations

from collections import Counter
from fractions import Fraction
from functools import lru_cache
from itertools import compress
from typing import NamedTuple

Matrix = tuple[tuple[Fraction, ...], ...]
Block = tuple[str, int, int]  # (kind 'u'|'h'|'y', scale, unit residue; 0 for h/y)


def _split(x: Fraction | int, p: int) -> tuple[int, int]:
    """(v, w) for a nonzero rational x = p^v * num/den with num, den prime
    to p, where w = num * den.  w is a p-adic unit in the square class of
    x / p^v (den^2 is a square), so (v, w) determines every symbol below."""
    num, den = x.numerator, x.denominator
    if not num:
        raise ValueError("the p-adic valuation of 0 is not defined")
    v = 0
    while num % p == 0:
        num //= p
        v += 1
    while den % p == 0:
        den //= p
        v -= 1
    return v, num * den


def valuation(x: Fraction | int, p: int) -> int:
    """p-adic valuation of a nonzero rational."""
    return _split(x, p)[0]


def _legendre(w: int, p: int) -> int:
    """Legendre symbol of an integer prime to the odd prime p."""
    return 1 if pow(w, (p - 1) // 2, p) == 1 else -1


def _hilbert(alpha: int, u: int, beta: int, v: int, p: int) -> int:
    """(p^alpha u, p^beta v)_p for integer units u, v (as from _split)."""
    if p == 2:
        ru, rv = u % 8, v % 8
        eps_u, eps_v = (ru - 1) // 2 % 2, (rv - 1) // 2 % 2
        om_u, om_v = (ru * ru - 1) // 8 % 2, (rv * rv - 1) // 8 % 2
        exp = eps_u * eps_v + alpha * om_v + beta * om_u
        return -1 if exp % 2 else 1
    sign = -1 if (alpha * beta * (p - 1) // 2) % 2 else 1
    if beta % 2:
        sign *= _legendre(u, p)
    if alpha % 2:
        sign *= _legendre(v, p)
    return sign


def hilbert_symbol(a: Fraction | int, b: Fraction | int, p: int | None) -> int:
    """Hilbert symbol (a, b)_p of nonzero rationals; p = None is the real
    place.  At a prime, a thin wrapper over the integer core that
    hasse_invariant also uses."""
    if p is None:
        if not a or not b:
            raise ValueError(f"the Hilbert symbol needs nonzero rationals, got {a}, {b}")
        return -1 if a < 0 and b < 0 else 1
    return _hilbert(*_split(a, p), *_split(b, p), p)


def _hasse(counts, p: int) -> int:
    """prod_{i<j} (a_i, a_j)_p over a diagonal given as a Counter of the
    entries' integer pairs (v, w) from _split.

    With k_a copies of a, the product is prod_a (a, a)^C(k_a, 2) *
    prod_{a<b} (a, b)^(k_a k_b), so only entries and pairs with an odd
    exponent are evaluated, each once.
    """
    groups = list(counts.items())
    h = 1
    for t, (x, k) in enumerate(groups):
        if k * (k - 1) // 2 % 2:
            h *= _hilbert(*x, *x, p)
        if k % 2:
            for y, l in groups[t + 1:]:
                if l % 2:
                    h *= _hilbert(*x, *y, p)
    return h


def hasse_invariant(diag, p: int | None) -> int:
    """Hasse invariant prod_{i<j} (a_i, a_j)_p of a diagonalized form.  At
    the real place (a, b) = -1 only for two negatives, so the invariant is
    -1 exactly when C(#negatives, 2) is odd."""
    if p is None:
        neg = sum(1 for a in diag if a < 0)
        return -1 if neg * (neg - 1) // 2 % 2 else 1
    return _hasse(Counter(_split(a, p) for a in diag), p)


def _chi(v: int, w: int, p: int) -> int:
    """chi_p of p^v * w for an integer unit w (as from _split)."""
    if v % 2:
        return 0
    if p == 2:
        return {1: 1, 5: -1, 3: 0, 7: 0}[w % 8]
    return _legendre(w, p)


def chi_p(x: Fraction | int, p: int) -> int:
    """1, -1, 0 as x is a square unit times p^even, the nonsquare unit class
    of the unramified extension, or neither."""
    return _chi(*_split(x, p), p)


# ---------------------------------------------------------------------------
# Jordan decomposition


@lru_cache(maxsize=None)
def _nonresidue(p: int) -> int:
    """The least quadratic nonresidue mod the odd prime p."""
    return next(r for r in range(2, p) if _legendre(r, p) == -1)


@lru_cache(maxsize=None)
def _fold_units(counts: tuple[int, ...]) -> tuple[tuple[int, ...], int, int]:
    """The units of one scale at p = 2, counted by residue mod 8 (counts[r]
    units of residue r), folded three at a time, least residues first, into
    <a+b+c> and an even binary form one scale up, until at most two are
    left: (those units ascending, the H's and the Y's made)."""
    left = list(counts)
    h = y = 0
    while sum(left) >= 3:
        a, b, c = [r for r, k in enumerate(left) for _ in range(min(k, 3))][:3]
        for r in (a, b, c):
            left[r] -= 1
        s = (a + b + c) % 8
        t = (a * b * c * s) % 8
        if t not in (3, 7):
            raise ArithmeticError(f"units {a}, {b}, {c} leave no even binary form")
        if t == 7:
            h += 1
        else:
            y += 1
        left[s] += 1
    return tuple(r for r, c in enumerate(left) for _ in range(c)), h, y


def merge_blocks(counted, p: int) -> tuple[Block, ...]:
    """Canonical block list of a direct sum given its blocks with their
    counts, as (block, count) pairs; a block may come in several pairs.

    At odd p each scale becomes <1,...,1,cls>, cls the determinant class,
    with one Legendre symbol per pair of odd count and residue other than
    1.  At p = 2 each scale keeps at most two odd units and one Y: Y + Y =
    H + H, and three units <a, b, c> = <a+b+c> + K one scale up, K = H or Y
    as abc(a+b+c) is 7 or 3 mod 8 (the complement of a splitting vector is
    an even binary form of determinant class abc(a+b+c)); _fold_units does
    that per scale on the units' residue counts.  A fold adds no unit, so
    one ascending walk to one scale above the highest settles and emits
    every scale: units by residue, the H's, then at most one Y.
    """
    two = p == 2
    # per scale: units counted by residue mod 8 at p = 2, else [count, class]
    units: dict[int, list[int]] = {}
    evens: dict[int, list[int]] = {}  # scale -> [h_count, y_count]
    for (kind, e, u), k in counted:
        if kind == "u":
            at = units.get(e)
            if two:
                if at is None:
                    at = units[e] = [0] * 8
                at[u % 8] += k
            else:
                if at is None:
                    at = units[e] = [0, 1]
                at[0] += k
                if k % 2 and u % p != 1:
                    at[1] *= _legendre(u, p)
        elif two:
            evens.setdefault(e, [0, 0])[kind != "h"] += k
        else:
            raise ValueError(f"block {(kind, e, u)} at p = {p}: odd primes have unit blocks only")
    out: list[Block] = []
    if not two:
        for e in sorted(units):
            count, cls = units[e]
            out += [("u", e, 1)] * (count - 1)
            out.append(("u", e, 1 if cls == 1 else _nonresidue(p)))
        return tuple(out)
    scales = units.keys() | evens.keys()
    for e in range(min(scales), max(scales) + 2) if scales else ():
        at = units.get(e)
        if at:
            us, h, y = _fold_units(tuple(at))
            up = evens.setdefault(e + 1, [0, 0])
            up[0] += h
            up[1] += y
            out += [("u", e, u) for u in us]
        h, y = evens.get(e, (0, 0))
        out += [("h", e, 0)] * (h + y - y % 2)
        if y % 2:
            out.append(("y", e, 0))
    return tuple(out)


def jordan_decompose(mat, p: int) -> tuple[Block, ...]:
    """Jordan block list of a nondegenerate half-integral matrix over Z_p.

    Elimination over nonzero entries only: rows[i] maps j to b_ij != 0 (at
    (i, j) and (j, i)), and keys[i, j] (i <= j) is its pivot key: weighted
    valuation v(b_ij) + [p == 2 and i != j], then diagonal first at odd p
    and pair first at p = 2, then the indices.  The least key is the pivot:
    a diagonal unit, or else the 2x2 block on (i, j).  2-adic splittings
    are not unique, so the order is part of the output."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("the matrix is not square")
    two = p == 2
    rows: list[dict[int, Fraction]] = [{} for _ in range(n)]
    keys: dict[tuple[int, int], tuple[int, bool, int, int]] = {}

    def put(i, j, x):
        if x:
            rows[i][j] = rows[j][i] = x
            keys[i, j] = (_split(x, p)[0] + (two and i != j), (i == j) == two, i, j)
        else:
            del rows[i][j], keys[i, j]
            rows[j].pop(i, None)

    for i, row in enumerate(mat):
        # each nonzero entry against its mirror: that covers zero entries too
        for j in compress(range(n), row):
            x = row[j]
            if x != mat[j][i]:
                raise ValueError("the matrix is not symmetric")
            if j >= i:
                put(i, j, x if isinstance(x, Fraction) else Fraction(x))
                if keys[i, j][0] < 0:
                    raise ValueError(f"entry {x} at ({i}, {j}) is not {p}-half-integral")

    raw: list[Block] = []
    while keys:
        e, _, i, j = min(keys.values())
        ri, rj = rows[i], rows[j]
        if i == j:
            # the unit's residue num * den: exact mod 8 at p = 2, and with
            # the unit's Legendre symbol at odd p, which is all merging reads
            b = ri[i]
            raw.append(("u", e, _split(b, p)[1] % (8 if two else p)))
            coef = {l: (x / b,) for l, x in ri.items() if l != i}
        else:
            # b_ij has the block's least valuation, so v(det) = 2 v(b_ij);
            # the determinant's class tells H from Y at p = 2, and at odd p
            # the block is two units of scale e with that class
            bii, bjj, bij = ri.get(i, 0), rj.get(j, 0), ri[j]
            det = bii * bjj - bij * bij
            v, w = _split(det, p)
            if v != 2 * (e - two):
                raise ArithmeticError(f"2x2 block of scale {e} has determinant valuation {v}")
            if two and w % 8 not in (3, 7):
                raise ArithmeticError(f"2x2 block of scale {e} has determinant class {w % 8} mod 8")
            raw += [("h" if w % 8 == 7 else "y", e, 0)] if two else [("u", e, 1), ("u", e, w % p)]
            coef = {}
            for l in (ri.keys() | rj.keys()) - {i, j}:
                bil, bjl = ri.get(l, 0), rj.get(l, 0)
                coef[l] = ((bjj * bil - bij * bjl) / det, (bii * bjl - bij * bil) / det)
        # Schur complement of the pivot rows; coef[l] lists the entries of
        # M^-1 b_(piv, l), M the pivot block, for each l they touch
        piv = (i,) if i == j else (i, j)
        cols = [rows[q] for q in piv]
        for q, col in zip(piv, cols):
            for k in col:
                keys.pop((q, k) if q < k else (k, q), None)
                if k not in piv:
                    del rows[k][q]
            rows[q] = {}
        hit = sorted(coef)
        for a, k in enumerate(hit):
            bk = [col.get(k) for col in cols]
            rk = rows[k]
            for l in hit[a:]:
                t = 0
                for x, y in zip(bk, coef[l]):
                    if x and y:
                        t += x * y
                if t:
                    put(k, l, rk.get(l, 0) - t)
    if len(raw) + sum(kind != "u" for kind, _, _ in raw) < n:
        raise ValueError("the matrix is degenerate")
    return merge_blocks([(b, 1) for b in raw], p)


def block_matrix(blocks, p: int = 2) -> Matrix:
    """Reassemble a block list into a concrete half-integral matrix."""
    half = Fraction(1, 2)
    pieces = []
    for kind, e, u in blocks:
        s = Fraction(p) ** e
        if kind == "u":
            pieces.append(((s * u,),))
        elif kind == "h":
            pieces.append(((0, s * half), (s * half, 0)))
        else:
            pieces.append(((s, s * half), (s * half, s)))
    n = sum(len(piece) for piece in pieces)
    out = [[Fraction(0)] * n for _ in range(n)]
    at = 0
    for piece in pieces:
        k = len(piece)
        for i in range(k):
            for j in range(k):
                out[at + i][at + j] = Fraction(piece[i][j])
        at += k
    return tuple(tuple(row) for row in out)


# ---------------------------------------------------------------------------
# Invariants of a block list


class LocalInvariants(NamedTuple):
    n: int
    det: Fraction
    d: int          # valuation of 2^(2*floor(n/2)) * det
    i: int | None   # least t with p^t B^(-1) half-integral; None for rank 0
    delta: int
    xi: int
    xi_prime: int
    eta: int        # only meaningful for odd n (1 otherwise)


def _diag_pairs(blocks):
    """(scale, unit) pairs of a Q_p-diagonalization: H = <1, -1> and
    Y = <1, 3> at their scale."""
    for kind, e, u in blocks:
        if kind == "u":
            yield e, u
        else:
            yield e, 1
            yield e, -1 if kind == "h" else 3


def _diag_over_qp(blocks, p: int) -> list[Fraction]:
    """The same diagonalization as rationals."""
    return [Fraction(p) ** e * u for e, u in _diag_pairs(blocks)]


@lru_cache(maxsize=None)
def local_invariants(blocks: tuple[Block, ...], p: int) -> LocalInvariants:
    # det(B) = p^v * unit, with the unit an integer prime to p
    n = v = 0
    unit = 1
    i = None  # the largest block i so far: e for a unit, e - 2 for H or Y
    for kind, e, u in blocks:
        if kind == "u":
            n, v, unit = n + 1, v + e, unit * u
        else:
            n, v, e = n + 2, v + 2 * e - 2, e - 2
            unit *= -1 if kind == "h" else 3
        if i is None or e > i:
            i = e
    d = v + 2 * (n // 2) if p == 2 else v
    if d < 0:
        raise ValueError(f"blocks {blocks} at p = {p} are not those of a half-integral matrix")
    delta = d if n % 2 else 2 * ((d + (p != 2)) // 2)
    xi = eta = 1
    if n % 2 == 0:
        xi = _chi(v, (-1) ** (n // 2) * unit, p)
    else:
        # prod_{i<=j} (a_i, a_j)_p (diagonal terms included) times
        # (det, (-1)^((n-1)/2) det)_p, folded by bilinearity
        eta = _hasse(Counter(_diag_pairs(blocks)), p)
        eta *= _hilbert(v, unit, v, (-1) ** ((n + 1) // 2) * unit, p)
        eta *= _hilbert(0, -1, 0, -1, p) ** ((n * n - 1) // 8 % 2)
    xi_prime = 1 + xi - xi * xi
    det = Fraction(unit * p**v) if v >= 0 else Fraction(unit, p**-v)
    return LocalInvariants(n, det, d, i, delta, xi, xi_prime, eta)


def with_unit(blocks: tuple[Block, ...], scale: int, p: int, residue: int = 1) -> tuple[Block, ...]:
    """Formally adjoin a scaled unit block (no re-canonicalization needed:
    invariants are well defined for any block list)."""
    return tuple(sorted(blocks + (("u", scale, residue),), key=lambda t: (t[1], t[0])))
