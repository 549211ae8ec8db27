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
from dataclasses import dataclass
from fractions import Fraction
from functools import lru_cache

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


def hasse_invariant(diag, p: int | None) -> int:
    """Hasse invariant prod_{i<j} (a_i, a_j)_p of a diagonalized form.

    Grouped by distinct entries: with k_a copies of a, the product is
    prod_a (a, a)^C(k_a, 2) * prod_{a<b} (a, b)^(k_a k_b), so only entries
    and pairs with an odd exponent are evaluated, each once, on the
    integer pairs of _split.  At the real place (a, b) = -1 only for two
    negatives, so the invariant is -1 exactly when C(#negatives, 2) is odd.
    """
    if p is None:
        neg = sum(1 for a in diag if a < 0)
        return -1 if neg * (neg - 1) // 2 % 2 else 1
    groups = [(_split(a, p), k) for a, k in Counter(diag).items()]
    h = 1
    for t, (x, k) in enumerate(groups):
        if k * (k - 1) // 2 % 2:
            h *= _hilbert(*x, *x, p)
        if k % 2:
            for y, l in groups[t + 1:]:
                if l % 2:
                    h *= _hilbert(*x, *y, p)
    return h


def chi_p(x: Fraction | int, p: int) -> int:
    """1, -1, 0 as x is a square unit times p^even, the nonsquare unit class
    of the unramified extension, or neither."""
    v, w = _split(x, p)
    if v % 2:
        return 0
    if p == 2:
        return {1: 1, 5: -1, 3: 0, 7: 0}[w % 8]
    return _legendre(w, p)


# ---------------------------------------------------------------------------
# Jordan decomposition


def _check_half_integral(b: list[list[Fraction]], p: int) -> None:
    n = len(b)
    for i in range(n):
        if b[i][i] and valuation(b[i][i], p) < 0:
            raise ValueError(f"diagonal entry {b[i][i]} is not {p}-integral")
        for j in range(i + 1, n):
            if b[i][j] != b[j][i]:
                raise ValueError("the matrix is not symmetric")
            if b[i][j] and valuation(b[i][j], p) < (-1 if p == 2 else 0):
                raise ValueError(f"off-diagonal entry {b[i][j]} is not {p}-half-integral")


def _min_valuations(b, active, p):
    """Weighted valuations: nu(i,i) = v(b_ii), nu(i,j) = v(b_ij) + [p == 2]."""
    off_w = 1 if p == 2 else 0
    best, best_diag, best_off = None, None, None
    for ai, i in enumerate(active):
        if b[i][i]:
            v = valuation(b[i][i], p)
            if best is None or v < best:
                best, best_diag, best_off = v, i, None
            elif v == best and best_diag is None:
                best_diag = i
        for j in active[ai + 1:]:
            if b[i][j]:
                v = valuation(b[i][j], p) + off_w
                if best is None or v < best:
                    best, best_diag, best_off = v, None, (i, j)
                elif v == best and best_off is None:
                    best_off = (i, j)
    if best is None:
        raise ValueError("the matrix is degenerate")
    return best, best_diag, best_off


def _eliminate_rank1(b, active, i):
    """Split off the pivot b_ii.  Only rows and columns where the pivot row
    is nonzero change; everywhere else the update would subtract 0."""
    pivot = b[i][i]
    rest = [k for k in active if k != i]
    hit = [k for k in rest if b[i][k]]
    for k in hit:
        c = b[i][k] / pivot
        for l in hit:
            b[k][l] -= c * b[i][l]
    return rest


def _eliminate_rank2(b, active, i, j):
    """Split off the 2x2 pivot on rows i, j; as in _eliminate_rank1, only
    rows and columns where a pivot row is nonzero change."""
    det = b[i][i] * b[j][j] - b[i][j] ** 2
    rest = [k for k in active if k not in (i, j)]
    hit = [k for k in rest if b[i][k] or b[j][k]]
    coef = {}
    for k in hit:
        c1 = (b[j][j] * b[i][k] - b[i][j] * b[j][k]) / det
        c2 = (b[i][i] * b[j][k] - b[i][j] * b[i][k]) / det
        coef[k] = (c1, c2)
    for k in hit:
        for l in hit:
            c1, c2 = coef[l]
            b[k][l] -= b[i][k] * c1 + b[j][k] * c2
    return rest


def _merge_units_odd(blocks: list[Block], p: int) -> list[Block]:
    """Per scale, <1,...,1,cls> with cls the determinant class."""
    qnr = next(r for r in range(2, p) if _legendre(r, p) == -1)
    by_scale: dict[int, list[int]] = {}
    for kind, e, u in blocks:
        if kind != "u":
            raise ValueError(f"block {(kind, e, u)} at p = {p}: odd primes have unit blocks only")
        by_scale.setdefault(e, []).append(u)
    out: list[Block] = []
    for e in sorted(by_scale):
        units = by_scale[e]
        cls = 1
        for u in units:
            cls *= _legendre(u, p)
        out.extend(("u", e, 1) for _ in range(len(units) - 1))
        out.append(("u", e, 1 if cls == 1 else qnr))
    return out


def _canonicalize_2(blocks: list[Block]) -> list[Block]:
    """Reduce to at most two odd units and one Y per scale.

    Uses the equivalences Y + Y = H + H and, for three units at one scale,
    <a, b, c> = <a+b+c> + K at the next scale, where K is H or Y according
    as abc(a+b+c) is 7 or 3 mod 8 (the complement of a splitting vector is
    an even binary form of determinant class abc(a+b+c) one scale up).
    """
    units: dict[int, list[int]] = {}
    evens: dict[int, list[int]] = {}  # scale -> [h_count, y_count]
    for kind, e, u in blocks:
        if kind == "u":
            units.setdefault(e, []).append(u % 8)
        else:
            evens.setdefault(e, [0, 0])[0 if kind == "h" else 1] += 1
    if not units and not evens:
        return []
    e = min(list(units) + list(evens))
    while units or evens:
        top = max(list(units) + list(evens))
        if e > top:
            break
        us = sorted(units.get(e, []))
        while len(us) >= 3:
            a, b, c = us[:3]
            s = (a + b + c) % 8
            t = (a * b * c * s) % 8
            if t not in (3, 7):
                raise ArithmeticError(f"units {a}, {b}, {c} of scale {e} leave no even binary form")
            evens.setdefault(e + 1, [0, 0])[0 if t == 7 else 1] += 1
            us = sorted([s] + us[3:])
        if us:
            units[e] = us
        elif e in units:
            del units[e]
        if e in evens:
            h, y = evens[e]
            h += 2 * (y // 2)
            y %= 2
            evens[e] = [h, y]
        e += 1
    out: list[Block] = []
    for e in sorted(set(units) | set(evens)):
        out.extend(("u", e, u) for u in sorted(units.get(e, [])))
        h, y = evens.get(e, (0, 0))
        out.extend(("h", e, 0) for _ in range(h))
        out.extend(("y", e, 0) for _ in range(y))
    return out


def merge_blocks(parts, p: int) -> tuple[Block, ...]:
    """Canonical block list of a direct sum given the summands' blocks."""
    flat = [blk for part in parts for blk in part]
    if p == 2:
        return tuple(_canonicalize_2(flat))
    return tuple(_merge_units_odd(flat, p))


def jordan_decompose(mat, p: int) -> tuple[Block, ...]:
    """Jordan block list of a nondegenerate half-integral matrix over Z_p."""
    n = len(mat)
    b = [[Fraction(mat[i][j]) for j in range(n)] for i in range(n)]
    _check_half_integral(b, p)
    active = list(range(n))
    raw: list[Block] = []
    while active:
        vmin, diag, off = _min_valuations(b, active, p)
        if p == 2 and off is not None:
            # an even 2x2 block; scale from the weighted minimum
            i, j = off
            e = vmin
            v, w = _split(b[i][i] * b[j][j] - b[i][j] ** 2, 2)
            if v != 2 * e - 2:
                raise ArithmeticError(f"2x2 block of scale {e} has determinant valuation {v}")
            r = w % 8
            if r not in (3, 7):
                raise ArithmeticError(f"2x2 block of scale {e} has determinant class {r} mod 8")
            raw.append(("h" if r == 7 else "y", e, 0))
            active = _eliminate_rank2(b, active, i, j)
            continue
        if diag is None:
            # odd p: make a diagonal entry of minimal valuation (no
            # cancellation: the off-diagonal term is the unique minimum)
            i, j = off
            for k in range(n):
                b[i][k] += b[j][k]
            for k in range(n):
                b[k][i] += b[k][j]
            diag = i
        # the unit's residue num * den: exact mod 8 at p = 2, and with the
        # unit's Legendre symbol at odd p, which is all merging reads
        e, w = _split(b[diag][diag], p)
        raw.append(("u", e, w % (8 if p == 2 else p)))
        active = _eliminate_rank1(b, active, diag)
    return merge_blocks([raw], p)


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


@dataclass(frozen=True)
class LocalInvariants:
    n: int
    det: Fraction
    d: int          # valuation of 2^(2*floor(n/2)) * det
    i: int | None   # least t with p^t B^(-1) half-integral; None for rank 0
    delta: int
    xi: int
    xi_prime: int
    eta: int        # only meaningful for odd n (1 otherwise)


def _diag_over_qp(blocks, p: int) -> list[Fraction]:
    """A Q_p-diagonalization: H = <1, -1>, Y = <1, 3> at their scale."""
    diag = []
    for kind, e, u in blocks:
        s = Fraction(p) ** e
        if kind == "u":
            diag.append(s * u)
        elif kind == "h":
            diag.extend((s, -s))
        else:
            diag.extend((s, 3 * s))
    return diag


@lru_cache(maxsize=None)
def local_invariants(blocks: tuple[Block, ...], p: int) -> LocalInvariants:
    n = sum(1 if k == "u" else 2 for k, _, _ in blocks)
    det = Fraction(1)
    dv = 0
    iv: int | None = None
    for kind, e, u in blocks:
        if kind == "u":
            det *= Fraction(p) ** e * u
            dv += e
            cand = e
        else:
            det *= (-1 if kind == "h" else 3) * Fraction(2) ** (2 * e - 2)
            dv += 2 * e - 2
            cand = e - 2
        iv = cand if iv is None else max(iv, cand)
    if p == 2:
        dv += 2 * (n // 2)
    d = dv
    if d < 0:
        raise ValueError(f"blocks {blocks} at p = {p} are not those of a half-integral matrix")
    if n % 2:
        delta = d
    else:
        delta = 2 * ((d + 1 - (1 if p == 2 else 0)) // 2)
    if n == 0:
        return LocalInvariants(0, Fraction(1), 0, None, 0, 1, 1, 1)
    if n % 2 == 0:
        xi = chi_p(Fraction((-1) ** (n // 2)) * det, p)
        eta = 1
    else:
        xi = 1
        # prod_{i<=j} (a_i, a_j)_p (diagonal terms included) times
        # (det, (-1)^((n-1)/2) det)_p, folded by bilinearity
        eta = hasse_invariant(_diag_over_qp(blocks, p), p)
        eta *= hilbert_symbol(det, Fraction((-1) ** ((n + 1) // 2)) * det, p)
        eta *= hilbert_symbol(-1, -1, p) ** ((n * n - 1) // 8 % 2)
    xi_prime = 1 + xi - xi * xi
    return LocalInvariants(n, det, d, iv, delta, xi, xi_prime, eta)


def with_unit(blocks: tuple[Block, ...], scale: int, p: int, residue: int = 1) -> tuple[Block, ...]:
    """Formally adjoin a scaled unit block (no re-canonicalization needed:
    invariants are well defined for any block list)."""
    return tuple(sorted(blocks + (("u", scale, residue),), key=lambda t: (t[1], t[0])))
