"""Siegel series and exact Fourier coefficients of Siegel Eisenstein series.

For a positive definite half-integral matrix B of rank n the local factor
F_p(B; X) is a polynomial with integer coefficients and constant term 1,
of degree at most d = ord_p of the discriminant of B.  We build it by
Katsurada's recursion, peeling Jordan blocks of largest scale one at a time
(two at a time where the rank-one step does not apply at p = 2); each step
maps the integer coefficient list of the rest to that of the larger block
list.  The Fourier coefficient multiplies the local factors by a rational
normalisation: the Gamma, zeta and L factors of Katsurada's formula, with
zeta and L moved to non-positive integers by their functional equations, so
that the powers of pi cancel in the derivation rather than at run time.

The Jordan blocks of a root system are merged from those of its components,
and a component's blocks follow in closed form from its determinant and
discriminant group at every prime.  At p = 2 the 2-part of the discriminant
group gives the constituents of the Gram matrix that are not unimodular,
and the rest is the even unimodular form read off the determinant class
mod 8.  padic's elimination serves only the arbitrary Gram matrices of
coefficient_for_gram.
"""

from __future__ import annotations

import math
from collections import Counter
from fractions import Fraction
from functools import lru_cache

from .exact import det, factorize, fundamental_discriminant, l_value, zeta_value
from .padic import jordan_decompose, local_invariants, merge_blocks, valuation, with_unit
from .roots import RootSystem, _component_determinant, component_gram


def _sgn(t: int) -> int:
    return -1 if t % 2 else 1


def _without(blocks, peeled):
    out = list(blocks)
    for b in peeled:
        out.remove(b)
    return tuple(out)


def _step(rest, q, a, b, e, s, t, g, k):
    """F(X) = [(1 - aX) R(qX) + c X^e (1 - bX) R(X)] / (1 - g X^k) with
    c = s q^t, on integer coefficient lists in nondecreasing degree order."""
    if e < 0 or t < 0:
        raise ArithmeticError(f"negative exponent in a Siegel series step: {e}, {t}")
    c = s * q**t
    num = [0] * (len(rest) + e + 1)
    for i, r in enumerate(rest):
        rq = r * q**i
        num[i] += rq
        num[i + 1] -= a * rq
        num[i + e] += c * r
        num[i + e + 1] -= c * b * r
    out = []
    for i, v in enumerate(num):
        out.append(v + g * out[i - k] if i >= k else v)
    # past the end the quotient continues as g * out[i - k]: exact iff these vanish
    if g and any(out[len(out) - k :]):
        raise ArithmeticError("Siegel series step leaves a remainder")
    while len(out) > 1 and out[-1] == 0:
        out.pop()
    return out


def _even_step(rest, n, q, xi, xi_prime, eta, delta, delta_r):
    """Katsurada's recursion step (Amer. J. Math. 121, 1999) from even rank
    n, applied to the polynomial of the rank n - 1 rest with invariant
    delta_r."""
    h = n // 2
    e = delta - delta_r + xi * xi
    s = _sgn(xi + 1) * xi_prime * eta
    return _step(rest, q, q**h * xi, q ** (h + 1) * xi, e, s, h * e + delta // 2, q ** (n + 1), 2)


def _odd_step(rest, n, q, xi, xi_prime, eta, delta, delta_r):
    """The same step from odd rank n; here xi and xi_prime belong to the
    rank n - 1 side."""
    e = delta - delta_r + 2 - xi * xi
    s = _sgn(xi) * xi_prime * eta
    t = (n - 1) // 2 * e + (2 * delta - delta_r + 2) // 2
    return _step(rest, q, 0, 0, e, s, t, q ** ((n + 1) // 2) * xi, 1)


def _peel_rank1(blocks, p, b1, rest):
    inv_b = local_invariants(blocks, p)
    inv_r = local_invariants(rest, p)
    if inv_r.i is not None and b1[1] < inv_r.i - 1 + (2 if p == 2 else 0):
        raise ArithmeticError(f"block {b1} lies below the scale of the rest {rest} at p = {p}")
    n = inv_b.n
    r = f_polynomial(rest, p)
    if n % 2 == 0:
        return _even_step(r, n, p, inv_b.xi, inv_b.xi_prime, inv_r.eta, inv_b.delta, inv_r.delta)
    return _odd_step(r, n, p, inv_r.xi, inv_r.xi_prime, inv_b.eta, inv_b.delta, inv_r.delta)


def _peel_rank2(blocks, peeled, rest):
    """Remove a unit pair or an even 2x2 block of top scale m at p = 2: a
    rank-(n - 1) step to an intermediate whose invariant dmid comes from
    rest plus a unit at m, then a rank-n step."""
    m = peeled[0][1]
    inv_b = local_invariants(blocks, 2)
    inv_r = local_invariants(rest, 2)
    if inv_r.i is not None and m < inv_r.i + 1:
        raise ArithmeticError(f"blocks {peeled} lie below the scale of the rest {rest} at p = 2")
    inv_t = local_invariants(with_unit(rest, m, 2), 2)
    n = inv_b.n
    pair = peeled[0][0] == "u"
    r = f_polynomial(rest, 2)
    if n % 2 == 0:
        xih = inv_r.xi
        if (pair and inv_r.d % 2 == 1) or (not pair and xih == 0):
            sigma = (2 * inv_t.delta - inv_b.delta - inv_r.delta + 2) // 2
        else:
            sigma = 0
        if pair and inv_r.d % 2 == 0:
            eta_t = local_invariants(with_unit(rest, m, 2, peeled[1][2]), 2).eta
        elif not pair and xih != 0:
            eta_t = inv_t.eta
        else:
            eta_t = 1
        dmid = inv_t.delta - sigma
        mid = _odd_step(r, n - 1, 2, xih, inv_r.xi_prime, eta_t, dmid, inv_r.delta)
        return _even_step(mid, n, 2, inv_b.xi, inv_b.xi_prime, eta_t, inv_b.delta, dmid)
    xit = 1 if not pair and inv_t.d % 2 == 0 else 0
    dmid = inv_t.delta - 2 * xit
    mid = _even_step(r, n - 1, 2, xit, 1, inv_r.eta, dmid, inv_r.delta)
    return _odd_step(mid, n, 2, xit, 1, inv_b.eta, inv_b.delta, dmid)


@lru_cache(maxsize=None)
def f_polynomial(blocks, p: int) -> tuple[int, ...]:
    """Coefficients of F_p(B; X), nondecreasing degree order."""
    d = local_invariants(blocks, p).d
    if d == 0:
        return (1,)
    top = max(b[1] for b in blocks)
    if p != 2:
        b1 = blocks[-1]
        if b1[1] != top:
            raise ArithmeticError(f"last block of {blocks} is not of top scale {top} at p = {p}")
        out = _peel_rank1(blocks, p, b1, blocks[:-1])
    else:
        units = [b for b in blocks if b[1] == top and b[0] == "u"]
        if len(units) > 2:
            raise ArithmeticError(f"{blocks} has {len(units)} units of scale {top}, not canonical")
        if len(units) == 2:
            peeled = tuple(units)
            out = _peel_rank2(blocks, peeled, _without(blocks, peeled))
        elif len(units) == 1:
            out = _peel_rank1(blocks, 2, units[0], _without(blocks, units))
        else:
            evens = [b for b in blocks if b[1] == top and b[0] == "h"]
            evens = evens or [b for b in blocks if b[1] == top]
            peeled = (evens[0],)
            out = _peel_rank2(blocks, peeled, _without(blocks, peeled))
    if len(out) > d + 1 or out[0] != 1:
        raise ArithmeticError(f"F_{p}(B; X) = {out} for {blocks}: want degree <= {d}, constant 1")
    return tuple(out)


def f_value(blocks, p: int, x) -> Fraction:
    """F_p(B; x) by Horner's rule on f_polynomial, in integers: at x = a/b
    it sums c_i a^i b^(d - i) and divides by b^d once."""
    a, b = x.numerator, x.denominator
    poly = f_polynomial(tuple(blocks), p)
    acc, scale = poly[-1], 1
    for c in reversed(poly[:-1]):
        scale *= b
        acc = acc * a + c * scale
    return Fraction(acc, scale)


# ---------------------------------------------------------------------------
# Block lists for root lattices
#
# The Jordan form of B = G/2 for a component of rank r and Gram determinant
# D (n + 1 for A_n, 4 for D_n, 3, 2, 1 for E6, E7, E8) needs no elimination
# at any prime; it follows from D and the discriminant group G*/G
# (Conway-Sloane, SPLAG ch. 4).
#
# At odd p, det B = D / 2^r, and 2 is a unit.  If p does not divide D,
# B is unimodular, and a unimodular Z_p-lattice is fixed by its rank and
# determinant class (O'Meara 92:2): r - 1 units 1 and one of class D 2^r.
# p divides D only for A_n with p | n + 1 and for E6 at p = 3.  With
# v = v_p(D), the p-part of the discriminant group is cyclic of order p^v,
# so B is r - 1 units of scale 0 plus one unit <p^v q>.  That block is
# <2 p^v q> of G, whose dual generator has norm 1/(2 p^v q); the generator
# of the p-part has norm ((n + 1)/p^v)^2 n/(n + 1) for A_n and 4/3 for E6.
# Matching square classes gives q = 2 n (n + 1)/p^v for A_n and q = 2 for
# E6, and the scale-0 units have product class (D/p^v) 2^r q.
#
# At p = 2, G is even, and the 2-part of its discriminant group fixes the
# constituents of G of scale 2^(e+1) >= 2, which are B-blocks of scale 2^e.
# A_n for odd n, with n + 1 = 2^v m and m odd, has a cyclic 2-part of order
# 2^v whose generator has norm m n / 2^v mod 2: G has <2^v m n>, B has
# <2^(v-1) m n>.  D_n for odd n has a cyclic part of order 4, generator
# norm n/4: B has <2 n>.  For even n it is (Z/2)^2, the vector class of
# norm 1 and two spinor classes of norm n/4, so G has 2H (n = 0 mod 8),
# 2Y (n = 4), 2<3, 7> (n = 6) or 2<1, 1> = 2<5, 5> (n = 2).  E7 has Z/2 of
# norm 3/2: G has <2 7>.  Where the discriminant form fixes a unit only mod
# 4, or up to <1, 1> = <5, 5>, the residue written is the one elimination
# picks (<5, 5> for D_n at n = 10 mod 16), which the recorded block digest
# pins.  The rest of G is even unimodular, of rank r minus the 2-part's,
# with determinant class D over the 2-part's: the odd part of D times the
# 2-part's classes mod 8 (u^2 = 1 mod 8 for odd u; H and Y have classes
# -1 and 3).  Over Z_2 that form is E(r, w): H^(r/2) for w = (-1)^(r/2),
# H^(r/2 - 1) Y for w = -3 (-1)^(r/2) mod 8, and no other class occurs.
# merge_blocks makes every list canonical.


def _two_part(kind: str, rank: int) -> list:
    """B-blocks of a component at p = 2 from the 2-part of its
    discriminant group: those of scale above 1 in G."""
    if kind == "A":
        if rank % 2 == 0:
            return []
        v = valuation(rank + 1, 2)
        return [("u", v - 1, ((rank + 1) >> v) * rank % 8)]
    if kind == "D":
        if rank % 2:
            return [("u", 1, rank % 8)]
        if rank % 4 == 0:
            return [("h" if rank % 8 == 0 else "y", 1, 0)]
        units = (3, 7) if rank % 8 == 6 else (5, 5) if rank % 16 == 10 else (1, 1)
        return [("u", 0, u) for u in units]
    return [("u", 0, 7)] if rank == 7 else []


def _even_unimodular(rank: int, w: int) -> list:
    """E(rank, w), the even unimodular Z_2-form of determinant class w mod
    8, as B-blocks of scale 0: H^(rank/2), or one H traded for a Y."""
    h, w = rank // 2, w % 8
    if rank % 2 == 0 and w == (-1) ** h % 8:
        return [("h", 0, 0)] * h
    if rank % 2 == 0 and h and w == -3 * (-1) ** h % 8:
        return [("h", 0, 0)] * (h - 1) + [("y", 0, 0)]
    raise ArithmeticError(f"no even unimodular 2-adic form of rank {rank} and class {w} mod 8")


@lru_cache(maxsize=None)
def component_blocks(kind: str, rank: int, p: int):
    """Jordan blocks of half the Gram matrix of one component at p, in
    closed form from its determinant and discriminant group."""
    component_gram(kind, rank)  # raises ValueError for a (kind, rank) with no diagram
    d = _component_determinant(kind, rank)
    if p == 2:
        blocks = _two_part(kind, rank)
        w = d >> valuation(d, 2)
        size = 0
        for b_kind, _, u in blocks:
            w *= u if b_kind == "u" else -1 if b_kind == "h" else 3
            size += 1 if b_kind == "u" else 2
        return merge_blocks([(b, 1) for b in blocks + _even_unimodular(rank - size, w)], 2)
    v = valuation(d, p)
    if not v:
        units = [("u", 0, 1)] * (rank - 1) + [("u", 0, d * pow(2, rank, p) % p)]
    else:
        q = 2 * rank * d // p**v if kind == "A" else 2
        cls = d // p**v * pow(2, rank, p) * q % p
        units = [("u", 0, 1)] * (rank - 2) + [("u", 0, cls), ("u", v, q % p)]
    return merge_blocks([(b, 1) for b in units], p)


@lru_cache(maxsize=None)
def _counted_blocks(kind: str, rank: int, p: int):
    """component_blocks as (block, count) pairs: a component has few
    distinct blocks, most of them repeated units or H's."""
    return tuple(Counter(component_blocks(kind, rank, p)).items())


def system_blocks(rs: RootSystem, p: int):
    """Jordan blocks of half the Gram matrix of a root system at p: one
    merge of each component type's counted blocks times its multiplicity."""
    return merge_blocks(
        [(b, k * mult) for kind, rank, mult in rs.components for b, k in _counted_blocks(kind, rank, p)], p
    )


# ---------------------------------------------------------------------------
# Global coefficients
#
# At B of rank n, weight k = dim / 2, h = n // 2 and s = k - h, Katsurada's
# formula is
#     a(B) = (-1)^(nk/2) 2^(nk - n(n-1)/2) det(B)^((2k-n-1)/2)
#            prod_{i=2k-n+1..2k} pi^(i/2) / Gamma(i/2)
#            / (zeta(k) prod_{i=1..h} zeta(2k-2i))
#            prod_p F_p(B; p^-k)  [times L(s, chi_B) for even n],
# halved at n >= 2k - 1.  Legendre duplication turns the Gamma product into
# prod_{j=s+1..k} 2^(2j-2) pi^(2j-1) / (2j-2)!, times pi^s / (s-1)! for odd n.
# The functional equations give, for m, s >= 1,
#     zeta(2m) = (-1)^m 2^(2m-1) pi^(2m) zeta(1-2m) / (2m-1)!,
#     L(s, chi) = (-1)^((s-d)/2) 2^(s-1) pi^s f^(1/2-s) L(1-s, chi) / (s-1)!,
# with d = 1 for odd chi, else 0, and f the conductor; zeta(0) = -1/2 and
# L(0, chi) (at n = 2k) are rational as they stand.  The powers of pi then
# cancel.  For odd n, det(B) has the integer exponent s - 1; for even n, with
# the discriminant D = (-1)^h 4^h det B, the square roots meet in
# det(B)^(s-1/2) f^(1/2-s) = (|D|/f)^(s-1/2) / 2^(h(2s-1)), where |D|/f is a
# square.


@lru_cache(maxsize=None)
def _norm(n: int, k: int) -> Fraction:
    """The factors of the coefficient at rank n and even weight k that
    depend on nothing else, without their powers of pi."""
    h, s = n // 2, k - n // 2
    out = Fraction(_sgn(n * k // 2) * 2 ** (n * k - n * (n - 1) // 2))
    for j in range(s + 1, k + 1):
        out *= Fraction(2 ** (2 * j - 2), math.factorial(2 * j - 2))
    if n % 2:
        out /= math.factorial(s - 1)
    else:
        out /= Fraction(2) ** (h * (2 * s - 1))
    for t in (k, *range(2 * s, 2 * k, 2)):
        if t:
            out /= _sgn(t // 2) * Fraction(2 ** (t - 1), math.factorial(t - 1)) * zeta_value(1 - t)
        else:
            out /= zeta_value(0)
    if n >= 2 * k - 1:
        out /= 2
    return out


@lru_cache(maxsize=None)
def _l_norm(s: int, disc: int) -> Fraction:
    """L(s, chi) |disc|^(s-1/2) / pi^s for the character chi of
    Q(sqrt(disc)), named by its fundamental discriminant, from L(1 - s, chi)
    when s >= 1."""
    chi = fundamental_discriminant(disc)
    f = abs(chi)
    q = math.isqrt(abs(disc) // f)
    if q * q * f != abs(disc):
        raise ArithmeticError(f"|{disc}| is not a square times the conductor {f}")
    if s == 0:
        value = l_value(0, chi)
        root = math.isqrt(f)
        if value and root * root != f:
            raise ArithmeticError(f"L(0, chi) = {value} times |{disc}|^(-1/2) is not rational")
        return value / (q * root)
    d = 1 if chi < 0 else 0
    if (s - d) % 2:
        raise ValueError(f"L({s}, chi) with chi of discriminant {chi}: parity mismatch")
    value = l_value(1 - s, chi)
    num = _sgn((s - d) // 2) * 2 ** (s - 1) * q ** (2 * s - 1) * value.numerator
    return Fraction(num, math.factorial(s - 1) * value.denominator)


def _coefficient(n: int, dim: int, det_num: int, det_den: int, blocks_at) -> Fraction:
    """Coefficient at a half-integral B of rank n and determinant
    det_num / det_den; blocks_at(p) gives the Jordan blocks of B at p.

    The factors are multiplied as one integer numerator and denominator
    over the integer discriminant 4^(n//2) det B, and reduced once."""
    if dim % 2:
        raise ValueError(f"dim must be even, got {dim}")
    if dim <= 0:
        raise ValueError(f"dim must be positive, got {dim}")
    if n > dim:
        raise ValueError(f"rank {n} exceeds dim {dim}")
    k = dim // 2
    if k % 2:
        raise ValueError(f"weight dim / 2 = {k} is odd")
    if n == 0:
        return Fraction(1)
    h = n // 2
    disc, rest = divmod(det_num << 2 * h, det_den)
    if rest:
        raise ValueError(f"det {Fraction(det_num, det_den)} is not that of a half-integral matrix of rank {n}")
    norm = _norm(n, k)
    num, den = norm.numerator, norm.denominator
    if n % 2:
        # det B^(s - 1) with det B = disc / 4^h and s = k - h
        num *= disc ** (k - h - 1)
        den <<= 2 * h * (k - h - 1)
    else:
        value = _l_norm(k - h, _sgn(h) * disc)
        num *= value.numerator
        den *= value.denominator
    for p in sorted({2, *factorize(disc)}):
        blocks = blocks_at(p)
        if local_invariants(blocks, p).d:
            value = f_value(blocks, p, Fraction(1, p**k))
            num *= value.numerator
            den *= value.denominator
    return Fraction(num, den)


def eisenstein_coefficient(rs: RootSystem, dim: int) -> Fraction:
    """Fourier coefficient of the weight dim/2 Siegel Eisenstein series at
    half the Gram matrix of the given root system."""
    if any(kind == "Z" for kind, _, _ in rs.components):
        raise ValueError(f"{rs} has a Z component, which has no roots")
    n = rs.rank
    return _coefficient(n, dim, rs.det, 1 << n, lambda p: system_blocks(rs, p))


def coefficient_for_gram(gram, dim: int) -> Fraction:
    """Same coefficient for an arbitrary even positive definite Gram matrix;
    `det` raises ValueError for one that is not positive definite."""
    half = tuple(tuple(Fraction(v, 2) for v in row) for row in gram)
    d = det(half)
    return _coefficient(len(gram), dim, d.numerator, d.denominator, lambda p: jordan_decompose(half, p))


def scalar_coefficient(m: int, dim: int) -> Fraction:
    """Coefficient at the 1x1 matrix (m): the average number of vectors of
    norm 2m over the genus, Eisenstein normalised."""
    if m < 1:
        raise ValueError(f"m must be at least 1, got {m}")
    return coefficient_for_gram(((2 * m,),), dim)
