"""Exact rational arithmetic for mass computations.

Bernoulli numbers, factoring, positive definite determinants, the Kronecker
symbol, and the values of the Riemann zeta function and of L(s, chi) at
integers s <= 0, where they are rational.  A real primitive character chi is
given by its fundamental discriminant disc, as chi(m) = kronecker(disc, m)
of conductor |disc|.  Everything downstream (Siegel series, Eisenstein
coefficients, masses) is a Fraction built from these.
"""

from __future__ import annotations

import math
from fractions import Fraction
from functools import lru_cache


# ---------------------------------------------------------------------------
# Bernoulli numbers


@lru_cache(maxsize=None)
def bernoulli(m: int) -> Fraction:
    """Bernoulli number B_m with the convention B_1 = -1/2."""
    if m < 0:
        raise ValueError(f"no Bernoulli number B_{m}")
    if m == 0:
        return Fraction(1)
    if m == 1:
        return Fraction(-1, 2)
    if m % 2:
        return Fraction(0)
    # sum_{j=0}^{m} C(m+1, j) B_j = 0
    acc = Fraction(0)
    for j in range(m):
        acc += math.comb(m + 1, j) * bernoulli(j)
    return -acc / (m + 1)


# ---------------------------------------------------------------------------
# Factoring and determinants (inputs here are smooth: determinants and
# conductors stay tiny, so trial division is plenty)


def factorize(n: int) -> dict[int, int]:
    """Prime factorization {p: e} of n >= 1, primes ascending."""
    if n < 1:
        raise ValueError(f"factorize needs n >= 1, got {n}")
    out: dict[int, int] = {}
    d = 2
    while d * d <= n:
        while n % d == 0:
            n //= d
            out[d] = out.get(d, 0) + 1
        d += 1 if d == 2 else 2
    if n > 1:
        out[n] = 1
    return out


def squarefree_decompose(n: int) -> tuple[int, int]:
    """Return (s, r) with n = s^2 * r and r squarefree, for n >= 1."""
    s, r = 1, 1
    for p, e in factorize(n).items():
        s *= p ** (e // 2)
        r *= p ** (e % 2)
    return s, r


def det(mat) -> Fraction:
    """Determinant of a symmetric positive definite rational matrix.

    Gaussian elimination without row exchanges, so each pivot is the ratio
    of two consecutive leading principal minors, and the matrix is positive
    definite exactly when every pivot is positive (Sylvester).  Raises
    ValueError at the first pivot <= 0; else returns their product."""
    n = len(mat)
    if any(len(row) != n for row in mat):
        raise ValueError("the matrix is not square")
    if any(mat[i][j] != mat[j][i] for i in range(n) for j in range(i)):
        raise ValueError("the matrix is not symmetric")
    a = [[Fraction(x) for x in row] for row in mat]
    out = Fraction(1)
    for c, pivot_row in enumerate(a):
        pivot = pivot_row[c]
        if pivot <= 0:
            raise ValueError(f"the matrix is not positive definite: pivot {pivot} at row {c}")
        out *= pivot
        for row in a[c + 1 :]:
            if row[c]:  # else nothing to clear, and 0 * row still costs n Fraction ops
                f = row[c] / pivot
                row[c:] = [x - f * y for x, y in zip(row[c:], pivot_row[c:])]
    return out


# ---------------------------------------------------------------------------
# Kronecker symbol, fundamental discriminants and real primitive characters


def kronecker_symbol(a: int, n: int) -> int:
    """Kronecker symbol (a/n), defined for all integers."""
    if n == 0:
        return 1 if a in (1, -1) else 0
    sign = 1
    if n < 0:
        n = -n
        if a < 0:
            sign = -1
    t = 0
    while n % 2 == 0:
        n //= 2
        t += 1
    if t:
        if a % 2 == 0:
            return 0
        if t % 2 and a % 8 in (3, 5):
            sign = -sign
    a %= n
    while a:
        while a % 2 == 0:
            a //= 2
            if n % 8 in (3, 5):
                sign = -sign
        a, n = n, a
        if a % 4 == 3 and n % 4 == 3:
            sign = -sign
        a %= n
    return sign if n == 1 else 0


def fundamental_discriminant(d: Fraction | int) -> int:
    """Fundamental discriminant of Q(sqrt(d)); 1 if d is a square."""
    d = Fraction(d)
    if d == 0:
        raise ValueError("0 has no fundamental discriminant")
    # multiplying by a square leaves the field unchanged
    n = d.numerator * d.denominator
    sign = -1 if n < 0 else 1
    _, r = squarefree_decompose(abs(n))
    d0 = sign * r
    if d0 == 1:
        return 1
    return d0 if d0 % 4 == 1 else 4 * d0


def generalized_bernoulli(m: int, disc: int) -> Fraction:
    """B_{m,chi} = f^(m-1) sum_{a=1..f} chi(a) B_m(a/f) for chi = kronecker(disc, .),
    disc = 0, 1 mod 4, and f = |disc|, with B_m(x) expanded:
    sum_j C(m, j) B_j f^(j-1) S_{m-j}, where S_t = sum_a chi(a) a^t.

    chi is a character mod f, so chi(f - a) = chi(-1) chi(a) with chi(-1)
    the sign of disc, and B_m(1 - x) = (-1)^m B_m(x): the terms at a and
    f - a are equal or cancel.  For f > 1 the sum is twice that over
    a < f/2, or 0 when chi(-1) != (-1)^m; chi vanishes at a = f/2 and at
    a = f.  For f = 1 it is the single term B_m(1)."""
    if not disc or disc % 4 > 1:
        raise ValueError(f"{disc} is not a discriminant: kronecker({disc}, .) is no character mod {abs(disc)}")
    f = abs(disc)
    if f == 1:
        support, twice = [1], 1
    elif (disc < 0) != (m % 2 == 1):
        return Fraction(0)
    else:
        support, twice = [a for a in range(1, (f + 1) // 2) if math.gcd(a, f) == 1], 2
    terms = [kronecker_symbol(disc, a) for a in support]  # chi(a) a^t at t = 0, 1, ...
    power_sums = []
    for _ in range(m + 1):
        power_sums.append(sum(terms))
        terms = [x * a for x, a in zip(terms, support)]
    # the sum over j in integers, over the common denominator of the B_j
    bs = [bernoulli(j) for j in range(m + 1)]
    den = math.lcm(*(b.denominator for b in bs))
    acc = sum(
        math.comb(m, j) * b.numerator * (den // b.denominator) * f**j * power_sums[m - j]
        for j, b in enumerate(bs)
    )
    return Fraction(twice * acc, den * f)


@lru_cache(maxsize=None)
def l_value(s: int, disc: int) -> Fraction:
    """Dirichlet L(s, chi) at an integer s <= 0 for chi = kronecker(disc, .),
    disc fundamental: -B_{1-s,chi} / (1 - s), cached: discriminants of one
    field share their character."""
    if s > 0:
        raise ValueError(f"L(s, chi) is taken at integers s <= 0, got s = {s}")
    return -generalized_bernoulli(1 - s, disc) / (1 - s)


def zeta_value(s: int) -> Fraction:
    """Riemann zeta at an integer s <= 0: -1/2 at 0, else -B_{1-s} / (1 - s)."""
    if s > 0:
        raise ValueError(f"zeta(s) is taken at integers s <= 0, got s = {s}")
    return Fraction(-1, 2) if s == 0 else -bernoulli(1 - s) / (1 - s)
