"""Exact rational arithmetic for mass computations.

Bernoulli numbers, factoring and determinants, real primitive Dirichlet
characters with their generalized Bernoulli numbers, and the values of the
Riemann zeta function and of L(s, chi) at integers s <= 0, where they are
rational.  Everything downstream (Siegel series, Eisenstein coefficients,
masses) is a Fraction built from these.
"""

from __future__ import annotations

import math
from dataclasses import dataclass
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
    """Determinant of a square rational matrix by Gaussian elimination."""
    n = len(mat)
    a = [[Fraction(x) for x in row] for row in mat]
    out = Fraction(1)
    for c in range(n):
        piv = next((r for r in range(c, n) if a[r][c]), None)
        if piv is None:
            return Fraction(0)
        if piv != c:
            a[c], a[piv] = a[piv], a[c]
            out = -out
        out *= a[c][c]
        for r in range(c + 1, n):
            f = a[r][c] / a[c][c]
            for t in range(c, n):
                a[r][t] -= f * a[c][t]
    return out


# ---------------------------------------------------------------------------
# Kronecker symbol and real primitive Dirichlet characters


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


@dataclass(frozen=True)
class DirichletCharacter:
    """Real primitive character chi(m) = kronecker(disc, m), disc fundamental."""

    disc: int

    @classmethod
    def from_discriminant(cls, d: Fraction | int) -> "DirichletCharacter":
        return cls(fundamental_discriminant(d))

    @property
    def conductor(self) -> int:
        return abs(self.disc)

    @property
    def is_trivial(self) -> bool:
        return self.disc == 1

    @property
    def is_odd(self) -> bool:
        return self.disc < 0

    def __call__(self, m: int) -> int:
        return kronecker_symbol(self.disc, m)


def generalized_bernoulli(m: int, chi: DirichletCharacter) -> Fraction:
    """B_{m,chi} = f^(m-1) sum_{a=1..f} chi(a) B_m(a/f), with B_m(x) expanded:
    sum_j C(m, j) B_j f^(j-1) S_{m-j}, where S_t = sum_a chi(a) a^t."""
    f = chi.conductor
    support = [(a, c) for a in range(1, f + 1) if (c := chi(a))]
    power_sums = [sum(c * a**t for a, c in support) for t in range(m + 1)]
    acc = Fraction(0)
    for j in range(m + 1):
        acc += math.comb(m, j) * bernoulli(j) * Fraction(f) ** (j - 1) * power_sums[m - j]
    return acc


@lru_cache(maxsize=None)
def l_value(s: int, chi: DirichletCharacter) -> Fraction:
    """Dirichlet L(s, chi) at an integer s <= 0: -B_{1-s,chi} / (1 - s),
    cached: discriminants of one field share their character."""
    if s > 0:
        raise ValueError(f"L(s, chi) is taken at integers s <= 0, got s = {s}")
    return -generalized_bernoulli(1 - s, chi) / (1 - s)


def zeta_value(s: int) -> Fraction:
    """Riemann zeta at an integer s <= 0: -1/2 at 0, else -B_{1-s} / (1 - s)."""
    if s > 0:
        raise ValueError(f"zeta(s) is taken at integers s <= 0, got s = {s}")
    return Fraction(-1, 2) if s == 0 else -bernoulli(1 - s) / (1 - s)
