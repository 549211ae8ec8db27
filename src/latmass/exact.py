"""Exact scalar arithmetic for mass computations.

Everything downstream (Siegel series, Eisenstein coefficients, masses) must
come out as an exact rational.  Intermediate values live in the ring
Q[sqrt(d), sqrt(pi)]: a rational coefficient times the square root of a
squarefree integer times a half-integer power of pi.  All transcendental
factors are required to cancel before a result is handed back as a Fraction.
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
# Scalars in Q[sqrt(d), sqrt(pi)]


@dataclass(frozen=True)
class AnalyticScalar:
    """coeff * sqrt(surd) * pi^(pi_half / 2), with surd squarefree >= 1."""

    coeff: Fraction
    surd: int = 1
    pi_half: int = 0

    def __post_init__(self) -> None:
        if self.surd < 1:
            raise ValueError(f"surd must be >= 1, got {self.surd}")
        if self.coeff == 0:
            object.__setattr__(self, "surd", 1)
            object.__setattr__(self, "pi_half", 0)

    @classmethod
    def from_rational(cls, q: Fraction | int) -> "AnalyticScalar":
        return cls(Fraction(q))

    @classmethod
    def sqrt_rational(cls, q: Fraction | int) -> "AnalyticScalar":
        """sqrt(q) for rational q > 0, as coeff * sqrt(squarefree)."""
        q = Fraction(q)
        if q <= 0:
            raise ValueError(f"sqrt_rational needs q > 0, got {q}")
        # sqrt(a/b) = sqrt(a*b) / b
        s, r = squarefree_decompose(q.numerator * q.denominator)
        return cls(Fraction(s, q.denominator), r)

    def __mul__(self, other: "AnalyticScalar | Fraction | int") -> "AnalyticScalar":
        if not isinstance(other, AnalyticScalar):
            return AnalyticScalar(self.coeff * other, self.surd, self.pi_half)
        g = math.gcd(self.surd, other.surd)
        return AnalyticScalar(
            self.coeff * other.coeff * g,
            (self.surd // g) * (other.surd // g),
            self.pi_half + other.pi_half,
        )

    __rmul__ = __mul__

    def inverse(self) -> "AnalyticScalar":
        if self.coeff == 0:
            raise ValueError("zero has no inverse")
        # 1 / sqrt(r) = sqrt(r) / r
        return AnalyticScalar(
            1 / (self.coeff * self.surd), self.surd, -self.pi_half
        )

    def __truediv__(self, other: "AnalyticScalar | Fraction | int") -> "AnalyticScalar":
        if not isinstance(other, AnalyticScalar):
            return AnalyticScalar(self.coeff / other, self.surd, self.pi_half)
        return self * other.inverse()

    def times_pi_half(self, m: int) -> "AnalyticScalar":
        if self.coeff == 0:
            return self
        return AnalyticScalar(self.coeff, self.surd, self.pi_half + m)

    def as_fraction(self) -> Fraction:
        """Collapse to a rational; transcendental parts must have cancelled."""
        if self.coeff == 0:
            return Fraction(0)
        if self.surd != 1 or self.pi_half != 0:
            raise ArithmeticError(
                f"scalar is not rational: {self.coeff} * sqrt({self.surd})"
                f" * pi^({self.pi_half}/2)"
            )
        return self.coeff


# ---------------------------------------------------------------------------
# Gamma and zeta special values


def gamma_half(i: int) -> AnalyticScalar:
    """Gamma(i/2) for integer i >= 1."""
    if i < 1:
        raise ValueError(f"gamma_half needs i >= 1, got {i}")
    if i % 2 == 0:
        return AnalyticScalar(Fraction(math.factorial(i // 2 - 1)))
    # Gamma(i/2) = (i-2)!! / 2^((i-1)/2) * sqrt(pi)
    dfac = 1
    for j in range(i - 2, 1, -2):
        dfac *= j
    return AnalyticScalar(Fraction(dfac, 2 ** ((i - 1) // 2)), 1, 1)


def zeta_value(s: int) -> AnalyticScalar:
    """Riemann zeta at s = 0 or even s >= 2."""
    if s == 0:
        return AnalyticScalar(Fraction(-1, 2))
    if s < 2 or s % 2:
        raise ValueError(f"zeta_value needs s = 0 or even s >= 2, got {s}")
    coeff = (-1) ** (s // 2 + 1) * bernoulli(s) * Fraction(2 ** (s - 1), math.factorial(s))
    return AnalyticScalar(coeff, 1, 2 * s)


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


def l_value(s: int, chi: DirichletCharacter) -> AnalyticScalar:
    """Dirichlet L(s, chi) for s = 0 or integer s >= 1 of matching parity."""
    if chi.is_trivial:
        return zeta_value(s)
    if s == 0:
        return AnalyticScalar(-generalized_bernoulli(1, chi))
    if s < 1:
        raise ValueError(f"l_value needs s = 0 or s >= 1, got {s}")
    if (s % 2 == 1) != chi.is_odd:
        raise ValueError(
            f"L({s}, chi) with chi of discriminant {chi.disc}:"
            " parity mismatch, value is not a closed form"
        )
    f = chi.conductor
    if s % 2 == 0:
        sign = (-1) ** (s // 2 + 1)
    else:
        sign = (-1) ** ((s + 1) // 2)
    coeff = sign * generalized_bernoulli(s, chi) * Fraction(
        2 ** (s - 1), math.factorial(s) * f**s
    )
    return (
        AnalyticScalar(coeff).times_pi_half(2 * s)
        * AnalyticScalar.sqrt_rational(f)
    )
