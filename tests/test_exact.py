import math
import random
from fractions import Fraction

import mpmath as mp
import pytest

from conftest import run_python
from latmass.exact import (
    bernoulli,
    det,
    factorize,
    fundamental_discriminant,
    generalized_bernoulli,
    kronecker_symbol,
    l_value,
    squarefree_decompose,
    zeta_value,
)
from latmass.roots import RootSystem, system_gram


def test_bernoulli_numbers():
    assert bernoulli(0) == 1
    assert bernoulli(1) == Fraction(-1, 2)
    assert bernoulli(2) == Fraction(1, 6)
    assert bernoulli(4) == Fraction(-1, 30)
    assert bernoulli(12) == Fraction(-691, 2730)
    assert all(bernoulli(m) == 0 for m in (3, 5, 7, 9, 11))


def test_generalized_bernoulli_matches_textbook_sum():
    # B_{m,chi} = f^(m-1) sum_{a=1..f} chi(a) B_m(a/f), over the whole range
    # a = 1..f, with the Bernoulli polynomial B_m(x) = sum_j C(m, j) B_j x^(m-j)
    # written out here over one denominator: L f^m B_m(a/f) is an integer
    def textbook(m, disc):
        f = abs(disc)
        big_l = math.lcm(*(bernoulli(j).denominator for j in range(m + 1)))
        coef = [int(math.comb(m, j) * bernoulli(j) * big_l * f**j) for j in range(m + 1)]
        acc = 0
        for a in range(1, f + 1):
            acc += kronecker_symbol(disc, a) * sum(c * a ** (m - j) for j, c in enumerate(coef))
        return Fraction(acc, big_l * f)

    rng = random.Random(10)
    picks = [rng.choice([-1, 1]) * rng.randint(2, 150) for _ in range(12)]
    discs = {fundamental_discriminant(d) for d in picks}
    # the trivial character (f = 1) and small conductors of both parities
    for disc in [1] + sorted(discs - {1}) + [-3, -4, 5, 8, -8]:
        for m in range(13):
            assert generalized_bernoulli(m, disc) == textbook(m, disc), (m, disc)
    # conductors above 150, odd and even characters; coeff32 reaches -1428
    # and 840.  m = 0..5 meets both the parity-mismatch zeros and the
    # doubled half sums
    for disc in (-1428, 840, -163, 173, -184, 156, -211, 157):
        assert fundamental_discriminant(disc) == disc
        for m in range(6):
            assert generalized_bernoulli(m, disc) == textbook(m, disc), (m, disc)
    assert generalized_bernoulli(0, 1) == 1 and generalized_bernoulli(1, 1) == Fraction(1, 2)


def test_squarefree_decompose():
    assert factorize(1) == {}
    assert factorize(97) == {97: 1}
    assert factorize(2**10 * 3**3 * 7) == {2: 10, 3: 3, 7: 1}
    assert det([[2, 1, 0], [1, 2, 1], [0, 1, 2]]) == 4  # A3
    with pytest.raises(ValueError, match="not positive definite"):
        det([[0, 1], [1, 0]])  # would need a row swap; indefinite
    assert squarefree_decompose(1) == (1, 1)
    assert squarefree_decompose(72) == (6, 2)
    assert squarefree_decompose(45) == (3, 5)
    s, r = squarefree_decompose(2**10 * 3**3 * 7)
    assert s * s * r == 2**10 * 3**3 * 7 and r == 21


def cofactor_det(mat):
    """Laplace expansion along the first row."""
    if not mat:
        return Fraction(1)
    return sum(
        (-1) ** j * mat[0][j] * cofactor_det([row[:j] + row[j + 1 :] for row in mat[1:]])
        for j in range(len(mat))
        if mat[0][j]
    )


def test_det_matches_cofactor_expansion():
    # det eliminates without row exchanges and skips the rows whose entry
    # under the pivot is already 0; on symmetric positive definite matrices,
    # dense and sparse, it must agree with the expansion, and every input
    # that is not positive definite (one needing a row swap, a singular one,
    # an indefinite one) must raise
    rng = random.Random(24)

    def rational():
        return Fraction(rng.randint(-9, 9), rng.randint(1, 5))

    def positive():
        return Fraction(rng.randint(1, 9), rng.randint(1, 5))

    def congruent(signs):
        # L diag(signs) L^T for a random unit lower triangular L: by
        # Sylvester's law of inertia its signature is that of the signs
        n = len(signs)
        low = [[rational() if j < i else Fraction(int(i == j)) for j in range(n)] for i in range(n)]
        return [
            [sum((low[i][k] * s * low[j][k] for k, s in enumerate(signs)), Fraction(0)) for j in range(n)]
            for i in range(n)
        ]

    def dominant(n):
        # sparse symmetric, its diagonal above the absolute row sums
        mat = [[Fraction(0)] * n for _ in range(n)]
        for i in range(n):
            for j in range(i):
                if rng.random() < 0.3:
                    mat[i][j] = mat[j][i] = rational()
        for i in range(n):
            mat[i][i] = sum(abs(x) for x in mat[i]) + positive()
        return mat

    kinds = {"dense": [], "sparse": [], "swap": [], "singular": [], "indefinite": []}
    for n in range(1, 7):
        for _ in range(12):
            kinds["dense"].append(congruent([positive() for _ in range(n)]))
            kinds["sparse"].append(dominant(n))
            signs = [positive() for _ in range(n)]
            signs[rng.randrange(n)] = Fraction(0)
            kinds["singular"].append(congruent(signs))
            signs = [positive() for _ in range(n)]
            signs[rng.randrange(n)] *= -1
            kinds["indefinite"].append(congruent(signs))
            if n > 1:
                # a zero leading entry: elimination would need a row swap
                swap = dominant(n)
                swap[0][0] = Fraction(0)
                swap[0][n - 1] = swap[n - 1][0] = Fraction(rng.randint(1, 9))
                kinds["swap"].append(swap)
    for kind in ("dense", "sparse"):
        for mat in kinds[kind]:
            assert det(mat) == cofactor_det(mat) > 0, (kind, mat)
    assert any(any(not x for row in mat for x in row) for mat in kinds["sparse"])
    for kind in ("swap", "singular", "indefinite"):
        for mat in kinds[kind]:
            with pytest.raises(ValueError, match="not positive definite"):
                det(mat)
    assert all(cofactor_det(mat) == 0 for mat in kinds["singular"])
    # the sparse 32x32 half-Grams of root systems: det(G / 2) = det(G) / 2^32
    for name in ("E8^4", "D16 E8^2", "A1^32", "A4^8"):
        rs = RootSystem.parse(name)
        half = [[Fraction(v, 2) for v in row] for row in system_gram(rs)]
        assert det(half) == Fraction(rs.det, 2**rs.rank), name


def test_zeta_values():
    assert zeta_value(0) == Fraction(-1, 2)
    assert zeta_value(-1) == Fraction(-1, 12)
    assert zeta_value(-3) == Fraction(1, 120)
    assert zeta_value(-11) == Fraction(691, 32760)
    assert all(zeta_value(s) == 0 for s in (-2, -4, -6))


KNOWN_CHARACTERS = {
    # disc -> {residue mod |disc|: value}
    -4: {1: 1, 3: -1},
    -3: {1: 1, 2: -1},
    5: {1: 1, 2: -1, 3: -1, 4: 1},
    8: {1: 1, 3: -1, 5: -1, 7: 1},
    -8: {1: 1, 3: 1, 5: -1, 7: -1},
    12: {1: 1, 5: -1, 7: -1, 11: 1},
}


def test_kronecker_character_tables():
    for disc, table in KNOWN_CHARACTERS.items():
        f = abs(disc)
        for m in range(1, 3 * f + 1):
            expect = table.get(m % f, 0)
            assert kronecker_symbol(disc, m) == expect, (disc, m)
    assert kronecker_symbol(17, 1) == 1
    # completely multiplicative in the top argument
    for disc in KNOWN_CHARACTERS:
        for m in range(1, 30):
            for n in range(1, 30):
                chi_mn = kronecker_symbol(disc, m * n)
                assert chi_mn == kronecker_symbol(disc, m) * kronecker_symbol(disc, n)


def test_fundamental_discriminant():
    assert fundamental_discriminant(5) == 5
    assert fundamental_discriminant(2) == 8
    assert fundamental_discriminant(3) == 12
    assert fundamental_discriminant(-1) == -4
    assert fundamental_discriminant(-3) == -3
    assert fundamental_discriminant(-4) == -4
    assert fundamental_discriminant(4) == 1
    assert fundamental_discriminant(12) == 12
    assert fundamental_discriminant(Fraction(3, 2)) == 24
    assert fundamental_discriminant(Fraction(9, 4)) == 1


def test_generalized_bernoulli():
    assert generalized_bernoulli(1, -3) == Fraction(-1, 3)
    assert generalized_bernoulli(1, -4) == Fraction(-1, 2)
    assert generalized_bernoulli(2, 5) == Fraction(4, 5)
    # even nontrivial characters kill B_1
    assert generalized_bernoulli(1, 5) == 0
    assert generalized_bernoulli(1, 12) == 0


def test_l_values_closed_form():
    assert l_value(0, -3) == Fraction(1, 3)
    assert l_value(0, -4) == Fraction(1, 2)
    assert l_value(-1, 5) == Fraction(-2, 5)
    assert l_value(-3, 8) == 11
    # trivial zeros: chi and 1 - s of opposite parity
    assert l_value(0, 5) == 0
    assert l_value(-1, -4) == 0
    assert l_value(-3, 1) == zeta_value(-3)


def hurwitz_l(s: int, disc: int) -> mp.mpf:
    f = abs(disc)
    chi = {a: c for a in range(1, f + 1) if (c := kronecker_symbol(disc, a))}
    return mp.mpf(f) ** (-s) * mp.fsum(c * mp.zeta(s, mp.mpf(a) / f) for a, c in chi.items())


def fraction_mpf(x: Fraction) -> mp.mpf:
    return mp.mpf(x.numerator) / x.denominator


def test_l_values_against_mpmath():
    mp.mp.dps = 60
    tol = mp.mpf(10) ** -50
    for s in range(0, -8, -1):
        assert mp.almosteq(fraction_mpf(zeta_value(s)), mp.zeta(s), rel_eps=tol, abs_eps=tol), s
        for disc in (-4, -3, 5, 8, -8, 12):
            got = fraction_mpf(l_value(s, disc))
            want = hurwitz_l(s, disc)
            assert mp.almosteq(got, want, rel_eps=tol, abs_eps=tol), (s, disc)


def test_bad_arguments_raise_under_optimize():
    # the argument checks are raises, not asserts, so they hold under python -O
    script = (
        "from fractions import Fraction as F\n"
        "from latmass.exact import *\n"
        "calls = [\n"
        "    lambda: bernoulli(-1),\n"
        "    lambda: factorize(0),\n"
        "    lambda: squarefree_decompose(0),\n"
        "    lambda: zeta_value(1),\n"
        "    lambda: zeta_value(3),\n"
        "    lambda: fundamental_discriminant(0),\n"
        "    lambda: l_value(1, -4),\n"
        "    lambda: generalized_bernoulli(2, 3),\n"
        "    lambda: generalized_bernoulli(2, 0),\n"
        "    lambda: det(((2, 1),)),\n"
        "    lambda: det(((2, 1), (1,))),\n"
        "    lambda: det(((2, 1), (0, 2))),\n"
        "    lambda: det(((2, 1), (1, -2))),\n"
        "]\n"
        "for i, call in enumerate(calls):\n"
        "    try:\n"
        "        call()\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'no ValueError from call {i}')\n"
    )
    result = run_python("-O", "-c", script)
    assert result.returncode == 0, result.stderr
