"""Local Siegel series and Eisenstein coefficients."""

import hashlib
import math
import random
from fractions import Fraction

import pytest

from conftest import run_python
from latmass import siegel
from latmass.padic import (
    _diag_over_qp,
    hasse_invariant,
    hilbert_symbol,
    jordan_decompose,
    local_invariants,
    merge_blocks,
    with_unit,
)
from latmass.exact import factorize
from latmass.roots import RootSystem, _component_types, _walk, component_gram, enumerate_systems
from latmass.siegel import (
    component_blocks,
    eisenstein_coefficient,
    f_polynomial,
    f_value,
    scalar_coefficient,
    system_blocks,
)


def test_rank_one_polynomials():
    for p in (2, 3, 5, 7):
        for c in ((1,) if p == 2 else (1, 2)):
            assert f_polynomial((("u", 1, c),), p) == (1, p)
    assert f_polynomial((("u", 2, 1),), 2) == (1, 2, 4)
    assert f_polynomial((("u", 3, 3),), 2) == (1, 2, 4, 8)
    assert f_polynomial((("u", 2, 2),), 3) == (1, 3, 9)
    assert f_value((("u", 1, 1),), 2, Fraction(1, 16)) == Fraction(9, 8)
    assert f_value((("u", 2, 1),), 2, Fraction(1, 16)) == Fraction(73, 64)


def test_unimodular_blocks_are_trivial():
    assert f_polynomial((("h", 0, 0),) * 4, 2) == (1,)
    assert f_polynomial((("y", 0, 0),), 2) == (1,)
    assert f_polynomial((("u", 0, 1), ("u", 0, 1)), 2) == (1,)
    assert f_polynomial((("u", 0, 1), ("u", 0, 2)), 3) == (1,)


def test_degree_can_drop():
    # A2 at p = 3 has d = 1 but F is identically 1
    blocks = system_blocks(RootSystem.parse("A2"), 3)
    assert blocks == (("u", 0, 1), ("u", 1, 1))
    assert f_polynomial(blocks, 3) == (1,)


def test_e8_is_hyperbolic_at_2():
    assert system_blocks(RootSystem.parse("E8"), 2) == (("h", 0, 0),) * 4
    assert f_polynomial(system_blocks(RootSystem.parse("E8"), 2), 2) == (1,)


def _random_blocks(rng, p, most=4, top=3):
    raw = []
    for _ in range(rng.randint(1, most)):
        e = rng.randint(0, top)
        if p == 2 and rng.random() < 0.4:
            raw.append((rng.choice("hy"), e, 0))
        else:
            residues = [1, 3, 5, 7] if p == 2 else [1, 2]
            raw.append(("u", e, rng.choice(residues)))
    return merge_blocks([(b, 1) for b in raw], p)


def digest(lines):
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def test_interpolation_matches_direct_evaluation():
    # digest of the values recorded where f_value was checked against a
    # separate evaluation of the recursion at each x
    rng = random.Random(7)
    args = {2: [Fraction(3, 5), Fraction(-1, 3)], 3: [Fraction(1, 2), Fraction(-2, 7)]}
    args[5] = args[3]
    values = []
    for p in (2, 3, 5):
        for _ in range(40):
            blocks = _random_blocks(rng, p)
            values += [str(f_value(blocks, p, x)) for x in args[p]]
    assert digest(values) == "9bf0ed3fa79c24f25f48478c00c464e78cc40c6f056dd190671364c358f07838"


def test_polynomials_match_recorded():
    # up to 8 blocks of scale 0..5; reaches every rank-2 peel branch
    # (even/odd rank x unit pair, h or y block) at p = 2 hundreds of times
    rng = random.Random(29)
    lines = []
    for p in (2, 3, 5, 7):
        for _ in range(1350):
            blocks = _random_blocks(rng, p, 8, 5)
            lines.append(f"{p} {blocks} {f_polynomial(blocks, p)}")
    assert digest(lines) == "bfff655520e4a2a70692a9f994aa117481b2440975decfc78e652a4104d03ffd"


def test_functional_equation_odd_rank():
    # Katsurada: c_{D-i} = s p^((n+1)(D/2-i)) c_i for odd n, D = deg F, s = +-1
    rng = random.Random(31)
    checked = 0
    for p in (2, 3, 5, 7):
        for _ in range(300):
            blocks = _random_blocks(rng, p, 8, 5)
            n = local_invariants(blocks, p).n
            if n % 2 == 0:
                continue
            c = f_polynomial(blocks, p)
            top = len(c) - 1
            s = c[top] // p ** ((n + 1) * top // 2)
            assert s in (1, -1), (blocks, p)
            for i in range(top // 2 + 1):
                assert c[top - i] == s * p ** ((n + 1) * (top - 2 * i) // 2) * c[i], (blocks, p)
            checked += 1
    assert checked > 400


def test_evaluation_at_zero():
    rng = random.Random(11)
    for p in (2, 3):
        for _ in range(10):
            blocks = _random_blocks(rng, p)
            assert f_value(blocks, p, Fraction(0)) == 1


def test_coefficients_match_recorded():
    # digests recorded with the coefficient assembled in Q[sqrt(d), sqrt(pi)];
    # they reach odd n, n = dim - 1 and dim, trivial/even/odd characters and
    # weights k = 2 mod 4
    lines = []
    for dim in (8, 12, 16, 20, 24, 28, 32):
        lines += [f"{dim}\t{rs}\t{eisenstein_coefficient(rs, dim)}" for rs in enumerate_systems(8)]
        lines += [f"{dim}\tm={m}\t{scalar_coefficient(m, dim)}" for m in range(1, 41)]
    assert len(lines) == 987
    assert digest(lines)[:16] == "b2087765bdef3147"
    values = [(rs, eisenstein_coefficient(rs, 16)) for rs in enumerate_systems(16) if rs.rank >= 15]
    assert (len(values), sum(1 for _, v in values if v)) == (1385, 474)
    assert digest([f"16\t{rs}\t{v}" for rs, v in values])[:16] == "8f76258d6135b6f2"


def test_step_raises_under_optimize():
    # for R = 1, (1 + X^0) R(X) = 2 leaves a remainder on division by
    # 1 - 3X, and e = -1 is out of range: both raise, also under python -O
    script = (
        "from latmass.siegel import _step\n"
        "for e, g in ((0, 3), (-1, 0)):\n"
        "    try:\n"
        "        _step([1], 2, 0, 0, e, 1, 0, g, 1)\n"
        "    except ArithmeticError:\n"
        "        continue\n"
        "    raise SystemExit(f'no ArithmeticError for e = {e}, g = {g}')\n"
    )
    result = run_python("-O", "-c", script)
    assert result.returncode == 0, result.stderr


def test_checks_raise_under_optimize():
    # bad arguments raise ValueError and broken invariants ArithmeticError,
    # each from its own check, also under python -O; an odd weight would
    # otherwise divide by zeta(1 - k) = 0, a (kind, rank) with no Dynkin
    # diagram must not reach the closed form at any prime, and a Z component
    # or the empty system must not skip the checks.  A Gram matrix that is not
    # positive definite is refused whatever the sign of its determinant, and
    # the command line turns that into exit 2
    script = (
        "import contextlib, io\n"
        "from latmass import siegel\n"
        "from latmass.cli import main\n"
        "from latmass.roots import RootSystem\n"
        "R = RootSystem.parse\n"
        "cases = [\n"
        "    (ValueError, 'dim must be even', lambda: siegel.eisenstein_coefficient(R('A1'), 7)),\n"
        "    (ValueError, 'exceeds dim', lambda: siegel.eisenstein_coefficient(R('E8'), 6)),\n"
        "    (ValueError, 'weight dim / 2 = 1', lambda: siegel.eisenstein_coefficient(R('A1'), 2)),\n"
        "    (ValueError, 'weight dim / 2 = 3', lambda: siegel.eisenstein_coefficient(R('A2'), 6)),\n"
        "    (ValueError, 'parity mismatch', lambda: siegel._l_norm(1, 5)),\n"
        "    (ArithmeticError, 'times the conductor', lambda: siegel._l_norm(2, 3)),\n"
        "    (ArithmeticError, 'not rational', lambda: siegel._l_norm(0, -3)),\n"
        "    (ValueError, 'half-integral', lambda: siegel.coefficient_for_gram(((1,),), 8)),\n"
        "    (ValueError, 'not positive definite', lambda: siegel.coefficient_for_gram(((2, 2), (2, 2)), 8)),\n"
        "    (ValueError, 'not positive definite', lambda: siegel.coefficient_for_gram(((-2,),), 8)),\n"
        "    (ValueError, 'not positive definite', lambda: siegel.coefficient_for_gram(\n"
        "        ((-2, 0), (0, -2)), 8)),\n"
        "    (ValueError, 'not positive definite', lambda: siegel.coefficient_for_gram(\n"
        "        ((-2, 0, 0, 0), (0, -2, 0, 0), (0, 0, 2, 0), (0, 0, 0, 2)), 8)),\n"
        "    (ValueError, 'm must be', lambda: siegel.scalar_coefficient(0, 8)),\n"
        "    (ArithmeticError, 'below the scale', lambda: siegel._peel_rank1(\n"
        "        (('u', 0, 1), ('u', 5, 1)), 3, ('u', 0, 1), (('u', 5, 1),))),\n"
        "    (ArithmeticError, 'below the scale', lambda: siegel._peel_rank2(\n"
        "        (('u', 0, 1), ('u', 0, 1), ('u', 5, 1)), (('u', 0, 1),) * 2, (('u', 5, 1),))),\n"
        "    (ArithmeticError, 'top scale', lambda: siegel.f_polynomial(\n"
        "        (('u', 2, 1), ('u', 0, 1)), 3)),\n"
        "    (ArithmeticError, 'units of scale', lambda: siegel.f_polynomial(\n"
        "        (('u', 1, 1),) * 3, 2)),\n"
        "    (ValueError, 'no Dynkin diagram', lambda: siegel.component_blocks('Z', 1, 3)),\n"
        "    (ValueError, 'no Dynkin diagram', lambda: siegel.component_blocks('D', 3, 5)),\n"
        "    (ValueError, 'no Dynkin diagram', lambda: siegel.component_blocks('E', 9, 7)),\n"
        "    (ValueError, 'no Dynkin diagram', lambda: siegel.component_blocks('Z', 1, 2)),\n"
        "    (ValueError, 'no Dynkin diagram', lambda: siegel.component_blocks('D', 3, 2)),\n"
        "    (ValueError, 'no Dynkin diagram', lambda: siegel.component_blocks('E', 9, 2)),\n"
        "    (ArithmeticError, 'no even unimodular', lambda: siegel._even_unimodular(0, 5)),\n"
        "    (ArithmeticError, 'no even unimodular', lambda: siegel._even_unimodular(3, 7)),\n"
        "    (ValueError, 'has a Z component', lambda: siegel.eisenstein_coefficient(R('Z'), 8)),\n"
        "    (ValueError, 'has a Z component', lambda: siegel.eisenstein_coefficient(R('Z A1'), 8)),\n"
        "    (ValueError, 'has a Z component', lambda: siegel.eisenstein_coefficient(R('Z^2 E8'), 16)),\n"
        "    (ValueError, 'weight dim / 2 = 5', lambda: siegel.eisenstein_coefficient(R('0'), 10)),\n"
        "    (ValueError, 'dim must be positive', lambda: siegel.eisenstein_coefficient(R('0'), 0)),\n"
        "    (ValueError, 'dim must be positive', lambda: siegel.eisenstein_coefficient(R('0'), -8)),\n"
        "    (ValueError, 'dim must be positive', lambda: siegel.eisenstein_coefficient(R('A1'), -8)),\n"
        "]\n"
        "for i, (error, words, call) in enumerate(cases):\n"
        "    try:\n"
        "        call()\n"
        "    except error as exc:\n"
        "        if words in str(exc):\n"
        "            continue\n"
        "    raise SystemExit(f'no {error.__name__} about {words!r} from case {i}')\n"
        "err = io.StringIO()\n"
        "with contextlib.redirect_stderr(err):\n"
        "    code = main(['coeff', '[[-2,0],[0,-2]]', '--dim', '8'])\n"
        "if code != 2 or 'must be positive definite' not in err.getvalue():\n"
        "    raise SystemExit(f'latmass coeff on diag(-2, -2): exit {code}, {err.getvalue()!r}')\n"
    )
    for flags in ((), ("-O",)):
        result = run_python(*flags, "-c", script)
        assert result.returncode == 0, (flags, result.stderr)


def test_l_norm_scales_over_non_fundamental_discriminants():
    # d q^2 has the character of d, so only the factor |disc|^(s - 1/2)
    # changes, by q^(2s - 1); the cases that raise for d raise for d q^2 too
    checked = 0
    for d in (1, -3, -4, 5, 8, -8, 12, -7, 13, -15, 21):
        for q in (1, 2, 3, 5, 6):
            for s in range(9):
                try:
                    base = siegel._l_norm(s, d)
                except (ValueError, ArithmeticError) as exc:
                    with pytest.raises(type(exc)):
                        siegel._l_norm(s, d * q * q)
                    continue
                assert siegel._l_norm(s, d * q * q) == base * Fraction(q) ** (2 * s - 1), (s, d, q)
                checked += 1
    assert checked == 255


def test_pair_block_eta_identity():
    # For an even 2x2 block on top of B2 with xi(B2) nonzero, the unit
    # adjoined at the top scale reproduces a product formula in terms of
    # the Hasse invariant of B2 alone.
    rng = random.Random(23)
    found = 0
    while found < 25:
        rest = _random_blocks(rng, 2)
        inv2 = local_invariants(rest, 2)
        if inv2.n % 2 or inv2.xi == 0:
            continue
        m = max(0, (inv2.i if inv2.i is not None else 0) + 1) + rng.randint(0, 2)
        n = inv2.n + 2
        lhs = local_invariants(with_unit(rest, m, 2), 2).eta
        diag = _diag_over_qp(rest, 2)
        # Hasse invariant with the diagonal terms (a_i, a_i)_2 included
        h = hasse_invariant(diag, 2) * hilbert_symbol(math.prod(diag), -1, 2)
        sign = -1 if (((n - 1) ** 2 - 1) // 8) % 2 else 1
        rhs = (
            sign
            * h
            * hilbert_symbol(Fraction(2) ** m, Fraction((-1) ** ((n - 2) // 2)) * inv2.det, 2)
        )
        assert lhs == rhs, (rest, m)
        found += 1


SIGMA_3 = lambda m: sum(d**3 for d in range(1, m + 1) if m % d == 0)
SIGMA_11 = lambda m: sum(d**11 for d in range(1, m + 1) if m % d == 0)


def test_scalar_coefficients_dimension_8():
    for m in range(1, 7):
        assert scalar_coefficient(m, 8) == 240 * SIGMA_3(m)


def test_scalar_coefficients_dimension_24():
    for m in range(1, 4):
        assert scalar_coefficient(m, 24) == Fraction(65520, 691) * SIGMA_11(m)


def test_root_system_coefficients_dimension_8():
    expected = {
        "A1": 240,
        "A2": 13440,
        "A1^2": 30240,
        "A1^3": 1814400,
        "D4": 3628800,
        "E6": 116121600,
        "E7": 348364800,
        "A7": 1045094400,
        "D8": 1393459200,
        "E8": 696729600,
    }
    for name, value in expected.items():
        assert eisenstein_coefficient(RootSystem.parse(name), 8) == value, name


def test_full_rank_nonsquare_det_vanishes():
    assert eisenstein_coefficient(RootSystem.parse("A2 A6"), 8) == 0
    assert eisenstein_coefficient(RootSystem.parse("A1 A2 A5"), 8) != 0


def test_coefficient_dimension_24():
    assert eisenstein_coefficient(RootSystem.parse("A1"), 24) == Fraction(65520, 691)
    assert eisenstein_coefficient(RootSystem.parse("0"), 24) == 1


def test_component_blocks_cached_forms():
    assert component_blocks("A", 1, 2) == (("u", 0, 1),)
    assert component_blocks("D", 4, 2) == merge_blocks([(b, 1) for b in component_blocks("D", 4, 2)], 2)


def test_system_blocks_equal_the_merge_of_every_copy():
    # system_blocks merges each component type once, its counted blocks
    # times its multiplicity; the reference merges every copy's blocks one
    # by one, at 2 and at each odd prime dividing the discriminant
    sample = random.Random(33).sample(_walk(32, 32, True), 300)
    pairs = 0
    for rs in enumerate_systems(16, dim=16) + sample:
        for p in sorted({2, *factorize(rs.det)}):
            copies = []
            for kind, rank, mult in rs.components:
                copies += [component_blocks(kind, rank, p)] * mult
            want = merge_blocks([(b, 1) for blocks in copies for b in blocks], p)
            assert system_blocks(rs, p) == want, (rs, p)
            pairs += 1
    assert pairs == 4467


ODD_PRIMES = (3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41)


def test_component_blocks_closed_form_matches_elimination():
    # the blocks come from the determinant and the discriminant group;
    # elimination on the half-Gram must give the same canonical list, at
    # p = 2 also the same representative where 2-adic splittings differ
    pairs = 0
    for kind, rank in _component_types(64):
        half = tuple(tuple(Fraction(v, 2) for v in row) for row in component_gram(kind, rank))
        for p in (2, *ODD_PRIMES) if rank <= 40 else (2,):
            assert component_blocks(kind, rank, p) == jordan_decompose(half, p), (kind, rank, p)
            pairs += 1
    assert pairs == 80 * 13 + 48


def test_component_blocks_skip_elimination(monkeypatch):
    # no elimination and no Fraction half-Gram at any prime
    def refuse(*args):
        raise AssertionError(f"elimination work on {args}")

    monkeypatch.setattr(siegel, "jordan_decompose", refuse)
    monkeypatch.setattr(siegel, "Fraction", refuse)
    for kind, rank in _component_types(40):
        for p in (2, *ODD_PRIMES):
            assert component_blocks.__wrapped__(kind, rank, p) == component_blocks(kind, rank, p)
