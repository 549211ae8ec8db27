import random
from collections import Counter
from fractions import Fraction
from itertools import product

from conftest import run_python
from latmass.padic import (
    _diag_over_qp,
    _fold_units,
    block_matrix,
    chi_p,
    hasse_invariant,
    hilbert_symbol,
    jordan_decompose,
    local_invariants,
    merge_blocks,
    valuation,
    with_unit,
)
from latmass.roots import RootSystem, system_gram
from latmass.siegel import coefficient_for_gram, component_blocks, eisenstein_coefficient
from test_roots import det  # general: exact.det refuses the indefinite H blocks
from test_siegel import digest

F = Fraction
PRIMES = (2, 3, 5, 7)


def test_valuation():
    assert valuation(F(12), 2) == 2
    assert valuation(F(3, 8), 2) == -3
    assert valuation(F(-9, 5), 3) == 2


def test_hilbert_known_values():
    assert hilbert_symbol(-1, -1, None) == -1
    assert hilbert_symbol(-1, 3, None) == 1
    assert hilbert_symbol(-1, -1, 2) == -1
    assert hilbert_symbol(2, 3, 2) == -1
    assert hilbert_symbol(3, 3, 2) == -1
    assert hilbert_symbol(2, 7, 2) == 1
    assert hilbert_symbol(3, 3, 3) == -1  # (3,3)_3 = (3,-1)_3, -1 nonresidue
    assert hilbert_symbol(3, -1, 3) == -1
    assert hilbert_symbol(5, 5, 5) == 1   # (-1) is a residue mod 5
    assert hilbert_symbol(F(3, 4), 1, 3) == 1


def test_hilbert_bilinear_and_product_formula():
    rng = random.Random(7)
    values = [F(n, d) for n in range(-9, 10) if n for d in range(1, 7)]
    for _ in range(300):
        a, b, c = (rng.choice(values) for _ in range(3))
        for p in (None, 2, 3, 5, 7):
            assert hilbert_symbol(a, b * c, p) == hilbert_symbol(a, b, p) * hilbert_symbol(a, c, p)
            assert hilbert_symbol(a, b, p) == hilbert_symbol(b, a, p)
        # product over all places is 1 (only small primes can appear)
        prod = hilbert_symbol(a, b, None)
        for p in (2, 3, 5, 7, 11, 13):
            prod *= hilbert_symbol(a, b, p)
        assert prod == 1


def test_hasse_invariant():
    # no diagonal terms in the product
    assert hasse_invariant((1, F(3, 4)), 3) == 1
    assert hasse_invariant((3, 3), 3) == -1
    assert hasse_invariant((1, 1, 1), 2) == 1
    assert hasse_invariant((2, 2, 2), 2) == hilbert_symbol(2, 2, 2) ** 3 == 1


def test_grouped_hasse_matches_pairwise():
    # few distinct entries, repeated, as in Jordan block lists
    rng = random.Random(31)
    for p in (None, 2, 3, 5, 7, 691):
        for _ in range(400):
            pool = [
                F(rng.choice((-1, 1)) * rng.randrange(1, 50), rng.choice((1, 2, 3, 4, 8, 9, 25)))
                for _ in range(rng.randrange(1, 5))
            ]
            diag = [rng.choice(pool) for _ in range(rng.randrange(0, 16))]
            want = 1
            for i in range(len(diag)):
                for j in range(i + 1, len(diag)):
                    want *= hilbert_symbol(diag[i], diag[j], p)
            assert hasse_invariant(diag, p) == want, (diag, p)


def test_chi_p():
    assert chi_p(F(1, 4), 2) == 1     # even valuation, 1 mod 8
    assert chi_p(5, 2) == -1
    assert chi_p(3, 2) == 0 and chi_p(7, 2) == 0
    assert chi_p(2, 2) == 0           # odd valuation
    assert chi_p(-3, 2) == -1         # -3 = 5 mod 8
    assert chi_p(4, 3) == 1
    assert chi_p(2, 3) == -1
    assert chi_p(3, 3) == 0
    assert chi_p(F(3, 4), 3) == 0


def test_jordan_small_cases():
    assert jordan_decompose(((F(1),),), 2) == (("u", 0, 1),)
    assert jordan_decompose(((F(2),),), 2) == (("u", 1, 1),)
    assert jordan_decompose(((F(12),),), 2) == (("u", 2, 3),)
    h = ((F(0), F(1, 2)), (F(1, 2), F(0)))
    y = ((F(1), F(1, 2)), (F(1, 2), F(1)))
    assert jordan_decompose(h, 2) == (("h", 0, 0),)
    assert jordan_decompose(y, 2) == (("y", 0, 0),)
    # x^2 + xy is hyperbolic despite the odd diagonal entry
    assert jordan_decompose(((F(1), F(1, 2)), (F(1, 2), F(0))), 2) == (("h", 0, 0),)


def test_jordan_unit_triples():
    d3 = tuple(tuple(F(1 if i == j else 0) for j in range(3)) for i in range(3))
    assert jordan_decompose(d3, 2) == (("u", 0, 3), ("y", 1, 0))
    d4 = tuple(tuple(F(1 if i == j else 0) for j in range(4)) for i in range(4))
    assert jordan_decompose(d4, 2) == (("u", 0, 1), ("u", 0, 3), ("y", 1, 0))


def test_jordan_odd_p():
    a2 = ((F(1), F(-1, 2)), (F(-1, 2), F(1)))
    assert jordan_decompose(a2, 3) == (("u", 0, 1), ("u", 1, 1))
    m = ((F(3), F(0)), (F(0), F(9)))
    assert jordan_decompose(m, 3) == (("u", 1, 1), ("u", 2, 1))
    # units merge to <1,...,1,cls> per scale
    m2 = ((F(2), F(0)), (F(0), F(2)))
    assert jordan_decompose(m2, 3) == (("u", 0, 1), ("u", 0, 1))
    m3 = ((F(2), F(0)), (F(0), F(1)))
    assert jordan_decompose(m3, 3) == (("u", 0, 1), ("u", 0, 2))
    # the least valuation off the diagonal: a 2x2 pivot of determinant
    # class 35/4, a nonsquare mod 3
    m4 = ((F(3), F(1, 2)), (F(1, 2), F(3)))
    assert jordan_decompose(m4, 3) == (("u", 0, 1), ("u", 0, 2))


def test_not_half_integral_raises_under_optimize():
    # the input check is a raise, not an assert, so it holds under python -O
    script = (
        "from fractions import Fraction as F\n"
        "from latmass.padic import jordan_decompose\n"
        "for mat, p in [\n"
        "    (((F(1, 3),),), 3),\n"
        "    (((F(2), F(1, 4)), (F(1, 4), F(2))), 2),\n"
        "    (((F(2), F(1)), (F(0), F(2))), 5),\n"
        "]:\n"
        "    try:\n"
        "        jordan_decompose(mat, p)\n"
        "    except ValueError:\n"
        "        continue\n"
        "    raise SystemExit(f'no ValueError for {mat} at p = {p}')\n"
    )
    result = run_python("-O", "-c", script)
    assert result.returncode == 0, result.stderr


def test_checks_raise_under_optimize():
    # bad arguments raise ValueError and broken invariants ArithmeticError,
    # also under python -O
    script = (
        "from fractions import Fraction as F\n"
        "from latmass import padic, siegel\n"
        "cases = [\n"
        "    (ValueError, lambda: padic.hilbert_symbol(0, 1, None)),\n"
        "    (ValueError, lambda: padic.jordan_decompose(((F(0), F(0)), (F(0), F(0))), 3)),\n"
        "    # rank-deficient but nonzero: rows run out before all are eliminated\n"
        "    (ValueError, lambda: padic.jordan_decompose(((2, 2), (2, 2)), 3)),\n"
        "    (ValueError, lambda: padic.jordan_decompose(((1, 1), (1, 1)), 2)),\n"
        "    (ValueError, lambda: padic.jordan_decompose(((1, 0), (0, 0)), 5)),\n"
        "    (ValueError, lambda: padic.jordan_decompose(\n"
        "        ((0, F(1, 2), F(1, 2)), (F(1, 2), 0, F(1, 2)), (F(1, 2), F(1, 2), 1)), 2)),\n"
        "    (ValueError, lambda: padic.jordan_decompose(((0, 1, 3), (1, 0, 3), (3, 3, 18)), 3)),\n"
        "    (ValueError, lambda: padic.merge_blocks([(('h', 1, 0), 1)], 3)),\n"
        "    # a matrix that is not square is refused, not truncated\n"
        "    (ValueError, lambda: padic.jordan_decompose(((1, 0),), 3)),\n"
        "    (ValueError, lambda: padic.jordan_decompose(((2, 1), (1,)), 2)),\n"
        "    (ValueError, lambda: siegel.coefficient_for_gram(((2, 1),), 8)),\n"
        "    (ValueError, lambda: siegel.coefficient_for_gram(((2, 1), (1,)), 8)),\n"
        "    (ValueError, lambda: padic.local_invariants((('u', -1, 1),), 3)),\n"
        "    (ArithmeticError, lambda: padic.merge_blocks([(('u', 0, 2), 3)], 2)),\n"
        "]\n"
        "for i, (error, call) in enumerate(cases):\n"
        "    try:\n"
        "        call()\n"
        "    except error:\n"
        "        continue\n"
        "    raise SystemExit(f'no {error.__name__} from case {i}')\n"
        "# a 2x2 block's determinant class is 3 or 7 mod 8; fake another one\n"
        "split = padic._split\n"
        "padic._split = lambda x, p: (split(x, p)[0], 1)\n"
        "try:\n"
        "    padic.jordan_decompose(((F(0), F(1, 2)), (F(1, 2), F(0))), 2)\n"
        "except ArithmeticError:\n"
        "    pass\n"
        "else:\n"
        "    raise SystemExit('no ArithmeticError from a 2x2 block of class 1')\n"
    )
    result = run_python("-O", "-c", script)
    assert result.returncode == 0, result.stderr


def test_i_invariant_frozen():
    # least t with 2^t K^(-1) half-integral is -2 for both even binaries
    assert local_invariants((("h", 0, 0),), 2).i == -2
    assert local_invariants((("y", 0, 0),), 2).i == -2
    assert local_invariants((("u", 3, 5),), 2).i == 3
    assert local_invariants((("h", 1, 0), ("u", 0, 1)), 2).i == 0
    assert local_invariants((), 2).i is None


def test_invariants_basic():
    inv = local_invariants((("u", 1, 1),), 2)  # the matrix (2)
    assert (inv.n, inv.d, inv.delta, inv.eta) == (1, 1, 1, 1)
    inv = local_invariants((("u", 0, 1), ("u", 0, 1)), 2)  # diag(1,1)
    assert (inv.n, inv.d, inv.delta, inv.xi) == (2, 2, 2, 0)
    assert inv.xi_prime == 1
    inv = local_invariants((("h", 0, 0),), 2)
    assert (inv.n, inv.d, inv.delta, inv.xi, inv.xi_prime) == (2, 0, 0, 1, 1)
    inv = local_invariants((("y", 0, 0),), 2)
    assert (inv.xi, inv.xi_prime) == (-1, -1)
    # eta of a single odd-p unit block (p) must be +1
    for p in (3, 5, 7, 11):
        assert local_invariants((("u", 1, 1),), p).eta == 1


def _random_unimodular(rng, n):
    u = [[1 if i == j else 0 for j in range(n)] for i in range(n)]
    for _ in range(3 * n):
        i, j = rng.randrange(n), rng.randrange(n)
        if i == j:
            continue
        c = rng.choice((-2, -1, 1, 2))
        for k in range(n):
            u[i][k] += c * u[j][k]
    rng.shuffle(u)
    return u


def _congruent(mat, u):
    n = len(mat)
    return tuple(
        tuple(
            sum(u[k][i] * mat[k][l] * u[l][j] for k in range(n) for l in range(n))
            for j in range(n)
        )
        for i in range(n)
    )


def _signature(blocks, p):
    inv = local_invariants(blocks, p)
    return (
        inv.n,
        inv.d,
        inv.i,
        chi_p(inv.det, p) if valuation(inv.det, p) % 2 == 0 else valuation(inv.det, p),
        hasse_invariant(_diag_over_qp(blocks, p), p),
    )


def _random_raw_blocks(rng, p, most=4, top=2):
    blocks = []
    for _ in range(rng.randint(1, most)):
        e = rng.randint(0, top)
        if p == 2 and rng.random() < 0.4:
            blocks.append((rng.choice(("h", "y")), e, 0))
        else:
            u = rng.choice((1, 3, 5, 7)) if p == 2 else rng.choice(range(1, p))
            blocks.append(("u", e, u))
    return blocks


def _ones(blocks):
    """blocks as (block, count) pairs, one copy each, as merge_blocks takes them."""
    return [(b, 1) for b in blocks]


def _random_blocks(rng, p, most=4, top=2):
    return merge_blocks(_ones(_random_raw_blocks(rng, p, most, top)), p)


def test_jordan_roundtrip_invariants():
    rng = random.Random(20260823)
    for p in PRIMES:
        for _ in range(500):
            blocks = _random_blocks(rng, p)
            mat = block_matrix(blocks, p)
            sig = _signature(blocks, p)
            assert _signature(jordan_decompose(mat, p), p) == sig
            twisted = _congruent(mat, _random_unimodular(rng, len(mat)))
            assert _signature(jordan_decompose(twisted, p), p) == sig


def test_jordan_odd_p_blocks_are_congruence_invariant():
    # at odd p the block list itself, not only its invariants, is the same
    # for a matrix and its unimodular twists, whichever pivots they meet
    rng = random.Random(2203)
    for p in PRIMES[1:]:
        for _ in range(200):
            blocks = _random_blocks(rng, p, 6, 3)
            mat = block_matrix(blocks, p)
            assert jordan_decompose(mat, p) == blocks, (blocks, p)
            twisted = _congruent(mat, _random_unimodular(rng, len(mat)))
            assert jordan_decompose(twisted, p) == blocks, (blocks, p)


def test_merge_matches_direct_sum():
    rng = random.Random(99)
    for p in PRIMES:
        for _ in range(60):
            b1 = _random_blocks(rng, p)
            b2 = _random_blocks(rng, p)
            m1, m2 = block_matrix(b1, p), block_matrix(b2, p)
            n1, n2 = len(m1), len(m2)
            direct = tuple(
                tuple(
                    (m1[i][j] if i < n1 and j < n1 else
                     m2[i - n1][j - n1] if i >= n1 and j >= n1 else F(0))
                    for j in range(n1 + n2)
                )
                for i in range(n1 + n2)
            )
            merged = merge_blocks(_ones(b1 + b2), p)
            assert _signature(merged, p) == _signature(jordan_decompose(direct, p), p)


def test_merge_is_a_canonical_form():
    # merging again changes nothing, and the result does not depend on the
    # order of the blocks or on how their copies are counted: one pair per
    # copy, one per distinct block, or a block's count split over two pairs
    rng = random.Random(18)
    for p in PRIMES:
        for most, top in ((4, 2), (8, 5)) * 200:
            raw = _random_raw_blocks(rng, p, most, top)
            merged = merge_blocks(_ones(raw), p)
            assert merge_blocks(_ones(merged), p) == merged, (raw, p)
            rng.shuffle(raw)
            assert merge_blocks(_ones(raw), p) == merged, (raw, p)
            counted = list(Counter(raw).items())
            assert merge_blocks(counted, p) == merged, (raw, p)
            split = []
            for b, k in counted:
                cut = rng.randint(0, k)
                split += [(b, cut), (b, k - cut)] if cut else [(b, k)]
            rng.shuffle(split)
            assert merge_blocks(split, p) == merged, (raw, p)


def test_fold_units_matches_one_unit_at_a_time():
    # the counted 2-adic fold against the walk it replaces: sort the units,
    # fold the least three into their sum and an even form one scale up,
    # repeat; every residue count vector of up to 16 units
    def walk(units):
        us, h, y = sorted(units), 0, 0
        while len(us) >= 3:
            a, b, c = us[:3]
            s = (a + b + c) % 8
            h, y = (h + 1, y) if a * b * c * s % 8 == 7 else (h, y + 1)
            us = sorted([s] + us[3:])
        return tuple(us), h, y

    checked = 0
    for c1, c3, c5, c7 in product(range(17), repeat=4):
        if c1 + c3 + c5 + c7 <= 16:
            counts = (0, c1, 0, c3, 0, c5, 0, c7)
            units = [1] * c1 + [3] * c3 + [5] * c5 + [7] * c7
            assert _fold_units(counts) == walk(units), counts
            checked += 1
    assert checked == 4845


def test_with_unit():
    blocks = (("h", 1, 0),)
    aug = with_unit(blocks, 3, 2)
    assert aug == (("h", 1, 0), ("u", 3, 1))
    assert local_invariants(aug, 2).n == 3


def test_sparse_elimination_matches_dense_gram():
    # root-lattice Grams are sparse; a unimodular twist makes them dense
    rng = random.Random(32)
    for name in ("A2 A1^2 D4", "E6 A3", "A5 A1^3", "D5 A4 A1", "E7 A2 A1"):
        rs = RootSystem.parse(name)
        dense = _congruent(system_gram(rs), _random_unimodular(rng, rs.rank))
        assert eisenstein_coefficient(rs, 32) == coefficient_for_gram(dense, 32), name


def test_component_blocks_match_recorded():
    # every irreducible component up to rank 32 at the primes below 32;
    # 2-adic splittings are not unique, so this pins the elimination order
    kinds = [("A", r) for r in range(1, 33)] + [("D", r) for r in range(4, 33)]
    kinds += [("E", r) for r in (6, 7, 8)]
    lines = [
        f"{kind}{rank} {p} {component_blocks(kind, rank, p)}"
        for kind, rank in kinds
        for p in (2, 3, 5, 7, 11, 13, 17, 19, 23, 29, 31)
    ]
    assert len(lines) == 704
    assert digest(lines) == "7a3d85e3d417901f86b62a405a667ea3843b9807d2a192e6c13be8d278e28a53"


def _invariant_corpus():
    # up to 8 blocks of scale 0..5, as in test_siegel's polynomial digest
    rng = random.Random(12)
    return [(p, _random_blocks(rng, p, 8, 5)) for p in PRIMES for _ in range(550)]


def test_local_invariants_match_recorded():
    lines = [f"{p} {blocks} {local_invariants(blocks, p)}" for p, blocks in _invariant_corpus()]
    assert digest(lines) == "64c148a13d58c4e48a3f2ff6278cabf08210c21596be528fc13e5639c74d8f9a"


def test_invariants_match_rational_definitions():
    for p, blocks in _invariant_corpus():
        inv = local_invariants(blocks, p)
        n = inv.n
        assert inv.det == det(block_matrix(blocks, p)), (blocks, p)
        if n % 2:
            eta = hasse_invariant(_diag_over_qp(blocks, p), p)
            eta *= hilbert_symbol(inv.det, (-1) ** ((n + 1) // 2) * inv.det, p)
            eta *= hilbert_symbol(-1, -1, p) ** ((n * n - 1) // 8 % 2)
            assert (inv.xi, inv.eta) == (1, eta), (blocks, p)
        else:
            assert (inv.xi, inv.eta) == (chi_p((-1) ** (n // 2) * inv.det, p), 1), (blocks, p)
