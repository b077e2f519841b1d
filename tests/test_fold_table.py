"""The fold's pair rows and its packed-integer monomials.

``engine`` moves each new letter D_b through the lower letters one letter
at a time, reading D_a^k D_b = D_b σ(D_a)^k + Q_k(D_a) from two rows made
once per context for each pair a < b and exponent k met, and packs each
monomial into one int, with a field width that grows with the degree of a
call.  The counts here pin which rows a word makes and how many terms they
hold; the rest checks that the fold keeps every answer exact: random
tables and runs against plain rewriting, the pair identity on each rule
shape, long words whose monomials keep letters above the new one, and
products whose exponents do not fit the default field width.
"""

import random
from fractions import Fraction

import pytest

from diffalg.engine import Poly, _context, is_pbw, multiply, normal_form
from diffalg.presentation import AlgebraPresentation
from diffalg.scalars import _binomial, _geometric

from conftest import build
from test_pbw_table import FIRST, rewrite

PLANE = {(1, 2): Fraction(3), (2, 1): Fraction(2)}  # D1 D2 -> 2/3 D2 D1


def _uniform(n: int, g, x) -> AlgebraPresentation:
    """Every g(i, j) = g, and x(i) the i-th entry of x."""
    return build(n, {(i, j): g for i in range(1, n + 1) for j in range(1, n + 1) if i != j},
                 dict(enumerate(x, start=1)))


# -- rows ------------------------------------------------------------------------

def _rows(P: AlgebraPresentation) -> dict:
    return _context(P).nf_cache["rows"]


def _row_terms(P: AlgebraPresentation) -> int:
    """Terms stored over all rows: each σ-row and Q-row counted once."""
    return sum(len(sigma) + len(geo) for _, _, sigma, geo in _rows(P).values())


@pytest.mark.parametrize("k", [1, 2, 7, 30])
def test_deep_word_on_a_homogeneous_plane_builds_one_row(k):
    # every D2 after D1^k meets the one run D1^k, so the pair (1, 2) needs the
    # row of that k only; with x = 0 it is the one term (Q t)^k
    P = AlgebraPresentation(2, PLANE, {})
    got = normal_form((1,) * k + (2,) * k, P)
    assert got == Poly.monomial(2, (k, k), Fraction(2, 3) ** (k * k))
    e_1, e_2 = _context(P).units
    assert list(_rows(P)) == [k * e_1 + e_2]
    assert _row_terms(P) == 1


@pytest.mark.parametrize("g, x", [(1, (1, 1, 1)), (Fraction(3, 2), (1, Fraction(-1, 3), 2)),
                                  (-2, (Fraction(1, 2), 3, -1))])
def test_cyclic_word_on_a_uniform_table_builds_fifteen_rows(g, x):
    # one row for each pair a < b and each exponent 1..5 of D_a it meets;
    # q = 1 and x != 0, so the row of k holds k + 1 terms of σ and k of Q_k
    P = _uniform(3, g, x)
    normal_form((1, 2, 3) * 5, P)
    e_1, e_2, e_3 = _context(P).units
    pairs = ((e_1, e_2), (e_1, e_3), (e_2, e_3))
    assert sorted(_rows(P)) == sorted(k * e_a + e_b for e_a, e_b in pairs for k in range(1, 6))
    assert _row_terms(P) == 3 * sum(2 * k + 1 for k in range(1, 6))


def test_a_long_run_then_one_letter_stores_one_row():
    # D1^999 D2 makes the row of k = 999 alone, not one entry per lower part
    # D1^j with j <= 999; its 1000 + 999 terms bound what the op keeps
    P = AlgebraPresentation(2, {(1, 2): Fraction(1), (2, 1): Fraction(2)},
                            {1: Fraction(1), 2: Fraction(1)})
    got = normal_form((1,) * 999 + (2,), P)
    assert len(got.terms) == 1999
    assert len(_rows(P)) == 1
    assert _row_terms(P) == 1999


# -- exactness -------------------------------------------------------------------

def _sparse_table(rng: random.Random) -> AlgebraPresentation:
    """n = 2..5 with g(j,i) = 0 and x(i) = 0 common, so most tables are not PBW."""
    n = rng.randint(2, 5)
    g = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            g[(i, j)] = Fraction(rng.choice((1, -1, 2, Fraction(1, 3))))
            g[(j, i)] = Fraction(rng.choice((0, 0, 1, -1, 2, Fraction(1, 2))))
    x = {i: Fraction(rng.choice((0, 0, 1, -1, Fraction(2, 3)))) for i in range(1, n + 1)}
    return AlgebraPresentation(n, g, x)


def test_long_words_with_upper_parts_match_rewriting():
    rng = random.Random("packed-fold")
    nonzero = not_pbw = zero_swap = 0
    for _ in range(40):
        P = _sparse_table(rng)
        not_pbw += not is_pbw(P).pbw
        zero_swap += any(not P.g(j, i) for i in P.generators for j in P.generators if i < j)
        degree = rng.randint(10, 14)
        tail = rng.randint(4, 6)
        # a normal prefix whose high letters stay above most letters folded in
        upper = sorted((rng.randint(1, P.n) for _ in range(degree - tail)), reverse=True)
        word = tuple(upper + [rng.randint(1, P.n) for _ in range(tail)])
        expected = rewrite(P, word, FIRST)
        assert normal_form(word, P).terms == expected, (P.render(), word)
        nonzero += len(expected) > 1
    assert nonzero >= 20 and not_pbw >= 10 and zero_swap >= 10


def _run_table(rng: random.Random) -> AlgebraPresentation:
    """n = 2..4; a pair's q is 1 about half the time, and zero swaps and zero
    x are common, so many tables are not PBW."""
    n = rng.randint(2, 4)
    g = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            g[(i, j)] = lead = Fraction(rng.choice((1, -1, 2, Fraction(1, 3), Fraction(-3, 2))))
            g[(j, i)] = rng.choice((lead, lead, lead, 0, Fraction(2), -lead, Fraction(-1, 2)))
    x = {i: Fraction(rng.choice((0, 0, 1, -1, Fraction(2, 3)))) for i in range(1, n + 1)}
    return AlgebraPresentation(n, g, x)


def _run_word(rng: random.Random, n: int) -> tuple:
    """Runs of random letters: one of length 6..12, and a few short ones around it."""
    runs = [(rng.randint(1, n), rng.randint(1, 3)) for _ in range(rng.randint(1, 3))]
    runs.insert(rng.randint(0, len(runs)), (rng.randint(1, n - 1), rng.randint(6, 12)))
    return tuple(a for a, k in runs for _ in range(k))


def test_runs_on_random_tables_match_rewriting():
    rng = random.Random("pair-rows")
    seen = dict.fromkeys(("not pbw", "zero swap", "x = 0", "q = 1", "q != 1", "run of 12"), 0)
    for _ in range(60):
        P = _run_table(rng)
        word = _run_word(rng, P.n)
        assert normal_form(word, P).terms == rewrite(P, word, FIRST), (P.render(), word)
        pairs = [(i, j) for i in P.generators for j in P.generators if i < j]
        seen["not pbw"] += not is_pbw(P).pbw
        seen["zero swap"] += any(not P.g(j, i) for i, j in pairs)
        seen["x = 0"] += any(not P.x(i) for i in P.generators)
        seen["q = 1"] += any(P.g(j, i) == P.g(i, j) for i, j in pairs)
        seen["q != 1"] += any(P.g(j, i) != P.g(i, j) for i, j in pairs)
        seen["run of 12"] += any(word[i:i + 12] == (word[i],) * 12 for i in range(len(word)))
    assert min(seen.values()) >= 5, seen


@pytest.mark.parametrize("x", [{2: Fraction(5)}, {}])
def test_a_run_past_the_default_width_matches_rewriting(x):
    # D1^256 D2 widens the fields to 9 bits; with x(1) = 0 rewriting meets
    # only the words D1^i D2 D1^j and D1^256
    P = AlgebraPresentation(2, {(1, 2): Fraction(3), (2, 1): Fraction(-2)}, x)
    word = (1,) * 256 + (2,)
    assert normal_form(word, P).terms == rewrite(P, word, FIRST)
    assert _context(P).width == 9


# (g(1,2), g(2,1), x(1), x(2)) of a plane, one for each shape of its rule
# G D1 D2 -> Q D2 D1 + X D1 + Y D2, σ(t) = (Q t + Y)/G
RULE_SHAPES = {
    "q != 1": (3, 2, 1, -2),
    "q = 1": (Fraction(3, 2), Fraction(3, 2), 1, 2),
    "sigma(t) = t": (2, 2, 0, 1),
    "zero swap": (2, 0, 1, 3),
    "X = 0": (3, -1, 2, 0),
    "Y = 0": (3, -1, 0, 2),
    "q = -1, Y = 0": (1, -1, 0, 1),
    "homogeneous": (Fraction(-5, 7), Fraction(3, 2), 0, 0),
}


@pytest.mark.parametrize("shape", RULE_SHAPES)
def test_pair_identity_on_each_rule_shape(shape):
    # D1^k D2 = D2 σ(D1)^k + Q_k(D1), both rows over G^k, against rewriting
    g12, g21, x1, x2 = RULE_SHAPES[shape]
    P = AlgebraPresentation(2, {(1, 2): Fraction(g12), (2, 1): Fraction(g21)},
                            {1: Fraction(x1), 2: Fraction(x2)})
    Q, X, Y, G = _context(P).rules[(1, 2)]
    for k in range(1, 11):
        power = _binomial(Q, Y, k)
        got = {(i, 1): Fraction(c, G ** k) for i, c in power}
        got.update({(i + 1, 0): Fraction(X * c, G ** k)
                    for i, c in _geometric(power, Q, Y, G, k) if X})
        assert got == rewrite(P, (1,) * k + (2,), FIRST), (shape, k)


@pytest.mark.parametrize("expts, product", [
    ((2 ** 40, 0), (2 ** 40 + 1, 0)),           # D1^(2^40) . D1
    ((0, 2 ** 40), (1, 2 ** 40)),               # D2^(2^40) . D1
    ((2 ** 40, 0, 7), (2 ** 40 + 1, 0, 7)),     # D3^7 D1^(2^40) . D1
])
def test_rewrite_free_products_past_the_default_width_are_exact(expts, product):
    n = len(expts)
    P = _uniform(n, 2, (1,) * n)
    big = Poly.monomial(n, expts, Fraction(5, 3))
    assert multiply(big, Poly.generator(n, 1), P) == Poly.monomial(n, product, Fraction(5, 3))


def test_a_wide_upper_part_rides_along_a_rewrite():
    # D3^(2^40) D1 . D2: only D1 D2 is rewritten, and D3^(2^40) stays in front
    P = _uniform(3, Fraction(3, 2), (1, Fraction(-1, 3), 2))
    small = normal_form((1, 2), P)
    wide = multiply(Poly.monomial(3, (1, 0, 2 ** 40)), Poly.generator(3, 2), P)
    assert wide.terms == {(m[0], m[1], m[2] + 2 ** 40): c for m, c in small.terms.items()}


def test_widening_drops_the_table_and_stays_exact():
    # D1^300 does not fit the default fields: the row of D1^5 packed before it
    # is dropped, and D1^5 gets a row again at the new width
    P = AlgebraPresentation(2, PLANE, {})
    sizes = []
    for k in (5, 300, 5):
        assert normal_form((1,) * k + (2,), P) == Poly.monomial(2, (k, 1), Fraction(2, 3) ** k)
        sizes.append(len(_rows(P)))
    assert sizes == [1, 1, 2]
