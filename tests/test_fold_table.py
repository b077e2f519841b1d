"""The fold's table R[(ℓ, b)] and its packed-integer monomials.

``engine`` keys the table by the letters below the new letter alone and
packs each monomial into one int, with a field width that grows with the
degree of a call.  The counts here pin how many entries a word builds; the
rest checks that packing keeps every answer exact: long words whose
monomials keep letters above the new one, against plain rewriting, and
products whose exponents do not fit the default field width.
"""

import random
from fractions import Fraction

import pytest

from diffalg.engine import Poly, _context, is_pbw, multiply, normal_form
from diffalg.presentation import AlgebraPresentation

from conftest import build
from test_pbw_table import FIRST, rewrite

PLANE = {(1, 2): Fraction(3), (2, 1): Fraction(2)}  # D1 D2 -> 2/3 D2 D1


def _uniform(n: int, g, x) -> AlgebraPresentation:
    """Every g(i, j) = g, and x(i) the i-th entry of x."""
    return build(n, {(i, j): g for i in range(1, n + 1) for j in range(1, n + 1) if i != j},
                 dict(enumerate(x, start=1)))


# -- table size ------------------------------------------------------------------

@pytest.mark.parametrize("k", [1, 2, 7, 30])
def test_deep_word_on_a_homogeneous_plane_builds_k_entries(k):
    # every D2 after D1^k meets the one lower part D1^k; the chain stores D1^1..D1^k
    P = AlgebraPresentation(2, PLANE, {})
    got = normal_form((1,) * k + (2,) * k, P)
    assert got == Poly.monomial(2, (k, k), Fraction(2, 3) ** (k * k))
    assert len(_context(P).nf_cache["R"]) == k


@pytest.mark.parametrize("g, x", [(1, (1, 1, 1)), (Fraction(3, 2), (1, Fraction(-1, 3), 2)),
                                  (-2, (Fraction(1, 2), 3, -1))])
def test_cyclic_word_on_a_uniform_table_builds_forty_entries(g, x):
    P = _uniform(3, g, x)
    normal_form((1, 2, 3) * 5, P)
    assert len(_context(P).nf_cache["R"]) == 40


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
    # D1^300 does not fit the default fields: the 5 entries packed before it
    # are dropped, not kept beside the 300 packed at the new width
    P = AlgebraPresentation(2, PLANE, {})
    sizes = []
    for k in (5, 300, 5):
        assert normal_form((1,) * k + (2,), P) == Poly.monomial(2, (k, 1), Fraction(2, 3) ** k)
        sizes.append(len(_context(P).nf_cache["R"]))
    assert sizes == [5, 300, 300]
