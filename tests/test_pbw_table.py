"""The multiplication tables against plain first/last-ascent rewriting.

``engine`` computes normal forms as folds over the tables R[(m, b)] = m D_b
and L[(a, m)] = D_a m.  The reducer here rewrites whole words with no table
and no cache: LEFTMOST rewrites the first ascent of a word, RIGHTMOST the
last.  They must agree term for term on every table, including tables that
are not PBW, where the two strategies give different answers.
"""

import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from diffalg.engine import (LEFTMOST, RIGHTMOST, Poly, is_pbw, monomial_word,
                            multiply, normal_form, word_exponents)
from diffalg.presentation import AlgebraPresentation

from test_cli import run

SEEDS = range(40)
_VALUES = (0, 0, 1, 1, -1, 2, Fraction(1, 2), Fraction(-2, 3), 3)


def _random_table(seed: int) -> AlgebraPresentation:
    """n = 2..5; zero g(j,i) and x(i) are common, so many tables are not PBW."""
    rng = random.Random(seed)
    n = rng.randint(2, 5)
    g = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            g[(i, j)] = Fraction(rng.choice((1, -1, 2, Fraction(1, 3), 5)))
            g[(j, i)] = Fraction(rng.choice(_VALUES))
    x = {i: Fraction(rng.choice(_VALUES)) for i in range(1, n + 1)}
    return AlgebraPresentation(n, g, x)


def _random_word(rng: random.Random, n: int, longest: int) -> tuple:
    return tuple(rng.randint(1, n) for _ in range(rng.randint(0, longest)))


def rewrite(P: AlgebraPresentation, word: tuple, strategy: str) -> dict:
    """Normal form of ``word`` by rewriting one ascent at a time."""
    todo = {tuple(word): Fraction(1)}
    done: dict = {}
    while todo:
        w, c = todo.popitem()
        if c == 0:
            continue
        ascents = [p for p in range(len(w) - 1) if w[p] < w[p + 1]]
        if not ascents:
            m = word_exponents(w, P.n)
            done[m] = done.get(m, 0) + c
            continue
        p = ascents[0] if strategy == LEFTMOST else ascents[-1]
        a, b = w[p], w[p + 1]
        g = P.g(a, b)
        for new, coeff in ((w[:p] + (b, a) + w[p + 2:], P.g(b, a) / g),
                           (w[:p] + (a,) + w[p + 2:], P.x(b) / g),
                           (w[:p] + (b,) + w[p + 2:], -P.x(a) / g)):
            if coeff != 0:
                todo[new] = todo.get(new, 0) + c * coeff
    return {m: c for m, c in done.items() if c != 0}


def test_some_random_tables_are_not_pbw():
    verdicts = [is_pbw(_random_table(seed)).pbw for seed in SEEDS]
    assert verdicts.count(False) >= 10 and verdicts.count(True) >= 5


@pytest.mark.parametrize("seed", SEEDS)
def test_normal_form_matches_rewriting(seed):
    P = _random_table(seed)
    rng = random.Random(1000 + seed)
    for _ in range(8):
        word = _random_word(rng, P.n, 6)
        for strategy in (LEFTMOST, RIGHTMOST):
            assert normal_form(word, P, strategy).terms == rewrite(P, word, strategy)


@pytest.mark.parametrize("seed", SEEDS)
def test_multiply_matches_rewriting_of_the_joined_words(seed):
    P = _random_table(seed)
    rng = random.Random(2000 + seed)
    p, q = (normal_form({_random_word(rng, P.n, 3): Fraction(rng.randint(1, 3))
                         for _ in range(3)}, P) for _ in range(2))
    expected: dict = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            word = monomial_word(m1) + monomial_word(m2)
            for m, c in rewrite(P, word, LEFTMOST).items():
                expected[m] = expected.get(m, 0) + c1 * c2 * c
    assert multiply(p, q, P).terms == {m: c for m, c in expected.items() if c != 0}


@pytest.mark.parametrize("seed", SEEDS)
def test_first_failing_triple_matches_rewriting(seed):
    P = _random_table(seed)
    failures = [(a, b, c) for a in range(1, P.n + 1)
                for b in range(a + 1, P.n + 1) for c in range(b + 1, P.n + 1)
                if rewrite(P, (a, b, c), LEFTMOST) != rewrite(P, (a, b, c), RIGHTMOST)]
    report = is_pbw(P)
    assert report.first_failure == (failures[0] if failures else None)
    assert report.pbw == (not failures)


def test_scalar_factors_scale_the_other_side(p3):
    d12 = normal_form((1, 2), p3)
    assert multiply(Poly.scalar(3, Fraction(-2, 3)), d12, p3) == d12.scale(Fraction(-2, 3))
    assert multiply(d12, Poly.scalar(3, 5), p3) == d12.scale(5)
    assert multiply(Poly.zero(3), d12, p3).is_zero()
    assert multiply(d12, Poly.one(3), p3) == d12


def test_deep_word_on_a_quantum_plane(capsys, tmp_path):
    # D1^k D2^k = q^(k*k) D2^k D1^k; q = 2/3 gives a numerator and a
    # denominator past str()'s default 4300-digit limit
    path = tmp_path / "plane.dalg"
    path.write_text("n = 2\ng 1 2 = 3\ng 2 1 = 2\n")
    rc, out, err = run(capsys, "reduce", path, "D1^200 D2^200")
    assert rc == 0 and err == ""
    coeff, word = out.split(" * ")
    num, den = coeff.split("/")
    assert Decimal(num) == Decimal(2 ** 40000) and Decimal(den) == Decimal(3 ** 40000)
    assert word == "D2^200 D1^200\n"


def test_degree_thirty_word_on_a_uniform_table():
    g = {(i, j): Fraction(1) for i in range(1, 4) for j in range(1, 4) if i != j}
    P = AlgebraPresentation(3, g, {1: Fraction(1), 2: Fraction(1), 3: Fraction(1)})
    start = time.monotonic()
    got = normal_form((1, 2, 3) * 10, P)
    assert time.monotonic() - start < 60
    assert got.degree() == 30 and got.coeff((10, 10, 10)) == 1
