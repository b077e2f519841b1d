"""The multiplication table against plain first/last-ascent rewriting.

``engine`` computes normal forms as folds of one letter at a time, from pair rows.
The reducer here rewrites whole words with no table and no cache: FIRST
rewrites the first ascent of a word, LAST the last.  ``normal_form`` must
agree with FIRST term for term on every table, and the two sides of each
triple check with FIRST and LAST, including on tables that are not PBW,
where the two orders give different answers.
"""

import heapq
import random
import time
from decimal import Decimal
from fractions import Fraction

import pytest

from diffalg.engine import (Poly, diamond_check_triple, is_pbw, monomial_word,
                            multiply, normal_form, word_exponents)
from diffalg.presentation import AlgebraPresentation

from test_cli import run

SEEDS = range(40)
FIRST, LAST = "first ascent", "last ascent"
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


def _triples(n: int) -> list:
    return [(a, b, c) for a in range(1, n + 1)
            for b in range(a + 1, n + 1) for c in range(b + 1, n + 1)]


def _rank(word: tuple) -> tuple:
    """Heap key that pops longer words first, and at one length those with more
    ascending pairs of letters (i < j with word[i] < word[j])."""
    ascending = sum(a < b for i, a in enumerate(word) for b in word[i + 1:])
    return -len(word), -ascending, word


def rewrite(P: AlgebraPresentation, word: tuple, order: str) -> dict:
    """Normal form of ``word`` by rewriting one ascent at a time, FIRST or LAST.

    A rewrite either drops a letter or turns one ascending pair of letters
    into a descending pair, so every word it makes ranks below the word it
    rewrote.  Taking words in rank order, each word is rewritten once, with
    every contribution to its coefficient already summed.
    """
    todo = {tuple(word): Fraction(1)}
    heap = [_rank(tuple(word))]
    done: dict = {}
    while heap:
        w = heapq.heappop(heap)[2]
        c = todo.pop(w)
        if c == 0:
            continue
        ascents = [p for p in range(len(w) - 1) if w[p] < w[p + 1]]
        if not ascents:
            m = word_exponents(w, P.n)
            done[m] = done.get(m, 0) + c
            continue
        p = ascents[0] if order == FIRST else ascents[-1]
        a, b = w[p], w[p + 1]
        g = P.g(a, b)
        for new, coeff in ((w[:p] + (b, a) + w[p + 2:], P.g(b, a) / g),
                           (w[:p] + (a,) + w[p + 2:], P.x(b) / g),
                           (w[:p] + (b,) + w[p + 2:], -P.x(a) / g)):
            if coeff != 0:
                if new not in todo:
                    todo[new] = 0
                    heapq.heappush(heap, _rank(new))
                todo[new] += c * coeff
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
        assert normal_form(word, P).terms == rewrite(P, word, FIRST)


@pytest.mark.parametrize("seed", SEEDS)
def test_triple_sides_match_first_and_last_ascent_rewriting(seed):
    P = _random_table(seed)
    for triple in _triples(P.n):
        check = diamond_check_triple(P, *triple)
        assert check.nf_left.terms == rewrite(P, triple, FIRST)
        assert check.nf_right.terms == rewrite(P, triple, LAST)


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
            for m, c in rewrite(P, word, FIRST).items():
                expected[m] = expected.get(m, 0) + c1 * c2 * c
    assert multiply(p, q, P).terms == {m: c for m, c in expected.items() if c != 0}


@pytest.mark.parametrize("seed", SEEDS)
def test_first_failing_triple_matches_rewriting(seed):
    P = _random_table(seed)
    failures = [t for t in _triples(P.n) if rewrite(P, t, FIRST) != rewrite(P, t, LAST)]
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
