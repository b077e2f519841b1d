"""The engine's integer forms against plain rewriting over ``Fraction``.

``engine`` keeps each combination as integer numerators over one common
denominator and builds a ``Fraction`` only for each term of a result.  On
tables with coprime denominators, 30-digit numerators and one coefficient of
999 digits, ``normal_form``, ``multiply`` and ``is_pbw`` must still agree with
first-ascent rewriting term for term, every coefficient must be a reduced,
nonzero rational, and the fold itself must do no ``Fraction`` arithmetic.
"""

import math
import random
from fractions import Fraction

import pytest

from diffalg import engine
from diffalg.engine import Poly, is_pbw, monomial_word, multiply, normal_form
from diffalg.presentation import AlgebraPresentation, parse_presentation
from diffalg.scalars import ONE

from test_pbw_table import FIRST, LAST, rewrite

SEEDS = range(24)
LONG = "4" + "7" * 998  # a 999-digit numerator, just under the literal cap
COEFFICIENTS = (Fraction(7, 9), Fraction(-11, 13), Fraction(10 ** 29 + 1, 17), 3)


def _value(rng: random.Random, zero: bool) -> str:
    big = rng.randrange(10 ** 29, 10 ** 30)
    choices = ["7/9", "-11/13", f"{big}/9", f"-{big}/13", "2", "-1"]
    return rng.choice(choices + ["0", "0", "0"] * zero)


def _random_table(seed: int) -> AlgebraPresentation:
    """n = 2..5, parsed from .dalg text.

    One table in three has x = 0 and one in three a single g for every
    ordered pair (a Lie algebra); both kinds are PBW.  In the rest zero g(j,i)
    and x(i) are common, and most are not PBW.
    """
    rng = random.Random(f"integer-forms:{seed}")
    n = rng.randint(2, 5)
    kind = seed % 3
    shared = _value(rng, zero=False)
    lines = [f"n = {n}"]
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            lines.append(f"g {i} {j} = {shared if kind == 1 else _value(rng, zero=False)}")
            lines.append(f"g {j} {i} = {shared if kind == 1 else _value(rng, zero=True)}")
        lines.append(f"x {i} = {0 if kind == 0 else _value(rng, zero=kind == 2)}")
    # one coefficient near the cap
    key = "g 1 2 = " if kind == 0 else f"x {n} = "
    lines = [line if not line.startswith(key) else f"{key}{LONG}/{rng.choice((9, 13))}"
             for line in lines]
    return parse_presentation("\n".join(lines) + "\n")


def _random_word(rng: random.Random, n: int, longest: int) -> tuple:
    return tuple(rng.randint(1, n) for _ in range(rng.randint(0, longest)))


def _assert_reduced(poly: Poly) -> None:
    for c in poly.terms.values():
        assert type(c) is type(ONE)
        assert c != 0 and c.denominator > 0
        assert math.gcd(c.numerator, c.denominator) == 1


def _plane(g12, g21, x) -> AlgebraPresentation:
    return AlgebraPresentation(2, {(1, 2): Fraction(g12), (2, 1): Fraction(g21)},
                               {1: Fraction(x), 2: Fraction(x)})


def test_random_tables_hold_pbw_and_non_pbw_ones():
    verdicts = [is_pbw(_random_table(seed)).pbw for seed in SEEDS]
    assert verdicts.count(False) >= 5 and verdicts.count(True) >= 5


@pytest.mark.parametrize("seed", SEEDS)
def test_rules_are_coprime_with_a_positive_denominator(seed):
    for Q, X, Y, G in engine._context(_random_table(seed)).rules.values():
        assert G > 0 and math.gcd(Q, X, Y, G) == 1


@pytest.mark.parametrize("seed", SEEDS)
def test_normal_form_matches_rewriting(seed):
    P = _random_table(seed)
    rng = random.Random(3000 + seed)
    combination, expected = {}, {}
    for coefficient in COEFFICIENTS * 2:
        word = _random_word(rng, P.n, 6)
        got = normal_form(word, P)
        assert got.terms == rewrite(P, word, FIRST)
        _assert_reduced(got)
        combination[word] = combination.get(word, 0) + coefficient
        for m, c in got.terms.items():
            expected[m] = expected.get(m, 0) + coefficient * c
    got = normal_form(combination, P)
    assert got.terms == {m: c for m, c in expected.items() if c != 0}
    _assert_reduced(got)


@pytest.mark.parametrize("seed", SEEDS)
def test_multiply_matches_rewriting_of_the_joined_words(seed):
    P = _random_table(seed)
    rng = random.Random(4000 + seed)
    p, q = (normal_form({_random_word(rng, P.n, 3): rng.choice(COEFFICIENTS)
                         for _ in range(3)}, P) for _ in range(2))
    expected: dict = {}
    for m1, c1 in p.terms.items():
        for m2, c2 in q.terms.items():
            for m, c in rewrite(P, monomial_word(m1) + monomial_word(m2), FIRST).items():
                expected[m] = expected.get(m, 0) + c1 * c2 * c
    got = multiply(p, q, P)
    assert got.terms == {m: c for m, c in expected.items() if c != 0}
    _assert_reduced(got)
    _assert_reduced(p)


@pytest.mark.parametrize("seed", SEEDS)
def test_first_failing_triple_matches_rewriting(seed):
    P = _random_table(seed)
    triples = [(a, b, c) for a in range(1, P.n + 1)
               for b in range(a + 1, P.n + 1) for c in range(b + 1, P.n + 1)]
    failures = [t for t in triples if rewrite(P, t, FIRST) != rewrite(P, t, LAST)]
    assert is_pbw(P).first_failure == (failures[0] if failures else None)


def test_the_fold_makes_no_fraction_arithmetic(monkeypatch):
    # an empty context cache, so that the rules and the table are made here
    monkeypatch.setattr(engine, "_contexts", {})
    P = _plane(1, 2, 1)
    word = (1,) * 30 + (2,) * 30
    calls = {"arithmetic": 0, "rational": 0}

    def counted(kind, fn):
        def wrapper(*args, **kwargs):
            calls[kind] += 1
            return fn(*args, **kwargs)
        return wrapper

    for dunder in ("__mul__", "__rmul__", "__add__", "__radd__", "__sub__",
                   "__rsub__", "__truediv__", "__rtruediv__"):
        monkeypatch.setattr(Fraction, dunder, counted("arithmetic", getattr(Fraction, dunder)))
    monkeypatch.setattr(engine, "rational", counted("rational", engine.rational))
    got = normal_form(word, P)
    monkeypatch.undo()
    assert calls == {"arithmetic": 0, "rational": 960}
    assert len(got.terms) == 960 and got.coeff((30, 30)) == 2 ** 900


def test_deep_word_on_a_rational_plane_is_exact():
    # D1^k D2^k = q^(k*k) D2^k D1^k with q = g(2,1)/g(1,2) = -10/21
    P = _plane(Fraction(3, 2), Fraction(-5, 7), 0)
    got = normal_form((1,) * 200 + (2,) * 200, P)
    assert got == Poly.monomial(2, (200, 200), Fraction(-10, 21) ** 40000)
