"""``reduce`` renders from the fold's integer form, with no Poly and no Fraction.

``engine.normal_form_terms`` gives the reduced ``(exponents, num, den)``
terms in rendering order and ``exprs.format_terms`` prints them; the text
must be the one ``format_poly(normal_form(...))`` prints on every input.
"""

import random
from fractions import Fraction

from diffalg.cli import main
from diffalg.engine import is_pbw, normal_form, normal_form_terms
from diffalg.exprs import format_poly, format_terms, parse_poly
from diffalg.presentation import AlgebraPresentation

from conftest import relation_combination
from test_cli import run

_VALUES = (1, -1, 2, 3, Fraction(1, 2), Fraction(-2, 3), Fraction(5, 7))


def _table(rng: random.Random, n: int, kind: str) -> AlgebraPresentation:
    """A seeded table of one kind: "x0" (every x zero, so PBW), "uniform"
    (one g for every pair and nonzero x, PBW) or "free" (drawn g and
    nonzero x, rarely PBW)."""
    g = {}
    common = Fraction(rng.choice(_VALUES))
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                g[(i, j)] = common if kind == "uniform" else Fraction(rng.choice(_VALUES))
    x = {i: Fraction(0 if kind == "x0" else rng.choice(_VALUES)) for i in range(1, n + 1)}
    return AlgebraPresentation(n, g, x)


def _combinations(rng: random.Random, P: AlgebraPresentation) -> list:
    """Words, sums of words with a constant term, and sums that cancel to 0."""
    n = P.n

    def word(longest):
        return tuple(rng.randint(1, n) for _ in range(rng.randint(0, longest)))

    out = [word(9) for _ in range(4)]
    for _ in range(3):
        comb = {word(7): Fraction(rng.randint(-9, 9) or 1, rng.randint(1, 5)) for _ in range(3)}
        comb[()] = Fraction(rng.choice((-3, 1, 5)), rng.randint(1, 4))
        out.append(comb)
    a = rng.randint(1, n - 1)
    out.append(relation_combination(P, a, rng.randint(a + 1, n)))  # reduces to 0
    return out


def test_terms_render_as_the_poly_does():
    kinds, texts, constant = set(), set(), False
    for seed in range(48):
        rng = random.Random(f"render-terms:{seed}")
        n = 2 + seed % 4
        kind = ("x0", "uniform", "free")[seed // 4 % 3]
        P = _table(rng, n, kind)
        kinds.add((n, is_pbw(P).pbw, kind == "x0"))
        for comb in _combinations(rng, P):
            terms = normal_form_terms(comb, P)
            text = format_terms(terms)
            assert text == format_poly(normal_form(comb, P)), (seed, comb)
            texts.add(text)
            constant |= any(not any(e) for e, _, _ in terms)
    # n = 2..5, each PBW with x = 0 and with x != 0, and n = 3..5 not PBW
    # (every table with n = 2 is PBW)
    for n in range(2, 6):
        assert {(n, True, True), (n, True, False)} <= kinds
        assert n == 2 or (n, False, False) in kinds
    assert "0" in texts and constant


def test_terms_are_reduced_and_in_rendering_order():
    P = AlgebraPresentation(3, {(i, j): Fraction(3, 2) for i in range(1, 4)
                                for j in range(1, 4) if i != j},
                            {1: Fraction(-1, 3), 2: Fraction(2, 3), 3: Fraction(-1)})
    terms = normal_form_terms((1, 2, 3) * 3 + (2, 1), P)
    keys = [(sum(e), e[::-1]) for e, _, _ in terms]
    assert keys == sorted(keys, reverse=True) and len(set(keys)) == len(keys)
    assert all(den > 0 and Fraction(num, den).denominator == den for _, num, den in terms)
    assert normal_form_terms({}, P) == [] and format_terms([]) == "0"


def test_a_full_field_degree_sorts_as_a_degree(capsys, tmp_path):
    # the degree bound 255 fills the default 8-bit fields; 256 widens them
    path = tmp_path / "plane.dalg"
    path.write_text("n = 2\ng 1 2 = 1\ng 2 1 = 1\n")
    assert run(capsys, "reduce", path, "D1^255 + D2") == (0, "D1^255 + D2\n", "")
    assert run(capsys, "reduce", path, "D1^256 + D2") == (0, "D1^256 + D2\n", "")
    assert run(capsys, "reduce", path, "2 + D2 D1^254 - D2^2") == (
        0, "D2 D1^254 - D2^2 + 2\n", "")


def test_a_widened_context_renders_as_the_poly_does():
    # a term of degree 300 widens the fields past one byte, so the terms are
    # unpacked by shifts, not by bytes
    P = AlgebraPresentation(3, {(i, j): Fraction(3, 2) for i in range(1, 4)
                                for j in range(1, 4) if i != j},
                            {1: Fraction(-1, 3), 2: Fraction(2, 3), 3: Fraction(-1)})
    comb = {(1, 2, 3) * 3 + (2, 1): Fraction(1), (1,) * 299 + (2,): Fraction(-2, 5)}
    terms = normal_form_terms(comb, P)
    assert len(terms) > 100 and max(sum(e) for e, _, _ in terms) == 300
    assert format_terms(terms) == format_poly(normal_form(comb, P))


def test_reduce_builds_fewer_fractions_than_answer_terms(capsys, tmp_path, monkeypatch):
    # (D1 D2 D3)^5 on a uniform inhomogeneous table: 198 terms with
    # non-integer coefficients, each once a Fraction
    P = AlgebraPresentation(3, {(i, j): Fraction(3, 2) for i in range(1, 4)
                                for j in range(1, 4) if i != j},
                            {1: Fraction(-1, 3), 2: Fraction(2, 3), 3: Fraction(-1)})
    path = tmp_path / "uniform.dalg"
    path.write_text(P.render())
    expr = "D1 D2 D3 " * 5
    answer = normal_form(parse_poly(expr, 3), P)
    terms = len(answer.terms)
    assert terms > 100
    made = []
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        made.append(cls)
        return new(cls, *args, **kwargs)

    monkeypatch.setattr(Fraction, "__new__", counted)
    assert main(["reduce", str(path), expr]) == 0
    monkeypatch.undo()
    assert capsys.readouterr().out == format_poly(answer) + "\n"
    # the parse builds a few; the counter is live
    assert 0 < len(made) < terms
