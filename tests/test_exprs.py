"""Expression grammar: parsing, canonical rendering, and error locations."""

import random

import pytest
from hypothesis import given, settings, strategies as st

from diffalg.engine import Poly, monomial_word
from diffalg.exprs import ExpressionError, format_poly, format_word, parse_poly
from diffalg.scalars import rational

from conftest import poly_of


# -- parsing ------------------------------------------------------------------

def test_written_order_is_preserved():
    assert parse_poly("D1 D2", 3) == {(1, 2): rational(1)}
    assert parse_poly("D2 D1", 3) == {(2, 1): rational(1)}


def test_coefficients_exponents_and_constants():
    got = parse_poly("3/2 * D1^2 D2 - 1", 3)
    assert got == {(1, 1, 2): rational(3, 2), (): rational(-1)}


def test_star_is_optional_after_coefficient():
    assert parse_poly("2 D1", 3) == parse_poly("2 * D1", 3)


def test_leading_sign_and_accumulation():
    assert parse_poly("-D1 + D1 + D1", 3) == {(1,): rational(1)}
    assert parse_poly("D1 - D1", 3) == {}


def test_zero_exponent_is_the_constant_term():
    assert parse_poly("D1^0", 3) == {(): rational(1)}
    assert parse_poly("2 * D1^0", 3) == {(): rational(2)}


def test_whitespace_is_free_between_tokens():
    assert parse_poly("D2D1", 3) == {(2, 1): rational(1)}
    assert parse_poly("  D2   D1  ", 3) == {(2, 1): rational(1)}


@pytest.mark.parametrize("text,fragment,col", [
    ("D0", "generator D0 out of range 1..3", 1),
    ("D4", "generator D4 out of range 1..3", 1),
    ("D1 D9", "generator D9 out of range 1..3", 4),
    ("2 +", "dangling sign at end of expression", 3),
    ("* D1", "expected a rational or a generator factor", 1),
    ("D1 ^", "exponent must be a nonnegative integer", 4),
    ("D1 ^ 1/2", "exponent must be a nonnegative integer", 4),
    ("3 4", "expected '+' or '-' between terms, got '4'", 3),
    ("D1 + + D2", "expected a rational or a generator factor", 6),
    ("D1 @ 2", "unexpected character '@'", 4),
])
def test_error_messages_and_columns(text, fragment, col):
    with pytest.raises(ExpressionError) as err:
        parse_poly(text, 3)
    assert fragment in str(err.value)
    assert f"(column {col})" in str(err.value)
    assert err.value.col == col


@pytest.mark.parametrize("text,literal,col", [
    ("1/0", "1/0", 1),
    ("D1 - 0/0", "0/0", 6),
    ("D2 + 3/000 * D1", "3/000", 6),
])
def test_zero_denominator_is_a_grammar_error(text, literal, col):
    with pytest.raises(ExpressionError) as err:
        parse_poly(text, 3)
    assert str(err.value) == (f"zero denominator in rational {literal!r} "
                              f"(column {col})")
    assert err.value.col == col


def test_a_zero_numerator_over_a_nonzero_denominator_is_zero():
    assert parse_poly("0/5 + D1 + 3/010 D1", 3) == {(1,): rational(13, 10)}


def test_empty_expression_has_no_column():
    with pytest.raises(ExpressionError) as err:
        parse_poly("   ", 3)
    assert str(err.value) == "empty expression"
    assert err.value.col is None


# -- rendering ----------------------------------------------------------------

def test_format_word_groups_exponents():
    assert format_word((3, 1, 1)) == "D3 D1^2"
    assert format_word((2,)) == "D2"
    assert format_word(()) == ""


def test_format_orders_by_degree_then_word():
    p = poly_of(3, {(2, 1): 1, (1,): 1, (2,): -1})
    assert format_poly(p) == "D2 D1 - D2 + D1"


def test_format_zero_scalars_and_signs():
    assert format_poly(Poly.zero(3)) == "0"
    assert format_poly(Poly.scalar(3, rational(3, 2))) == "3/2"
    assert format_poly(poly_of(3, {(1,): -1})) == "-D1"
    assert format_poly(poly_of(3, {(2, 2, 1): rational(5, 3)})) == "5/3 * D2^2 D1"


@pytest.mark.parametrize("n", range(1, 7))
def test_terms_render_and_sort_as_their_decreasing_words(n):
    # format_poly works from exponents; (degree, word) is the order and
    # format_word the text that the terms' decreasing words give
    rng = random.Random(f"format-order:{n}")
    monomials = {tuple(rng.choice((0, 0, 1, 2, 3, 11)) for _ in range(n))
                 for _ in range(300)}
    by_word = sorted(monomials, key=lambda m: (sum(m), monomial_word(m)), reverse=True)
    p = Poly(n, {m: rational(1) for m in monomials})
    words = [format_word(monomial_word(m)) or "1" for m in by_word]
    assert format_poly(p) == " + ".join(words)


# -- round trip ---------------------------------------------------------------

coeffs = st.fractions(min_value=-9, max_value=9, max_denominator=7)
polys = st.dictionaries(
    st.tuples(st.integers(0, 3), st.integers(0, 3), st.integers(0, 3)),
    coeffs.filter(lambda c: c != 0),
    max_size=5,
)


@settings(max_examples=80, deadline=None)
@given(polys)
def test_format_then_parse_is_identity(table):
    p = Poly.zero(3)
    for expts, c in table.items():
        p = p + Poly.monomial(3, expts, rational(c.numerator, c.denominator))
    assert poly_of(3, parse_poly(format_poly(p), 3)) == p
