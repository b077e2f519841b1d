"""Normal forms, multiplication, and overlap resolution.

Frozen values come from tools/oracle.py (flat fixpoint rewriter, exact
rationals); dict keys there are normal words, converted here via poly_of.
"""

from itertools import combinations

import pytest
from hypothesis import given, settings, strategies as st

from diffalg.engine import (Poly, diamond_check_triple, is_pbw, monomial_word,
                            multiply, normal_form, power, word_exponents)
from diffalg.scalars import rational

from conftest import build, poly_of
from test_pbw_table import LAST, rewrite


# -- frozen reductions --------------------------------------------------------

def test_p1_reduces_one_ascent(p1):
    got = normal_form((1, 2), p1)
    assert got == poly_of(4, {(2, 1): 1, (1,): 1, (2,): -1})


def test_p3_reduces_one_ascent(p3):
    assert normal_form((1, 2), p3) == poly_of(3, {(2, 1): 2, (1,): 1})


def test_p4_product_is_scaled_swap(p4):
    d1 = Poly.generator(3, 1)
    d2 = Poly.generator(3, 2)
    assert multiply(d1, d2, p4) == poly_of(3, {(2, 1): 2})


def test_normal_form_accepts_three_input_shapes(p1):
    via_word = normal_form((1, 2), p1)
    via_dict = normal_form({(1, 2): rational(1)}, p1)
    via_poly = normal_form(multiply(Poly.generator(4, 1),
                                    Poly.generator(4, 2), p1), p1)
    assert via_word == via_dict == via_poly


def test_empty_word_is_unity(p1):
    assert normal_form((), p1) == Poly.one(4)


def test_power_matches_repeated_multiplication(b1):
    d = normal_form((1, 3), b1)
    by_hand = multiply(multiply(d, d, b1), d, b1)
    assert power(d, 3, b1) == by_hand


# -- word/exponent conversions ------------------------------------------------

def test_monomial_word_is_decreasing():
    assert monomial_word((2, 0, 1)) == (3, 1, 1)
    assert word_exponents((3, 1, 1), 3) == (2, 0, 1)
    assert monomial_word((0, 0, 0)) == ()


# -- strategy independence and degree bounds ----------------------------------

@settings(max_examples=60, deadline=None)
@given(st.lists(st.integers(1, 4), max_size=6))
def test_strategy_independence_on_p1(word):
    P = build(4, {(1, 2): 1, (2, 1): 1, (1, 3): 1, (3, 1): 1,
                  (2, 3): 1, (3, 2): 1, (1, 4): 2, (4, 1): 2,
                  (2, 4): 2, (4, 2): 2, (3, 4): 2, (4, 3): 2},
              {1: 1, 2: 1, 3: 1})
    assert normal_form(tuple(word), P).terms == rewrite(P, tuple(word), LAST)


@settings(max_examples=40, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=4),
       st.lists(st.integers(1, 3), max_size=4))
def test_multiplication_never_raises_degree(u, v):
    P = build(3, {(1, 3): 3, (3, 1): 2, (1, 2): 5, (2, 1): 4,
                  (2, 3): 5, (3, 2): 4}, {1: 1, 3: 7})
    p = normal_form(tuple(u), P)
    q = normal_form(tuple(v), P)
    assert multiply(p, q, P).degree() <= len(u) + len(v)


@settings(max_examples=30, deadline=None)
@given(st.lists(st.integers(1, 3), max_size=3),
       st.lists(st.integers(1, 3), max_size=3),
       st.lists(st.integers(1, 3), max_size=3))
def test_multiplication_associative_on_b1(u, v, w):
    P = build(3, {(1, 3): 3, (3, 1): 2, (1, 2): 5, (2, 1): 4,
                  (2, 3): 5, (3, 2): 4}, {1: 1, 3: 7})
    p, q, r = (normal_form(tuple(t), P) for t in (u, v, w))
    assert multiply(multiply(p, q, P), r, P) == multiply(p, multiply(q, r, P), P)


# -- diamond behaviour --------------------------------------------------------

def test_fixtures_are_pbw(p1, p2, p3, p4, b1, c4, b4x, d4):
    for P in (p1, p2, p3, p4, b1, c4, b4x, d4):
        assert is_pbw(P).pbw


def test_mutated_p1_fails_exactly_at_the_interior_triple(p1m):
    report = is_pbw(p1m)
    assert not report.pbw
    assert report.first_failure == (1, 2, 3)
    failing = [t for t in combinations(range(1, 5), 3)
               if not diamond_check_triple(p1m, *t).confluent]
    assert failing == [(1, 2, 3)]


def test_triple_check_carries_both_reductions(p1m):
    chk = diamond_check_triple(p1m, 1, 2, 3)
    assert not chk.confluent
    assert chk.nf_left != chk.nf_right


def test_triple_check_on_confluent_triple(p1):
    chk = diamond_check_triple(p1, 1, 2, 3)
    assert chk.confluent
    assert chk.nf_left == chk.nf_right


def test_reduction_fixes_normal_words(b1):
    # a decreasing word is its own normal form
    assert normal_form((3, 2, 1), b1) == poly_of(3, {(3, 2, 1): 1})


@pytest.mark.parametrize("word", [(2, 1, 3), (3, 1, 2), (1, 1, 2, 3)])
def test_reduction_is_a_projection(b1, word):
    once = normal_form(word, b1)
    assert normal_form(once, b1) == once
