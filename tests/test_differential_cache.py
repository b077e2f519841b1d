"""The differential of each PBW monomial is one product of per-family rows.

``calculus._monomial_d`` reads ``d(m)`` in closed form off the family's
integer columns, as the tensor product of one-letter rows that the family's
``_memo`` keeps once per map, letter, exponent and kind (``calculus._row``);
``d(m)`` itself is not kept.  Here the differentials are compared with
``conftest.positional_differential`` (the positional sum through
``multiply``) in two query orders and on high powers of affine diagonals,
the memo is shown to hold exactly the rows those monomials need, to be left
alone by a caller that changes a result and to stay per family, and
counters show where the work went: each row made once across
``d-squared-zero`` and connectedness, one row for a high power, and one
wedge per ``(K, m)`` and direction in the volume-form checks.
"""

import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from diffalg import forms
from diffalg.calculus import (AffineAutomorphismFamily, _monomials,
                              build_automorphisms, check_connectedness,
                              check_d_squared, check_integrating_form,
                              differential, partial_derivative)
from diffalg.engine import Poly
from diffalg.scalars import rational

from conftest import build, positional_differential
from test_positional import LEADS, TRAILS, XS, random_family
from test_twist import fixture


def is_row(key):
    """Whether a memo key is a row's, ``(map, j, k, summed)``."""
    return isinstance(key, tuple) and isinstance(key[-1], bool)


def row_keys(nu):
    return [key for key in nu._memo if is_row(key)]


def d_rows(monos):
    """The row keys that d of the monomials ``monos`` reads: for each letter
    ``a`` of a monomial, the rows of ``nu_a`` at every letter ``j >= a`` it
    holds, summed at ``a``."""
    return {((a,), j, k, j == a) for m in monos for a, ka in enumerate(m, start=1)
            if ka for j, k in enumerate(m, start=1) if j >= a and k}


def monomials_up_to(n, degree, lowest=0):
    return [m for d in range(lowest, degree + 1) for m in _monomials(n, d)]


def random_table(n, rng):
    g = {}
    for u, v in combinations(range(1, n + 1), 2):
        g[(u, v)] = rng.choice(LEADS)
        g[(v, u)] = rng.choice(TRAILS)
    return build(n, g, {i: rng.choice(XS) for i in range(1, n + 1)})


def singular_affine_table(n, rng):
    """A random family table with some lam = 0 and some mu != 0 entries."""
    while True:
        table = random_family(n, rng).table
        pairs = [pair for row in table for pair in row]
        if any(lam == 0 for lam, _ in pairs) and any(mu != 0 for _, mu in pairs):
            return table


def one_forms(form):
    return {J[0]: q for J, q in form.coeffs.items()}


# -- stored d against the positional sum -----------------------------------------

@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_cached_d_matches_positional_sum_in_any_order(n):
    rng = random.Random(f"cache:{n}")
    P = random_table(n, rng)
    table = singular_affine_table(n, rng)
    monos = monomials_up_to(n, 5)
    reference = {m: positional_differential(Poly.monomial(n, m),
                                            AffineAutomorphismFamily(n, table), P)
                 for m in monos}
    shuffled = list(monos)
    rng.shuffle(shuffled)
    for order in (shuffled, monos):
        nu = AffineAutomorphismFamily(n, table)
        for m in order:
            p = Poly.monomial(n, m)
            assert one_forms(differential(p, nu, P)) == reference[m], m
            for a in range(1, n + 1):
                assert partial_derivative(a, p, nu, P) == \
                    reference[m].get(a, Poly.zero(n)), (m, a)
        assert set(nu._memo) == d_rows(monos)


def test_a_combination_is_the_sum_of_its_monomials():
    rng = random.Random("cache:combination")
    P = random_table(4, rng)
    nu = AffineAutomorphismFamily(4, singular_affine_table(4, rng))
    p = Poly.zero(4)
    for m in monomials_up_to(4, 3):
        p = p + Poly.monomial(4, m, rng.choice((1, -2, rational(3, 4))))
    assert one_forms(differential(p, nu, P)) == positional_differential(p, nu, P)


# -- fresh results and per-family memos ----------------------------------------------------

def test_mutating_a_result_leaves_the_cache_alone():
    P = fixture("b1")
    nu = build_automorphisms(P)
    p = Poly.monomial(3, (2, 1, 1))
    expected = one_forms(differential(p, build_automorphisms(P), P))
    first = differential(p, nu, P)
    for q in first.coeffs.values():
        q.terms[(9, 9, 9)] = rational(7)
        q.terms.popitem()
        q.terms.popitem()
    partial = partial_derivative(1, p, nu, P)
    partial.terms.clear()
    assert one_forms(differential(p, nu, P)) == expected
    assert partial_derivative(1, p, nu, P) == expected[1]


def test_equal_families_keep_separate_caches():
    P = fixture("p1")
    nu, twin = build_automorphisms(P), build_automorphisms(P)
    assert nu == twin and hash(nu) == hash(twin)
    p = Poly.monomial(4, (1, 2, 0, 1))
    d = differential(p, nu, P)
    assert row_keys(nu) and not twin._memo
    assert differential(p, twin, P) == d


# -- counters ---------------------------------------------------------------------------

class CountingMemo(dict):
    """A family memo that counts each entry it stores."""

    def __init__(self):
        super().__init__()
        self.stored = Counter()

    def __setitem__(self, key, value):
        self.stored[key] += 1
        super().__setitem__(key, value)


@pytest.mark.parametrize("name", ["p1", "p3", "b1"])
def test_each_row_is_made_once_across_dd_and_connectedness(name):
    # d-squared-zero differentiates each monomial and then each term of its
    # differential; every row is made on its first use only, and the rows
    # are those of d on the monomials up to degree 5
    P = fixture(name)
    nu = build_automorphisms(P)
    nu._memo = memo = CountingMemo()
    assert check_d_squared(P, nu, 4)
    assert check_connectedness(P, nu, 5)
    assert set(memo.stored.values()) == {1}
    assert set(memo) == d_rows(monomials_up_to(P.n, 5))


def test_connectedness_sample_finds_a_closed_monomial():
    # nu_1(D1) = -D1 makes d(D1^2) = dD1 D1 + dD1 nu_1(D1) vanish
    P = build(2, {(1, 2): 1, (2, 1): 1}, {})
    one = (rational(1), rational(0))
    nu = AffineAutomorphismFamily(2, (((rational(-1), rational(0)), one), (one, one)))
    assert differential(Poly.monomial(2, (2, 0)), nu, P).is_zero()
    assert check_connectedness(P, nu, 1) is True
    assert check_connectedness(P, nu, 2) is False


def test_connectedness_sample_agrees_with_the_differential():
    # families with some lam_aa = -1, where no certificate answers; the
    # sample reads the memo, the reference builds each d on a twin family
    rng = random.Random("differential-cache:connectedness")
    answers = Counter()
    for _ in range(80):
        n = rng.randint(2, 3)
        P = random_table(n, rng)
        table = [list(row) for row in random_family(n, rng).table]
        for a in rng.sample(range(n), rng.randint(1, n)):
            table[a][a] = (rational(-1), rational(rng.choice((0, 0, 1, -2))))
        nu = AffineAutomorphismFamily(n, table)
        twin = AffineAutomorphismFamily(n, table)
        closed = any(differential(Poly.monomial(n, m), twin, P).is_zero()
                     for m in monomials_up_to(n, 4, lowest=1))
        connected = check_connectedness(P, nu, 4)
        assert connected is not closed, table
        answers[connected] += 1
    assert answers[True] > 10 and answers[False] > 10, answers


def test_a_high_power_stores_one_entry():
    P = fixture("p3")
    nu = build_automorphisms(P)
    d = differential(Poly.monomial(3, (0, 600, 0)), nu, P)
    assert d.coeffs == {(2,): Poly.monomial(3, (0, 599, 0), 600)}
    assert list(nu._memo) == [((2,), 2, 600, True)]


@pytest.mark.parametrize("expts", [(60, 0, 0), (9, 0, 7), (5, 4, 6)])
def test_high_powers_of_an_affine_diagonal_match_the_positional_sum(expts):
    P = fixture("b1")  # nu_1 and nu_3 twist D1 and D3 affinely
    nu = build_automorphisms(P)
    assert nu.mu(1, 1) and nu.mu(3, 3) and nu.lam(3, 3) != 1
    p = Poly.monomial(3, expts)
    assert one_forms(differential(p, nu, P)) == positional_differential(p, nu, P)
    assert set(nu._memo) == d_rows([expts])


@pytest.mark.parametrize("name", ["p1", "b1"])
def test_integral_checks_wedge_once_per_basis_set_and_monomial(name, monkeypatch):
    P = fixture(name)
    nu = build_automorphisms(P)
    counts = Counter()
    for fn in ("wedge", "nu_omega_inverse"):
        original = getattr(forms, fn)

        def counting(*args, _fn=fn, _original=original):
            counts[_fn] += 1
            return _original(*args)

        monkeypatch.setattr(forms, fn, counting)
    for k in range(P.n):
        for bound in (0, 1, 2):
            expected = comb(P.n, k) * len(monomials_up_to(P.n, bound))
            for which in ("expand", "project"):
                counts.clear()
                assert check_integrating_form(P, nu, k, bound, which=which)
                assert counts["wedge"] == expected, (k, bound, which)
                assert counts["nu_omega_inverse"] == \
                    (expected if which == "project" else 0)
