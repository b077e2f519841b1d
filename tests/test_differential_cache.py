"""The differential of each PBW monomial is computed once per family.

``calculus._monomial_d`` builds ``d(m)`` from ``d(m')``, ``m = m' D_l`` with
``l`` the smallest letter, and keeps it in the family's ``_memo``.  Here the
stored values are compared with ``conftest.positional_differential`` (the
positional sum through ``multiply``) in two query orders, the cache is shown
to hand out copies and to stay per family, and counters show where the work
went: one miss per monomial across ``d-squared-zero`` and connectedness, one
stored entry for a high power, and one wedge per ``(K, m)`` and direction in
the volume-form checks.
"""

import random
from collections import Counter
from itertools import combinations
from math import comb

import pytest

from diffalg import calculus, forms
from diffalg.calculus import (AffineAutomorphismFamily, _monomials,
                              build_automorphisms, check_connectedness,
                              check_d_squared, check_integrating_form,
                              differential, partial_derivative)
from diffalg.engine import Poly
from diffalg.scalars import rational

from conftest import build, positional_differential
from test_positional import LEADS, TRAILS, XS, random_family
from test_twist import fixture


def d_keys(nu):
    return [key for key in nu._memo if key[0] == "d"]


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
        assert len(d_keys(nu)) == len(monos)


def test_a_combination_is_the_sum_of_its_monomials():
    rng = random.Random("cache:combination")
    P = random_table(4, rng)
    nu = AffineAutomorphismFamily(4, singular_affine_table(4, rng))
    p = Poly.zero(4)
    for m in monomials_up_to(4, 3):
        p = p + Poly.monomial(4, m, rng.choice((1, -2, rational(3, 4))))
    assert one_forms(differential(p, nu, P)) == positional_differential(p, nu, P)


# -- copies and per-family memos ----------------------------------------------------

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
    assert d_keys(nu) and not d_keys(twin)
    assert differential(p, twin, P) == d


# -- counters ---------------------------------------------------------------------------

@pytest.fixture
def steps(monkeypatch):
    """The monomials built by ``_d_step``, one entry per step."""
    built = Counter()
    original = calculus._d_step

    def counting(d_prev, prev, i, nu, n):
        built[prev[:i] + (prev[i] + 1,) + prev[i + 1:]] += 1
        return original(d_prev, prev, i, nu, n)

    monkeypatch.setattr(calculus, "_d_step", counting)
    return built


@pytest.mark.parametrize("name", ["p1", "p3", "b1"])
def test_each_monomial_misses_once_across_dd_and_connectedness(name, steps):
    P = fixture(name)
    nu = build_automorphisms(P)
    assert check_d_squared(P, nu, 4)
    assert check_connectedness(P, nu, 5)
    assert steps == Counter(monomials_up_to(P.n, 5, lowest=1))


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


def test_a_high_power_stores_one_entry(steps):
    P = fixture("p3")
    nu = build_automorphisms(P)
    d = differential(Poly.monomial(3, (0, 600, 0)), nu, P)
    assert d.coeffs == {(2,): Poly.monomial(3, (0, 599, 0), 600)}
    assert d_keys(nu) == [("d", (0, 600, 0))]
    assert sum(steps.values()) == 600


def test_walking_a_chain_equals_building_it_step_by_step():
    P = fixture("b1")  # nu_1 twists D1 affinely
    walked, stepped = build_automorphisms(P), build_automorphisms(P)
    top = Poly.monomial(3, (60, 0, 0))
    for k in range(1, 60):
        differential(Poly.monomial(3, (k, 0, 0)), stepped, P)
    assert differential(top, walked, P) == differential(top, stepped, P)
    assert len(d_keys(walked)) == 1 and len(d_keys(stepped)) == 60


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
