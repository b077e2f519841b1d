"""Closed-form twist application and composed maps.

The calculus applies a generator map to a PBW monomial by expanding each
power ``(lam D_j + mu)^k`` binomially, and applies a run of twists as one
composed generator map.  The references here are the definitions: the
letter-by-letter product through ``engine.multiply``, and the twists applied
one after another.
"""

from itertools import combinations, permutations, product

import pytest

from diffalg import forms
from diffalg.calculus import (AffineAutomorphismFamily, CalculusError,
                              apply_automorphism, build_automorphisms,
                              nu_omega, nu_omega_inverse)
from diffalg.engine import Poly, monomial_word, multiply
from diffalg.forms import _transport
from diffalg.presentation import load_presentation
from diffalg.scalars import rational
from diffalg.smoothness import SmoothnessVerdict, verify_witness

import conftest
from conftest import FIXTURES, apply_map_to_word


def letter_by_letter(nu_map, expts, P):
    """nu applied to D_n^{k_n}...D_1^{k_1} one letter at a time, normalized."""
    out = Poly.one(P.n)
    for letter in monomial_word(expts):
        lam, mu = nu_map[letter]
        image = Poly.generator(P.n, letter).scale(lam) + Poly.scalar(P.n, mu)
        out = multiply(out, image, P)
    return out


def sequential(p, indices, nu, P):
    """nu_k applied for k in indices, left to right, each letter by letter."""
    for k in indices:
        out = Poly.zero(P.n)
        for expts, c in p.terms.items():
            out = out + letter_by_letter(nu.map_of(k), expts, P).scale(c)
        p = out
    return p


def monomials(n, max_degree):
    return [m for m in product(range(max_degree + 1), repeat=n)
            if sum(m) <= max_degree]


def fixture(name):
    return load_presentation(FIXTURES / f"{name}.dalg")


def perturb(nu, a, j, slot):
    """The family with lam(a, j) or mu(a, j) raised by one."""
    rows = [list(row) for row in nu.table]
    lam, mu = rows[a - 1][j - 1]
    rows[a - 1][j - 1] = (lam + 1, mu) if slot == "lam" else (lam, mu + 1)
    return AffineAutomorphismFamily(nu.n, tuple(tuple(row) for row in rows))


# -- closed form against the letter-by-letter product ---------------------------

def _maps_under_test():
    for name in ("p1", "p3", "p4", "b1"):
        P = fixture(name)
        nu = build_automorphisms(P)
        for a in range(1, P.n + 1):
            yield pytest.param(P, nu.map_of(a), id=f"{name}-nu{a}")
    P = fixture("p3")
    q = rational
    yield pytest.param(P, {1: (q(0), q(2)), 2: (q(3), q(-1)), 3: (q(0), q(0))},
                       id="some-lam-zero")
    yield pytest.param(P, {1: (q(2), q(0)), 2: (q(-1, 3), q(0)), 3: (q(5), q(0))},
                       id="all-mu-zero")


@pytest.mark.parametrize("P,nu_map", list(_maps_under_test()))
def test_closed_form_matches_letter_by_letter(P, nu_map):
    total, reference = Poly.zero(P.n), Poly.zero(P.n)
    for c, expts in enumerate(monomials(P.n, 4), start=1):
        image = apply_automorphism(nu_map, Poly.monomial(P.n, expts), P)
        expected = letter_by_letter(nu_map, expts, P)
        assert image == expected, expts
        total = total + Poly.monomial(P.n, expts, c)
        reference = reference + expected.scale(c)
    assert apply_automorphism(nu_map, total, P) == reference


def test_closed_form_drops_cancelled_terms():
    P = fixture("p3")
    q = rational
    nu_map = {1: (q(1), q(1)), 2: (q(1), q(0)), 3: (q(1), q(0))}
    p = Poly.generator(3, 1) - Poly.one(3)  # D1 - 1  ->  (D1 + 1) - 1
    image = apply_automorphism(nu_map, p, P)
    assert image == Poly.generator(3, 1)
    assert rational(0) not in image.terms.values()


# -- composed maps against sequential application --------------------------------

def test_transport_composes_in_the_given_order():
    P = fixture("p3")
    # mu(1,2) + 1 breaks pairwise commutation, so the order of the twists matters
    nu = perturb(build_automorphisms(P), 1, 2, "mu")
    monos = monomials(3, 3)
    order_matters = False
    for size in range(1, 4):
        for subset in combinations(range(1, 4), size):
            images = set()
            for K in permutations(subset):
                for expts in monos:
                    p = Poly.monomial(3, expts)
                    assert _transport(p, K, nu, P) == sequential(p, K, nu, P), (K, expts)
                images.add(tuple(_transport(Poly.monomial(3, m), K, nu, P)
                                 for m in monos))
            order_matters = order_matters or len(images) > 1
    assert order_matters


def test_volume_twist_composes_nu_1_first():
    P = fixture("p3")
    nu = perturb(build_automorphisms(P), 1, 2, "mu")
    for expts in monomials(3, 3):
        p = Poly.monomial(3, expts)
        assert nu_omega(p, nu, P) == sequential(p, (1, 2, 3), nu, P)
        assert nu_omega(nu_omega_inverse(p, nu, P), nu, P) == p


def test_singular_volume_twist_raises_on_every_call():
    P = fixture("p3")
    nu = build_automorphisms(P)
    rows = [list(row) for row in nu.table]
    rows[1][0] = (rational(0), rational(1))  # nu_2 sends D1 to a constant
    nu = AffineAutomorphismFamily(3, tuple(tuple(row) for row in rows))
    p = Poly.generator(3, 1)
    for _ in range(2):
        with pytest.raises(CalculusError, match="the volume twist is singular: "
                                                "it sends D1 to a constant"):
            nu_omega_inverse(p, nu, P)
    assert nu_omega(p, nu, P).is_scalar()


def test_applying_a_witness_makes_no_multiply_call(monkeypatch):
    calls = []

    def counting(p, q, P):
        calls.append(1)
        return multiply(p, q, P)

    for module in (forms, conftest):
        monkeypatch.setattr(module, "multiply", counting)
    P = fixture("p1")
    nu = build_automorphisms(P)
    for expts in monomials(4, 3):
        p = Poly.monomial(4, expts)
        for a in range(1, 5):
            apply_automorphism(nu.map_of(a), p, P)
        _transport(p, (1, 3, 4), nu, P)
        nu_omega(p, nu, P)
        nu_omega_inverse(p, nu, P)
        apply_map_to_word(nu.map_of(2), monomial_word(expts), P)
    assert calls == []
    apply_map_to_word(nu.map_of(2), (1, 2), P)  # a word with an ascent
    assert calls


# -- a wrong witness fails exactly the same checks --------------------------------

_CHECK = {"REL": "relations-preserved", "COMM": "pairwise-commute",
          "LEIB": "leibniz", "DD": "d-squared-zero"}

# (fixture, a, j, perturbed slot, failing checks) with verify_witness at
# degree_bound=1, recorded with the letter-by-letter implementation; Pk is
# integral-project-k<k>.
WRONG_WITNESSES = [
    ("p1", 1, 1, "lam", "REL COMM P1 P2 P3"),
    ("p1", 1, 1, "mu", "REL"),
    ("p1", 1, 2, "lam", "REL COMM LEIB DD P1 P2 P3"),
    ("p1", 1, 2, "mu", "REL LEIB"),
    ("p1", 1, 4, "lam", "LEIB"),
    ("p1", 1, 4, "mu", "REL LEIB"),
    ("p1", 2, 1, "lam", "REL COMM LEIB P1 P2 P3"),
    ("p1", 2, 2, "lam", "REL COMM DD P1 P2 P3"),
    ("p1", 3, 3, "lam", "REL COMM DD P1 P2 P3"),
    ("p1", 4, 1, "lam", "REL COMM LEIB P1 P2 P3"),
    ("p1", 4, 4, "lam", ""),
    ("p1", 4, 4, "mu", "REL"),
    ("p3", 1, 1, "lam", ""),
    ("p3", 1, 1, "mu", "REL COMM P1 P2"),
    ("p3", 1, 2, "lam", "REL COMM LEIB P1 P2"),
    ("p3", 1, 2, "mu", "REL COMM LEIB P1 P2"),
    ("p3", 1, 3, "lam", "LEIB"),
    ("p3", 1, 3, "mu", "REL COMM LEIB DD P1 P2"),
    ("p3", 2, 1, "lam", "LEIB"),
    ("p3", 2, 1, "mu", "REL LEIB"),
    ("p3", 2, 2, "lam", "REL COMM DD P1 P2"),
    ("p3", 2, 2, "mu", "REL COMM DD P1 P2"),
    ("p3", 2, 3, "lam", "LEIB"),
    ("p3", 2, 3, "mu", "REL LEIB"),
    ("p3", 3, 1, "lam", "LEIB"),
    ("p3", 3, 1, "mu", "REL COMM LEIB P1 P2"),
    ("p3", 3, 2, "lam", "REL COMM LEIB P1 P2"),
    ("p3", 3, 2, "mu", "REL COMM LEIB P1 P2"),
    ("p3", 3, 3, "lam", ""),
    ("p3", 3, 3, "mu", "REL COMM DD P1 P2"),
    ("b1", 1, 1, "lam", "REL COMM P1 P2"),
    ("b1", 1, 1, "mu", "REL COMM P1 P2"),
    ("b1", 1, 2, "lam", "LEIB"),
    ("b1", 1, 2, "mu", "REL COMM LEIB P1 P2"),
    ("b1", 1, 3, "lam", "REL COMM LEIB DD P1 P2"),
    ("b1", 1, 3, "mu", "REL COMM LEIB DD P1 P2"),
    ("b1", 2, 1, "lam", "REL COMM LEIB P1 P2"),
    ("b1", 2, 1, "mu", "REL COMM LEIB P1 P2"),
    ("b1", 2, 2, "lam", ""),
    ("b1", 2, 2, "mu", "REL COMM DD P1 P2"),
    ("b1", 2, 3, "lam", "REL COMM LEIB DD P1 P2"),
    ("b1", 2, 3, "mu", "REL COMM LEIB DD P1 P2"),
    ("b1", 3, 1, "lam", "REL COMM LEIB P1 P2"),
    ("b1", 3, 1, "mu", "REL COMM LEIB P1 P2"),
    ("b1", 3, 2, "lam", "LEIB"),
    ("b1", 3, 2, "mu", "REL COMM LEIB P1 P2"),
    ("b1", 3, 3, "lam", "REL COMM DD P1 P2"),
    ("b1", 3, 3, "mu", "REL COMM DD P1 P2"),
]


@pytest.mark.parametrize("name,a,j,slot,failing", WRONG_WITNESSES)
def test_wrong_witness_fails_the_same_checks(name, a, j, slot, failing):
    P = fixture(name)
    nu = perturb(build_automorphisms(P), a, j, slot)
    report = verify_witness(P, SmoothnessVerdict("Smooth", witness=nu),
                            degree_bound=1)
    expected = [_CHECK.get(code) or f"integral-project-k{code[1:]}"
                for code in failing.split()]
    assert [check for check, passed in report.checks if not passed] == expected
