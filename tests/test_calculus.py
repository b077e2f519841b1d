"""Twisting family, differential, partials, forms, and integral identities.

All concrete coefficients below were frozen from tools/oracle.py, which
computes the same maps with an independent flat rewriter.
"""

from itertools import combinations

import pytest

from diffalg.calculus import (AffineAutomorphismFamily, CalculusError,
                              GradedForm, basis_form, build_automorphisms,
                              check_connectedness, check_d_squared,
                              check_integrating_form, differential,
                              form_differential, leibniz_defects,
                              left_multiply, no_go_residual, nu_omega,
                              nu_omega_inverse, partial_derivative, pi_omega,
                              right_multiply, scalar_form, shift_ansatz,
                              verify_automorphisms, wedge)
from diffalg.engine import Poly, normal_form
from diffalg.scalars import rational

from conftest import build, closed_partial_derivative, poly_of


def q(*args):
    return rational(*args)


# -- the derived twisting family ------------------------------------------------

def test_p1_twist_entries(p1):
    nu = build_automorphisms(p1)
    assert (nu.lam(1, 2), nu.mu(1, 2)) == (q(1), q(-1))
    assert (nu.lam(4, 1), nu.mu(4, 1)) == (q(1), q(-1, 2))


def test_p3_twist_entries(p3):
    nu = build_automorphisms(p3)
    assert (nu.lam(2, 1), nu.mu(2, 1)) == (q(2), q(0))
    assert (nu.lam(1, 2), nu.mu(1, 2)) == (q(1, 2), q(-1, 2))


def test_b1_twist_entries(b1):
    nu = build_automorphisms(b1)
    assert (nu.lam(3, 3), nu.mu(3, 3)) == (q(3, 2), q(-7, 2))
    assert (nu.lam(3, 2), nu.mu(3, 2)) == (q(4, 5), q(0))


def test_off_diagonal_scales_are_reciprocal(p1, p3, p4, b1):
    for P in (p1, p3, p4, b1):
        nu = build_automorphisms(P)
        for a, b in combinations(range(1, P.n + 1), 2):
            assert nu.lam(a, b) * nu.lam(b, a) == q(1)


def test_one_sided_pair_admits_no_family(p2):
    with pytest.raises(CalculusError,
                       match=r"no affine family exists: the pair \(2,1\) is "
                             r"one-sided, so D2 cannot be pushed through dD1"):
        build_automorphisms(p2)


def test_derived_family_verifies(p1, p3, p4, b1, c4, b4x, d4, sym3):
    for P in (p1, p3, p4, b1, c4, b4x, d4, sym3):
        rep = verify_automorphisms(build_automorphisms(P), P)
        assert rep.ok
        assert rep.relations_preserved and rep.pairwise_commute and rep.bijective
        assert rep.failures == ()


def test_shift_candidate_fails_on_one_sided_table(p2):
    rep = verify_automorphisms(shift_ansatz(p2), p2)
    assert not rep.relations_preserved
    assert not rep.ok
    assert rep.failures[:3] == (
        "nu_1 breaks the relation of the pair (1,2)",
        "nu_1 breaks the relation of the pair (1,3)",
        "nu_1 breaks the relation of the pair (1,4)",
    )


# -- the differential and lowered partials ---------------------------------------

def test_p1_partials_of_a_quadratic_word(p1):
    nu = build_automorphisms(p1)
    p = poly_of(4, {(2, 1): 1})
    assert partial_derivative(1, p, nu, p1) == poly_of(4, {(2,): 1, (): -1})
    assert partial_derivative(2, p, nu, p1) == poly_of(4, {(1,): 1})


def test_p1_partial_of_a_square(p1):
    nu = build_automorphisms(p1)
    p = poly_of(4, {(1, 1): 1})
    assert partial_derivative(1, p, nu, p1) == poly_of(4, {(1,): 2, (): -1})


def test_p3_partial_keeps_geometric_sum(p3):
    nu = build_automorphisms(p3)
    p = poly_of(3, {(2, 2, 1): 1})
    assert partial_derivative(1, p, nu, p3) == \
        poly_of(3, {(2, 2): q(1, 4), (2,): q(-1, 2), (): q(1, 4)})


def test_p4_partials(p4):
    nu = build_automorphisms(p4)
    assert partial_derivative(2, poly_of(3, {(2, 1): 1}), nu, p4) == \
        poly_of(3, {(1,): 1})
    assert partial_derivative(2, normal_form((1, 2), p4), nu, p4) == \
        poly_of(3, {(1,): 2})


def test_commutative_table_gives_classical_partials():
    P = build(3, {(i, j): 1 for i in range(1, 4) for j in range(1, 4)
                  if i != j}, {})
    nu = build_automorphisms(P)
    p = normal_form((1, 2, 2), P)
    assert partial_derivative(2, p, nu, P) == poly_of(3, {(2, 1): 2})


def test_differential_collects_partials(p1):
    nu = build_automorphisms(p1)
    p = normal_form((1, 2), p1)
    d = differential(p, nu, p1)
    assert d.degree == 1
    assert d.coeffs == {(a,): partial_derivative(a, p, nu, p1)
                        for a in (1, 2)}


def test_differential_kills_scalars(p1):
    nu = build_automorphisms(p1)
    assert differential(Poly.scalar(4, q(5)), nu, p1).is_zero()


@pytest.mark.parametrize("expts", [
    (1, 0, 0), (0, 2, 0), (1, 2, 0), (2, 1, 1), (1, 1, 2),
])
def test_closed_partial_matches_positional_sum(b1, expts):
    nu = build_automorphisms(b1)
    word = tuple(i for i in range(1, 4) for _ in range(expts[i - 1]))
    p = normal_form(word, b1)
    for a in (1, 2, 3):
        assert partial_derivative(a, p, nu, b1) == \
            closed_partial_derivative(a, expts, nu, b1)


def test_twisted_commutation_of_partials(b1):
    nu = build_automorphisms(b1)
    p = normal_form((1, 2, 2, 3), b1)
    for u, v in combinations((1, 2, 3), 2):
        lhs = partial_derivative(v, partial_derivative(u, p, nu, b1), nu, b1)
        rhs = partial_derivative(u, partial_derivative(v, p, nu, b1), nu, b1)
        assert lhs == rhs.scale(nu.lam(u, v))


# -- graded forms and the twisted wedge ------------------------------------------

def test_wedge_transports_through_the_twist(p1):
    nu = build_automorphisms(p1)
    xi = basis_form(4, (1,), Poly.generator(4, 2))
    eta = basis_form(4, (2,), Poly.one(4))
    got = wedge(xi, eta, nu, p1)
    assert got.coeffs == {(1, 2): poly_of(4, {(2,): 1, (): -1})}


def test_wedge_antisymmetry_scale(p1):
    nu = build_automorphisms(p1)
    one = Poly.one(4)
    fwd = wedge(basis_form(4, (1,), one), basis_form(4, (2,), one), nu, p1)
    rev = wedge(basis_form(4, (2,), one), basis_form(4, (1,), one), nu, p1)
    assert rev == fwd.scale(-1)


def test_wedge_with_repeated_index_vanishes(p1):
    nu = build_automorphisms(p1)
    one = Poly.one(4)
    assert wedge(basis_form(4, (1,), one), basis_form(4, (1,), one),
                 nu, p1).is_zero()


def test_wedge_through_a_zero_twist_vanishes(p1):
    rows = [list(row) for row in build_automorphisms(p1).table]
    rows[0][1] = (q(0), q(1))  # nu_1 sends D2 to a constant: lam(1, 2) = 0
    nu = AffineAutomorphismFamily(4, tuple(tuple(row) for row in rows))
    got = wedge(basis_form(4, (2,), Poly.generator(4, 3)),
                basis_form(4, (1,), Poly.one(4)), nu, p1)
    assert got.is_zero() and got.coeffs == {}


def test_form_arithmetic_guards():
    one = Poly.one(3)
    with pytest.raises(ValueError, match="cannot add forms of different degrees"):
        basis_form(3, (1,), one) + basis_form(3, (1, 2), one)
    with pytest.raises(ValueError, match="malformed basis index set"):
        GradedForm(3, 2, {(2, 1): one})
    assert (basis_form(3, (1,), one) + basis_form(3, (1,), one.scale(-1))
            ).is_zero()


def test_module_actions_agree_with_wedge(b1):
    nu = build_automorphisms(b1)
    p = normal_form((1, 2), b1)
    xi = basis_form(3, (2, 3), Poly.generator(3, 1))
    assert left_multiply(p, xi, nu, b1) == wedge(scalar_form(3, p), xi, nu, b1)
    assert right_multiply(xi, p, b1) == wedge(xi, scalar_form(3, p), nu, b1)


def test_second_differential_vanishes_on_forms(b1):
    nu = build_automorphisms(b1)
    xi = differential(normal_form((1, 2, 3), b1), nu, b1)
    assert form_differential(form_differential(xi, nu, b1), nu, b1).is_zero()


# -- volume form, twist, projection ----------------------------------------------

def test_projection_reads_the_volume_coefficient(b1):
    p = normal_form((3, 1), b1)
    assert pi_omega(basis_form(3, (1, 2, 3), p)) == p
    assert pi_omega(GradedForm.zero(3, 3)).is_zero()


def test_projection_rejects_lower_degrees(b1):
    with pytest.raises(CalculusError,
                       match="projection needs a degree-3 form, got degree 1"):
        pi_omega(basis_form(3, (1,), Poly.one(3)))


def test_volume_twist_entry(p1):
    nu = build_automorphisms(p1)
    assert nu_omega(Poly.generator(4, 1), nu, p1) == \
        poly_of(4, {(1,): 1, (): q(-7, 2)})


def test_volume_twist_inverts(p1, b1):
    for P in (p1, b1):
        nu = build_automorphisms(P)
        p = normal_form(tuple(range(1, P.n + 1)), P)
        assert nu_omega_inverse(nu_omega(p, nu, P), nu, P) == p
        assert nu_omega(nu_omega_inverse(p, nu, P), nu, P) == p


# -- global checks ----------------------------------------------------------------

def test_good_tables_have_no_leibniz_defects(p1, p3, p4, b1):
    for P in (p1, p3, p4, b1):
        nu = build_automorphisms(P)
        assert leibniz_defects(P, nu) == ()


def test_d_squared_and_connectedness(p3, b1, p4):
    for P in (p3, b1, p4):
        nu = build_automorphisms(P)
        assert check_d_squared(P, nu, degree_bound=3)
        assert check_connectedness(P, nu, degree_bound=3)


def test_integrating_form_identities(p3):
    nu = build_automorphisms(p3)
    for k in range(3):
        assert check_integrating_form(p3, nu, k, degree_bound=2)


def test_integrating_form_slots_separately(b1):
    nu = build_automorphisms(b1)
    assert check_integrating_form(b1, nu, 1, degree_bound=1, which="expand")
    assert check_integrating_form(b1, nu, 1, degree_bound=1, which="project")


def test_one_sided_residual_survives_every_shift(p2):
    nu = shift_ansatz(p2)
    assert no_go_residual(p2, 1, 4, nu) == poly_of(4, {(4,): 6})


def test_shift_image_of_the_one_sided_relation(p2):
    # applying the shift to the written relation before reduction leaves a
    # multiple of D4: the same obstruction no_go_residual reports
    from conftest import apply_map_to_word, relation_combination
    nu = shift_ansatz(p2)
    image = Poly.zero(4)
    for word, c in relation_combination(p2, 1, 4).items():
        image = image + apply_map_to_word(nu.map_of(1), word, p2).scale(c)
    assert image == poly_of(4, {(4,): -6})
