"""``form_differential`` and the volume-form checks against independent forms.

``forms.form_differential`` is the signed sum of ``wedge``s of each head
``dD_J * 1`` with ``d(p_J)``, and ``check_integrating_form`` pairs each
``dD_K`` only with the one basis set of each expansion that misses ``K``.
The references in ``conftest.py`` are a form differential that sorts
``dD_J`` past each ``dD_b`` by its merge factor, with no wedge, and the
expansion summed over every basis set; ``verify_witness`` must report the
same check list with them as without, on good witnesses and on the planted
wrong ones.
"""

import random
from itertools import combinations

import pytest

from diffalg import calculus, forms
from diffalg.calculus import (AffineAutomorphismFamily, GradedForm,
                              _monomials, build_automorphisms,
                              form_differential)
from diffalg.engine import Poly
from diffalg.presentation import load_presentation
from diffalg.scalars import rational
from diffalg.smoothness import (SmoothnessVerdict, decide_smoothness,
                                verify_witness)

from conftest import (FIXTURES, full_sum_integrating_form,
                      sorted_form_differential)
from test_differential_cache import random_table, singular_affine_table
from test_generators import SMOOTH_ROWS
from test_twist import WRONG_WITNESSES, fixture, perturb

COEFFICIENTS = (1, -2, rational(3, 4), rational(-5, 2))


def random_form(n, degree, rng):
    """A few index sets of one degree, each with a random coefficient of degree <= 3."""
    monos = [m for d in range(4) for m in _monomials(n, d)]
    sets = list(combinations(range(1, n + 1), degree))
    coeffs = {}
    for J in rng.sample(sets, min(len(sets), 3)):
        p = Poly.zero(n)
        for m in rng.sample(monos, 4):
            p = p + Poly.monomial(n, m, rng.choice(COEFFICIENTS))
        coeffs[J] = p
    return GradedForm(n, degree, coeffs)


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_form_differential_matches_sorted_reference(n):
    rng = random.Random(f"forms:{n}")
    nonzero = 0
    for _ in range(6):
        P = random_table(n, rng)
        for nu in (AffineAutomorphismFamily(n, singular_affine_table(n, rng)),
                   AffineAutomorphismFamily(n, singular_affine_table(n, rng))):
            for degree in range(n):
                xi = random_form(n, degree, rng)
                got = form_differential(xi, nu, P)
                assert got == sorted_form_differential(xi, nu, P), (xi, nu)
                nonzero += not got.is_zero()
    assert nonzero > 0


# -- whole check lists ------------------------------------------------------------------

@pytest.fixture
def full_sums(monkeypatch):
    """Run verify_witness with the reference form differential and integral checks."""
    def install():
        monkeypatch.setattr(forms, "form_differential", sorted_form_differential)
        monkeypatch.setattr(calculus, "check_integrating_form",
                            full_sum_integrating_form)
    return install


def check_lists(P, verdict, full_sums):
    """Check lists at the default and at degree_bound=2, then the same with
    the references on a fresh copy of the witness (an empty memo)."""
    reports = [verify_witness(P, verdict), verify_witness(P, verdict, degree_bound=2)]
    nu = verdict.witness
    verdict = SmoothnessVerdict(verdict.verdict, verdict.theorem_case,
                                AffineAutomorphismFamily(nu.n, nu.table),
                                verdict.obstruction, verdict.notes,
                                verdict.decomposition, verdict.identification)
    full_sums()
    references = [verify_witness(P, verdict),
                  verify_witness(P, verdict, degree_bound=2)]
    return [r.checks for r in reports], [r.checks for r in references]


def _smooth_fixtures():
    names = []
    for path in sorted(FIXTURES.glob("*.dalg")):
        try:
            verdict = decide_smoothness(load_presentation(path))
        except ValueError:
            continue
        if verdict.witness is not None:
            names.append(path.stem)
    return names


SMOOTH_FIXTURES = _smooth_fixtures()


def test_smooth_fixtures_are_found():
    assert {"p1", "p3", "p4", "b1"} <= set(SMOOTH_FIXTURES)


@pytest.mark.parametrize("name", SMOOTH_FIXTURES)
def test_fixture_check_lists_match_full_sums(name, full_sums):
    P = fixture(name)
    got, expected = check_lists(P, decide_smoothness(P), full_sums)
    assert got == expected


@pytest.mark.parametrize("P,verdict", SMOOTH_ROWS)
def test_template_row_check_lists_match_full_sums(P, verdict, full_sums):
    got, expected = check_lists(P, verdict, full_sums)
    assert got == expected


@pytest.mark.parametrize("name,a,j,slot,failing", WRONG_WITNESSES)
def test_wrong_witness_check_lists_match_full_sums(name, a, j, slot, failing,
                                                   full_sums):
    P = fixture(name)
    verdict = SmoothnessVerdict("Smooth", witness=perturb(
        build_automorphisms(P), a, j, slot))
    got, expected = check_lists(P, verdict, full_sums)
    assert got == expected


def test_sampled_checks_refuse_what_would_test_nothing():
    """A misspelt ``which`` or a negative bound would test no identity and
    pass; on families that fail each check they raise instead."""
    P = fixture("p1")
    wrong = perturb(build_automorphisms(P), 2, 2, "lam")
    table = [list(row) for row in build_automorphisms(P).table]
    table[0][0] = (rational(-1), rational(0))  # d(D1^2) = 0
    closed = AffineAutomorphismFamily(P.n, table)
    assert not calculus.check_integrating_form(P, wrong, 1, 1, which="project")
    assert not calculus.check_d_squared(P, wrong, 4)
    assert not calculus.check_connectedness(P, closed, 2)
    with pytest.raises(ValueError, match="'both', 'expand' or 'project'"):
        calculus.check_integrating_form(P, wrong, 1, 1, which="projcet")
    for run in (lambda: calculus.check_integrating_form(P, wrong, 1, -1),
                lambda: calculus.check_d_squared(P, wrong, -1),
                lambda: calculus.check_connectedness(P, closed, -1)):
        with pytest.raises(ValueError, match="must be nonnegative, got -1"):
            run()
