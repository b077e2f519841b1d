"""Three-valued smoothness decision and witness verification.

Verdicts, obstruction data, and note texts were frozen from
tools/oracle.py over the shared fixture tables.
"""

import pytest

from diffalg.classify import decompose, identify_family
from diffalg.smoothness import (SmoothnessError, decide_smoothness,
                                gk_dimension, verify_witness)

from conftest import build, poly_of


# -- growth dimension -----------------------------------------------------------

def test_growth_dimension_counts_generators(p1, p3, b1, p4):
    for P in (p1, p3, b1, p4):
        assert gk_dimension(P) == P.n


def test_growth_dimension_requires_a_basis(p1m):
    with pytest.raises(SmoothnessError,
                       match=r"the ordered monomials are not a basis: the "
                             r"triple \(1,2,3\) reduces ambiguously"):
        gk_dimension(p1m)


def test_decision_refuses_non_confluent_input(p1m):
    with pytest.raises(SmoothnessError):
        decide_smoothness(p1m)


# -- smooth verdicts -------------------------------------------------------------

@pytest.mark.parametrize("fixture,case", [
    ("p1", "i"), ("sym3", "i"),
    ("p3", "ii"), ("c4", "ii"),
    ("b1", "iii"), ("b4x", "iii"),
    ("p4", "iv"), ("d4", "iv"),
])
def test_smooth_cases(fixture, case, request):
    P = request.getfixturevalue(fixture)
    verdict = decide_smoothness(P)
    assert verdict.verdict == "Smooth"
    assert verdict.theorem_case == case
    assert verdict.witness is not None
    assert verdict.obstruction is None
    assert verdict.notes == ()


def test_decision_accepts_precomputed_structure(b1):
    dec = decompose(b1)
    fam = identify_family(b1, dec)
    assert decide_smoothness(b1, dec, fam) == decide_smoothness(b1)


# -- the no-go obstruction --------------------------------------------------------

def test_one_sided_bystander_blocks_smoothness(p2):
    verdict = decide_smoothness(p2)
    assert verdict.verdict == "NotSmooth"
    assert verdict.theorem_case is None
    assert verdict.witness is None
    ob = verdict.obstruction
    assert (ob.i, ob.t) == (1, 4)
    assert ob.residual == poly_of(4, {(4,): 6})
    assert verdict.notes == (
        "the pair (1,4) couples one-sidedly while x1 != 0, so pushing D4 "
        "through dD1 leaves a nonzero residual for every affine family",)


# -- undetermined verdicts ---------------------------------------------------------

def test_split_couplings_stay_undetermined(c_nonuniform):
    verdict = decide_smoothness(c_nonuniform)
    assert verdict.verdict == "Undetermined"
    assert verdict.notes == (
        "couplings to the interacting index take several values, but the "
        "known witness construction needs a single one",)


def test_pure_one_sided_triple_stays_undetermined(lin3):
    verdict = decide_smoothness(lin3)
    assert verdict.verdict == "Undetermined"
    assert verdict.notes == (
        "every interacting pair couples one-sidedly, so no affine twisting "
        "family exists; nothing further is known for this pattern",)


def test_one_sided_ratio_table_stays_undetermined():
    P = build(3, {(1, 2): 1, (1, 3): 1, (3, 1): 5, (2, 3): 1, (3, 2): 3}, {})
    verdict = decide_smoothness(P)
    assert verdict.verdict == "Undetermined"
    assert verdict.notes == (
        "the pair (1,2) couples one-sidedly; no affine family exists, and "
        "with no interacting index the residual argument does not apply",)


def test_split_components_stay_undetermined():
    P = build(3, {(1, 2): 5, (2, 1): 4, (1, 3): 5, (3, 1): 4, (2, 3): 1}, {1: 1})
    verdict = decide_smoothness(P)
    assert verdict.verdict == "Undetermined"
    assert verdict.notes == (
        "the non-interacting part splits into 2 components, but the known "
        "witness construction needs a connected one",)


# -- witness verification -----------------------------------------------------------

def test_witness_report_names_and_order(p3):
    verdict = decide_smoothness(p3)
    report = verify_witness(p3, verdict, degree_bound=1)
    assert [name for name, _ in report.checks] == [
        "relations-preserved", "pairwise-commute", "bijective",
        "leibniz", "d-squared-zero", "connectedness",
        "integral-expand-k0", "integral-project-k0",
        "integral-expand-k1", "integral-project-k1",
        "integral-expand-k2", "integral-project-k2",
    ]
    assert report.ok
    assert all(passed for _, passed in report.checks)


def test_witness_verifies_on_pair_fixture(b1):
    report = verify_witness(b1, decide_smoothness(b1), degree_bound=2)
    assert report.ok


def test_witness_verification_needs_a_witness(p2):
    with pytest.raises(SmoothnessError,
                       match="the verdict carries no witness to verify"):
        verify_witness(p2, decide_smoothness(p2))
