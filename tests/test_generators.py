"""The volume-form identities proved on module generators, and the direct d.

By default ``verify_witness`` decides ``integral-expand-k*`` at coefficient
degree 0 and ``integral-project-k*`` at degree at most 1, from the generator
maps and with no call of ``check_integrating_form``, which proves them in
every degree.  The sampled check at a higher degree is the reference
here: both must pass and fail the same checks, on good witnesses and on the
planted wrong ones.  The differential builds the terms of a PBW monomial
directly; the references are the positional sum through ``multiply`` and
the closed form of the partials (``conftest.py``).
"""

import random
import time
from fractions import Fraction

import pytest

from diffalg import smoothness
from diffalg.calculus import build_automorphisms, differential, partial_derivative
from diffalg.cli import main
from diffalg.engine import Poly
from diffalg.presentation import AlgebraPresentation
from diffalg.smoothness import (SmoothnessVerdict, WitnessReport,
                                decide_smoothness, verify_witness)
from diffalg.scalars import rational
from diffalg.templates import (TemplateError, generate_templates,
                               instantiate_template)

from conftest import (FIXTURES, closed_partial_derivative,
                      positional_differential)
from test_acceptance import ascending_product, exponent_tuples
from test_roundtrip import seeded_instance
from test_twist import WRONG_WITNESSES, fixture, perturb


def sampled_bound(n):
    """The degree the identities were sampled to by default before."""
    return 3 if n == 3 else 2


def verdicts(report):
    return [(name, passed) for name, passed in report.checks]


def uniform_a_i(n):
    """Every g = 3/2, x_i = (-1)^i i/3: one A_I table per n."""
    g = {(i, j): Fraction(3, 2) for i in range(1, n + 1)
         for j in range(1, n + 1) if i != j}
    x = {i: Fraction((-1) ** i * i, 3) for i in range(1, n + 1)}
    return AlgebraPresentation(n, g, x)


# -- what the default asks for --------------------------------------------------

@pytest.fixture
def integral_calls(monkeypatch):
    calls = []
    original = smoothness.check_integrating_form

    def recording(P, nu, k, degree_bound=3, which="both"):
        calls.append((k, degree_bound, which))
        return original(P, nu, k, degree_bound, which=which)

    monkeypatch.setattr(smoothness, "check_integrating_form", recording)
    return calls


def test_default_proves_on_generators(p1, integral_calls):
    assert verify_witness(p1, decide_smoothness(p1)).ok
    assert integral_calls == []


def test_explicit_bound_still_samples(p1, integral_calls):
    assert verify_witness(p1, decide_smoothness(p1), degree_bound=2).ok
    assert integral_calls == [(k, 2, which) for k in range(4)
                              for which in ("expand", "project")]


def test_uniform_a_i_verifies_at_seven_generators():
    P = uniform_a_i(7)
    verdict = decide_smoothness(P)
    assert verdict.verdict == "Smooth"
    assert verify_witness(P, verdict).ok


# -- per-check timing --------------------------------------------------------------

def test_report_times_every_check(b1):
    start = time.perf_counter()
    report = verify_witness(b1, decide_smoothness(b1))
    elapsed = time.perf_counter() - start
    assert len(report.seconds) == len(report.checks)
    assert all(s >= 0 for s in report.seconds)
    assert sum(report.seconds) <= elapsed
    assert report == WitnessReport(report.checks)


# -- the default gives the sampled verdicts ------------------------------------------

@pytest.mark.parametrize("name", sorted(p.name for p in FIXTURES.glob("*.dalg")))
def test_fixture_output_matches_sampled(capsys, name):
    path = str(FIXTURES / name)
    rc = main(["smooth", path])
    default = capsys.readouterr()
    n = default.out.count("check:integral-expand-")  # 0 without a witness
    sampled_rc = main(["smooth", path, "--degree-bound", str(sampled_bound(n))])
    sampled = capsys.readouterr()
    assert (rc, default.out, default.err) == (sampled_rc, sampled.out, sampled.err)


def _coupled_instance(skel, rng):
    """A seeded instance whose case ii/iii couplings share one value."""
    shared = []
    if skel.family == "C" and len(skel.R_components) == 1:
        shared = [f"g{r}" for r in skel.R_components[0]]
    elif skel.family == "B":
        shared = [f"g{s}" for s in skel.S]
    if not shared:
        return seeded_instance(skel, rng)
    for _ in range(1000):
        values = {name: rational(rng.choice((1, 2, 3, 4, 5)) * rng.choice((1, -1)),
                                 rng.choice((1, 1, 2, 3)))
                  for name in skel.params}
        values.update(dict.fromkeys(shared, values[shared[0]]))
        try:
            return instantiate_template(skel, values)
        except TemplateError:
            continue
    raise AssertionError(f"no admissible values for {skel}")


def _smooth_rows():
    """The first Smooth instance of each theorem case among the full rows."""
    for n in (3, 4, 5):
        rng = random.Random(f"generators:{n}")
        seen = set()
        for skel in generate_templates(n, "full"):
            P = _coupled_instance(skel, rng)
            verdict = decide_smoothness(P)
            case = verdict.theorem_case
            if verdict.verdict == "Smooth" and case not in seen:
                seen.add(case)
                yield pytest.param(P, verdict, id=f"n{n}-case-{case}")


SMOOTH_ROWS = list(_smooth_rows())


@pytest.mark.parametrize("P,verdict", SMOOTH_ROWS)
def test_template_row_matches_sampled(P, verdict):
    default = verify_witness(P, verdict)
    assert default.ok
    sampled = verify_witness(P, verdict, degree_bound=sampled_bound(P.n))
    assert verdicts(default) == verdicts(sampled)


def test_every_theorem_case_is_covered():
    cases = {(P.n, verdict.theorem_case)
             for P, verdict in (p.values for p in SMOOTH_ROWS)}
    assert cases == {(n, c) for n in (3, 4, 5) for c in ("i", "ii", "iii", "iv")}


@pytest.mark.parametrize("name,a,j,slot,failing", WRONG_WITNESSES)
def test_wrong_witness_matches_sampled(name, a, j, slot, failing):
    P = fixture(name)
    verdict = SmoothnessVerdict("Smooth", witness=perturb(
        build_automorphisms(P), a, j, slot))
    default = verify_witness(P, verdict)
    sampled = verify_witness(P, verdict, degree_bound=sampled_bound(P.n))
    assert verdicts(default) == verdicts(sampled)


# -- the direct differential ---------------------------------------------------------

@pytest.mark.parametrize("name", ["p1", "p3", "p4", "b1"])
def test_direct_d_matches_references(name):
    P = fixture(name)
    nu = build_automorphisms(P)
    for expts in exponent_tuples(P.n, 4):
        p = Poly.monomial(P.n, expts)
        coeffs = {J[0]: q for J, q in differential(p, nu, P).coeffs.items()}
        assert coeffs == positional_differential(p, nu, P), expts
        ascending = ascending_product(expts, P)
        for a in range(1, P.n + 1):
            assert partial_derivative(a, ascending, nu, P) == \
                closed_partial_derivative(a, expts, nu, P), (expts, a)
