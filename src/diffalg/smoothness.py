"""Differential-smoothness decision with machine-checkable evidence.

The decision is three-valued.  ``Smooth`` always comes with a twisting
family (the witness) that :func:`verify_witness` checks, proving each check
in closed form from the family's scalars where the argument applies and
sampling it where it does not; ``NotSmooth`` comes with an
obstruction — an interacting index, a non-coupling index, and the nonzero
residual that survives in the ``dD_i`` slot no matter which affine family
is tried; everything outside the reach of the implemented constructions
stays ``Undetermined`` with a note saying what is missing, never a guess.
"""

from __future__ import annotations

import time
from functools import partial

from . import calculus
from .calculus import (
    AffineAutomorphismFamily, CalculusError, build_automorphisms,
    certify_connectedness, certify_d_squared, certify_expansion,
    certify_projection, check_connectedness, leibniz_defects,
    no_go_residual, shift_ansatz, verify_automorphisms,
)
from .classify import Decomposition, FamilyIdentification, decompose, identify_family
from .engine import Poly, is_pbw
from .presentation import AlgebraPresentation
from .records import Record, setfield

__all__ = ["SmoothnessError", "NotPbwError", "Obstruction",
           "SmoothnessVerdict", "gk_dimension", "decide_smoothness",
           "WitnessReport", "verify_witness"]


class SmoothnessError(ValueError):
    """Raised when the decision procedure cannot even start."""


class NotPbwError(SmoothnessError):
    """The ordered monomials are not a basis; ``triple`` reduces ambiguously."""

    def __init__(self, triple: tuple):
        a, b, c = triple
        super().__init__(f"the ordered monomials are not a basis: the triple "
                         f"({a},{b},{c}) reduces ambiguously")
        self.triple = triple


class Obstruction(Record):
    __slots__ = _shown = ("i", "t", "residual", "family")
    _compared = ("i", "t", "residual")

    def __init__(self, i: int, t: int, residual: Poly,
                 family: AffineAutomorphismFamily):
        setfield(self, "i", i)
        setfield(self, "t", t)
        setfield(self, "residual", residual)
        # the candidate family the residual was computed from
        setfield(self, "family", family)


class SmoothnessVerdict(Record):
    __slots__ = ("verdict", "theorem_case", "witness", "obstruction", "notes",
                 "decomposition", "identification")
    _compared = _shown = ("verdict", "theorem_case", "witness", "obstruction", "notes")

    def __init__(self, verdict: str, theorem_case: str | None = None,
                 witness: AffineAutomorphismFamily | None = None,
                 obstruction: Obstruction | None = None, notes: tuple = (),
                 decomposition: Decomposition | None = None,
                 identification: FamilyIdentification | None = None):
        setfield(self, "verdict", verdict)  # "Smooth" | "NotSmooth" | "Undetermined"
        setfield(self, "theorem_case", theorem_case)  # "i" | "ii" | "iii" | "iv"
        setfield(self, "witness", witness)
        setfield(self, "obstruction", obstruction)
        setfield(self, "notes", notes)
        # what ``decide_smoothness`` decided from, so a caller need not redo it
        setfield(self, "decomposition", decomposition)
        setfield(self, "identification", identification)


def gk_dimension(P: AlgebraPresentation) -> int:
    """Growth dimension of a basis-ordered presentation (its generator count).

    Raises :class:`NotPbwError`, naming the first ambiguous triple, when the
    ordered monomials are not a basis.
    """
    report = is_pbw(P)
    if not report.pbw:
        raise NotPbwError(report.first_failure)
    return P.n


def _undetermined(dec, fam, *notes: str) -> SmoothnessVerdict:
    return SmoothnessVerdict("Undetermined", notes=notes, decomposition=dec,
                             identification=fam)


def _try_witness(P, dec, fam, case: str) -> SmoothnessVerdict:
    try:
        witness = build_automorphisms(P, dec, fam)
    except CalculusError as exc:
        return _undetermined(dec, fam, str(exc))
    return SmoothnessVerdict("Smooth", theorem_case=case, witness=witness,
                             decomposition=dec, identification=fam)


def decide_smoothness(P: AlgebraPresentation,
                      dec: Decomposition | None = None,
                      fam: FamilyIdentification | None = None
                      ) -> SmoothnessVerdict:
    """The three-valued verdict; raises :class:`NotPbwError` on non-PBW input.

    The verdict carries the decomposition and the family identification it
    was decided from.
    """
    gk_dimension(P)  # refuse non-confluent input outright
    if dec is None:
        dec = decompose(P)
    if fam is None:
        fam = identify_family(P, dec)
    return _verdict(P, dec, fam)


def _verdict(P: AlgebraPresentation, dec: Decomposition,
             fam: FamilyIdentification) -> SmoothnessVerdict:
    if not fam.consistent:
        return _undetermined(dec, fam,
                             "the coefficient table matches no closed pattern",
                             *fam.violations)

    if dec.T:
        i = dec.I[0]
        t = dec.T[0]
        candidate = shift_ansatz(P, dec, fam)
        residual = no_go_residual(P, i, t, candidate)
        return SmoothnessVerdict(
            "NotSmooth",
            obstruction=Obstruction(i, t, residual, candidate),
            notes=(f"the pair ({min(i, t)},{max(i, t)}) couples one-sidedly "
                   f"while x{i} != 0, so pushing D{t} through dD{i} leaves "
                   f"a nonzero residual for every affine family",),
            decomposition=dec, identification=fam)

    if fam.family == "A_I":
        return _try_witness(P, dec, fam, "i")

    if fam.family == "A_II":
        return _undetermined(dec, fam,
                             "every interacting pair couples one-sidedly, so "
                             "no affine twisting family exists; nothing "
                             "further is known for this pattern")

    if fam.family == "B":
        couplings = {fam.ratios[f"g{s}"] for s in dec.S}
        if len(couplings) > 1:
            return _undetermined(dec, fam,
                                 "bystander couplings take several values, but "
                                 "the known witness construction needs a "
                                 "single one")
        return _try_witness(P, dec, fam, "iii")

    if fam.family == "C":
        if len(dec.R_components) != 1:
            return _undetermined(dec, fam,
                                 f"the non-interacting part splits into "
                                 f"{len(dec.R_components)} components, but the "
                                 f"known witness construction needs a "
                                 f"connected one")
        couplings = {fam.ratios[f"g{r}"] for r in dec.R}
        if len(couplings) > 1:
            return _undetermined(dec, fam,
                                 "couplings to the interacting index take "
                                 "several values, but the known witness "
                                 "construction needs a single one")
        return _try_witness(P, dec, fam, "ii")

    # family D
    g, _ = P.g_integers()
    one_sided = next(((u, v) for (u, v), num in g.items()
                      if u < v and not (num and g[v, u])), None)
    if one_sided:
        u, v = one_sided
        return _undetermined(dec, fam,
                             f"the pair ({u},{v}) couples one-sidedly; no "
                             f"affine family exists, and with no interacting "
                             f"index the residual argument does not apply")
    return _try_witness(P, dec, fam, "iv")


class WitnessReport(Record):
    __slots__ = _shown = ("checks", "seconds", "methods")
    _compared = ("checks",)

    def __init__(self, checks: tuple, seconds: tuple = (), methods: tuple = ()):
        setfield(self, "checks", checks)  # ((name, passed), ...) in evaluation order
        # wall seconds of each check, aligned with ``checks``; the three
        # automorphism checks come from one pass, whose time is recorded on
        # relations-preserved (pairwise-commute and bijective record 0)
        setfield(self, "seconds", seconds)
        # how each check was decided, aligned with ``checks``: "closed-form"
        # (an exact decision, in every degree) or "sampled" (on every monomial
        # up to a degree bound)
        setfield(self, "methods", methods)

    @property
    def ok(self) -> bool:
        return all(passed for _, passed in self.checks)


CLOSED_FORM, SAMPLED = "closed-form", "sampled"


def _decide(certificate, sample) -> tuple:
    """``(passed, method)``: the certificate's answer, or the sample's where
    there is no certificate or it returns ``None`` (a certificate that always
    answers comes with no sample)."""
    passed = None if certificate is None else certificate()
    if passed is None:
        return sample(), SAMPLED
    return passed, CLOSED_FORM


def _integral_sample(P, nu, k: int, degree_bound: int, which: str) -> bool:
    """The sampled integrating-form check, looked up on ``calculus`` when it
    runs, so only a run that samples loads the higher-forms algebra."""
    return calculus.check_integrating_form(P, nu, k, degree_bound, which=which)


def verify_witness(P: AlgebraPresentation, verdict: SmoothnessVerdict,
                   degree_bound: int | None = None) -> WitnessReport:
    """Run every calculus check against a Smooth verdict's witness.

    The automorphism checks and ``leibniz`` are integer identities in the
    family's scalars and the relations' coefficients, decided per generator
    and pair relation with no polynomial built
    (:func:`~diffalg.calculus.verify_automorphisms` and
    :func:`~diffalg.calculus.leibniz_defects` give the derivations).  The
    others are decided by the closed-form certificates of
    :mod:`~diffalg.calculus`, each of which proves its check in every degree
    from the family's scalars, and fall back to sampling where a
    certificate's premises fail:

    * ``d-squared-zero``: :func:`~diffalg.calculus.certify_d_squared` when the
      maps commute pairwise and every ``lam_ab lam_ba = 1``; otherwise
      :func:`~diffalg.forms.check_d_squared` to its default degree bound.
    * ``connectedness``: :func:`~diffalg.calculus.certify_connectedness` when
      no ``lam_aa`` is -1; otherwise
      :func:`~diffalg.calculus.check_connectedness` to its default degree
      bound.
    * ``integral-expand-k*`` and ``integral-project-k*``: the identities of
      :func:`~diffalg.forms.check_integrating_form` at expand degree 0 and
      project degree 1, which prove both in every degree (the check's
      docstring gives the argument).
      :func:`~diffalg.calculus.certify_expansion` always decides the first;
      :func:`~diffalg.calculus.certify_projection` decides the second when
      the maps commute pairwise, and otherwise the check samples it at
      degree 1.  An explicit ``degree_bound``
      instead samples both on every coefficient monomial up to that degree,
      as a cross-check; a negative bound would test no monomial at all, so
      it raises :class:`SmoothnessError`.

    Every certificate answers exactly as its sampled check would, so the
    check list does not depend on the route; ``WitnessReport.methods`` says
    which one each check took.
    """
    if verdict.witness is None:
        raise SmoothnessError("the verdict carries no witness to verify")
    nu = verdict.witness
    if degree_bound is not None and degree_bound < 0:
        raise SmoothnessError(
            f"the degree bound must be nonnegative, got {degree_bound}")
    start = time.perf_counter()
    auto = verify_automorphisms(nu, P)
    checks = [("relations-preserved", auto.relations_preserved),
              ("pairwise-commute", auto.pairwise_commute),
              ("bijective", auto.bijective)]
    seconds = [time.perf_counter() - start, 0.0, 0.0]
    methods = [CLOSED_FORM] * 3
    steps = [("leibniz", lambda: not leibniz_defects(P, nu), None),
             ("d-squared-zero", partial(certify_d_squared, nu, auto),
              lambda: calculus.check_d_squared(P, nu)),
             ("connectedness", partial(certify_connectedness, nu),
              partial(check_connectedness, P, nu))]
    for k in range(P.n):
        if degree_bound is None:
            steps += [(f"integral-expand-k{k}",
                       partial(certify_expansion, nu, k), None),
                      (f"integral-project-k{k}",
                       partial(certify_projection, nu, auto, k),
                       partial(_integral_sample, P, nu, k, 1, "project"))]
        else:
            steps += [(f"integral-{which}-k{k}", None,
                       partial(_integral_sample, P, nu, k, degree_bound, which))
                      for which in ("expand", "project")]
    for name, certificate, sample in steps:
        start = time.perf_counter()
        passed, method = _decide(certificate, sample)
        seconds.append(time.perf_counter() - start)
        checks.append((name, passed))
        methods.append(method)
    return WitnessReport(tuple(checks), tuple(seconds), tuple(methods))
