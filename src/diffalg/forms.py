"""The higher-forms algebra: graded forms under the twisted wedge.

A form ``dD_J * p`` (:class:`~diffalg.calculus.GradedForm`) is moved past
another by the family's generator maps: :func:`wedge` transports the left
coefficient through the right basis set and sorts the two sets with the
sign-and-scale factor of :func:`_merge_twist`, and :func:`form_differential`
extends d to every degree.  The volume twist ``nu_omega``, its inverse and
the dual bases give the sampled integrating-form identities
(:func:`check_integrating_form`), and :func:`check_d_squared` samples
d∘d = 0.  :func:`apply_automorphism` extends one generator map
multiplicatively, and :func:`partial_derivative` reads one coefficient of d.

This is the cross-check of the closed-form certificates of
:mod:`diffalg.calculus`, which decide d∘d = 0 and the volume-form identities
on every family that ``build_automorphisms`` returns.  It runs only under
``--degree-bound``, on foreign families and through the API, so no module
imports it when it loads: ``calculus.__all__`` lists each of its public
names, and :mod:`diffalg.calculus` serves them (a PEP 562 ``__getattr__``),
loading this module on the first lookup and keeping the name.  Its private
helpers are reached here only.  A caller in another module (``smoothness``'s
sampled fallbacks) reads such a name off ``calculus`` when it runs, so a
monkeypatch or a tracer that rebinds it there takes effect; calls inside
this module use its own bindings.
"""

from __future__ import annotations

from itertools import combinations

from .calculus import (
    AffineAutomorphismFamily, CalculusError, GradedForm, _apply_to_terms,
    _monomials, _powers, _require_regular_volume_twist, _twist_terms,
    differential,
)
from .engine import Poly, _iadd, multiply
from .presentation import AlgebraPresentation
from .scalars import ONE, rational


def basis_form(n: int, J, p: Poly) -> GradedForm:
    J = tuple(sorted(J))
    return GradedForm(n, len(J), {J: p})


def scalar_form(n: int, p: Poly) -> GradedForm:
    return GradedForm(n, 0, {(): p})


def _merge_twist(left, right, nu: AffineAutomorphismFamily):
    """Sign-and-scale factor for sorting ``dD_left dD_right`` into one set."""
    factor = rational(1)
    for j in left:
        for u in right:
            if u < j:
                factor = factor * (-nu.lam(u, j))
    return factor


def apply_automorphism(nu_map: dict, p: Poly, P: AlgebraPresentation) -> Poly:
    """Extend one generator map multiplicatively and apply it to ``p``."""
    return Poly(P.n, _apply_to_terms(nu_map, p.terms, P.n, {}))


def _transport(p: Poly, indices, nu: AffineAutomorphismFamily,
               P: AlgebraPresentation) -> Poly:
    """Apply ``nu_k`` for ``k`` in ``indices``, left to right, as one composed map."""
    if not indices:
        return p
    return Poly(P.n, _twist_terms(p.terms, tuple(indices), nu, P.n))


def wedge(xi: GradedForm, eta: GradedForm, nu: AffineAutomorphismFamily,
          P: AlgebraPresentation) -> GradedForm:
    out: dict = {}
    for J, p in xi.coeffs.items():
        for K, q in eta.coeffs.items():
            if set(J) & set(K):
                continue
            factor = _merge_twist(J, K, nu)
            if factor == 0:
                continue
            piece = multiply(_transport(p, K, nu, P), q, P)
            _iadd(out.setdefault(tuple(sorted(J + K)), {}), piece.terms, factor)
    return GradedForm(xi.n, xi.degree + eta.degree,
                      {J: Poly(xi.n, terms) for J, terms in out.items()})


def partial_derivative(a: int, p: Poly, nu: AffineAutomorphismFamily,
                       P: AlgebraPresentation) -> Poly:
    """The ``dD_a`` coefficient of ``d(p)``."""
    return differential(p, nu, P).coeffs.get((a,), Poly.zero(P.n))


def form_differential(xi: GradedForm, nu: AffineAutomorphismFamily,
                      P: AlgebraPresentation) -> GradedForm:
    """Extend d to higher forms: ``d(dD_J p) = (-1)^{|J|} dD_J ^ d(p)``.

    The head ``dD_J * 1`` passes through ``d(p) = sum_b dD_b * d_b(p)``
    untwisted (every twist fixes 1), so the wedge reduces to
    ``(-1)^{|J|} sum_b merge(J, b) dD_{J u b} * d_b(p)`` over ``b`` not in
    ``J``, with the sign-and-scale factor of :func:`_merge_twist`.
    """
    sign = -1 if xi.degree % 2 else 1
    out: dict = {}
    for J, p in xi.coeffs.items():
        for (b,), q in differential(p, nu, P).coeffs.items():
            if b in J:
                continue
            factor = _merge_twist(J, (b,), nu)
            if factor != 0:
                _iadd(out.setdefault(tuple(sorted(J + (b,))), {}), q.terms,
                      sign * factor)
    return GradedForm(xi.n, xi.degree + 1,
                      {K: Poly(xi.n, terms) for K, terms in out.items()})


def left_multiply(p: Poly, xi: GradedForm, nu: AffineAutomorphismFamily,
                  P: AlgebraPresentation) -> GradedForm:
    return GradedForm(xi.n, xi.degree, {
        J: multiply(_transport(p, J, nu, P), q, P)
        for J, q in xi.coeffs.items()})


def right_multiply(xi: GradedForm, p: Poly,
                   P: AlgebraPresentation) -> GradedForm:
    return GradedForm(xi.n, xi.degree,
                      {J: multiply(q, p, P) for J, q in xi.coeffs.items()})


def pi_omega(tau: GradedForm) -> Poly:
    """Project a top-degree form onto its volume coefficient."""
    if tau.degree != tau.n:
        raise CalculusError(
            f"projection needs a degree-{tau.n} form, got degree {tau.degree}")
    full = tuple(range(1, tau.n + 1))
    return tau.coeffs.get(full, Poly.zero(tau.n))


def _omega_inverse_maps(nu: AffineAutomorphismFamily) -> dict:
    """Inverse of the volume twist ``nu_n o ... o nu_1``; stored only once
    every generator inverts."""
    inverse = nu._memo.get("omega-inverse")
    if inverse is None:
        _require_regular_volume_twist(nu)
        inverse = nu._memo["omega-inverse"] = {
            j: (ONE / lam, -mu / lam)
            for j, (lam, mu) in nu.composed(range(1, nu.n + 1)).items()}
    return inverse


def nu_omega(p: Poly, nu: AffineAutomorphismFamily,
             P: AlgebraPresentation) -> Poly:
    """The volume twist ``nu_n o ... o nu_1``, applied as one composed map."""
    return _transport(p, range(1, nu.n + 1), nu, P)


def nu_omega_inverse(p: Poly, nu: AffineAutomorphismFamily,
                     P: AlgebraPresentation) -> Poly:
    return Poly(P.n, _apply_to_terms(_omega_inverse_maps(nu), p.terms, P.n,
                                     _powers(nu, "omega-inverse")))


def _dual_bases(k: int, nu: AffineAutomorphismFamily, n: int):
    """Pairs ``(J, inverse twist)`` so that ``dD_{J^c} * c_J`` is dual to ``dD_J``."""
    out = []
    for J in combinations(range(1, n + 1), k):
        comp = tuple(a for a in range(1, n + 1) if a not in J)
        out.append((J, comp, rational(1) / _merge_twist(comp, J, nu)))
    return out


def check_integrating_form(P: AlgebraPresentation,
                           nu: AffineAutomorphismFamily, k: int,
                           degree_bound: int = 3,
                           which: str = "both") -> bool:
    """Dual-basis expansion identities of the volume form in degree ``k``.

    ``which`` selects the expansion through the left slot (``"expand"``),
    through the right slot (``"project"``), or both.  Each identity is
    tested on ``omega' = dD_K * m`` for every basis set ``K`` and every
    coefficient monomial ``m`` of degree at most ``degree_bound``.

    Each expansion is a sum over the basis sets of one degree, but only one
    of its terms can be nonzero: a wedge of ``dD_A`` with ``dD_B`` vanishes
    when ``A`` and ``B`` share an index.  The dual of ``dD_J`` is
    ``dD_{J^c} * c_J``, and ``J^c`` misses ``K`` only for ``J = K``; the
    cobasis form ``dD_M`` has degree ``n - k`` and misses ``K`` only for
    ``M = K^c``.  So each ``(K, m)`` makes one wedge per direction.  The
    constants ``c_J`` are still computed for every basis set up front, so a
    zero merge factor raises before any set is checked.

    Bound 0 proves the expansion and bound 1 the projection in every degree.
    Expand: only the dual of ``dD_K`` meets ``omega'``, and
    ``bar_K ^ dD_K * m = (const) dD_all * m`` (a scalar passes every twist),
    so the expansion of ``dD_K * m`` is the expansion of ``dD_K`` times ``m``.
    Project: only ``M = K^c`` meets ``omega'``, and the identity reads
    ``dD_K * c nu_K(nu_omega^-1(nu_M(m))) = dD_K * m`` for a constant ``c``.
    The twists act in closed form, and closed-form twists compose as their
    generator maps compose, so the composite is one closed-form twist
    ``D_j -> a_j D_j + b_j``.  It fixes every ``m`` up to ``c`` exactly
    when ``c = 1`` (the identity at 1) and ``a_j = 1``, ``b_j = 0`` (at each
    ``D_j``).  Neither argument needs the twists to be automorphisms.
    :func:`certify_expansion` decides bound 0 from the family's scalars, and
    :func:`certify_projection` bound 1 when the maps commute pairwise.
    """
    n = P.n
    # the dual dD_{J^c} * c_J of each dD_J, for the basis sets of each slot
    duals = {J: basis_form(n, comp, Poly.scalar(n, c))
             for J, comp, c in _dual_bases(k, nu, n)}
    cobases = {M: basis_form(n, comp, Poly.scalar(n, c))
               for M, comp, c in _dual_bases(n - k, nu, n)}
    monos = [m for d in range(degree_bound + 1) for m in _monomials(n, d)]
    for K in combinations(range(1, n + 1), k):
        basis = basis_form(n, K, Poly.one(n))
        M = tuple(a for a in range(1, n + 1) if a not in K)
        cobasis = basis_form(n, M, Poly.one(n))
        for expts in monos:
            omega_prime = basis_form(n, K, Poly.monomial(n, expts))
            if which in ("both", "expand"):
                coefficient = pi_omega(wedge(duals[K], omega_prime, nu, P))
                if right_multiply(basis, coefficient, P) != omega_prime:
                    return False
            if which in ("both", "project"):
                head = pi_omega(wedge(omega_prime, cobasis, nu, P))
                if left_multiply(nu_omega_inverse(head, nu, P), cobases[M],
                                 nu, P) != omega_prime:
                    return False
    return True


def check_d_squared(P: AlgebraPresentation, nu: AffineAutomorphismFamily,
                    degree_bound: int = 4) -> bool:
    """d applied twice kills every monomial of bounded degree.

    :func:`certify_d_squared` proves it in every degree where its premises
    hold.
    """
    for deg in range(1, degree_bound + 1):
        for expts in _monomials(P.n, deg):
            first = differential(Poly.monomial(P.n, expts), nu, P)
            if not form_differential(first, nu, P).is_zero():
                return False
    return True
