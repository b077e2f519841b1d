"""The higher-forms algebra: graded forms under the twisted wedge.

A form ``dD_J * p`` (:class:`~diffalg.calculus.GradedForm`) is moved past
another by the family's generator maps: :func:`wedge` transports the left
coefficient through the right basis set and sorts the two sets with the
sign-and-scale factor of :func:`_merge_twist`, and :func:`form_differential`
extends d to every degree as a signed sum of wedges.  The volume twist
``nu_omega``, its inverse and the dual bases give the sampled
integrating-form identities (:func:`check_integrating_form`), and
:func:`check_d_squared` samples d∘d = 0.  :func:`apply_automorphism`
extends one generator map multiplicatively, and :func:`partial_derivative`
reads one coefficient of d.

Every twist here, of one map, of a composed run of the family's maps (the
transport inside :func:`wedge`, :func:`nu_omega`) or of the inverse volume
twist, is expanded by ``calculus._apply_to_terms`` from the map's integer
columns and the family's memoized integer rows, the ones ``d`` reads; a
``Fraction`` is built only for each term of its result.  A merge factor is
multiplied from the integer columns into one ``Fraction``, and the products
(:func:`wedge`, ``engine.multiply``) still work on ``Fraction``
coefficients.

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
    _column, _columns, _columns_of, _require_regular_volume_twist, _sample,
    differential,
)
from .engine import Poly, _iadd, multiply
from .presentation import AlgebraPresentation
from .scalars import rational


def basis_form(n: int, J, p: Poly) -> GradedForm:
    J = tuple(sorted(J))
    return GradedForm(n, len(J), {J: p})


def scalar_form(n: int, p: Poly) -> GradedForm:
    return GradedForm(n, 0, {(): p})


def _merge_twist(left, right, nu: AffineAutomorphismFamily):
    """Sign-and-scale factor for sorting ``dD_left dD_right`` into one set:
    the product of ``-lam_uj = -L / e`` over ``u`` in ``right`` and ``j > u``
    in ``left``, multiplied from the integer columns into one ``Fraction``."""
    num = den = 1
    for L, _, e in (nu.cols[u - 1][j - 1] for j in left for u in right if u < j):
        num *= -L
        den *= e
    return rational(num, den)


def apply_automorphism(nu_map: dict, p: Poly, P: AlgebraPresentation) -> Poly:
    """Extend one generator map multiplicatively and apply it to ``p``."""
    cols = _columns_of(nu_map[j] for j in range(1, P.n + 1))
    return Poly(P.n, _apply_to_terms(cols, p.terms, {}, None))


def _transport(p: Poly, indices, nu: AffineAutomorphismFamily,
               P: AlgebraPresentation) -> Poly:
    """Apply ``nu_k`` for ``k`` in ``indices``, left to right, as one composed
    map, from its integer columns and the family's rows (kept under the
    index tuple)."""
    if not indices:
        return p
    key = tuple(indices)
    return Poly(P.n, _apply_to_terms(_columns(nu, key), p.terms, nu._memo, key))


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
    """Extend d to higher forms: ``d(dD_J p) = (-1)^{|J|} dD_J ^ d(p)``,
    summed over ``xi`` as ``(-1)^{|J|}`` :func:`wedge` of the head
    ``dD_J * 1`` with :func:`~diffalg.calculus.differential` of ``p_J``."""
    sign = -1 if xi.degree % 2 else 1
    out = GradedForm.zero(xi.n, xi.degree + 1)
    for J, p in xi.coeffs.items():
        head = basis_form(xi.n, J, Poly.one(xi.n))
        out = out + wedge(head, differential(p, nu, P), nu, P).scale(sign)
    return out


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


def nu_omega(p: Poly, nu: AffineAutomorphismFamily,
             P: AlgebraPresentation) -> Poly:
    """The volume twist ``nu_n o ... o nu_1``, applied as one composed map."""
    return _transport(p, range(1, nu.n + 1), nu, P)


def nu_omega_inverse(p: Poly, nu: AffineAutomorphismFamily,
                     P: AlgebraPresentation) -> Poly:
    """The inverse of the volume twist, from its integer columns:
    ``D_j -> (L D_j + M) / e`` inverts to ``(e D_j - M) / L``, read off the
    composed columns on each call.  Its rows are kept under
    ``"omega-inverse"``.  Raises :class:`CalculusError` when some generator
    does not invert."""
    _require_regular_volume_twist(nu)
    full = _columns(nu, tuple(range(1, nu.n + 1)))
    cols = tuple(_column(e, -M, L) for L, M, e in full)
    return Poly(P.n, _apply_to_terms(cols, p.terms, nu._memo, "omega-inverse"))


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

    Raises ``ValueError`` on any other ``which`` and on a negative bound
    (see :func:`~diffalg.calculus._sample`), under which it would test
    nothing.
    """
    if which not in ("both", "expand", "project"):
        raise ValueError(
            f"which must be 'both', 'expand' or 'project', got {which!r}")
    n = P.n
    monos = _sample(n, degree_bound, 0)
    # the dual dD_{J^c} * c_J of each dD_J, for the basis sets of each slot
    duals = {J: basis_form(n, comp, Poly.scalar(n, c))
             for J, comp, c in _dual_bases(k, nu, n)}
    cobases = {M: basis_form(n, comp, Poly.scalar(n, c))
               for M, comp, c in _dual_bases(n - k, nu, n)}
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

    :func:`certify_d_squared` proves it in every degree where its premise
    holds.  Each monomial's first and second d are made afresh; nothing is
    kept between them.  Raises ``ValueError`` on a negative bound (see
    :func:`~diffalg.calculus._sample`).
    """
    for expts in _sample(P.n, degree_bound):
        first = differential(Poly.monomial(P.n, expts), nu, P)
        if not form_differential(first, nu, P).is_zero():
            return False
    return True
