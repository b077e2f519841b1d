"""First-order differential calculus on a basis-ordered algebra.

The calculus is determined by one affine map per generator: a family
``nu`` with ``nu_a(D_j) = lambda_{aj} D_j + mu_{aj}``, each extended
multiplicatively to the whole algebra.  The differential pushes basis
one-forms to the left through coefficients::

    p * dD_a = dD_a * nu_a(p)
    d(D_{l_1} ... D_{l_m}) = sum_k  dD_{l_k} * nu_{l_k}(prefix_k) * suffix_k

Higher forms carry a twisted wedge: moving ``dD_b`` past ``dD_a`` with
``a < b`` costs ``-lambda_{ab}``, so the d-square of every element vanishes
exactly when the lowered partials satisfy the twisted commutation rule.
The construction below derives the family directly from the coefficient
table: compatibility of ``d`` with a two-sided pair relation forces

    nu_a(D_b) = (g(a, b) D_b - x_b) / g(b, a)

for every ``a != b`` (``g(u, v)`` is the coefficient of the written word
``D_u D_v``), and each interacting diagonal is forced the same way from a
second interacting index.  One-sided pairs admit no such map; the
obstruction they leave behind is exposed by :func:`no_go_residual`.

On a PBW monomial ``D_n^{k_n} ... D_1^{k_1}`` the positional sum needs no
relation: every letter of the prefix is ``>= l_k`` and every letter of the
suffix ``<= l_k``, so each term is a PBW monomial already.  The same holds
for the two-letter words of a pair relation, ascent or not: the first
position has an empty prefix and the last an empty suffix, so no term ever
multiplies a twisted prefix by a nonempty suffix.  The naive closed
form for a lowered partial (bring ``k_a * D_a^{k_a - 1}`` out front) is
valid only for a linear twist; whenever some diagonal map is genuinely
affine the positional sum differs from it by a geometric sum.

The differential of a monomial is built from a shorter one.  Let ``l`` be
the smallest letter of ``m`` and write ``m = m' D_l``.  The last position
of ``m``'s word contributes ``dD_l nu_l(m')``; every other position is a
position of ``m'`` with ``D_l`` appended to its suffix.  The monomials of
``nu_{l_k}(prefix_k) suffix_k`` have only letters ``>= l``, so appending
``D_l`` adds one to their ``l`` exponent and leaves them PBW::

    d(m) = shift_l(d(m')) + dD_l nu_l(m')

term for term the positional sum of ``m``.  Each result is kept per family
(see :class:`AffineAutomorphismFamily`), so a check that differentiates
every monomial up to some degree, and then the coefficients of those
differentials, computes each one once.
"""

from __future__ import annotations

import math
from dataclasses import dataclass, field
from itertools import combinations

from .classify import Decomposition, FamilyIdentification, decompose, identify_family
from .engine import Poly, _add_term, _iadd, multiply, word_exponents
from .presentation import AlgebraPresentation
from .scalars import ONE, ZERO, rational

__all__ = [
    "CalculusError", "AffineAutomorphismFamily", "build_automorphisms",
    "shift_ansatz", "apply_automorphism", "AutomorphismReport",
    "verify_automorphisms", "differential", "partial_derivative",
    "GradedForm", "basis_form", "scalar_form",
    "wedge", "form_differential", "left_multiply", "right_multiply", "pi_omega",
    "nu_omega", "nu_omega_inverse", "check_connectedness",
    "check_integrating_form", "leibniz_defects", "check_d_squared",
    "no_go_residual",
]


class CalculusError(ValueError):
    """Raised when no twisting family exists for the requested data."""


@dataclass(frozen=True)
class AffineAutomorphismFamily:
    """One affine generator map per index: ``nu_a(D_j) = lam(a,j) D_j + mu(a,j)``.

    Composed generator maps are derived once per family and kept in
    ``_memo`` (keyed by index tuple, plus the inverse volume twist), next to
    the binomial expansions of their powers (see :func:`_powers`) and the
    differentials of the PBW monomials that were asked for (keyed
    ``("d", exponents)``, see :func:`_monomial_d`); the memo takes no part
    in equality or hashing, and is freed with the family.  Two equal
    families keep separate memos.
    """

    n: int
    table: tuple  # table[a-1][j-1] = (lam, mu)
    _memo: dict = field(default_factory=dict, init=False, repr=False,
                        compare=False, hash=False)

    def lam(self, a: int, j: int):
        return self.table[a - 1][j - 1][0]

    def mu(self, a: int, j: int):
        return self.table[a - 1][j - 1][1]

    def map_of(self, a: int) -> dict:
        return self.composed((a,))

    def composed(self, indices) -> dict:
        """Generator map of applying ``nu_k`` for ``k`` in ``indices``, left to right.

        The order is kept as given: a family that does not commute composes
        to different maps in different orders.
        """
        key = tuple(indices)
        out = self._memo.get(key)
        if out is None:
            out = {}
            for j in range(1, self.n + 1):
                lam, mu = ONE, ZERO
                for k in key:
                    lk, mk = self.table[k - 1][j - 1]
                    # D_j -> lam D_j + mu, then D_j -> lk D_j + mk inside it
                    lam, mu = lam * lk, lam * mk + mu
                out[j] = (lam, mu)
            self._memo[key] = out
        return out


def build_automorphisms(P: AlgebraPresentation,
                        dec: Decomposition | None = None,
                        fam: FamilyIdentification | None = None
                        ) -> AffineAutomorphismFamily:
    """Derive the twisting family forced by d-compatibility.

    Raises :class:`CalculusError` when some required pair is one-sided, i.e.
    when no affine family can make the differential well defined.
    """
    if dec is None:
        dec = decompose(P)
    if fam is None:
        fam = identify_family(P, dec)
    if not fam.consistent:
        raise CalculusError(
            "the coefficient table matches no closed pattern: "
            + "; ".join(fam.violations))
    n = P.n
    interacting = set(dec.I)
    table = []
    for a in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            if j != a:
                den = P.g(j, a)
                if den == 0:
                    raise CalculusError(
                        f"no affine family exists: the pair ({j},{a}) is "
                        f"one-sided, so D{j} cannot be pushed through dD{a}")
                row.append((P.g(a, j) / den, -P.x(j) / den))
            elif a in interacting and len(interacting) >= 2:
                other = min(i for i in interacting if i != a)
                num, den = P.g(other, a), P.g(a, other)
                if den == 0:
                    raise CalculusError(
                        f"no affine family exists: the pair ({a},{other}) "
                        f"is one-sided on its trailing slot")
                row.append((num / den, -P.x(a) / den))
            else:
                row.append((rational(1), rational(0)))
        table.append(tuple(row))
    return AffineAutomorphismFamily(n, tuple(table))


def shift_ansatz(P: AlgebraPresentation,
                 dec: Decomposition | None = None,
                 fam: FamilyIdentification | None = None
                 ) -> AffineAutomorphismFamily:
    """The uniform-shift candidate family ``nu_a(D_b) = D_b - x_b / g``.

    This is the family that twists a fully-interacting uniform table; the
    scale falls back to 1 when the identified pattern has no uniform
    coefficient.  It is used to exhibit concrete failures on tables that
    admit no calculus at all.
    """
    if dec is None:
        dec = decompose(P)
    if fam is None:
        fam = identify_family(P, dec)
    g = fam.params.get("g")
    scale = rational(1) / g if g not in (None, 0) else rational(1)
    n = P.n
    one = rational(1)
    table = tuple(
        tuple((one, -scale * P.x(j)) for j in range(1, n + 1))
        for _ in range(n))
    return AffineAutomorphismFamily(n, table)


def _power_terms(lam, mu, k: int) -> list:
    """``(i, C(k, i) lam^i mu^(k-i))`` for the nonzero terms of ``(lam D + mu)^k``.

    A coefficient equal to 1 is the shared ``ONE``, so that callers can skip
    multiplying by it.
    """
    if mu == 0:  # a linear twist: only the top term survives
        c = lam ** k
        return [(k, ONE if c == 1 else c)] if c != 0 else []
    out = []
    for i in range(k + 1):
        c = math.comb(k, i) * lam ** i * mu ** (k - i)
        if c != 0:
            out.append((i, ONE if c == 1 else c))
    return out


def _apply_to_terms(nu_map: dict, terms: dict, n: int, powers: dict) -> dict:
    """Image of a PBW combination under the multiplicative extension of ``nu_map``.

    ``nu(D_n^{k_n} ... D_1^{k_1})`` is the product, in decreasing index
    order, of the powers ``(lam_j D_j + mu_j)^{k_j}``.  Expanding each power
    binomially leaves only products ``D_n^{i_n} ... D_1^{i_1}``, which are
    PBW monomials already, so no relation is ever applied.  ``powers`` holds
    the expansions already made for ``nu_map``, keyed by ``(j, k)``, and
    receives the new ones.
    """
    out: dict = {}
    for expts, c in terms.items():
        partial = [((), c)]
        for j, k in enumerate(expts, start=1):
            if k == 0:
                partial = [(e + (0,), v) for e, v in partial]
                continue
            factor = powers.get((j, k))
            if factor is None:
                factor = powers[(j, k)] = _power_terms(*nu_map[j], k)
            partial = [(e + (i,), v if w is ONE else w if v is ONE else v * w)
                       for e, v in partial for i, w in factor]
        for e, v in partial:
            w = out.get(e)
            out[e] = v if w is None else w + v
    return {e: v for e, v in out.items() if v != 0}


def _powers(nu: AffineAutomorphismFamily, key) -> dict:
    """The power expansions of one of ``nu``'s maps, kept for the family's life.

    ``key`` names the map as ``_memo`` does: an index tuple for
    ``composed(key)``, or ``"omega-inverse"``.
    """
    return nu._memo.setdefault(("powers", key), {})


def _twist_terms(terms: dict, key: tuple, nu: AffineAutomorphismFamily,
                 n: int) -> dict:
    """``terms`` under ``composed(key)``, with the family's power expansions."""
    return _apply_to_terms(nu.composed(key), terms, n, _powers(nu, key))


def _apply_map_to_word(nu_map: dict, word, P: AlgebraPresentation) -> Poly:
    if all(a >= b for a, b in zip(word, word[1:])):  # a PBW monomial
        return Poly(P.n, _apply_to_terms(
            nu_map, {word_exponents(word, P.n): ONE}, P.n, {}))
    # a word with an ascent is not a PBW monomial: its image needs the relations
    out = Poly.one(P.n)
    for letter in word:
        lam, mu = nu_map[letter]
        img = Poly.generator(P.n, letter).scale(lam) + Poly.scalar(P.n, mu)
        out = multiply(out, img, P)
    return out


def apply_automorphism(nu_map: dict, p: Poly, P: AlgebraPresentation) -> Poly:
    """Extend one generator map multiplicatively and apply it to ``p``."""
    return Poly(P.n, _apply_to_terms(nu_map, p.terms, P.n, {}))


def _relation_combination(P: AlgebraPresentation, u: int, v: int) -> dict:
    """The pair relation as a free combination that reduces to zero."""
    comb = {}
    if P.g(u, v) != 0:
        comb[(u, v)] = P.g(u, v)
    if P.g(v, u) != 0:
        comb[(v, u)] = -P.g(v, u)
    if P.x(v) != 0:
        comb[(u,)] = comb.get((u,), rational(0)) - P.x(v)
    if P.x(u) != 0:
        comb[(v,)] = comb.get((v,), rational(0)) + P.x(u)
    return comb


@dataclass(frozen=True)
class AutomorphismReport:
    relations_preserved: bool
    pairwise_commute: bool
    bijective: bool
    failures: tuple

    @property
    def ok(self) -> bool:
        return self.relations_preserved and self.pairwise_commute and self.bijective


def verify_automorphisms(nu: AffineAutomorphismFamily,
                         P: AlgebraPresentation) -> AutomorphismReport:
    n = P.n
    failures = []
    bijective = True
    for a in range(1, n + 1):
        for j in range(1, n + 1):
            if nu.lam(a, j) == 0:
                bijective = False
                failures.append(f"nu_{a} sends D{j} to a constant")
    relations_ok = True
    for a in range(1, n + 1):
        nu_map = nu.map_of(a)
        for u, v in combinations(range(1, n + 1), 2):
            image = Poly.zero(n)
            for word, c in _relation_combination(P, u, v).items():
                image = image + _apply_map_to_word(nu_map, word, P).scale(c)
            if not image.is_zero():
                relations_ok = False
                failures.append(
                    f"nu_{a} breaks the relation of the pair ({u},{v})")
    commute_ok = True
    for a, b in combinations(range(1, n + 1), 2):
        for j in range(1, n + 1):
            la, ma = nu.lam(a, j), nu.mu(a, j)
            lb, mb = nu.lam(b, j), nu.mu(b, j)
            if lb * ma + mb != la * mb + ma:
                commute_ok = False
                failures.append(
                    f"nu_{a} and nu_{b} disagree on D{j} depending on order")
    return AutomorphismReport(relations_ok, commute_ok, bijective,
                              tuple(failures))


def _d_combination(comb: dict, nu: AffineAutomorphismFamily,
                   P: AlgebraPresentation) -> dict:
    """Apply the positional differential to a pair relation combination.

    Serves :func:`leibniz_defects` and :func:`no_go_residual`; PBW monomials
    go through :func:`_monomial_d`.  Returns the one-form coefficients as
    ``{a: Poly}`` with zero entries dropped.  Each term
    ``nu_l(prefix) * suffix`` is built directly, as the monomials of
    ``nu_l(prefix)`` with the suffix exponents added, which is exact on a
    word of at most two letters: at every position the prefix or the suffix
    is empty.
    """
    n = P.n
    out: dict = {}
    for word, c in comb.items():
        prefix, suffix = [0] * n, list(word_exponents(word, n))
        for letter in word:
            suffix[letter - 1] -= 1
            image = _twist_terms({tuple(prefix): c}, (letter,), nu, n)
            dst = out.setdefault(letter, {})
            for e, v in image.items():
                _add_term(dst, tuple(a + b for a, b in zip(e, suffix)), v)
            prefix[letter - 1] += 1
    return {a: Poly(n, terms) for a, terms in out.items() if terms}


def _d_step(d_prev: dict, prev: tuple, i: int,
            nu: AffineAutomorphismFamily, n: int) -> dict:
    """d of ``prev * D_{i+1}`` from ``d_prev = d(prev)``, where no letter of
    ``prev`` is below ``i + 1``: ``shift(d(prev)) + dD_{i+1} nu_{i+1}(prev)``."""
    out = {a: {e[:i] + (e[i] + 1,) + e[i + 1:]: v for e, v in terms.items()}
           for a, terms in d_prev.items()}
    letter = i + 1
    dst = out.setdefault(letter, {})
    _iadd(dst, _twist_terms({prev: ONE}, (letter,), nu, n), ONE)
    if not dst:
        del out[letter]
    return out


def _monomial_d(expts: tuple, nu: AffineAutomorphismFamily, n: int) -> dict:
    """``{a: terms}`` of d of the PBW monomial ``expts``, empty entries dropped.

    Returns the stored dict itself, which callers must not change.  On a
    miss it walks down by the smallest letter to the nearest stored
    monomial (or to 1, whose d is 0), and builds back up by
    :func:`_d_step`, storing only ``expts``: the intermediate monomials are
    not kept, so one high power costs one entry.
    """
    memo = nu._memo
    d = memo.get(("d", expts))
    if d is not None:
        return d
    chain = []  # (m', i) with m = m' D_{i+1}, D_{i+1} the smallest letter of m
    m, d = expts, {}
    while any(m):
        i = next(i for i, k in enumerate(m) if k)
        m = m[:i] + (m[i] - 1,) + m[i + 1:]
        chain.append((m, i))
        stored = memo.get(("d", m))
        if stored is not None:
            d = stored
            break
    for prev, i in reversed(chain):
        d = _d_step(d, prev, i, nu, n)
    memo[("d", expts)] = d
    return d


def differential(p: Poly, nu: AffineAutomorphismFamily,
                 P: AlgebraPresentation) -> "GradedForm":
    """``d(p)`` as the linear sum of the stored differentials of its monomials."""
    n = P.n
    out: dict = {}
    for expts, c in p.terms.items():
        for a, terms in _monomial_d(expts, nu, n).items():
            _iadd(out.setdefault(a, {}), terms, c)
    return GradedForm(n, 1, {(a,): Poly(n, terms) for a, terms in out.items()})


def partial_derivative(a: int, p: Poly, nu: AffineAutomorphismFamily,
                       P: AlgebraPresentation) -> Poly:
    """The ``dD_a`` coefficient of ``d(p)``."""
    return differential(p, nu, P).coeffs.get((a,), Poly.zero(P.n))


class GradedForm:
    """A finite sum ``dD_J * p_J`` with ``J`` a strictly increasing index set."""

    __slots__ = ("n", "degree", "coeffs")

    def __init__(self, n: int, degree: int, coeffs: dict | None = None):
        self.n = n
        self.degree = degree
        clean = {}
        for J, p in (coeffs or {}).items():
            J = tuple(J)
            if len(J) != degree or list(J) != sorted(set(J)):
                raise ValueError(f"malformed basis index set {J} in degree {degree}")
            if not p.is_zero():
                clean[J] = p
        self.coeffs = clean

    @staticmethod
    def zero(n: int, degree: int) -> "GradedForm":
        return GradedForm(n, degree, {})

    def is_zero(self) -> bool:
        return not self.coeffs

    def __add__(self, other: "GradedForm") -> "GradedForm":
        if (self.n, self.degree) != (other.n, other.degree):
            raise ValueError("cannot add forms of different degrees")
        out = dict(self.coeffs)
        for J, p in other.coeffs.items():
            q = out.get(J)
            out[J] = p if q is None else q + p
        return GradedForm(self.n, self.degree, out)

    def scale(self, c) -> "GradedForm":
        return GradedForm(self.n, self.degree,
                          {J: p.scale(c) for J, p in self.coeffs.items()})

    def __eq__(self, other):
        return (isinstance(other, GradedForm) and self.n == other.n
                and self.degree == other.degree and self.coeffs == other.coeffs)

    def __repr__(self):
        return f"GradedForm(n={self.n}, degree={self.degree}, {self.coeffs!r})"


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
        inverse = {}
        for j, (lam, mu) in nu.composed(range(1, nu.n + 1)).items():
            if lam == 0:
                raise CalculusError(
                    f"the volume twist is singular: it sends D{j} to a constant")
            inverse[j] = (ONE / lam, -mu / lam)
        nu._memo["omega-inverse"] = inverse
    return inverse


def nu_omega(p: Poly, nu: AffineAutomorphismFamily,
             P: AlgebraPresentation) -> Poly:
    """The volume twist ``nu_n o ... o nu_1``, applied as one composed map."""
    return _transport(p, range(1, nu.n + 1), nu, P)


def nu_omega_inverse(p: Poly, nu: AffineAutomorphismFamily,
                     P: AlgebraPresentation) -> Poly:
    return Poly(P.n, _apply_to_terms(_omega_inverse_maps(nu), p.terms, P.n,
                                     _powers(nu, "omega-inverse")))


def _monomials(n: int, degree: int):
    """All exponent tuples of the given total degree."""
    if n == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _monomials(n - 1, degree - first):
            yield (first,) + rest


def check_connectedness(P: AlgebraPresentation, nu: AffineAutomorphismFamily,
                        degree_bound: int = 5) -> bool:
    """No nonconstant element of bounded degree may be closed."""
    for deg in range(1, degree_bound + 1):
        for expts in _monomials(P.n, deg):
            if differential(Poly.monomial(P.n, expts), nu, P).is_zero():
                return False
    return True


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


def leibniz_defects(P: AlgebraPresentation,
                    nu: AffineAutomorphismFamily) -> tuple:
    """Pairs whose relation is not annihilated by the differential."""
    bad = []
    for u, v in combinations(range(1, P.n + 1), 2):
        if _d_combination(_relation_combination(P, u, v), nu, P):
            bad.append((u, v))
    return tuple(bad)


def check_d_squared(P: AlgebraPresentation, nu: AffineAutomorphismFamily,
                    degree_bound: int = 4) -> bool:
    """d applied twice kills every monomial of bounded degree."""
    for deg in range(1, degree_bound + 1):
        for expts in _monomials(P.n, deg):
            first = differential(Poly.monomial(P.n, expts), nu, P)
            if not form_differential(first, nu, P).is_zero():
                return False
    return True


def no_go_residual(P: AlgebraPresentation, i: int, t: int,
                   nu: AffineAutomorphismFamily) -> Poly:
    """The ``dD_i`` coefficient of d applied to the ``{i, t}`` relation.

    A well-defined differential needs this to vanish; for a one-sided pair
    it reduces to the pair's leading coefficient times ``D_t`` (transported
    when ``t`` precedes ``i``), which is nonzero whenever the presentation
    is admissible.
    """
    u, v = min(i, t), max(i, t)
    return _d_combination(_relation_combination(P, u, v), nu, P).get(
        i, Poly.zero(P.n))
