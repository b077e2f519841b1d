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

On a PBW monomial ``m = D_n^{k_n} ... D_1^{k_1}`` the positional sum needs
no relation, and it factors.  Only the positions holding the letter ``a``
give ``dD_a``; the one after ``i`` earlier letters ``a`` has the prefix
``D_n^{k_n} ... D_{a+1}^{k_{a+1}} D_a^i`` and the suffix
``D_a^{k_a-1-i} D_{a-1}^{k_{a-1}} ... D_1^{k_1}``.  Its term is then a
product, in decreasing letter order, of polynomials in one letter each, so
the ``dD_a`` coefficient is::

    d_a(m) = prod_{j>a} nu_a(D_j)^{k_j}
             * sum_{i<k_a} nu_a(D_a)^i D_a^{k_a-1-i}
             * prod_{j<a} D_j^{k_j}

and each product of one-letter factors is a PBW combination already.  With
``nu_a(D_j) = (L D_j + M) / e`` (the family's integer columns) each factor
is an integer row over a power of ``e``, from the same two helpers in
``scalars`` as the engine's pair rows: ``nu_a(D_j)^k`` is the binomial row
of ``(L D + M)^k`` over ``e^k``, and the sum is the geometric row
``((L D + M)^k - (e D)^k) / ((L - e) D + M)`` over ``e^(k-1)``, which
collapses to ``k_a D_a^{k_a-1}`` only when ``nu_a`` fixes ``D_a``.  Each
factor is made once per family and ``(a, j, k)``, and each result is kept
per family as integer numerators over one denominator per letter (see
:class:`AffineAutomorphismFamily`), so a check that differentiates every
monomial up to some degree computes each one once, and builds no
``Fraction`` unless it asks for the differential as a ``Poly``.

The ``certify_*`` functions decide ``d∘d = 0``, connectedness and the
volume-form identities from the family's scalars and generator maps, with
no differential, wedge or product.  Each docstring gives the argument and
the premises it needs; where they fail, the sampled ``check_*`` decides.

The higher-forms algebra lives in :mod:`diffalg.forms`, with
``apply_automorphism`` and ``partial_derivative``, which no command calls.
Only ``--degree-bound``, foreign families (such as the ones a test plants)
and the API run it, so no module imports it when it loads.  ``__all__``
lists its public names, and the module ``__getattr__`` (PEP 562) serves
exactly the names of ``__all__``: a listed name this module defines never
reaches it, so the others load ``forms`` on their first lookup and are kept
here, where a monkeypatch or a rebinding tracer finds them.  Its private
helpers are imported from ``forms`` itself.  The connectedness sample stays
here (``check_connectedness``, ``_sample``, ``GradedForm``): a default
``smooth`` still samples it on every B row whose family has some
``lam_aa = -1`` (ROADMAP item 3), and with the sample in ``forms`` the first
such op of a process would compile that module.
"""

from __future__ import annotations

import math
from itertools import combinations

from .classify import Decomposition, FamilyIdentification, decompose, identify_family
from .engine import Poly, _add_over
from .presentation import AlgebraPresentation
from .records import Record, setfield
from .scalars import ONE, ZERO, _binomial, _geometric, rational

__all__ = [
    "CalculusError", "AffineAutomorphismFamily", "build_automorphisms",
    "shift_ansatz", "apply_automorphism", "AutomorphismReport",
    "verify_automorphisms", "differential", "partial_derivative",
    "GradedForm", "basis_form", "scalar_form",
    "wedge", "form_differential", "left_multiply", "right_multiply", "pi_omega",
    "nu_omega", "nu_omega_inverse", "check_connectedness",
    "check_integrating_form", "leibniz_defects", "check_d_squared",
    "no_go_residual", "certify_connectedness", "certify_d_squared",
    "certify_expansion", "certify_projection",
]


def __getattr__(name: str):
    """A name of ``__all__`` that ``forms`` defines, kept in this module once
    it is loaded, so the next lookup, a monkeypatch or a rebinding tracer
    finds it here."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import forms
    value = globals()[name] = getattr(forms, name)
    return value


class CalculusError(ValueError):
    """Raised when no twisting family exists for the requested data."""


class AffineAutomorphismFamily:
    """One affine generator map per index: ``nu_a(D_j) = (L D_j + M) / e``.

    ``cols[a-1][j-1] = (L, M, e)`` holds the map as integers with ``e > 0``
    and ``gcd(L, M, e) = 1``; ``lam(a, j) = L / e`` and ``mu(a, j) = M / e``
    build a ``Fraction`` on each call.  That form is canonical, so equality
    and hashing compare ``(n, cols)``: two such triples of one map are
    proportional, ``e' (L, M, e) = e (L', M', e')``, and taking gcds gives
    ``e' = e``, so they are equal (and ``e`` is the lcm of the reduced
    denominators of ``lam`` and ``mu``).  Every constructor divides its
    triple by the gcd (:func:`_column`): ``build_automorphisms`` and
    ``shift_ansatz`` from the presentation's integers, and the public one
    from a table ``table[a-1][j-1] = (lam, mu)`` of rationals
    (``Fraction`` or ``int``).

    Composed generator maps are derived once per family and kept in
    ``_memo`` (keyed by index tuple, plus the inverse volume twist), next to
    the ``Fraction`` table they are composed from (``"table"``), the
    binomial expansions of their powers (see :func:`_powers`), the
    differentials of the PBW monomials that were asked for, as integer
    forms (keyed ``("d", exponents)``, see :func:`_monomial_d`), their
    one-letter factors (keyed ``("factor", a, j, k)``, see :func:`_factor`)
    and the entries whose ``lam`` is zero (see :func:`_zero_lams`); the memo
    takes no part in equality or hashing, and is freed with the family.  Two
    equal families keep separate memos.
    """

    __slots__ = ("n", "cols", "_memo")

    def __init__(self, n: int, table):
        cols = []
        for row in table:
            col = []
            for lam, mu in row:
                (a, b), (c, d) = lam.as_integer_ratio(), mu.as_integer_ratio()
                col.append(_column(a * d, c * b, b * d))
            cols.append(tuple(col))
        self._store(n, tuple(cols))

    @classmethod
    def _from_columns(cls, n: int, cols: tuple) -> "AffineAutomorphismFamily":
        """A family over canonical columns, shaped as ``cols`` is."""
        nu = object.__new__(cls)
        nu._store(n, cols)
        return nu

    def _store(self, n: int, cols: tuple) -> None:
        self.n = n
        self.cols = cols
        self._memo = {}

    def lam(self, a: int, j: int):
        L, _, e = self.cols[a - 1][j - 1]
        return rational(L, e)

    def mu(self, a: int, j: int):
        _, M, e = self.cols[a - 1][j - 1]
        return rational(M, e)

    @property
    def table(self) -> tuple:
        """``table[a-1][j-1] = (lam, mu)`` as ``Fraction``s, built on first use."""
        table = self._memo.get("table")
        if table is None:
            table = self._memo["table"] = tuple(
                tuple((rational(L, e), rational(M, e)) for L, M, e in col)
                for col in self.cols)
        return table

    def __eq__(self, other):
        return (isinstance(other, AffineAutomorphismFamily)
                and self.n == other.n and self.cols == other.cols)

    def __hash__(self):
        return hash((self.n, self.cols))

    def __repr__(self):
        return f"AffineAutomorphismFamily(n={self.n!r}, table={self.table!r})"

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
            table = self.table
            out = {}
            for j in range(1, self.n + 1):
                lam, mu = ONE, ZERO
                for k in key:
                    lk, mk = table[k - 1][j - 1]
                    # D_j -> lam D_j + mu, then D_j -> lk D_j + mk inside it
                    lam, mu = lam * lk, lam * mk + mu
                out[j] = (lam, mu)
            self._memo[key] = out
        return out


def _column(L: int, M: int, e: int) -> tuple:
    """The canonical column of ``(L D + M) / e``, ``e != 0``: over the gcd,
    with ``e > 0``."""
    k = math.gcd(L, M, e)
    if e < 0:
        k = -k
    return L // k, M // k, e // k


def build_automorphisms(P: AlgebraPresentation,
                        dec: Decomposition | None = None,
                        fam: FamilyIdentification | None = None
                        ) -> AffineAutomorphismFamily:
    """Derive the twisting family forced by d-compatibility.

    Raises :class:`CalculusError` when some required pair is one-sided, i.e.
    when no affine family can make the differential well defined.

    No ``lam`` of the family is zero.  Every ``g(j, a)`` with ``j != a`` is
    the denominator of an entry off the diagonal, so a family exists only
    when every ``g(u, v)`` is nonzero.  Then ``lam_aj = g(a, j) / g(j, a)``
    off the diagonal, and ``lam_aa`` is 1 or ``g(o, a) / g(a, o)``, a ratio
    of two of them.  So every map is bijective, and the raises of
    :func:`certify_expansion` (a zero merge factor) and
    :func:`certify_projection` (a singular volume twist) serve only foreign
    families, such as the ones a test plants.
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
    # g(i, j) = g[i, j] / den and x(j) = p / r, so an entry
    # (g(s, t) D_j - x(j)) / g(t, s) is (g[s, t] r D_j - p den) / (r g[t, s])
    g, den = P.g_integers()
    x = P.x_ratios()
    interacting = set(dec.I)
    cols = []
    for a in range(1, n + 1):
        col = []
        for j in range(1, n + 1):
            if j != a:
                top, bottom = (a, j), (j, a)
                if g[bottom] == 0:
                    raise CalculusError(
                        f"no affine family exists: the pair ({j},{a}) is "
                        f"one-sided, so D{j} cannot be pushed through dD{a}")
            elif a in interacting and len(interacting) >= 2:
                other = min(i for i in interacting if i != a)
                top, bottom = (other, a), (a, other)
                if g[bottom] == 0:
                    raise CalculusError(
                        f"no affine family exists: the pair ({a},{other}) "
                        f"is one-sided on its trailing slot")
            else:
                col.append((1, 0, 1))
                continue
            p, r = x[j]
            col.append(_column(g[top] * r, -p * den, r * g[bottom]))
        cols.append(tuple(col))
    return AffineAutomorphismFamily._from_columns(n, tuple(cols))


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
    s, t = fam.ratios.get("g", (0, 1))
    s, t = (s, t) if s else (1, 1)
    x = P.x_ratios()
    # with x_b = p / r and g = s / t, x_b / g = p t / (r s)
    col = tuple(_column(r * s, -p * t, r * s)
                for p, r in (x[b] for b in range(1, P.n + 1)))
    return AffineAutomorphismFamily._from_columns(P.n, (col,) * P.n)


def _apply_to_terms(nu_map: dict, terms: dict, n: int, powers: dict) -> dict:
    """Image of a PBW combination under the multiplicative extension of ``nu_map``.

    ``nu(D_n^{k_n} ... D_1^{k_1})`` is the product, in decreasing index
    order, of the powers ``(lam_j D_j + mu_j)^{k_j}``.  Expanding each power
    binomially leaves only products ``D_n^{i_n} ... D_1^{i_1}``, which are
    PBW monomials already, so no relation is ever applied.  ``powers`` holds
    the expansions already made for ``nu_map``, keyed by ``(j, k)``, and
    receives the new ones: with ``lam = p / q`` and ``mu = r / s`` the power
    is ``(p s D + r q)^k / (q s)^k``, and a coefficient equal to 1 is the
    shared ``ONE``, so that no product multiplies by it.
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
                (p, q), (r, s) = (x.as_integer_ratio() for x in nu_map[j])
                scale = (q * s) ** k
                factor = powers[(j, k)] = [
                    (i, ONE if w == scale else rational(w, scale))
                    for i, w in _binomial(p * s, r * q, k)]
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


class AutomorphismReport(Record):
    __slots__ = _compared = _shown = (
        "relations_preserved", "pairwise_commute", "bijective", "failures")

    def __init__(self, relations_preserved: bool, pairwise_commute: bool,
                 bijective: bool, failures: tuple):
        setfield(self, "relations_preserved", relations_preserved)
        setfield(self, "pairwise_commute", pairwise_commute)
        setfield(self, "bijective", bijective)
        setfield(self, "failures", failures)

    @property
    def ok(self) -> bool:
        return self.relations_preserved and self.pairwise_commute and self.bijective


def _zero_lams(nu: AffineAutomorphismFamily) -> tuple:
    """The ``(a, j)`` with ``lam_aj = 0``, that is ``L = 0``, row by row:
    one scan per family, kept in ``_memo`` under ``"zero-lams"``."""
    zeros = nu._memo.get("zero-lams")
    if zeros is None:
        zeros = nu._memo["zero-lams"] = tuple(
            (a, j) for a, col in enumerate(nu.cols, start=1)
            for j, (L, _, _) in enumerate(col, start=1) if L == 0)
    return zeros


def verify_automorphisms(nu: AffineAutomorphismFamily,
                         P: AlgebraPresentation) -> AutomorphismReport:
    """Bijectivity, relation preservation and pairwise commutation, exactly.

    Every test is an integer identity in the family's columns
    ``nu_a(D_j) = (L D_j + M) / e`` (``AffineAutomorphismFamily.cols``) and
    the relations' integer coefficients; no polynomial is built.

    *Bijective*: ``nu_a`` sends ``D_j`` to a constant exactly when ``L = 0``.

    *Commute*: ``nu_b(nu_a(D_j)) = lam_a lam_b D_j + lam_a mu_b + mu_a``, so
    ``nu_a`` and ``nu_b`` agree on ``D_j`` in either order iff
    ``lam_b mu_a + mu_b = lam_a mu_b + mu_a``; times ``e_a e_b`` that is
    ``L_b M_a + M_b e_a = L_a M_b + M_a e_b``.

    *Relations*: the presentation's rule ``(Q, X, Y, G)`` of ``u < v``
    (``AlgebraPresentation.relations``) is the relation
    ``c D_u D_v + c' D_v D_u + c_u D_u + c_v D_v`` with
    ``(c, c', c_u, c_v) = (G, -Q, -X, -Y)``, a nonzero rational multiple of
    ``g(u,v) D_u D_v - g(v,u) D_v D_u - x_v D_u + x_u D_v``; every identity
    below is homogeneous of degree 1 in the four, so the multiple changes no
    answer.  Let ``s = c + c'`` and ``(lam_u, mu_u), (lam_v, mu_v)`` the
    images of ``D_u, D_v`` under ``nu_a``.  Both
    ``(lam_u D_u + mu_u)(lam_v D_v + mu_v)`` and the product in the other
    order are ``lam_u lam_v`` times the word plus the same
    ``lam_u mu_v D_u + mu_u lam_v D_v + mu_u mu_v``, so the image is

        lam_u lam_v (c D_u D_v + c' D_v D_u)
            + s (lam_u mu_v D_u + mu_u lam_v D_v + mu_u mu_v)
            + c_u (lam_u D_u + mu_u) + c_v (lam_v D_v + mu_v).

    The leading coefficient ``c`` is ``g(u, v) != 0``, so the relation is
    the rewriting rule of ``D_u D_v`` itself, and the normal form of
    ``c D_u D_v + c' D_v D_u`` is ``-c_u D_u - c_v D_v``.  The image in
    normal form is then a combination of ``D_u``, ``D_v`` and 1 alone, and
    is zero iff these three coefficients are:

        D_u:  lam_u (c_u (1 - lam_v) + s mu_v)
        D_v:  lam_v (c_v (1 - lam_u) + s mu_u)
        1:    s mu_u mu_v + c_u mu_u + c_v mu_v

    Times ``e_u e_v`` they are ``L_u (c_u (e_v - L_v) + s M_v)``,
    ``L_v (c_v (e_u - L_u) + s M_u)`` and
    ``s M_u M_v + c_u M_u e_v + c_v M_v e_u``.

    Raises ``ValueError`` on the first zero leading coefficient ``g(u, v)``,
    ``u < v``, in ``(u, v)`` order: no relation rewrites that pair, and the
    argument above needs the rule.  The failure messages come in the order
    bijective, relations (by map, then by pair), commute.
    """
    n = P.n
    if P.zero_leads():
        u, v = P.zero_leads()[0]
        raise ValueError(f"zero leading coefficient g({u}, {v})")
    # s = c + c' = G - Q, c_u = -X, c_v = -Y
    relations = [(u, v, G - Q, -X, -Y)
                 for (u, v), (Q, X, Y, G) in P.relations().items()]
    cols = nu.cols
    failures = [f"nu_{a} sends D{j} to a constant" for a, j in _zero_lams(nu)]
    bijective = not failures
    relations_ok = True
    for a, col in enumerate(cols, start=1):
        for u, v, s, c_u, c_v in relations:
            L_u, M_u, e_u = col[u - 1]
            L_v, M_v, e_v = col[v - 1]
            if ((L_u and c_u * (e_v - L_v) + s * M_v)
                    or (L_v and c_v * (e_u - L_u) + s * M_u)
                    or s * M_u * M_v + c_u * M_u * e_v + c_v * M_v * e_u):
                relations_ok = False
                failures.append(f"nu_{a} breaks the relation of the pair ({u},{v})")
    commute_ok = True
    for a, b in combinations(range(1, n + 1), 2):
        for j, ((la, ma, ea), (lb, mb, eb)) in enumerate(
                zip(cols[a - 1], cols[b - 1]), start=1):
            if lb * ma + mb * ea != la * mb + ma * eb:
                commute_ok = False
                failures.append(
                    f"nu_{a} and nu_{b} disagree on D{j} depending on order")
    return AutomorphismReport(relations_ok, commute_ok, bijective,
                              tuple(failures))


def _factor(nu: AffineAutomorphismFamily, a: int, j: int, k: int) -> tuple:
    """``(row, e^k)`` or ``(row, e^(k-1))``: the one-letter factor of ``d_a``
    at the letter ``j >= a`` with exponent ``k``, as integer ``(i, c)``
    pairs over that denominator.

    For ``j > a`` it is ``nu_a(D_j)^k``, the ``scalars._binomial`` row of
    ``(L D_j + M)^k`` over ``e^k``; for ``j = a`` the sum
    ``sum_{i<k} nu_a(D_a)^i D_a^{k-1-i}``, the ``scalars._geometric`` row
    over ``e^(k-1)``.  Kept in ``_memo`` under ``("factor", a, j, k)``.
    """
    key = ("factor", a, j, k)
    factor = nu._memo.get(key)
    if factor is None:
        L, M, e = nu.cols[a - 1][j - 1]
        power = _binomial(L, M, k)
        if j != a:
            factor = power, e ** k
        else:
            factor = _geometric(power, L, M, e, k), e ** (k - 1)
        nu._memo[key] = factor
    return factor


def _monomial_d(expts: tuple, nu: AffineAutomorphismFamily, n: int) -> dict:
    """``{a: (nums, den)}``: d of the PBW monomial ``expts``, each ``d_a`` as
    integer numerators on exponent tuples over one positive denominator,
    empty entries dropped.

    Reads the closed form of the module docstring as a product of one-letter
    factors: ``D_j^{k_j}`` itself below ``a``, and from ``a`` on the rows of
    :func:`_factor`, kept per family.  Stores the result in ``_memo`` under
    ``("d", expts)``: callers must not change it.
    """
    d = nu._memo.get(("d", expts))
    if d is not None:
        return d
    d = nu._memo[("d", expts)] = {}
    for a, k in enumerate(expts, start=1):
        if not k:
            continue
        den = 1
        terms = [((), 1)]
        for j, kj in enumerate(expts, start=1):
            if j < a:
                factor = ((kj, 1),)
            else:
                factor, e = _factor(nu, a, j, kj)
                den *= e
            terms = [(m + (t,), c * v) for m, c in terms for t, v in factor]
        if terms:
            d[a] = (dict(terms), den)
    return d


def differential(p: Poly, nu: AffineAutomorphismFamily,
                 P: AlgebraPresentation) -> "GradedForm":
    """``d(p)`` as the linear sum of the stored differentials of its monomials.

    The sum of each ``d_a`` is an integer form over one denominator, as in
    the engine's fold (``() + m`` is the exponent tuple ``m``), and a
    ``Fraction`` is built only for each term of the result.
    """
    n = P.n
    sums: dict = {}
    for expts, c in p.terms.items():
        for a, (nums, e) in _monomial_d(expts, nu, n).items():
            acc = sums.setdefault(a, [{}, 1])
            acc[1] = _add_over(acc[0], acc[1], c.numerator, nums,
                               c.denominator * e, ())
    return GradedForm(n, 1, {
        (a,): Poly(n, {m: rational(v, den) for m, v in nums.items()})
        for a, (nums, den) in sums.items()})


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


def _require_regular_volume_twist(nu: AffineAutomorphismFamily) -> None:
    """Raise :class:`CalculusError` when the volume twist ``nu_n o ... o nu_1``
    is singular.  It sends ``D_j`` to ``(prod_a lam_aj) D_j + ...``, a
    constant exactly when some ``lam_aj`` is zero; the first such ``j`` is
    named."""
    zeros = _zero_lams(nu)
    if zeros:
        j = min(j for _, j in zeros)
        raise CalculusError(
            f"the volume twist is singular: it sends D{j} to a constant")


def _monomials(n: int, degree: int):
    """All exponent tuples of the given total degree."""
    if n == 1:
        yield (degree,)
        return
    for first in range(degree, -1, -1):
        for rest in _monomials(n - 1, degree - first):
            yield (first,) + rest


def _sample(n: int, degree_bound: int, lowest: int = 1) -> list:
    """The exponent tuples of degree ``lowest`` to ``degree_bound``.  A
    negative bound raises ``ValueError``: a sampled check would test no
    monomial under it, and pass."""
    if degree_bound < 0:
        raise ValueError(
            f"the degree bound must be nonnegative, got {degree_bound}")
    return [m for d in range(lowest, degree_bound + 1) for m in _monomials(n, d)]


def check_connectedness(P: AlgebraPresentation, nu: AffineAutomorphismFamily,
                        degree_bound: int = 5) -> bool:
    """No nonconstant monomial of bounded degree may be closed, read off the
    stored differentials (:func:`_monomial_d`, empty exactly when d is 0).

    A sample: ker d is a subspace, and a combination can be closed when no
    monomial is (see :func:`certify_connectedness`, which proves ker d =
    constants where its premises hold).  Raises ``ValueError`` on a
    negative bound (see :func:`_sample`).
    """
    return all(_monomial_d(expts, nu, P.n) for expts in _sample(P.n, degree_bound))


def leibniz_defects(P: AlgebraPresentation,
                    nu: AffineAutomorphismFamily) -> tuple:
    """Pairs whose relation is not annihilated by the differential.

    With the relation of ``u < v`` written as
    ``c D_u D_v + c' D_v D_u + c_u D_u + c_v D_v`` (see
    :func:`verify_automorphisms`), the positional sum on its words is

        d(D_u D_v) = dD_u D_v + dD_v (lam_vu D_u + mu_vu)
        d(D_v D_u) = dD_v D_u + dD_u (lam_uv D_v + mu_uv)

    and ``d(D_u) = dD_u``, ``d(D_v) = dD_v``, so d of the relation is

        dD_u ((c + c' lam_uv) D_v + c' mu_uv + c_u)
            + dD_v ((c lam_vu + c') D_u + c mu_vu + c_v).

    It vanishes iff these four scalars do; with ``c = g(u, v)``,
    ``c' = -g(v, u)``, ``c_u = -x_v`` and ``c_v = x_u`` they are
    ``g(u,v) - g(v,u) lam_uv``, ``g(v,u) mu_uv + x_v``,
    ``g(u,v) lam_vu - g(v,u)`` and ``g(u,v) mu_vu + x_u`` up to sign.  Over
    the integer columns (``AffineAutomorphismFamily.cols``) each is a
    cross-product.  Nothing is rewritten, so the identities hold on every
    table, a zero leading coefficient included.
    """
    cols = nu.cols
    bad = []
    for (u, v), (Q, X, Y, G) in P.relations().items():
        c, c2, c_u, c_v = G, -Q, -X, -Y
        L_uv, M_uv, e_uv = cols[u - 1][v - 1]
        L_vu, M_vu, e_vu = cols[v - 1][u - 1]
        if (c * e_uv + c2 * L_uv or c2 * M_uv + c_u * e_uv
                or c * L_vu + c2 * e_vu or c * M_vu + c_v * e_vu):
            bad.append((u, v))
    return tuple(bad)


def no_go_residual(P: AlgebraPresentation, i: int, t: int,
                   nu: AffineAutomorphismFamily) -> Poly:
    """The ``dD_i`` coefficient of d applied to the ``{i, t}`` relation.

    A well-defined differential needs this to vanish; for a one-sided pair
    it reduces to the pair's leading coefficient times ``D_t`` (transported
    when ``t`` precedes ``i``), which is nonzero whenever the presentation
    is admissible.  With ``u < v`` the pair, the coefficients are those of
    :func:`leibniz_defects`'s derivation, as exact rationals:

        dD_u:  (g(u,v) - g(v,u) lam_uv) D_v - g(v,u) mu_uv - x_v
        dD_v:  (g(u,v) lam_vu - g(v,u)) D_u + g(u,v) mu_vu + x_u
    """
    u, v = min(i, t), max(i, t)
    g_uv, g_vu = P.g(u, v), P.g(v, u)
    if i == u:
        j, lin = v, g_uv - g_vu * nu.lam(u, v)
        const = -g_vu * nu.mu(u, v) - P.x(v)
    else:
        j, lin = u, g_uv * nu.lam(v, u) - g_vu
        const = g_uv * nu.mu(v, u) + P.x(u)
    return Poly.generator(P.n, j).scale(lin) + Poly.scalar(P.n, const)


# -- closed-form certificates ------------------------------------------------------
#
# Each certificate decides one witness check from the family's scalars and
# generator maps, with no differential, wedge or product.  It answers True or
# False where its argument applies, and None where it does not, in which case
# the sampled check decides.


def certify_connectedness(nu: AffineAutomorphismFamily) -> bool | None:
    """``True`` when ker d = constants follows from the family's scalars.

    Write a PBW monomial ``m = D_n^{k_n} ... D_1^{k_1}`` as its decreasing
    word.  Only the positions holding the letter ``a`` give ``dD_a``, so
    ``d_a(m) = 0`` when ``k_a = 0``.  For ``k_a > 0`` the position after
    ``i`` earlier letters ``a`` gives ``nu_a(prefix) suffix``, whose part of
    top degree is ``prod_{j>a} lam_aj^{k_j} lam_aa^i m/D_a``.  So the part of
    ``d_a(m)`` of degree ``deg m - 1`` is

        prod_{j>a} lam_aj^{k_j} [k_a]_{lam_aa} m/D_a,
        [k]_lam = 1 + lam + ... + lam^(k-1).

    Take a nonconstant ``p`` and let ``a`` be the largest index that some
    monomial of the top part of ``p`` contains.  No top monomial holding
    ``D_a`` holds a larger letter, so the product of ``lam_aj`` is 1 for
    each of them.  Lower monomials of ``p`` give ``d_a`` terms of lower
    degree, and the monomials ``m/D_a`` are distinct, so ``d_a(p) != 0`` as
    long as no ``[k]_{lam_aa}`` vanishes; over Q that means
    ``lam_aa != -1``.  Then ker d is the constants, and in particular no
    monomial of any degree is closed, which is what
    :func:`check_connectedness` samples.

    A diagonal ``lam_aa = -1`` does leave a closed nonconstant element:
    ``d(D_a^2) = dD_a ((1 + lam_aa) D_a + mu_aa) = d(mu_aa D_a)``, which the
    monomial sample cannot see.  There ``None`` asks for the sample.
    """
    if any(col[a][0] == -col[a][2] for a, col in enumerate(nu.cols)):
        return None  # some lam_aa = L / e is -1
    return True


def certify_d_squared(nu: AffineAutomorphismFamily,
                      auto: AutomorphismReport) -> bool | None:
    """``True`` when d∘d = 0 follows from the family's scalars.

    Let ``d_a`` be the ``dD_a`` coefficient of d.
    :func:`~diffalg.forms.form_differential` gives ``d(dD_a q) = -dD_a ^ d(q)``,
    and :func:`~diffalg.forms._merge_twist` sorts
    ``dD_b dD_a = -lam_ab dD_a dD_b`` for ``a < b``, so the ``dD_a dD_b``
    coefficient of ``d(d(p))`` is ``-Phi(p)`` with

        Phi = d_b d_a - lam_ab d_a d_b.

    :func:`differential` is the positional sum on decreasing words, which is
    exact in the free algebra, where it is a twisted derivation:
    ``d_a(pq) = d_a(p) q + nu_a(p) d_a(q)`` with ``nu_a`` the algebra map
    ``D_j -> lam_aj D_j + mu_aj``.  The argument runs there, so it needs
    neither the relations nor Leibniz compatibility.  Expanding both
    products,

        Phi(pq) = Phi(p) q + nu_a nu_b(p) Phi(q) + X(p) d_b(q) + Y(p) d_a(q),
        X = nu_b d_a - lam_ab d_a nu_b,   Y = d_b nu_a - lam_ab nu_a d_b,

    where the second term uses ``nu_a nu_b = nu_b nu_a``.  That holds on the
    free algebra once it holds on generators (``pairwise-commute``), and then
    ``X(pq) = X(p) nu_b(q) + nu_a nu_b(p) X(q)`` and
    ``Y(pq) = Y(p) nu_a(q) + nu_a nu_b(p) Y(q)``.  On generators
    ``Y(D_j) = (lam_aj - lam_ab) [j = b] = 0`` and
    ``X(D_j) = (1 - lam_ab lam_ba) [j = a]``, and all three maps kill 1.  So,
    by induction on length, Y vanishes on every word and X on every word
    without the letter ``a``.  With ``q = D_l`` the terms read
    ``d_b(D_l) = [l = b]``, ``d_a(D_l) = [l = a]`` and ``Phi(D_l) = 0``::

        Phi(p D_l) = Phi(p) D_l + [l = b] X(p) + [l = a] Y(p).

    Write a decreasing word as ``p D_l``: every letter of ``p`` is ``>= l``,
    so for ``l = b > a`` the prefix has no letter ``a`` and ``X(p) = 0``.
    Phi then vanishes on every decreasing word by induction on its length,
    and ``d(d(p)) = 0`` in every degree, which is what
    :func:`~diffalg.forms.check_d_squared` samples.  No ``lam_ab lam_ba``
    enters: ``X(D_a)`` may be nonzero, but no decreasing word puts ``D_a``
    before ``D_b``.

    The premise holds for every family :func:`build_automorphisms` returns
    on a PBW table, so there this answers ``True``.  A family exists only
    when every pair is two-sided, every ``g(u, v)`` nonzero.  The maps
    ``nu_a`` and ``nu_b`` commute on ``D_j`` iff
    ``mu_aj (lam_bj - 1) = mu_bj (lam_aj - 1)``.  For ``j`` not in
    ``{a, b}`` the entries ``(g(a, j) D_j - x_j) / g(j, a)`` turn the
    difference of the two sides, times ``g(j, a) g(j, b)``, into

        x_j [(g(a, j) - g(j, a)) - (g(b, j) - g(j, b))].

    Up to sign, that bracket is the linear factor of one row of the
    ``engine`` docstring's table, whose ``a < b < c`` are here ``{a, b, j}``
    sorted: the ``D_b D_a`` row when ``j`` is the largest, ``D_c D_a`` when
    it is the middle and ``D_c D_b`` when it is the smallest.  The row's
    other factors are ``x_j`` and a trailing ``g``, which is nonzero, so the
    triple resolves only if this is zero.  For
    ``j = a`` the condition is trivial unless ``nu_a`` has an interacting
    diagonal, ``a`` in I and ``|I| >= 2``.  That diagonal is forced from
    ``o = min(I - {a})``, ``lam_aa = g(o, a) / g(a, o)`` and
    ``mu_aa = -x_a / g(a, o)``, so the condition is the one above for the
    triple ``{o, b, a}`` and the letter ``a``, trivial when ``b = o``; and
    ``j = b`` is the same with ``a`` and ``b`` swapped.

    The sampled fallback stays, for the foreign families that
    :func:`~diffalg.smoothness.verify_witness` also checks: there the
    premise is not necessary, and a noncommuting family can pass the
    sample.  Where it fails, ``None`` asks for the sample.
    """
    return True if auto.pairwise_commute else None


def certify_expansion(nu: AffineAutomorphismFamily, k: int) -> bool:
    """:func:`~diffalg.forms.check_integrating_form` with ``which="expand"``
    in degree ``k`` at degree 0, from the family's scalars.

    The check first computes the dual constants ``c_J = 1 / merge(J^c, J)``
    of both slots, and raises ``ZeroDivisionError`` on a zero merge factor.
    ``merge(J^c, J)`` is the product of ``-lam_uj`` over ``u`` in ``J`` and
    ``j > u`` outside it, and for ``0 < k < n`` some ``J`` of size ``k``
    splits any given pair ``u < j``; so the check raises exactly when
    ``0 < k < n`` and some ``lam_uj`` with ``u < j`` is zero, and then this
    raises ``ZeroDivisionError`` too, naming the first such entry.

    :func:`~diffalg.smoothness.verify_witness` never reaches this raise: a
    zero ``lam_uj`` also makes the volume twist singular, so
    ``integral-project-k0`` raises :class:`CalculusError` first.  Both
    raises serve foreign families only: a family from
    :func:`build_automorphisms` has no zero ``lam`` (its docstring gives the
    argument).

    Otherwise it passes: expand at degree 0 tests ``omega' = dD_K`` alone,
    and the dual ``dD_{K^c} c_K`` wedged with it is
    ``merge(K^c, K) c_K dD_all = dD_all``.
    """
    n = nu.n
    if 0 < k < n:
        for u, j in _zero_lams(nu):
            if u < j:
                raise ZeroDivisionError(
                    f"lam_{u}{j} = 0 makes a merge factor of degree {k} zero")
    return True


def certify_projection(nu: AffineAutomorphismFamily,
                       auto: AutomorphismReport, k: int) -> bool | None:
    """``True`` when :func:`~diffalg.forms.check_integrating_form` with
    ``which="project"`` in degree ``k`` at degree 1 follows from maps that
    commute pairwise.

    Project at degree 1 tests, on 1 and on each ``D_j``, the composite twist
    ``nu_K o nu_omega^-1 o nu_{K^c}`` times the constant
    ``merge(K, K^c) c_{K^c} = 1`` (the check's docstring gives the
    reduction).  The composite fixes 1.  When the maps commute pairwise
    (``pairwise-commute``), the maps of ``K^c`` and then of ``K`` compose to
    the volume twist, whatever the order, so the composite is the identity
    for every ``K``.  The check raises the dual constants' ``ZeroDivisionError``
    (see :func:`certify_expansion`) and then a singular volume twist's
    :class:`CalculusError`; so does this certificate, in the same order, from
    the family's zero ``lam`` entries (:func:`_zero_lams`).

    Every family :func:`build_automorphisms` returns on a PBW table commutes
    pairwise (:func:`certify_d_squared` gives the proof), so there this
    never samples.  On a family that does not commute the argument does not
    apply, and ``None`` asks for the sample.
    """
    if not auto.pairwise_commute:
        return None
    certify_expansion(nu, k)  # the same dual constants
    _require_regular_volume_twist(nu)
    return True
