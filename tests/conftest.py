"""Shared fixtures: concrete presentations whose structure is known exactly.

Expected values in the test modules were frozen from an independent
flat rewriter (tools/oracle.py); coefficient tables here mirror its
fixtures, so the two implementations stay comparable line by line.
"""

import re
from itertools import combinations
from math import lcm
from pathlib import Path

import pytest

from diffalg.calculus import (AutomorphismReport, GradedForm,
                              _apply_to_terms, _monomials, _twist_terms,
                              basis_form, check_connectedness, check_d_squared,
                              check_integrating_form, differential,
                              left_multiply, nu_omega_inverse, pi_omega,
                              right_multiply, wedge)
from diffalg.classify import FamilyIdentification, decompose
from diffalg.engine import Poly, _iadd, multiply, normal_form, power, word_exponents
from diffalg.exprs import MAX_LITERAL_DIGITS, MAX_TERM_DEGREE, ExpressionError
from diffalg.forms import _dual_bases
from diffalg.presentation import (MAX_GENERATORS, AlgebraPresentation,
                                  PresentationError, _fail, _quoted)
from diffalg.rows import _total
from diffalg.scalars import (ONE, ZERO, format_rational, parse_ratio, parse_rational,
                             rational)
from diffalg.templates import (_FREE, _G, _GI, _GO, _LK, TemplateSkeleton,
                               _fmt_components)

FIXTURES = Path(__file__).parent / "fixtures"
GOLDEN = Path(__file__).parent / "golden"


def _add_term(dst: dict, m, c) -> None:
    """dst[m] += c, dropping a cancellation."""
    v = dst.get(m)
    if v is None:
        dst[m] = c
    else:
        v = v + c
        if not v:
            del dst[m]
        else:
            dst[m] = v


def build(n, g, x):
    """Presentation from sparse integer tables; absent coefficients are 0."""
    gg = {(i, j): rational(0)
          for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
    gg.update({k: rational(v) for k, v in g.items()})
    xx = {i: rational(0) for i in range(1, n + 1)}
    xx.update({k: rational(v) for k, v in x.items()})
    return AlgebraPresentation(n, gg, xx)


def poly_of(n, words):
    """Poly from a ``{word: coefficient}`` table of normal (decreasing) words."""
    out = Poly.zero(n)
    for w, c in words.items():
        expts = [0] * n
        for a in w:
            expts[a - 1] += 1
        out = out + Poly.monomial(n, tuple(expts), rational(c))
    return out


def transported_power(nu_map, b, k, P):
    """nu applied to D_b^k one letter at a time: (lam D_b + mu)^k through multiply."""
    lam, mu = nu_map[b]
    image = Poly.generator(P.n, b).scale(lam) + Poly.scalar(P.n, mu)
    return power(image, k, P)


def closed_partial_derivative(a, exponents, nu, P):
    """Closed form of the ``a``-th lowered partial on an ordered product.

    An oracle for ``calculus.partial_derivative``, computed with the engine's
    ``multiply`` only.  ``exponents`` are the multiplicities
    ``(k_1, ..., k_n)`` of the ascending product ``D_1^{k_1} ... D_n^{k_n}``.
    Factors below ``a`` arrive transported by ``nu_a``; the ``a``-th factor
    contributes a geometric sum pairing ``m`` transported copies with
    ``k_a - 1 - m`` untouched ones, which collapses to ``k_a D_a^{k_a-1}``
    only when the diagonal map is linear.
    """
    n = P.n
    ka = exponents[a - 1]
    if ka == 0:
        return Poly.zero(n)
    nu_map = nu.map_of(a)
    out = Poly.one(n)
    for b in range(1, a):
        kb = exponents[b - 1]
        if kb:
            out = multiply(out, transported_power(nu_map, b, kb, P), P)
    da = Poly.generator(n, a)
    middle = Poly.zero(n)
    for m in range(ka):
        piece = multiply(transported_power(nu_map, a, m, P),
                         power(da, ka - 1 - m, P), P)
        middle = middle + piece
    out = multiply(out, middle, P)
    tail = tuple(letter for b in range(a + 1, n + 1)
                 for letter in (b,) * exponents[b - 1])
    return multiply(out, normal_form(tail, P), P)


def free_word_differential(comb, nu, P):
    """``{a: coefficient of dD_a}`` of d on a ``{word: coefficient}`` combination.

    The definition ``sum_k dD_{l_k} * nu_{l_k}(prefix_k) * suffix_k`` on free
    words of any shape, each term through ``multiply``: the twist is applied
    one letter at a time and the suffix is reduced by the relations.  Zero
    coefficients are dropped.
    """
    out = {}
    for word, c in comb.items():
        for k, letter in enumerate(word):
            nu_map = nu.map_of(letter)
            prefix = Poly.one(P.n)
            for b in word[:k]:
                prefix = multiply(prefix, transported_power(nu_map, b, 1, P), P)
            piece = multiply(prefix, normal_form(word[k + 1:], P), P).scale(c)
            out[letter] = out.get(letter, Poly.zero(P.n)) + piece
    return {a: q for a, q in out.items() if not q.is_zero()}


def relation_combination(P, u, v):
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


def d_combination(comb, nu, P):
    """The positional differential of a combination of words of at most two
    letters, as ``{a: Poly}`` with zero entries dropped.

    Each term ``nu_l(prefix) * suffix`` is built directly, as the monomials of
    ``nu_l(prefix)`` with the suffix exponents added, which is exact on such a
    word: at every position the prefix or the suffix is empty.  The oracle
    for ``calculus.no_go_residual`` and ``leibniz_defects``, which read the
    same coefficients off in closed form.
    """
    n = P.n
    out = {}
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


def positional_differential(p, nu, P):
    """``{a: coefficient of dD_a}`` of d(p), over the decreasing word of every
    monomial of ``p`` (see :func:`free_word_differential`)."""
    comb = {}
    for expts, c in p.terms.items():
        word = tuple(a for a in range(P.n, 0, -1) for _ in range(expts[a - 1]))
        comb[word] = c
    return free_word_differential(comb, nu, P)


def wedge_form_differential(xi, nu, P):
    """``d(dD_J p) = (-1)^{|J|} dD_J ^ d(p)`` summed over ``xi``, each term
    through ``calculus.wedge`` with the head ``dD_J * 1``."""
    sign = -1 if xi.degree % 2 else 1
    out = GradedForm.zero(xi.n, xi.degree + 1)
    for J, p in xi.coeffs.items():
        head = GradedForm(xi.n, xi.degree, {J: Poly.one(xi.n)})
        out = out + wedge(head, differential(p, nu, P), nu, P).scale(sign)
    return out


def full_sum_integrating_form(P, nu, k, degree_bound=3, which="both"):
    """``calculus.check_integrating_form`` with each expansion summed over
    every basis set of its degree, the ones whose wedge is zero included."""
    n = P.n
    duals = [(basis_form(n, J, Poly.one(n)), basis_form(n, comp, Poly.scalar(n, c)))
             for J, comp, c in _dual_bases(k, nu, n)]
    cobases = [(basis_form(n, M, Poly.one(n)), basis_form(n, comp, Poly.scalar(n, c)))
               for M, comp, c in _dual_bases(n - k, nu, n)]
    monos = [m for d in range(degree_bound + 1) for m in _monomials(n, d)]
    for K in combinations(range(1, n + 1), k):
        for expts in monos:
            omega_prime = basis_form(n, K, Poly.monomial(n, expts))
            if which in ("both", "expand"):
                total = GradedForm.zero(n, k)
                for basis, bar in duals:
                    coefficient = pi_omega(wedge(bar, omega_prime, nu, P))
                    total = total + right_multiply(basis, coefficient, P)
                if total != omega_prime:
                    return False
            if which in ("both", "project"):
                total = GradedForm.zero(n, k)
                for basis, bar in cobases:
                    head = pi_omega(wedge(omega_prime, basis, nu, P))
                    total = total + left_multiply(
                        nu_omega_inverse(head, nu, P), bar, nu, P)
                if total != omega_prime:
                    return False
    return True


def apply_map_to_word(nu_map, word, P):
    """``nu_map`` applied to a free word, by definition: in closed form on a
    PBW monomial, letter by letter through ``multiply`` otherwise.  The
    reference for the images of relation words."""
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


def automorphism_report(nu, P, breaks):
    """``calculus.verify_automorphisms`` over ``Fraction``s, with the relation
    of ``u < v`` broken by ``nu_a`` where ``breaks(a, u, v)``: the bijective,
    relation and commute failures in that order, each loop as it was before
    the checks became integer identities."""
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
        for u, v in combinations(range(1, n + 1), 2):
            if breaks(a, u, v):
                relations_ok = False
                failures.append(f"nu_{a} breaks the relation of the pair ({u},{v})")
    commute_ok = True
    for a, b in combinations(range(1, n + 1), 2):
        for j in range(1, n + 1):
            la, ma = nu.lam(a, j), nu.mu(a, j)
            lb, mb = nu.lam(b, j), nu.mu(b, j)
            if lb * ma + mb != la * mb + ma:
                commute_ok = False
                failures.append(
                    f"nu_{a} and nu_{b} disagree on D{j} depending on order")
    return AutomorphismReport(relations_ok, commute_ok, bijective, tuple(failures))


def letter_by_letter_automorphisms(nu, P):
    """``calculus.verify_automorphisms`` with the image of every relation word
    built by ``apply_map_to_word``: letter by letter through ``multiply`` on
    a word with an ascent, closed form on a PBW monomial."""
    def breaks(a, u, v):
        image = Poly.zero(P.n)
        for word, c in relation_combination(P, u, v).items():
            image = image + apply_map_to_word(nu.map_of(a), word, P).scale(c)
        return not image.is_zero()
    return automorphism_report(nu, P, breaks)


def relation_image(nu_map, relation, n):
    """Image under ``nu_map`` of a pair relation, in normal form.

    ``relation`` is ``(u, v, quadratic, s, c_u, c_v)`` for the relation
    ``c D_u D_v + c' D_v D_u + c_u D_u + c_v D_v`` with ``s = c + c'`` and
    ``quadratic`` the normal form of ``c D_u D_v + c' D_v D_u``.  Both
    ``(lam_u D_u + mu_u)(lam_v D_v + mu_v)`` and the product in the other
    order are ``lam_u lam_v`` times the word plus the same
    ``lam_u mu_v D_u + mu_u lam_v D_v + mu_u mu_v``, so the image is

        lam_u lam_v quadratic + s (lam_u mu_v D_u + mu_u lam_v D_v + mu_u mu_v)
            + c_u (lam_u D_u + mu_u) + c_v (lam_v D_v + mu_v).
    """
    u, v, quadratic, s, c_u, c_v = relation
    lam_u, mu_u = nu_map[u]
    lam_v, mu_v = nu_map[v]
    out = {}
    scale = lam_u * lam_v
    if scale != 0:
        _iadd(out, quadratic, scale)
    unit = [tuple(int(j == a) for j in range(1, n + 1)) for a in (u, v)]
    for m, c in ((unit[0], lam_u * (s * mu_v + c_u)),
                 (unit[1], lam_v * (s * mu_u + c_v)),
                 ((0,) * n, s * mu_u * mu_v + c_u * mu_u + c_v * mu_v)):
        if c != 0:
            _add_term(out, m, c)
    return out


def normal_form_automorphisms(nu, P):
    """``calculus.verify_automorphisms`` with each relation image built by
    ``relation_image`` from one ``engine.normal_form`` per pair."""
    relations = {}
    for u, v in combinations(range(1, P.n + 1), 2):
        comb = relation_combination(P, u, v)
        c, c_rev = comb.get((u, v), 0), comb.get((v, u), 0)
        quadratic = normal_form({(u, v): c, (v, u): c_rev}, P).terms
        relations[u, v] = (u, v, quadratic, c + c_rev, comb.get((u,), 0),
                           comb.get((v,), 0))
    return automorphism_report(nu, P, lambda a, u, v: bool(
        relation_image(nu.map_of(a), relations[u, v], P.n)))


def d_combination_leibniz_defects(P, nu):
    """``calculus.leibniz_defects`` from the positional differential of each
    pair relation, :func:`d_combination`, as polynomials."""
    return tuple((u, v) for u, v in combinations(range(1, P.n + 1), 2)
                 if d_combination(relation_combination(P, u, v), nu, P))


def sampled_check_list(P, nu, degree_bound=None):
    """The check list of ``smoothness.verify_witness`` with no certificate:
    relation images letter by letter, leibniz by :func:`d_combination`,
    ``d-squared-zero`` on every monomial of degree <= 4, connectedness on
    every monomial of degree <= 5, and the volume-form identities at expand
    degree 0 and project degree 1, or both at ``degree_bound``."""
    auto = letter_by_letter_automorphisms(nu, P)
    checks = [("relations-preserved", auto.relations_preserved),
              ("pairwise-commute", auto.pairwise_commute),
              ("bijective", auto.bijective),
              ("leibniz", not d_combination_leibniz_defects(P, nu)),
              ("d-squared-zero", check_d_squared(P, nu, 4)),
              ("connectedness", check_connectedness(P, nu, 5))]
    expand, project = (0, 1) if degree_bound is None else (degree_bound,) * 2
    for k in range(P.n):
        checks.append((f"integral-expand-k{k}", check_integrating_form(
            P, nu, k, expand, which="expand")))
        checks.append((f"integral-project-k{k}", check_integrating_form(
            P, nu, k, project, which="project")))
    return tuple(checks)


# -- whole-row family identification ------------------------------------------

def build_skeleton(n, family, I, S, t_circ, t_bullet, r_comps,  # noqa: E741
                   loose=False, dense=False):
    """The template row of ``family`` on the given indices and components,
    each sorted."""
    return TemplateSkeleton(
        n, family, tuple(sorted(I)), tuple(sorted(S)),
        *(tuple(tuple(sorted(c)) for c in comps)
          for comps in (t_circ, t_bullet, r_comps)),
        loose, dense)


_PATTERN = {"A_I": "uniform pattern", "A_II": "one-sided pattern",
            "B": "offset pattern", "C": "offset pattern", "D": "free pattern"}


def whole_row_identify_family(P, dec=None):
    """``classify.identify_family`` as it was when it built the whole named
    template row for the table and solved every cell with ``Fraction``s;
    the oracle of the family, parameters and violations.
    """
    if dec is None:
        dec = decompose(P)
    I = dec.I  # noqa: E741
    if len(I) >= 3:
        trailing = (P.g(j, i) for i, j in combinations(I, 2))
        family = "A_II" if all(v == 0 for v in trailing) else "A_I"
    else:
        family = ("D", "C", "B")[len(I)]
    wide = len(I) >= 2
    skel = build_skeleton(P.n, family, I, dec.S if wide else (),
                          dec.T_circ, dec.T_bullet,
                          () if wide else dec.R_components)
    preset = {f"g{I[-1]}": ZERO} if family == "A_II" else {}
    values = dict(preset)
    holding = {name: [] for name, rank in zip(skel.params, skel.ranks)
               if rank[0] != _FREE}
    violations = []
    for u, v, e_uv, e_vu in skel.cells:
        lead, trail = P.g(u, v), P.g(v, u)
        if not lead:
            violations.append(f"coefficient of D{u} D{v} is 0, but the "
                              f"leading slot of every pair must be invertible")
        elif family == "D":
            lead, trail = ONE, trail / lead
        for word in ((u, v, e_uv, lead), (v, u, e_vu, trail)):
            if not word[2] and word[3]:
                violations.append(_oracle_mismatch(family, I, word, ZERO))
            for _, name in word[2]:
                if name in holding:
                    holding[name].append(word)

    order = sorted((rank, name) for name, rank in zip(skel.params, skel.ranks)
                   if holding.get(name))
    for rank, name in order:
        if name in preset:
            continue
        readings = []
        for word in holding[name]:
            expr, actual = word[2], word[3]
            rest = [(c, nm) for c, nm in expr if nm != name]
            if all(nm in values for _, nm in rest):
                read = actual - _total(rest, values) if rest else actual
                positive = (1, name) in expr
                alone = all(nm in preset for _, nm in rest)
                readings.append((read if positive else -read, alone, word,
                                 positive))
        alone = [r for r in readings if r[1]]
        if alone and len(alone) < len(readings):
            values[name] = value = alone[0][0]
            for read, _, word, positive in readings:
                if read != value:
                    shift = value - read if positive else read - value
                    violations.append(
                        _oracle_mismatch(family, I, word, word[3] + shift))
        elif readings and all(r[0] == readings[0][0] for r in readings):
            values[name] = readings[0][0]
        elif readings:
            violations.append(_oracle_disagreement(skel, rank, readings))

    params = {name: values[name] for _, name in order if name in values}
    params.update((f"x{i}", P.x(i)) for i in I)
    ratios = {name: value.as_integer_ratio() for name, value in params.items()}
    if violations:
        return FamilyIdentification("Inconsistent", ratios, tuple(violations))
    return FamilyIdentification(family, ratios)


def _oracle_disagreement(skel, rank, readings):
    first: dict = {}
    for value, _, word, _ in readings:
        first.setdefault(value, word[:2])
    kind, *index = rank
    if kind == _LK:
        comp = skel.R_components[index[0] - 1]
        listing = "; ".join(
            f"index {v if u in skel.I else u} -> {format_rational(value)}"
            for value, (u, v) in first.items())
        return (f"offset to the interacting index differs inside component "
                f"{_fmt_components((comp,))}: {listing}")
    if kind == _G:
        subject = "the interacting set"
    elif kind == _GI:
        subject = f"coupling of bystander {index[0]} to I"
    elif kind == _GO:
        comp = _fmt_components((skel.T_circ[index[0] - 1],))
        subject = f"the signed coupling of component {comp} to I"
    else:
        k, side = index
        comp = _fmt_components((skel.T_bullet[k - 1],))
        subject = f"the {('lower', 'upper')[side]} side of component {comp}"
    listing = "; ".join(f"D{u} D{v} -> {format_rational(value)}"
                        for value, (u, v) in first.items())
    return f"{subject} must carry a single coefficient, found {listing}"


def _oracle_mismatch(family, I, word, expected):  # noqa: E741
    u, v, expr, actual = word
    pattern = _PATTERN[family]
    inside = [a for a in (u, v) if a in I]
    if len(inside) == 1 and not expr:
        r = v if u in I else u
        return (f"coefficient of D{u} D{v} is {format_rational(actual)}, so D{r} "
                f"couples two-sidedly to I, which the {pattern} does not "
                f"admit")
    where = (" on I" if len(inside) == 2
             else f" against D{inside[0]}" if inside else "")
    return (f"coefficient of D{u} D{v} is {format_rational(actual)}, but the "
            f"{pattern}{where} requires {format_rational(expected)}")


# -- the presentation parser, line by line -----------------------------------

def reference_parse_presentation(text):
    """(n, nums, den, x) that ``parse_presentation(text)`` must hold, or its error.

    An oracle for the one-pass parser: each line is checked in full, every
    literal read by ``parse_ratio``, and the integer g table built in a
    second pass from the ratios, with ``nums`` in ``g_integers`` order and
    ``x`` as ``x_ratios`` gives it.
    """
    n = None
    g: dict = {}
    x: dict = {}
    for lineno, line in enumerate(text.splitlines(), start=1):
        comment = line.find("#")
        if comment >= 0:
            line = line[:comment]
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "g":
            if len(tokens) != 5 or tokens[3] != "=":
                _fail("expected 'g I J = RATIONAL'", lineno, line, head)
            if n is None:
                _fail("'n = INT' must precede coefficient assignments",
                      lineno, line, head)
            try:
                i, j = int(tokens[1]), int(tokens[2])
            except ValueError:
                _fail("generator indices must be integers", lineno, line, head)
            if not (1 <= i <= n) or not (1 <= j <= n):
                _fail(f"index out of range 1..{n} in "
                      f"{_quoted(f'g {tokens[1]} {tokens[2]}')}", lineno, line, head)
            if i == j:
                _fail(f"g requires two distinct indices, got ({i}, {j})",
                      lineno, line, head)
            if (i, j) in g:
                _fail(f"duplicate assignment of g({i}, {j})", lineno, line, head)
            try:
                value = parse_ratio(tokens[4])
            except ValueError:
                _fail(f"invalid rational {_quoted(tokens[4])}",
                      lineno, line, tokens[4])
            if i < j and not value[0]:
                _fail(f"zero leading coefficient g({i}, {j}); relations require "
                      f"g(i, j) != 0 for i < j", lineno, line, head)
            g[(i, j)] = value
        elif head == "x":
            if len(tokens) != 4 or tokens[2] != "=":
                _fail("expected 'x I = RATIONAL'", lineno, line, head)
            if n is None:
                _fail("'n = INT' must precede coefficient assignments",
                      lineno, line, head)
            try:
                i = int(tokens[1])
            except ValueError:
                _fail("generator index must be an integer", lineno, line, head)
            if not (1 <= i <= n):
                _fail(f"index out of range 1..{n} in {_quoted(f'x {tokens[1]}')}",
                      lineno, line, head)
            if i in x:
                _fail(f"duplicate assignment of x({i})", lineno, line, head)
            try:
                x[i] = parse_ratio(tokens[3])
            except ValueError:
                _fail(f"invalid rational {_quoted(tokens[3])}",
                      lineno, line, tokens[3])
        elif head == "n":
            if len(tokens) != 3 or tokens[1] != "=":
                _fail("expected 'n = INT'", lineno, line, head)
            if n is not None:
                _fail("duplicate assignment of n", lineno, line, head)
            try:
                n = int(tokens[2])
            except ValueError:
                _fail(f"invalid integer {_quoted(tokens[2])}",
                      lineno, line, tokens[2])
            if n > MAX_GENERATORS:
                _fail(f"n must be at most {MAX_GENERATORS}, got {_quoted(tokens[2])}",
                      lineno, line, tokens[2])
        else:
            _fail(f"unrecognized statement {_quoted(head)}", lineno, line, head)
    if n is None:
        raise PresentationError("no 'n = INT' declaration found")

    den = lcm(*(d for _, d in g.values()))
    nums = {(i, j): 0 for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
    for key, (num, d) in g.items():
        nums[key] = num * (den // d)
    return n, nums, den, {i: x.get(i, (0, 1)) for i in range(1, n + 1)}


# -- four generators ---------------------------------------------------------


# -- the expression parser, token by token -------------------------------------

def _reference_check_digits(literal: str, col: int) -> None:
    if any(len(part) > MAX_LITERAL_DIGITS for part in literal.split("/")):
        raise ExpressionError(f"numeric literal exceeds the limit of "
                              f"{MAX_LITERAL_DIGITS} digits", col)


_REFERENCE_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<gen>D(?P<gi>\d+))"
    r"|(?P<num>\d+(?:/\d+)?)"
    r"|(?P<op>[*^+-])"
)


def _reference_tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _REFERENCE_TOKEN.match(text, pos)
        if m is None:
            raise ExpressionError(f"unexpected character {text[pos]!r}", pos + 1)
        if m.lastgroup != "ws":
            if m.group("gen"):
                _reference_check_digits(m.group("gi"), pos + 1)
                tokens.append(("gen", int(m.group("gi")), pos + 1))
            elif m.group("num"):
                tokens.append(("num", m.group("num"), pos + 1))
            else:
                tokens.append(("op", m.group("op"), pos + 1))
        pos = m.end()
    return tokens


def reference_parse_poly(text: str, n: int) -> dict:
    """What ``exprs.parse_poly(text, n)`` must return, or the ExpressionError
    it must raise: the parser as it was before the one-pass tokenizer, one
    ``match`` call per token, kept verbatim as an oracle."""
    tokens = _reference_tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    combination: dict = {}
    idx = 0
    sign = 1
    # optional leading sign
    if tokens[idx][0] == "op" and tokens[idx][1] in "+-":
        sign = -1 if tokens[idx][1] == "-" else 1
        idx += 1

    while True:
        coeff = rational(1)
        word: list = []
        saw_coeff = False
        saw_factor = False
        if idx < len(tokens) and tokens[idx][0] == "num":
            literal, col = tokens[idx][1], tokens[idx][2]
            _reference_check_digits(literal, col)
            try:
                coeff = parse_rational(literal)
            except ValueError as exc:  # a zero denominator
                raise ExpressionError(str(exc), col) from None
            saw_coeff = True
            idx += 1
            if idx < len(tokens) and tokens[idx][0] == "op" and tokens[idx][1] == "*":
                idx += 1
                if idx >= len(tokens) or tokens[idx][0] != "gen":
                    raise ExpressionError("expected a generator factor after '*'",
                                          tokens[idx - 1][2])
        while idx < len(tokens) and tokens[idx][0] == "gen":
            g = tokens[idx][1]
            col = tokens[idx][2]
            if not 1 <= g <= n:
                raise ExpressionError(f"generator D{g} out of range 1..{n}", col)
            saw_factor = True
            idx += 1
            k = 1
            if idx < len(tokens) and tokens[idx][0] == "op" and tokens[idx][1] == "^":
                idx += 1
                if idx >= len(tokens) or tokens[idx][0] != "num" or "/" in tokens[idx][1]:
                    raise ExpressionError("exponent must be a nonnegative integer",
                                          tokens[idx - 1][2])
                # an exponent of seven or more digits is over the cap, and
                # int() refuses strings of more than 4300 digits
                digits = tokens[idx][1].lstrip("0")
                k = int(digits or "0") if len(digits) <= 6 else MAX_TERM_DEGREE + 1
                idx += 1
            if len(word) + k > MAX_TERM_DEGREE:
                raise ExpressionError(
                    f"term degree exceeds the limit of {MAX_TERM_DEGREE}", col)
            word.extend([g] * k)
        if not saw_factor and not saw_coeff:
            col = tokens[idx][2] if idx < len(tokens) else None
            raise ExpressionError("expected a rational or a generator factor", col)
        key = tuple(word)
        total = combination.get(key, rational(0)) + sign * coeff
        if total == 0:
            combination.pop(key, None)
        else:
            combination[key] = total

        if idx >= len(tokens):
            break
        kind, val, col = tokens[idx]
        if kind != "op" or val not in "+-":
            raise ExpressionError(f"expected '+' or '-' between terms, got {val!r}", col)
        sign = -1 if val == "-" else 1
        idx += 1
        if idx >= len(tokens):
            raise ExpressionError("dangling sign at end of expression", col)
    return combination


@pytest.fixture(scope="session")
def p1():
    """Uniform interacting triple {1,2,3} with the two-sided bystander 4."""
    return build(4, {(1, 2): 1, (2, 1): 1, (1, 3): 1, (3, 1): 1,
                     (2, 3): 1, (3, 2): 1, (1, 4): 2, (4, 1): 2,
                     (2, 4): 2, (4, 2): 2, (3, 4): 2, (4, 3): 2},
                 {1: 1, 2: 1, 3: 1})


@pytest.fixture(scope="session")
def p1m():
    """The non-confluent mutation of p1: interior pair bumped to 2."""
    return build(4, {(1, 2): 1, (2, 1): 1, (1, 3): 1, (3, 1): 1,
                     (2, 3): 2, (3, 2): 2, (1, 4): 2, (4, 1): 2,
                     (2, 4): 2, (4, 2): 2, (3, 4): 2, (4, 3): 2},
                 {1: 1, 2: 1, 3: 1})


@pytest.fixture(scope="session")
def p2():
    """Staircase coefficients on {1,2,3}, one-sided links to 4."""
    return build(4, {(1, 2): -1, (1, 3): -2, (2, 3): -1,
                     (1, 4): 6, (2, 4): 7, (3, 4): 8},
                 {1: 1, 2: 1, 3: 1})


@pytest.fixture(scope="session")
def c4():
    """Single interacting generator, one three-element component, n = 4."""
    return build(4, {(1, 2): 3, (2, 1): 2, (1, 3): 3, (3, 1): 2,
                     (1, 4): 3, (4, 1): 2, (2, 3): 1, (3, 2): 2,
                     (2, 4): 2, (4, 2): 1, (3, 4): 1, (4, 3): 3},
                 {1: 1})


@pytest.fixture(scope="session")
def b4x():
    """Interacting pair {1,2} with two bystanders sharing one coupling."""
    return build(4, {(1, 2): 3, (2, 1): 2,
                     (1, 3): 5, (3, 1): 4, (2, 3): 4, (3, 2): 5,
                     (1, 4): 5, (4, 1): 4, (2, 4): 4, (4, 2): 5,
                     (3, 4): 2, (4, 3): 3},
                 {1: 1, 2: 7})


@pytest.fixture(scope="session")
def d4():
    """Pure ratio table on four generators."""
    return build(4, {(1, 2): 1, (2, 1): 2, (1, 3): 1, (3, 1): 3,
                     (2, 3): 1, (3, 2): 5, (1, 4): 1, (4, 1): 2,
                     (2, 4): 1, (4, 2): 7, (3, 4): 1, (4, 3): 1},
                 {})


# -- three generators ---------------------------------------------------------

@pytest.fixture(scope="session")
def p3():
    """Single interacting generator in the middle."""
    return build(3, {(1, 2): 1, (2, 1): 2, (2, 3): 2, (3, 2): 1,
                     (1, 3): 1, (3, 1): 1}, {2: 1})


@pytest.fixture(scope="session")
def p4():
    """Pure ratio table on three generators."""
    return build(3, {(1, 2): 1, (2, 1): 2, (1, 3): 1, (3, 1): 1,
                     (2, 3): 1, (3, 2): 1}, {})


@pytest.fixture(scope="session")
def b1():
    """Interacting pair 1 < 3 with the bystander 2 in the middle."""
    return build(3, {(1, 3): 3, (3, 1): 2, (1, 2): 5, (2, 1): 4,
                     (2, 3): 5, (3, 2): 4}, {1: 1, 3: 7})


@pytest.fixture(scope="session")
def sym3():
    """Everything interacting, one shared coefficient."""
    return build(3, {(1, 2): 2, (2, 1): 2, (1, 3): 2, (3, 1): 2,
                     (2, 3): 2, (3, 2): 2}, {1: 1, 2: 1, 3: 1})


@pytest.fixture(scope="session")
def lin3():
    """Staircase coefficients, every interacting pair one-sided."""
    return build(3, {(1, 2): -1, (1, 3): -2, (2, 3): -1}, {1: 1, 2: 1, 3: 1})


@pytest.fixture(scope="session")
def c_nonuniform():
    """Single interacting generator, bystander couplings with two leads."""
    return build(3, {(1, 2): 5, (2, 1): 4, (1, 3): 7, (3, 1): 6,
                     (2, 3): 3, (3, 2): 2}, {1: 1})


# -- acceptance reporting -----------------------------------------------------

_ACCEPTANCE = re.compile(r"test_acceptance\.py::test_c(\d+)_(\w+)")


def pytest_terminal_summary(terminalreporter, exitstatus, config):
    results = {}
    for status, passed in (("passed", True), ("failed", False), ("error", False)):
        for rep in terminalreporter.stats.get(status, []):
            m = _ACCEPTANCE.search(getattr(rep, "nodeid", ""))
            if m:
                k = int(m.group(1))
                slug = m.group(2).replace("_", " ")
                prev = results.get(k, (slug, True))[1]
                results[k] = (slug, prev and passed)
    if not results:
        return
    terminalreporter.write_sep("-", "acceptance criteria")
    for k in sorted(results):
        slug, ok = results[k]
        terminalreporter.write_line(
            f"criterion {k} ({slug}): {'PASS' if ok else 'FAIL'}")
