"""Index-set decomposition and coefficient-pattern identification.

The generator set of a presentation splits by whether the inhomogeneous
scalar vanishes: indices with ``x_a != 0`` form the interacting set I, the
rest form R.  R breaks into components connected through two-sided pairs
(both coefficients of the pair nonzero).  When I has at least two elements a
component either couples to I through some two-sided pair (an S component,
its members collected into the set S) or not (a T component); a T component
is tagged "bullet" when it sits strictly inside a single gap between
consecutive interacting indices and "circ" otherwise.  When ``|I| == 1``
every non-interacting index is in S by convention, and when I is empty there
is nothing but R.

On top of the decomposition, :func:`identify_family` picks one of the five
closed families (A_I, A_II, B, C, D), takes the cells of that family's
template row for the decomposition (:mod:`diffalg.templates`) and solves
them for its parameters; a table that disagrees with some cell is
Inconsistent, with a list of concrete violations.  Throughout, the
coefficient attached to the *written word* ``D_u D_v`` is ``P.g(u, v)``; for
``u < v`` that is the leading coefficient of the pair, otherwise the trailing
one.
"""

from __future__ import annotations

from itertools import combinations

from .presentation import AlgebraPresentation
from .records import Record, setfield
from .scalars import format_ratio, rational, reduced
from .templates import (_G, _GI, _GO, _LK, _cell, _components, _family_params,
                        _fmt_components, _roles, _tag_components)

__all__ = ["Decomposition", "decompose", "FamilyIdentification", "identify_family"]


class Decomposition(Record):
    __slots__ = _compared = _shown = (
        "n", "I", "R", "R_components", "S", "T_circ", "T_bullet")

    def __init__(self, n: int, I: tuple, R: tuple,  # noqa: E741 - the interacting set
                 R_components: tuple, S: tuple, T_circ: tuple, T_bullet: tuple):
        setfield(self, "n", n)
        setfield(self, "I", I)
        setfield(self, "R", R)
        setfield(self, "R_components", R_components)
        setfield(self, "S", S)
        setfield(self, "T_circ", T_circ)
        setfield(self, "T_bullet", T_bullet)

    @property
    def T(self) -> tuple:
        members = [t for comp in self.T_circ + self.T_bullet for t in comp]
        return tuple(sorted(members))


def decompose(P: AlgebraPresentation) -> Decomposition:
    x = P.x_ratios()
    I = tuple(a for a, (num, _) in x.items() if num)  # noqa: E741
    R = tuple(a for a, (num, _) in x.items() if not num)
    g, _ = P.g_integers()

    def two_sided(u, v):
        return g[u, v] and g[v, u]

    comps = _components(R, two_sided)

    if len(I) >= 2:
        coupled: list = []
        loose: list = []
        for comp in comps:
            couples = any(two_sided(r, i) for r in comp for i in I)
            (coupled if couples else loose).append(comp)
        S = tuple(sorted(r for comp in coupled for r in comp))
        return Decomposition(P.n, I, R, comps, S, *_tag_components(I, loose))

    # With at most one interacting index there are no gaps and no coupling
    # criterion: every remaining index counts as a bystander.
    return Decomposition(P.n, I, R, comps, R, (), ())


class FamilyIdentification(Record):
    __slots__ = _shown = ("family", "ratios", "violations")
    _compared = ("family", "violations")

    def __init__(self, family: str, ratios: dict, violations: tuple = ()):
        # "A_I", "A_II", "B", "C", "D", or "Inconsistent"
        setfield(self, "family", family)
        # parameter -> its reduced integer ratio, in report order
        setfield(self, "ratios", ratios)
        setfield(self, "violations", violations)

    @property
    def params(self) -> dict:
        """The parameters as ``Fraction``s, in report order, built per call."""
        return {name: rational(*ratio) for name, ratio in self.ratios.items()}

    @property
    def consistent(self) -> bool:
        return self.family != "Inconsistent"


def _fmt(num: int, den: int) -> str:
    return format_ratio(*reduced(num, den))


_PATTERN = {"A_I": "uniform pattern", "A_II": "one-sided pattern",
            "B": "offset pattern", "C": "offset pattern", "D": "free pattern"}

# what a free coefficient reads as: no pattern parameter, never zero-tested
_UNNAMED = ((1, None),)


def _unnamed(a: int, b: int) -> tuple:
    return _UNNAMED


def identify_family(P: AlgebraPresentation, dec: Decomposition | None = None
                    ) -> FamilyIdentification:
    """Match the coefficient table against the template row of its family.

    The row's cells give every written word's coefficient as a ±1 linear
    expression in at most two named parameters.  One pass files each word
    under the last of its parameters in report order; then each parameter,
    in that order, reads its words by substituting the other, known one, so
    every word is read once.  When all readings of a parameter have one
    form (the parameter alone, or beside a known one) they must agree, and
    a disagreement is one violation listing the values found.  Otherwise
    the first reading of the parameter alone defines it and every other
    reading is checked on its own, as is every word the row gives
    coefficient 0.  Every leading word must be nonzero.

    The cells come from ``templates._cell``, the one definition of the
    patterns, with each free coefficient left unnamed.  A word's value is an
    integer over a scale, the presentation's g denominator (a D row divides
    each relation by its lead: the lead's numerator), so readings add and
    compare as integers, and the parameters stay integer ratios.
    """
    if dec is None:
        dec = decompose(P)
    I = dec.I  # noqa: E741
    g, den = P.g_integers()
    if len(I) >= 3:  # A_II when every trailing coefficient on I vanishes
        family = "A_I" if any(g[j, i] for i, j in combinations(I, 2)) else "A_II"
    else:
        family = ("D", "C", "B")[len(I)]
    wide = len(I) >= 2
    role = _roles(I, dec.S if wide else (), dec.T_circ, dec.T_bullet,
                  () if wide else dec.R_components)
    ranks = _family_params(family, I)

    def use(name, *rank):
        ranks.setdefault(name, rank)
        return name

    # A_II only fixes differences of the g<i>: anchor the largest at zero.
    preset = f"g{I[-1]}" if family == "A_II" else None
    # the last parameter of a word -> [(word, the parameter's sign there,
    #   the sign and name of the other parameter or None)]
    read_for: dict = {preset: ()} if preset else {}
    violations = []
    n = P.n
    for u, v in combinations(range(1, n + 1), 2):
        e_uv, e_vu = _cell(family, I, n, u, v, role[u], role[v], use, _unnamed)
        lead, trail = g[u, v], g[v, u]
        scale = den
        if not lead:
            violations.append(f"coefficient of D{u} D{v} is 0, but the "
                              f"leading slot of every pair must be invertible")
        elif family == "D":
            scale = lead  # every x vanishes: divide the relation by its lead
        for word in ((u, v, e_uv, lead, scale), (v, u, e_vu, trail, scale)):
            expr = word[2]
            if not expr:
                if word[3]:
                    violations.append(_mismatch(family, I, word, 0))
                continue
            if len(expr) == 1:
                (c, name), = expr
                if name is None or name == preset:
                    continue  # a free coefficient or a D row's unit lead
                sign = other = None
            else:
                (c, name), (sign, other) = expr
                if name == preset or (other != preset
                                      and ranks[name] < ranks[other]):
                    c, name, sign, other = sign, other, c, name
            read_for.setdefault(name, []).append((word, c, sign, other))

    values = {preset: (0, den)} if preset else {}  # name -> (value, scale)
    order = sorted((ranks[name], name) for name in read_for)
    for rank, name in order:
        readings = []
        for word, c, sign, other in read_for[name]:
            read = word[3]
            if other is not None:
                if other not in values:
                    continue
                read -= sign * values[other][0]
            readings.append((read if c > 0 else -read,
                             other is None or other == preset, word, c > 0))
        alone = [r for r in readings if r[1]]
        if alone and len(alone) < len(readings):
            reference = alone[0][0]
            values[name] = reference, alone[0][2][4]
            for read, _, word, positive in readings:
                if read != reference:
                    shift = reference - read if positive else read - reference
                    violations.append(
                        _mismatch(family, I, word, word[3] + shift))
        elif readings and all(r[0] == readings[0][0] for r in readings):
            values[name] = readings[0][0], readings[0][2][4]
        elif readings:
            violations.append(_disagreement(dec, rank, readings))

    ratios = {name: reduced(*values[name]) for _, name in order if name in values}
    x = P.x_ratios()
    ratios.update((f"x{i}", x[i]) for i in I)
    return FamilyIdentification("Inconsistent" if violations else family,
                                ratios, tuple(violations))


def _disagreement(dec, rank, readings) -> str:
    """One violation for a parameter whose readings take several values."""
    first: dict = {}
    for read, _, word, _ in readings:
        first.setdefault(read, word)
    kind, *index = rank
    if kind == _LK:
        comp = dec.R_components[index[0] - 1]
        listing = "; ".join(
            f"index {w[1] if w[0] in dec.I else w[0]} -> {_fmt(read, w[4])}"
            for read, w in first.items())
        return (f"offset to the interacting index differs inside component "
                f"{_fmt_components((comp,))}: {listing}")
    if kind == _G:
        subject = "the interacting set"
    elif kind == _GI:
        subject = f"coupling of bystander {index[0]} to I"
    elif kind == _GO:
        comp = _fmt_components((dec.T_circ[index[0] - 1],))
        subject = f"the signed coupling of component {comp} to I"
    else:  # gbp<k> (side 0) or gbm<k> (side 1)
        k, side = index
        comp = _fmt_components((dec.T_bullet[k - 1],))
        subject = f"the {('lower', 'upper')[side]} side of component {comp}"
    listing = "; ".join(f"D{w[0]} D{w[1]} -> {_fmt(read, w[4])}"
                        for read, w in first.items())
    return f"{subject} must carry a single coefficient, found {listing}"


def _mismatch(family, I, word, expected) -> str:  # noqa: E741
    """The violation of one written word that disagrees with its cell."""
    u, v, expr, actual, scale = word
    pattern = _PATTERN[family]
    inside = [a for a in (u, v) if a in I]
    if len(inside) == 1 and not expr:
        r = v if u in I else u
        return (f"coefficient of D{u} D{v} is {_fmt(actual, scale)}, so D{r} "
                f"couples two-sidedly to I, which the {pattern} does not "
                f"admit")
    where = (" on I" if len(inside) == 2
             else f" against D{inside[0]}" if inside else "")
    return (f"coefficient of D{u} D{v} is {_fmt(actual, scale)}, but the "
            f"{pattern}{where} requires {_fmt(expected, scale)}")
