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
from .templates import (_G, _GI, _GO, _LK, _cell, _components, _fmt_components,
                        _names, _roles, _tag_components)

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


def identify_family(P: AlgebraPresentation, dec: Decomposition | None = None
                    ) -> FamilyIdentification:
    """Match the coefficient table against the template row of its family.

    The row's cells give every written word's coefficient as a ±1 linear
    expression in at most two named parameters.  One pass files each word
    under the last of its parameters in report order, and reads on the spot
    each word that holds its parameter alone (by itself, or beside the A_II
    anchor, which is 0): the first such reading is the parameter's
    reference, and a reading of another value marks the parameter split.
    Then the parameters are solved in report order.  One read only alone,
    to a single value, takes it without a second look at its words.
    Otherwise each of its words is read, a word that also holds another
    parameter by substituting that one, which comes earlier in report order
    and is known.  With readings of both forms the reference defines the
    parameter and every reading that differs is a violation of its own
    word; with readings of one form only, several values are one violation
    listing them.  Every word the row gives coefficient 0 must be 0, and
    every leading word nonzero.

    The cells come from ``templates._cell``, the one definition of the
    patterns, with each free coefficient left unnamed, and the names and
    report ranks from the ``templates._names`` table of the size.  A word's
    value is an integer over a scale, the presentation's g denominator (a D
    row divides each relation by its lead: the lead's numerator), so
    readings add and compare as integers, and the parameters stay integer
    ratios.
    """
    if dec is None:
        dec = decompose(P)
    I = dec.I  # noqa: E741
    g, den = P.g_integers()
    if len(I) >= 3:  # A_II when every trailing coefficient on I vanishes
        family = "A_I" if any(g[j, i] for i, j in combinations(I, 2)) else "A_II"
    else:
        family = ("D", "C", "B")[len(I)]
    n = P.n
    names = _names(n)
    rank = names.rank
    wide = len(I) >= 2
    role = _roles(names, I, dec.S if wide else (), dec.T_circ, dec.T_bullet,
                  () if wide else dec.R_components)

    # A_II only fixes differences of the g<i>: anchor the largest at zero.
    preset = names.g[I[-1]] if family == "A_II" else None
    # the last parameter of a word -> its readings [(the word's indices a, b,
    #   its expression, value and scale, the parameter's sign there, the sign
    #   and name of the other parameter or None when it is alone)], in order
    read_for: dict = {preset: []} if preset else {}
    # a parameter -> (value, scale) of its first reading alone
    first: dict = {preset: (0, den)} if preset else {}
    split = set()  # read alone with more than one value
    beside = set()  # read beside another parameter at least once
    violations = []
    for u, v in combinations(range(1, n + 1), 2):
        e_uv, e_vu = _cell(family, I, u, v, role[u], role[v], names, None)
        lead, trail = g[u, v], g[v, u]
        scale = den
        if not lead:
            violations.append(f"coefficient of D{u} D{v} is 0, but the "
                              f"leading slot of every pair must be invertible")
        elif family == "D":
            scale = lead  # every x vanishes: divide the relation by its lead
        for a, b, expr, actual in ((u, v, e_uv, lead), (v, u, e_vu, trail)):
            if not expr:
                if actual:
                    violations.append(_mismatch(family, I, (a, b, expr, actual, scale), 0))
                continue
            if len(expr) == 1:
                (c, name), = expr
                if name is None or name == preset:
                    continue  # a free coefficient or a D row's unit lead
                sign = other = None
            else:
                (c, name), (sign, other) = expr
                if name == preset or (other != preset
                                      and rank[name] < rank[other]):
                    c, name, sign, other = sign, other, c, name
                if other == preset:
                    other = None
            readings = read_for.get(name)
            if readings is None:
                readings = read_for[name] = []
            readings.append((a, b, expr, actual, scale, c, sign, other))
            if other is not None:
                beside.add(name)
                continue
            read = actual if c > 0 else -actual
            known = first.get(name)
            if known is None:
                first[name] = read, scale
            elif known[0] != read:
                split.add(name)

    values = {}  # a parameter -> (value, scale), in report order
    for name in sorted(read_for, key=rank.__getitem__):
        reference = first.get(name)
        if name not in beside and name not in split:
            values[name] = reference  # read alone, always to one value
        elif reference is not None and name in beside:  # both forms
            values[name] = reference
            for read, word in _read(read_for[name], values):
                if read != reference[0]:
                    expected = word[3] + (reference[0] - read) * word[5]
                    violations.append(_mismatch(family, I, word, expected))
        else:  # one form only: a value found first -> its first word
            found: dict = {}
            for read, word in _read(read_for[name], values):
                found.setdefault(read, word)
            if len(found) > 1:
                violations.append(_disagreement(dec, rank[name], found))
            else:
                (read, word), = found.items()
                values[name] = read, word[4]

    ratios = {name: reduced(*value) for name, value in values.items()}
    x = P.x_ratios()
    ratios.update((names.x[i], x[i]) for i in I)
    return FamilyIdentification("Inconsistent" if violations else family,
                                ratios, tuple(violations))


def _read(readings, values):
    """(value, reading) of each reading of a parameter, in order.

    A word that holds another parameter reads by substituting that one's
    value from ``values``.  It is always there: the other parameter comes
    earlier in report order, and in every family's cells it has a single
    reading or one alone, so it was given a value.
    """
    for reading in readings:
        actual, c, sign, other = reading[3], *reading[5:]
        if other is not None:
            actual -= sign * values[other][0]
        yield (actual if c > 0 else -actual), reading


def _disagreement(dec, rank, found) -> str:
    """One violation for a parameter whose readings take several values;
    ``found`` maps each value to the first reading that gave it."""
    kind, *index = rank
    if kind == _LK:
        comp = dec.R_components[index[0] - 1]
        listing = "; ".join(
            f"index {w[1] if w[0] in dec.I else w[0]} -> {_fmt(read, w[4])}"
            for read, w in found.items())
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
                        for read, w in found.items())
    return f"{subject} must carry a single coefficient, found {listing}"


def _mismatch(family, I, word, expected) -> str:  # noqa: E741
    """The violation of one written word that disagrees with its cell;
    ``word`` starts with its indices, expression, value and scale."""
    u, v, expr, actual, scale = word[:5]
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
