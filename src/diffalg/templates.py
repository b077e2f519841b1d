"""Symbolic relation templates: the cells of the five family patterns.

A template row pins a family letter together with the index data (I, S, the
tagged non-coupling components, the component partition of R) and carries,
for every generator pair, the two word coefficients as small linear
expressions in named parameters.  Its cells (``_cell``) are the one
definition of its family's pattern: :func:`diffalg.classify.identify_family`
solves them and the row renderer prints them.  A cell takes its parameter
names from the tables of its size (``_names``, made once per n), so no name
is formatted per cell.  ``_components`` and ``_tag_components`` split an
index set into the components both sides read.

The rows themselves live in :mod:`diffalg.rows`: ``TemplateSkeleton``, the
enumeration (``generate_templates``, ``_template_rows`` and the closed-form
``_row_count``), the ``tables`` text (``tables_text``, ``render_template``)
and ``instantiate_template``.  Only ``tables``, the API and tests use them,
so no module imports ``rows`` when it loads.  ``__all__`` lists its public
names, and the module ``__getattr__`` (PEP 562) serves exactly the names of
``__all__``: a listed name this module defines never reaches it, so the
others load ``rows`` on their first lookup and are kept here.  Its private
helpers are imported from ``rows`` itself; ``classify``, ``check-pbw``,
``smooth`` and ``reduce`` never compile it.

Parameter naming:

* ``g``          uniform coefficient on the interacting set (A_I, B)
* ``g<i>``       per-index coefficient (A_II on I, bystander coupling,
                 single-interacting rows)
* ``L``, ``L<k>``  trailing offset, per component for single-interacting rows
* ``go<k>``      signed coefficient of the k-th non-coupling "circ" component
* ``gbp<k>``/``gbm<k>``  lower/upper coefficients of the k-th "bullet" component
* ``g<u><v>``    free coefficient of the written word ``D_u D_v``
* ``q<v><u>``    free trailing ratio for fully non-interacting rows
* ``x<i>``       inhomogeneous scalar of an interacting index

The two indices of ``g<u><v>`` and ``q<v><u>`` are joined by ``_`` once
n >= 10 (``g1_11``, ``q11_1``): written side by side they would be ambiguous,
as ``g111`` could stand for (1, 11) or (11, 1).
"""

from __future__ import annotations

import functools
from bisect import bisect_left

__all__ = ["TemplateError", "TemplateSkeleton", "generate_templates",
           "instantiate_template", "render_template", "tables_text"]


def __getattr__(name: str):
    """A name of ``__all__`` that ``rows`` defines, kept in this module once
    it is loaded, so the next lookup, a monkeypatch or a rebinding tracer
    finds it here."""
    if name not in __all__:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}")
    from . import rows
    value = globals()[name] = getattr(rows, name)
    return value


class TemplateError(ValueError):
    """Raised when a template cannot be instantiated from the given values."""


# A coefficient expression is a tuple of (integer, name-or-None) terms; the
# empty tuple is zero and a None name stands for the constant 1.
_ZERO: tuple = ()


def _sym(name: str) -> tuple:
    return ((1, name),)


def _negate(expr: tuple) -> tuple:
    return tuple((-c, name) for c, name in expr)


def _diff(a: str, b: str) -> tuple:
    return ((1, a), (-1, b))


# Ranks order the parameters the way ``classify`` reports them: the kind
# first, then the indices.  Free coefficients of the written words are not
# part of any family's pattern and are never reported.
_G, _L, _GI, _LK, _GO, _GB, _Q, _X, _FREE = range(9)


def _pair_name(prefix: str, a: int, b: int, n: int) -> str:
    """Name of a coefficient keyed by two indices (see the module notes)."""
    return f"{prefix}{a}_{b}" if n >= 10 else f"{prefix}{a}{b}"


class _Names:
    """The parameter names of the rows on n generators, made once per n.

    ``g``, ``L``, ``go``, ``gbp``, ``gbm`` and ``x`` are lists indexed by
    the index or component number they carry; ``q[u][v]`` is the trailing
    ratio of the pair u < v of a D row and ``free[a][b]`` the free
    coefficient of the written word D_a D_b, both as expressions.  ``roles``
    maps a role kind to its (kind, number) tuples (``_roles``), and ``rank``
    every name to its report rank (see ``_G`` .. ``_FREE``).  Shared by every
    row and table of that size, so read only.
    """

    __slots__ = ("g", "L", "go", "gbp", "gbm", "x", "q", "free", "roles", "rank")

    def __init__(self, n: int):
        numbers = range(n + 1)
        self.g = [f"g{a}" for a in numbers]
        self.L = [f"L{k}" for k in numbers]
        self.go = [f"go{k}" for k in numbers]
        self.gbp = [f"gbp{k}" for k in numbers]
        self.gbm = [f"gbm{k}" for k in numbers]
        self.x = [f"x{a}" for a in numbers]
        self.roles = {kind: [(kind, k) for k in numbers]
                      for kind in ("S", "I", "Tc", "Tb", "R")}
        rank = {"g": (_G,), "L": (_L,)}
        for k in numbers:
            rank.update({self.g[k]: (_GI, k), self.L[k]: (_LK, k),
                         self.go[k]: (_GO, k), self.gbp[k]: (_GB, k, 0),
                         self.gbm[k]: (_GB, k, 1), self.x[k]: (_X, k)})
        self.q = [[_ZERO] * (n + 1) for _ in numbers]
        self.free = [[_ZERO] * (n + 1) for _ in numbers]
        for a in range(1, n + 1):
            for b in range(1, n + 1):
                if a < b:
                    name = _pair_name("q", b, a, n)
                    rank[name] = (_Q, a, b)
                    self.q[a][b] = _sym(name)
                if a != b:
                    name = _pair_name("g", a, b, n)
                    rank[name] = (_FREE,)
                    self.free[a][b] = _sym(name)
        self.rank = rank


# Presentations are read with at most ``presentation.MAX_GENERATORS``
# generators and ``tables`` stops far below that, so a few sizes are live.
_names = functools.lru_cache(maxsize=16)(_Names)


# The cells of the interacting set, the same for every row of a family
_UNIFORM = _sym("g"), _sym("g")  # A_I
_OFFSET = _sym("g"), _diff("g", "L")  # B


def _interacting_cell(family, I, a, t, role, k, names):  # noqa: E741
    """Coefficients of the written words (D_a D_t, D_t D_a) that the family
    pattern gives the interacting index ``a`` against ``t``; None when the
    pattern has no cell for them."""
    if role == "S" and family == "A_I":
        gs = ((1, names.g[t]),)
        return gs, gs
    if role == "S" and family == "B":
        # D_i D_s carries g_s; each sibling word follows it, offset by L
        # when s stands on the outside of the word
        gs = names.g[t]
        return (((1, gs),) if a == I[0] else ((1, gs), (-1, "L")),
                ((1, gs),) if a == I[1] else ((1, gs), (-1, "L")))
    if role == "R":  # family C
        gr = names.g[t]
        return ((1, gr),), ((1, gr), (-1, names.L[k]))
    # the remaining cells are one-sided: only the leading word is nonzero
    if role == "Tc":
        go = names.go[k]
        if family == "A_II":
            lead = ((1, names.g[a]), (1, go))
        elif family == "B" and a == I[1]:
            lead = ((1, go), (-1, "L"))
        else:
            lead = ((1, go),)
        lead = lead if a < t else _negate(lead)
    elif role == "Tb":
        base = ((1, names.g[a]),) if family == "A_II" else _ZERO
        if a < t:
            lead = base + ((1, names.gbp[k]),)
        else:
            lead = ((1, names.gbm[k]),) + _negate(base)
    else:
        return None
    return (lead, _ZERO) if a < t else (_ZERO, lead)


# the leading word of a fully non-interacting (D) row: coefficient 1
_UNIT: tuple = ((1, None),)


def _roles(names, I, S, t_circ, t_bullet, r_comps) -> list:  # noqa: E741
    """Index -> (role, number), a list over 0..n: "I" with the index's
    1-based place in I, "S" with 0, or the component kind "Tc", "Tb" or "R"
    with the 1-based place of the index's component in its list."""
    roles = names.roles
    role = [None] * len(names.g)
    kinds = roles["I"]
    for k, a in enumerate(I, start=1):
        role[a] = kinds[k]
    for a in S:
        role[a] = roles["S"][0]
    for tag, comps in (("Tc", t_circ), ("Tb", t_bullet), ("R", r_comps)):
        kinds = roles[tag]
        for k, comp in enumerate(comps, start=1):
            for a in comp:
                role[a] = kinds[k]
    return role


def _cell(family, I, u, v, role_u, role_v, names, free) -> tuple:  # noqa: E741
    """(expr_uv, expr_vu), the cell of the pair u < v with the given roles.

    ``names`` is the ``_Names`` of the row's size.  ``free`` is its
    ``free`` table, or None to leave each free coefficient of a written
    word unnamed (``_UNIT``): no family pattern constrains them.
    """
    ru, ku = role_u
    rv, kv = role_v
    if ru == "I" and rv == "I":
        if family == "A_I":
            return _UNIFORM
        if family == "A_II":
            return ((1, names.g[u]), (-1, names.g[v])), _ZERO
        return _OFFSET  # B
    if ru == "I":
        cell = _interacting_cell(family, I, u, v, rv, kv, names)
    elif rv == "I":
        cell = _interacting_cell(family, I, v, u, ru, ku, names)
        cell = cell and cell[::-1]
    else:
        cell = None
    if cell is not None:
        return cell
    # outside every closed pattern: a free leading coefficient, and a free
    # trailing one inside a component; a D row divides each relation by its
    # lead and keeps the trailing ratio inside a component
    same = role_u == role_v
    if family == "D":
        return _UNIT, (names.q[u][v] if same else _ZERO)
    if free is None:
        return _UNIT, (_UNIT if same else _ZERO)
    return free[u][v], (free[v][u] if same else _ZERO)


def _components(members, edge) -> tuple:
    """Connected components of ``members`` under the symmetric ``edge`` test,
    each sorted, in order of their least members."""
    remaining = sorted(members)
    comps = []
    while remaining:
        comp = [remaining.pop(0)]
        for u in comp:  # the component grows while it is walked
            rest = []
            for v in remaining:
                (comp if edge(u, v) else rest).append(v)
            remaining = rest
        comps.append(tuple(sorted(comp)))
    return tuple(comps)


def _tag_components(I, comps):  # noqa: E741
    """Split arbitrary components into (circ, bullet) by the gap criterion.

    A component is bullet when it lies strictly inside one gap between
    consecutive interacting indices: the gap above the interacting index
    just below its least member also holds its greatest member.
    """
    circ = []
    bullets = []
    for comp in comps:
        k = bisect_left(I, min(comp))  # I[k - 1] < min(comp) < I[k]
        if 0 < k < len(I) and max(comp) < I[k]:
            bullets.append(comp)
        else:
            circ.append(comp)
    return tuple(circ), tuple(bullets)


def _fmt_indices(indices) -> str:
    return " ".join(map(str, indices)) if indices else "-"


def _fmt_components(comps) -> str:
    if not comps:
        return "-"
    return " ".join("{" + ",".join(map(str, c)) + "}" for c in comps)
