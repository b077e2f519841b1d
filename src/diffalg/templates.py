"""Symbolic relation templates: enumeration and exact instantiation.

A template pins a family letter together with the index data (I, S, the
tagged non-coupling components, the component partition of R) and carries,
for every generator pair, the two word coefficients as small linear
expressions in named parameters.  ``generate_templates`` enumerates the
admissible index structures for a given size, and ``instantiate_template``
turns a template plus a rational value for each parameter into a concrete
presentation, enforcing the template's restrictions exactly (A_II
restrictions that a common shift of the g<i> would change are shown only).

``mode="full"`` takes every bystander set and every component partition of
the remaining indices.  ``mode="paper"`` takes only the canonical partition
(each run strictly inside one gap of I is a block, the rest one block),
skips A_I rows without a bystander and marks its one D row dense; for
``n == 3`` it is the list of nine small cases instead.

One row type, ``TemplateSkeleton``, carries a row from enumeration to text:
the tuple (n, family, I, S, T_circ, T_bullet, R_components, loose, dense).
Its cells (``_cell``) are the one definition of its family's pattern: one
renderer prints them and :func:`diffalg.classify.identify_family` solves
them.  A cell takes its parameter names from the tables of its size
(``_names``, made once per n), so no name is formatted per cell.  One walk
over a row's pairs (``_walk``) gives each pair's relation line or cell, the
row's parameters and its restrictions, the free leads' among them,
together; ``tables_text``, ``render_template``, ``instantiate_template``
and the ``TemplateSkeleton`` properties all read a row through it.  The
rows of one enumeration share a ``_RowCache`` of what their pairs,
components and (family, I, S) groups have in common.  ``_row_count`` gives
the number of rows in closed form, so ``tables_text`` prints it first and
then holds one row at a time.

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
from collections import namedtuple
from itertools import chain, combinations
from math import comb

from .presentation import AlgebraPresentation
from .scalars import ONE, ZERO, format_rational, rational

__all__ = ["TemplateError", "TemplateSkeleton", "generate_templates",
           "instantiate_template", "render_template"]


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


def _total(expr: tuple, values: dict):
    """Value of ``expr`` at ``values``; every coefficient is +1 or -1."""
    acc = ZERO
    for c, name in expr:
        value = values[name] if name else ONE
        acc = acc + value if c > 0 else acc - value
    return acc


def _render_expr(expr: tuple) -> str:
    if not expr:
        return "0"
    if expr[0][0] < 0:
        return f"-{_render_expr(_negate(expr))}"
    if len(expr) == 1:
        c, name = expr[0]
        if name is None:
            return format_rational(c)
        return name if c == 1 else f"{c}*{name}"
    parts = []
    for c, name in expr:
        body = name if name else format_rational(abs(c))
        if not parts:
            parts.append(body if c > 0 else f"-{body}")
        else:
            parts.append(f"+ {body}" if c > 0 else f"- {body}")
    return "(" + " ".join(parts) + ")"


def _render_relation(u: int, v: int, e_uv: tuple, e_vu: tuple,
                     u_interacting: bool, v_interacting: bool) -> str:
    parts = []
    for expr, word in ((e_uv, f"D{u} D{v}"), (_negate(e_vu), f"D{v} D{u}")):
        if expr:
            coeff = _render_expr(expr)
            body = (word if coeff == "1" else f"-{word}" if coeff == "-1"
                    else f"{coeff} * {word}")
            if parts:
                body = f"- {body[1:]}" if body[0] == "-" else f"+ {body}"
            parts.append(body)
    rhs = " - ".join([f"x{v} * D{u}"] * v_interacting
                     + [f"x{u} * D{v}"] * u_interacting)
    if u_interacting and not v_interacting:
        rhs = f"-{rhs}"
    return f"{' '.join(parts) or '0'} = {rhs or '0'}"


# Ranks order the parameters the way ``classify`` reports them: the kind
# first, then the indices.  Free coefficients of the written words are not
# part of any family's pattern and are never reported.
_G, _L, _GI, _LK, _GO, _GB, _Q, _X, _FREE = range(9)


class TemplateSkeleton(namedtuple(
        "TemplateSkeleton",
        "n family I S T_circ T_bullet R_components loose dense",
        defaults=(False, False))):
    """A template row on sorted indices and components.  ``loose`` rows need
    not keep components connected; ``dense`` rows pin every free ratio."""

    __slots__ = ()

    @property
    def params(self) -> tuple:
        """Parameter names, in order of first use."""
        return tuple(_walk(_RowCache(), self, _CELL)[1])

    @property
    def ranks(self) -> tuple:
        """The report rank of each parameter (see ``_G`` .. ``_FREE``)."""
        return tuple(_walk(_RowCache(), self, _CELL)[1].values())

    @property
    def cells(self) -> tuple:
        """(u, v, expr_uv, expr_vu) for every pair u < v."""
        return tuple(_walk(_RowCache(), self, _CELL)[0])


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


def _family_params(family, I, names) -> dict:  # noqa: E741
    """The parameters (name -> rank) that come before every cell of a
    ``family`` row."""
    if family == "A_II":
        return {names.g[i]: (_GI, i) for i in I}
    head = {"g": (_G,)} if family in ("A_I", "B") else {}
    if family == "B":
        head["L"] = (_L,)
    return head


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


class _RowCache:
    """Cells, restrictions and text shared by the rows of one enumeration.

    Rows come grouped by n and family, then I, then S; the rows of one
    group differ only in the components of the remaining indices.  Per n and
    family the cache keeps an entry per pair and pair of roles (its cell,
    the parameters it names, the restriction on its lead and its
    ``relation:`` line; equal cells with the same indices interacting share
    one), each role coded as an integer, and each component's text and
    chain.  Per I it keeps the restriction parts on a set of indices or on
    the numbers of components, and per group the role codes of I and S, the
    pattern's part and the lines on family, I and S.  A row codes its
    components and looks each pair up (``_walk``), and each level starts
    afresh when the one above it changes.
    """

    __slots__ = ("scope", "group", "names", "pair_list", "roles", "pairs", "cells",
                 "comps", "parts", "head", "tail", "codes", "lines", "pattern")

    def __init__(self):
        self.scope = self.group = None

    def enter(self, n, family, I, S) -> None:  # noqa: E741
        """Keep the entries of (n, family), the parts of I and the codes
        and lines of S, dropping any others."""
        scope = (n, family, I)
        if scope != self.scope:
            if self.scope is None or self.scope[:2] != scope[:2]:
                names = self.names = _names(n)
                self.pair_list = tuple(combinations(range(1, n + 1), 2))
                # role code -> role (``_roles``): the role (kind, k) has
                # the code place * (n + 1) + k, place its kind's in the
                # order S, I, Tc, Tb, R of ``names.roles``
                self.roles = [role for kinds in names.roles.values() for role in kinds]
                # (u, v, code_u, code_v) -> [cell, the parameters it names
                #   (name -> rank), the restriction part on its lead or
                #   None, its relation line]
                self.pairs: dict = {}
                # (cell, whether u and v interact) -> its entry
                self.cells: dict = {}
                # a component -> [its text, its chain's restriction part]
                self.comps: dict = {}
            self.scope = scope
            self.group = None
            # the key of a restriction part -> [its restrictions, their lines]
            self.parts: dict = {}
            # the parameters named before and after every cell of a row
            self.head = _family_params(family, I, self.names)
            self.tail = {self.names.x[i]: (_X, i) for i in I}
        if S != self.group:
            self.group = S
            # index -> the code of its role; the rows add their components'
            codes = self.codes = [None] * (n + 1)
            for code, a in enumerate(I, start=n + 2):
                codes[a] = code
            for a in S:
                codes[a] = 0
            self.lines = (f"family: {family}\nI: {_fmt_indices(I)}\n"
                          f"S: {_fmt_indices(S)}")
            self.pattern = self.part(("pattern", S), _pattern_conditions,
                                     family, I, S)

    def pair(self, u, v, code_u, code_v) -> list:
        """Make the entry of the pair u < v with the given role codes."""
        _, family, I = self.scope  # noqa: E741
        names = self.names
        role_u, role_v = self.roles[code_u], self.roles[code_v]
        cell = (u, v) + _cell(family, I, u, v, role_u, role_v, names, names.free)
        key = (cell, role_u[0] == "I", role_v[0] == "I")
        entry = self.cells.get(key)
        if entry is None:
            # the names before every cell (``head``) are left out: the cells
            # name a g<i> of A_II only for i in I
            rank, head = names.rank, self.head
            named = {name: rank[name] for expr in cell[2:] for _, name in expr
                     if name and name not in head}
            # a free leading coefficient must be invertible
            lead = cell[2]
            part = (_restricted(((lead, _ZERO, False),))
                    if lead and rank.get(lead[0][1]) == (_FREE,) else None)
            line = "relation: " + _render_relation(*cell, *key[1:])
            entry = self.cells[key] = [cell, named, part, line]
        self.pairs[u, v, code_u, code_v] = entry
        return entry

    def comp(self, comp: tuple) -> list:
        """Make the entry of a component: its text and its chain's part."""
        n, family, _ = self.scope
        chain = _chain_conditions("q" if family == "D" else "g", comp, n)
        entry = self.comps[comp] = [_fmt_components((comp,)),
                                    _restricted(tuple(chain))]
        return entry

    def part(self, key, conditions, *args) -> list:
        """The restriction part of ``key``, made by ``conditions(*args)``."""
        entry = self.parts.get(key)
        if entry is None:
            entry = self.parts[key] = _restricted(tuple(conditions(*args)))
        return entry


def _restricted(conditions: tuple) -> list:
    """The restriction part [conditions, their lines] of ``conditions``."""
    return [conditions, "\n".join(f"restriction: {_render_restriction(left, right)}"
                                   for left, right, _ in conditions)]


# what ``_walk`` takes of each pair's entry: its cell or its relation line
_CELL, _LINE = 0, 3


def _walk(cache: _RowCache, row, item: int) -> tuple:
    """(items, params, parts) of ``row``, from one walk over its pairs.

    ``items`` holds the ``item`` (``_CELL`` or ``_LINE``) of every pair
    u < v in order, and ``params`` maps each parameter name to its report
    rank in order of first use; a name always comes with the same rank, so
    merging a cell's names keeps each parameter where it was first used.
    ``parts`` are the ``cache`` entries [restrictions, lines] of the row's
    nonempty restriction parts in order: family-specific named conditions
    first, then the invertibility of every free leading coefficient, then
    the two-sided chain that exhibits each pinned component's connectivity.
    The restrictions of a part are a tuple of (left, right, enforced), one
    for every "left != right", and its lines are rendered when it is made;
    equal parts of the rows of one ``cache`` are one shared entry.
    """
    n, family, I, S, t_circ, t_bullet, r_comps, loose, dense = row  # noqa: E741
    cache.enter(n, family, I, S)
    codes = cache.codes[:]
    known = cache.comps
    chains = []
    for first, comps in ((2 * n + 3, t_circ), (3 * n + 4, t_bullet),
                         (4 * n + 5, r_comps)):  # the codes of ("Tc", 1) ...
        for code, comp in enumerate(comps, start=first):
            for a in comp:
                codes[a] = code
            chain = (known.get(comp) or cache.comp(comp))[1]
            if chain[0]:
                chains.append(chain)
    part = cache.part
    out = [cache.pattern] if cache.pattern[0] else []
    if family == "C":
        out += [part(("offsets", k, comp), _offset_conditions, k, comp)
                for k, comp in enumerate(r_comps, start=1)]
    counts = ("components", len(t_circ), len(t_bullet))
    counted = (cache.parts.get(counts)
               or part(counts, _component_conditions, family, I, *counts[1:]))
    if counted[0]:
        out.append(counted)
    if dense:
        out.append(part(("dense",), _dense_conditions, n))
    # a dense row pins its ratios instead of its free leads and chains
    leads = [] if dense else out
    items = []
    params = dict(cache.head)
    get = cache.pairs.get
    for u, v in cache.pair_list:
        code_u, code_v = codes[u], codes[v]
        entry = get((u, v, code_u, code_v)) or cache.pair(u, v, code_u, code_v)
        items.append(entry[item])
        params |= entry[1]
        if entry[2]:
            leads.append(entry[2])
    params |= cache.tail
    if not (dense or loose):
        out += chains
    return items, params, out


def _pattern_conditions(family, I, S):  # noqa: E741
    """The family's named conditions on g, L and the g<i> of I and S."""
    if family == "A_I":
        yield _sym("g"), _ZERO, True
        for s in S:
            yield _sym(f"g{s}"), _ZERO, True
    elif family == "A_II":
        for i, j in combinations(I, 2):
            yield _sym(f"g{i}"), _sym(f"g{j}"), True
    elif family == "B":
        yield _sym("g"), _ZERO, True
        yield _sym("g"), _sym("L"), True
        for s in S:
            yield _sym(f"g{s}"), _ZERO, True
            yield _sym(f"g{s}"), _sym("L"), True


def _offset_conditions(k, comp):
    """A C row's conditions on the couplings and the offset of its k-th component."""
    for r in comp:
        yield _sym(f"g{r}"), _ZERO, True
        yield _sym(f"g{r}"), _sym(f"L{k}"), True


def _component_conditions(family, I, circ, bullet):  # noqa: E741
    """The conditions on the coefficients of ``circ`` circ and ``bullet``
    bullet components.

    A_II fixes the g<i> only up to a common shift, which go<k>, gbp<k> and
    gbm<k> absorb; conditions that such a shift changes are shown but not
    enforced (a vanishing g<a> + go<k> is caught as a zero leading slot).
    """
    invariant = family != "A_II"
    for k in range(1, circ + 1):
        yield _sym(f"go{k}"), _ZERO, invariant
        if family == "A_II":
            for i in I:
                yield _sym(f"g{i}"), _sym(f"go{k}"), False
        if family == "B":
            yield _sym(f"go{k}"), _sym("L"), True
    for k in range(1, bullet + 1):
        yield _sym(f"gbp{k}"), _ZERO, invariant
        yield _sym(f"gbm{k}"), _ZERO, invariant
        if family == "A_II":
            for i in I:
                yield _sym(f"g{i}"), _negate(_sym(f"gbp{k}")), True
                yield _sym(f"g{i}"), _sym(f"gbm{k}"), True


def _dense_conditions(n):
    """Every ratio of the fully-interlocked representative row is invertible."""
    for u, v in combinations(range(1, n + 1), 2):
        yield _sym(_pair_name("q", v, u, n)), _ZERO, True


def _chain_conditions(prefix, comp, n):
    """The two-sided chain that exhibits a pinned component's connectivity."""
    for a, b in zip(comp, comp[1:]):
        yield _sym(_pair_name(prefix, b, a, n)), _ZERO, False


def _render_restriction(left: tuple, right: tuple) -> str:
    return f"{_render_expr(left)} != {_render_expr(right)}"


def instantiate_template(skel: TemplateSkeleton, values: dict
                         ) -> AlgebraPresentation:
    """Evaluate a template at rational parameter values.

    Every parameter must be supplied; enforced restrictions, leading
    invertibility, nonzero inhomogeneous scalars and the connectivity of
    each pinned component are all checked, so the result always decomposes
    back onto the template's index structure.
    """
    cells, params, parts = _walk(_RowCache(), skel, _CELL)
    vals = {}
    for key, raw in values.items():
        if key not in params:
            raise TemplateError(f"unknown parameter: {key}")
        vals[key] = rational(raw)
    for name in params:
        if name not in vals:
            raise TemplateError(f"missing parameter: {name}")

    for part in parts:
        for left, right, enforced in part[0]:
            if enforced and _total(left, vals) == _total(right, vals):
                raise TemplateError(
                    f"restriction violated: {_render_restriction(left, right)}")
    for i in skel.I:
        if vals[f"x{i}"] == 0:
            raise TemplateError(
                f"x{i} must be nonzero on the interacting set")

    g: dict = {}
    for u, v, e_uv, e_vu in cells:
        lead = _total(e_uv, vals)
        if lead == 0:
            raise TemplateError(
                f"instantiation makes the coefficient of D{u} D{v} vanish, "
                f"but the leading slot of a pair must be invertible")
        g[(u, v)] = lead
        g[(v, u)] = _total(e_vu, vals)

    if not skel.loose:
        for comp in skel.T_circ + skel.T_bullet + skel.R_components:
            if len(_components(
                    comp, lambda a, b: g[(a, b)] != 0 and g[(b, a)] != 0)) > 1:
                raise TemplateError(
                    f"component {_fmt_components((comp,))} is not "
                    f"connected through two-sided pairs")

    x = {i: vals[f"x{i}"] for i in skel.I}
    return AlgebraPresentation(skel.n, g, x)


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


def _canonical_partition(I, members):  # noqa: E741
    """The canonical components of the non-coupling ``members``.

    Every maximal run strictly inside one gap between consecutive
    interacting indices is its own block; everything outside the gaps
    (below the least or above the greatest interacting index) forms a
    single block.  With fewer than two interacting indices there is no gap,
    so all members form one block.
    """
    blocks: dict = {}
    for t in members:
        # k for the gap between I[k - 1] and I[k], 0 outside every gap
        blocks.setdefault(bisect_left(I, t) % (len(I) or 1), []).append(t)
    return tuple(tuple(block) for _, block in sorted(blocks.items()))


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


def _subsets_desc(items):
    """All subsets, largest first, lexicographic inside each size."""
    items = tuple(items)
    for size in range(len(items), -1, -1):
        yield from combinations(items, size)


def _set_partitions(items):
    items = list(items)
    if not items:
        yield ()
        return
    head, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for k in range(len(part)):
            yield part[:k] + (tuple(sorted((head,) + part[k])),) + part[k + 1:]
        yield ((head,),) + part


def _partitions_sorted(items):
    parts = {tuple(sorted(p, key=min)) for p in _set_partitions(items)}
    return sorted(parts, key=lambda p: (len(p), p))


# The nine small cases (``mode="paper"``, ``n == 3``).
_NINE_SMALL_ROWS = (
    TemplateSkeleton(3, "A_I", (1, 2, 3), (), (), (), ()),
    TemplateSkeleton(3, "A_II", (1, 2, 3), (), (), (), ()),
    TemplateSkeleton(3, "B", (1, 3), (2,), (), (), ()),
    TemplateSkeleton(3, "B", (1, 3), (), (), ((2,),), ()),
    TemplateSkeleton(3, "B", (1, 2), (), ((3,),), (), ()),
    TemplateSkeleton(3, "B", (2, 3), (), ((1,),), (), ()),
    TemplateSkeleton(3, "C", (1,), (), (), (), ((2, 3),)),
    TemplateSkeleton(3, "C", (1,), (), (), (), ((2,), (3,))),
    TemplateSkeleton(3, "D", (), (), (), (), ((1, 2, 3),), True),
)


def _check(n: int, mode: str) -> None:
    if n < 3:
        raise ValueError("n must be at least 3")
    if mode not in ("paper", "full"):
        raise ValueError(f"unknown mode: {mode!r}")


def _template_rows(n: int, mode: str):
    """Every template row for ``n`` generators, in order.

    Both modes walk the family, then I, then S, then a partition into
    components of the indices outside I and S; they differ only where the
    module notes say.  With two or more interacting indices a partition is
    the tagged T part, otherwise it is R itself.  The checks of ``n`` and
    ``mode`` run at the first ``next``.
    """
    _check(n, mode)
    paper = mode == "paper"
    if paper and n == 3:
        yield from _NINE_SMALL_ROWS
        return
    everything = tuple(range(1, n + 1))

    # every partition of each member set, made once per enumeration
    made: dict = {}

    def partitions(I, members):  # noqa: E741
        if paper:
            return (_canonical_partition(I, members),)
        found = made.get(members)
        if found is None:
            found = made[members] = _partitions_sorted(members)
        return found

    # (family, sizes of I, whether bystanders are enumerated)
    shapes = (("A_I", range(3, n + 1), True), ("A_II", range(3, n + 1), False),
              ("B", (2,), True), ("C", (1,), False), ("D", (0,), False))
    for family, sizes, bystanders in shapes:
        dense = paper and family == "D"
        for size in sizes:
            for I in combinations(everything, size):  # noqa: E741
                rest = tuple(a for a in everything if a not in I)
                for S in _subsets_desc(rest) if bystanders else ((),):
                    if paper and family == "A_I" and not S:
                        continue
                    t_members = tuple(a for a in rest if a not in S)
                    for part in partitions(I, t_members):
                        comps = ((*_tag_components(I, part), ()) if size >= 2
                                 else ((), (), part))
                        # tuple.__new__ skips the Python-level __new__
                        # that namedtuple writes, a call per row
                        yield tuple.__new__(TemplateSkeleton, (
                            n, family, I, S, *comps, False, dense))


def _row_count(n: int, mode: str) -> int:
    """The number of rows of ``_template_rows(n, mode)``, in closed form.

    A_I and A_II take every I of each size s >= 3, B every I of size 2, C
    of size 1 and D the empty I; the m = n - s indices outside I are split
    into the bystanders S (A_I and B only) and components.  Paper mode takes
    one partition, so a row is a choice of I and S: per I, 2^m - 1 nonempty
    S for A_I, one row for A_II, 2^(n-2) for B and one for C, and one D row;
    at n = 3 it is the nine small cases.  Full mode takes every partition,
    Bell(k) of k members.  Summed over the bystander sets, sum_k C(m, k) *
    Bell(k) = Bell(m + 1), so an I gives Bell(m + 1) A_I rows, Bell(m) A_II
    rows, Bell(n - 1) B or C rows, and D has Bell(n).
    """
    _check(n, mode)
    sizes = range(3, n + 1)
    if mode == "paper":
        if n == 3:
            return len(_NINE_SMALL_ROWS)
        return (sum(comb(n, s) * 2 ** (n - s) for s in sizes)
                + comb(n, 2) * 2 ** (n - 2) + n + 1)
    bell = [1]
    for m in range(n):
        bell.append(sum(comb(m, k) * bell[k] for k in range(m + 1)))
    return (sum(comb(n, s) * (bell[n - s + 1] + bell[n - s]) for s in sizes)
            + (comb(n, 2) + n) * bell[n - 1] + bell[n])


def generate_templates(n: int, mode: str = "paper") -> list:
    """Enumerate the template rows for ``n`` generators (see the module notes)."""
    return list(_template_rows(n, mode))


def tables_text(n: int, mode: str):
    """The text of ``diffalg tables n --mode mode``, one row at a time.

    Checks ``n`` and ``mode`` at once (a ``ValueError``), then returns an
    iterator over the header and the text of each row, each ending in a
    newline.  The count is closed-form, so each row is rendered from the
    enumeration and then dropped.
    """
    header = f"n: {n}\nmode: {mode}\ncount: {_row_count(n, mode)}\n"
    cache = _RowCache()
    return chain((header,), (
        f"\n{_row_text(cache, index, row)}\n"
        for index, row in enumerate(_template_rows(n, mode), start=1)))


def _fmt_indices(indices) -> str:
    return " ".join(map(str, indices)) if indices else "-"


def _fmt_components(comps) -> str:
    if not comps:
        return "-"
    return " ".join("{" + ",".join(map(str, c)) + "}" for c in comps)


def render_template(skel: TemplateSkeleton, index: int) -> str:
    """The text of row number ``index``."""
    return _row_text(_RowCache(), index, skel)


def _row_text(cache: _RowCache, index: int, row) -> str:
    """The text of row number ``index``."""
    lines, params, parts = _walk(cache, row, _LINE)
    known = cache.comps  # the walk made an entry for every component
    t_circ, t_bullet, r_comps = (" ".join([known[comp][0] for comp in comps]) or "-"
                                 for comps in row[4:7])
    return "\n".join([
        f"template: {index}\n{cache.lines}\nTcirc: {t_circ}\nTbullet: {t_bullet}\nR: {r_comps}",
        *lines, *[part[1] for part in parts], f"params: {' '.join(params)}"])
