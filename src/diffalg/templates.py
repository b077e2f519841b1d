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
them.  The rows of one enumeration share a ``_RowCache`` that holds, per
pair and pair of roles, the cell, the parameters it names, its
``relation:`` line and the restriction on its lead, and holds equal
restriction parts once.  ``_row_count`` gives the number of rows in closed
form, so ``tables_text`` prints it first and then holds one row at a time.

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
    lhs_terms = []
    if e_uv:
        lhs_terms.append((e_uv, f"D{u} D{v}"))
    if e_vu:
        lhs_terms.append((_negate(e_vu), f"D{v} D{u}"))
    parts = []
    for expr, word in lhs_terms:
        coeff = _render_expr(expr)
        if coeff == "1":
            body = word
        elif coeff == "-1":
            body = f"-{word}"
        else:
            body = f"{coeff} * {word}"
        if not parts:
            parts.append(body)
        elif body.startswith("-"):
            parts.append(f"- {body[1:]}")
        else:
            parts.append(f"+ {body}")
    lhs = " ".join(parts) if parts else "0"
    rhs_parts = []
    if v_interacting:
        rhs_parts.append(f"x{v} * D{u}")
    if u_interacting:
        first = not rhs_parts
        rhs_parts.append(f"-x{u} * D{v}" if first else f"- x{u} * D{v}")
    rhs = " ".join(rhs_parts) if rhs_parts else "0"
    return f"{lhs} = {rhs}"


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
        return tuple(_row_params(*_fresh_entries(self)))

    @property
    def ranks(self) -> tuple:
        """The report rank of each parameter (see ``_G`` .. ``_FREE``)."""
        return tuple(_row_params(*_fresh_entries(self)).values())

    @property
    def cells(self) -> tuple:
        """(u, v, expr_uv, expr_vu) for every pair u < v."""
        return tuple(entry[0] for entry in _fresh_entries(self)[1])


def _pair_name(prefix: str, a: int, b: int, n: int) -> str:
    """Name of a coefficient keyed by two indices (see the module notes)."""
    return f"{prefix}{a}_{b}" if n >= 10 else f"{prefix}{a}{b}"


def _interacting_cell(family, I, a, t, role, k, use):  # noqa: E741
    """Coefficients of the written words (D_a D_t, D_t D_a) that the family
    pattern gives the interacting index ``a`` against ``t``; None when the
    pattern has no cell for them."""
    if role == "S" and family == "A_I":
        gs = _sym(use(f"g{t}", _GI, t))
        return gs, gs
    if role == "S" and family == "B":
        # D_i D_s carries g_s; each sibling word follows it, offset by L
        # when s stands on the outside of the word
        gs = use(f"g{t}", _GI, t)
        return (_sym(gs) if a == I[0] else _diff(gs, "L"),
                _sym(gs) if a == I[1] else _diff(gs, "L"))
    if role == "R":  # family C
        gr = use(f"g{t}", _GI, t)
        return _sym(gr), _diff(gr, use(f"L{k}", _LK, k))
    # the remaining cells are one-sided: only the leading word is nonzero
    if role == "Tc":
        go = use(f"go{k}", _GO, k)
        if family == "A_II":
            lead = ((1, f"g{a}"), (1, go))
        elif family == "B" and a == I[1]:
            lead = _diff(go, "L")
        else:
            lead = _sym(go)
        lead = lead if a < t else _negate(lead)
    elif role == "Tb":
        base = ((1, f"g{a}"),) if family == "A_II" else _ZERO
        if a < t:
            lead = base + _sym(use(f"gbp{k}", _GB, k, 0))
        else:
            lead = _sym(use(f"gbm{k}", _GB, k, 1)) + _negate(base)
    else:
        return None
    return (lead, _ZERO) if a < t else (_ZERO, lead)


# the leading word of a fully non-interacting (D) row: coefficient 1
_UNIT: tuple = ((1, None),)


def _roles(I, S, t_circ, t_bullet, r_comps) -> dict:  # noqa: E741
    """Index -> (role, number): "I" with the index's 1-based place in I,
    "S" with 0, or the component kind "Tc", "Tb" or "R" with the 1-based
    place of the index's component in its list."""
    role = {a: ("I", k) for k, a in enumerate(I, start=1)}
    for a in S:
        role[a] = ("S", 0)
    for tag, comps in (("Tc", t_circ), ("Tb", t_bullet), ("R", r_comps)):
        for k, comp in enumerate(comps, start=1):
            kind = (tag, k)
            for a in comp:
                role[a] = kind
    return role


def _family_params(family, I, use) -> None:  # noqa: E741
    """Name the parameters that come before every cell of a ``family`` row."""
    if family in ("A_I", "B"):
        use("g", _G)
    if family == "B":
        use("L", _L)
    if family == "A_II":
        for i in I:
            use(f"g{i}", _GI, i)


def _cell(family, I, n, u, v, role_u, role_v, use, free) -> tuple:  # noqa: E741
    """(expr_uv, expr_vu), the cell of the pair u < v with the given roles.

    ``use(name, *rank)`` names each pattern parameter the cell reads, and
    ``free(a, b)`` gives the expression of the free coefficient of the
    written word D_a D_b, which no family pattern constrains.
    """
    ru, ku = role_u
    rv, kv = role_v
    if ru == "I" and rv == "I":
        if family == "A_I":
            return _sym("g"), _sym("g")
        if family == "A_II":
            return _diff(f"g{u}", f"g{v}"), _ZERO
        return _sym("g"), _diff("g", "L")  # B
    if ru == "I":
        cell = _interacting_cell(family, I, u, v, rv, kv, use)
    elif rv == "I":
        cell = _interacting_cell(family, I, v, u, ru, ku, use)
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
        trail = _sym(use(_pair_name("q", v, u, n), _Q, u, v)) if same else _ZERO
        return _UNIT, trail
    return free(u, v), (free(v, u) if same else _ZERO)


class _RowCache:
    """Cells, restrictions and text shared by the rows of one enumeration.

    The rows of one n and family come out one after another.  Among them
    the cell of a pair depends only on the roles of its two indices (an
    interacting index's role carries its place in I), and so do the
    parameters it names, its ``relation:`` line and the restriction on its
    lead.  The cache keeps one entry per pair and pair of roles, and pairs
    of roles that give equal cells, with the same indices interacting,
    share one.  Each other part of the
    restrictions depends on I and on one set of indices or on the numbers
    of components; those parts are kept for one I at a time.  A row is then
    one pass over its pairs, plus the shared parts.  The cache starts afresh
    when a row of another n or family arrives, so it holds at most an entry
    per pair and pair of roles, per set of indices and per pair of
    component counts, whatever the number of rows, and it lives as long as
    the enumeration that made it.
    """

    __slots__ = ("scope", "pair_list", "pairs", "cells", "parts", "head", "tail")

    def __init__(self):
        self.scope = None

    def enter(self, n, family, I) -> None:  # noqa: E741
        """Keep the entries of (n, family), and the parts of I, dropping
        any others."""
        scope = (n, family, I)
        if scope == self.scope:
            return
        if self.scope is None or self.scope[:2] != scope[:2]:
            self.pair_list = tuple(combinations(range(1, n + 1), 2))
            # (u, v, role_u, role_v) -> [cell, the parameters it names (name
            #   -> rank), the restriction part on its lead or None, its
            #   relation line once rendered]
            self.pairs: dict = {}
            # (cell, whether u and v interact) -> its entry
            self.cells: dict = {}
        self.scope = scope
        # the key of a restriction part
        #   -> [the part's restrictions, their lines once rendered]
        self.parts: dict = {}
        # the parameters named before and after every cell of a row
        head = self.head = {}

        def use(name, *rank):
            head.setdefault(name, rank)
            return name

        _family_params(family, I, use)
        self.tail = {f"x{i}": (_X, i) for i in I}

    def pair(self, u, v, role_u, role_v) -> list:
        """Make the entry of the pair u < v with the given roles."""
        n, family, I = self.scope  # noqa: E741
        named: dict = {}

        def use(name, *rank):
            named.setdefault(name, rank)
            return name

        def free(a, b):
            return _sym(use(_pair_name("g", a, b, n), _FREE))

        cell = (u, v) + _cell(family, I, n, u, v, role_u, role_v, use, free)
        # a free leading coefficient must be invertible
        lead = cell[2]
        part = ([((lead, _ZERO, False),), None]
                if lead and named.get(lead[0][1]) == (_FREE,) else None)
        entry = self.cells.setdefault((cell, role_u[0] == "I", role_v[0] == "I"),
                                      [cell, named, part, None])
        self.pairs[u, v, role_u, role_v] = entry
        return entry


def _pair_entries(cache: _RowCache, row) -> list:
    """The ``cache`` entry of every pair u < v of ``row``, in order."""
    n, family, I, S, t_circ, t_bullet, r_comps = row[:7]  # noqa: E741
    cache.enter(n, family, I)
    role = _roles(I, S, t_circ, t_bullet, r_comps)
    get = cache.pairs.get
    return [get((u, v, role[u], role[v])) or cache.pair(u, v, role[u], role[v])
            for u, v in cache.pair_list]


def _row_params(cache: _RowCache, entries) -> dict:
    """Parameter name -> report rank, in order of first use in the row.

    A name always comes with the same rank, so merging a cell's names keeps
    each parameter where it was first used.
    """
    params = dict(cache.head)
    for entry in entries:
        params.update(entry[1])
    params.update(cache.tail)
    return params


def _fresh_entries(row) -> tuple:
    """A new ``_RowCache`` and the entries of ``row``'s pairs in it."""
    cache = _RowCache()
    return cache, _pair_entries(cache, row)


def _build_skeleton(n, family, I, S, t_circ, t_bullet, r_comps,  # noqa: E741
                    loose=False, dense=False) -> TemplateSkeleton:
    """The template row of ``family`` on the given indices and components,
    each sorted."""
    return TemplateSkeleton(
        n, family, tuple(sorted(I)), tuple(sorted(S)),
        *(tuple(tuple(sorted(c)) for c in comps)
          for comps in (t_circ, t_bullet, r_comps)),
        loose, dense)


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


def _restriction_parts(cache: _RowCache, row, entries) -> list:
    """The restrictions of ``row`` in order, as the ``cache`` entries
    [restrictions, lines] of its nonempty parts.

    ``entries`` are the row's pair entries (``_pair_entries``).  The
    restrictions of a part are a tuple of (left, right, enforced), one for
    every "left != right"; ``_row_text`` fills in their lines.
    Family-specific named conditions come first, then the invertibility of
    every free leading coefficient, then the two-sided chain that exhibits
    each pinned component's connectivity.  Equal parts of the rows of one
    ``cache`` are one shared entry.
    """
    n, family, I, S, t_circ, t_bullet, r_comps, loose, dense = row  # noqa: E741
    parts = cache.parts
    out = []

    def part(key, conditions, *args):
        entry = parts.get(key)
        if entry is None:
            entry = parts[key] = [tuple(conditions(*args)), None]
        if entry[0]:
            out.append(entry)

    part(("pattern", S), _pattern_conditions, family, I, S)
    if family == "C":
        for k, comp in enumerate(r_comps, start=1):
            part(("offsets", k, comp), _offset_conditions, k, comp)
    part(("components", len(t_circ), len(t_bullet)),
         _component_conditions, family, I, len(t_circ), len(t_bullet))
    if dense:
        part(("dense",), _dense_conditions, n)
        return out
    out += [entry[2] for entry in entries if entry[2] is not None]
    if not loose:
        prefix = "q" if family == "D" else "g"
        for comp in t_circ + t_bullet + r_comps:
            part(("chain", comp), _chain_conditions, prefix, comp, n)
    return out


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
    cache, entries = _fresh_entries(skel)
    params = _row_params(cache, entries)
    vals = {}
    for key, raw in values.items():
        if key not in params:
            raise TemplateError(f"unknown parameter: {key}")
        vals[key] = rational(raw)
    for name in params:
        if name not in vals:
            raise TemplateError(f"missing parameter: {name}")

    for part in _restriction_parts(cache, skel, entries):
        for left, right, enforced in part[0]:
            if enforced and _total(left, vals) == _total(right, vals):
                raise TemplateError(
                    f"restriction violated: {_render_restriction(left, right)}")
    for i in skel.I:
        if vals[f"x{i}"] == 0:
            raise TemplateError(
                f"x{i} must be nonzero on the interacting set")

    g: dict = {}
    for entry in entries:
        u, v, e_uv, e_vu = entry[0]
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
    """Connected components of ``members`` under the symmetric ``edge`` test."""
    remaining = set(members)
    comps = []
    while remaining:
        seed = min(remaining)
        comp = {seed}
        frontier = [seed]
        while frontier:
            u = frontier.pop()
            for v in list(remaining - comp):
                if edge(u, v):
                    comp.add(v)
                    frontier.append(v)
        comps.append(tuple(sorted(comp)))
        remaining -= comp
    return tuple(sorted(comps, key=min))


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
    entries = _pair_entries(cache, row)
    _, family, I, S, t_circ, t_bullet, r_comps = row[:7]  # noqa: E741
    return "\n".join([
        f"template: {index}",
        f"family: {family}",
        f"I: {_fmt_indices(I)}",
        f"S: {_fmt_indices(S)}",
        f"Tcirc: {_fmt_components(t_circ)}",
        f"Tbullet: {_fmt_components(t_bullet)}",
        f"R: {_fmt_components(r_comps)}",
        *[entry[3] or _relation_line(entry, I) for entry in entries],
        *[part[1] or _restriction_lines(part)
          for part in _restriction_parts(cache, row, entries)],
        f"params: {' '.join(_row_params(cache, entries))}"])


def _relation_line(entry: list, I) -> str:  # noqa: E741
    """Render the ``relation:`` line of a pair entry into its last slot."""
    u, v, e_uv, e_vu = entry[0]
    entry[3] = "relation: " + _render_relation(u, v, e_uv, e_vu, u in I, v in I)
    return entry[3]


def _restriction_lines(part: list) -> str:
    """Render the ``restriction:`` lines of a part into its last slot."""
    part[1] = "\n".join(f"restriction: {_render_restriction(left, right)}"
                         for left, right, _ in part[0])
    return part[1]
