"""Generated round trips: every full template row, instantiated and classified.

Each row of generate_templates(n, "full") for n = 3, 4, 5 is instantiated at
seeded admissible values; the decomposition, the family, the ordered basis,
the verdict and the parameters must all come back from the table alone.
Rows with two-digit indices are checked on hand-picked n = 12 structures,
because the full enumeration at that size is far too large.
"""

import random
import re

import pytest

from diffalg.classify import decompose, identify_family
from diffalg.engine import is_pbw
from diffalg.scalars import rational
from diffalg.smoothness import decide_smoothness
from diffalg.templates import (TemplateError, generate_templates,
                               instantiate_template)

from conftest import build_skeleton

FULL_ROW_COUNTS = {3: 19, 4: 79, 5: 364}


def seeded_instance(skel, rng):
    """Instantiate ``skel`` at small nonzero rationals drawn from ``rng``."""
    for _ in range(1000):
        values = {name: rational(rng.choice((1, 2, 3, 4, 5)) * rng.choice((1, -1)),
                                 rng.choice((1, 1, 2, 3)))
                  for name in skel.params}
        try:
            return instantiate_template(skel, values)
        except TemplateError:
            continue
    raise AssertionError(f"no admissible values for {skel}")


def free_names(skel):
    """The free word coefficients g<u><v> of a row (never reported)."""
    pattern = r"g\d+_\d+" if skel.n >= 10 else r"g\d\d"
    return {name for name in skel.params if re.fullmatch(pattern, name)}


def read_back(skel, P, params):
    """``params`` plus every free coefficient read from the table of ``P``."""
    values = dict(params)
    free = free_names(skel)
    for u, v, e_uv, e_vu in skel.cells:
        for (a, b), expr in (((u, v), e_uv), ((v, u), e_vu)):
            if len(expr) == 1 and expr[0][1] in free:
                values[expr[0][1]] = P.g(a, b)
    return values


@pytest.mark.parametrize("n", sorted(FULL_ROW_COUNTS))
def test_every_full_row_round_trips(n):
    rng = random.Random(f"round-trip:{n}")
    rows = generate_templates(n, "full")
    assert len(rows) == FULL_ROW_COUNTS[n]
    for index, skel in enumerate(rows, start=1):
        where = f"n={n} row {index}"
        P = seeded_instance(skel, rng)
        dec = decompose(P)
        assert dec.I == skel.I, where
        if len(skel.I) >= 2:
            assert dec.S == skel.S, where
        else:
            assert dec.R_components == skel.R_components, where
        assert (dec.T_circ, dec.T_bullet) == (skel.T_circ, skel.T_bullet), where

        fam = identify_family(P, dec)
        assert fam.family == skel.family, (where, fam.violations)
        assert set(fam.params) == set(skel.params) - free_names(skel), where
        assert is_pbw(P).pbw, where
        if dec.T:
            assert decide_smoothness(P, dec, fam).verdict == "NotSmooth", where
        assert instantiate_template(skel, read_back(skel, P, fam.params)) == P, where


TWO_DIGIT_ROWS = [
    # (1,11) and (11,1) once shared the name g111, as did the leading slot
    # of (1,12) and the trailing slot of (2,11) (g112)
    ("C", (5,), (tuple(a for a in range(1, 13) if a != 5),)),
    ("D", (), (tuple(range(1, 13)),)),
]


@pytest.mark.parametrize("family,I,comps", TWO_DIGIT_ROWS)
def test_two_digit_indices_keep_parameters_apart(family, I, comps):  # noqa: E741
    skel = build_skeleton(12, family, I, (), (), (), comps)
    values = {name: rational(k) for k, name in enumerate(skel.params, start=2)}
    P = instantiate_template(skel, values)

    slots = [((a, b), expr[0][1])
             for u, v, e_uv, e_vu in skel.cells
             for (a, b), expr in (((u, v), e_uv), ((v, u), e_vu))
             if len(expr) == 1 and expr[0][1]]
    assert len({name for _, name in slots}) == len(slots)
    for (a, b), name in slots:
        assert P.g(a, b) == values[name], name

    fam = identify_family(P)
    assert fam.family == family, fam.violations
    assert fam.params == {name: values[name] for name in skel.params
                          if name not in free_names(skel)}
    assert instantiate_template(skel, read_back(skel, P, fam.params)) == P
