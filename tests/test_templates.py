"""Template tables: enumeration, rendering, and instantiation.

The golden files under tests/golden/ were frozen after row-by-row
verification against tools/oracle.py (job 8 adjudicated the bystander slot
pattern of the pair family; the 282-row sweep checked that every row
instantiates to an ordered-basis presentation).
"""

import pytest

from diffalg import rows
from diffalg.classify import decompose, identify_family
from diffalg.cli import main
from diffalg.engine import is_pbw
from diffalg.scalars import rational
from diffalg.rows import _row_count
from diffalg.templates import (TemplateError, generate_templates,
                               instantiate_template, render_template,
                               tables_text)

from conftest import GOLDEN


def rows_of(n, mode="paper"):
    return generate_templates(n, mode)


def signature(skel):
    flat = lambda comps: tuple(sorted(t for c in comps for t in c))  # noqa: E731
    return (skel.family, skel.I, skel.S,
            flat(skel.T_circ), flat(skel.T_bullet))


# -- counts --------------------------------------------------------------------

@pytest.mark.parametrize("n,mode,count", [
    (3, "paper", 9),
    (4, "paper", 38),
    (5, "paper", 137),
    (3, "full", 19),
    (4, "full", 79),
    (6, "paper", 480),
    (7, "paper", 1619),
    (8, "paper", 5290),
    (9, "paper", 16877),
    (5, "full", 364),
    (6, "full", 1820),
    (7, "full", 9776),
    (8, "full", 56024),
])
def test_row_counts(n, mode, count):
    # the closed form that tables prints must match the enumeration
    assert len(rows_of(n, mode)) == count == _row_count(n, mode)


def test_tables_text_prints_the_count_before_any_row(monkeypatch):
    pulled = []
    walk = rows._template_rows

    def counted(n, mode):
        for row in walk(n, mode):
            pulled.append(row)
            yield row

    monkeypatch.setattr(rows, "_template_rows", counted)
    text = tables_text(9, "paper")
    assert next(text) == "n: 9\nmode: paper\ncount: 16877\n"
    assert pulled == []
    assert next(text).startswith("\ntemplate: 1\nfamily: A_I\n")
    assert len(pulled) == 1
    # the arguments are checked at the call, not at the first row
    with pytest.raises(ValueError, match="n must be at least 3"):
        tables_text(2, "paper")
    with pytest.raises(ValueError, match="unknown mode"):
        tables_text(3, "everything")


def test_rows_are_distinct():
    for n, mode in [(3, "paper"), (4, "paper"), (4, "full")]:
        rows = rows_of(n, mode)
        keys = {(r.family, r.I, r.S, r.T_circ, r.T_bullet, r.R_components)
                for r in rows}
        assert len(keys) == len(rows)


def test_rejects_degenerate_sizes_and_modes():
    with pytest.raises(ValueError, match="n must be at least 3"):
        generate_templates(2)
    with pytest.raises(ValueError, match="unknown mode"):
        generate_templates(3, mode="everything")


# -- golden renders -------------------------------------------------------------

@pytest.mark.parametrize("n,name", [
    (3, "tables_n3_paper.txt"),
    (4, "tables_n4_paper.txt"),
])
def test_rendering_matches_golden(n, name):
    text = (GOLDEN / name).read_text()
    blocks = text.rstrip("\n").split("\n\n")
    rows = rows_of(n)
    assert blocks[0] == f"n: {n}\nmode: paper\ncount: {len(rows)}"
    assert blocks[1:] == [render_template(r, i) for i, r in enumerate(rows, 1)]


def test_rendered_rows_match_the_tables_command(capsys):
    # generate_templates and the tables command enumerate and render through
    # separate routes; at n = 6 (1820 rows) they must agree row for row
    rows = rows_of(6, "full")
    assert main(["tables", "6", "--mode", "full"]) == 0
    blocks = capsys.readouterr().out.rstrip("\n").split("\n\n")
    assert blocks[0] == f"n: 6\nmode: full\ncount: {len(rows)}"
    assert blocks[1:] == [render_template(r, i) for i, r in enumerate(rows, 1)]


def test_named_five_generator_rows_match_golden():
    spots = [
        ("A_I", (1, 2, 3, 4), (5,), (), ()),
        ("A_I", (1, 2, 4), (5,), (), (3,)),
        ("A_I", (2, 3, 4), (5,), (1,), ()),
        ("A_II", (1, 2, 3, 4, 5), (), (), ()),
        ("A_II", (2, 3, 4, 5), (), (1,), ()),
        ("A_II", (1, 2, 3), (), (4, 5), ()),
        ("B", (2, 3), (1, 4, 5), (), ()),
        ("B", (1, 5), (4,), (), (2, 3)),
        ("C", (3,), (), (), ()),
        ("D", (), (), (), ()),
    ]
    rows = rows_of(5)
    by_sig = {signature(r): (i, r) for i, r in enumerate(rows, 1)}
    rendered = [render_template(*reversed(by_sig[s])) for s in spots]
    assert "\n\n".join(rendered) + "\n" == \
        (GOLDEN / "tables_n5_spots.txt").read_text()


# -- instantiation round trips ---------------------------------------------------

def test_uniform_row_reproduces_sym3(sym3):
    got = instantiate_template(rows_of(3)[0], {"g": 2, "x1": 1, "x2": 1, "x3": 1})
    assert got == sym3
    fam = identify_family(got)
    assert fam.family == "A_I" and fam.params["g"] == rational(2)


def test_one_sided_row_reproduces_lin3(lin3):
    got = instantiate_template(rows_of(3)[1],
                               {"g1": -2, "g2": -1, "g3": 0,
                                "x1": 1, "x2": 1, "x3": 1})
    assert got == lin3


def test_pair_row_reproduces_b1(b1):
    got = instantiate_template(rows_of(3)[2],
                               {"g": 3, "L": 1, "g2": 5, "x1": 1, "x3": 7})
    assert got == b1
    assert identify_family(got).params == identify_family(b1).params


def test_single_index_row_reproduces_c_nonuniform(c_nonuniform):
    got = instantiate_template(rows_of(3)[6],
                               {"g2": 5, "L1": 1, "g3": 7,
                                "g23": 3, "g32": 2, "x1": 1})
    assert got == c_nonuniform


def test_free_row_reproduces_p4(p4):
    got = instantiate_template(rows_of(3)[8], {"q21": 2, "q31": 1, "q32": 1})
    assert got == p4


def test_instantiated_rows_decompose_onto_their_template():
    skel = rows_of(4)[4]  # one-sided triple with a non-coupling bystander
    got = instantiate_template(skel, {"g1": -2, "g2": -1, "g3": 0, "go1": 8,
                                      "x1": 1, "x2": 1, "x3": 1})
    dec = decompose(got)
    assert dec.I == skel.I
    assert dec.S == skel.S
    assert dec.T_circ == skel.T_circ
    assert dec.T_bullet == skel.T_bullet
    assert is_pbw(got).pbw


def test_one_sided_shift_gives_equal_tables():
    # A_II fixes g1, g2, g3 only up to a common shift that go1 absorbs, so
    # the restrictions go1 != 0 and g<i> != go1 are shown but not enforced.
    skel = rows_of(4, "full")[9]
    assert (skel.family, skel.I, skel.T_circ) == ("A_II", (1, 2, 3), ((4,),))
    text = render_template(skel, 10)
    assert "restriction: go1 != 0" in text
    assert "restriction: g1 != go1" in text
    x = {"x1": 1, "x2": 1, "x3": 1}
    for go1, shifted in ((1, 4), (0, 3)):
        P = instantiate_template(skel, {"g1": 1, "g2": 2, "g3": 3,
                                        "go1": go1, **x})
        Q = instantiate_template(skel, {"g1": -2, "g2": -1, "g3": 0,
                                        "go1": shifted, **x})
        assert P == Q


def test_loose_free_row_accepts_vanishing_ratios():
    got = instantiate_template(rows_of(3)[8], {"q21": 0, "q31": 5, "q32": 3})
    fam = identify_family(got)
    assert fam.family == "D"
    assert fam.params["q21"] == rational(0)


# -- instantiation errors --------------------------------------------------------

def test_enforced_restriction():
    with pytest.raises(TemplateError,
                       match=r"restriction violated: g != 0"):
        instantiate_template(rows_of(3)[0],
                             {"g": 0, "x1": 1, "x2": 1, "x3": 1})


def test_missing_and_unknown_parameters():
    with pytest.raises(TemplateError, match="missing parameter: x1"):
        instantiate_template(rows_of(3)[0], {"g": 1})
    with pytest.raises(TemplateError, match="unknown parameter: zz"):
        instantiate_template(rows_of(3)[0],
                             {"g": 1, "x1": 1, "x2": 1, "x3": 1, "zz": 9})


def test_interacting_scalars_must_not_vanish():
    with pytest.raises(TemplateError,
                       match="x1 must be nonzero on the interacting set"):
        instantiate_template(rows_of(3)[0],
                             {"g": 1, "x1": 0, "x2": 1, "x3": 1})


def test_composite_lead_may_vanish_only_with_an_error():
    # the one-sided shifted pattern carries lead (g1 + go1); the published
    # named restrictions do not pin its sign, so the guard is at evaluation
    skel = rows_of(4)[4]
    with pytest.raises(TemplateError,
                       match=r"instantiation makes the coefficient of D1 D4 "
                             r"vanish, but the leading slot of a pair must "
                             r"be invertible"):
        instantiate_template(skel, {"g1": -2, "g2": -1, "g3": 0, "go1": 2,
                                    "x1": 1, "x2": 1, "x3": 1})


def test_pinned_component_must_stay_connected():
    skel = rows_of(4)[33]  # single interacting index 1, component {2,3,4}
    assert skel.family == "C" and skel.I == (1,)
    vals = {"g2": 3, "g3": 3, "g4": 3, "L1": 1, "g23": 1, "g32": 0,
            "g24": 1, "g42": 0, "g34": 1, "g43": 0, "x1": 1}
    with pytest.raises(TemplateError,
                       match=r"component \{2,3,4\} is not connected through "
                             r"two-sided pairs"):
        instantiate_template(skel, vals)


def test_dense_free_row_pins_every_ratio():
    skel = rows_of(4)[37]
    assert skel.family == "D"
    with pytest.raises(TemplateError,
                       match="restriction violated: q21 != 0"):
        instantiate_template(skel, {"q21": 0, "q31": 1, "q41": 1,
                                    "q32": 1, "q42": 1, "q43": 1})
