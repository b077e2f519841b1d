"""Acceptance gate: one test per published criterion, exact arithmetic only.

Mutated coefficient tables and expected obstruction shapes were frozen from
tools/oracle.py (jobs 1-9); golden table files live under tests/golden/.
"""

import random
import time
from itertools import combinations

import pytest

from diffalg.calculus import (build_automorphisms, partial_derivative,
                              shift_ansatz, verify_automorphisms)
from diffalg.cli import main
from diffalg.engine import (Poly, diamond_check_triple, is_pbw, monomial_word,
                            multiply, normal_form)
from diffalg.scalars import rational
from diffalg.smoothness import decide_smoothness
from diffalg.templates import (TemplateError, generate_templates,
                               instantiate_template)

from conftest import (FIXTURES, GOLDEN, build, closed_partial_derivative,
                      poly_of)

PRIMES = [3, 5, 7, 11, 13, 17, 19, 23, 29, 31, 37, 41]


def generic_values(skel):
    """Deterministic admissible filler: offsets 1, scalars 2, leads primes."""
    vals = {}
    feed = iter(PRIMES)
    for name in skel.params:
        if name.startswith("L"):
            vals[name] = 1
        elif name.startswith("x"):
            vals[name] = 2
        else:
            vals[name] = next(feed)
    return vals


def exponent_tuples(n, max_degree):
    if n == 0:
        yield ()
        return
    for first in range(max_degree + 1):
        for rest in exponent_tuples(n - 1, max_degree - first):
            yield (first,) + rest


def ascending_product(expts, P):
    word = tuple(i for i in range(1, P.n + 1) for _ in range(expts[i - 1]))
    return normal_form(word, P)


# -- criterion 1: nine-case coverage ------------------------------------------------

# (good table, x) plus one restriction-violating mutation per small family
NINE_CASES = [
    ("uniform triple",
     {(1, 2): 2, (2, 1): 2, (1, 3): 2, (3, 1): 2, (2, 3): 2, (3, 2): 2},
     {1: 1, 2: 1, 3: 1}, [((2, 3), 4)]),
    ("one-sided staircase",
     {(1, 2): -1, (1, 3): -2, (2, 3): -1},
     {1: 1, 2: 1, 3: 1}, [((2, 1), 1)]),
    ("pair with coupled betweener",
     {(1, 3): 3, (3, 1): 2, (1, 2): 5, (2, 1): 4, (2, 3): 5, (3, 2): 4},
     {1: 1, 3: 7}, [((2, 3), 6)]),
    ("pair with one-sided betweener",
     {(1, 3): 3, (3, 1): 2, (1, 2): 5, (2, 3): 4},
     {1: 1, 3: 7}, [((2, 1), 1)]),
    ("pair with one-sided top",
     {(1, 2): 3, (2, 1): 2, (1, 3): 5, (2, 3): 4},
     {1: 1, 2: 1}, [((2, 3), 5)]),
    ("pair with one-sided bottom",
     {(2, 3): 3, (3, 2): 2, (1, 2): 4, (1, 3): 5},
     {2: 1, 3: 7}, [((1, 3), 6)]),
    ("single index, linked rest",
     {(1, 2): 5, (2, 1): 4, (1, 3): 7, (3, 1): 6, (2, 3): 3, (3, 2): 2},
     {1: 1}, [((3, 1), 5)]),
    ("single index, split rest",
     {(1, 2): 5, (2, 1): 4, (1, 3): 7, (3, 1): 3, (2, 3): 1},
     {1: 1}, [((3, 2), 1)]),
    ("pure ratio table",
     {(1, 2): 1, (2, 1): 2, (1, 3): 1, (3, 1): 5, (2, 3): 1, (3, 2): 3},
     {}, []),
]


def test_c1_nine_case_coverage():
    start = time.monotonic()
    rng = random.Random(20260815)
    rows = generate_templates(3)
    assert len(rows) == len(NINE_CASES) == 9

    def draw():
        return rational(rng.choice([-9, -7, -5, -3, -2, -1, 1, 2, 3, 5, 7, 9]),
                        rng.choice([1, 1, 1, 2, 3]))

    for skel in rows:
        produced = 0
        while produced < 20:
            try:
                P = instantiate_template(
                    skel, {name: draw() for name in skel.params})
            except TemplateError:
                continue
            assert is_pbw(P).pbw, (skel.family, skel.I)
            produced += 1

    for label, g, x, mutations in NINE_CASES:
        good = build(3, g, x)
        assert is_pbw(good).pbw, label
        if mutations:
            bad_g = dict(g)
            for cell, value in mutations:
                bad_g[cell] = value
            bad = build(3, bad_g, x)
        else:
            bad = build(3, g, {2: 1})  # a scalar where the pattern allows none
        check = diamond_check_triple(bad, 1, 2, 3)
        assert not check.confluent, label
    assert time.monotonic() - start < 10


# -- criterion 2: table regeneration -------------------------------------------------

PAPER_FOUR_GENERATOR_ROWS = (
    [("A_I", I, S, (), ()) for I, S in
     [((1, 2, 3), (4,)), ((1, 2, 4), (3,)), ((1, 3, 4), (2,)),
      ((2, 3, 4), (1,))]]
    + [("A_II", (1, 2, 3, 4), (), (), ()),
       ("A_II", (1, 2, 3), (), (4,), ()),
       ("A_II", (2, 3, 4), (), (1,), ()),
       ("A_II", (1, 3, 4), (), (), (2,)),
       ("A_II", (1, 2, 4), (), (), (3,))]
    + [("B", I, S, (), ()) for I, S in
       [((1, 2), (3, 4)), ((1, 3), (2, 4)), ((1, 4), (2, 3)),
        ((2, 3), (1, 4)), ((2, 4), (1, 3)), ((3, 4), (1, 2))]]
    + [("B", (1, 2), (3,), (4,), ()), ("B", (1, 2), (4,), (3,), ()),
       ("B", (1, 3), (2,), (4,), ()), ("B", (2, 3), (1,), (4,), ()),
       ("B", (2, 3), (4,), (1,), ()), ("B", (2, 4), (3,), (1,), ()),
       ("B", (3, 4), (1,), (2,), ()), ("B", (3, 4), (2,), (1,), ()),
       ("B", (1, 3), (4,), (), (2,)), ("B", (1, 4), (2,), (), (3,)),
       ("B", (1, 4), (3,), (), (2,)), ("B", (2, 4), (1,), (), (3,))]
    + [("B", (1, 2), (), (3, 4), ()), ("B", (1, 3), (), (4,), (2,)),
       ("B", (1, 4), (), (), (2, 3)), ("B", (2, 3), (), (1, 4), ()),
       ("B", (2, 4), (), (1,), (3,)), ("B", (3, 4), (), (1, 2), ())]
    + [("C", (i,), (), (), ()) for i in (1, 2, 3, 4)]
    + [("D", (), (), (), ())]
)


def signature(skel):
    flat = lambda comps: tuple(sorted(t for c in comps for t in c))  # noqa: E731
    return (skel.family, skel.I, skel.S,
            flat(skel.T_circ), flat(skel.T_bullet))


def test_c2_table_regeneration(capsys):
    assert main(["tables", "3"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "tables_n3_paper.txt").read_text()

    assert main(["tables", "4", "--mode", "paper"]) == 0
    assert capsys.readouterr().out == (GOLDEN / "tables_n4_paper.txt").read_text()

    rows = generate_templates(4)
    assert len(rows) == 38
    assert sorted(signature(r) for r in rows) == sorted(PAPER_FOUR_GENERATOR_ROWS)

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
    from diffalg.templates import render_template
    rows5 = generate_templates(5)
    assert len(rows5) == 137
    by_sig = {signature(r): (i, r) for i, r in enumerate(rows5, 1)}
    rendered = [render_template(by_sig[s][1], by_sig[s][0]) for s in spots]
    assert "\n\n".join(rendered) + "\n" == \
        (GOLDEN / "tables_n5_spots.txt").read_text()


# -- criterion 3: witness verification -----------------------------------------------

def test_c3_witness_verification(capsys):
    start = time.monotonic()
    for name in ("p1.dalg", "p3.dalg", "b1.dalg", "p4.dalg"):
        rc = main(["verify-calculus", str(FIXTURES / name)])
        out = capsys.readouterr().out
        assert rc == 0, name
        check_lines = [l for l in out.splitlines() if l.startswith("check:")]
        n = 4 if name == "p1.dalg" else 3
        assert len(check_lines) == 6 + 2 * n, name
        assert all(l.endswith(": PASS") for l in check_lines), name
    assert time.monotonic() - start < 60


# -- criterion 4: closed partials against the positional recursion -------------------

@pytest.mark.parametrize("fixture", [
    "sym3", "p1",   # uniform interacting set
    "p3", "c4",     # single interacting index
    "b1", "b4x",    # interacting pair
    "p4", "d4",     # no interacting indices
])
def test_c4_partial_oracle_equivalence(fixture, request):
    P = request.getfixturevalue(fixture)
    nu = build_automorphisms(P)
    for expts in exponent_tuples(P.n, 4):
        p = ascending_product(expts, P)
        for a in range(1, P.n + 1):
            assert partial_derivative(a, p, nu, P) == \
                closed_partial_derivative(a, expts, nu, P), (expts, a)


# -- criterion 5: the no-go obstruction on every row with a T component --------------

def test_c5_no_go_rows_are_not_smooth():
    rows = [r for r in generate_templates(4) if r.T_circ or r.T_bullet]
    assert len(rows) == 22
    for skel in rows:
        P = instantiate_template(skel, generic_values(skel))
        verdict = decide_smoothness(P)
        assert verdict.verdict == "NotSmooth", signature(skel)
        ob = verdict.obstruction
        assert not ob.residual.is_zero()
        u, v = min(ob.i, ob.t), max(ob.i, ob.t)
        gamma = P.g(u, v)
        dt = Poly.generator(4, ob.t)
        assert ob.residual in (dt.scale(gamma), dt.scale(-gamma)), signature(skel)
        ansatz = verify_automorphisms(shift_ansatz(P), P)
        assert not ansatz.relations_preserved, signature(skel)


# -- criterion 6: the commutative limit ----------------------------------------------

def test_c6_commutative_sanity():
    P = build(3, {(i, j): 1 for i in range(1, 4) for j in range(1, 4)
                  if i != j}, {})
    rng = random.Random(4973)

    def random_poly():
        out = Poly.zero(3)
        for _ in range(rng.randint(1, 4)):
            expts = tuple(rng.randint(0, 3) for _ in range(3))
            out = out + Poly.monomial(3, expts, rational(rng.randint(-5, 5)))
        return out

    for _ in range(100):
        p, q = random_poly(), random_poly()
        assert multiply(p, q, P) == multiply(q, p, P)

    nu = build_automorphisms(P)
    for expts in exponent_tuples(3, 5):
        p = Poly.monomial(3, expts)
        for a in (1, 2, 3):
            k = expts[a - 1]
            if k == 0:
                expected = Poly.zero(3)
            else:
                lowered = tuple(e - 1 if b == a else e
                                for b, e in enumerate(expts, 1))
                expected = Poly.monomial(3, lowered, rational(k))
            assert partial_derivative(a, p, nu, P) == expected, (expts, a)

    verdict = decide_smoothness(P)
    assert verdict.verdict == "Smooth"
    assert verdict.theorem_case == "iv"


# -- criterion 7: the undetermined boundary ------------------------------------------

def test_c7_undetermined_boundary(c_nonuniform):
    verdict = decide_smoothness(c_nonuniform)
    assert verdict.verdict == "Undetermined"
    assert verdict.witness is None and verdict.obstruction is None
    assert verdict.notes == (
        "couplings to the interacting index take several values, but the "
        "known witness construction needs a single one",)
