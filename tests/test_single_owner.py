"""Each fact of a smoothness run is decided once, by one owner.

``decide_smoothness`` is the only PBW check of a ``smooth``,
``verify-calculus`` or ``d`` op, and its ``NotPbwError`` names the failing
triple the CLI prints before anything is classified; its verdict carries
the decomposition and family identification the CLI prints; a NotSmooth
verdict's obstruction carries the shift family the CLI verifies, so the
family is built once.  (``no_go_residual`` in closed form is compared with
the positional differential in ``test_positional.py``.)  Also here: the
connectedness certificate's one premise, a reader that closes the pipe
early, and the presentation as the one owner of its integer relations: a
``smooth`` op builds no engine context, and ``build_automorphisms`` reads
the integer table.
"""

import os
import random
import subprocess
import sys
from itertools import combinations
from pathlib import Path

import pytest

import diffalg
from diffalg import calculus, classify, engine
from diffalg.calculus import (AffineAutomorphismFamily, certify_connectedness,
                              check_connectedness, no_go_residual)
from diffalg.cli import main
from diffalg.engine import is_pbw
from diffalg.presentation import AlgebraPresentation
from diffalg.scalars import rational
from diffalg.smoothness import NotPbwError, SmoothnessError, decide_smoothness

from conftest import FIXTURES, build

SRC = Path(__file__).resolve().parents[1] / "src"

LAMS = (0, 1, 2, rational(1, 2), 3)  # no -1
MUS = (0, 0, 1, -1, rational(3, 2))


def random_family(n, rng):
    table = tuple(tuple((rational(rng.choice(LAMS)), rational(rng.choice(MUS)))
                        for _ in range(n)) for _ in range(n))
    return AffineAutomorphismFamily(n, table)


def count_calls(monkeypatch, owner, name):
    """Wrap ``owner.name`` wherever a ``diffalg`` module binds it; a list
    that gets one entry per call."""
    original = getattr(owner, name)
    calls = []

    def counted(*args, **kwargs):
        calls.append(args)
        return original(*args, **kwargs)

    for module in list(sys.modules.values()):
        if (getattr(module, "__name__", "").startswith("diffalg")
                and getattr(module, name, None) is original):
            monkeypatch.setattr(module, name, counted)
    return calls


FIXTURE_FILES = sorted(p.name for p in FIXTURES.glob("*.dalg")
                       if p.name not in ("malformed.dalg",))
OPS = (("smooth",), ("verify-calculus",), ("d", "D1 D2 + 3 D2"))


@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_one_pbw_check_and_one_shift_family_per_op(monkeypatch, capsys, name):
    pbw_calls = count_calls(monkeypatch, engine, "is_pbw")
    ansatz_calls = count_calls(monkeypatch, calculus, "shift_ansatz")
    for command, *rest in OPS:
        del pbw_calls[:], ansatz_calls[:]
        main([command, str(FIXTURES / name), *rest])
        out = capsys.readouterr().out
        assert len(pbw_calls) == 1, (command, name)
        not_smooth = "verdict: NOT-SMOOTH" in out
        assert len(ansatz_calls) == (1 if not_smooth else 0), (command, name)


def test_not_pbw_refusal_names_the_triple(p1m, capsys):
    with pytest.raises(NotPbwError) as info:
        decide_smoothness(p1m)
    assert isinstance(info.value, SmoothnessError)
    assert info.value.triple == is_pbw(p1m).first_failure == (1, 2, 3)
    assert str(info.value) == ("the ordered monomials are not a basis: the "
                               "triple (1,2,3) reduces ambiguously")
    assert diffalg.NotPbwError is NotPbwError
    path = str(FIXTURES / "nonpbw.dalg")
    outs = []
    for argv in (["check-pbw", path], ["smooth", path],
                 ["verify-calculus", path], ["d", path, "D1"]):
        assert main(argv) == 1
        outs.append(capsys.readouterr())
    assert len({o.out for o in outs}) == 1 and outs[0].out.startswith("pbw: false\n")
    assert all(o.err == "" for o in outs)


def test_a_non_pbw_table_is_refused_before_it_is_classified(monkeypatch, capsys):
    decompositions = count_calls(monkeypatch, classify, "decompose")
    identifications = count_calls(monkeypatch, classify, "identify_family")
    nonpbw = str(FIXTURES / "nonpbw.dalg")
    for argv in (["smooth", nonpbw], ["verify-calculus", nonpbw], ["d", nonpbw, "D1"]):
        assert main(argv) == 1
        assert capsys.readouterr().out == "pbw: false\ntriple: 1 2 3\n"
    assert decompositions == [] and identifications == []
    # a PBW table is classified once, and the verdict carries what it used
    assert main(["smooth", str(FIXTURES / "p1.dalg")]) == 0
    capsys.readouterr()
    assert len(decompositions) == len(identifications) == 1
    verdict = decide_smoothness(*decompositions[0])
    assert verdict.decomposition == classify.decompose(*decompositions[0])
    assert verdict.identification.family == "A_I"


def test_obstruction_carries_the_family_it_used(p2):
    verdict = decide_smoothness(p2)
    ob = verdict.obstruction
    assert verdict.verdict == "NotSmooth"
    assert ob.family == calculus.shift_ansatz(p2)
    assert ob.residual == no_go_residual(p2, ob.i, ob.t, ob.family)
    # the family takes no part in equality
    row = ((rational(2), rational(0)),) * p2.n
    other = AffineAutomorphismFamily(p2.n, (row,) * p2.n)
    assert other != ob.family
    assert ob == type(ob)(ob.i, ob.t, ob.residual, other)


def test_connectedness_certificate_needs_only_the_diagonal():
    # no lam_aa = -1, some lam_aj = 0 above the diagonal: certified, and the
    # monomial sample agrees
    rng = random.Random("single-owner:connected")
    upper_zeros = 0
    for _ in range(60):
        n = rng.randint(2, 3)
        P = build(n, {(u, v): 1 for u in range(1, n + 1)
                      for v in range(1, n + 1) if u != v}, {})
        nu = random_family(n, rng)
        upper_zeros += any(nu.lam(a, j) == 0
                           for a, j in combinations(range(1, n + 1), 2))
        assert certify_connectedness(nu) is True
        assert check_connectedness(P, nu, 3) is True, nu
    assert upper_zeros > 10


def test_a_closed_pipe_ends_quietly():
    proc = subprocess.Popen(
        [sys.executable, "-m", "diffalg.cli", "tables", "6", "--mode", "full"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": str(SRC)})
    assert proc.stdout.readline() == b"n: 6\n"
    proc.stdout.close()
    err = proc.stderr.read()
    assert proc.wait(timeout=60) == 1
    assert err == b""


@pytest.mark.parametrize("name", FIXTURE_FILES)
def test_smooth_builds_no_engine_context(monkeypatch, capsys, name):
    """The witness checks read the presentation's own relations: a
    ``smooth`` op rewrites nothing, so it needs no engine context."""
    built = []

    class Counted(engine._Context):
        def __init__(self, P):
            built.append(P.n)
            super().__init__(P)

    monkeypatch.setattr(engine, "_Context", Counted)
    before = dict(engine._contexts)
    main(["smooth", str(FIXTURES / name)])
    capsys.readouterr()
    assert built == [] and engine._contexts == before


def test_build_automorphisms_reads_only_the_integer_table(monkeypatch, p1, b1):
    """Its entries come from ``g_integers`` and ``x_ratios``: no coefficient
    is read back as a Fraction and divided."""
    tables = [p1, b1]
    rng = random.Random("integer-table")
    for _ in range(20):
        n = rng.randint(2, 4)
        g = {(i, j): rational(rng.choice((1, 2, -3)), rng.choice((1, 2, 5)))
             for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
        x = {i: rational(rng.randint(-2, 2), rng.randint(1, 3)) for i in range(1, n + 1)}
        tables.append(AlgebraPresentation(n, g, x))
    # the classifier reads x as Fractions, so it runs before the count
    inputs = [(P, classify.decompose(P)) for P in tables]
    inputs = [(P, dec, classify.identify_family(P, dec)) for P, dec in inputs]
    calls = []
    for name in ("g", "x"):
        original = getattr(AlgebraPresentation, name)
        monkeypatch.setattr(AlgebraPresentation, name,
                            lambda P, *key, _f=original: calls.append(key) or _f(P, *key))
    built = 0
    for P, dec, fam in inputs:
        try:
            calculus.build_automorphisms(P, dec, fam)
            built += 1
        except calculus.CalculusError:
            pass
    assert calls == [] and built > 2
