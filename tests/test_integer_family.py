"""The twisting family as integer columns, against its ``Fraction`` table.

``AffineAutomorphismFamily`` stores ``nu_a(D_j) = (L D_j + M) / e`` as
canonical integer columns.  ``build_automorphisms`` and ``shift_ansatz``
fill them from the presentation's integer table, and the public constructor
converts a ``(lam, mu)`` table.  Here: both routes give equal families, with
one hash and one ``repr``, equal to a ``Fraction`` reference of the forced
family; a default ``smooth`` or ``verify-calculus`` op builds no
``Fraction``, on the B rows whose family has a ``-1`` diagonal (where
connectedness is sampled) too; ``smooth --degree-bound 3`` on p1 keeps a
pinned ``Fraction`` budget per module, and a twist builds one ``Fraction``
per term of its result; ``d`` and ``smooth --degree-bound 2`` print
on every fixture what ``tests/golden/fixture_calculus.txt`` holds; and one
digest pins ``d`` on those B rows and on high powers.
"""

import hashlib
import math
import random
import re
import sys
from fractions import Fraction

from diffalg.calculus import (AffineAutomorphismFamily, apply_automorphism,
                              build_automorphisms, nu_omega, nu_omega_inverse,
                              shift_ansatz)
from diffalg.classify import decompose, identify_family
from diffalg.cli import main
from diffalg.engine import Poly
from diffalg.forms import _transport
from diffalg.presentation import parse_presentation
from diffalg.smoothness import decide_smoothness, verify_witness
from diffalg.templates import TemplateError, generate_templates, instantiate_template

from conftest import FIXTURES, GOLDEN
from test_closed_form_checks import b_instance, has_minus_one_diagonal
from test_generators import _coupled_instance

HUGE = 10 ** 999 + 7  # 1000 digits, the literal cap


def forced_table(P):
    """The family ``build_automorphisms`` derives, over ``P.g`` and ``P.x``."""
    I = decompose(P).I  # noqa: E741
    table = []
    for a in range(1, P.n + 1):
        row = []
        for j in range(1, P.n + 1):
            if j != a:
                s, t = (a, j), (j, a)
            elif a in I and len(I) >= 2:
                o = min(i for i in I if i != a)
                s, t = (o, a), (a, o)
            else:
                row.append((Fraction(1), Fraction(0)))
                continue
            row.append((P.g(*s) / P.g(*t), -P.x(j) / P.g(*t)))
        table.append(tuple(row))
    return tuple(table)


def shift_table(P):
    """The family ``shift_ansatz`` builds: ``(1, -x_b / g)`` in every row."""
    g = identify_family(P, decompose(P)).params.get("g")
    scale = 1 / g if g not in (None, 0) else Fraction(1)
    row = tuple((Fraction(1), -scale * P.x(b)) for b in range(1, P.n + 1))
    return (row,) * P.n


def drawn(rng):
    return rng.choice((Fraction(rng.choice((1, 2, 3, 5)) * rng.choice((1, -1)),
                                rng.choice((1, 2, 3, 7))),
                       Fraction(HUGE, rng.choice((1, 3))), Fraction(-3, HUGE)))


def instances(rng):
    """Texts of seeded instances of every full row for n = 3..5, some x at
    0, some literal at 1000 digits, every ratio written over a negative
    denominator.  Case ii and iii couplings share one value, as
    ``_coupled_instance``'s do, so that more rows are Smooth."""
    for n in (3, 4, 5):
        for skel in generate_templates(n, "full"):
            shared = [f"g{s}" for s in skel.S] if skel.family == "B" else (
                [f"g{r}" for comp in skel.R_components for r in comp]
                if skel.family == "C" else [])
            for _ in range(100):
                values = {name: (Fraction(0) if name[0] == "x" and rng.random() < 0.3
                                 else drawn(rng)) for name in skel.params}
                if shared:
                    values.update(dict.fromkeys(shared, values[shared[0]]))
                try:
                    P = instantiate_template(skel, values)
                except TemplateError:
                    continue
                yield re.sub(r"= (-?\d+)/(\d+)$", lambda m: f"= {-int(m[1])}/-{m[2]}",
                             P.render(), flags=re.M)
                break


def canonical(cols):
    return all(e > 0 and math.gcd(L, M, e) == 1 for col in cols for L, M, e in col)


def test_both_constructors_give_one_family():
    forced = shifted = huge = mu_zero = negative = 0
    for text in instances(random.Random("integer-family")):
        P = parse_presentation(text)
        negative += "/-" in text
        verdict = decide_smoothness(P)
        if verdict.witness is not None:
            nu, table = verdict.witness, forced_table(P)
            forced += 1
        elif verdict.obstruction is not None:
            nu, table = shift_ansatz(P), shift_table(P)
            shifted += 1
        else:
            continue
        planted = AffineAutomorphismFamily(P.n, table)
        assert nu == planted and hash(nu) == hash(planted)
        assert repr(nu) == repr(planted) == (
            f"AffineAutomorphismFamily(n={P.n}, table={table!r})")
        assert nu.table == table and canonical(nu.cols)
        # an integral entry may be an int: equal values, one family
        ints = tuple(tuple((int(lam) if lam.denominator == 1 else lam, mu)
                           for lam, mu in row) for row in table)
        assert AffineAutomorphismFamily(P.n, ints) == nu
        if verdict.witness is not None:
            huge += any(abs(v.numerator) >= HUGE for row in table
                        for entry in row for v in entry)
            mu_zero += any(mu == 0 for row in table for _, mu in row)
    assert forced >= 50 and shifted >= 200 and negative >= 250
    assert huge >= 40 and mu_zero >= 40
    # families that differ in one entry differ
    changed = [list(row) for row in table]
    changed[0][1] = (changed[0][1][0], changed[0][1][1] + 1)
    assert AffineAutomorphismFamily(P.n, changed) != nu


def count_fractions(monkeypatch, run):
    """Module name -> Fractions built while ``run()`` runs, each credited
    to the first caller outside ``fractions`` and ``scalars``."""
    made = {}
    new = Fraction.__new__

    def counted(cls, *args, **kwargs):
        frame = sys._getframe(1)
        while frame.f_globals.get("__name__") in ("fractions", "diffalg.scalars"):
            frame = frame.f_back
        name = frame.f_globals.get("__name__")
        made[name] = made.get(name, 0) + 1
        return new(cls, *args, **kwargs)

    with monkeypatch.context() as patch:
        patch.setattr(Fraction, "__new__", counted)
        run()
    return made


def smooth_rows():
    """Smooth instances of every full row for n = 3..5."""
    for n in (3, 4, 5):
        rng = random.Random(f"no-fractions:{n}")
        for skel in generate_templates(n, "full"):
            P = _coupled_instance(skel, rng)
            verdict = decide_smoothness(P)
            if verdict.verdict == "Smooth":
                yield P, verdict.theorem_case


def minus_one_rows():
    """Smooth instances of the B rows for n = 3..5 at ``L = 2g``, whose
    witness has some ``lam_aa = -1``: there connectedness is sampled."""
    for n in (3, 4, 5):
        rng = random.Random(f"minus-one:{n}")
        for skel in generate_templates(n, "full"):
            P = b_instance(skel, rng) if skel.family == "B" else None
            if P is not None and decide_smoothness(P).verdict == "Smooth":
                yield P


def write_rows(rows, tmp_path, prefix):
    paths = []
    for index, P in enumerate(rows):
        path = tmp_path / f"{prefix}{index}.dalg"
        path.write_text(P.render())
        paths.append(path)
    return paths


def test_default_ops_build_no_fraction_in_calculus(monkeypatch, capsys, tmp_path):
    rows = list(smooth_rows())
    assert {case for _, case in rows} == {"i", "ii", "iii", "iv"}
    minus_one = list(minus_one_rows())
    assert {P.n for P in minus_one} == {3, 4, 5} and all(
        has_minus_one_diagonal(decide_smoothness(P).witness) for P in minus_one)
    paths = [FIXTURES / f"{name}.dalg" for name in ("p1", "p3", "p4", "b1")]
    paths += write_rows([P for P, _ in rows], tmp_path, "row")
    paths += write_rows(minus_one, tmp_path, "minus-one")
    assert len(paths) >= 60
    for path in paths:
        for command in ("smooth", "verify-calculus"):
            made = count_fractions(monkeypatch, lambda: main([command, str(path)]))
            assert "SMOOTH" in capsys.readouterr().out, path
            assert made == {}, (command, path, made)
    # the counter is live: the parameters as Fractions are built on demand
    fam = identify_family(minus_one[0], decompose(minus_one[0]))
    assert count_fractions(monkeypatch, lambda: fam.params).get("diffalg.classify")


def test_a_default_verify_composes_no_map(b1):
    """The certificates read the columns and one zero-``lam`` scan; the
    ``Fraction`` table and composed maps wait for ``d`` or a sample, and a
    composed map is kept as canonical integer columns, the ``Fraction``
    pairs of ``composed`` built from them on each call."""
    verdict = decide_smoothness(b1)
    nu = verdict.witness
    assert verify_witness(b1, verdict).ok
    assert set(nu._memo) == {"zero-lams"}
    composed = nu.composed((1, 2))
    assert composed == nu.composed((1, 2)) and set(nu._memo) == {"zero-lams", (1, 2)}
    cols = nu._memo[(1, 2)]
    assert canonical([cols]) and all(type(v) is int for col in cols for v in col)
    assert composed == {j: (Fraction(L, e), Fraction(M, e))
                        for j, (L, M, e) in enumerate(cols, start=1)}
    assert nu.table is nu.table and set(nu._memo) == {"zero-lams", "table", (1, 2)}


def test_a_sampled_run_keeps_its_fraction_budget(monkeypatch, capsys):
    """``smooth --degree-bound 3`` on p1, by module.  The twists and ``d``
    build one ``Fraction`` per term of each result (``calculus``); a merge
    factor is one ``Fraction`` from the integer columns (``forms``), and the
    products (``engine``) are the rest.  Before the twists read the family's
    integer rows, ``calculus`` built 13,257 here and ``forms`` 4,794; before
    the merge factors read the columns, 6,271 and 4,782 (one ``lam`` and one
    product per pair)."""
    made = count_fractions(monkeypatch, lambda: main(
        ["smooth", str(FIXTURES / "p1.dalg"), "--degree-bound", "3"]))
    assert "verdict: SMOOTH" in capsys.readouterr().out
    assert made == {"diffalg.calculus": 4495, "diffalg.engine": 6660,
                    "diffalg.forms": 1230}


def test_a_twist_builds_one_fraction_per_term(monkeypatch, b1):
    nu = build_automorphisms(b1)
    nu_map = nu.map_of(3)
    p = Poly.zero(3)
    for c, expts in enumerate(((0, 0, 0), (1, 0, 2), (3, 1, 0), (2, 2, 2), (0, 5, 1)),
                              start=1):
        p = p + Poly.monomial(3, expts, Fraction(c, 7 - c))
    twists = (lambda: apply_automorphism(nu_map, p, b1),
              lambda: nu_omega(p, nu, b1), lambda: nu_omega_inverse(p, nu, b1),
              lambda: _transport(p, (3, 1), nu, b1))
    for twist in twists:
        images = []
        made = count_fractions(monkeypatch, lambda: images.append(twist()))
        assert len(images[0].terms) > len(p.terms)
        assert made == {"diffalg.calculus": len(images[0].terms)}


COMMANDS = (("smooth", "--degree-bound", "2"), ("d", "D1 D2 + 3 D2"),
            ("d", "D1 D1 - D1"), ("d", "D2^3 D1 - 1/2 D3"))


def test_fixture_outputs_are_pinned(monkeypatch, capsys):
    monkeypatch.chdir(FIXTURES)
    parts = []
    for path in sorted(FIXTURES.glob("*.dalg")):
        for command, *rest in COMMANDS:
            argv = [command, path.name, *rest]
            try:
                rc = main(argv)
            except SystemExit as exc:
                rc = exc.code
            out, err = capsys.readouterr()
            parts.append(f"$ {' '.join(argv)}\n{out}"
                         + "".join(f"! {line}\n" for line in err.splitlines())
                         + f"exit {rc}\n")
    assert "\n".join(parts) == (GOLDEN / "fixture_calculus.txt").read_text()


D_DIGEST = "e3b75b461bef9c8e3ce7afd41bee1e0a4bd9a3a61a020592f4407deaa09a80f7"
D_EXPRESSIONS = ("D1^12", "D2 D1^5 D3^2", "D1 D1 - D1", "D3^4 D2^3 D1^2 - 2/3 D2",
                 "D1^60", "D3^25 D2^9 + D2^40 D1^30")


def test_d_on_minus_one_rows_and_high_powers_is_pinned(capsys, tmp_path):
    """``d`` on the B rows with a ``-1`` diagonal and on high powers, where an
    affine diagonal leaves a long geometric sum, by digest."""
    paths = [FIXTURES / f"{name}.dalg" for name in ("p1", "p3", "p4", "b1")]
    paths += write_rows(minus_one_rows(), tmp_path, "minus-one")
    digest = hashlib.sha256()
    for path in paths:
        for expr in D_EXPRESSIONS:
            rc = main(["d", str(path), expr])
            out = capsys.readouterr().out
            digest.update(f"d {path.name} {expr}\n{rc}\n{out}\0".encode())
    assert digest.hexdigest() == D_DIGEST
