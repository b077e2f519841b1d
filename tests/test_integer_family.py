"""The twisting family as integer columns, against its ``Fraction`` table.

``AffineAutomorphismFamily`` stores ``nu_a(D_j) = (L D_j + M) / e`` as
canonical integer columns.  ``build_automorphisms`` and ``shift_ansatz``
fill them from the presentation's integer table, and the public constructor
converts a ``(lam, mu)`` table.  Here: both routes give equal families, with
one hash and one ``repr``, equal to a ``Fraction`` reference of the forced
family; a default ``smooth`` or ``verify-calculus`` op builds no
``Fraction`` in ``calculus``; and ``d`` and ``smooth --degree-bound 2``
print on every fixture what ``tests/golden/fixture_calculus.txt`` holds.
"""

import math
import random
import re
import sys
from fractions import Fraction

from diffalg.calculus import (AffineAutomorphismFamily, build_automorphisms,
                              shift_ansatz)
from diffalg.classify import decompose, identify_family
from diffalg.cli import main
from diffalg.presentation import parse_presentation
from diffalg.smoothness import decide_smoothness, verify_witness
from diffalg.templates import TemplateError, generate_templates, instantiate_template

from conftest import FIXTURES, GOLDEN
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


def closed_form_rows():
    """Smooth instances of every full row for n = 3..5 whose witness has no
    ``lam_aa = -1``: there connectedness is sampled, on ``Fraction``s."""
    for n in (3, 4, 5):
        rng = random.Random(f"no-fractions:{n}")
        for skel in generate_templates(n, "full"):
            P = _coupled_instance(skel, rng)
            verdict = decide_smoothness(P)
            if verdict.verdict == "Smooth" and not any(
                    verdict.witness.lam(a, a) == -1 for a in range(1, n + 1)):
                yield P, verdict.theorem_case


def test_default_ops_build_no_fraction_in_calculus(monkeypatch, capsys, tmp_path):
    paths = [FIXTURES / f"{name}.dalg" for name in ("p1", "p3", "p4", "b1")]
    cases = set()
    for index, (P, case) in enumerate(closed_form_rows()):
        path = tmp_path / f"row{index}.dalg"
        path.write_text(P.render())
        paths.append(path)
        cases.add(case)
    assert cases == {"i", "ii", "iii", "iv"} and len(paths) >= 50
    for path in paths:
        for command in ("smooth", "verify-calculus"):
            made = count_fractions(monkeypatch, lambda: main([command, str(path)]))
            assert "SMOOTH" in capsys.readouterr().out, path
            assert "diffalg.calculus" not in made, (command, path, made)
            assert made.get("diffalg.classify"), made  # the counter is live


def test_a_default_verify_composes_no_map(b1):
    """The certificates read the columns and one zero-``lam`` scan; the
    ``Fraction`` table and composed maps wait for ``d`` or a sample."""
    verdict = decide_smoothness(b1)
    nu = verdict.witness
    assert verify_witness(b1, verdict).ok
    assert set(nu._memo) == {"zero-lams"}
    assert nu.composed((1, 2)) is nu.composed((1, 2))
    assert nu.table is nu.table and set(nu._memo) == {"zero-lams", "table", (1, 2)}


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
