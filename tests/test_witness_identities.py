"""The witness checks as integer identities, against the polynomial routes.

``calculus.verify_automorphisms`` decides relation preservation, pairwise
commutation and bijectivity, and ``calculus.leibniz_defects`` Leibniz
compatibility, from integer cross-products in the family's columns and the
relations' coefficients.  The oracles build polynomials:
``letter_by_letter_automorphisms`` maps every relation word letter by letter
through ``engine.multiply``, ``normal_form_automorphisms`` takes one
``engine.normal_form`` per pair, and ``d_combination_leibniz_defects``
applies the positional differential to each relation.  The whole
``AutomorphismReport`` must be equal, failure messages and their order
included.
"""

import random
import time

import pytest

from diffalg.calculus import (AffineAutomorphismFamily, build_automorphisms,
                              certify_expansion, check_integrating_form,
                              leibniz_defects, verify_automorphisms)
from diffalg.cli import main
from diffalg.scalars import rational

from conftest import (build, d_combination_leibniz_defects,
                      letter_by_letter_automorphisms,
                      normal_form_automorphisms)
from test_twist import WRONG_WITNESSES, fixture, perturb

VALUES = (1, -1, 2, -3, rational(3, 2), rational(-5, 7), rational(7, 9),
          rational(1, 3))


def random_table(rng, n):
    """A table with every g(u, v), u < v, nonzero: one shared g, x = 0, or
    random, some g(v, u) and x_i zero.  Not necessarily PBW."""
    kind = rng.choice(("uniform", "ratio", "random"))
    shared = rng.choice(VALUES)
    g, x = {}, {}
    for u in range(1, n + 1):
        for v in range(u + 1, n + 1):
            if kind == "uniform":
                g[u, v] = g[v, u] = shared
            else:
                g[u, v] = rng.choice(VALUES)
                g[v, u] = 0 if rng.random() < 0.2 else rng.choice(VALUES)
    for i in range(1, n + 1):
        if kind != "ratio" and rng.random() < 0.7:
            x[i] = rng.choice(VALUES)
    return build(n, g, x)


def forced_family(rng, P):
    """The family that d-compatibility forces, where it is defined, with
    random entries elsewhere, and then up to three entries perturbed:
    ``lam`` to 0, -1 or a random value, ``mu`` to a random nonzero value."""
    n = P.n
    rows = []
    for a in range(1, n + 1):
        row = []
        for j in range(1, n + 1):
            o = j if j != a else min(i for i in range(1, n + 1) if i != a)
            if j != a and P.g(j, a) != 0:
                row.append((P.g(a, j) / P.g(j, a), -P.x(j) / P.g(j, a)))
            elif j == a and P.g(a, o) != 0:
                row.append((P.g(o, a) / P.g(a, o), -P.x(a) / P.g(a, o)))
            else:
                row.append((rational(rng.choice(VALUES)), rational(rng.choice(VALUES))))
        rows.append(row)
    for _ in range(rng.choice((0, 0, 1, 1, 2, 3))):
        a, j = rng.randrange(n), rng.randrange(n)
        lam, mu = rows[a][j]
        if rng.random() < 0.5:
            lam = rational(rng.choice((0, -1, *VALUES)))
        else:
            mu = rational(rng.choice(VALUES))
        rows[a][j] = (lam, mu)
    return AffineAutomorphismFamily(n, tuple(tuple(row) for row in rows))


def assert_matches_oracles(nu, P):
    report = verify_automorphisms(nu, P)
    assert report == letter_by_letter_automorphisms(nu, P)
    assert report == normal_form_automorphisms(nu, P)
    defects = leibniz_defects(P, nu)
    assert defects == d_combination_leibniz_defects(P, nu)
    return report, defects


@pytest.mark.parametrize("n", [2, 3, 4, 5])
def test_random_families_match_the_polynomial_routes(n):
    rng = random.Random(1600 + n)
    seen = set()
    for _ in range(40 if n < 5 else 16):
        P = random_table(rng, n)
        nu = forced_family(rng, P)
        report, defects = assert_matches_oracles(nu, P)
        seen |= {("rel", report.relations_preserved),
                 ("comm", report.pairwise_commute),
                 ("bij", report.bijective), ("leib", not defects)}
    # both outcomes of every check occur, so no identity is left untested
    assert seen == {(check, ok) for check in ("rel", "comm", "bij", "leib")
                    for ok in (True, False)}


@pytest.mark.parametrize("name,a,j,slot,failing", WRONG_WITNESSES)
def test_wrong_witnesses_match_the_polynomial_routes(name, a, j, slot, failing):
    P = fixture(name)
    nu = perturb(build_automorphisms(P), a, j, slot)
    report, defects = assert_matches_oracles(nu, P)
    assert report.relations_preserved == ("REL" not in failing)
    assert report.pairwise_commute == ("COMM" not in failing)
    assert (not defects) == ("LEIB" not in failing)


@pytest.mark.parametrize("name", ["p1", "p3", "b1"])
def test_seeded_perturbations_match_the_polynomial_routes(name):
    P = fixture(name)
    forced = build_automorphisms(P)
    rng = random.Random(name)
    for _ in range(12):
        rows = [list(row) for row in forced.table]
        for _ in range(rng.choice((1, 2))):
            a, j = rng.randrange(P.n), rng.randrange(P.n)
            lam, mu = rows[a][j]
            rows[a][j] = (rational(rng.choice((0, -1, *VALUES))), mu) \
                if rng.random() < 0.5 else (lam, mu + rng.choice(VALUES))
        assert_matches_oracles(
            AffineAutomorphismFamily(P.n, tuple(map(tuple, rows))), P)


def test_repeated_breaking_maps_keep_every_message():
    # sym3: g = 2 everywhere, x = (1, 1, 1); its forced family shifts every
    # D_j by -1/2.  Here nu_1 and nu_2 also double every D_j, so both break
    # the same three relations, and nu_3 sends D1 to a constant.
    P = build(3, {(1, 2): 2, (2, 1): 2, (1, 3): 2, (3, 1): 2,
                  (2, 3): 2, (3, 2): 2}, {1: 1, 2: 1, 3: 1})
    one, half = rational(1), rational(-1, 2)
    wrong = tuple((rational(2), half) for _ in range(3))
    nu = AffineAutomorphismFamily(3, (
        wrong, wrong, ((rational(0), half), (one, half), (one, half))))
    report = verify_automorphisms(nu, P)
    assert report.failures == (
        "nu_3 sends D1 to a constant",
        "nu_1 breaks the relation of the pair (1,2)",
        "nu_1 breaks the relation of the pair (1,3)",
        "nu_1 breaks the relation of the pair (2,3)",
        "nu_2 breaks the relation of the pair (1,2)",
        "nu_2 breaks the relation of the pair (1,3)",
        "nu_2 breaks the relation of the pair (2,3)",
        "nu_3 breaks the relation of the pair (1,2)",
        "nu_3 breaks the relation of the pair (1,3)",
        "nu_1 and nu_3 disagree on D1 depending on order",
        "nu_1 and nu_3 disagree on D2 depending on order",
        "nu_1 and nu_3 disagree on D3 depending on order",
        "nu_2 and nu_3 disagree on D1 depending on order",
        "nu_2 and nu_3 disagree on D2 depending on order",
        "nu_2 and nu_3 disagree on D3 depending on order",
    )
    assert not (report.relations_preserved or report.pairwise_commute
                or report.bijective)
    assert report == letter_by_letter_automorphisms(nu, P)
    assert leibniz_defects(P, nu) == d_combination_leibniz_defects(P, nu) \
        == ((1, 2), (1, 3), (2, 3))


def test_long_numerator():
    big = rational(10 ** 999 - 1, 7)
    P = build(3, {(1, 2): big, (2, 1): 2, (1, 3): 3, (3, 1): big,
                  (2, 3): rational(-5, 7), (3, 2): 1}, {1: big, 3: 1})
    nu = forced_family(random.Random(0), P)
    assert_matches_oracles(nu, P)
    assert_matches_oracles(perturb(nu, 2, 1, "mu"), P)


def test_zero_leading_coefficient():
    # not a valid presentation: g(1, 2) = 0 leaves D1 D2 with no rule, and
    # the relation of (2, 3) is zero altogether
    P = build(3, {(2, 1): 3, (1, 3): 1, (3, 1): 2}, {1: 1})
    nu = forced_family(random.Random(1), P)
    with pytest.raises(ValueError, match=r"^zero leading coefficient g\(1, 2\)$"):
        verify_automorphisms(nu, P)
    # Leibniz needs no rewriting, so it still answers
    defects = leibniz_defects(P, nu)
    assert defects == d_combination_leibniz_defects(P, nu)
    assert (1, 2) in defects and (2, 3) not in defects


@pytest.mark.parametrize("zeros", [(), ((1, 3),), ((1, 2), (1, 3), (2, 3))])
def test_expansion_premise_read_once_per_family(zeros):
    # the premise, a zero lam_uj with u < j, is kept in the family's memo;
    # each certificate call must still raise exactly where the check does
    P = fixture("p3")
    rows = [list(row) for row in build_automorphisms(P).table]
    for u, j in zeros:
        rows[u - 1][j - 1] = (rational(0), rows[u - 1][j - 1][1])
    nu = AffineAutomorphismFamily(3, tuple(map(tuple, rows)))

    def outcome(run):
        try:
            return run()
        except ZeroDivisionError as exc:
            return type(exc)

    expected = [outcome(lambda: check_integrating_form(P, nu, k, 0, which="expand"))
                for k in range(4)]
    assert expected == ([True, ZeroDivisionError, ZeroDivisionError, True]
                        if zeros else [True] * 4)
    for _ in range(2):
        assert [outcome(lambda: certify_expansion(nu, k))
                for k in range(4)] == expected


def test_smooth_on_the_uniform_table_at_48(tmp_path, capsys):
    n = 48
    lines = [f"n = {n}"]
    lines += [f"g {i} {j} = 3/2" for i in range(1, n + 1)
              for j in range(1, n + 1) if i != j]
    lines += [f"x {i} = {rational((-1) ** i * i, 3)}" for i in range(1, n + 1)]
    path = tmp_path / "uniform48.dalg"
    path.write_text("\n".join(lines) + "\n", encoding="utf-8")
    start = time.perf_counter()
    code = main(["smooth", str(path)])
    elapsed = time.perf_counter() - start
    out = capsys.readouterr().out
    assert code == 0 and out.startswith("verdict: SMOOTH\n")
    assert "FAIL" not in out
    assert elapsed < 1.5, elapsed
