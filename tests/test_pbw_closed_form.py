"""The closed-form PBW decision against the fold and plain rewriting.

``engine.is_pbw`` decides each triple a < b < c from the six products in
the ``engine`` docstring and folds nothing.  Here every triple of seeded
random tables, of instantiated template rows and of their one-cell
perturbations is decided three ways: by the closed form, by
``diamond_check_triple`` (both sides folded) and by first- against
last-ascent rewriting, and all three must agree.
"""

import copy
import random
import time
from fractions import Fraction
from itertools import combinations

import pytest

from diffalg import engine
from diffalg.classify import identify_family
from diffalg.engine import diamond_check_triple, is_pbw
from diffalg.presentation import AlgebraPresentation
from diffalg.smoothness import decide_smoothness, verify_witness
from diffalg.templates import generate_templates

from test_cli import run
from test_pbw_table import FIRST, LAST, rewrite
from test_roundtrip import seeded_instance

SEEDS = range(60)
_LEADING = (1, -1, 2, Fraction(1, 2), 3)
# zero is common among the other cells, so that each of the six products
# has tables where only its linear factor can vanish and tables where it
# need not
_OTHER = (0, 0, 1, -1, 2, Fraction(1, 2))
_X = (0, 0, 0, 1, -1, Fraction(-2, 3))


def _random_table(seed: int) -> AlgebraPresentation:
    rng = random.Random(f"closed-form:{seed}")
    n = rng.randint(3, 6)
    g = {}
    for i in range(1, n + 1):
        for j in range(i + 1, n + 1):
            g[(i, j)] = Fraction(rng.choice(_LEADING))
            g[(j, i)] = Fraction(rng.choice(_OTHER))
    x = {i: Fraction(rng.choice(_X)) for i in range(1, n + 1)}
    return AlgebraPresentation(n, g, x)


def closed_form(P: AlgebraPresentation) -> dict:
    """Triple -> whether the closed form says it resolves."""
    g = dict(P.g_integers()[0])
    x = {i: bool(P.x(i)) for i in P.generators}
    return {t: engine._resolves(g, x, *t) for t in combinations(P.generators, 3)}


def folded(P: AlgebraPresentation) -> dict:
    """Triple -> whether its two folded sides agree."""
    return {t: diamond_check_triple(P, *t).confluent
            for t in combinations(P.generators, 3)}


def assert_agrees_with_the_fold(P: AlgebraPresentation, where=None) -> None:
    verdicts = closed_form(P)
    assert verdicts == folded(P), where
    failures = [t for t, ok in verdicts.items() if not ok]
    assert is_pbw(P) == engine.PBWReport(not failures, failures[0] if failures else None)


def test_random_triples_agree_with_the_fold_and_with_rewriting():
    confluent = total = 0
    for seed in SEEDS:
        P = _random_table(seed)
        verdicts = closed_form(P)
        for t, ok in verdicts.items():
            assert ok == diamond_check_triple(P, *t).confluent, (seed, t)
            assert ok == (rewrite(P, t, FIRST) == rewrite(P, t, LAST)), (seed, t)
        confluent += sum(verdicts.values())
        total += len(verdicts)
    assert total >= 300 and confluent >= 0.2 * total and confluent <= 0.8 * total


@pytest.mark.parametrize("seed", SEEDS)
def test_first_failure_is_the_first_triple_the_fold_rejects(seed):
    P = _random_table(seed)
    failures = [t for t, ok in folded(P).items() if not ok]
    assert is_pbw(P).first_failure == (failures[0] if failures else None)


def _perturbed(P: AlgebraPresentation, rng: random.Random) -> AlgebraPresentation:
    """P with one cell changed: a g(j,i) or an x(i) set to 0 or moved by 1,
    or a leading g(i,j) moved by 1 where that keeps it nonzero."""
    g = {(i, j): P.g(i, j) for i in P.generators for j in P.generators if i != j}
    x = {i: P.x(i) for i in P.generators}
    cells = list(g) + list(x)
    cell = cells[rng.randrange(len(cells))]
    table = g if isinstance(cell, tuple) else x
    old = table[cell]
    leading = isinstance(cell, tuple) and cell[0] < cell[1]
    choices = [old + 1, old - 1] if leading else [Fraction(0), old + 1, old - 1]
    table[cell] = rng.choice([v for v in choices if v != old and (v or not leading)])
    return AlgebraPresentation(P.n, g, x)


@pytest.mark.parametrize("n", [3, 4, 5])
def test_template_rows_are_pbw_and_their_perturbations_agree(n):
    rng = random.Random(f"closed-form rows:{n}")
    for index, skel in enumerate(generate_templates(n, "full"), start=1):
        P = seeded_instance(skel, rng)
        assert all(closed_form(P).values()), (n, index)
        assert is_pbw(P).pbw, (n, index)
        for _ in range(2):
            assert_agrees_with_the_fold(_perturbed(P, rng), (n, index))


def test_a_999_digit_numerator():
    big = Fraction(int("7" * 999), 3)
    g = {(i, j): big for i in range(1, 5) for j in range(1, 5) if i != j}
    x = {1: Fraction(1), 2: Fraction(-2), 3: Fraction(0), 4: big}
    uniform = AlgebraPresentation(4, g, x)
    assert is_pbw(uniform).pbw
    assert_agrees_with_the_fold(uniform)
    g[(3, 2)] = big + Fraction(1, 5)
    skewed = AlgebraPresentation(4, g, x)
    assert is_pbw(skewed).first_failure == (1, 2, 3)
    assert_agrees_with_the_fold(skewed)


def test_the_checks_leave_the_integer_table_alone():
    """``g_integers`` and ``x_ratios`` hand out the presentation's own
    tables; the PBW check, the classifier and a smoothness run read them
    and write nothing back."""
    smooth = 0
    for seed in SEEDS:
        P = _random_table(seed)
        before = copy.deepcopy((P.g_integers(), P.x_ratios()))
        report = is_pbw(P)
        identify_family(P)
        if report.pbw:
            verdict = decide_smoothness(P)
            if verdict.witness is not None:
                smooth += 1
                verify_witness(P, verdict)
        assert (P.g_integers(), P.x_ratios()) == before, seed
    assert smooth  # some tables reached the witness checks


def test_zero_leading_coefficient_is_refused():
    # an unvalidated presentation; the CLI refuses it before is_pbw runs
    g = {(1, 2): Fraction(1), (1, 3): Fraction(0), (2, 3): Fraction(0),
         (2, 1): Fraction(1), (3, 1): Fraction(1), (3, 2): Fraction(1)}
    P = AlgebraPresentation(3, g, {1: Fraction(1)})
    with pytest.raises(ValueError, match=r"^zero leading coefficient g\(1, 3\)$"):
        is_pbw(P)


def test_check_pbw_on_a_uniform_48_generator_table(capsys, tmp_path):
    n = 48
    lines = [f"n = {n}"]
    lines += [f"g {i} {j} = 3/2" for i in range(1, n + 1)
              for j in range(1, n + 1) if i != j]
    lines += [f"x {i} = {(-1) ** i * i}/3" for i in range(1, n + 1)]
    path = tmp_path / "uniform48.dalg"
    path.write_text("\n".join(lines) + "\n")
    start = time.monotonic()
    rc, out, err = run(capsys, "check-pbw", path)
    assert time.monotonic() - start < 1
    assert (rc, out, err) == (0, "pbw: true\n", "")


def test_equal_presentations_stay_equal_and_hash_alike():
    a, b, c = (_random_table(seed) for seed in (1, 1, 2))
    assert a is not b
    assert a == b and hash(a) == hash(b)
    assert a != c and len({a, b, c}) == 2
    assert a != "not a presentation"


def test_only_triples_that_meet_the_interacting_set_are_decided():
    # each of the six products has an x factor, so a triple with x = 0 on
    # all three indices resolves; is_pbw skips it and still reports what the
    # loop over every triple reports
    skipped = failing = 0
    for seed in range(150):
        rng = random.Random(f"meets-I:{seed}")
        n = rng.randint(3, 7)
        g = {(i, j): Fraction(rng.choice(_LEADING if i < j else _OTHER))
             for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
        x = {i: Fraction(rng.choice(_X)) for i in range(1, n + 1)
             if rng.random() < 0.4}
        P = AlgebraPresentation(n, g, x)
        verdicts = closed_form(P)
        first = next((t for t, ok in verdicts.items() if not ok), None)
        assert is_pbw(P) == engine.PBWReport(first is None, first), seed
        for t in verdicts:
            if not any(P.x(i) for i in t):
                assert verdicts[t] and diamond_check_triple(P, *t).confluent
                skipped += 1
        failing += first is not None
    assert skipped > 1000 and 30 < failing < 120
