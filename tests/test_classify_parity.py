"""``classify``, ``check-pbw`` and ``smooth`` output, pinned byte for byte,
and ``identify_family`` against the whole-row oracle.

One sha256 covers the exit code, stdout and stderr of both commands on every
fixture (the malformed, inconsistent and non-PBW ones included) and on two
seeded instances of every full template row for n = 3 and 4.  Any change to
a classify line, a parameter, a violation's text or its order moves it.
Another covers ``smooth`` on the same row instances, whose verdicts rest on
the identified family and its parameters.
On the same inputs a ``classify`` op builds no ``Fraction``: the parameters
stay integer ratios until they are printed.

``identify_family`` reads only the pattern cells; ``conftest`` keeps the
version that built the whole named row and solved it in ``Fraction``s.  Both
must give the same family, the same parameters in the same order and the
same violations, on every full row for n = 3..5, on a seeded sample of
the rows for n = 6, and on copies with one coefficient changed, which are
mostly inconsistent.
"""

import hashlib
import random

import pytest

from diffalg.classify import decompose, identify_family
from diffalg.cli import main
from diffalg.presentation import AlgebraPresentation
from diffalg.scalars import rational
from diffalg.templates import generate_templates

from conftest import FIXTURES, whole_row_identify_family
from test_integer_family import count_fractions
from test_roundtrip import seeded_instance

OUTPUT_DIGEST = "64843bd2c7beaf54aa7c57a4291d85025f20fdf0993d3b25e1c40d792cb3128b"
SMOOTH_DIGEST = "bde6db82e3f1ee7e740b6b5ee796195eb3b6ee32826f725cf712659648b31254"


def _inputs(tmp_path):
    """(name, path) of every fixture, then of the seeded row instances."""
    for path in sorted(FIXTURES.glob("*.dalg")):
        yield path.name, path
    yield from _row_inputs(tmp_path)


def _row_inputs(tmp_path):
    """(name, path) of two seeded instances of every full row for n = 3, 4."""
    for n in (3, 4):
        rng = random.Random(f"classify-digest:{n}")
        for index, skel in enumerate(generate_templates(n, "full"), start=1):
            for copy in (1, 2):
                name = f"n{n}-row{index}-{copy}.dalg"
                path = tmp_path / name
                path.write_text(seeded_instance(skel, rng).render(), encoding="utf-8")
                yield name, path


def test_classify_and_check_pbw_output_digest_is_pinned(capsys, tmp_path):
    digest = hashlib.sha256()
    runs = 0
    for name, path in _inputs(tmp_path):
        for command in ("classify", "check-pbw"):
            rc = main([command, str(path)])
            captured = capsys.readouterr()
            err = captured.err.replace(str(path), name)
            digest.update(f"{command} {name}\n{rc}\n{captured.out}\0{err}\0".encode())
            runs += 1
    assert runs == 2 * (9 + 2 * (19 + 79))
    assert digest.hexdigest() == OUTPUT_DIGEST


def test_smooth_output_digest_is_pinned(capsys, tmp_path):
    digest = hashlib.sha256()
    runs = 0
    for name, path in _row_inputs(tmp_path):
        rc = main(["smooth", str(path)])
        captured = capsys.readouterr()
        err = captured.err.replace(str(path), name)
        digest.update(f"smooth {name}\n{rc}\n{captured.out}\0{err}\0".encode())
        runs += 1
    assert runs == 2 * (19 + 79)
    assert digest.hexdigest() == SMOOTH_DIGEST


def test_a_classify_op_builds_no_fraction(monkeypatch, capsys, tmp_path):
    for name, path in _inputs(tmp_path):
        made = count_fractions(monkeypatch, lambda: main(["classify", str(path)]))
        assert made == {}, (name, made)
    capsys.readouterr()


# values a perturbed coefficient takes: zeros, signs, halves, and clashes
# with the common values of the seeded rows
PERTURBED = tuple(rational(v) for v in (0, 0, 1, -1, 2, -3)) + (
    rational(1, 2), rational(-3, 4), rational(5, 3))


def _perturbed(P, rng):
    """A copy of ``P`` with one g or x coefficient replaced."""
    g = {(i, j): P.g(i, j) for i in P.generators for j in P.generators if i != j}
    x = {i: P.x(i) for i in P.generators}
    if rng.random() < 0.8:
        pair = rng.choice(sorted(g))
        g[pair] = rng.choice(PERTURBED + (g[pair] * 2, -g[pair]))
    else:
        i = rng.choice(sorted(x))
        x[i] = rng.choice(PERTURBED)
    return AlgebraPresentation(P.n, g, x)


def _assert_same(P, where):
    dec = decompose(P)
    got, want = identify_family(P, dec), whole_row_identify_family(P, dec)
    assert got.family == want.family, where
    assert list(got.params.items()) == list(want.params.items()), where
    assert got.violations == want.violations, where
    return got


# rows of each size checked against the oracle: all of them up to n = 5, a
# seeded sample of the 1820 at n = 6
SAMPLED = {6: 150}


@pytest.mark.parametrize("n", (3, 4, 5, 6))
def test_identify_family_matches_the_whole_row_oracle(n):
    rng = random.Random(f"classify-oracle:{n}")
    rows = list(enumerate(generate_templates(n, "full"), start=1))
    if n in SAMPLED:
        rows = rng.sample(rows, SAMPLED[n])
    inconsistent = 0
    for index, skel in rows:
        P = seeded_instance(skel, rng)
        assert _assert_same(P, (n, index)).family == skel.family
        for copy in range(3):
            fam = _assert_same(_perturbed(P, rng), (n, index, copy))
            inconsistent += not fam.consistent
    assert inconsistent > len(rows)
