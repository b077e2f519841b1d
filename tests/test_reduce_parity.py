"""``reduce`` output, pinned byte for byte over a seeded corpus.

One sha256 covers the exit code, stdout and stderr of ``reduce`` on seeded
tables with n = 2..5 (zero g(j,i) and x(i) are common, so many are not PBW)
and on every fixture, each with seeded words and combinations: short and long
random words, words whose monomials keep letters above the one being folded
in, powers of single letters and the cyclic words of the benchmark.  Any
change to a coefficient, a term's order or its rendering moves it.
"""

import hashlib
import random

from diffalg.cli import main
from diffalg.presentation import AlgebraPresentation

from conftest import FIXTURES
from test_pbw_table import _random_table

OUTPUT_DIGEST = "65b3a22fce4871b3576051b05ba8339a3c1ce02ab6d59eed89f87ebd1ea0e263"

TABLE_SEEDS = range(24)


def _word_text(word) -> str:
    return " ".join(f"D{a}" for a in word)


def _exprs(n: int, rng: random.Random) -> list:
    """Seeded expressions over n generators."""
    exprs = []
    for longest in (4, 8, 12):
        word = tuple(rng.randint(1, n) for _ in range(rng.randint(1, longest)))
        exprs.append(_word_text(word))
    # a decreasing prefix with upper letters, then letters that fold under it
    upper = sorted((rng.randint(2, n) for _ in range(rng.randint(2, 5))), reverse=True)
    lower = [rng.randint(1, n) for _ in range(rng.randint(3, 7))]
    exprs.append(_word_text(upper + lower))
    exprs.append(f"D1^{rng.randint(2, 6)} D{n}^{rng.randint(2, 6)}")
    exprs.append(_word_text(tuple(range(1, n + 1)) * rng.randint(2, 3)))
    terms = [f"{rng.randint(1, 9)}/{rng.randint(1, 4)} "
             + _word_text(tuple(rng.randint(1, n) for _ in range(rng.randint(0, 6))))
             for _ in range(3)]
    exprs.append(" - ".join(terms))
    return exprs


def _inputs(tmp_path):
    """(name, path, expressions) of the seeded tables, then of every fixture."""
    for seed in TABLE_SEEDS:
        P = _random_table(10_000 + seed)
        name = f"table{seed}.dalg"
        path = tmp_path / name
        path.write_text(P.render(), encoding="utf-8")
        yield name, path, _exprs(P.n, random.Random(f"reduce-digest:{seed}"))
    plane = AlgebraPresentation(2, {(1, 2): 3, (2, 1): -2}, {1: 1, 2: 2})
    path = tmp_path / "plane.dalg"
    path.write_text(plane.render(), encoding="utf-8")
    yield "plane.dalg", path, ["D1^9 D2^9", "D2 D1^7 D2^5 D1 D2", "D1 D2 D1 D2 D1 D2"]
    for path in sorted(FIXTURES.glob("*.dalg")):
        yield path.name, path, ["D1 D2", "D1 D2 D1 D2 D1", "D1^3 D2^2 + 1/2 D2 D1"]


def test_reduce_output_digest_is_pinned(capsys, tmp_path):
    digest = hashlib.sha256()
    runs = 0
    for name, path, exprs in _inputs(tmp_path):
        for expr in exprs:
            rc = main(["reduce", str(path), expr])
            captured = capsys.readouterr()
            err = captured.err.replace(str(path), name)
            digest.update(f"reduce {name} {expr}\n{rc}\n{captured.out}\0{err}\0".encode())
            runs += 1
    assert runs == 7 * len(TABLE_SEEDS) + 3 + 3 * len(list(FIXTURES.glob("*.dalg")))
    assert digest.hexdigest() == OUTPUT_DIGEST
