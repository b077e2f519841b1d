"""The closed-form readings of d on pair relations against the free-word
reference.

``calculus.leibniz_defects`` and ``calculus.no_go_residual`` read the
differential of each pair relation off the family's scalars.  Here they are
compared with ``conftest.free_word_differential``, which multiplies every
term of the positional sum out, over seeded random tables (confluent or not)
and random affine families, some of whose twists send a generator to a
constant.
"""

import random
from itertools import combinations, product

from diffalg.calculus import (AffineAutomorphismFamily, leibniz_defects,
                              no_go_residual)
from diffalg.engine import Poly, is_pbw
from diffalg.scalars import rational

from conftest import build, free_word_differential, relation_combination

TABLES = 240

LEADS = (1, 2, -1, 3, rational(1, 2))
TRAILS = (0, 0, 1, 2, -3, rational(1, 3))
XS = (0, 0, 1, -2, rational(1, 2))
LAMS = (0, 1, 1, 2, -1, rational(1, 2))
MUS = (0, 0, 1, -1, rational(3, 2))


def random_table(rng):
    n = rng.randint(2, 5)
    g = {}
    for u, v in combinations(range(1, n + 1), 2):
        g[(u, v)] = rng.choice(LEADS)
        g[(v, u)] = rng.choice(TRAILS)
    return build(n, g, {i: rng.choice(XS) for i in range(1, n + 1)})


def random_family(n, rng):
    table = tuple(tuple((rational(rng.choice(LAMS)), rational(rng.choice(MUS)))
                        for _ in range(n)) for _ in range(n))
    return AffineAutomorphismFamily(n, table)


def test_direct_differential_matches_free_word_reference():
    rng = random.Random("positional:d")
    kinds = set()
    zero_twists = 0
    for _ in range(TABLES):
        P = random_table(rng)
        nu = random_family(P.n, rng)
        kinds.add(is_pbw(P).pbw)
        zero_twists += sum(lam == 0 for row in nu.table for lam, _ in row)
        letters = range(1, P.n + 1)
        relations = {(u, v): free_word_differential(relation_combination(P, u, v), nu, P)
                     for u, v in combinations(letters, 2)}
        expected = tuple(pair for pair, d in relations.items() if d)
        assert leibniz_defects(P, nu) == expected, (P, nu)
        for i, t in product(letters, repeat=2):
            if i != t:
                reference = relations[(min(i, t), max(i, t))].get(i, Poly.zero(P.n))
                assert no_go_residual(P, i, t, nu) == reference, (P, nu, i, t)
    assert kinds == {True, False}
    assert zero_twists > 0
