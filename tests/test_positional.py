"""The direct positional differential against its free-word reference.

``conftest.d_combination`` adds exponents instead of multiplying, which is
exact on PBW monomials and on words of at most two letters.  Here it is
compared with ``conftest.free_word_differential``, which multiplies every
term out, on every pair relation and every word of length at most 2, over
seeded random tables (confluent or not) and random affine families, some of
whose twists send a generator to a constant.
"""

import random
from itertools import combinations, product

from diffalg.calculus import (AffineAutomorphismFamily, leibniz_defects,
                              no_go_residual)
from diffalg.engine import Poly, is_pbw
from diffalg.scalars import rational

from conftest import (build, d_combination, free_word_differential,
                      relation_combination)

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
    checked = 0
    for _ in range(TABLES):
        P = random_table(rng)
        nu = random_family(P.n, rng)
        kinds.add(is_pbw(P).pbw)
        zero_twists += sum(lam == 0 for row in nu.table for lam, _ in row)
        letters = range(1, P.n + 1)
        words = [()] + [(a,) for a in letters] + list(product(letters, repeat=2))
        combs = [{word: rational(rng.choice((1, -2, rational(3, 4))))}
                 for word in words]
        relations = {(u, v): relation_combination(P, u, v)
                     for u, v in combinations(letters, 2)}
        for comb in combs + list(relations.values()):
            assert d_combination(comb, nu, P) == \
                free_word_differential(comb, nu, P), (P, nu, comb)
            checked += 1

        expected = tuple(pair for pair, comb in relations.items()
                         if free_word_differential(comb, nu, P))
        assert leibniz_defects(P, nu) == expected, (P, nu)
        for i, t in product(letters, repeat=2):
            if i != t:
                comb = relations[(min(i, t), max(i, t))]
                reference = free_word_differential(comb, nu, P).get(
                    i, Poly.zero(P.n))
                assert no_go_residual(P, i, t, nu) == reference, (P, nu, i, t)
    assert kinds == {True, False}
    assert zero_twists > 0
    assert checked > 5000
