"""Independent cross-check oracle.

Everything in this file is deliberately written *without* importing the
package: plain ``fractions.Fraction`` scalars, polynomials as flat lists of
``(coefficient, word)`` pairs, and a fixpoint rewriter that scans for an
arbitrary (even randomised) increasing adjacent pair instead of recursing.
Agreement between this oracle and the package is therefore meaningful.

Run:  python3 tools/oracle.py
Exits nonzero if any check fails.
"""

from __future__ import annotations

import random
import sys
from fractions import Fraction as Q
from itertools import combinations, permutations

CHECKS = []


def check(name, got, want):
    ok = got == want
    CHECKS.append((name, ok))
    tag = "PASS" if ok else "FAIL"
    print(f"{tag}  {name}: got={got!r}" + ("" if ok else f" want={want!r}"))
    return ok


def check_true(name, cond, detail=""):
    CHECKS.append((name, bool(cond)))
    tag = "PASS" if cond else "FAIL"
    print(f"{tag}  {name}" + (f": {detail}" if detail and not cond else ""))
    return bool(cond)


# ----------------------------------------------------------------------------
# presentations: (n, g, x) with g a dict on ordered pairs, x a dict on indices
# ----------------------------------------------------------------------------

def pres(n, g, x):
    gg = {(i, j): Q(0) for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
    gg.update({k: Q(v) for k, v in g.items()})
    xx = {i: Q(0) for i in range(1, n + 1)}
    xx.update({k: Q(v) for k, v in x.items()})
    return (n, gg, xx)


# P1: four generators, I = {1,2,3} uniform, S = {4}
P1 = pres(4, {(1, 2): 1, (2, 1): 1, (1, 3): 1, (3, 1): 1, (2, 3): 1, (3, 2): 1,
              (1, 4): 2, (4, 1): 2, (2, 4): 2, (4, 2): 2, (3, 4): 2, (4, 3): 2},
          {1: 1, 2: 1, 3: 1})

# P1m: the non-confluent mutation (one interior pair bumped to 2)
P1m = pres(4, {(1, 2): 1, (2, 1): 1, (1, 3): 1, (3, 1): 1, (2, 3): 2, (3, 2): 2,
               (1, 4): 2, (4, 1): 2, (2, 4): 2, (4, 2): 2, (3, 4): 2, (4, 3): 2},
           {1: 1, 2: 1, 3: 1})

# P2: I = {1,2,3} with linear g_i = (1,2,3), one-sided links to 4
P2 = pres(4, {(1, 2): -1, (1, 3): -2, (2, 3): -1,
              (1, 4): 6, (2, 4): 7, (3, 4): 8},
          {1: 1, 2: 1, 3: 1})

# P3: three generators, I = {2}
P3 = pres(3, {(1, 2): 1, (2, 1): 2, (2, 3): 2, (3, 2): 1, (1, 3): 1, (3, 1): 1},
          {2: 1})

# P4: quantum affine 3-space (x = 0)
P4 = pres(3, {(1, 2): 1, (2, 1): 2, (1, 3): 1, (3, 1): 1, (2, 3): 1, (3, 2): 1},
          {})

# B1: two interacting generators 1 < 3 with middle bystander 2.
#   pair (1,3):  g = 3, g - L = 2   (L = 1)
#   pairs (1,2),(2,3): directed 5 / 4 pattern, x = (1, 0, 7)
B1 = pres(3, {(1, 3): 3, (3, 1): 2,
              (1, 2): 5, (2, 1): 4,
              (2, 3): 5, (3, 2): 4},
          {1: 1, 3: 7})


# ----------------------------------------------------------------------------
# flat fixpoint rewriter
# ----------------------------------------------------------------------------

def reduce_terms(P, terms, rng=None):
    """Reduce a list of (coeff, word) pairs to a normal-form dict.

    Repeatedly picks an increasing adjacent pair (the first one, or a random
    one when ``rng`` is given) and substitutes the defining relation.  No
    memoisation, no recursion: robustness against shared bugs.
    """
    n, g, x = P
    work = [(Q(c), tuple(w)) for c, w in terms]
    out = {}
    while work:
        c, w = work.pop()
        if c == 0:
            continue
        spots = [p for p in range(len(w) - 1) if w[p] < w[p + 1]]
        if not spots:
            key = tuple(w)
            out[key] = out.get(key, Q(0)) + c
            if out[key] == 0:
                del out[key]
            continue
        p = rng.choice(spots) if rng is not None else spots[0]
        i, j = w[p], w[p + 1]
        lead = g[(i, j)]
        if lead == 0:
            raise ZeroDivisionError(f"zero leading coefficient on pair ({i},{j})")
        pre, post = w[:p], w[p + 2:]
        # D_i D_j = (g_ji D_j D_i + x_j D_i - x_i D_j) / g_ij
        work.append((c * g[(j, i)] / lead, pre + (j, i) + post))
        if x[j] != 0:
            work.append((c * x[j] / lead, pre + (i,) + post))
        if x[i] != 0:
            work.append((-c * x[i] / lead, pre + (j,) + post))
    return out


def nf(P, terms, rng=None):
    return reduce_terms(P, terms, rng)


def poly_str(d):
    if not d:
        return "0"
    bits = []
    for w in sorted(d, key=lambda w: (len(w), w)):
        bits.append(f"{d[w]}*{''.join('D%d' % a for a in w) or '1'}")
    return " + ".join(bits)


def pmul(P, a, b):
    out = []
    for wa, ca in a.items():
        for wb, cb in b.items():
            out.append((ca * cb, wa + wb))
    return nf(P, out)


def padd(*ds):
    out = {}
    for d in ds:
        for w, c in d.items():
            out[w] = out.get(w, Q(0)) + c
            if out[w] == 0:
                del out[w]
    return out


def pscale(d, c):
    return {w: cc * Q(c) for w, cc in d.items()} if c else {}


def mono(*word):
    return {tuple(word): Q(1)}


def const(c):
    c = Q(c)
    return {(): c} if c else {}


# ----------------------------------------------------------------------------
# job 1: frozen reductions
# ----------------------------------------------------------------------------

print("-- reductions --")
check("P1 nf(D1 D2)", nf(P1, [(1, (1, 2))]), {(2, 1): Q(1), (1,): Q(1), (2,): Q(-1)})
check("P3 nf(D1 D2)", nf(P3, [(1, (1, 2))]), {(2, 1): Q(2), (1,): Q(1)})
check("P4 D1*D2", pmul(P4, mono(1), mono(2)), {(2, 1): Q(2)})

rng = random.Random(20260815)
ok = True
for trial in range(200):
    n = 4
    w = tuple(rng.randrange(1, n + 1) for _ in range(rng.randrange(0, 6)))
    a = nf(P1, [(1, w)])
    b = nf(P1, [(1, w)], rng)
    c = nf(P1, [(1, w)], rng)
    ok = ok and a == b == c
check_true("P1 random-order strategy independence (200 words)", ok)


# ----------------------------------------------------------------------------
# job 2: diamond behaviour
# ----------------------------------------------------------------------------

def oracle_confluent(P, a, b, c):
    """Compare two maximally different reduction disciplines on D_a D_b D_c."""
    left = nf(P, [(1, (a, b, c))])                      # always first ascent
    rng2 = random.Random(99)
    outs = {poly_str(nf(P, [(1, (a, b, c))], rng2)) for _ in range(20)}
    outs.add(poly_str(left))
    return len(outs) == 1


print("-- diamond --")
check_true("P1 all triples confluent",
           all(oracle_confluent(P1, a, b, c)
               for a, b, c in combinations(range(1, 5), 3)))
bad = [t for t in combinations(range(1, 5), 3) if not oracle_confluent(P1m, *t)]
check("P1-mutation failing triples", bad, [(1, 2, 3)])
check_true("P2 all triples confluent",
           all(oracle_confluent(P2, a, b, c)
               for a, b, c in combinations(range(1, 5), 3)))
check_true("B1 triple confluent", oracle_confluent(B1, 1, 2, 3))
check_true("P3 triple confluent", oracle_confluent(P3, 1, 2, 3))


# ----------------------------------------------------------------------------
# affine map machinery: nu[a][b] = (lam, mu) meaning nu_a(D_b) = lam*D_b + mu
# ----------------------------------------------------------------------------

def apply_map(P, m, poly):
    """Apply the multiplicative extension of the affine family m to poly."""
    out = const(0)
    for w, c in poly.items():
        acc = const(c)
        for a in w:
            lam, mu = m[a]
            acc = pmul(P, acc, padd(pscale(mono(a), lam), const(mu)))
        out = padd(out, acc)
    return out


def relation_poly(P, u, v):
    """g_uv D_u D_v - g_vu D_v D_u - x_v D_u + x_u D_v as raw terms."""
    n, g, x = P
    return padd(pscale(mono(u, v), g[(u, v)]), pscale(mono(v, u), -g[(v, u)]),
                pscale(mono(u), -x[v]), pscale(mono(v), x[u]))


def preserves_relations(P, fam):
    n, g, x = P
    for a in range(1, n + 1):
        for u, v in combinations(range(1, n + 1), 2):
            img = apply_map(P, fam[a], relation_poly(P, u, v))
            if nf(P, list(((c, w) for w, c in img.items()))):
                return False, (a, u, v)
    return True, None


def commute(P, fam):
    n = P[0]
    for a, b in combinations(range(1, n + 1), 2):
        for t in range(1, n + 1):
            ab = apply_map(P, fam[a], apply_map(P, fam[b], mono(t)))
            ba = apply_map(P, fam[b], apply_map(P, fam[a], mono(t)))
            if ab != ba:
                return False, (a, b, t)
    return True, None


def d_compatible(P, fam):
    """dD_u-coefficient and dD_v-coefficient of d(relation) must vanish."""
    n, g, x = P
    for u, v in combinations(range(1, n + 1), 2):
        lam_u, mu_u = fam[u][v]     # nu_u(D_v)
        lam_v, mu_v = fam[v][u]     # nu_v(D_u)
        r_u = padd(pscale(mono(v), g[(u, v)] - g[(v, u)] * lam_u),
                   const(-g[(v, u)] * mu_u - x[v]))
        r_v = padd(pscale(mono(u), g[(u, v)] * lam_v - g[(v, u)]),
                   const(g[(u, v)] * mu_v + x[u]))
        if r_u or r_v:
            return False, (u, v)
    return True, None


def fam_uniform(P, diag):
    """The shared off-diagonal rule nu_a(D_b) = (g_ab D_b - x_b)/g_ba."""
    n, g, x = P
    fam = {}
    for a in range(1, n + 1):
        fam[a] = {}
        for b in range(1, n + 1):
            if a == b:
                fam[a][b] = diag[a]
            else:
                fam[a][b] = (g[(a, b)] / g[(b, a)], -x[b] / g[(b, a)])
    return fam


# ----------------------------------------------------------------------------
# job 3: adjudicate the printed two-interacting-generator maps on B1
# ----------------------------------------------------------------------------

print("-- two-interacting-generator maps (B1: i=1, j=3, s=2) --")
n, g, x = B1
L = g[(1, 3)] - g[(3, 1)]          # 1
gg = g[(1, 3)]                     # 3
G = g[(1, 2)]                      # 5 (uniform bystander coefficient)

# printed family (as typeset)
printed = {
    1: {1: ((gg - L) / gg, -x[1] / gg),
        3: (gg / (gg - L), -x[3] / (gg - L)),
        2: (G / (G - L), Q(0))},
    3: {1: ((gg - L) / gg, -x[1] / gg),
        3: ((gg - L) / gg, -x[3] / gg),        # suspect
        2: (G / (G - L), Q(0))},               # suspect
    2: {1: ((G - L) / G, -x[1] / G),
        3: (G / (G - L), -x[3] / (G - L)),
        2: (Q(1), Q(0))},
}

# corrected family = uniform off-diagonal rule + forced diagonals
corrected = fam_uniform(B1, {1: ((gg - L) / gg, -x[1] / gg),
                             3: (gg / (gg - L), -x[3] / (gg - L)),
                             2: (Q(1), Q(0))})

okp, wherep = preserves_relations(B1, printed)
check_true("printed family breaks a relation", not okp,
           detail="unexpectedly preserves all")
print(f"      first breakage at (map, pair) = {wherep}")
okd, whered = d_compatible(B1, printed)
check_true("printed family fails d-compatibility", not okd)
print(f"      first failing pair = {whered}")

okc, wherec = preserves_relations(B1, corrected)
check_true("corrected family preserves all relations", okc, detail=str(wherec))
okc2, wherec2 = commute(B1, corrected)
check_true("corrected family commutes pairwise", okc2, detail=str(wherec2))
okc3, wherec3 = d_compatible(B1, corrected)
check_true("corrected family is d-compatible", okc3, detail=str(wherec3))

# the two disputed entries, shown explicitly
check("corrected nu_3(D_3)", corrected[3][3], (gg / (gg - L), -x[3] / (gg - L)))
check("corrected nu_3(D_2)", corrected[3][2], ((G - L) / G, Q(0)))


# ----------------------------------------------------------------------------
# job 4: the three fixture families
# ----------------------------------------------------------------------------

print("-- fixture families --")
fam1 = fam_uniform(P1, {1: (Q(1), Q(-1)), 2: (Q(1), Q(-1)), 3: (Q(1), Q(-1)),
                        4: (Q(1), Q(0))})
for name, P_, fam_ in (("P1", P1, fam1),):
    ok1, w1 = preserves_relations(P_, fam_)
    ok2, w2 = commute(P_, fam_)
    ok3, w3 = d_compatible(P_, fam_)
    check_true(f"{name} family relations/commute/d-compat",
               ok1 and ok2 and ok3, detail=str((w1, w2, w3)))

check("P1 nu_1(D_2)", fam1[1][2], (Q(1), Q(-1)))
check("P1 nu_4(D_1)", fam1[4][1], (Q(1), Q(-1, 2)))

# nu_omega = nu_1 o nu_2 o nu_3 o nu_4 applied to D_1
img = mono(1)
for a in (4, 3, 2, 1):
    img = apply_map(P1, fam1[a], img)
check("P1 nu_omega(D_1)", img, {(1,): Q(1), (): Q(-7, 2)})

fam3 = fam_uniform(P3, {1: (Q(1), Q(0)), 2: (Q(1), Q(0)), 3: (Q(1), Q(0))})
ok1, w1 = preserves_relations(P3, fam3)
ok2, w2 = commute(P3, fam3)
ok3, w3 = d_compatible(P3, fam3)
check_true("P3 family relations/commute/d-compat", ok1 and ok2 and ok3,
           detail=str((w1, w2, w3)))
check("P3 nu_2(D_1)", fam3[2][1], (Q(2), Q(0)))
check("P3 nu_1(D_2)", fam3[1][2], (Q(1, 2), Q(-1, 2)))

fam4 = fam_uniform(P4, {a: (Q(1), Q(0)) for a in (1, 2, 3)})
ok1, w1 = preserves_relations(P4, fam4)
ok2, w2 = commute(P4, fam4)
ok3, w3 = d_compatible(P4, fam4)
check_true("P4 family relations/commute/d-compat", ok1 and ok2 and ok3,
           detail=str((w1, w2, w3)))

# reciprocal scale factors hold in every verified family
for name, P_, fam_ in (("P1", P1, fam1), ("P3", P3, fam3), ("P4", P4, fam4),
                       ("B1", B1, corrected)):
    nn = P_[0]
    ok = all(fam_[a][b][0] * fam_[b][a][0] == 1
             for a, b in permutations(range(1, nn + 1), 2) if a != b)
    check_true(f"{name} scale factors satisfy lam_ab*lam_ba = 1", ok)


# ----------------------------------------------------------------------------
# job 5: independent first-order calculus
# ----------------------------------------------------------------------------

def partial(P, fam, b, poly):
    """dD_b-coefficient of d(poly), via Leibniz on each word.

    d(D_c1 ... D_ck) = sum_p dD_{c_p} . nu_{c_p}(D_c1 ... D_c{p-1}) D_c{p+1} ...
    """
    out = const(0)
    for w, c in poly.items():
        for p, gen in enumerate(w):
            if gen != b:
                continue
            pref = apply_map(P, fam[b], nf(P, [(1, w[:p])]))
            suff = nf(P, [(1, w[p + 1:])])
            out = padd(out, pscale(pmul(P, pref, suff), c))
    return out


print("-- first-order calculus --")
# On the word D_2 D_1 the generator D_1 sits last, so its prefix D_2 picks up
# the twist: coefficient of dD_1 is nu_1(D_2).
check("P1 partial_1(D_2 D_1)", partial(P1, fam1, 1, mono(2, 1)),
      {(2,): Q(1), (): Q(-1)})
check("P1 partial_2(D_2 D_1)", partial(P1, fam1, 2, mono(2, 1)),
      {(1,): Q(1)})
check("P3 partial_1(D_2^2 D_1)", partial(P3, fam3, 1, mono(2, 2, 1)),
      {(2, 2): Q(1, 4), (2,): Q(-1, 2), (): Q(1, 4)})
check("P4 partial_2(D_2 D_1)", partial(P4, fam4, 2, mono(2, 1)),
      {(1,): Q(1)})
check("P4 partial_2(D_1 D_2)", partial(P4, fam4, 2, mono(1, 2)),
      {(1,): Q(2)})

# partial applied to an arbitrary unreduced word agrees with partial applied
# to its normal form (well-definedness on the quotient)
ok = True
rngp = random.Random(13)
for P_, fam_ in ((P1, fam1), (P3, fam3), (P4, fam4), (B1, corrected)):
    nn = P_[0]
    for _ in range(40):
        w = tuple(rngp.randrange(1, nn + 1) for _ in range(rngp.randrange(0, 5)))
        p = nf(P_, [(1, w)])
        for b in range(1, nn + 1):
            if partial(P_, fam_, b, {w: Q(1)}) != partial(P_, fam_, b, p):
                ok = False
check_true("partial is well-defined on normal forms (4 algebras, raw words)", ok)

# twisted commutation of partials: partial_v partial_u = lam_uv partial_u partial_v
ok = True
rng = random.Random(7)
for P_, fam_ in ((P1, fam1), (P3, fam3), (P4, fam4), (B1, corrected)):
    nn = P_[0]
    for _ in range(25):
        w = tuple(rng.randrange(1, nn + 1) for _ in range(rng.randrange(0, 5)))
        p = nf(P_, [(1, w)])
        for u, v in combinations(range(1, nn + 1), 2):
            lhs = partial(P_, fam_, v, partial(P_, fam_, u, p))
            rhs = pscale(partial(P_, fam_, u, partial(P_, fam_, v, p)),
                         fam_[u][v][0])
            ok = ok and lhs == rhs
check_true("twisted commutation of partials (4 algebras, random words)", ok)

# closed form on increasing products D_1^{k_1} ... D_n^{k_n}:
#   partial_a = prod_{b<a} nu_a(D_b)^{k_b}
#             . sum_{m=0}^{k_a-1} nu_a(D_a)^m D_a^{k_a-1-m}
#             . prod_{b>a} D_b^{k_b}
# The middle sum collapses to k_a D_a^{k_a-1} only when nu_a fixes D_a.
def closed_partial(P, fam, a, expts):
    n_, g_, x_ = P
    k = dict(expts)
    if k.get(a, 0) == 0:
        return const(0)

    def affine(pair, gen):
        lam, mu = pair
        return padd(pscale(mono(gen), lam), const(mu))

    out = const(1)
    for b in range(1, a):
        for _ in range(k.get(b, 0)):
            out = pmul(P, out, affine(fam[a][b], b))
    nu_aa = affine(fam[a][a], a)
    block = const(0)
    twist = const(1)                       # nu_a(D_a)^m, m = 0, 1, ...
    for m in range(k[a]):
        term = twist
        for _ in range(k[a] - 1 - m):
            term = pmul(P, term, mono(a))
        block = padd(block, term)
        twist = pmul(P, twist, nu_aa)
    out = pmul(P, out, block)
    for b in range(a + 1, n_ + 1):
        for _ in range(k.get(b, 0)):
            out = pmul(P, out, mono(b))
    return out


ok = True
rng = random.Random(11)
for P_, fam_, nm in ((P1, fam1, "P1"), (P3, fam3, "P3"), (P4, fam4, "P4"),
                     (B1, corrected, "B1")):
    nn = P_[0]
    for _ in range(30):
        expts = {i: rng.randrange(0, 3) for i in range(1, nn + 1)}
        w = tuple(sum(([i] * expts[i] for i in range(1, nn + 1)), []))
        p = nf(P_, [(1, w)])
        for a in range(1, nn + 1):
            if partial(P_, fam_, a, p) != closed_partial(P_, fam_, a, expts):
                ok = False
                print(f"      mismatch {nm} a={a} expts={expts}")
check_true("closed partial formula on increasing products (4 algebras)", ok)

# closed form on decreasing words D_n^{k_n} ... D_1^{k_1}, the mirror of the
# above; every factor is a polynomial in one letter and they come in
# decreasing order, so the product is normal as it stands:
#   partial_a = prod_{b>a} nu_a(D_b)^{k_b}
#             . sum_{m=0}^{k_a-1} nu_a(D_a)^m D_a^{k_a-1-m}
#             . prod_{b<a} D_b^{k_b}
def closed_partial_decreasing(P, fam, a, expts):
    n_ = P[0]
    if expts[a] == 0:
        return const(0)

    def power(pair, gen, k):
        lam, mu = pair
        out = const(1)
        for _ in range(k):
            out = pmul(P, out, padd(pscale(mono(gen), lam), const(mu)))
        return out

    out = const(1)
    for b in range(n_, a, -1):
        out = pmul(P, out, power(fam[a][b], b, expts[b]))
    block = const(0)
    for m in range(expts[a]):
        block = padd(block, pmul(P, power(fam[a][a], a, m),
                                 power((Q(1), Q(0)), a, expts[a] - 1 - m)))
    out = pmul(P, out, block)
    for b in range(a - 1, 0, -1):
        out = pmul(P, out, power((Q(1), Q(0)), b, expts[b]))
    return out


ok = True
rng = random.Random(17)
for P_, fam_, nm in ((P1, fam1, "P1"), (B1, corrected, "B1")):
    nn = P_[0]
    # an affine diagonal: the block is a genuine geometric sum
    ok = ok and any(fam_[a][a][1] != 0 for a in range(1, nn + 1))
    for _ in range(6):
        expts = {i: rng.choice((0, 3, 4)) for i in range(1, nn + 1)}
        w = tuple(i for i in range(nn, 0, -1) for _ in range(expts[i]))
        for a in range(1, nn + 1):
            if partial(P_, fam_, a, {w: Q(1)}) != \
                    closed_partial_decreasing(P_, fam_, a, expts):
                ok = False
                print(f"      mismatch {nm} a={a} expts={expts}")
check_true("closed partial formula on decreasing words, exponents 3 and 4 "
           "(2 algebras, affine diagonals)", ok)

# the naive k_a prefactor is genuinely wrong once the diagonal twist is affine
check("P1 partial_1(D_1^2) has the telescoped constant",
      partial(P1, fam1, 1, mono(1, 1)), {(1,): Q(2), (): Q(-1)})


# ----------------------------------------------------------------------------
# job 6: obstruction residuals when one-sided links exist
# ----------------------------------------------------------------------------

print("-- obstruction residuals --")
# P2, i = 1 < t = 4: dD_1-coefficient of d(relation(1,4)) is g_14 D_4 (+ 0)
n2, g2, x2 = P2
res = padd(pscale(mono(4), g2[(1, 4)]), const(-x2[4]))
check("P2 residual for (i,t) = (1,4)", res, {(4,): Q(6)})

# shift family: nu_a(D_b) = D_b - K x_b with K = 1 (leading interior g = 1)
shift = {a: {b: (Q(1), -x2[b]) for b in range(1, 5)} for a in range(1, 5)}
okp, wherep = preserves_relations(P2, shift)
check_true("P2 shift family breaks a one-sided relation", not okp)
print(f"      first breakage at (map, pair) = {wherep}")
img = apply_map(P2, shift[1], relation_poly(P2, 1, 4))
check("P2 nu_1(relation(1,4)) normal form",
      nf(P2, [(c, w) for w, c in img.items()]), {(4,): Q(-6)})


# ----------------------------------------------------------------------------
# job 7: top form behaviour sanity (wedge scale bookkeeping)
# ----------------------------------------------------------------------------

print("-- wedge bookkeeping --")
# In degree 2 the module relations force dD_b ^ dD_a = -lam_ab dD_a ^ dD_b
# (a < b).  Check d(d(D_a D_b)) = 0 symbolically for P3 under that rule:
ok = True
for P_, fam_ in ((P1, fam1), (P3, fam3), (P4, fam4), (B1, corrected)):
    nn = P_[0]
    rngw = random.Random(3)
    for _ in range(20):
        w = tuple(rngw.randrange(1, nn + 1) for _ in range(rngw.randrange(0, 5)))
        p = nf(P_, [(1, w)])
        # d(dp) = sum_{u<v} (dD_u^dD_v) . (nu-twists) ... vanishing is
        # equivalent to: partial_v(partial_u(p)) - lam_uv partial_u(partial_v(p)) = 0
        for u, v in combinations(range(1, nn + 1), 2):
            lhs = padd(partial(P_, fam_, v, partial(P_, fam_, u, p)),
                       pscale(partial(P_, fam_, u, partial(P_, fam_, v, p)),
                              -fam_[u][v][0]))
            ok = ok and not lhs
check_true("d o d = 0 (as twisted-commutation residual, 4 algebras)", ok)


# ----------------------------------------------------------------------------
# job 8: orientation of the bystander coefficients when |I| = 2
# ----------------------------------------------------------------------------
# Two candidate coefficient patterns for a two-sided bystander s against the
# interacting pair i < j, each with the same parameter count (g_s, L):
#   sandwich: word D_i D_s carries g_s, word D_s D_i carries g_s - L,
#             word D_s D_j carries g_s, word D_j D_s carries g_s - L.
#   uniform:  the i-first and j-first words both carry g_s, both s-first
#             words carry g_s - L.
# They differ (for L != 0) precisely on the {j, s} pair.

def bystander(i, j, s, pattern, g=3, L=1, gs=5, xi=1, xj=7):
    gd = {(i, j): g, (j, i): g - L, (i, s): gs, (s, i): gs - L}
    if pattern == "sandwich":
        gd[(s, j)] = gs
        gd[(j, s)] = gs - L
    else:
        gd[(j, s)] = gs
        gd[(s, j)] = gs - L
    return pres(3, gd, {i: xi, j: xj})


print("-- bystander orientation --")
for where, (i, j, s) in (("below", (2, 3, 1)), ("between", (1, 3, 2)),
                         ("above", (1, 2, 3))):
    for pat, expect in (("sandwich", True), ("uniform", False)):
        got = oracle_confluent(bystander(i, j, s, pat), 1, 2, 3)
        check_true(f"bystander {where}: {pat} pattern "
                   f"{'confluent' if expect else 'not confluent'}",
                   got == expect)

# at L = 0 the two patterns coincide and both reduce to the symmetric case
check_true("bystander L=0 degenerate case confluent",
           oracle_confluent(bystander(1, 2, 3, "uniform", L=0), 1, 2, 3))


# ----------------------------------------------------------------------------
# job 9: linear-pattern one-sided restriction is stricter than needed
# ----------------------------------------------------------------------------
# Linear interacting coefficients g_i = (1,2,3) with a one-sided outlier whose
# constant equals g_1: the printed conditions exclude it, yet the rewriting
# stays confluent (the genuine constraint is only the nonzero lead g_i + c).
P2a = pres(4, {(1, 2): -1, (1, 3): -2, (2, 3): -1,
               (1, 4): 2, (2, 4): 3, (3, 4): 4},
           {1: 1, 2: 1, 3: 1})
print("-- one-sided constant equal to g_1 --")
check_true("outlier constant = g_1 still confluent (all triples)",
           all(oracle_confluent(P2a, a, b, c)
               for a, b, c in combinations(range(1, 5), 3)))


# ----------------------------------------------------------------------------
# job 10: the nine three-generator shapes and one breaking mutation each
# ----------------------------------------------------------------------------

NINE = [
    ("sym",
     pres(3, {(1, 2): 2, (2, 1): 2, (1, 3): 2, (3, 1): 2, (2, 3): 2, (3, 2): 2},
          {1: 1, 2: 1, 3: 1}),
     pres(3, {(1, 2): 2, (2, 1): 2, (1, 3): 2, (3, 1): 2, (2, 3): 4, (3, 2): 4},
          {1: 1, 2: 1, 3: 1})),
    ("linear",
     pres(3, {(1, 2): -1, (1, 3): -2, (2, 3): -1}, {1: 1, 2: 1, 3: 1}),
     pres(3, {(1, 2): -1, (2, 1): 1, (1, 3): -2, (2, 3): -1},
          {1: 1, 2: 1, 3: 1})),
    ("pair+betweener",
     B1,
     pres(3, {(1, 3): 3, (3, 1): 2, (1, 2): 5, (2, 1): 4, (2, 3): 6, (3, 2): 5},
          {1: 1, 3: 7})),
    ("pair+one-sided middle",
     pres(3, {(1, 3): 3, (3, 1): 2, (1, 2): 5, (2, 3): 4}, {1: 1, 3: 7}),
     pres(3, {(1, 3): 3, (3, 1): 2, (1, 2): 5, (2, 1): 1, (2, 3): 4},
          {1: 1, 3: 7})),
    ("pair+one-sided top",
     pres(3, {(1, 2): 3, (2, 1): 2, (1, 3): 5, (2, 3): 4}, {1: 1, 2: 1}),
     pres(3, {(1, 2): 3, (2, 1): 2, (1, 3): 5, (2, 3): 5}, {1: 1, 2: 1})),
    ("pair+one-sided bottom",
     pres(3, {(2, 3): 3, (3, 2): 2, (1, 2): 4, (1, 3): 5}, {2: 1, 3: 7}),
     pres(3, {(2, 3): 3, (3, 2): 2, (1, 2): 4, (1, 3): 6}, {2: 1, 3: 7})),
    ("single+linked rest",
     pres(3, {(1, 2): 5, (2, 1): 4, (1, 3): 7, (3, 1): 6, (2, 3): 3, (3, 2): 2},
          {1: 1}),
     pres(3, {(1, 2): 5, (2, 1): 4, (1, 3): 7, (3, 1): 5, (2, 3): 3, (3, 2): 2},
          {1: 1})),
    ("single+split rest",
     pres(3, {(1, 2): 5, (2, 1): 4, (1, 3): 7, (3, 1): 3, (2, 3): 1},
          {1: 1}),
     pres(3, {(1, 2): 5, (2, 1): 4, (1, 3): 7, (3, 1): 3, (2, 3): 1, (3, 2): 1},
          {1: 1})),
    ("pure q",
     pres(3, {(1, 2): 1, (2, 1): 2, (1, 3): 1, (3, 1): 5, (2, 3): 1, (3, 2): 3},
          {}),
     pres(3, {(1, 2): 1, (2, 1): 2, (1, 3): 1, (3, 1): 5, (2, 3): 1, (3, 2): 3},
          {2: 1})),
]

print("-- nine shapes + mutations --")
for nm, good, bad in NINE:
    check_true(f"{nm}: admissible instance confluent",
               oracle_confluent(good, 1, 2, 3))
    check_true(f"{nm}: mutated instance NOT confluent",
               not oracle_confluent(bad, 1, 2, 3))

# classical specialisation: all coefficients 1, x = 0, identity twists
P4c = pres(3, {(1, 2): 1, (2, 1): 1, (1, 3): 1, (3, 1): 1, (2, 3): 1, (3, 2): 1},
           {})
famc = fam_uniform(P4c, {a: (Q(1), Q(0)) for a in (1, 2, 3)})
check("commutative specialisation: partial_2(D_1 D_2^2)",
      partial(P4c, famc, 2, mono(1, 2, 2)), {(2, 1): Q(2)})


# ----------------------------------------------------------------------------
# job 11: the pair identity D_a^k D_b = D_b sigma(D_a)^k + Q_k(D_a)
# ----------------------------------------------------------------------------
# On a plane the relation gives D_1 D_2 = D_2 sigma(D_1) + Q_1(D_1) with
# sigma(t) = (g_21 t - x_1) / g_12 and Q_1(t) = x_2 t / g_12, and k steps give
# Q_k(t) = Q_1(t) * sum_{i<k} sigma(t)^i t^(k-1-i).  Both sides are built
# here as plain polynomials in one letter, by repeated products, and the
# word D_1^k D_2 goes through the flat rewriter.

def upoly_mul(p, q):
    out = {}
    for e, c in p.items():
        for f, d in q.items():
            out[e + f] = out.get(e + f, Q(0)) + c * d
    return out


def pair_identity(P, k):
    _, g, x = P
    lead = g[(1, 2)]
    sigma = {1: g[(2, 1)] / lead, 0: -x[1] / lead}
    power, geo = {0: Q(1)}, {}
    for i in range(k):  # geo: sum_{i<k} sigma^i t^(k-1-i); power: sigma^k
        for e, c in power.items():
            geo[e + k - 1 - i] = geo.get(e + k - 1 - i, Q(0)) + c
        power = upoly_mul(power, sigma)
    want = padd({(2,) + (1,) * e: c for e, c in power.items() if c},
                {(1,) * (e + 1): c * x[2] / lead for e, c in geo.items() if c * x[2]})
    return nf(P, [(1, (1,) * k + (2,))]) == want


print("-- pair identity --")
for nm, plane in (("q != 1", pres(2, {(1, 2): 3, (2, 1): 2}, {1: 1, 2: -2})),
                  ("q = 1", pres(2, {(1, 2): 2, (2, 1): 2}, {1: 1, 2: 3})),
                  ("zero swap", pres(2, {(1, 2): 2}, {1: 1, 2: 3})),
                  ("homogeneous", pres(2, {(1, 2): 1, (2, 1): 2}, {}))):
    check_true(f"{nm} plane: D1^k D2 = D2 sigma(D1)^k + Q_k(D1) for k <= 6",
               all(pair_identity(plane, k) for k in range(1, 7)))


# ----------------------------------------------------------------------------
failures = [nm for nm, okk in CHECKS if not okk]
print()
print(f"{len(CHECKS)} checks, {len(failures)} failures")
for nm in failures:
    print(f"  FAILED: {nm}")
sys.exit(1 if failures else 0)
