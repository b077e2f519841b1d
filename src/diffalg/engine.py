"""PBW normal forms and Diamond-Lemma confluence checking.

The normal-form basis consists of ordered monomials with (weakly) decreasing
generator indices, D_n^{k_n} ... D_1^{k_1}, encoded as exponent tuples
(k_1, ..., k_n).  The only rewritable pattern in a word is an adjacent
increasing pair D_a D_b (a < b), which is replaced using the defining relation

    D_a D_b  ->  q D_b D_a + (x(b)/g(a,b)) D_a - (x(a)/g(a,b)) D_b,   q = g(b,a)/g(a,b).

Normal forms are those of first-ascent rewriting, computed without rewriting
words.  First-ascent rewriting of X.Y never touches Y before X is normal, so
the normal form of w_1 ... w_k is the left fold that starts from 1 and
replaces each monomial m by R[(m, w_i)] = normal form of m D_{w_i}, letter
by letter, on every presentation, PBW or not.  Each context holds the table R.

An entry is derived from a smaller one.  If every letter of m is >= b, m D_b
is already normal.  Otherwise let a < b be the smallest letter of m, so that
m D_b = m' D_a D_b with m' = m - e_a.  Its first ascent is the final pair,
because m' D_a is normal.  Rewriting it gives m' D_b D_a, m' D_a = m and
m' D_b; in m' D_b D_a the rewriting finishes m' D_b first, and its monomials
have only letters >= a, so appending D_a leaves them normal:

    R[(m, b)] = q shift_a(R[(m', b)]) + (x(b)/g(a,b)) m - (x(a)/g(a,b)) R[(m', b)]

where shift_a appends D_a (adds 1 to k_a).  A chain of such steps is at most
deg(m) long; it is evaluated with an explicit list, not by recursion, and
every entry on it is stored, so the table grows with the number of monomials
met, not of free words.  ``multiply(p, q)`` folds each monomial of q, spelled
as its decreasing word, onto p.

The scalars inside the fold are integers.  Each rule is kept as coprime
integers (Q, X, Y, G), G > 0, with G D_a D_b -> Q D_b D_a + X D_a + Y D_b,
made from the numerators and denominators of g(a,b), g(b,a), x(a), x(b) by
products alone.  A combination is an integer form (nums, den): integer
numerators over one positive denominator.  With R[(m - e_a, b)] = B/e,

    R[(m, b)] = (Q shift_a(B) + Y B + X e m) / (G e).

Folding by D_b sums c R[(m, b)] over the lcm of the entries' denominators,
rescaling the partial sum when an entry's denominator does not divide it.
Sums are not reduced on the way; a Fraction is built only for each term of
a result, and Fraction reduces it.  Integer arithmetic is exact and a
rational has one reduced form, so each coefficient equals the one Fraction
arithmetic over the same recurrence gives, term for term; a term whose
numerator sums to 0 is dropped, as a Fraction sum of 0 was.

Two overlapping patterns D_a D_b, D_b D_c force a < b < c, so the words
D_a D_b D_c exhaust the critical pairs, and the system is confluent iff each
of them resolves: (D_a D_b).D_c, the normal form of the word, equals
D_a.(D_b D_c), D_a times the normal form of D_b D_c.  The right side is
exact, PBW or not.  Every word reached from D_a D_b D_c, apart from that word
itself, has at most one ascent: those of length 3 are the other orderings of
a, b, c, and no rewrite leads back to the ascending one, since each turns an
ascent into a descent.  So from the one-step rewrite of D_b D_c on, every
choice of ascent gives the same normal form, and the right side equals
last-ascent rewriting of D_a D_b D_c term for term.  ``diamond_check_triple``
computes both sides by the fold and compares them as integer forms, A/d and
B/e, by A e == B d on the same monomials.

``is_pbw`` folds nothing: it decides each triple from six scalars.  A
rewrite keeps the letters of its pair or drops one of them, so both sides
are combinations of the seven normal monomials with at most one each of a,
b, c and at least one letter.  Write g_ij for g(i,j) and x_i for x(i).
Expanding each side with the rule, one letter at a time, gives these
coefficients, multiplied by g_ab g_ac g_bc:

    monomial    (D_a D_b).D_c                  D_a.(D_b D_c)
    D_c D_b D_a g_ba g_ca g_cb                 g_ba g_ca g_cb
    D_b D_a     x_c g_ba (g_bc + g_ca)         x_c g_ba (g_ac + g_cb)
    D_c D_a     x_b g_ca (g_bc - g_ba)         x_b g_ca (g_cb - g_ab)
    D_c D_b     -x_a g_cb (g_ba + g_ac)        -x_a g_cb (g_ab + g_ca)
    D_a         x_b x_c g_bc                   x_b x_c (g_ac + g_cb - g_ab)
    D_b         -x_a x_c (g_ba + g_ac)         -x_a x_c (g_ac + g_cb)
    D_c         x_a x_b (g_ba + g_ac - g_bc)   x_a x_b g_ab

so g_ab g_ac g_bc times the left side minus the right side is

    D_c D_b D_a 0
    D_b D_a     -x_c g_ba (g_ac - g_bc - g_ca + g_cb)
    D_c D_a     x_b g_ca (g_ab - g_ba + g_bc - g_cb)
    D_c D_b     x_a g_cb (g_ab - g_ac - g_ba + g_ca)
    D_a         x_b x_c (g_ab - g_ac + g_bc - g_cb)
    D_b         -x_a x_c (g_ba - g_cb)
    D_c         -x_a x_b (g_ab - g_ac - g_ba + g_bc)

The leading coefficients g_ab, g_ac, g_bc are nonzero, so the triple
resolves iff each of the six products has a zero factor.  The g are put
over the lcm of their denominators as integers; each linear factor is
homogeneous of degree 1 in g, so its zero test is exact, and the x need only
zero tests.

A context lives exactly as long as its presentation.  ``_contexts`` is keyed
by ``id(P)`` and the context holds no reference to P, so the table keeps no
presentation alive and a lookup never hashes coefficients.  A finalizer on P
removes its entry.  An id is reused only by an object allocated after P's
memory is freed, and the finalizer is a weakref callback, which runs while P
is being deallocated (or, for cyclic garbage, before the collector frees
it), before its memory is released.  So no other object can carry P's id
while P's entry exists, and a lookup never finds a dead presentation's
context.  Presentations equal in value but distinct as objects get a
context each; they build the same entries.
"""

from __future__ import annotations

import weakref
from dataclasses import dataclass
from itertools import combinations
from math import gcd, lcm

from .presentation import AlgebraPresentation
from .scalars import ONE, rational

Word = tuple  # tuple of generator indices, free-monoid element
Exponents = tuple  # (k_1, ..., k_n)


class Poly:
    """Polynomial in the PBW basis: finite map exponent-tuple -> scalar.

    Canonical: no zero coefficients stored; the empty map is zero.
    """

    __slots__ = ("n", "terms")

    def __init__(self, n: int, terms: dict):
        self.n = n
        self.terms = terms

    # -- constructors -------------------------------------------------
    @staticmethod
    def zero(n: int) -> "Poly":
        return Poly(n, {})

    @staticmethod
    def one(n: int) -> "Poly":
        return Poly(n, {(0,) * n: ONE})

    @staticmethod
    def scalar(n: int, c) -> "Poly":
        c = rational(c)
        return Poly(n, {(0,) * n: c} if c != 0 else {})

    @staticmethod
    def generator(n: int, a: int) -> "Poly":
        expts = [0] * n
        expts[a - 1] = 1
        return Poly(n, {tuple(expts): ONE})

    @staticmethod
    def monomial(n: int, expts, coeff=1) -> "Poly":
        c = rational(coeff)
        return Poly(n, {tuple(expts): c} if c != 0 else {})

    # -- queries ------------------------------------------------------
    def is_zero(self) -> bool:
        return not self.terms

    def is_scalar(self) -> bool:
        return not self.terms or (len(self.terms) == 1 and (0,) * self.n in self.terms)

    def constant(self):
        return self.terms.get((0,) * self.n, rational(0))

    def degree(self) -> int:
        return max((sum(m) for m in self.terms), default=0)

    def coeff(self, expts):
        return self.terms.get(tuple(expts), rational(0))

    # -- arithmetic (presentation-free) --------------------------------
    def __add__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        _iadd(terms, other.terms, ONE)
        return Poly(self.n, terms)

    def __sub__(self, other: "Poly") -> "Poly":
        terms = dict(self.terms)
        _iadd(terms, other.terms, -ONE)
        return Poly(self.n, terms)

    def __neg__(self) -> "Poly":
        return Poly(self.n, {m: -c for m, c in self.terms.items()})

    def scale(self, c) -> "Poly":
        c = rational(c)
        if c == 0:
            return Poly.zero(self.n)
        if c == 1:
            return Poly(self.n, dict(self.terms))
        return Poly(self.n, {m: c * v for m, v in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Poly) and self.n == other.n and self.terms == other.terms

    def __hash__(self):
        return hash((self.n, frozenset(self.terms.items())))

    def __repr__(self):
        if not self.terms:
            return "Poly(0)"
        parts = [f"{c}*{m}" for m, c in sorted(self.terms.items())]
        return "Poly(" + " + ".join(parts) + ")"


def _iadd(dst: dict, src: dict, factor) -> None:
    """dst += factor * src, dropping cancellations; a factor of 1 multiplies nothing."""
    if factor != 1:
        src = {m: factor * c for m, c in src.items()}
    if not dst:
        dst.update(src)
        return
    for m, c in src.items():
        v = dst.get(m)
        if v is None:
            dst[m] = c
        else:
            v = v + c
            if not v:
                del dst[m]
            else:
                dst[m] = v


def _add_term(dst: dict, m, c) -> None:
    """dst[m] += c, dropping a cancellation."""
    v = dst.get(m)
    if v is None:
        dst[m] = c
    else:
        v = v + c
        if not v:
            del dst[m]
        else:
            dst[m] = v


def monomial_word(expts) -> Word:
    """Decreasing word spelled by the PBW monomial D_n^{k_n}...D_1^{k_1}."""
    word = []
    for a in range(len(expts), 0, -1):
        word.extend([a] * expts[a - 1])
    return tuple(word)


def word_exponents(word: Word, n: int) -> Exponents:
    expts = [0] * n
    for a in word:
        expts[a - 1] += 1
    return tuple(expts)


# ---------------------------------------------------------------------------
# integer forms: a combination sum c_m m / den is kept as ({m: c_m}, den)


def _rule(P: AlgebraPresentation, a: int, b: int) -> tuple:
    """(Q, X, Y, G) with G D_a D_b -> Q D_b D_a + X D_a + Y D_b, coprime, G > 0.

    The four coefficients of the relation are put over one denominator by
    integer products alone.
    """
    g, h, xa, xb = P.g(a, b), P.g(b, a), P.x(a), P.x(b)
    gd, hd, xad, xbd = g.denominator, h.denominator, xa.denominator, xb.denominator
    Q = h.numerator * gd * xad * xbd
    X = xb.numerator * gd * hd * xad
    Y = -xa.numerator * gd * hd * xbd
    G = g.numerator * hd * xad * xbd
    s = gcd(Q, X, Y, G)
    if G < 0:
        s = -s
    return Q // s, X // s, Y // s, G // s


def _add_over(dst: dict, den: int, c: int, nums: dict, d: int) -> int:
    """dst/den += c nums/d; returns dst's new denominator, lcm(den, d)."""
    if den % d:
        f = d // gcd(den, d)
        for m in dst:
            dst[m] *= f
        den *= f
    c *= den // d
    if not dst:
        dst.update({m: c * v for m, v in nums.items()})
        return den
    get = dst.get
    for m, v in nums.items():
        v = get(m, 0) + c * v
        if v:
            dst[m] = v
        else:
            del dst[m]
    return den


def _int_form(terms: dict) -> tuple:
    """A {exponents: rational} map as (nums, den), den the lcm of its denominators."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {m: c.numerator * (den // c.denominator) for m, c in terms.items()}, den


def _poly(n: int, nums: dict, den: int) -> Poly:
    """The Poly of an integer form: one reduced rational per term."""
    return Poly(n, {m: rational(v, den) for m, v in nums.items()})


def _same(p: tuple, q: tuple) -> bool:
    """Whether two integer forms are one combination, by cross-multiplying."""
    (pn, pd), (qn, qd) = p, q
    return pn.keys() == qn.keys() and all(v * qd == qn[m] * pd for m, v in pn.items())


# ---------------------------------------------------------------------------
# per-presentation context


class _Context:
    __slots__ = ("n", "rules", "nf_cache")

    def __init__(self, P: AlgebraPresentation):
        self.n = P.n
        # (a, b) with a < b  ->  the integer rule (Q, X, Y, G)
        self.rules = {(a, b): _rule(P, a, b)
                      for a in range(1, P.n + 1) for b in range(a + 1, P.n + 1)}
        # R[(m, b)] = normal form of m D_b as (nums, den), stored only for
        # products that need a rewrite; a dict of tables, the shape the
        # benchmark probe reads
        self.nf_cache = {"R": {}}


# id(P) -> the context of the live presentation P; the entry goes with P
_contexts: dict[int, _Context] = {}


def _context(P: AlgebraPresentation) -> _Context:
    ctx = _contexts.get(id(P))
    if ctx is None:
        ctx = _contexts[id(P)] = _Context(P)
        weakref.finalize(P, _contexts.pop, id(P), None)
    return ctx


def _right_entry(ctx: _Context, m: Exponents, b: int) -> tuple:
    """R[(m, b)], the normal form of m D_b, for a monomial m with a letter below b.

    Strips the smallest letter a of m until it reaches a stored entry or a
    monomial with no letter below b, then stores every entry on the way back:
    with R[(m - e_a, b)] = B/e, R[(m, b)] = (Q shift_a(B) + Y B + X e m)/(G e).
    """
    table = ctx.nf_cache["R"]
    k = b - 1
    chain = []
    while True:
        for a in range(k):
            if m[a]:
                break
        else:
            below = ({m[:k] + (m[k] + 1,) + m[b:]: 1}, 1)
            break
        chain.append((m, a))
        m = m[:a] + (m[a] - 1,) + m[a + 1:]
        below = table.get((m, b))
        if below is not None:
            break
    for m, a in reversed(chain):
        Q, X, Y, G = ctx.rules[(a + 1, b)]
        nums, e = below
        if Q:
            entry = {v[:a] + (v[a] + 1,) + v[a + 1:]: Q * c for v, c in nums.items()}
        else:
            entry = {}
        if X:
            _add_term(entry, m, X * e)
        if Y:
            _add_over(entry, 1, Y, nums, 1)  # entry += Y B, both over 1
        table[(m, b)] = below = (entry, G * e)
    return below


def _times_generator(ctx: _Context, nums: dict, den: int, b: int) -> tuple:
    """Normal form of (nums/den) D_b, the sum of c R[(m, b)], as (nums, den).

    The sum is kept over the lcm of the entries' denominators; it is not
    reduced, since a gcd over every coefficient at every letter costs more
    than the larger integers do.
    """
    table = ctx.nf_cache["R"]
    k = b - 1
    out: dict = {}
    common = 1
    for m, c in nums.items():
        if any(m[:k]):
            entry = table.get((m, b))
            if entry is None:
                entry = _right_entry(ctx, m, b)
            common = _add_over(out, common, c, *entry)
        else:  # no letter of m is below b, so m D_b is already normal
            _add_term(out, m[:k] + (m[k] + 1,) + m[b:], c * common)
    return out, den * common


def _fold(ctx: _Context, nums: dict, den: int, word: Word) -> tuple:
    """Normal form of (nums/den) times a word, letter by letter, as (nums, den)."""
    for b in word:
        nums, den = _times_generator(ctx, nums, den, b)
    return nums, den


def _product(ctx: _Context, p: tuple, q: tuple) -> tuple:
    """p q for integer forms p, q: each monomial of q folded onto p, over one denominator."""
    pn, pd = p
    qn, qd = q
    out: dict = {}
    common = 1
    for m, c in qn.items():
        common = _add_over(out, common, c, *_fold(ctx, pn, pd, monomial_word(m)))
    return out, common * qd


def _nf_word(ctx: _Context, word: Word, depth_left: int) -> tuple:
    """Normal form of one word, as a new integer form (nums, den).

    ``depth_left`` is the caller's rewrite budget.  Every table chain met
    while folding a word of degree d takes fewer than d rewrites, so
    ``normal_form`` passes d; a word that still needs a rewrite when no
    budget is left raises instead, by a check that ``python -O`` keeps.
    """
    if depth_left <= 0 and any(a < b for a, b in zip(word, word[1:])):
        raise RuntimeError("reduction exceeded the degree*(degree+inversions) bound")
    # the fold starts after the longest non-increasing prefix, which is normal
    k = 1
    while k < len(word) and word[k - 1] >= word[k]:
        k += 1
    return _fold(ctx, {word_exponents(word[:k], ctx.n): 1}, 1, word[k:])


def normal_form(w, P: AlgebraPresentation) -> Poly:
    """Normal form of a word, a {word: coefficient} combination, or a Poly.

    The result is supported on decreasing-index monomials only.
    """
    ctx = _context(P)
    if isinstance(w, Poly):
        return Poly(P.n, {m: c for m, c in w.terms.items() if c})
    if isinstance(w, dict):
        combination = {tuple(word): c for word, c in w.items()}
    else:
        combination = {tuple(w): ONE}
    out: dict = {}
    common = 1
    for word, coeff in combination.items():
        if coeff:
            nums, den = _nf_word(ctx, word, len(word))
            common = _add_over(out, common, coeff.numerator, nums, den * coeff.denominator)
    return _poly(P.n, out, common)


def multiply(p: Poly, q: Poly, P: AlgebraPresentation) -> Poly:
    """Product in the algebra: fold each monomial of q, letter by letter, onto p."""
    if p.is_scalar():
        return q.scale(p.constant())
    if q.is_scalar():
        return p.scale(q.constant())
    return _poly(P.n, *_product(_context(P), _int_form(p.terms), _int_form(q.terms)))


def power(p: Poly, k: int, P: AlgebraPresentation) -> Poly:
    result = Poly.one(P.n)
    for _ in range(k):
        result = multiply(result, p, P)
    return result


@dataclass(frozen=True)
class TripleCheck:
    confluent: bool
    nf_left: Poly
    nf_right: Poly


@dataclass(frozen=True)
class PBWReport:
    pbw: bool
    first_failure: tuple | None


def diamond_check_triple(P: AlgebraPresentation, a: int, b: int, c: int) -> TripleCheck:
    """Reduce the overlap D_a D_b D_c (a < b < c) both ways.

    nf_left is (D_a D_b).D_c, the normal form of the word; nf_right is
    D_a.(D_b D_c), D_a times the normal form of D_b D_c.  The presentation
    is reduction-unique on this overlap iff the results agree.
    """
    if not (1 <= a < b < c <= P.n):
        raise ValueError(f"triple must satisfy 1 <= a < b < c <= n, got {(a, b, c)}")
    ctx = _context(P)
    left = _nf_word(ctx, (a, b, c), 3)
    d_a = tuple(int(i == a) for i in range(1, P.n + 1))
    right = _product(ctx, ({d_a: 1}, 1), _nf_word(ctx, (b, c), 2))
    return TripleCheck(_same(left, right), _poly(P.n, *left), _poly(P.n, *right))


def _integer_table(P: AlgebraPresentation) -> dict:
    """Every g(i, j) times the lcm of their denominators, as ints.

    Raises ValueError on the first zero leading coefficient g(i, j), i < j,
    in (i, j) order: no relation rewrites that pair.
    """
    ratios = {(i, j): P.g(i, j).as_integer_ratio() for i in range(1, P.n + 1)
              for j in range(1, P.n + 1) if i != j}
    den = lcm(*(d for _, d in ratios.values()))
    table = {pair: v * (den // d) for pair, (v, d) in ratios.items()}
    for (i, j), v in table.items():
        if i < j and not v:
            raise ValueError(f"zero leading coefficient g({i}, {j})")
    return table


def _resolves(g: dict, x: dict, a: int, b: int, c: int) -> bool:
    """Whether D_a D_b D_c resolves: each of the six products in the
    module docstring has a zero factor.  ``x`` holds whether each x_i != 0."""
    ab, ba, ac, ca, bc, cb = g[a, b], g[b, a], g[a, c], g[c, a], g[b, c], g[c, b]
    xa, xb, xc = x[a], x[b], x[c]
    return ((not xc or not ba or ac - bc - ca + cb == 0)
            and (not xb or not ca or ab - ba + bc - cb == 0)
            and (not xa or not cb or ab - ac - ba + ca == 0)
            and (not (xb and xc) or ab - ac + bc - cb == 0)
            and (not (xa and xc) or ba == cb)
            and (not (xa and xb) or ab - ac - ba + bc == 0))


def is_pbw(P: AlgebraPresentation) -> PBWReport:
    """Diamond Lemma check: confluent on every triple a < b < c.

    Each triple is decided from the closed form in the module docstring;
    nothing is folded.  Reports the lexicographically first failing triple,
    if any.  Raises ValueError on a zero leading coefficient.
    """
    g = _integer_table(P)
    x = {i: bool(P.x(i)) for i in range(1, P.n + 1)}
    first_failure = next((t for t in combinations(range(1, P.n + 1), 3)
                          if not _resolves(g, x, *t)), None)
    return PBWReport(first_failure is None, first_failure)
