"""PBW normal forms and Diamond-Lemma confluence checking.

The normal-form basis consists of ordered monomials with (weakly) decreasing
generator indices, D_n^{k_n} ... D_1^{k_1}, encoded as exponent tuples
(k_1, ..., k_n).  The only rewritable pattern in a word is an adjacent
increasing pair D_a D_b (a < b), which is replaced using the defining relation

    D_a D_b  ->  q D_b D_a + (x(b)/g(a,b)) D_a - (x(a)/g(a,b)) D_b,   q = g(b,a)/g(a,b).

Normal forms are those of first-ascent rewriting, computed without rewriting
words.  First-ascent rewriting of X.Y never touches Y before X is normal, so
the normal form of w_1 ... w_k is the left fold that starts from 1 and
replaces each monomial m by the normal form of m D_{w_i}, letter by letter,
on every presentation, PBW or not.

Write m as u ℓ: u holds the letters of m that are >= b and ℓ those < b.  The
first ascent of u ℓ D_b, if any, lies in ℓ D_b, and every word that rewriting
ℓ D_b reaches has letters <= b only, none above the last letter of u.  So the
junction never becomes an ascent, u is never touched, and u followed by a
normal monomial in letters <= b is normal:

    normal form of m D_b = u R[(ℓ, b)],   R[(ℓ, b)] = normal form of ℓ D_b,

where u times such a monomial adds exponents.  Each context holds the table R,
keyed by the lower part ℓ and b alone, so one entry serves every upper part.

An entry is derived from a smaller one.  If ℓ is empty, m D_b is already
normal.  Otherwise let a < b be the smallest letter of ℓ, so that
ℓ D_b = ℓ' D_a D_b with ℓ' = ℓ - e_a.  Its first ascent is the final pair,
because ℓ' D_a is normal.  Rewriting it gives ℓ' D_b D_a, ℓ' D_a = ℓ and
ℓ' D_b; in ℓ' D_b D_a the rewriting finishes ℓ' D_b first, and its monomials
have only letters >= a, so appending D_a leaves them normal:

    R[(ℓ, b)] = q shift_a(R[(ℓ', b)]) + (x(b)/g(a,b)) ℓ - (x(a)/g(a,b)) R[(ℓ', b)]

where shift_a appends D_a (adds 1 to k_a), and R[(1, b)] = D_b.  A chain of
such steps is at most deg(ℓ) long; it is evaluated with an explicit list, not
by recursion, and every entry on it is stored, so the table grows with the
number of lower parts met, not of monomials or free words.
``multiply(p, q)`` folds each monomial of q, spelled as its decreasing word,
onto p.

Inside the fold a monomial is one int: k_a fills the bit field of width W
that starts at bit W (a - 1).  A context's W holds the degree bound of the
call, which bounds every exponent the call reaches, so no field carries into
the next: shift_a and u ℓ are one addition each, ℓ is m & (e_b - 1), and the
smallest letter of ℓ is the field of its lowest set bit.  R keys the entry of
(ℓ, b) by the packed ℓ D_b, ℓ + e_b: b is its largest letter and occurs once,
so the key names both.  A call whose degree bound does not fit widens W and
drops the table, whose keys were packed at the old width.  Monomials are
packed where a fold starts and unpacked to exponent tuples where its result
becomes a Poly.

The scalars inside the fold are integers.  Each rule is kept as coprime
integers (Q, X, Y, G), G > 0, with G D_a D_b -> Q D_b D_a + X D_a + Y D_b,
made from the numerators and denominators of g(a,b), g(b,a), x(a), x(b) by
products alone.  A combination is an integer form (nums, den): integer
numerators over one positive denominator.  With R[(ℓ', b)] = B/e,

    R[(ℓ, b)] = (Q shift_a(B) + Y B + X e ℓ) / (G e).

Folding by D_b sums c u R[(ℓ, b)] over the lcm of the entries' denominators,
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

    With g(a,b) = A/L and g(b,a) = B/L over the presentation's one g
    denominator L, and x(a) = p/r, x(b) = s/t, the rule times A r t is
    A r t D_a D_b -> B r t D_b D_a + s L r D_a - p L t D_b: integer products
    alone.
    """
    nums, L = P.g_integers()
    x = P.x_ratios()
    (p, r), (s, t) = x[a], x[b]
    Q = nums[b, a] * r * t
    X = s * L * r
    Y = -p * L * t
    G = nums[a, b] * r * t
    d = gcd(Q, X, Y, G) or 1  # a zero relation stays zero
    if G < 0:
        d = -d
    return Q // d, X // d, Y // d, G // d


def _add_over(dst: dict, den: int, c: int, nums: dict, d: int, u: int = 0) -> int:
    """dst/den += c u nums/d, u a packed monomial; returns dst's new denominator, lcm(den, d)."""
    if den % d:
        f = d // gcd(den, d)
        for m in dst:
            dst[m] *= f
        den *= f
    c *= den // d
    if not dst:
        dst.update({u + m: c * v for m, v in nums.items()})
        return den
    get = dst.get
    for m, v in nums.items():
        m += u
        v = get(m, 0) + c * v
        if v:
            dst[m] = v
        else:
            del dst[m]
    return den


def _same(p: tuple, q: tuple) -> bool:
    """Whether two integer forms are one combination, by cross-multiplying."""
    (pn, pd), (qn, qd) = p, q
    return pn.keys() == qn.keys() and all(v * qd == qn[m] * pd for m, v in pn.items())


# ---------------------------------------------------------------------------
# per-presentation context

# Largest exponent the fields of a new context hold, 8 bits each; a call of
# larger degree widens them, so no input is refused.
_DEFAULT_DEGREE = 255


class _Context:
    __slots__ = ("n", "rules", "nf_cache", "width", "shifts", "units")

    def __init__(self, P: AlgebraPresentation):
        self.n = P.n
        # (a, b) with a < b  ->  the integer rule (Q, X, Y, G)
        self.rules = {(a, b): _rule(P, a, b)
                      for a in range(1, P.n + 1) for b in range(a + 1, P.n + 1)}
        # R[(ℓ, b)] = normal form of ℓ D_b as (nums, den), keyed by the packed
        # ℓ D_b and stored only for a nonempty ℓ; a dict of tables, the shape
        # the benchmark probe reads
        self.nf_cache = {"R": {}}
        self.width = 0
        self.fit(_DEFAULT_DEGREE)

    def fit(self, degree: int) -> None:
        """Make every exponent field hold ``degree``, the bound of a call.

        A wider field drops R, whose keys and terms are packed at the old width.
        """
        if degree >> self.width:
            self.width = width = degree.bit_length()
            self.shifts = tuple(range(0, width * self.n, width))
            self.units = tuple(1 << s for s in self.shifts)  # units[a - 1] = e_a
            self.nf_cache["R"].clear()


# id(P) -> the context of the live presentation P; the entry goes with P
_contexts: dict[int, _Context] = {}


def _context(P: AlgebraPresentation) -> _Context:
    ctx = _contexts.get(id(P))
    if ctx is None:
        ctx = _contexts[id(P)] = _Context(P)
        weakref.finalize(P, _contexts.pop, id(P), None)
    return ctx


def _pack(ctx: _Context, expts) -> int:
    """An exponent tuple as one int, k_a in the field of letter a."""
    return sum(k << s for k, s in zip(expts, ctx.shifts))


def _unpack(ctx: _Context, m: int) -> Exponents:
    """The exponent tuple of a packed monomial."""
    field = (1 << ctx.width) - 1
    return tuple([(m >> s) & field for s in ctx.shifts])


def _int_form(ctx: _Context, terms: dict) -> tuple:
    """A {exponents: rational} map as packed (nums, den), den the lcm of its denominators."""
    den = lcm(*(c.denominator for c in terms.values()))
    return {_pack(ctx, m): c.numerator * (den // c.denominator) for m, c in terms.items()}, den


def _poly(ctx: _Context, nums: dict, den: int) -> Poly:
    """The Poly of a packed integer form: one reduced rational per term."""
    return Poly(ctx.n, {_unpack(ctx, m): rational(v, den) for m, v in nums.items()})


def _right_entry(ctx: _Context, low: int, b: int) -> tuple:
    """R[(ℓ, b)], the normal form of ℓ D_b, for a packed ℓ != 1 of letters below b.

    Strips the smallest letter a of ℓ until it reaches a stored entry or the
    empty monomial, then stores every entry on the way back: with
    R[(ℓ - e_a, b)] = B/e, R[(ℓ, b)] = (Q shift_a(B) + Y B + X e ℓ)/(G e).
    """
    table = ctx.nf_cache["R"]
    units, width = ctx.units, ctx.width
    e_b = units[b - 1]
    chain = []
    while True:
        a = ((low & -low).bit_length() - 1) // width  # the smallest letter, from 0
        chain.append((low, a))
        low -= units[a]
        if not low:
            below = ({e_b: 1}, 1)
            break
        below = table.get(low + e_b)
        if below is not None:
            break
    for low, a in reversed(chain):
        Q, X, Y, G = ctx.rules[(a + 1, b)]
        nums, e = below
        e_a = units[a]
        entry = {v + e_a: Q * c for v, c in nums.items()} if Q else {}
        if X:
            _add_term(entry, low, X * e)
        if Y:
            _add_over(entry, 1, Y, nums, 1)  # entry += Y B, both over 1
        table[low + e_b] = below = (entry, G * e)
    return below


def _times_generator(ctx: _Context, nums: dict, den: int, b: int) -> tuple:
    """Normal form of (nums/den) D_b, the sum of c u R[(ℓ, b)], as (nums, den).

    The sum is kept over the lcm of the entries' denominators; it is not
    reduced, since a gcd over every coefficient at every letter costs more
    than the larger integers do.
    """
    table = ctx.nf_cache["R"]
    e_b = ctx.units[b - 1]
    below = e_b - 1  # the fields of the letters below b
    out: dict = {}
    common = 1
    for m, c in nums.items():
        low = m & below
        if low:
            entry = table.get(low + e_b)
            if entry is None:
                entry = _right_entry(ctx, low, b)
            common = _add_over(out, common, c, *entry, m - low)
        else:  # no letter of m is below b, so m D_b is already normal
            _add_term(out, m + e_b, c * common)
    return out, den * common


def _fold(ctx: _Context, nums: dict, den: int, word: Word) -> tuple:
    """Normal form of (nums/den) times a word, letter by letter, as (nums, den)."""
    for b in word:
        nums, den = _times_generator(ctx, nums, den, b)
    return nums, den


def _product(ctx: _Context, p: tuple, q: tuple) -> tuple:
    """p q for packed integer forms: each monomial of q folded onto p, over one denominator."""
    pn, pd = p
    qn, qd = q
    out: dict = {}
    common = 1
    for m, c in qn.items():
        common = _add_over(out, common, c, *_fold(ctx, pn, pd, monomial_word(_unpack(ctx, m))))
    return out, common * qd


def _nf_word(ctx: _Context, word: Word) -> tuple:
    """Normal form of one word, as a new packed integer form (nums, den).

    The caller has fitted ``ctx`` to the word's degree.
    """
    # the fold starts after the longest non-increasing prefix, which is normal
    k = 1
    while k < len(word) and word[k - 1] >= word[k]:
        k += 1
    units = ctx.units
    return _fold(ctx, {sum(units[a - 1] for a in word[:k]): 1}, 1, word[k:])


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
    ctx.fit(max(map(len, combination), default=0))
    out: dict = {}
    common = 1
    for word, coeff in combination.items():
        if coeff:
            nums, den = _nf_word(ctx, word)
            common = _add_over(out, common, coeff.numerator, nums, den * coeff.denominator)
    return _poly(ctx, out, common)


def multiply(p: Poly, q: Poly, P: AlgebraPresentation) -> Poly:
    """Product in the algebra: fold each monomial of q, letter by letter, onto p."""
    if p.is_scalar():
        return q.scale(p.constant())
    if q.is_scalar():
        return p.scale(q.constant())
    ctx = _context(P)
    ctx.fit(p.degree() + q.degree())
    return _poly(ctx, *_product(ctx, _int_form(ctx, p.terms), _int_form(ctx, q.terms)))


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
    ctx.fit(3)
    left = _nf_word(ctx, (a, b, c))
    right = _product(ctx, ({ctx.units[a - 1]: 1}, 1), _nf_word(ctx, (b, c)))
    return TripleCheck(_same(left, right), _poly(ctx, *left), _poly(ctx, *right))


def _integer_table(P: AlgebraPresentation) -> dict:
    """Every g(i, j) times the lcm of their denominators, as ints.

    A copy: writing to it leaves the presentation as it was.  Raises
    ValueError on the first zero leading coefficient g(i, j), i < j, in
    (i, j) order: no relation rewrites that pair.
    """
    table, _ = P.g_integers()
    for (i, j), v in table.items():
        if i < j and not v:
            raise ValueError(f"zero leading coefficient g({i}, {j})")
    return dict(table)


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
    x = {i: num != 0 for i, (num, _) in P.x_ratios().items()}
    first_failure = next((t for t in combinations(range(1, P.n + 1), 3)
                          if not _resolves(g, x, *t)), None)
    return PBWReport(first_failure is None, first_failure)
