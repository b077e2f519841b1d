"""PBW normal forms and Diamond-Lemma confluence checking.

The normal-form basis consists of ordered monomials with (weakly) decreasing
generator indices, D_n^{k_n} ... D_1^{k_1}, encoded as exponent tuples
(k_1, ..., k_n).  The only rewritable pattern in a word is an adjacent
increasing pair D_i D_j (i < j), which is replaced using the defining relation

    D_i D_j  ->  (g(j,i)/g(i,j)) D_j D_i + (x(j)/g(i,j)) D_i - (x(i)/g(i,j)) D_j

Rewriting terminates unconditionally: every word produced by a rewrite has
strictly fewer increasing (not necessarily adjacent) index pairs than its
parent, so the length of any reduction chain from w is bounded by that count.

Confluence of the whole system reduces to the words D_a D_b D_c with
a < b < c: rewrite patterns are adjacent increasing pairs, and two overlapping
patterns D_a D_b, D_b D_c force a < b < c, so these triples exhaust all
critical pairs of the rewriting system.
"""

from __future__ import annotations

from dataclasses import dataclass

from .presentation import AlgebraPresentation
from .scalars import ONE, rational

Word = tuple  # tuple of generator indices, free-monoid element
Exponents = tuple  # (k_1, ..., k_n)

LEFTMOST = "leftmost"
RIGHTMOST = "rightmost"
_STRATEGIES = (LEFTMOST, RIGHTMOST)


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
    """dst += factor * src, dropping cancellations."""
    for m, c in src.items():
        v = dst.get(m)
        if v is None:
            dst[m] = factor * c
        else:
            v = v + factor * c
            if v == 0:
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


def ascent_pairs(word: Word) -> int:
    """Number of index pairs p < q with word[p] < word[q] (global, not adjacent)."""
    count = 0
    for p in range(len(word)):
        for q in range(p + 1, len(word)):
            if word[p] < word[q]:
                count += 1
    return count


# ---------------------------------------------------------------------------
# per-presentation context


class _Context:
    __slots__ = ("P", "rules", "nf_cache", "pbw_report")

    def __init__(self, P: AlgebraPresentation):
        self.P = P
        # (i, j) with i < j  ->  (q, xj/g, xi/g) of the rewrite rule
        self.rules = {}
        for i in range(1, P.n + 1):
            for j in range(i + 1, P.n + 1):
                g = P.g(i, j)
                self.rules[(i, j)] = (P.g(j, i) / g, P.x(j) / g, P.x(i) / g)
        self.nf_cache = {LEFTMOST: {}, RIGHTMOST: {}}
        self.pbw_report = None


_contexts: dict[AlgebraPresentation, _Context] = {}


def _context(P: AlgebraPresentation) -> _Context:
    ctx = _contexts.get(P)
    if ctx is None:
        ctx = _contexts[P] = _Context(P)
    return ctx


def _find_ascent(word: Word, strategy: str) -> int:
    positions = range(len(word) - 1) if strategy == LEFTMOST else range(len(word) - 2, -1, -1)
    for p in positions:
        if word[p] < word[p + 1]:
            return p
    return -1


def _nf_word(ctx: _Context, word: Word, strategy: str, depth_left: int) -> dict:
    cache = ctx.nf_cache[strategy]
    hit = cache.get(word)
    if hit is not None:
        return hit
    p = _find_ascent(word, strategy)
    if p < 0:
        result = {word_exponents(word, ctx.P.n): ONE}
        cache[word] = result
        return result
    # every rewrite strictly decreases the global ascent-pair count
    if depth_left <= 0:
        raise RuntimeError("reduction exceeded the degree*(degree+inversions) bound")
    a, b = word[p], word[p + 1]
    q, xb_g, xa_g = ctx.rules[(a, b)]
    head, tail = word[:p], word[p + 2:]
    terms: dict = {}
    if q != 0:
        _iadd(terms, _nf_word(ctx, head + (b, a) + tail, strategy, depth_left - 1), q)
    if xb_g != 0:
        _iadd(terms, _nf_word(ctx, head + (a,) + tail, strategy, depth_left - 1), xb_g)
    if xa_g != 0:
        _iadd(terms, _nf_word(ctx, head + (b,) + tail, strategy, depth_left - 1), -xa_g)
    cache[word] = terms
    return terms


def normal_form(w, P: AlgebraPresentation, strategy: str = LEFTMOST) -> Poly:
    """Normal form of a word, a {word: coefficient} combination, or a Poly.

    The result is supported on decreasing-index monomials only.  For PBW
    presentations it is independent of the strategy; both strategies are kept
    for the confluence oracle.
    """
    if strategy not in _STRATEGIES:
        raise ValueError(f"unknown strategy {strategy!r}")
    ctx = _context(P)
    if isinstance(w, Poly):
        combination = {monomial_word(m): c for m, c in w.terms.items()}
    elif isinstance(w, dict):
        combination = {tuple(word): c for word, c in w.items()}
    else:
        combination = {tuple(w): ONE}
    terms: dict = {}
    for word, coeff in combination.items():
        if coeff == 0:
            continue
        deg = len(word)
        bound = deg * (deg + ascent_pairs(word)) + 1
        _iadd(terms, _nf_word(ctx, word, strategy, bound), coeff)
    return Poly(P.n, terms)


def multiply(p: Poly, q: Poly, P: AlgebraPresentation) -> Poly:
    """Product in the algebra: concatenate basis words and normalize (bilinear)."""
    ctx = _context(P)
    terms: dict = {}
    for m1, c1 in p.terms.items():
        w1 = monomial_word(m1)
        for m2, c2 in q.terms.items():
            word = w1 + monomial_word(m2)
            deg = len(word)
            bound = deg * (deg + ascent_pairs(word)) + 1
            _iadd(terms, _nf_word(ctx, word, LEFTMOST, bound), c1 * c2)
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
    """Reduce D_a D_b D_c (a < b < c) along both critical paths.

    nf_left rewrites the left pair (a, b) first, nf_right the right pair (b, c);
    the presentation is reduction-unique on this overlap iff the results agree.
    """
    if not (1 <= a < b < c <= P.n):
        raise ValueError(f"triple must satisfy 1 <= a < b < c <= n, got {(a, b, c)}")
    nf_left = normal_form((a, b, c), P, LEFTMOST)
    nf_right = normal_form((a, b, c), P, RIGHTMOST)
    return TripleCheck(nf_left == nf_right, nf_left, nf_right)


def is_pbw(P: AlgebraPresentation) -> PBWReport:
    """Diamond Lemma check: confluent on every triple a < b < c.

    Reports the lexicographically first failing triple, if any.
    """
    ctx = _context(P)
    if ctx.pbw_report is None:
        first_failure = None
        for a in range(1, P.n + 1):
            for b in range(a + 1, P.n + 1):
                for c in range(b + 1, P.n + 1):
                    if not diamond_check_triple(P, a, b, c).confluent:
                        first_failure = (a, b, c)
                        break
                if first_failure:
                    break
            if first_failure:
                break
        ctx.pbw_report = PBWReport(first_failure is None, first_failure)
    return ctx.pbw_report
