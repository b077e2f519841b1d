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
normal monomial in letters <= b is normal: NF(m D_b) = u NF(ℓ D_b), where u
times such a monomial adds exponents.  If ℓ is empty, m D_b is already
normal.

Each rule is the presentation's relation as coprime integers (Q, X, Y, G),
G D_a D_b -> Q D_b D_a + X D_a + Y D_b (``AlgebraPresentation.relations``),
and σ(t) = (Q t + Y)/G.  Let a < b be the smallest letter of a nonempty ℓ,
so that ℓ D_b = ℓ' D_a D_b with ℓ' = ℓ - e_a.  Its first ascent is the final
pair, because ℓ' D_a is normal.  Rewriting it gives ℓ' D_b D_a, ℓ' D_a = ℓ
and ℓ' D_b; in ℓ' D_b D_a the rewriting finishes ℓ' D_b first, and its
monomials have only letters >= a, so appending D_a leaves them normal:

    NF(ℓ D_b) = NF(ℓ' D_b) σ(D_a) + (X/G) ℓ,

where a polynomial in D_a after a combination in letters >= a is appended
to each monomial, adding to its exponent of D_a.  Write ℓ = ℓ'' D_a^k with
the letters of ℓ'' in a + 1 .. b - 1.  Then

    NF(ℓ'' D_a^k D_b) = NF(ℓ'' D_b) σ(D_a)^k + ℓ'' Q_k(D_a),
    Q_k(t) = (X/G) t sum_{i<k} σ(t)^i t^(k-1-i),

by induction on k.  At k = 0 it reads NF(ℓ'' D_b) = NF(ℓ'' D_b), as Q_0 =
0.  For k >= 1, a is the smallest letter of ℓ, and the step above with
ℓ' = ℓ'' D_a^(k-1) appends σ(D_a) to NF(ℓ' D_b) and adds (X/G) ℓ'' D_a^k.
By induction NF(ℓ' D_b) = NF(ℓ'' D_b) σ(D_a)^(k-1) + ℓ'' Q_{k-1}(D_a),
whose monomials all have letters >= a.  Polynomials in the one letter D_a
multiply as polynomials in t, and Q_{k-1}(t) σ(t) + (X/G) t^k = Q_k(t).
With ℓ'' empty this is the pair's own identity D_a^k D_b = D_b σ(D_a)^k +
Q_k(D_a), the Ore-extension form of the relation.

Over G^k both parts are integer rows in t, which a context makes once for
each pair a < b and exponent k that a fold meets (``_pair_row``, from
``scalars._binomial`` and ``scalars._geometric``): the σ-row (Q t + Y)^k,
a binomial row, and the Q-row X t sum_{i<k} (Q t + Y)^i (G t)^(k-1-i).
That sum is ((Q t + Y)^k - (G t)^k) / ((Q - G) t + Y), an exact division
by a linear factor; when Q = G the factor is the constant Y, and when also
Y = 0, so that σ(t) = t, the sum is k (G t)^(k-1).

NF(ℓ'' D_b) is of the same form again, with the smallest letter of ℓ'' in
place of a, so D_b moves through the lower letters of m one run at a time,
smallest letter first, each step the first-ascent step above.  A monomial h l
on its way stands for NF(h D_b) l, where h holds its letters from the
current letter up and l those below it.  The pass of letter a replaces
NF(h'' D_a^k D_b) l by NF(h'' D_b) σ(D_a)^k l + h'' Q_k(D_a) l.  The second
part is normal (the letters of h'' lie above a and those of l below it) and
final.  The first waits for the next letter with D_a^i l as its lower part,
or is final as h'' D_b σ(D_a)^k l when h'' has no letter below b.  NF(h D_b) l
depends only on h and l and is linear in the combination, so the waiting
monomials of a whole combination go through a pass together, and equal ones
are merged before the next pass: the answer is the normal form of the
combination times D_b, term for term.  ``multiply(p, q)`` folds each
monomial of q, spelled as its decreasing word, onto p.

Inside the fold a monomial is one int: k_a fills the bit field of width W
that starts at bit W (a - 1).  A context's W holds the degree bound of the
call, which bounds every exponent the call reaches, so no field carries into
the next: appending D_a^i and u ℓ are one addition each, and the run of a
letter is m masked by its field.  The rows of (a, b, k) are keyed by the
packed D_a^k D_b, k e_a + e_b: b is its largest letter and occurs once, and
a is the other one, so the key names all three.  A call whose degree bound
does not fit widens W and drops the rows, whose keys and shifts were packed
at the old width.  Monomials are packed where a fold starts and unpacked to
exponent tuples where its result becomes a Poly or is rendered.

The scalars inside the fold are integers.  A combination is an integer form
(nums, den): integer numerators over one positive denominator.  Both rows
of (a, b, k) are over G^k, and a pass sums c times a row over the lcm of
the rows' denominators, rescaling its partial sums when a row's denominator
does not divide it.  Sums are not reduced on the way; a Fraction is built
only for each term of a result, and Fraction reduces it.  Integer arithmetic
is exact and a rational has one reduced form, so each coefficient equals the
one Fraction arithmetic over first-ascent rewriting gives, term for term; a
term whose numerator sums to 0 is dropped where the fold ends, as a Fraction
sum of 0 was.

A result that is only printed needs no Fraction at all.
``normal_form_terms`` reduces each term v/den of the fold's (nums, den) by
one gcd(v, den), which gives the pair Fraction would hold since den > 0,
and sorts the terms on (total degree, packed monomial), descending.  No
field carries, and the field of a higher letter lies above that of a lower
one, so two packed monomials compare as their reversed exponent tuples do,
which at one degree is the order of their decreasing words
(``exprs._term_order``).  The degree of a packed monomial m is one
multiply and shift: in m (e_1 + ... + e_n) the field of letter p holds
k_1 + ... + k_p for p <= n.  Each of those partial sums is at most the
degree, which ``fit`` keeps below 2^W, so no field carries into the next
and the field of letter n holds the degree exactly.  The sort key is one
int per term, that degree placed above the fields of m.  Reading the degree
as the packed int mod 2^W - 1 (each field's unit is 1 mod 2^W - 1) would be
wrong: the degree bound allows a degree of exactly 2^W - 1, as in D_1^255
at the default 8-bit width, and that residue is 0, the constant's.  At that
width each field is one byte of m, so ``int.to_bytes`` unpacks a monomial
in one call; a wider context reads its fields by shifts.
``exprs.format_terms`` renders the triples, and ``format_poly`` feeds it a
Poly's terms in the same order, so the text is one either way.

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
zero tests.  Each of the six products has an x factor, so a triple with
x = 0 on all three indices resolves, and only the triples that meet
I = {i : x_i != 0} are decided, in lexicographic order.

A context lives exactly as long as its presentation.  ``_contexts`` is keyed
by ``id(P)`` and the context holds no reference to P (only P's relations
dict), so the table keeps no presentation alive and a lookup never hashes
coefficients.  A finalizer on P removes its entry.  An id is reused only by
an object allocated after P's memory is freed, and the finalizer is a
weakref callback, which runs while P is being deallocated (or, for cyclic
garbage, before the collector frees it), before its memory is released.  So
no other object can carry P's id while P's entry exists, and a lookup never
finds a dead presentation's context.  Presentations equal in value but
distinct as objects get a context each; they build the same rows.
"""

from __future__ import annotations

import weakref
from itertools import combinations
from math import gcd, lcm

from .presentation import AlgebraPresentation
from .records import Record, setfield
from .scalars import ONE, _binomial, _geometric, rational

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
        self.rules = P.relations()
        # the pair rows of D_a^k D_b (``_pair_row``), keyed by the packed
        # D_a^k D_b.  nf_cache stays a dict whose values are dicts: the
        # benchmark's engine probe counts the keys of each value, and reports
        # its engine.nf_cache_* names as absent for any other shape
        self.nf_cache = {"rows": {}}
        self.width = 0
        self.fit(_DEFAULT_DEGREE)

    def fit(self, degree: int) -> None:
        """Make every exponent field hold ``degree``, the bound of a call.

        A wider field drops the rows, whose keys and terms are packed at the old width.
        """
        if degree >> self.width:
            self.width = width = degree.bit_length()
            self.shifts = tuple(range(0, width * self.n, width))
            self.units = tuple(1 << s for s in self.shifts)  # units[a - 1] = e_a
            self.nf_cache["rows"].clear()


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


def _pair_row(ctx: _Context, low: int, a: int, b: int) -> tuple:
    """The rows of D_{a+1}^k D_b = D_b σ^k + Q_k, for the run ``low`` = k e_{a+1};
    ``a`` counts letters from 0, as the fields do.  Stored under low + e_b.

    Returns (both rows, G^k, σ-row, Q-row), each row over G^k as (packed
    shift, int) pairs: the σ-row (Q t + Y)^k shifts a monomial by i e_{a+1},
    and the Q-row X t sum_{j<k} (Q t + Y)^j (G t)^(k-1-j) by i e_{a+1} - e_b,
    which also takes out the D_b that a waiting monomial carries.  Both rows
    run from the highest power down, so the first term of a combination
    usually brings the largest denominator the next letter's pass meets,
    and the pass seldom rescales its partial sums after it.
    """
    Q, X, Y, G = ctx.rules[(a + 1, b)]
    e_a, e_b = ctx.units[a], ctx.units[b - 1]
    k = low // e_a
    power = _binomial(Q, Y, k)
    sigma = power if e_a == 1 else [(i * e_a, c) for i, c in power]
    geo = [((i + 1) * e_a - e_b, X * c) for i, c in _geometric(power, Q, Y, G, k)] if X else []
    row = ctx.nf_cache["rows"][low + e_b] = sigma + geo, G ** k, sigma, geo
    return row


def _times_generator(ctx: _Context, nums: dict, den: int, b: int) -> tuple:
    """Normal form of (nums/den) D_b, as (nums, den): D_b moved through the
    lower letters one letter at a time, smallest first.

    A monomial waiting in ``todo`` carries D_b in its field already and
    stands for NF(h D_b) l, h its letters above the pass and l those below
    (see the module docstring); the monomials of ``nums`` get their D_b,
    ``lift``, in the first pass.  The pass of letter a + 1 replaces a run
    D_{a+1}^k by the pair rows: the Q-row is final, and the σ-row waits for
    the next letter unless no letter below b is left above a + 1, when it is
    final too and the two rows are added as one.  Equal waiting monomials
    are merged before the next pass, and a pass whose letter no waiting
    monomial holds is skipped.  Each pass sums over the lcm of the rows'
    denominators, as the fold does; nothing is reduced on the way.  A sum
    that cancels to 0 keeps its key: the next pass skips it, and ``_fold``
    drops it, which costs less than a test at every addition.
    """
    units, width = ctx.units, ctx.width
    rows = ctx.nf_cache["rows"]
    e_b = units[b - 1]
    if b == 1:  # no letter is below D_1, so m D_1 is already normal
        return {m + e_b: c for m, c in nums.items()}, den
    below = e_b - 1  # the fields of the letters below b
    out = {}
    get = out.get
    todo, lift, held = nums, e_b, below
    for a in range(b - 1):
        field = ((1 << width) - 1) << (a * width)
        if not held & field:
            continue
        above = below & -units[a + 1]  # the fields of the letters a + 2 .. b - 1
        waiting = {}
        wget = waiting.get
        held = 0
        common = 1
        for m, c in todo.items():
            if not c:  # a cancelled term
                continue
            low = m & field
            if low:
                both, d, sigma, geo = rows.get(low + e_b) or _pair_row(ctx, low, a, b)
                if common % d:
                    f = d // gcd(common, d)
                    for part in out, waiting:
                        for k in part:
                            part[k] *= f
                    common *= f
                c *= common // d
                m += lift - low
                if m & above:  # the run of a later letter comes next
                    held |= m
                    for k, v in sigma:
                        k += m
                        waiting[k] = wget(k, 0) + c * v
                else:  # no letter below b is left in m, so σ is final too
                    geo = both
                for k, v in geo:
                    k += m
                    out[k] = get(k, 0) + c * v
                continue
            m += lift
            if m & above:  # the run of a later letter comes first
                held |= m
                waiting[m] = wget(m, 0) + c * common
            else:  # no letter of m is below b, so m D_b is already normal
                out[m] = get(m, 0) + c * common
        den *= common
        todo, lift = waiting, 0
    return out, den


def _fold(ctx: _Context, nums: dict, den: int, word: Word) -> tuple:
    """Normal form of (nums/den) times a word, letter by letter, as (nums, den),
    with the terms that cancelled dropped."""
    for b in word:
        nums, den = _times_generator(ctx, nums, den, b)
    return {m: c for m, c in nums.items() if c}, den


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


def _fold_combination(ctx: _Context, w) -> tuple:
    """Normal form of a word or a {word: coefficient} combination, as packed (nums, den)."""
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
            if out or coeff != 1:
                common = _add_over(out, common, coeff.numerator, nums, den * coeff.denominator)
            else:  # the fold's own dict becomes the sum
                out, common = nums, den
    return out, common


def normal_form(w, P: AlgebraPresentation) -> Poly:
    """Normal form of a word, a {word: coefficient} combination, or a Poly.

    The result is supported on decreasing-index monomials only.
    """
    if isinstance(w, Poly):
        return Poly(P.n, {m: c for m, c in w.terms.items() if c})
    ctx = _context(P)
    return _poly(ctx, *_fold_combination(ctx, w))


def normal_form_terms(w, P: AlgebraPresentation) -> list:
    """Normal form of a word or a {word: coefficient} combination, ready to render.

    Returns ``(exponents, num, den)`` triples, num/den reduced with den > 0,
    in rendering order: total degree descending, then the reversed exponent
    tuple descending, which is the order of the packed monomials.  No
    Fraction is built (see the module docstring).
    """
    ctx = _context(P)
    nums, den = _fold_combination(ctx, w)
    n, width, shifts = ctx.n, ctx.width, ctx.shifts
    field = (1 << width) - 1
    top = width * max(n - 1, 0)  # the field of letter n
    above = width * n  # the bits of a packed monomial
    units = sum(ctx.units)
    keys = [((m * units >> top) & field) << above | m for m in nums]
    keys.sort(reverse=True)
    low = (1 << above) - 1
    whole_bytes = width == 8
    rows = []
    for key in keys:
        m = key & low
        v = nums[m]
        g = gcd(v, den)
        expts = (tuple(m.to_bytes(n, "little")) if whole_bytes
                 else tuple([(m >> s) & field for s in shifts]))
        rows.append((expts, v // g, den // g))
    return rows


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


class TripleCheck(Record):
    __slots__ = _compared = _shown = ("confluent", "nf_left", "nf_right")

    def __init__(self, confluent: bool, nf_left: Poly, nf_right: Poly):
        setfield(self, "confluent", confluent)
        setfield(self, "nf_left", nf_left)
        setfield(self, "nf_right", nf_right)


class PBWReport(Record):
    __slots__ = _compared = _shown = ("pbw", "first_failure")

    def __init__(self, pbw: bool, first_failure: tuple | None):
        setfield(self, "pbw", pbw)
        setfield(self, "first_failure", first_failure)


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

    Each triple that meets I is decided from the closed form in the module
    docstring; nothing is folded.  Reports the lexicographically first
    failing triple, if any.  Raises ValueError on a zero leading coefficient.
    """
    if P.zero_leads():
        i, j = P.zero_leads()[0]
        raise ValueError(f"zero leading coefficient g({i}, {j})")
    g, _ = P.g_integers()
    x = {i: num != 0 for i, (num, _) in P.x_ratios().items()}
    first_failure = next((t for t in combinations(range(1, P.n + 1), 3)
                          if (x[t[0]] or x[t[1]] or x[t[2]])
                          and not _resolves(g, x, *t)), None)
    return PBWReport(first_failure is None, first_failure)
