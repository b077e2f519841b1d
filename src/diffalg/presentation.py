"""Presentations of diffusion algebras.

A presentation on n generators D_1..D_n is the coefficient data {g(i,j)}, {x(i)}
of the defining quadratic relations: for every pair i < j,

    g(i,j) D_i D_j - g(j,i) D_j D_i = x(j) D_i - x(i) D_j

with the leading coefficient g(i,j) (i < j) required to be nonzero.  Unspecified
g(j,i) and x(i) default to 0.

File grammar (UTF-8 text).  A line is a ``str.splitlines`` line: CR LF, a
lone CR, a form feed, U+2028 and the other Unicode line boundaries end a
line as LF does, and line numbers count them.  '#' starts a comment to the
end of its line.  One statement per line; its tokens are separated by
whitespace (``str.split``), so "n=3" is one token and not a statement:

    line     := "n" "=" INT | "g" INT INT "=" RATIONAL | "x" INT "=" RATIONAL
    RATIONAL := INT | INT "/" INT

An INT is whatever ``int()`` reads in base 10: an optional sign, decimal
digits (non-ASCII ones included) and single underscores between digits, at
most ``sys.get_int_max_str_digits()`` digits.  A denominator may be negative
but not zero.

Storage is integer.  The parser reads each literal as a reduced integer ratio
and builds no ``Fraction``.  An ``AlgebraPresentation`` keeps every g(i, j)
as an integer numerator over one positive denominator, the lcm of the g
denominators (``g_integers``), and every x(i) as its reduced ratio
(``x_ratios``).  The parser fills that integer table in its one pass over the
text, raising the denominator as new ones are read, and hands over the zero
leading coefficients (``zero_leads``): the pairs i < j that no g line wrote.
The relations as integers (``relations``) are built on first use and kept.
The PBW check, the engine and the witness checks read these.  Equality,
hashing and ``render`` read the integers, and ``P.g`` and ``P.x`` build an
exact ``Fraction`` on each call.
"""

from __future__ import annotations

import functools
from math import gcd, lcm

from .scalars import format_ratio, parse_ratio, rational, reduced


class PresentationError(ValueError):
    """Raised on malformed presentation text (carries line/column info)."""

    def __init__(self, message: str, line: int | None = None, col: int | None = None):
        if line is not None:
            loc = f"line {line}"
            if col is not None:
                loc += f", col {col}"
            message = f"{loc}: {message}"
        super().__init__(message)
        self.line = line
        self.col = col


_ZERO_RATIO = (0, 1)


class AlgebraPresentation:
    """Immutable coefficient data (n, g, x) of a diffusion-algebra presentation.

    ``g`` and ``x`` map (i, j) and i to rationals (``Fraction`` or ``int``);
    absent entries are 0, and a key outside the table is a ValueError.

    Two presentations are equal when their ``(n, den, g numerators, x
    ratios)`` are.  That form is canonical: both constructors take ``den``
    as the lcm of the reduced g denominators, so equal g values give one
    ``den`` and one numerator each, and every x ratio is reduced with a
    positive denominator.
    """

    # __weakref__ lets the engine free a presentation's context with it
    __slots__ = ("n", "_g", "_den", "_x", "_zero_leads", "_relations",
                 "__weakref__")

    def __init__(self, n: int, g: dict, x: dict):
        nums = {(i, j): 0 for i in range(1, n + 1) for j in range(1, n + 1)
                if i != j}
        for key in g:
            if key not in nums:
                raise ValueError(f"g key {key!r} is not a pair of distinct "
                                 f"indices in 1..{n}")
        for i in x:
            if i not in range(1, n + 1):
                raise ValueError(f"x key {i!r} is not an index in 1..{n}")
        given = [(key, v.as_integer_ratio()) for key, v in g.items()]
        den = lcm(*(d for _, (_, d) in given))
        for key, (num, d) in given:
            nums[key] = num * (den // d)
        ratios = {i: v.as_integer_ratio() for i, v in x.items()}
        self._store(n, nums, den,
                    {i: ratios.get(i, _ZERO_RATIO) for i in range(1, n + 1)},
                    [key for key, num in nums.items() if not num and key[0] < key[1]])

    @classmethod
    def _from_integers(cls, n: int, nums: dict, den: int, x: dict,
                       zero_leads: list) -> "AlgebraPresentation":
        """A presentation that owns its tables, shaped as ``g_integers``,
        ``x_ratios`` and ``zero_leads`` return them."""
        P = object.__new__(cls)
        P._store(n, nums, den, x, zero_leads)
        return P

    def _store(self, n: int, nums: dict, den: int, x: dict,
               zero_leads: list) -> None:
        self.n = n
        self._g = nums
        self._den = den
        self._x = x
        self._zero_leads = zero_leads
        self._relations = None  # built by the first relations()

    def g(self, i: int, j: int):
        return rational(self._g[i, j], self._den)

    def x(self, i: int):
        return rational(*self._x[i])

    def g_integers(self) -> tuple:
        """(nums, den) with g(i, j) = nums[(i, j)] / den for every pair i != j.

        ``den`` > 0 is the lcm of the denominators of the g, and ``nums``
        lists the pairs in lexicographic order.  Both belong to the
        presentation: callers read them and never write to them.
        """
        return self._g, self._den

    def x_ratios(self) -> dict:
        """i -> (numerator, denominator > 0) of x(i), reduced; read only."""
        return self._x

    def zero_leads(self) -> list:
        """The pairs (i, j), i < j, with g(i, j) = 0, in lexicographic order;
        read only.  No relation rewrites such a pair."""
        return self._zero_leads

    def relations(self) -> dict:
        """(a, b) with a < b -> (Q, X, Y, G), coprime, G >= 0, read only:
        the relation of the pair as the rule G D_a D_b -> Q D_b D_a + X D_a + Y D_b.

        With g(a,b) = A/L and g(b,a) = B/L over the presentation's one g
        denominator L, and x(a) = p/r, x(b) = s/t, the relation times L r t
        is A r t D_a D_b -> B r t D_b D_a + s L r D_a - p L t D_b: integer
        products alone, then divided by their gcd.  G = 0 exactly on a zero
        leading coefficient.  Built on the first call and kept; only the
        commands that rewrite or check a twisting family ask for it.
        """
        if self._relations is None:
            nums, L = self._g, self._den
            x = self._x
            relations = {}
            for (a, b), A in nums.items():
                if a < b:
                    (p, r), (s, t) = x[a], x[b]
                    Q = nums[b, a] * r * t
                    X = s * L * r
                    Y = -p * L * t
                    G = A * r * t
                    d = gcd(Q, X, Y, G) or 1  # a zero relation stays zero
                    if G < 0:
                        d = -d
                    relations[a, b] = Q // d, X // d, Y // d, G // d
            self._relations = relations
        return self._relations

    @property
    def generators(self) -> range:
        return range(1, self.n + 1)

    def __eq__(self, other):
        return (isinstance(other, AlgebraPresentation)
                and self.n == other.n and self._den == other._den
                and self._g == other._g and self._x == other._x)

    def __hash__(self):
        return hash((self.n, self._den, tuple(self._g.values()),
                     tuple(self._x.values())))

    def __repr__(self):
        return f"AlgebraPresentation(n={self.n})"

    def render(self) -> str:
        """Canonical text form; parse(render(P)) == P."""
        den = self._den
        lines = [f"n = {self.n}"]
        for (i, j), num in self._g.items():
            if num or i < j:
                lines.append(f"g {i} {j} = {format_ratio(*reduced(num, den))}")
        for i, ratio in self._x.items():
            if ratio[0]:
                lines.append(f"x {i} = {format_ratio(*ratio)}")
        return "\n".join(lines) + "\n"


# Characters of an offending token that an error message repeats.
QUOTED_TOKEN_CHARS = 20

# Largest generator count a file may declare, refused before any n x n table
# is built.  ``smooth`` is the costliest command at large n: its witness
# check decides three integer identities for each of the n(n-1)/2 relations
# under each of the n automorphisms.  On the uniform table g = 3/2,
# x_i = (-1)^i i/3, which is PBW, ``smooth`` took 0.20-0.21 s and 22 MiB peak
# RSS at n = 48, 0.41-0.45 s at 64 and 1.1-1.3 s at 96, while ``check-pbw``
# took 0.06 s at 48 and 0.10 s at 64 and ``classify`` 0.02 s at 48 (2-core
# x86-64 container, Python 3.11, 2026-10-18).  The cap was set when ``smooth``
# took 4.5 s at 48 and has not been raised since.  The tests and fixtures use
# at most 12.
MAX_GENERATORS = 48

# Violations ``validate_presentation`` lists one by one; the rest are counted.
MAX_LISTED_VIOLATIONS = 10


def _quoted(token: str) -> str:
    """``token`` as an error quotes it: whole when short, else its head and length."""
    if len(token) <= QUOTED_TOKEN_CHARS:
        return repr(token)
    return f"{token[:QUOTED_TOKEN_CHARS]!r}... ({len(token)} characters)"


def _fail(message: str, lineno: int, line: str, token: str):
    """Raise ``message`` at the first occurrence of ``token`` in the line."""
    raise PresentationError(message, lineno, line.find(token) + 1)


@functools.cache
def _pair_keys(n: int) -> dict:
    """(str(i), str(j)) -> (i, j) for each pair i != j of 1..n, in g table order.

    The g keys of a presentation on n generators, by the plain spelling of
    their index tokens; shared by every parse, so read only.
    ``parse_presentation`` asks only for 0 <= n <= MAX_GENERATORS, which
    bounds the cache.
    """
    spelled = [str(i) for i in range(n + 1)]
    indices = range(1, n + 1)
    return {(spelled[i], spelled[j]): (i, j) for i in indices for j in indices
            if i != j}


def _checked_pair(tokens: list, n: int, given: set, lineno: int, line: str) -> tuple:
    """The key of a g line that ``_pair_keys`` does not give, or that is taken.

    Reads the indices with ``int()`` and raises the first of: not integers,
    out of range, equal, assigned before.  A key that passes was spelled
    another way (a sign, a leading zero, an underscore, other digits).
    """
    head = tokens[0]
    try:
        i, j = int(tokens[1]), int(tokens[2])
    except ValueError:
        _fail("generator indices must be integers", lineno, line, head)
    if not (1 <= i <= n) or not (1 <= j <= n):
        _fail(f"index out of range 1..{n} in "
              f"{_quoted(f'g {tokens[1]} {tokens[2]}')}", lineno, line, head)
    if i == j:
        _fail(f"g requires two distinct indices, got ({i}, {j})",
              lineno, line, head)
    if (i, j) in given:
        _fail(f"duplicate assignment of g({i}, {j})", lineno, line, head)
    return i, j


def parse_presentation(text: str) -> AlgebraPresentation:
    """Parse presentation-file contents.

    Errors (all PresentationError with line/column): syntax errors, duplicate
    assignment, index out of range 1..n, explicit zero leading coefficient
    g(i,j) = 0 with i < j, missing n declaration.  An error points at the
    offending value, or else at the line's first token.

    One pass: the ``n`` line makes the integer g table, all zeros, and each
    g line writes its numerator over ``den``, the lcm of the denominators
    read so far; a denominator that does not divide ``den`` raises it and
    rescales the numerators already written.
    """
    n = None
    pairs = nums = None
    den = 1
    leads = 0  # g lines of a pair i < j, each nonzero
    given: set = set()
    x: dict = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        if "#" in line:
            line = line[:line.find("#")]
        tokens = line.split()
        if not tokens:
            continue
        head = tokens[0]
        if head == "g":
            if len(tokens) != 5 or tokens[3] != "=":
                _fail("expected 'g I J = RATIONAL'", lineno, line, head)
            if n is None:
                _fail("'n = INT' must precede coefficient assignments",
                      lineno, line, head)
            key = pairs.get((tokens[1], tokens[2]))
            if key is None or key in given:
                key = _checked_pair(tokens, n, given, lineno, line)
            literal = tokens[4]
            try:
                num, d = parse_ratio(literal) if "/" in literal else (int(literal), 1)
            except ValueError:
                _fail(f"invalid rational {_quoted(literal)}", lineno, line, literal)
            i, j = key
            if i < j:
                if not num:
                    _fail(f"zero leading coefficient g({i}, {j}); relations "
                          f"require g(i, j) != 0 for i < j", lineno, line, head)
                leads += 1
            if den % d:
                scale = d // gcd(den, d)
                den *= scale
                for written in given:
                    nums[written] *= scale
            given.add(key)
            nums[key] = num * (den // d)
        elif head == "x":
            if len(tokens) != 4 or tokens[2] != "=":
                _fail("expected 'x I = RATIONAL'", lineno, line, head)
            if n is None:
                _fail("'n = INT' must precede coefficient assignments",
                      lineno, line, head)
            try:
                i = int(tokens[1])
            except ValueError:
                _fail("generator index must be an integer", lineno, line, head)
            if not (1 <= i <= n):
                _fail(f"index out of range 1..{n} in {_quoted(f'x {tokens[1]}')}",
                      lineno, line, head)
            if i in x:
                _fail(f"duplicate assignment of x({i})", lineno, line, head)
            try:
                x[i] = parse_ratio(tokens[3])
            except ValueError:
                _fail(f"invalid rational {_quoted(tokens[3])}",
                      lineno, line, tokens[3])
        elif head == "n":
            if len(tokens) != 3 or tokens[1] != "=":
                _fail("expected 'n = INT'", lineno, line, head)
            if n is not None:
                _fail("duplicate assignment of n", lineno, line, head)
            try:
                n = int(tokens[2])
            except ValueError:
                _fail(f"invalid integer {_quoted(tokens[2])}",
                      lineno, line, tokens[2])
            if n > MAX_GENERATORS:
                _fail(f"n must be at most {MAX_GENERATORS}, got {_quoted(tokens[2])}",
                      lineno, line, tokens[2])
            # a negative n shares the empty table of 0: the cache stays bounded
            pairs = _pair_keys(max(n, 0))
            nums = dict.fromkeys(pairs.values(), 0)
        else:
            _fail(f"unrecognized statement {_quoted(head)}", lineno, line, head)

    if n is None:
        raise PresentationError("no 'n = INT' declaration found")
    ratios = dict.fromkeys(range(1, n + 1), _ZERO_RATIO)
    ratios.update(x)
    zero_leads = [] if leads == n * (n - 1) // 2 else [
        key for key in pairs.values() if key[0] < key[1] and key not in given]
    return AlgebraPresentation._from_integers(n, nums, den, ratios, zero_leads)


def load_presentation(path) -> AlgebraPresentation:
    """Read and parse a presentation file; a byte that is not UTF-8 is a PresentationError."""
    # unbuffered: the whole file in one read, with no buffer object to build
    with open(path, "rb", buffering=0) as fh:
        data = fh.read()
    try:
        text = data.decode("utf-8")
    except UnicodeDecodeError as exc:
        # the bytes before the first bad one decode, so its column is exact
        start = data.rfind(b"\n", 0, exc.start) + 1
        raise PresentationError(f"invalid UTF-8 byte 0x{data[exc.start]:02x}",
                                data.count(b"\n", 0, exc.start) + 1,
                                len(data[start:exc.start].decode("utf-8")) + 1) from None
    return parse_presentation(text)


def validate_presentation(P: AlgebraPresentation) -> list[str]:
    """Structural validation. Returns a list of violations (empty = valid).

    At most ``MAX_LISTED_VIOLATIONS`` zero leading coefficients are listed;
    a last entry counts the rest.  Family-specific coefficient restrictions
    are the classifier's concern.
    """
    violations = []
    if P.n < 2:
        violations.append(f"degenerate generator count n = {P.n} (need n >= 2)")
    zeros = P.zero_leads()
    for i, j in zeros[:MAX_LISTED_VIOLATIONS]:
        violations.append(f"zero leading coefficient g({i}, {j})")
    if len(zeros) > MAX_LISTED_VIOLATIONS:
        violations.append(f"{len(zeros) - MAX_LISTED_VIOLATIONS} more zero "
                          f"leading coefficients")
    return violations
