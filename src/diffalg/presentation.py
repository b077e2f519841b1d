"""Presentations of diffusion algebras.

A presentation on n generators D_1..D_n is the coefficient data {g(i,j)}, {x(i)}
of the defining quadratic relations: for every pair i < j,

    g(i,j) D_i D_j - g(j,i) D_j D_i = x(j) D_i - x(i) D_j

with the leading coefficient g(i,j) (i < j) required to be nonzero.  Unspecified
g(j,i) and x(i) default to 0.

File grammar (UTF-8 text, '#' starts a comment to end of line, one statement per
line, whitespace-insensitive around tokens):

    line := "n = " INT | "g " INT INT " = " RATIONAL | "x " INT " = " RATIONAL
    RATIONAL := "-"? DIGITS ("/" DIGITS)?

Storage is integer.  The parser reads each literal as a reduced integer ratio
(``scalars.parse_ratio``) and builds no ``Fraction``.  An
``AlgebraPresentation`` keeps every g(i, j) as an integer numerator over one
positive denominator, the lcm of the g denominators (``g_integers``), and
every x(i) as its reduced ratio (``x_ratios``).  The PBW check and the
engine's rewriting rules read these integers directly, and zero tests read
the numerators.  ``P.g`` and ``P.x`` return exact ``Fraction`` values, each
built on its first use and kept, so equality, hashing and ``render`` see the
same rationals as before.
"""

from __future__ import annotations

from math import lcm

from .scalars import format_rational, parse_ratio, rational


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
    absent entries are 0.
    """

    # __weakref__ lets the engine free a presentation's context with it
    __slots__ = ("n", "_g", "_den", "_x", "_gq", "_xq", "_sig", "_hash",
                 "__weakref__")

    def __init__(self, n: int, g: dict, x: dict):
        self._store(n, {k: v.as_integer_ratio() for k, v in g.items()},
                    {k: v.as_integer_ratio() for k, v in x.items()})

    @classmethod
    def _from_ratios(cls, n: int, g: dict, x: dict) -> "AlgebraPresentation":
        """A presentation from reduced (numerator, denominator > 0) pairs."""
        P = object.__new__(cls)
        P._store(n, g, x)
        return P

    def _store(self, n: int, g: dict, x: dict) -> None:
        self.n = n
        nums = {(i, j): 0 for i in range(1, n + 1) for j in range(1, n + 1)
                if i != j}
        given = [(key, ratio) for key, ratio in g.items() if key in nums]
        den = lcm(*(d for _, (_, d) in given))
        for key, (num, d) in given:
            nums[key] = num * (den // d)
        self._g = nums
        self._den = den
        self._x = {i: x.get(i, _ZERO_RATIO) for i in range(1, n + 1)}
        # the Fraction values, each built on its first use
        self._gq = {}
        self._xq = {}
        # the value compared and hashed, built on the first __eq__ or __hash__
        self._sig = None
        self._hash = None

    def _signature(self) -> tuple:
        if self._sig is None:
            self._sig = (
                self.n,
                tuple(self.g(i, j) for i, j in self._g),
                tuple(self.x(i) for i in range(1, self.n + 1)),
            )
        return self._sig

    def g(self, i: int, j: int):
        try:
            return self._gq[i, j]
        except KeyError:
            value = self._gq[i, j] = rational(self._g[i, j], self._den)
            return value

    def x(self, i: int):
        try:
            return self._xq[i]
        except KeyError:
            value = self._xq[i] = rational(*self._x[i])
            return value

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

    @property
    def generators(self) -> range:
        return range(1, self.n + 1)

    def __eq__(self, other):
        return (isinstance(other, AlgebraPresentation)
                and self._signature() == other._signature())

    def __hash__(self):
        if self._hash is None:
            self._hash = hash(self._signature())
        return self._hash

    def __repr__(self):
        return f"AlgebraPresentation(n={self.n})"

    def render(self) -> str:
        """Canonical text form; parse(render(P)) == P."""
        lines = [f"n = {self.n}"]
        for (i, j), num in self._g.items():
            if num or i < j:
                lines.append(f"g {i} {j} = {format_rational(self.g(i, j))}")
        for i, (num, _) in self._x.items():
            if num:
                lines.append(f"x {i} = {format_rational(self.x(i))}")
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


def parse_presentation(text: str) -> AlgebraPresentation:
    """Parse presentation-file contents.

    Errors (all PresentationError with line/column): syntax errors, duplicate
    assignment, index out of range 1..n, explicit zero leading coefficient
    g(i,j) = 0 with i < j, missing n declaration.  An error points at the
    offending value, or else at the line's first token.
    """
    n = None
    g: dict = {}
    x: dict = {}

    for lineno, line in enumerate(text.splitlines(), start=1):
        comment = line.find("#")
        if comment >= 0:
            line = line[:comment]
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
            if (i, j) in g:
                _fail(f"duplicate assignment of g({i}, {j})", lineno, line, head)
            try:
                value = parse_ratio(tokens[4])
            except ValueError:
                _fail(f"invalid rational {_quoted(tokens[4])}",
                      lineno, line, tokens[4])
            if i < j and not value[0]:
                _fail(f"zero leading coefficient g({i}, {j}); relations require "
                      f"g(i, j) != 0 for i < j", lineno, line, head)
            g[(i, j)] = value
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
        else:
            _fail(f"unrecognized statement {_quoted(head)}", lineno, line, head)

    if n is None:
        raise PresentationError("no 'n = INT' declaration found")
    return AlgebraPresentation._from_ratios(n, g, x)


def load_presentation(path) -> AlgebraPresentation:
    """Read and parse a presentation file; a byte that is not UTF-8 is a PresentationError."""
    with open(path, "rb") as fh:
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
    nums, _ = P.g_integers()
    zeros = [(i, j) for (i, j), num in nums.items() if i < j and not num]
    for i, j in zeros[:MAX_LISTED_VIOLATIONS]:
        violations.append(f"zero leading coefficient g({i}, {j})")
    if len(zeros) > MAX_LISTED_VIOLATIONS:
        violations.append(f"{len(zeros) - MAX_LISTED_VIOLATIONS} more zero "
                          f"leading coefficients")
    return violations
