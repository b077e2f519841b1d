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
"""

from __future__ import annotations

from .scalars import ZERO, format_rational, parse_rational


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


class AlgebraPresentation:
    """Immutable coefficient data (n, g, x) of a diffusion-algebra presentation."""

    # __weakref__ lets the engine free a presentation's context with it
    __slots__ = ("n", "_g", "_x", "_sig", "_hash", "__weakref__")

    def __init__(self, n: int, g: dict, x: dict):
        self.n = n
        full_g = {}
        for i in range(1, n + 1):
            for j in range(1, n + 1):
                if i != j:
                    full_g[(i, j)] = g.get((i, j), ZERO)
        full_x = {i: x.get(i, ZERO) for i in range(1, n + 1)}
        self._g = full_g
        self._x = full_x
        # the value compared and hashed, built on the first __eq__ or __hash__
        self._sig = None
        self._hash = None

    def _signature(self) -> tuple:
        if self._sig is None:
            self._sig = (
                self.n,
                tuple(self._g[k] for k in sorted(self._g)),
                tuple(self._x[i] for i in range(1, self.n + 1)),
            )
        return self._sig

    def g(self, i: int, j: int):
        return self._g[(i, j)]

    def x(self, i: int):
        return self._x[i]

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
        for (i, j) in sorted(self._g):
            v = self._g[(i, j)]
            if v != 0 or (i < j):
                lines.append(f"g {i} {j} = {format_rational(v)}")
        for i in range(1, self.n + 1):
            if self._x[i] != 0:
                lines.append(f"x {i} = {format_rational(self._x[i])}")
        return "\n".join(lines) + "\n"


# Characters of an offending token that an error message repeats.
QUOTED_TOKEN_CHARS = 20

# Largest generator count a file may declare, refused before any n x n table
# is built.  ``smooth`` is the costliest command at large n: its witness
# check maps each of the n(n-1)/2 relations by each of the n automorphisms.
# On the uniform table g = 3/2, x_i = (-1)^i i/3, which is PBW, ``smooth``
# took 4.5 s and 22 MiB peak RSS at n = 48 and 10.4 s at n = 64, while
# ``check-pbw`` took 0.06 s at 48 and 0.10 s at 64 and ``classify`` 0.02 s at
# 48 (2-core x86-64 container, Python 3.11, 2026-10-18).  The tests and
# fixtures use at most 12.
MAX_GENERATORS = 48

# Violations ``validate_presentation`` lists one by one; the rest are counted.
MAX_LISTED_VIOLATIONS = 10


def _quoted(token: str) -> str:
    """``token`` as an error quotes it: whole when short, else its head and length."""
    if len(token) <= QUOTED_TOKEN_CHARS:
        return repr(token)
    return f"{token[:QUOTED_TOKEN_CHARS]!r}... ({len(token)} characters)"


def _strip_comment(line: str) -> str:
    pos = line.find("#")
    return line if pos < 0 else line[:pos]


def parse_presentation(text: str) -> AlgebraPresentation:
    """Parse presentation-file contents.

    Errors (all PresentationError with line/column): syntax errors, duplicate
    assignment, index out of range 1..n, explicit zero leading coefficient
    g(i,j) = 0 with i < j, missing n declaration.
    """
    n = None
    g: dict = {}
    x: dict = {}

    for lineno, raw in enumerate(text.splitlines(), start=1):
        line = _strip_comment(raw)
        if not line.strip():
            continue
        tokens = line.split()
        col = line.find(tokens[0]) + 1

        def fail(msg, c=col):
            raise PresentationError(msg, lineno, c)

        head = tokens[0]
        if head == "n":
            if len(tokens) != 3 or tokens[1] != "=":
                fail("expected 'n = INT'")
            if n is not None:
                fail("duplicate assignment of n")
            try:
                n = int(tokens[2])
            except ValueError:
                fail(f"invalid integer {_quoted(tokens[2])}", line.find(tokens[2]) + 1)
            if n > MAX_GENERATORS:
                fail(f"n must be at most {MAX_GENERATORS}, got {_quoted(tokens[2])}",
                     line.find(tokens[2]) + 1)
        elif head == "g":
            if len(tokens) != 5 or tokens[3] != "=":
                fail("expected 'g I J = RATIONAL'")
            if n is None:
                fail("'n = INT' must precede coefficient assignments")
            try:
                i, j = int(tokens[1]), int(tokens[2])
            except ValueError:
                fail("generator indices must be integers")
            if not (1 <= i <= n) or not (1 <= j <= n):
                fail(f"index out of range 1..{n} in "
                     f"{_quoted(f'g {tokens[1]} {tokens[2]}')}")
            if i == j:
                fail(f"g requires two distinct indices, got ({i}, {j})")
            if (i, j) in g:
                fail(f"duplicate assignment of g({i}, {j})")
            try:
                value = parse_rational(tokens[4])
            except ValueError:
                fail(f"invalid rational {_quoted(tokens[4])}", line.find(tokens[4]) + 1)
            if i < j and value == 0:
                fail(f"zero leading coefficient g({i}, {j}); relations require g(i, j) != 0 for i < j")
            g[(i, j)] = value
        elif head == "x":
            if len(tokens) != 4 or tokens[2] != "=":
                fail("expected 'x I = RATIONAL'")
            if n is None:
                fail("'n = INT' must precede coefficient assignments")
            try:
                i = int(tokens[1])
            except ValueError:
                fail("generator index must be an integer")
            if not (1 <= i <= n):
                fail(f"index out of range 1..{n} in {_quoted(f'x {tokens[1]}')}")
            if i in x:
                fail(f"duplicate assignment of x({i})")
            try:
                x[i] = parse_rational(tokens[3])
            except ValueError:
                fail(f"invalid rational {_quoted(tokens[3])}", line.find(tokens[3]) + 1)
        else:
            fail(f"unrecognized statement {_quoted(head)}")

    if n is None:
        raise PresentationError("no 'n = INT' declaration found")
    return AlgebraPresentation(n, g, x)


def load_presentation(path) -> AlgebraPresentation:
    with open(path, "r", encoding="utf-8") as fh:
        return parse_presentation(fh.read())


def validate_presentation(P: AlgebraPresentation) -> list[str]:
    """Structural validation. Returns a list of violations (empty = valid).

    At most ``MAX_LISTED_VIOLATIONS`` zero leading coefficients are listed;
    a last entry counts the rest.  Family-specific coefficient restrictions
    are the classifier's concern.
    """
    violations = []
    if P.n < 2:
        violations.append(f"degenerate generator count n = {P.n} (need n >= 2)")
    zeros = [(i, j) for i in range(1, P.n + 1) for j in range(i + 1, P.n + 1)
             if P.g(i, j) == 0]
    for i, j in zeros[:MAX_LISTED_VIOLATIONS]:
        violations.append(f"zero leading coefficient g({i}, {j})")
    if len(zeros) > MAX_LISTED_VIOLATIONS:
        violations.append(f"{len(zeros) - MAX_LISTED_VIOLATIONS} more zero "
                          f"leading coefficients")
    return violations
