"""Text grammar for algebra elements and the canonical rendering of results.

Grammar (whitespace-insensitive between tokens)::

    poly   := term (("+" | "-") term)*
    term   := RATIONAL | [RATIONAL "*"] factor+
    factor := "D" INT ["^" INT]

Input words keep their written (noncommutative) order, so ``D1 D2`` and
``D2 D1`` parse to different free words; reduction to the basis is the
engine's job.  A term may have total degree at most ``MAX_TERM_DEGREE``; the
check runs before a term's word is built, so ``D1^999999999`` is refused
without allocating it.  A numerator, denominator or generator index has at
most ``MAX_LITERAL_DIGITS`` digits, well below the 4300 that ``int()``
accepts.  Rendering always emits normal-form terms: exponents grouped with
``^``, generator indices strictly decreasing inside each word, terms ordered
by total degree (descending) and then by word (descending), constants last.
"""

from __future__ import annotations

import re

from .engine import Poly
from .scalars import format_rational, parse_rational, rational

__all__ = ["ExpressionError", "MAX_LITERAL_DIGITS", "MAX_TERM_DEGREE",
           "parse_poly", "format_poly", "format_word"]

# Largest total degree of one term.  Far above what reduces in seconds on an
# inhomogeneous table, but it keeps a written exponent from allocating a word
# of that length.
MAX_TERM_DEGREE = 1000

# Most digits, leading zeros included, of a numerator, denominator or
# generator index; exponents are bounded by MAX_TERM_DEGREE instead.
MAX_LITERAL_DIGITS = 1000


class ExpressionError(ValueError):
    """Raised when a polynomial expression does not match the grammar."""

    def __init__(self, message: str, col: int | None = None):
        if col is not None:
            message = f"{message} (column {col})"
        super().__init__(message)
        self.col = col


def _check_digits(literal: str, col: int) -> None:
    if any(len(part) > MAX_LITERAL_DIGITS for part in literal.split("/")):
        raise ExpressionError(f"numeric literal exceeds the limit of "
                              f"{MAX_LITERAL_DIGITS} digits", col)


_TOKEN = re.compile(
    r"(?P<ws>\s+)"
    r"|(?P<gen>D(?P<gi>\d+))"
    r"|(?P<num>\d+(?:/\d+)?)"
    r"|(?P<op>[*^+-])"
)


def _tokenize(text: str):
    tokens = []
    pos = 0
    while pos < len(text):
        m = _TOKEN.match(text, pos)
        if m is None:
            raise ExpressionError(f"unexpected character {text[pos]!r}", pos + 1)
        if m.lastgroup != "ws" and not (m.lastgroup == "gi"):
            if m.group("gen"):
                _check_digits(m.group("gi"), pos + 1)
                tokens.append(("gen", int(m.group("gi")), pos + 1))
            elif m.group("num"):
                tokens.append(("num", m.group("num"), pos + 1))
            else:
                tokens.append(("op", m.group("op"), pos + 1))
        pos = m.end()
    return tokens


def parse_poly(text: str, n: int) -> dict:
    """Parse a polynomial expression into a ``{word: coefficient}`` combination.

    The result maps free words (tuples of generator indices, written order
    preserved) to nonzero rational coefficients; repeated words accumulate.
    """
    tokens = _tokenize(text)
    if not tokens:
        raise ExpressionError("empty expression")
    combination: dict = {}
    idx = 0
    sign = 1
    # optional leading sign
    if tokens[idx][0] == "op" and tokens[idx][1] in "+-":
        sign = -1 if tokens[idx][1] == "-" else 1
        idx += 1

    while True:
        coeff = rational(1)
        word: list = []
        saw_coeff = False
        saw_factor = False
        if idx < len(tokens) and tokens[idx][0] == "num":
            literal, col = tokens[idx][1], tokens[idx][2]
            _check_digits(literal, col)
            try:
                coeff = parse_rational(literal)
            except ValueError as exc:  # a zero denominator
                raise ExpressionError(str(exc), col) from None
            saw_coeff = True
            idx += 1
            if idx < len(tokens) and tokens[idx][0] == "op" and tokens[idx][1] == "*":
                idx += 1
        while idx < len(tokens) and tokens[idx][0] == "gen":
            g = tokens[idx][1]
            col = tokens[idx][2]
            if not 1 <= g <= n:
                raise ExpressionError(f"generator D{g} out of range 1..{n}", col)
            saw_factor = True
            idx += 1
            k = 1
            if idx < len(tokens) and tokens[idx][0] == "op" and tokens[idx][1] == "^":
                idx += 1
                if idx >= len(tokens) or tokens[idx][0] != "num" or "/" in tokens[idx][1]:
                    raise ExpressionError("exponent must be a nonnegative integer",
                                          tokens[idx - 1][2])
                # an exponent of seven or more digits is over the cap, and
                # int() refuses strings of more than 4300 digits
                digits = tokens[idx][1].lstrip("0")
                k = int(digits or "0") if len(digits) <= 6 else MAX_TERM_DEGREE + 1
                idx += 1
            if len(word) + k > MAX_TERM_DEGREE:
                raise ExpressionError(
                    f"term degree exceeds the limit of {MAX_TERM_DEGREE}", col)
            word.extend([g] * k)
        if not saw_factor and not saw_coeff:
            col = tokens[idx][2] if idx < len(tokens) else None
            raise ExpressionError("expected a rational or a generator factor", col)
        key = tuple(word)
        total = combination.get(key, rational(0)) + sign * coeff
        if total == 0:
            combination.pop(key, None)
        else:
            combination[key] = total

        if idx >= len(tokens):
            break
        kind, val, col = tokens[idx]
        if kind != "op" or val not in "+-":
            raise ExpressionError(f"expected '+' or '-' between terms, got {val!r}", col)
        sign = -1 if val == "-" else 1
        idx += 1
        if idx >= len(tokens):
            raise ExpressionError("dangling sign at end of expression", col)
    return combination


def format_word(word: tuple) -> str:
    """Render a basis word with grouped exponents, e.g. ``D3^2 D1``."""
    if not word:
        return ""
    parts = []
    i = 0
    while i < len(word):
        j = i
        while j < len(word) and word[j] == word[i]:
            j += 1
        k = j - i
        parts.append(f"D{word[i]}" if k == 1 else f"D{word[i]}^{k}")
        i = j
    return " ".join(parts)


def _monomial_text(expts) -> str:
    """Render the PBW monomial D_n^{k_n}...D_1^{k_1} as ``format_word`` renders its word."""
    parts = []
    a = len(expts)
    for k in reversed(expts):
        if k:
            parts.append(f"D{a}" if k == 1 else f"D{a}^{k}")
        a -= 1
    return " ".join(parts)


def _term_order(term) -> tuple:
    """Sort key of a (monomial, coefficient) term: (degree, monomial_word(m)) in effect.

    Of two decreasing words of one length, the first letter that differs is
    the highest generator whose exponents differ, and the word with more of
    it is larger; so the reversed exponent tuples compare as the words do.
    """
    m = term[0]
    return sum(m), m[::-1]


def format_poly(p: Poly) -> str:
    """Canonical one-line rendering of a normal-form polynomial."""
    if p.is_zero():
        return "0"
    pieces = []
    for m, c in sorted(p.terms.items(), key=_term_order, reverse=True):
        neg = c < 0
        mag = -c if neg else c
        text = _monomial_text(m)
        if not text:
            body = format_rational(mag)
        elif mag == 1:
            body = text
        else:
            body = f"{format_rational(mag)} * {text}"
        if not pieces:
            pieces.append(f"-{body}" if neg else body)
        else:
            pieces.append(f"- {body}" if neg else f"+ {body}")
    return " ".join(pieces)
