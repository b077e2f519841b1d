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
from itertools import repeat
from operator import itemgetter

from .engine import Poly
from .scalars import ONE, ZERO, format_ratio, parse_rational

__all__ = ["ExpressionError", "MAX_LITERAL_DIGITS", "MAX_TERM_DEGREE",
           "parse_poly", "format_poly", "format_terms", "format_word"]

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
    if len(literal) > MAX_LITERAL_DIGITS and any(
            len(part) > MAX_LITERAL_DIGITS for part in literal.split("/")):
        raise ExpressionError(f"numeric literal exceeds the limit of "
                              f"{MAX_LITERAL_DIGITS} digits", col)


# One alternative per token kind; the catch-all ``bad`` matches any other
# character, so ``finditer`` leaves no gap and stops on nothing.
_TOKEN = re.compile(
    r"\s+"
    r"|D(?P<gen>\d+)"
    r"|(?P<num>\d+(?:/\d+)?)"
    r"|(?P<op>[*^+-])"
    r"|(?P<bad>.)", re.DOTALL)


def _tokenize(text: str):
    """(kind, value, column) of each token in one regex pass; the first
    unexpected character or over-long generator index raises, in text order."""
    tokens = []
    for m in _TOKEN.finditer(text):
        kind = m.lastgroup
        if kind is None:  # whitespace
            continue
        col = m.start() + 1
        value = m[kind]
        if kind == "gen":
            _check_digits(value, col)
            value = int(value)
        elif kind == "bad":
            raise ExpressionError(f"unexpected character {value!r}", col)
        tokens.append((kind, value, col))
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
        coeff = ONE
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
                if idx >= len(tokens) or tokens[idx][0] != "gen":
                    raise ExpressionError("expected a generator factor after '*'",
                                          tokens[idx - 1][2])
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
        total = combination.get(key, ZERO) + (coeff if sign > 0 else -coeff)
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


def _term_order(term) -> tuple:
    """Sort key of a (monomial, coefficient) term: (degree, monomial_word(m)) in effect.

    Of two decreasing words of one length, the first letter that differs is
    the highest generator whose exponents differ, and the word with more of
    it is larger; so the reversed exponent tuples compare as the words do.
    """
    m = term[0]
    return sum(m), m[::-1]


class _Letter(dict):
    """The text of D_a^k by exponent k, each made on first use: "" for k = 0,
    else led by a space, so that a monomial's text is its letters' joined."""

    __slots__ = ("name",)

    def __init__(self, a: int):
        self.name = name = f" D{a}"
        super().__init__({0: "", 1: name})

    def __missing__(self, k: int) -> str:
        text = self[k] = f"{self.name}^{k}"
        return text


def format_terms(terms) -> str:
    """Canonical one-line rendering of ``(exponents, num, den)`` normal-form terms.

    The terms come in rendering order, each a reduced ratio num/den with
    den > 0 (``engine.normal_form_terms`` gives them so); no terms is "0".
    A monomial is written D_n^{k_n}...D_1^{k_1} as ``format_word`` writes
    its decreasing word: the texts of all monomials are read column by
    column, one column of letter pieces per generator, each piece made once
    per call.
    """
    terms = list(terms)
    if not terms:
        return "0"
    exponents, nums, dens = zip(*terms)
    columns = [map(_Letter(a).__getitem__, map(itemgetter(a - 1), exponents))
               for a in range(len(exponents[0]), 0, -1)]
    texts = map("".join, zip(*columns)) if columns else repeat("")  # n = 0: constants
    pieces = []
    for text, num, den in zip(texts, nums, dens):
        if num < 0:
            sign = " - "
            num = -num
        else:
            sign = " + "
        if not text:
            pieces.append(sign + format_ratio(num, den))
        elif num == 1 and den == 1:
            pieces.append(sign + text[1:])
        else:
            pieces.append(f"{sign}{format_ratio(num, den)} *{text}")
    first = pieces[0]  # " + body" or " - body"
    pieces[0] = first[3:] if first[1] == "+" else "-" + first[3:]
    return "".join(pieces)


def format_poly(p: Poly) -> str:
    """Canonical one-line rendering of a normal-form polynomial."""
    return format_terms((m, c.numerator, c.denominator)
                        for m, c in sorted(p.terms.items(), key=_term_order, reverse=True))
