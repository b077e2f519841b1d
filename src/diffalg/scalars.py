"""Exact rational scalars.

Coefficients are exact rationals: the standard library's
:class:`~fractions.Fraction`, which is canonical (reduced, positive
denominator) and renders as "p/q" / "p" under str(), or the same reduced
integer ratio as a (numerator, denominator) pair where a module computes on
integers (``parse_ratio``).
"""

from __future__ import annotations

import sys
from fractions import Fraction
from math import gcd

BACKEND = "fractions"


def rational(value=0, denominator=None):
    if denominator is None:
        return Fraction(value)
    return Fraction(value, denominator)


ZERO = rational(0)
ONE = rational(1)


def parse_ratio(text: str) -> tuple:
    """Parse "p" or "p/q" (optional leading minus) into a reduced integer ratio.

    Returns (numerator, denominator) with denominator > 0 and no common
    factor, the pair ``Fraction`` would hold.  Raises ValueError on
    malformed input or zero denominator.

    Whitespace around the text and around either side of "/" is skipped by
    ``int()`` itself.  That is every character ``str.strip()`` removes but
    the four ASCII separators U+001C..U+001F, which ``int()`` refuses; the
    parsers split their text on whitespace (``str.split``, whose whitespace
    includes those four) before they call this, so no token carries one.
    """
    num, slash, den = text.partition("/")
    if not slash:
        return int(text), 1
    p = int(num)
    q = int(den)
    if q == 0:
        raise ValueError("zero denominator in rational %r" % text)
    g = gcd(p, q)
    if q < 0:
        g = -g
    return p // g, q // g


def reduced(num: int, den: int) -> tuple:
    """num/den, den != 0, as the reduced ratio with a positive denominator."""
    g = gcd(num, den)
    if den < 0:
        g = -g
    return num // g, den // g


def parse_rational(text: str):
    """Parse "p" or "p/q" (optional leading minus) into a scalar.

    Raises ValueError on malformed input or zero denominator.
    """
    return rational(*parse_ratio(text))


def _int_text(num: int) -> str:
    """str(num), also past ``sys.get_int_max_str_digits()``, read at each call.

    str() refuses an int of more digits than that limit.  Such an int is
    converted by divide and conquer (Brent & Zimmermann, *Modern Computer
    Arithmetic*, 2010, section 1.7): with P = 10^(2^k) the least such power
    whose square exceeds |num|, split |num| as hi P + lo and render each half
    as 2^k digits, splitting again by 10^(2^(k-1)) until a piece's digits
    are within the limit; the leading zeros of the whole are then dropped.
    """
    try:
        return str(num)
    except ValueError:
        pass
    limit = sys.get_int_max_str_digits()
    powers = [10]  # powers[k] = 10^(2^k), up to the first whose square exceeds |num|
    while powers[-1] * powers[-1] <= abs(num):
        powers.append(powers[-1] * powers[-1])

    def digits(value: int, k: int) -> str:
        """The 2^(k+1) digits of 0 <= value < 10^(2^(k+1)), leading zeros kept."""
        if 2 << k <= limit:
            return str(value).zfill(2 << k)
        hi, lo = divmod(value, powers[k])
        return digits(hi, k - 1) + digits(lo, k - 1)

    text = digits(abs(num), len(powers) - 1).lstrip("0")
    return "-" + text if num < 0 else text


def format_ratio(num: int, den: int) -> str:
    """Canonical text of the reduced ratio num/den, den > 0: "p" or "p/q"."""
    try:
        return str(num) if den == 1 else f"{num}/{den}"
    except ValueError:
        # an int past str()'s digit limit
        return _int_text(num) if den == 1 else f"{_int_text(num)}/{_int_text(den)}"


def format_rational(q) -> str:
    """Canonical text form: "p" for integers, "p/q" otherwise."""
    return format_ratio(q.numerator, q.denominator)
