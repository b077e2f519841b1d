"""Exact rational scalars.

Coefficients are exact rationals: the standard library's
:class:`~fractions.Fraction`, which is canonical (reduced, positive
denominator) and renders as "p/q" / "p" under str(), or the same reduced
integer ratio as a (numerator, denominator) pair where a module computes on
integers (``parse_ratio``).
"""

from __future__ import annotations

from decimal import Decimal
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
    """
    s = text.strip()
    num, slash, den = s.partition("/")
    if not slash:
        return int(s), 1
    p = int(num.strip())
    q = int(den.strip())
    if q == 0:
        raise ValueError("zero denominator in rational %r" % text)
    g = gcd(p, q)
    if q < 0:
        g = -g
    return p // g, q // g


def parse_rational(text: str):
    """Parse "p" or "p/q" (optional leading minus) into a scalar.

    Raises ValueError on malformed input or zero denominator.
    """
    return rational(*parse_ratio(text))


def format_rational(q) -> str:
    """Canonical text form: "p" for integers, "p/q" otherwise."""
    try:
        return str(q)
    except ValueError:
        # str() refuses integers longer than sys.get_int_max_str_digits();
        # Decimal converts an int exactly and prints it without that limit.
        num = str(Decimal(q.numerator))
        return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"
