"""Exact rational scalars.

All coefficient arithmetic in this package is exact rational arithmetic on
the standard library's :class:`~fractions.Fraction`, which is canonical
(reduced, positive denominator) and renders as "p/q" / "p" under str().
"""

from __future__ import annotations

from decimal import Decimal
from fractions import Fraction

BACKEND = "fractions"


def rational(value=0, denominator=None):
    if denominator is None:
        return Fraction(value)
    return Fraction(value, denominator)


ZERO = rational(0)
ONE = rational(1)


def parse_rational(text: str):
    """Parse "p" or "p/q" (optional leading minus) into a scalar.

    Raises ValueError on malformed input or zero denominator.
    """
    s = text.strip()
    if "/" in s:
        num, _, den = s.partition("/")
        n = int(num.strip())
        d = int(den.strip())
        if d == 0:
            raise ValueError("zero denominator in rational %r" % text)
        return rational(n, d)
    return rational(int(s))


def format_rational(q) -> str:
    """Canonical text form: "p" for integers, "p/q" otherwise."""
    try:
        return str(q)
    except ValueError:
        # str() refuses integers longer than sys.get_int_max_str_digits();
        # Decimal converts an int exactly and prints it without that limit.
        num = str(Decimal(q.numerator))
        return num if q.denominator == 1 else f"{num}/{Decimal(q.denominator)}"
