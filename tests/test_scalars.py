"""``scalars.parse_ratio`` and ``format_ratio`` on their own.

``parse_ratio`` leaves whitespace to ``int()``; ``_stripped_ratio`` is the
reading that strips the text and each side of "/" first, and both must give
the same pair, or both raise ValueError, on every text a parser can pass.
"""

import random
import sys
from decimal import Decimal
from fractions import Fraction

import pytest

from diffalg.scalars import format_ratio, format_rational, parse_ratio

# every character str.isspace() accepts
WHITESPACE = [c for c in map(chr, range(sys.maxunicode + 1)) if c.isspace()]
# the ones int() does not skip; str.split() and str.splitlines() break on them
SEPARATORS = "\x1c\x1d\x1e\x1f"


def _stripped_ratio(text: str) -> tuple:
    s = text.strip()
    num, slash, den = s.partition("/")
    if not slash:
        return int(s), 1
    p, q = int(num.strip()), int(den.strip())
    if q == 0:
        raise ValueError("zero denominator")
    value = Fraction(p, q)
    return value.numerator, value.denominator


def _reading(parse, text):
    try:
        return parse(text)
    except ValueError:
        return ValueError


@pytest.mark.parametrize("text", ["7", "-7", "+7", "0", "6/4", "-6/4", "6/-4", "-0/5",
                                  "1_000/10", "007/0021"])
@pytest.mark.parametrize("pad", [" ", "\t", "\n", " \r\n\x0b\x0c "])
def test_padding_gives_the_same_value(text, pad):
    want = _stripped_ratio(text)
    num, slash, den = text.partition("/")
    for padded in (pad + text + pad, f"{pad}{num}{pad}{slash}{pad}{den}{pad}" if slash else text):
        assert parse_ratio(padded) == want == _stripped_ratio(padded)


def test_unicode_whitespace_gives_the_same_value():
    assert len(WHITESPACE) == 29
    for c in WHITESPACE:
        if c in SEPARATORS:
            continue
        for text in (f"{c}12{c}", f"{c}-12{c}/{c}18{c}", f"3{c}/{c}4"):
            assert parse_ratio(text) == _stripped_ratio(text), repr(text)


def test_information_separators_are_refused_and_never_reach_a_token():
    for c in SEPARATORS:
        assert c.isspace()
        with pytest.raises(ValueError):
            parse_ratio(f"{c}3")
        with pytest.raises(ValueError):
            parse_ratio(f"3/{c}4")
        assert f"x 1 ={c}3/4{c}".split() == ["x", "1", "=", "3/4"]


@pytest.mark.parametrize("text", ["", " ", "/", "3/", "/4", "1/0", " 1 / 0 ", "3/4/5",
                                  "3 4", "3/4 5", "1.5", "1e3", "½", "0x10", "- 3", "3-",
                                  "3//4", "--3"])
def test_malformed_text_raises_the_same_exception(text):
    got = _reading(parse_ratio, text)
    assert got == _reading(_stripped_ratio, text)
    if got is ValueError and "/" in text and text.split("/")[-1].strip() == "0":
        with pytest.raises(ValueError, match="zero denominator"):
            parse_ratio(text)


def test_format_ratio_prints_past_the_int_string_limit():
    digits = sys.get_int_max_str_digits()
    big = 7 ** (2 * digits)
    assert format_ratio(-3, 1) == "-3" and format_ratio(2, 9) == "2/9"
    text = format_ratio(-big, 3)
    num, den = text.split("/")
    assert Decimal(num) == Decimal(-big) and den == "3"
    assert Decimal(format_ratio(big, 1)) == Decimal(big)
    assert format_rational(Fraction(-big, 3)) == text
    assert format_rational(Fraction(5, 10)) == "1/2" and format_rational(4) == "4"


def _decimal_text(num: int) -> str:
    """The conversion ``format_ratio`` made before its divide and conquer:
    Decimal converts an int exactly and prints it without the digit limit."""
    return str(Decimal(num))


@pytest.mark.parametrize("limit", [640, 4300])
def test_format_ratio_converts_past_the_limit_read_at_call_time(limit):
    # the limit is a process-wide setting: the test sets it and puts it back
    saved = sys.get_int_max_str_digits()
    rng = random.Random(f"int-text:{limit}")
    lengths = [limit - 1, limit, limit + 1, 2 * limit + 3]
    values = [rng.randrange(10 ** (k - 1), 10 ** k) for k in lengths]
    values += [10 ** k + d for k in lengths for d in (-1, 0, 1)]
    try:
        sys.set_int_max_str_digits(limit)
        for value in values:
            for num in (value, -value):
                assert format_ratio(num, 1) == _decimal_text(num)
            den = rng.randrange(10 ** limit, 10 ** (limit + 5))
            assert format_ratio(-value, den) == f"{_decimal_text(-value)}/{_decimal_text(den)}"
    finally:
        sys.set_int_max_str_digits(saved)
