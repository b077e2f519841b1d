"""Presentation parsing, rendering, and structural validation."""

import math
import random
import sys
import time
from fractions import Fraction

import pytest

from diffalg.presentation import (MAX_GENERATORS, MAX_LISTED_VIOLATIONS,
                                  AlgebraPresentation, PresentationError,
                                  load_presentation, parse_presentation,
                                  validate_presentation)
from diffalg.scalars import rational

from conftest import FIXTURES, build, reference_parse_presentation
from test_cli import run


def test_parse_minimal():
    P = parse_presentation("n = 3\ng 1 2 = 1\ng 1 3 = 1\ng 2 3 = 1\n")
    assert P.n == 3
    assert P.g(1, 2) == 1
    assert P.g(2, 1) == 0
    assert P.x(1) == 0


def test_parse_comments_whitespace_and_rationals():
    text = """
    # leading commentary
    n = 3

    g 1 2 = -3/2   # trailing commentary
    g 2 1 = 5
    g 1 3 = 1
    g 2 3 = 1
    x 2 = 7/3
    """
    P = parse_presentation(text)
    assert P.g(1, 2) == rational(-3, 2)
    assert P.g(2, 1) == 5
    assert P.x(2) == rational(7, 3)


def test_load_matches_inline_table(p1):
    assert load_presentation(FIXTURES / "p1.dalg") == p1


def test_render_parse_round_trip(p1, p2, p3, p4, b1, c4, b4x, d4):
    for P in (p1, p2, p3, p4, b1, c4, b4x, d4):
        assert parse_presentation(P.render()) == P


def test_render_omits_defaults(p2):
    text = p2.render()
    # one-sided pairs: the zero trailing slots of written one-sided pairs
    # stay (leading slots must always be printed), unset x's disappear
    assert "x 4" not in text
    assert text.endswith("\n")


def test_equality_and_hash(p1, p1m):
    twin = build(4, {(1, 2): 1, (2, 1): 1, (1, 3): 1, (3, 1): 1,
                     (2, 3): 1, (3, 2): 1, (1, 4): 2, (4, 1): 2,
                     (2, 4): 2, (4, 2): 2, (3, 4): 2, (4, 3): 2},
                 {1: 1, 2: 1, 3: 1})
    assert twin == p1
    assert hash(twin) == hash(p1)
    assert p1 != p1m


@pytest.mark.parametrize("text, line, fragment", [
    ("g 1 2 = 1\n", 1, "'n = INT' must precede"),
    ("n = 3\ng 1 2 =\n", 2, "expected 'g I J = RATIONAL'"),
    ("n = 3\ng 1 1 = 2\n", 2, "two distinct indices"),
    ("n = 3\ng 1 4 = 2\n", 2, "index out of range 1..3"),
    ("n = 3\ng 1 2 = 0\n", 2, "zero leading coefficient"),
    ("n = 3\ng 1 2 = 1\ng 1 2 = 2\n", 3, "duplicate assignment of g(1, 2)"),
    ("n = 3\nx 1 = 1\nx 1 = 2\n", 3, "duplicate assignment of x(1)"),
    ("n = 3\nn = 4\n", 2, "duplicate assignment of n"),
    ("n = 3\ng 1 2 = 1/0\n", 2, "invalid rational"),
    ("n = 3\nfoo 1 2\n", 2, "unrecognized statement 'foo'"),
    ("# nothing\n", None, "no 'n = INT' declaration"),
    # str.splitlines ends a line at each of these, and the reported line counts them
    ("n = 3\r\ng 1 2 = 1\r\ng 1 2 = 2\r\n", 3, "duplicate assignment of g(1, 2)"),
    ("n = 3\rg 1 2 = 1\rg 1 1 = 2\r", 3, "two distinct indices"),
    ("n = 3\x0cg 1 2 = 1\x0cx 1 = 1/0\n", 3, "invalid rational"),
    ("n = 3\u2028g 1 2 = 1\u2028g 1 4 = 2\n", 3, "index out of range 1..3"),
    ("n = 3\n\u2028\x0c\r\ng 2 3 = 0\n", 5, "zero leading coefficient"),
])
def test_parse_errors(text, line, fragment):
    with pytest.raises(PresentationError) as exc:
        parse_presentation(text)
    assert fragment in str(exc.value)
    assert exc.value.line == line


@pytest.mark.parametrize("text", [
    "n = 3\ng 1 2 = " + "9" * 5000 + "\n",
    "n = 3\ng 1 2 = 1\nx 1 = " + "9" * 5000 + "\n",
])
def test_a_long_coefficient_is_quoted_briefly(capsys, tmp_path, text):
    path = tmp_path / "long.dalg"
    path.write_text(text)
    rc, out, err = run(capsys, "check-pbw", path)
    assert rc == 2 and out == ""
    lines = err.splitlines()
    assert len(lines) == 1 and lines[0].startswith("error:")
    assert len(lines[0]) < 200
    assert lines[0].endswith("invalid rational '99999999999999999999'... "
                             "(5000 characters)")


def test_error_column_points_at_value():
    with pytest.raises(PresentationError) as exc:
        parse_presentation("n = 3\ng 1 2 = abc\n")
    assert exc.value.line == 2
    assert exc.value.col == 9


def test_validate_flags_zero_leading():
    # bypass the parser so the zero lead reaches the validator
    P = AlgebraPresentation(3, {(1, 2): rational(1), (1, 3): rational(1)}, {})
    assert validate_presentation(P) == ["zero leading coefficient g(2, 3)"]


def test_validate_accepts_fixtures(p1, p2, p3, p4, b1):
    for P in (p1, p2, p3, p4, b1):
        assert validate_presentation(P) == []


# -- the generator-count cap ------------------------------------------------------

def test_cli_refuses_a_huge_generator_count_at_once(capsys, tmp_path):
    path = tmp_path / "huge.dalg"
    path.write_text("n = 99999999\n")
    for command in ("check-pbw", "classify"):
        start = time.monotonic()
        rc, out, err = run(capsys, command, path)
        assert time.monotonic() - start < 1
        assert rc == 2 and out == ""
        assert err == (f"error: {path}: line 1, col 5: n must be at most "
                       f"{MAX_GENERATORS}, got '99999999'\n")


def test_the_cap_itself_is_accepted():
    assert parse_presentation(f"n = {MAX_GENERATORS}\n").n == MAX_GENERATORS
    with pytest.raises(PresentationError, match="n must be at most"):
        parse_presentation(f"n = {MAX_GENERATORS + 1}\n")


def test_validate_lists_a_bounded_number_of_violations():
    P = AlgebraPresentation(MAX_GENERATORS, {}, {})
    violations = validate_presentation(P)
    assert len(violations) == MAX_LISTED_VIOLATIONS + 1
    assert violations[:2] == ["zero leading coefficient g(1, 2)",
                              "zero leading coefficient g(1, 3)"]
    pairs = MAX_GENERATORS * (MAX_GENERATORS - 1) // 2
    assert violations[-1] == (f"{pairs - MAX_LISTED_VIOLATIONS} more zero "
                              f"leading coefficients")


# -- integer storage ---------------------------------------------------------------

ODD_TEXT = """n = 4
g 1 2 = 6/4
g 2 1 = -0
g 1 3 = -12/-8
g 3 1 = 00012/0008
g 1 4 = +3
g 2 3 = 1_0
g 3 2 = -7/21
g 2 4 = -5
g 3 4 = 1/3
x 1 = 4/2
x 3 = -1/6
x 4 = 0
"""


def _from_fractions(P):
    """The same table through the public constructor, from Fractions."""
    g = {(i, j): Fraction(P.g(i, j)) for i in P.generators for j in P.generators
         if i != j}
    return AlgebraPresentation(P.n, g, {i: Fraction(P.x(i)) for i in P.generators})


# tabs, a comment straight after a value, a non-ASCII digit (U+0663 ARABIC-INDIC
# DIGIT THREE, which int() reads as 3) and a line that is only whitespace
ODD_FORMS = ("n\t=\t3\n"
             "g 1 2 = 3/2# lead\n"
             "g\t2\t1\t=\t-\u0663\n"
             " \t \n"
             "g 1 \u0663 = 1_0\t#\n"
             "g 2 3 = \u0663/4\n"
             "x \u0663 = -1/\u0663\n")


def test_odd_forms_read_as_int_reads_them():
    P = parse_presentation(ODD_FORMS)
    assert P.g(1, 2) == Fraction(3, 2) and P.g(2, 1) == -3
    assert P.g(1, 3) == 10 and P.g(2, 3) == Fraction(3, 4)
    assert P.x(3) == Fraction(-1, 3) and P.x(1) == 0


def test_parse_render_parse_round_trips(p1, p2, p3, b1, c4, d4):
    texts = [ODD_TEXT, ODD_FORMS] + [(FIXTURES / f"{name}.dalg").read_text()
                          for name in ("p1", "p3", "c_nonuniform", "inconsistent")]
    texts += [P.render() for P in (p1, p2, p3, b1, c4, d4)]
    for text in texts:
        P = parse_presentation(text)
        again = parse_presentation(P.render())
        assert again == P and hash(again) == hash(P)
        assert again.render() == P.render()


def test_parsed_equals_and_hashes_as_built_from_fractions(p1, b1):
    for P in (parse_presentation(ODD_TEXT), load_presentation(FIXTURES / "p1.dalg"),
              load_presentation(FIXTURES / "b1.dalg")):
        built = _from_fractions(P)
        assert built == P and hash(built) == hash(P)
        assert built.g_integers() == P.g_integers()
        assert built.x_ratios() == P.x_ratios()
    assert load_presentation(FIXTURES / "p1.dalg") == p1
    assert hash(load_presentation(FIXTURES / "b1.dalg")) == hash(b1)
    assert parse_presentation(ODD_TEXT) != p1


def test_coefficients_are_fractions_over_one_integer_table():
    P = parse_presentation(ODD_TEXT)
    assert P.g(1, 2) == Fraction(3, 2) and P.g(3, 1) == Fraction(3, 2)
    assert P.g(2, 1) == 0 and P.g(4, 1) == 0 and P.g(1, 4) == 3
    assert P.x(1) == 2 and P.x(3) == Fraction(-1, 6) and P.x(2) == P.x(4) == 0
    for i in P.generators:
        assert type(P.x(i)) is Fraction
        for j in P.generators:
            if i != j:
                assert type(P.g(i, j)) is Fraction
    nums, den = P.g_integers()
    assert den == 6 and list(nums) == sorted(nums)
    assert all(Fraction(v, den) == P.g(i, j) for (i, j), v in nums.items())
    assert P.x_ratios() == {1: (2, 1), 2: (0, 1), 3: (-1, 6), 4: (0, 1)}
    with pytest.raises(KeyError):
        P.g(2, 2)


BIG = "7" * 1000
# spellings of one value side by side: unreduced, zero over a denominator,
# a negative denominator and 1000-digit literals
EQUAL_LITERALS = (("1/2", "2/4", "-3/-6"), ("0", "0/7", "-0/3"),
                  ("-1/2", "3/-6", "-2/4"), (BIG, f"{BIG}0/10", f"-{BIG}/-1"),
                  (f"{BIG}/3", f"{BIG}{BIG}/3{'0' * 999}3", f"{2 * int(BIG)}/6"))


def _fraction_key(P):
    """The value equality and hashing must agree with: every coefficient
    as a Fraction."""
    return (P.n, tuple(P.g(i, j) for i in P.generators for j in P.generators
                       if i != j), tuple(P.x(i) for i in P.generators))


def _spelled_table(rng, n):
    """A random table and two texts of it whose literals are spelled apart."""
    lines = ([], [])
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i != j:
                group = rng.choice(EQUAL_LITERALS[:1] + EQUAL_LITERALS[2:]
                                   if i < j else EQUAL_LITERALS)
                for text in lines:
                    text.append(f"g {i} {j} = {rng.choice(group)}")
    for i in range(1, n + 1):
        group = rng.choice(EQUAL_LITERALS)
        for text in lines:
            text.append(f"x {i} = {rng.choice(group)}")
    return tuple(f"n = {n}\n" + "\n".join(text) + "\n" for text in lines)


def test_integer_equality_and_hash_agree_with_fraction_values():
    rng = random.Random("integer-equality")
    tables = []
    for _ in range(40):
        texts = _spelled_table(rng, rng.randint(2, 4))
        assert texts[0] != texts[1]
        for text in texts:
            P = parse_presentation(text)
            tables += [P, _from_fractions(P)]
    # one cell moved off its value makes a table no one else equals
    P = tables[0]
    nums, den = P.g_integers()
    g = {key: P.g(*key) for key in nums}
    g[2, 1] += Fraction(1, 10 ** 999)
    tables.append(AlgebraPresentation(P.n, g, {i: P.x(i) for i in P.generators}))
    keys = [_fraction_key(P) for P in tables]
    equal_pairs = 0
    for P, key in zip(tables, keys):
        for Q, other in zip(tables, keys):
            same = key == other
            assert (P == Q) is same
            if same:
                equal_pairs += P is not Q
                assert hash(P) == hash(Q)
    # the four tables of each spelled pair are equal, one to another
    assert all(tables[k] == tables[k + 1] == tables[k + 2] == tables[k + 3]
               for k in range(0, 160, 4))
    assert equal_pairs >= 40 * 12


def test_keys_outside_the_table_are_refused():
    with pytest.raises(ValueError, match=r"^g key \(1, 1\) is not a pair "
                                         r"of distinct indices in 1\.\.2$"):
        AlgebraPresentation(2, {(1, 2): 1, (1, 1): 5, (1, 3): 7}, {3: 4})
    with pytest.raises(ValueError, match=r"^g key \(1, 3\) is not a pair"):
        AlgebraPresentation(2, {(1, 2): 1, (1, 3): 7}, {})
    with pytest.raises(ValueError, match=r"^x key 3 is not an index in 1\.\.2$"):
        AlgebraPresentation(2, {(1, 2): 1}, {3: 4})
    with pytest.raises(ValueError, match=r"^x key 0 is not an index"):
        AlgebraPresentation(2, {(1, 2): 1}, {0: 4})
    P = AlgebraPresentation(2, {(1, 2): 1}, {2: 4})
    assert P.render() == "n = 2\ng 1 2 = 1\nx 2 = 4\n"


def test_zero_leads_are_found_once_in_pair_order():
    g = {(1, 2): 1, (2, 1): 0, (1, 3): 0, (3, 1): 1, (2, 3): 2}
    P = AlgebraPresentation(4, g, {})
    assert P.zero_leads() == [(1, 3), (1, 4), (2, 4), (3, 4)]
    assert P.zero_leads() is P.zero_leads()
    parsed = parse_presentation("n = 4\ng 1 2 = 1\ng 3 1 = 1\ng 2 3 = 2\n")
    assert parsed == P and parsed.zero_leads() == P.zero_leads()
    assert parse_presentation(ODD_TEXT).zero_leads() == []


def test_relations_are_the_pair_relations_as_coprime_integers():
    rng = random.Random("relations")
    for _ in range(50):
        n = rng.randint(2, 4)
        g = {(i, j): Fraction(rng.randint(-4, 4), rng.randint(1, 4))
             for i in range(1, n + 1) for j in range(1, n + 1) if i != j}
        x = {i: Fraction(rng.randint(-3, 3), rng.randint(1, 3))
             for i in range(1, n + 1)}
        P = AlgebraPresentation(n, g, x)
        relations = P.relations()
        assert P.relations() is relations
        assert list(relations) == [(a, b) for a in range(1, n + 1)
                                   for b in range(a + 1, n + 1)]
        for (a, b), (Q, X, Y, G) in relations.items():
            assert math.gcd(Q, X, Y, G) in (0, 1) and G >= 0
            # G D_a D_b - Q D_b D_a - X D_a - Y D_b is a nonzero rational
            # multiple of g(a,b) D_a D_b - g(b,a) D_b D_a - x(b) D_a + x(a) D_b
            mine = (G, -Q, -X, -Y)
            theirs = (g[a, b], -g[b, a], -x[b], x[a])
            assert any(mine) == any(theirs) and (G == 0) == (g[a, b] == 0)
            assert all(u * z == v * w for u, w in zip(mine, theirs)
                       for v, z in zip(mine, theirs))


def test_check_pbw_and_classify_build_no_relations(monkeypatch, capsys):
    built = []
    original = AlgebraPresentation.relations
    monkeypatch.setattr(AlgebraPresentation, "relations",
                        lambda P: built.append(P) or original(P))
    for name in ("p1", "b1", "nonpbw", "c_nonuniform"):
        for command in ("check-pbw", "classify"):
            run(capsys, command, FIXTURES / f"{name}.dalg")
    assert built == []
    run(capsys, "reduce", FIXTURES / "p1.dalg", "D1 D2")
    assert len(built) == 1


def test_a_literal_at_the_digit_limit_parses_and_one_beyond_is_quoted(capsys, tmp_path):
    digits = sys.get_int_max_str_digits()
    big = "7" * digits
    P = parse_presentation(f"n = 2\ng 1 2 = {big}/3\nx 1 = -{big}\n")
    assert P.g(1, 2) == Fraction(int(big), 3) and P.x(1) == -int(big)
    assert parse_presentation(P.render()) == P
    path = tmp_path / "beyond.dalg"
    path.write_text(f"n = 2\ng 1 2 = {'7' * (digits + 1)}\n")
    rc, out, err = run(capsys, "classify", path)
    assert (rc, out) == (2, "")
    assert err == (f"error: {path}: line 2, col 9: invalid rational "
                   f"'77777777777777777777'... ({digits + 1} characters)\n")


# -- parity with the line-by-line reference parser ----------------------------------

def _literal(rng, zero=False):
    num = 0 if zero else rng.randint(1, 25) * rng.choice((1, -1))
    den = rng.choice((1, 1, 1, 2, 3, 4, 6, 9))
    return str(num) if den == 1 else f"{num}/{den}"


def _workload_lines(rng, n):
    """Statement lines shaped like the benchmark's inputs: every lead, most
    trailing slots, some x, fractional and negative literals."""
    lines = [f"n = {n}"]
    for i in range(1, n + 1):
        for j in range(1, n + 1):
            if i < j or (i > j and rng.random() < 0.8):
                lines.append(f"g {i} {j} = {_literal(rng, zero=i > j and rng.random() < 0.1)}")
    lines += [f"x {i} = {_literal(rng)}" for i in range(1, n + 1) if rng.random() < 0.5]
    if rng.random() < 0.3:
        body = lines[1:]
        rng.shuffle(body)
        lines[1:] = body
    return lines


def _mutants(rng, lines, n):
    """Single-token mutations of a statement list, one list of lines each."""
    def edited(k, tokens):
        copy = lines[:]
        copy[k] = " ".join(tokens)
        return copy

    def inserted(line):
        copy = lines[:]
        copy.insert(rng.randint(1, len(lines)), line)
        return copy

    out = []
    k = rng.randrange(len(lines))
    tokens = lines[k].split()
    at = rng.randrange(len(tokens))
    out.append(edited(k, tokens[:at] + tokens[at + 1:]))
    out.append(edited(k, tokens[:at + 1] + tokens[at:]))
    at = rng.randrange(len(tokens) - 1)
    out.append(edited(k, tokens[:at] + [tokens[at + 1], tokens[at]] + tokens[at + 2:]))
    out.append(edited(k, tokens[:-1] + ["1/0"]))

    k = rng.randrange(1, len(lines))
    tokens = lines[k].split()
    at = rng.choice((1, 2)) if tokens[0] == "g" else 1
    for index in ("0", str(n + 1), rng.choice(("a", "1.5", "\u00bd"))):
        out.append(edited(k, tokens[:at] + [index] + tokens[at + 1:]))
    out.append(inserted(lines[k]))

    g_lines = [k for k, line in enumerate(lines) if line.startswith("g")]
    k = rng.choice(g_lines)
    tokens = lines[k].split()
    out.append(edited(k, tokens[:2] + [tokens[1]] + tokens[3:]))
    respelled = tokens[:1] + [rng.choice(("0", "+", "0_")) + tokens[1]] + tokens[2:]
    out.append(edited(k, respelled))
    out.append(inserted(" ".join(respelled)))
    lead = rng.choice([k for k in g_lines
                       if int(lines[k].split()[1]) < int(lines[k].split()[2])])
    out.append(edited(lead, lines[lead].split()[:4] + [rng.choice(("0", "-0", "0/7"))]))
    out.append([f"x {rng.randint(1, n)} = 1"] + lines)
    return out


def _outcome(parse, text):
    try:
        return parse(text)
    except PresentationError as exc:
        return str(exc), exc.line, exc.col


def _one_pass(text):
    P = parse_presentation(text)
    nums, den = P.g_integers()
    return (P.n, list(nums.items()), den, list(P.x_ratios().items()),
            P.zero_leads())


def _reference(text):
    n, nums, den, x = reference_parse_presentation(text)
    zero_leads = [key for key, num in nums.items() if not num and key[0] < key[1]]
    return n, list(nums.items()), den, list(x.items()), zero_leads


ERROR_KINDS = ("expected 'n = INT'", "expected 'g I J = RATIONAL'",
               "expected 'x I = RATIONAL'", "generator indices must be integers",
               "generator index must be an integer", "index out of range",
               "g requires two distinct indices", "duplicate assignment of g(",
               "duplicate assignment of x(", "invalid rational", "invalid integer",
               "zero leading coefficient", "must precede", "unrecognized statement")


def test_one_pass_parser_matches_the_line_by_line_reference():
    rng = random.Random(20261019)
    texts = []
    for _ in range(200):
        n = rng.randint(2, 6)
        lines = _workload_lines(rng, n)
        for variant in [lines] + _mutants(rng, lines, n):
            end = rng.choice(("\n", "\n", "\r\n", "\x0c", "\u2028"))
            texts.append(end.join(variant) + end)
    outcomes = []
    for text in texts:
        expected = _outcome(_reference, text)
        assert _outcome(_one_pass, text) == expected, text
        outcomes.append(expected)
    # the corpus parses and reaches every error a statement line can raise
    messages = [o[0] for o in outcomes if isinstance(o[0], str)]
    assert 200 < len(messages) < len(texts) - 200
    assert [kind for kind in ERROR_KINDS if not any(kind in m for m in messages)] == []


def test_the_parser_hands_over_the_zero_leads_the_constructor_finds():
    # the parser counts its lead lines instead of walking the table again
    rng = random.Random("zero-leads")
    missing = 0
    for _ in range(300):
        n = rng.randint(2, 7)
        lines = [line for line in _workload_lines(rng, n)
                 if not line.startswith("g") or rng.random() < 0.9]
        P = parse_presentation("\n".join(lines))
        nums, den = P.g_integers()
        built = AlgebraPresentation(
            n, {key: rational(num, den) for key, num in nums.items()},
            {i: rational(*ratio) for i, ratio in P.x_ratios().items()})
        assert built == P and P.zero_leads() == built.zero_leads(), lines
        assert validate_presentation(P) == validate_presentation(built)
        missing += bool(P.zero_leads())
    assert 50 < missing < 250
