"""Fuzz tests of the text boundary: the expression tokenizer and the argv reader.

``exprs.parse_poly`` reads its text in one regex pass; it must give what
``conftest.reference_parse_poly``, the parser it replaced, gives on every
text, or raise the same ``ExpressionError`` at the same column.
``cli._plain_args`` reads a plain argv off the command table without
argparse; on every argv it must decline or give what ``parse_args`` gives,
and ``main`` must end every argv with an exit code, never a traceback.
"""

import contextlib
import io

from hypothesis import given, settings, strategies as st

from diffalg import cli
from diffalg.exprs import ExpressionError, parse_poly

from conftest import FIXTURES, reference_parse_poly

# Terms of well-formed text joined by signs, and at most one piece that
# breaks it, put in at any character: a bare D, a zero index, leading zeros,
# a zero denominator, a stray "/", "*" or "^", other characters (a Unicode
# digit and space among them, which \d and \s accept), over-long literals
# and exponents past the degree cap.
COEFFICIENTS = ["", "", "2 ", "2/3 ", "12 * ", "1/2 *"]
FACTORS = ["D1", "D2", "D3", "D4", "D1^2", "D3^10", " D2"]
BAD_PIECES = ["D0", "D01", "D", "D٣", "0", "007", "1/0", "0/5", "/", "*", "^", "^0",
              "^1001", "^9999999", "+", " - ", "\t", "\n", "\u2003", "x", "é", ".", "٣",
              "1" * 1001, "D" + "1" * 1001, "3/" + "7" * 1001]

terms = st.builds(lambda c, factors: c + "".join(factors), st.sampled_from(COEFFICIENTS),
                  st.lists(st.sampled_from(FACTORS), min_size=1, max_size=3))
expressions = st.builds(
    lambda first, rest, bad, at: (lambda text: text[:at] + "".join(bad) + text[at:])(
        first + "".join(sign + term for sign, term in rest)),
    terms,
    st.lists(st.tuples(st.sampled_from([" + ", " - ", "-"]), terms), max_size=2),
    st.lists(st.sampled_from(BAD_PIECES), max_size=1),
    st.integers(0, 30))


def _parsed(parse, text, n):
    try:
        return "ok", list(parse(text, n).items())
    except ExpressionError as exc:
        return "error", str(exc), exc.col


@settings(derandomize=True, max_examples=120, deadline=None)
@given(expressions, st.integers(1, 4))
def test_parse_poly_matches_the_reference_parser(text, n):
    assert _parsed(parse_poly, text, n) == _parsed(reference_parse_poly, text, n)


# -- argv ------------------------------------------------------------------------

COMMAND_WORDS = list(cli._COMMANDS) + ["check", "frobnicate", "-h", "--help", ""]
ARGV_PIECES = ["F", "D1 D2", "D1^2 + 1/2", "-D1", "- D1", "", "-", "--", "-h", "--help",
               "--degree-bound", "--degree-bound=1", "0", "2", "13", "-1", "x",
               "--mode", "full", "paper", "odd", "3", "extra"]

random_argvs = st.tuples(st.sampled_from(COMMAND_WORDS),
                         st.lists(st.sampled_from(ARGV_PIECES), max_size=4)).map(
    lambda parts: [parts[0]] + parts[1])
# a command with one token per positional: FILE, then an expression
shaped_argvs = st.builds(lambda name, expr: [name, "F", expr][:1 + len(cli._COMMANDS[name][1])],
                         st.sampled_from(list(cli._COMMANDS)), expressions)
argvs = st.one_of(
    shaped_argvs, random_argvs,
    st.builds(lambda argv, extra: argv + extra, shaped_argvs,
              st.lists(st.sampled_from(ARGV_PIECES), min_size=1, max_size=3)))


def _quiet():
    stack = contextlib.ExitStack()
    stack.enter_context(contextlib.redirect_stdout(io.StringIO()))
    stack.enter_context(contextlib.redirect_stderr(io.StringIO()))
    return stack


def _with_file(argv, path):
    return [str(path) if a == "F" else a for a in argv]


@settings(derandomize=True, max_examples=80, deadline=None)
@given(argvs)
def test_plain_args_declines_or_equals_parse_args(argv):
    argv = _with_file(argv, FIXTURES / "p1.dalg")
    fast = cli._plain_args(argv)
    with _quiet():
        try:
            slow = cli._build_parser().parse_args(argv)
        except SystemExit:
            slow = None
    if slow is None:
        assert fast is None
    elif fast is not None:
        assert vars(fast) == vars(slow)


# fixtures of each kind of outcome: PBW and Smooth, NotSmooth, non-PBW,
# unparsable, missing
MAIN_FILES = ["p1.dalg", "p2.dalg", "p3.dalg", "nonpbw.dalg", "malformed.dalg",
              "missing.dalg"]


@settings(derandomize=True, max_examples=50, deadline=None)
@given(argvs, st.sampled_from(MAIN_FILES))
def test_main_ends_every_argv_with_an_exit_code(argv, name):
    argv = _with_file(argv, FIXTURES / name)
    with _quiet():
        try:
            code = cli.main(argv)
        except SystemExit as exc:
            assert exc.code in (0, 2)
        else:
            assert code in (0, 1, 2)
