"""Input limits and correctness bounds that must hold without ``assert``."""

import time
from fractions import Fraction

import pytest

from diffalg.cli import MAX_DEGREE_BOUND, MAX_TABLES_N, max_degree_bound
from diffalg.exprs import MAX_LITERAL_DIGITS, MAX_TERM_DEGREE, parse_poly
from diffalg.smoothness import SmoothnessError, decide_smoothness, verify_witness

from conftest import FIXTURES
from test_cli import run, witness_lines


# -- --degree-bound ---------------------------------------------------------------

def test_verify_witness_refuses_a_negative_bound(p3):
    with pytest.raises(SmoothnessError,
                       match="the degree bound must be nonnegative, got -1"):
        verify_witness(p3, decide_smoothness(p3), degree_bound=-1)


def test_verify_witness_accepts_bound_zero(b1):
    assert verify_witness(b1, decide_smoothness(b1), degree_bound=0).ok


@pytest.mark.parametrize("command", ["smooth", "verify-calculus"])
@pytest.mark.parametrize("bound", [-1, MAX_DEGREE_BOUND + 1, 40])
def test_cli_rejects_a_bound_out_of_range(capsys, command, bound):
    rc, out, err = run(capsys, command, FIXTURES / "p1.dalg",
                       "--degree-bound", bound)
    assert rc == 2 and out == ""
    assert err == (f"error: --degree-bound must be between 0 and "
                   f"{MAX_DEGREE_BOUND}, got {bound}\n")


def test_cli_verifies_three_generators_at_the_cap(capsys):
    start = time.monotonic()
    rc, out, err = run(capsys, "smooth", FIXTURES / "p3.dalg",
                       "--degree-bound", MAX_DEGREE_BOUND)
    assert rc == 0 and err == ""
    assert out.endswith(witness_lines(3, 2))
    assert time.monotonic() - start < 60


# -- the degree bound per generator count ---------------------------------------------

@pytest.mark.parametrize("command", ["smooth", "verify-calculus"])
def test_cli_caps_the_bound_by_the_generator_count(capsys, command):
    cap = max_degree_bound(4)
    rc, out, err = run(capsys, command, FIXTURES / "p1.dalg",
                       "--degree-bound", cap + 1)
    assert rc == 2 and out == ""
    assert err == (f"error: --degree-bound for 4 generators must be at most "
                   f"{cap}, got {cap + 1}\n")


def test_bound_caps_shrink_with_n_and_admit_the_default():
    caps = [max_degree_bound(n) for n in range(2, 12)]
    assert caps[:2] == [MAX_DEGREE_BOUND, MAX_DEGREE_BOUND]
    assert caps == sorted(caps, reverse=True)
    assert min(caps) >= 2  # verify_witness's default beyond three generators


# -- expression degree ----------------------------------------------------------------

@pytest.mark.parametrize("command", ["reduce", "d"])
@pytest.mark.parametrize("expr, col", [("D1^1001", 1), ("D1^999999999", 1),
                                       ("D2 D1^500 D3^500", 11),
                                       ("D3 + D1^" + "9" * 5000, 6)])
def test_cli_refuses_a_term_above_the_degree_cap(capsys, command, expr, col):
    rc, out, err = run(capsys, command, FIXTURES / "p3.dalg", expr)
    assert rc == 2 and out == ""
    assert err == (f"error: bad expression: term degree exceeds the limit of "
                   f"{MAX_TERM_DEGREE} (column {col})\n")


def test_degree_cap_counts_each_term_alone():
    combination = parse_poly(f"D1^{MAX_TERM_DEGREE} + D2^0001 D3^{MAX_TERM_DEGREE - 1}", 3)
    assert sorted(map(len, combination)) == [MAX_TERM_DEGREE, MAX_TERM_DEGREE]


# -- numeric literals -------------------------------------------------------------------

@pytest.mark.parametrize("command", ["reduce", "d"])
@pytest.mark.parametrize("expr, col", [("9" * 5000 + " D1", 1), ("D" + "9" * 5000, 1),
                                       ("D1 + 2/" + "9" * 5000 + " D2", 6),
                                       ("D1 - " + "0" * 1001 + "3", 6)])
def test_cli_refuses_a_literal_above_the_digit_cap(capsys, command, expr, col):
    rc, out, err = run(capsys, command, FIXTURES / "p3.dalg", expr)
    assert rc == 2 and out == ""
    assert err == (f"error: bad expression: numeric literal exceeds the limit of "
                   f"{MAX_LITERAL_DIGITS} digits (column {col})\n")


def test_literals_at_the_digit_cap_parse():
    big = "9" * MAX_LITERAL_DIGITS
    combination = parse_poly(f"{big}/{big[:-1]}8 D{'0' * (MAX_LITERAL_DIGITS - 1)}1", 3)
    assert combination == {(1,): Fraction(int(big), int(big) - 1)}


# -- tables n -----------------------------------------------------------------------------

@pytest.mark.parametrize("mode", sorted(MAX_TABLES_N))
def test_tables_refuses_n_above_the_mode_cap(capsys, mode):
    cap = MAX_TABLES_N[mode]
    rc, out, err = run(capsys, "tables", cap + 1, "--mode", mode)
    assert rc == 2 and out == ""
    assert err == f"error: n must be at most {cap} for --mode {mode}, got {cap + 1}\n"


def test_tables_caps_admit_seven_generators():
    assert min(MAX_TABLES_N.values()) >= 7
