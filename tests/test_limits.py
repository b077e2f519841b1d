"""Input limits and correctness bounds that must hold without ``assert``."""

import subprocess
import sys
import time
from pathlib import Path

import pytest

from diffalg.cli import MAX_DEGREE_BOUND, max_degree_bound
from diffalg.engine import LEFTMOST, _context, _nf_word
from diffalg.exprs import MAX_TERM_DEGREE, parse_poly
from diffalg.smoothness import SmoothnessError, decide_smoothness, verify_witness

from conftest import FIXTURES, build
from test_cli import run, witness_lines

SRC = Path(__file__).resolve().parents[1] / "src"


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


# -- the rewrite-depth bound --------------------------------------------------------

def test_rewrite_depth_bound_raises():
    # a table no other test builds, so no cached normal form answers first
    P = build(2, {(1, 2): 3, (2, 1): 5}, {1: 7})
    with pytest.raises(RuntimeError, match=r"reduction exceeded the "
                                           r"degree\*\(degree\+inversions\) bound"):
        _nf_word(_context(P), (1, 2), LEFTMOST, 0)


def test_rewrite_depth_bound_survives_optimized_mode():
    code = ("from diffalg.presentation import load_presentation\n"
            "from diffalg.engine import LEFTMOST, _context, _nf_word\n"
            f"P = load_presentation({str(FIXTURES / 'p3.dalg')!r})\n"
            "try:\n"
            "    _nf_word(_context(P), (1, 2), LEFTMOST, 0)\n"
            "except RuntimeError:\n"
            "    print('raised')\n")
    done = subprocess.run([sys.executable, "-O", "-c", code], capture_output=True,
                          text=True, timeout=60, env={"PYTHONPATH": str(SRC)})
    assert done.stdout == "raised\n", done.stderr


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
