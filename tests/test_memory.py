"""Memory held by an op is bounded by that op.

A presentation's engine context is freed with the presentation, so a long
run of one-off presentations keeps nothing behind, ``tables`` holds one row
at a time, and ``d`` keeps the family's one-letter rows but no monomial's
differential.  Sizes are measured with ``tracemalloc`` after a warm-up op,
so that lazily built module state (the argument parser, interned strings)
is not counted.
"""

import contextlib
import gc
import os
import tracemalloc

from diffalg import engine
from diffalg.calculus import build_automorphisms, differential
from diffalg.cli import main
from diffalg.engine import is_pbw, normal_form

from conftest import FIXTURES, build

KIB = 1024
MIB = 1024 * KIB


@contextlib.contextmanager
def discarded_stdout():
    with open(os.devnull, "w") as null, contextlib.redirect_stdout(null):
        yield


@contextlib.contextmanager
def traced():
    tracemalloc.start()
    try:
        yield
    finally:
        tracemalloc.stop()


def test_a_context_dies_with_its_presentation():
    enabled = gc.isenabled()
    gc.disable()  # the entry must go by reference counting alone
    try:
        P = build(3, {(1, 2): 2, (2, 1): 3, (1, 3): 5, (3, 1): 7, (2, 3): 11,
                      (3, 2): 13}, {1: 1, 3: 2})
        is_pbw(P)
        normal_form((1, 2, 3, 1), P)
        key = id(P)
        assert key in engine._contexts
        del P
        assert key not in engine._contexts
    finally:
        if enabled:
            gc.enable()


def _table(k):
    """A three-generator .dalg text, different for every k."""
    return (f"n = 3\ng 1 2 = {k + 2}\ng 2 1 = 1\ng 1 3 = 1\ng 3 1 = 1\n"
            f"g 2 3 = 1\ng 3 2 = 1\nx 1 = 1\n")


def test_fresh_presentations_leave_nothing_behind(tmp_path):
    paths = []
    for k in range(100):
        path = tmp_path / f"t{k}.dalg"
        path.write_text(_table(k))
        paths.append(str(path))
    with discarded_stdout():
        main(["check-pbw", paths[0]])
        main(["reduce", paths[0], "D1 D2 D3"])
        gc.collect()
        with traced():
            before = tracemalloc.get_traced_memory()[0]
            for path in paths:  # 200 ops, each on a new presentation
                main(["check-pbw", path])
                main(["reduce", path, "D1 D2 D3 D1"])
            gc.collect()
            retained = tracemalloc.get_traced_memory()[0] - before
    assert retained < 64 * KIB


def test_tables_holds_one_row_at_a_time():
    # n = 6 keeps the runs short under tracemalloc; building all 480 paper
    # rows first peaks at about 3 MiB, and full mode renders 1820 rows
    peaks = {}
    with discarded_stdout():
        main(["tables", "3"])
        for mode in ("paper", "full"):
            with traced():
                assert main(["tables", "6", "--mode", mode]) == 0
                peaks[mode] = tracemalloc.get_traced_memory()[1]
    assert max(peaks.values()) < 1 * MIB, peaks


def test_d_keeps_the_rows_and_no_differential(b1):
    # a normal form with many monomials; the family's memo keeps one row per
    # map, letter, exponent and kind, keyed (map, j, k, summed), and nothing
    # keyed by a monomial
    p = normal_form((1, 3, 1, 2, 3, 3, 1, 2, 3, 1, 3), b1)
    nu = build_automorphisms(b1)
    assert len(p.terms) > 20 and not differential(p, nu, b1).is_zero()
    assert nu._memo and all(isinstance(key, tuple) and len(key) == 4
                            and isinstance(key[3], bool) for key in nu._memo)


def test_a_moderate_d_op_stays_small():
    # 146 monomials after the normal form; before d stopped keeping each
    # monomial's differential this op peaked at 1.1 MiB, now at 0.24 MiB
    path = str(FIXTURES / "b1.dalg")
    with discarded_stdout():
        main(["d", path, "D1"])
        with traced():
            assert main(["d", path, "D1^20 D3^6"]) == 0
            peak = tracemalloc.get_traced_memory()[1]
    assert peak < 512 * KIB, peak
