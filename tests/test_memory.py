"""Memory held by an op is bounded by that op.

A presentation's engine context is freed with the presentation, so a long
run of one-off presentations keeps nothing behind, and ``tables`` holds one
row at a time.  Sizes are measured with ``tracemalloc`` after a warm-up op,
so that lazily built module state (the argument parser, interned strings)
is not counted.
"""

import contextlib
import gc
import os
import tracemalloc

from diffalg import engine
from diffalg.cli import main
from diffalg.engine import is_pbw, normal_form

from conftest import build

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
