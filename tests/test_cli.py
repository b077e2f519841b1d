"""End-to-end command-line behaviour: exact output bytes and exit codes."""

import argparse
import hashlib
import os
import subprocess
import sys
from pathlib import Path

import pytest

from diffalg import cli
from diffalg.cli import main

from conftest import FIXTURES, GOLDEN

SRC = Path(__file__).resolve().parents[1] / "src"


def run(capsys, *argv):
    rc = main([str(a) for a in argv])
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def witness_lines(n, k_max):
    names = ["relations-preserved", "pairwise-commute", "bijective",
             "leibniz", "d-squared-zero", "connectedness"]
    for k in range(k_max + 1):
        names.append(f"integral-expand-k{k}")
        names.append(f"integral-project-k{k}")
    return "".join(f"check:{name}: PASS\n" for name in names)


# -- check-pbw -------------------------------------------------------------------

def test_check_pbw_confluent(capsys):
    rc, out, err = run(capsys, "check-pbw", FIXTURES / "p1.dalg")
    assert (rc, out, err) == (0, "pbw: true\n", "")


def test_check_pbw_failure(capsys):
    rc, out, err = run(capsys, "check-pbw", FIXTURES / "nonpbw.dalg")
    assert (rc, out, err) == (1, "pbw: false\ntriple: 1 2 3\n", "")


def test_missing_file(capsys):
    path = FIXTURES / "missing.dalg"
    rc, out, err = run(capsys, "check-pbw", path)
    assert rc == 2
    assert out == ""
    assert err == f"error: cannot read {path}: No such file or directory\n"


def test_malformed_file(capsys):
    path = FIXTURES / "malformed.dalg"
    rc, out, err = run(capsys, "check-pbw", path)
    assert rc == 2
    assert err == f"error: {path}: line 3, col 1: expected 'g I J = RATIONAL'\n"


@pytest.mark.parametrize("argv", [["check-pbw"], ["classify"], ["smooth"],
                                  ["verify-calculus"], ["reduce", "D1"], ["d", "D1"]])
def test_non_utf8_file_exits_with_one_error_line(capsys, tmp_path, argv):
    path = tmp_path / "bad.dalg"
    path.write_bytes(b"n = 3\ng 1 2 = 1 \xff\n")
    rc, out, err = run(capsys, argv[0], path, *argv[1:])
    assert (rc, out) == (2, "")
    assert err == f"error: {path}: line 2, col 11: invalid UTF-8 byte 0xff\n"


# -- classify --------------------------------------------------------------------

def test_classify_uniform_triple(capsys):
    rc, out, err = run(capsys, "classify", FIXTURES / "p1.dalg")
    assert rc == 0 and err == ""
    assert out == (
        "n: 4\n"
        "I: 1 2 3\n"
        "R: 4\n"
        "components: {4}\n"
        "S: 4\n"
        "Tcirc: -\n"
        "Tbullet: -\n"
        "family: A_I\n"
        "param g: 1\n"
        "param g4: 2\n"
        "param x1: 1\n"
        "param x2: 1\n"
        "param x3: 1\n"
    )


def test_classify_single_interacting_index(capsys):
    rc, out, err = run(capsys, "classify", FIXTURES / "p3.dalg")
    assert rc == 0 and err == ""
    assert out == (
        "n: 3\n"
        "I: 2\n"
        "R: 1 3\n"
        "components: {1,3}\n"
        "S: 1 3\n"
        "Tcirc: -\n"
        "Tbullet: -\n"
        "family: C\n"
        "param g1: 2\n"
        "param g3: 2\n"
        "param L1: 1\n"
        "param x2: 1\n"
    )


def test_classify_inconsistent_table(capsys):
    rc, out, err = run(capsys, "classify", FIXTURES / "inconsistent.dalg")
    assert rc == 1 and err == ""
    assert out == (
        "n: 4\n"
        "I: 1 2 3\n"
        "R: 4\n"
        "components: {4}\n"
        "S: 4\n"
        "Tcirc: -\n"
        "Tbullet: -\n"
        "family: Inconsistent\n"
        "param g4: 2\n"
        "param x1: 1\n"
        "param x2: 1\n"
        "param x3: 1\n"
        "violation: the interacting set must carry a single coefficient, "
        "found D1 D2 -> 1; D2 D3 -> 6\n"
    )


# -- reduce and d ----------------------------------------------------------------

def test_reduce(capsys):
    rc, out, err = run(capsys, "reduce", FIXTURES / "p1.dalg", "D1 D2")
    assert (rc, out, err) == (0, "D2 D1 - D2 + D1\n", "")


def test_reduce_rejects_bad_expression(capsys):
    rc, out, err = run(capsys, "reduce", FIXTURES / "p1.dalg", "D1 +")
    assert rc == 2 and out == ""
    assert err == ("error: bad expression: dangling sign at end of "
                   "expression (column 4)\n")


@pytest.mark.parametrize("expr", ["2 * - D1", "3 *"])
def test_reduce_refuses_a_dangling_star(capsys, expr):
    rc, out, err = run(capsys, "reduce", FIXTURES / "p1.dalg", expr)
    assert (rc, out, err) == (2, "", "error: bad expression: expected a generator "
                                     "factor after '*' (column 3)\n")


@pytest.mark.parametrize("command", ["reduce", "d"])
def test_zero_denominator_exits_with_one_error_line(capsys, command):
    rc, out, err = run(capsys, command, FIXTURES / "p1.dalg", "1/0")
    assert (rc, out, err) == (2, "", "error: bad expression: zero denominator "
                                     "in rational '1/0' (column 1)\n")


def test_d_of_a_written_word(capsys):
    rc, out, err = run(capsys, "d", FIXTURES / "p1.dalg", "D1 D2")
    assert (rc, out, err) == (0, "d: dD1 * (D2) + dD2 * (D1 - 1)\n", "")


def test_d_refuses_tables_without_a_calculus(capsys):
    rc, out, err = run(capsys, "d", FIXTURES / "p2.dalg", "D1")
    assert rc == 1 and err == ""
    assert out == (
        "verdict: NOT-SMOOTH\n"
        "note: the pair (1,4) couples one-sidedly while x1 != 0, so pushing "
        "D4 through dD1 leaves a nonzero residual for every affine family\n"
    )


# -- smooth ----------------------------------------------------------------------

def test_smooth_verified_witness(capsys):
    rc, out, err = run(capsys, "smooth", FIXTURES / "p1.dalg")
    assert rc == 0 and err == ""
    assert out == (
        "verdict: SMOOTH\n"
        "case: i\n"
        "family: A_I\n"
        "I: 1 2 3\n"
        "S: 4\n"
        "T: -\n"
        "gkdim: 4\n"
    ) + witness_lines(4, 3)


def test_smooth_obstruction(capsys):
    rc, out, err = run(capsys, "smooth", FIXTURES / "p2.dalg")
    assert rc == 1 and err == ""
    assert out == (
        "verdict: NOT-SMOOTH\n"
        "case: -\n"
        "family: A_II\n"
        "I: 1 2 3\n"
        "S: -\n"
        "T: 4\n"
        "gkdim: 4\n"
        "obstruction: i=1 t=4\n"
        "residual: 6 * D4\n"
        "note: the pair (1,4) couples one-sidedly while x1 != 0, so pushing "
        "D4 through dD1 leaves a nonzero residual for every affine family\n"
        "check:ansatz-relations: FAIL\n"
    )


def test_smooth_undetermined(capsys):
    rc, out, err = run(capsys, "smooth", FIXTURES / "c_nonuniform.dalg")
    assert rc == 1 and err == ""
    assert out == (
        "verdict: UNDETERMINED\n"
        "case: -\n"
        "family: C\n"
        "I: 1\n"
        "S: 2 3\n"
        "T: -\n"
        "gkdim: 3\n"
        "note: couplings to the interacting index take several values, but "
        "the known witness construction needs a single one\n"
    )


def test_smooth_on_non_confluent_table(capsys):
    rc, out, err = run(capsys, "smooth", FIXTURES / "nonpbw.dalg")
    assert (rc, out, err) == (1, "pbw: false\ntriple: 1 2 3\n", "")


# -- verify-calculus --------------------------------------------------------------

def test_verify_calculus_single_index_case(capsys):
    rc, out, err = run(capsys, "verify-calculus", FIXTURES / "p3.dalg")
    assert rc == 0 and err == ""
    assert out == (
        "verdict: SMOOTH\n"
        "case: ii\n"
        "family: C\n"
        "I: 2\n"
        "S: 1 3\n"
        "T: -\n"
        "gkdim: 3\n"
    ) + witness_lines(3, 2)


def test_verify_calculus_pair_case_with_bound(capsys):
    rc, out, err = run(capsys, "verify-calculus", FIXTURES / "b1.dalg",
                       "--degree-bound", "2")
    assert rc == 0 and err == ""
    assert out == (
        "verdict: SMOOTH\n"
        "case: iii\n"
        "family: B\n"
        "I: 1 3\n"
        "S: 2\n"
        "T: -\n"
        "gkdim: 3\n"
    ) + witness_lines(3, 2)


# -- tables ------------------------------------------------------------------------

@pytest.mark.parametrize("n,name", [
    (3, "tables_n3_paper.txt"),
    (4, "tables_n4_paper.txt"),
])
def test_tables_match_golden(capsys, n, name):
    rc, out, err = run(capsys, "tables", str(n))
    assert rc == 0 and err == ""
    assert out == (GOLDEN / name).read_text()


def test_tables_rejects_small_n(capsys):
    rc, out, err = run(capsys, "tables", "2")
    assert rc == 2 and out == ""
    assert err == "error: n must be at least 3\n"


@pytest.mark.parametrize("mode,n,digest", [
    ("full", 3, "2b43782aad61d80975d1f643d91545a4b2a8c4ee1294e359801d2448bef19d7d"),
    ("full", 4, "c86a4ca6f95d42ae022c128585a3b99a86c47f47dc5c8375e270bbedfe0b4370"),
    ("full", 5, "c37ac0475e395fb7763f5bb3c784ffbd505c47ae87872e84cd4b60623bf5d9dc"),
    ("full", 6, "b3382c652ec9cdbe1dfd5078886da6aa964ddeecfb0fca56cab5ccc5aacfa648"),
    ("full", 7, "5a759257b2a79d2fe5eaf35dff578c643fcd7cc98fc7b4858bca6e59354cc400"),
    ("paper", 3, "4eac199026cf5ecb1f2f56bbaccbb37000814eb3c9ca2b7fc3a714ac976d3734"),
    ("paper", 4, "6a61500d1802f54fe1f89b214d391f2c2bf3bff56670d8a1dac0634f858321ff"),
    ("paper", 5, "9c188a4eab37d2a1d1ab90092c3545c915354539fea3f483e8cdbb779f27e0c8"),
    ("paper", 6, "9b329d44f10f2b7d9a3d0e2c16faabb5c1c9fa81f457d562dd4a5c63f72f3718"),
    ("paper", 7, "8207052a4c3e3763e1555766359d3d57fd99eb877b91b246b46401ca001d13b5"),
    ("paper", 8, "76ec2c0719cc563ff91bc0328ef5b1f7804e24f5c6224436f66ba651038c4a95"),
])
def test_tables_output_digest_is_pinned(capsys, mode, n, digest):
    # beyond the golden files: one enumerator serves both modes, and any
    # change to the rows, their order or their text moves these digests
    rc, out, err = run(capsys, "tables", str(n), "--mode", mode)
    assert rc == 0 and err == ""
    assert hashlib.sha256(out.encode()).hexdigest() == digest


# -- shared reporting paths ------------------------------------------------------

def test_d_on_non_pbw_table_reports_the_triple(capsys):
    rc, out, err = run(capsys, "d", FIXTURES / "nonpbw.dalg", "D1 D2")
    assert (rc, out, err) == (1, "pbw: false\ntriple: 1 2 3\n", "")


def test_smooth_reports_a_one_sided_bystander_pair(capsys, tmp_path):
    # A_I on {1,2,3} with bystanders 4 and 5 that each couple two-sidedly to
    # I, but the pair (4,5) has no trailing coefficient: the family shape
    # admits a witness, yet no affine family can be built
    lines = ["n = 5"]
    for i in (1, 2, 3):
        for j in (1, 2, 3):
            if i != j:
                lines.append(f"g {i} {j} = 3")
        for s, c in ((4, 2), (5, 5)):
            lines += [f"g {i} {s} = {c}", f"g {s} {i} = {c}"]
    lines += ["g 4 5 = 7", "x 1 = 1", "x 2 = 2", "x 3 = -1"]
    path = tmp_path / "one_sided_bystanders.dalg"
    path.write_text("\n".join(lines) + "\n")
    rc, out, err = run(capsys, "smooth", path)
    assert rc == 1 and err == ""
    assert out == (
        "verdict: UNDETERMINED\n"
        "case: -\n"
        "family: A_I\n"
        "I: 1 2 3\n"
        "S: 4 5\n"
        "T: -\n"
        "gkdim: 5\n"
        "note: no affine family exists: the pair (5,4) is one-sided, so D5 "
        "cannot be pushed through dD4\n")


def test_parser_is_built_once_per_process():
    assert cli._build_parser() is cli._build_parser()


# -- argv handling: the plain-argv path and argparse ------------------------------

PLAIN_ARGV = [["check-pbw", "F"], ["classify", "F"], ["smooth", "F"],
              ["verify-calculus", "F"], ["reduce", "F", "D1 D2"], ["d", "F", "D1 D2"]]

ARGV_CORPUS = PLAIN_ARGV + [
    ["tables", "5"],
    ["smooth", "F", "--degree-bound", "2"],
    ["check-pbw", "-h"], ["check-pbw", "-"], ["check-pbw", "--help"],
    ["check-pbw", "--", "F"], ["reduce", "--", "F", "D1"],
    ["reduce", "F", "-D1"], ["reduce", "F", "- D1"], ["reduce", "F", ""],
    ["check-pbw", ""],
    ["reduce", "F"], ["check-pbw"], ["check-pbw", "F", "extra"], ["d", "F", "D1", "D2"],
    ["frobnicate", "F"], ["check", "F"], [],
]


def _argv(argv):
    return [str(FIXTURES / "p1.dalg") if a == "F" else a for a in argv]


@pytest.mark.parametrize("argv", ARGV_CORPUS, ids=repr)
def test_plain_path_declines_or_equals_parse_args(capsys, argv):
    argv = _argv(argv)
    fast = cli._plain_args(argv)
    try:
        slow = cli._build_parser().parse_args(argv)
    except SystemExit:
        assert fast is None
    else:
        assert fast is None or vars(fast) == vars(slow)
    capsys.readouterr()


def test_argv_none_reads_sys_argv(capsys, monkeypatch):
    argv = _argv(["reduce", "F", "D1 D2"])
    monkeypatch.setattr(sys, "argv", ["diffalg"] + argv)
    assert (main(), capsys.readouterr().out) == (0, "D2 D1 - D2 + D1\n")
    assert run(capsys, *argv) == (0, "D2 D1 - D2 + D1\n", "")


def test_plain_commands_run_without_argparse(capsys, monkeypatch):
    # the count behind the plain path's saving: no parse_args call at all
    expected = [run(capsys, *_argv(argv)) for argv in PLAIN_ARGV]

    def refuse(self, args=None, namespace=None):
        raise AssertionError(f"parse_args({args!r})")

    monkeypatch.setattr(argparse.ArgumentParser, "parse_args", refuse)
    assert [run(capsys, *_argv(argv)) for argv in PLAIN_ARGV] == expected


# Run in a fresh interpreter: plain argv, then two argv that need argparse.
# An audit hook records every import of argparse, and the parser cache
# records every parser built.  No command needs the code-generation modules
# behind ``dataclasses``, so they stay out of ``sys.modules`` throughout.
_ARGPARSE_PROBE = """
import io, sys
from contextlib import redirect_stdout
imported = []
sys.addaudithook(lambda event, args: event == "import" and args[0] == "argparse"
                 and imported.append(args[0]))
from diffalg.cli import _build_parser, main
UNUSED = {"dataclasses", "inspect", "ast", "dis", "tokenize"}
def state():
    return ("argparse" in sys.modules, len(imported), _build_parser.cache_info().misses,
            sorted(UNUSED & sys.modules.keys()))
with redirect_stdout(io.StringIO()):
    codes = [main(argv) for argv in PLAIN]
    plain = state()
    codes += [main(argv) for argv in OTHER]
import diffalg
from diffalg import *
print(codes, plain, state(), all(name in globals() for name in diffalg.__all__))
"""


def test_plain_argv_never_imports_argparse():
    plain = [_argv(argv) for argv in (["check-pbw", "F"], ["classify", "F"], ["smooth", "F"],
                                      ["reduce", "F", "D1 D2"])]
    other = [["tables", "3", "--mode", "full"], _argv(["smooth", "F", "--degree-bound", "2"])]
    script = f"PLAIN = {plain!r}\nOTHER = {other!r}\n" + _ARGPARSE_PROBE
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env={**os.environ, "PYTHONPATH": str(SRC)}, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    # no argparse and no parser after the plain argv; one parser after the
    # others; no unused module at either point; the star import binds every name
    assert proc.stdout == "[0, 0, 0, 0, 0, 0] (False, 0, 0, []) (True, 1, 1, []) True\n"


# The argparse path's text, recorded before the plain path existed.  argparse
# wraps usage to the terminal width, so COLUMNS is fixed.
ARGPARSE_TEXT = [
    ([], 2,
     "",
     ('usage: diffalg [-h]\n'
      '               {check-pbw,classify,smooth,verify-calculus,reduce,d,tables} ...\n'
      'diffalg: error: the following arguments are required: command\n')),
    (['--help'], 0,
     ('usage: diffalg [-h]\n'
      '               {check-pbw,classify,smooth,verify-calculus,reduce,d,tables} ...\n'
      '\n'
      'Ordered-basis checks, classification, and verified differential calculi for\n'
      'inhomogeneous quadratic exchange algebras.\n'
      '\n'
      'positional arguments:\n'
      '  {check-pbw,classify,smooth,verify-calculus,reduce,d,tables}\n'
      '    check-pbw           test rewriting confluence on all triples\n'
      '    classify            decompose the index set and identify the family\n'
      '    smooth              decide differential smoothness and verify the witness\n'
      '    verify-calculus     run every calculus check on the derived witness\n'
      '    reduce              normal form of a polynomial expression\n'
      '    d                   differential of a polynomial expression\n'
      '    tables              enumerate relation templates\n'
      '\n'
      'options:\n'
      '  -h, --help            show this help message and exit\n'),
     ""),
    (['check-pbw', '--help'], 0,
     ('usage: diffalg check-pbw [-h] file\n'
      '\n'
      'positional arguments:\n'
      '  file\n'
      '\n'
      'options:\n'
      '  -h, --help  show this help message and exit\n'),
     ""),
    (['smooth', '-h'], 0,
     ('usage: diffalg smooth [-h] [--degree-bound DEGREE_BOUND] file\n'
      '\n'
      'positional arguments:\n'
      '  file\n'
      '\n'
      'options:\n'
      '  -h, --help            show this help message and exit\n'
      '  --degree-bound DEGREE_BOUND\n'
      '                        sample the volume-form identities on every coefficient\n'
      '                        monomial up to this degree (0 to 12), as a cross-check\n'
      '                        of the default proof on module generators\n'),
     ""),
    (['frobnicate'], 2,
     "",
     ('usage: diffalg [-h]\n'
      '               {check-pbw,classify,smooth,verify-calculus,reduce,d,tables} ...\n'
      "diffalg: error: argument command: invalid choice: 'frobnicate' (choose from "
      "'check-pbw', 'classify', 'smooth', 'verify-calculus', 'reduce', 'd', 'tables')\n")),
    (['check-pbw'], 2,
     "",
     ('usage: diffalg check-pbw [-h] file\n'
      'diffalg check-pbw: error: the following arguments are required: file\n')),
    (['check-pbw', 'F', 'extra'], 2,
     "",
     ('usage: diffalg [-h]\n'
      '               {check-pbw,classify,smooth,verify-calculus,reduce,d,tables} ...\n'
      'diffalg: error: unrecognized arguments: extra\n')),
    (['reduce', 'F'], 2,
     "",
     ('usage: diffalg reduce [-h] file expr\n'
      'diffalg reduce: error: the following arguments are required: expr\n')),
    (['tables', 'x'], 2,
     "",
     ('usage: diffalg tables [-h] [--mode {paper,full}] n\n'
      "diffalg tables: error: argument n: invalid int value: 'x'\n")),
    (['tables', '5', '--mode', 'odd'], 2,
     "",
     ('usage: diffalg tables [-h] [--mode {paper,full}] n\n'
      "diffalg tables: error: argument --mode: invalid choice: 'odd' (choose from "
      "'paper', 'full')\n")),
    (['smooth', 'F', '--degree-bound', 'x'], 2,
     "",
     ('usage: diffalg smooth [-h] [--degree-bound DEGREE_BOUND] file\n'
      "diffalg smooth: error: argument --degree-bound: invalid int value: 'x'\n")),
]


@pytest.mark.parametrize("argv, code, out, err", ARGPARSE_TEXT,
                         ids=[repr(row[0]) for row in ARGPARSE_TEXT])
def test_argparse_text_is_pinned(capsys, monkeypatch, argv, code, out, err):
    monkeypatch.setenv("COLUMNS", "80")
    with pytest.raises(SystemExit) as exc:
        main(_argv(argv))
    captured = capsys.readouterr()
    assert (exc.value.code, captured.out, captured.err) == (code, out, err)
