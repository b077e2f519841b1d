"""End-to-end command-line behaviour: exact output bytes and exit codes."""

import hashlib

import pytest

from diffalg import cli
from diffalg.cli import main

from conftest import FIXTURES, GOLDEN


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
