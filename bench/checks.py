"""Judge each op's exit code and output against the answer known by construction.

An op ends in one of four states:

* ``ok``      the exit code and the output are what the input was built to give;
* ``raised``  ``cli.main`` raised instead of returning;
* ``refused`` the CLI exited with code 2 (an input error) on a valid input;
* ``wrong``   any other exit code or output.

The first is a success; the other three count in ``failed_share``.  Only
``wrong`` makes the benchmark's answer incorrect.
"""

from __future__ import annotations

import reference

OK, RAISED, REFUSED, WRONG = "ok", "raised", "refused", "wrong"


def _lines(text: str) -> dict:
    """``{key: value}`` of the ``key: value`` lines (the first one of each key)."""
    out: dict = {}
    for line in text.splitlines():
        key, sep, value = line.partition(": ")
        if sep:
            out.setdefault(key, value)
    return out


def _smooth(expect, code, out):
    lines = _lines(out)
    if code != 0:
        return f"exit code {code}, expected 0"
    if lines.get("verdict") != "SMOOTH":
        return f"verdict {lines.get('verdict')!r}, expected 'SMOOTH'"
    for key, want in expect.items():
        if lines.get(key) != want:
            return f"{key} {lines.get(key)!r}, expected {want!r}"
    checks = [line for line in out.splitlines() if line.startswith("check:")]
    if not checks:
        return "no check: lines"
    failing = [line for line in checks if not line.endswith(": PASS")]
    if failing:
        return f"failing check {failing[0]!r}"
    return None


def _check_pbw(expect, code, out):
    want = f"pbw: {expect['pbw']}\n"
    if code != 0 or out != want:
        return f"exit code {code} and output {out[:60]!r}, expected 0 and {want!r}"
    return None


def _classify(expect, code, out):
    if code != 0:
        return f"exit code {code}, expected 0"
    lines = _lines(out)
    for key, want in expect.items():
        if lines.get(key) != want:
            return f"{key} {lines.get(key)!r}, expected {want!r}"
    if "violation" in lines:
        return f"violation {lines['violation']!r}"
    return None


def _tables_paper(expect, code, out):
    if code != 0 or out != expect["text"]:
        return f"exit code {code}; output differs from the golden file"
    return None


def _tables_full(expect, code, out):
    head = out.split("\n", 3)[:3]
    want_head = [f"n: {expect['n']}", "mode: full", f"count: {expect['count']}"]
    if code != 0 or head != want_head:
        return f"exit code {code} and header {head!r}, expected 0 and {want_head!r}"
    indices = [line[len("template: "):] for line in out.splitlines()
               if line.startswith("template: ")]
    if indices != [str(i) for i in range(1, expect["count"] + 1)]:
        return f"{len(indices)} template rows, expected {expect['count']} numbered in order"
    return None


def reduce_answer(expect) -> dict:
    """Reference normal form of a ``reduce`` op, checked against the closed form."""
    table = expect["table"]
    answer = reference.reduce_expr(table, reference.parse_expr(expect["expr"]))
    k = expect.get("deep_k")
    if k is not None and answer != reference.quantum_plane_closed_form(table, k):
        raise RuntimeError(f"reference reducer disagrees with q^(k*k) at k={k}")
    return answer


def _reduce(expect, code, out):
    if code != 0:
        return f"exit code {code}, expected 0"
    try:
        got = reference.parse_output(out)
    except ValueError as exc:
        return f"unparsable output: {exc}"
    if got != reduce_answer(expect):
        return f"normal form differs from the reference: {out[:80]!r}"
    return None


_JUDGES = {"smooth": _smooth, "check-pbw": _check_pbw, "classify": _classify,
           "tables-paper": _tables_paper, "tables-full": _tables_full,
           "reduce": _reduce}


def judge(op, code, raised, out: str) -> tuple:
    """(state, detail) of one op run."""
    if raised is not None:
        return RAISED, raised
    if code == 2:
        return REFUSED, "exit code 2"
    problem = _JUDGES[op.kind](op.expect, code, out)
    return (WRONG, problem) if problem else (OK, "")
