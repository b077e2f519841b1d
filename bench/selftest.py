"""Checks of the benchmark itself: ``python3 bench/run.py --selftest``.

1. The reference reducer agrees with ``reduce_terms`` from ``tools/oracle.py``
   on words up to degree 9 (beyond that the oracle is too slow), and with
   the closed form ``D1^k D2^k = q^(k*k) D2^k D1^k`` on quantum planes.
2. A deliberately wrong expected answer of every op kind is caught: the
   op is judged ``wrong`` and the closing line makes the command exit 1,
   while the same ops with their true answers pass.
3. The engine probes report absent state as absent, and never as 0.
4. Two traced runs of one seed give identical counts.

Exits 0 when every check holds, 1 otherwise.
"""

from __future__ import annotations

import ast
import copy
import io
import random
import shutil
import types
from contextlib import redirect_stdout
from fractions import Fraction
from pathlib import Path

import checks
import reference
import run
import tracing
import workloads

ORACLE_MAX_DEGREE = 9


def _oracle(root: Path) -> types.SimpleNamespace:
    """``pres`` and ``reduce_terms`` from tools/oracle.py, without running its checks."""
    source = (root / "tools" / "oracle.py").read_text(encoding="utf-8")
    tree = ast.parse(source)
    keep = [node for node in tree.body
            if isinstance(node, (ast.Import, ast.ImportFrom))
            or (isinstance(node, ast.FunctionDef) and node.name in ("pres", "reduce_terms"))]
    namespace: dict = {}
    exec(compile(ast.Module(body=keep, type_ignores=[]), "oracle.py", "exec"), namespace)
    return types.SimpleNamespace(**namespace)


def _as_oracle_pres(oracle, table: reference.Table):
    return oracle.pres(table.n, dict(table.g), dict(table.x))


def check_reference(root: Path, failures: list) -> int:
    oracle = _oracle(root)
    rng = random.Random("selftest-reference")
    tables = [workloads._uniform_table(3, rng), workloads._uniform_table(4, rng),
              workloads._plane(rng, False), workloads._plane(rng, True)]
    for name in ("p1", "b1", "p3"):
        text = (root / "tests" / "fixtures" / f"{name}.dalg").read_text(encoding="utf-8")
        tables.append(reference.parse_table(text))
    compared = 0
    for table in tables:
        words = [(1, 2, 3)[:table.n] * k for k in (1, 2, 3)]
        words += [tuple(rng.randint(1, table.n) for _ in range(rng.randint(2, ORACLE_MAX_DEGREE)))
                  for _ in range(6)]
        for word in words:
            ours = reference.reduce_expr(table, {word: Fraction(1)})
            theirs = oracle.reduce_terms(_as_oracle_pres(oracle, table), [(1, word)])
            compared += 1
            if ours != theirs:
                failures.append(f"reference and oracle disagree on {word} over n={table.n}")
    for k in (1, 5, 30, 40):
        table = workloads._plane(rng, True)
        if reference.reduce_expr(table, {(1,) * k + (2,) * k: 1}) != \
                reference.quantum_plane_closed_form(table, k):
            failures.append(f"reference disagrees with q^(k*k) at k={k}")
    return compared


def _corrupt(op: workloads.Op) -> workloads.Op:
    """The same command with an expected answer that is certainly wrong."""
    expect = copy.copy(op.expect)
    if op.kind == "smooth":
        expect["case"] = {"i": "ii"}.get(expect["case"], "i")
    elif op.kind == "classify":
        expect["family"] = "A_II" if expect["family"] != "A_II" else "B"
    elif op.kind == "check-pbw":
        expect["pbw"] = "false"
    elif op.kind == "tables-paper":
        expect["text"] = expect["text"].replace("family: A_I\n", "family: A_II\n", 1)
    elif op.kind == "tables-full":
        expect["count"] += 1
    elif op.kind == "reduce":
        table = expect["table"]  # double every trailing coefficient g(j, i), j > i
        expect["table"] = reference.Table(
            table.n, {(j, i): v * (2 if j > i else 1) for (j, i), v in table.g.items()},
            table.x)
    return workloads.Op(op.op_id + "-bad", op.argv, op.kind, expect)


def _sample_ops(root: Path, work: Path) -> list:
    """A few cheap ops of every kind, taken from the real workloads."""
    verify = workloads.build("verify", root, 1, work / "v", 1)[0]
    reduce = workloads.build("reduce", root, 1, work / "r", 1)[0]
    classify = workloads.build("classify", root, 1, work / "c", 1)[0]
    picked = [verify[0]]  # n = 3, case i
    picked += [reduce[0], next(op for op in reduce if "deep_k" in op.expect)]
    picked += [op for op in classify if op.kind in ("tables-paper", "tables-full")
               and op.argv[1] in ("3", "4")]
    picked += [next(op for op in classify if op.kind == kind)
               for kind in ("check-pbw", "classify")]
    return picked


def check_wrong_answers(root: Path, work: Path, failures: list) -> int:
    for sub in ("v", "r", "c"):
        (work / sub).mkdir(parents=True, exist_ok=True)
    good = _sample_ops(root, work)
    bad = [_corrupt(op) for op in good]
    result = run.run_loop(root, work, "selftest", [good + bad], trace=False)
    states = {j["id"]: j["state"] for j in result["judged"]}
    for op in good:
        if states[op.op_id] != checks.OK:
            failures.append(f"op {op.op_id} ({op.kind}) with its true answer: {states[op.op_id]}")
    for op in bad:
        if states[op.op_id] != checks.WRONG:
            failures.append(f"op {op.op_id} ({op.kind}) with a wrong answer: {states[op.op_id]}")
    with redirect_stdout(io.StringIO()):
        code = run.result_line(not any(s == checks.WRONG for s in states.values()),
                               len(states), 0, {})
    if code != 1:
        failures.append(f"a wrong answer gave exit code {code}, expected 1")
    return len(bad)


def check_probes(failures: list) -> None:
    cases = {
        "no _contexts": (types.SimpleNamespace(), (None, None)),
        "context without nf_cache": (
            types.SimpleNamespace(_contexts={1: types.SimpleNamespace()}), (1, None)),
        "known shape": (
            types.SimpleNamespace(_contexts={1: types.SimpleNamespace(
                nf_cache={"leftmost": {(1,): 1, (2,): 1}, "rightmost": {(1,): 1}})}), (1, 3)),
    }
    for label, (engine, want) in cases.items():
        got = tracing.probe_engine(engine)
        if got != want:
            failures.append(f"probe on {label}: {got}, expected {want}")


def check_trace_repeats(root: Path, work: Path, failures: list) -> None:
    counts = []
    for attempt in range(2):
        sub = work / f"trace{attempt}"
        sub.mkdir(parents=True, exist_ok=True)
        with redirect_stdout(io.StringIO()):
            _, _, _, metrics = run.traced(root, sub, "reduce", 1)
        counts.append({k: v for k, (v, unit) in metrics.items()
                       if k.endswith(".calls") or unit in ("count", "words/op", "calls/op")})
    if counts[0] != counts[1]:
        differing = sorted(k for k in counts[0] if counts[0][k] != counts[1].get(k))
        failures.append(f"traced counts differ between two runs: {differing}")


def main(root: Path) -> int:
    failures: list = []
    work = root / ".bench_build" / "selftest"
    work.mkdir(parents=True, exist_ok=True)
    try:
        compared = check_reference(root, failures)
        print(f"reference vs oracle: {compared} words compared")
        caught = check_wrong_answers(root, work, failures)
        print(f"wrong expected answers planted: {caught}")
        check_probes(failures)
        check_trace_repeats(root, work, failures)
        print("traced counts compared across two runs")
    finally:
        shutil.rmtree(work, ignore_errors=True)
    for failure in failures:
        print(f"FAIL: {failure}")
    print("selftest: " + ("FAILED" if failures else "ok"))
    return 1 if failures else 0
