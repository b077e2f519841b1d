"""The package's public names and the engine state the benchmark probe reads."""

import ast
import importlib
import json
import math
import os
import subprocess
import sys
import types
from pathlib import Path

import diffalg
from diffalg import calculus, engine, forms, rows, templates

from conftest import FIXTURES, build

ROOT = Path(__file__).resolve().parents[1]


def test_every_public_name_resolves():
    assert len(set(diffalg.__all__)) == len(diffalg.__all__)
    for name in diffalg.__all__:
        assert hasattr(diffalg, name), name


def _load_tracing():
    """bench/tracing.py as a module of its own; nothing is installed or written."""
    path = ROOT / "bench" / "tracing.py"
    module = types.ModuleType("bench_tracing")
    exec(compile(path.read_text(encoding="utf-8"), str(path), "exec"), vars(module))
    return module


def test_every_traced_function_resolves_in_its_layer():
    # the bench tracer wraps these by name and has no default for a missing
    # one, so a function moved out of its module breaks every traced run
    for layer, names in _load_tracing().LAYERS.items():
        module = importlib.import_module(f"diffalg.{layer}")
        for name in names:
            assert callable(getattr(module, name, None)), f"{layer}.{name}"
            # the tracer rebinds only what it finds in the module's namespace,
            # so a name served on first use must be kept there
            assert name in vars(module), f"{layer}.{name}"


def _defined(module) -> set:
    """The names a module's own top-level definitions and assignments bind."""
    tree = ast.parse(Path(module.__file__).read_text(encoding="utf-8"))
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)}
    return names


def test_each_hook_serves_exactly_its_lazy_module():
    # a hook serves a name exactly when its layer's __all__ lists it, and a
    # listed name the layer defines never reaches the hook: so the listed
    # names the layer leaves undefined are the lazy module's public ones
    for layer, lazy in ((calculus, forms), (templates, rows)):
        public = {name for name in _defined(lazy) if not name.startswith("_")}
        assert set(layer.__all__) - _defined(layer) == public, lazy.__name__
        # a private helper stays in its own module
        private = _defined(lazy) - public - _defined(layer)
        assert {"_walk", "_dual_bases"} & private
        for name in sorted(private) + ["__path__", "no_such_name"]:
            assert not hasattr(layer, name), (layer.__name__, name)
    for name in ("_walk", "_dual_bases", "tables_text"):
        assert not hasattr(diffalg, name), name


def test_template_rows_carry_what_the_bench_reads():
    # the bench takes len() of generate_templates and reads these attributes
    # off each row it instantiates
    rows = templates.generate_templates(3, "full")
    assert type(rows) is list and rows
    for row in rows:
        for name in ("n", "family", "I", "S", "T_circ", "T_bullet",
                     "R_components", "params"):
            assert hasattr(row, name), name


def test_bench_probe_reads_the_engine_tables():
    probe_engine = _load_tracing().probe_engine
    # a table no other test builds, with a rewrite in every triple
    P = build(3, {(1, 2): 7, (2, 1): 1, (1, 3): 7, (3, 1): 1, (2, 3): 7, (3, 2): 1},
              {1: 1, 2: 1, 3: 1})
    _, before = probe_engine(engine)
    engine.normal_form((1, 2, 3), P)
    contexts, words = probe_engine(engine)
    assert contexts is not None and words is not None
    assert contexts >= 1 and words > (before or 0)


# Run in a fresh interpreter, since the tracer rebinds diffalg's functions and
# Fraction's operators for good: the ops of the three workloads through
# ``cli.main`` under ``bench/tracing.py``, the engine probed after each op as
# ``bench/worker.py`` does, then the tracer's aggregate of the span file.
_TRACE_PROBE = """
import io, json, sys
from contextlib import redirect_stderr, redirect_stdout
sys.path.insert(0, BENCH)
import diffalg.cli, diffalg.engine
import tracing
tracer = tracing.Tracer()
tracing.install(tracer)
codes = []
with redirect_stdout(io.StringIO()), redirect_stderr(io.StringIO()):
    for index, argv in enumerate(OPS):
        span = tracer.begin_op(index)
        codes.append(diffalg.cli.main(argv))
        tracer.close(span)
        tracer.probes.append(tracing.probe_engine(diffalg.engine))
tracer.write(SPANS)
summary = tracing.aggregate(SPANS)
print(json.dumps({"codes": codes, "absent": summary["absent"],
                  "metrics": {k: v for k, (v, _) in summary["metrics"].items()}}))
"""


def test_a_traced_run_reports_every_per_layer_name(tmp_path):
    # a traced bench run whose JSON line loses a name, or holds a value that
    # is not finite, is no result; run.py adds trace.overhead_share itself
    fixture = {name: str(FIXTURES / f"{name}.dalg") for name in ("p1", "b1", "p3")}
    ops = [["smooth", fixture["p1"]], ["smooth", fixture["b1"]],
           ["reduce", fixture["p1"], "D1 D2 D3 D4"], ["check-pbw", fixture["p3"]],
           ["classify", fixture["b1"]], ["tables", "3"]]
    script = (f"BENCH = {str(ROOT / 'bench')!r}\nSPANS = {str(tmp_path / 'spans')!r}\n"
              f"OPS = {ops!r}\n" + _TRACE_PROBE)
    env = {**os.environ, "PYTHONPATH": str(ROOT / "src"), "PYTHONDONTWRITEBYTECODE": "1"}
    proc = subprocess.run([sys.executable, "-c", script], capture_output=True, text=True,
                          env=env, timeout=60)
    assert (proc.returncode, proc.stderr) == (0, "")
    result = json.loads(proc.stdout)
    assert result["codes"] == [0] * len(ops)
    assert result["absent"] == []
    declared = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
    expected = {m["name"] for m in declared["per_layer"]} - {"trace.overhead_share"}
    metrics = result["metrics"]
    assert expected - metrics.keys() == set()
    assert [k for k in expected if not math.isfinite(metrics[k])] == []
