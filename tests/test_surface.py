"""The package's public names and the engine state the benchmark probe reads."""

import ast
import importlib
import types
from pathlib import Path

import diffalg
from diffalg import calculus, engine, forms, rows, templates

from conftest import build

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
    # a definition a hook leaves out is unreachable through its layer, and
    # one the layer defines too would be shadowed
    for layer, lazy, served in ((calculus, forms, calculus._FORMS),
                                (templates, rows, templates._ROWS)):
        assert _defined(lazy) == served, lazy.__name__
        assert not _defined(layer) & served, layer.__name__
        for name in ("__path__", "no_such_name"):
            assert not hasattr(layer, name), (layer.__name__, name)
    assert set(diffalg._LAZY) <= set(diffalg.__all__)
    assert not hasattr(diffalg, "_dual_bases")


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
