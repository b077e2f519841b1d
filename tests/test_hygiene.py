"""Hygiene of the package: no module imports a name it never uses, and no
module has an ``assert`` statement.

A name a module lists in its ``__all__`` is exempt, which covers the
re-exports of ``__init__.py``.  Names are read with :mod:`ast`, so a use
inside an annotation counts and a mention in a docstring does not.
``python -O`` removes every ``assert``, so no check of the package may
hinge on one.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parents[1] / "src" / "diffalg"


def unused_imports(source: str) -> list:
    tree = ast.parse(source)
    imported = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound = alias.asname or alias.name.split(".")[0]
                imported[bound] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    exported = set()
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            exported |= set(ast.literal_eval(node.value))
    return sorted((line, name) for name, line in imported.items()
                  if name not in used and name not in exported)


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_uses_every_name_it_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_check_sees_an_unused_import():
    source = ("from .engine import Poly, normal_form\n"
              "import os.path\n"
              "__all__ = ['keep']\n"
              "from .x import keep\n"
              "def f(p: Poly):\n    return p\n")
    assert unused_imports(source) == [(1, "normal_form"), (2, "os")]


def assert_lines(source: str) -> list:
    return sorted(node.lineno for node in ast.walk(ast.parse(source))
                  if isinstance(node, ast.Assert))


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.name)
def test_module_has_no_assert(path):
    assert assert_lines(path.read_text(encoding="utf-8")) == []


def test_check_sees_an_assert():
    source = ("def f(x):\n"
              "    \"assert x\"\n"
              "    assert x > 0, 'positive'\n"
              "    return x\n")
    assert assert_lines(source) == [3]
