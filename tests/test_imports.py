"""No module of the package imports another module's private helpers.

A helper that a second module needs is public API, under a public name; a
relative ``from .x import _name`` hides that dependency.  The package's
sources are parsed, not imported.
"""

import ast
from pathlib import Path

import mjls


def private_imports(source: str) -> list:
    """The underscore-prefixed names of every relative ``from`` import in
    ``source``, as ``"line: from .module import name"``."""
    found = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.ImportFrom) and node.level:
            module = "." * node.level + (node.module or "")
            found += [f"{node.lineno}: from {module} import {alias.name}"
                      for alias in node.names if alias.name.startswith("_")]
    return found


def test_guard_finds_private_relative_imports():
    source = ("from .model import Policy, _as_stack\n"
              "from . import _private\n"
              "from os import _exit\n"
              "from .sim import rollout\n")
    assert private_imports(source) == ["1: from .model import _as_stack",
                                       "2: from . import _private"]


def test_no_module_imports_private_helpers():
    sources = sorted(Path(mjls.__file__).parent.glob("*.py"))
    assert sources
    found = {path.name: private_imports(path.read_text(encoding="utf-8"))
             for path in sources}
    assert {name: hits for name, hits in found.items() if hits} == {}
