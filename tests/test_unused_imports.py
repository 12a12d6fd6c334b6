"""Every name a module imports is read somewhere in that module.

A stdlib ``ast`` scan over ``src/koopsos`` and ``tests``: an import binds a
name, and the module must read that name (``x`` or ``x.attr``) at least once.
Package ``__init__.py`` files re-export what they import, and a name listed in
a module's ``__all__`` is exported, so both count as used.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted(p for base in (ROOT / "src" / "koopsos", ROOT / "tests")
                 for p in base.rglob("*.py") if p.name != "__init__.py")


def _imported(tree):
    """{bound name: line} for every import outside ``from __future__``."""
    names = {}
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                names[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    names[alias.asname or alias.name] = node.lineno
    return names


def _read(tree):
    """Names the module reads, plus the strings of its ``__all__``."""
    names = {node.id for node in ast.walk(tree)
             if isinstance(node, ast.Name)
             and not isinstance(node.ctx, ast.Store)}
    for node in ast.walk(tree):
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            names.update(ast.literal_eval(node.value))
    return names


def unused_imports(source: str) -> list[tuple[str, int]]:
    """(name, line) of each imported name the source never reads."""
    tree = ast.parse(source)
    read = _read(tree)
    return sorted((name, line) for name, line in _imported(tree).items()
                  if name not in read)


def test_checker_flags_an_unused_import_and_passes_used_ones():
    source = ("import os\n"
              "import numpy as np\n"
              "from math import pi, tau\n"
              "from json import dumps\n"
              "__all__ = ['dumps']\n"
              "x = np.zeros(1) * pi\n")
    assert unused_imports(source) == [("os", 1), ("tau", 3)]


def test_scan_covers_the_package_and_the_tests():
    assert {p.parent.name for p in SCANNED} == {"koopsos", "tests"}
    assert Path(__file__).resolve() in SCANNED


@pytest.mark.parametrize("path", SCANNED,
                         ids=[str(p.relative_to(ROOT)) for p in SCANNED])
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []
