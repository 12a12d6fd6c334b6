"""Every name a module imports is read somewhere in that module, and every
private name the package defines is read somewhere in the package.

A stdlib ``ast`` scan over ``src/koopsos`` and ``tests``: an import binds a
name, and the module must read that name (``x`` or ``x.attr``) at least once.
Package ``__init__.py`` files re-export what they import, and a name listed in
a module's ``__all__`` is exported, so both count as used.

A module-level function, class or constant of ``src/koopsos`` whose name
starts with one underscore is private: some module of the package must read
it, by name, as an attribute or in an import, or it is a dead helper.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
SCANNED = sorted(p for base in (ROOT / "src" / "koopsos", ROOT / "tests")
                 for p in base.rglob("*.py") if p.name != "__init__.py")
PACKAGE = sorted((ROOT / "src" / "koopsos").rglob("*.py"))


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


def _private_definitions(tree):
    """{name: line} for the module-level functions, classes and assigned
    names that start with one underscore."""
    names = {}
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                             ast.ClassDef)):
            bound = [node.name]
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            bound = [n.id for t in targets for n in ast.walk(t)
                     if isinstance(n, ast.Name)]
        else:
            continue
        names.update((name, node.lineno) for name in bound
                     if name.startswith("_") and not name.startswith("__"))
    return names


def _referenced(tree):
    """What ``_read`` finds, plus the attributes the module reads and the
    names it imports."""
    names = _read(tree)
    names.update(node.attr for node in ast.walk(tree)
                 if isinstance(node, ast.Attribute)
                 and not isinstance(node.ctx, ast.Store))
    names.update(alias.name for node in ast.walk(tree)
                 if isinstance(node, ast.ImportFrom) for alias in node.names)
    return names


def dead_private_names(sources: dict) -> list[tuple[str, str, int]]:
    """(module, name, line) of each private name no module reads."""
    trees = {module: ast.parse(text) for module, text in sources.items()}
    read = set().union(*map(_referenced, trees.values()))
    return sorted((module, name, line) for module, tree in trees.items()
                  for name, line in _private_definitions(tree).items()
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


def test_private_checker_flags_a_dead_helper_and_passes_read_ones():
    sources = {
        "a": ("_LIMIT = 3\n"
              "_X: int = 1\n"
              "def _helper():\n"
              "    return _LIMIT\n"
              "def _dead():\n"
              "    pass\n"
              "class _Box:\n"
              "    pass\n"
              "def __getattr__(name):\n"
              "    pass\n"
              "def public():\n"
              "    return _helper()\n"),
        "b": ("from a import _Box\n"
              "import a\n"
              "a._X\n"),
    }
    assert dead_private_names(sources) == [("a", "_dead", 5)]


def test_no_dead_private_helpers():
    assert dead_private_names(
        {str(p.relative_to(ROOT)): p.read_text() for p in PACKAGE}) == []
