"""The package carries no code that only the tests call.

Every public module-level function and class and every public method in
``src/circleq`` must be referenced somewhere in ``src/`` outside its own
definition: a function or class by name, a method through an attribute.
Code that serves only as a test oracle belongs in ``tests/oracles.py``.  An
import is not a use, so ``__init__`` re-exporting a name does not keep it
alive.

numpy is the only runtime dependency: every import in ``src/circleq`` is
relative, ``__future__``, from the standard library, or numpy.
"""

import ast
import sys
from pathlib import Path

import circleq

SOURCES = sorted(Path(circleq.__file__).parent.glob("*.py"))


def _public_defs(tree: ast.Module):
    """(qualified name, def node, is a method) of every public class or def
    at module level, and of every public def directly in such a class."""
    for node in tree.body:
        members = [(node, "")]
        if isinstance(node, ast.ClassDef):
            if not node.name.startswith("_"):
                yield node.name, node, False
            members = [(child, f"{node.name}.") for child in node.body]
        for child, prefix in members:
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                if not child.name.startswith("_"):
                    yield prefix + child.name, child, bool(prefix)


def _references(tree: ast.Module, name: str, method: bool, skip: ast.AST) -> int:
    """Loads of ``name`` (as an attribute only, for a method) outside ``skip``."""
    inside = {id(node) for node in ast.walk(skip)}
    count = 0
    for node in ast.walk(tree):
        if id(node) in inside:
            continue
        if isinstance(node, ast.Attribute) and node.attr == name:
            count += 1
        elif not method and isinstance(node, ast.Name) and node.id == name:
            count += isinstance(node.ctx, ast.Load)
    return count


def _foreign_imports(tree: ast.Module) -> list:
    """Modules imported by ``tree`` that are not relative, ``__future__``,
    standard library or numpy."""
    allowed = set(sys.stdlib_module_names) | {"__future__", "numpy"}
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            found += [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and not node.level:
            found.append(node.module)
    return [name for name in found if name.split(".")[0] not in allowed]


def test_every_public_def_has_a_caller_in_src():
    trees = {path: ast.parse(path.read_text(), str(path)) for path in SOURCES}
    unused = []
    for path, tree in trees.items():
        for qualified, node, method in _public_defs(tree):
            if not any(_references(other, node.name, method, node) for other in trees.values()):
                unused.append(f"{path.name}: {qualified}")
    assert not unused, "public names with no caller in src/: " + ", ".join(unused)


def test_the_guard_sees_an_unused_def():
    tree = ast.parse("def used():\n    return 1\n\ndef orphan():\n    return used(), Box()\n"
                     "class Box:\n    def size(self):\n        return self.size\n"
                     "class Stray:\n    pass\n")
    found = {name: _references(tree, node.name, method, node)
             for name, node, method in _public_defs(tree)}
    assert found == {"used": 1, "orphan": 0, "Box": 1, "Box.size": 0, "Stray": 0}


def test_numpy_is_the_only_runtime_dependency():
    foreign = [f"{path.name}: {name}" for path in SOURCES
               for name in _foreign_imports(ast.parse(path.read_text(), str(path)))]
    assert not foreign, "imports beyond numpy and the standard library: " + ", ".join(foreign)


def test_the_guard_sees_a_foreign_import():
    tree = ast.parse("from __future__ import annotations\nimport math, numpy as np\n"
                     "from numpy.linalg import eigh\nfrom . import cli\nfrom .specfun import TWO_PI\n"
                     "def solve():\n    import scipy\n    from scipy.linalg import eig_banded\n")
    assert _foreign_imports(tree) == ["scipy", "scipy.linalg"]
