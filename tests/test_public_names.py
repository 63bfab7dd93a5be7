"""Every public name in the package has a caller in the package.

A public module-level function or class, or a public method, counts as
used when some module of src/volcalc/ refers to its name (an ast.Name or
an ast.Attribute) outside the name's own definition.  Strings in __all__
and import statements are not references.  A name that only tests reach
belongs in the tests, not in the package.

The scan matches bare names, not owners: a method counts as used when a
method of the same name on another class is referenced, so
ParabolicSymbol.scale went unseen as long as CoefficientField.scale had
callers.  Such an orphan takes a trace of the package's traffic to find.
"""

import ast
from pathlib import Path

import volcalc

PACKAGE = Path(volcalc.__file__).parent

# name -> its caller outside src/volcalc/ (the CLI, validate, PAPER.md's
# feature list or perfbench/); empty: every public name has a caller inside
ALLOWED = {}


def _public_definitions(tree):
    """(name, node) of public module-level functions and classes and of
    the public methods of module-level classes."""
    for node in tree.body:
        if not isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            continue
        if not node.name.startswith("_"):
            yield node.name, node
        if isinstance(node, ast.ClassDef):
            for item in node.body:
                if isinstance(item, ast.FunctionDef) and not item.name.startswith("_"):
                    yield f"{node.name}.{item.name}", item


def _references(tree):
    """(name, line) of every ast.Name and ast.Attribute in a module."""
    for node in ast.walk(tree):
        if isinstance(node, ast.Name):
            yield node.id, node.lineno
        elif isinstance(node, ast.Attribute):
            yield node.attr, node.lineno


def unreferenced_public_names(package=PACKAGE):
    trees = {path.name: ast.parse(path.read_text(), str(path))
             for path in sorted(package.glob("*.py"))}
    refs = {module: list(_references(tree)) for module, tree in trees.items()}
    unused = []
    for module, tree in trees.items():
        for qualname, node in _public_definitions(tree):
            name = node.name
            used = any(
                ref == name and not (other == module
                                     and node.lineno <= line <= node.end_lineno)
                for other, found in refs.items() for ref, line in found)
            if not used:
                unused.append(f"{module[:-3]}.{qualname}")
    return sorted(unused)


def test_every_public_name_has_a_caller_in_the_package():
    assert unreferenced_public_names() == sorted(ALLOWED)


def test_scan_sees_a_method_that_only_its_own_body_uses(tmp_path):
    (tmp_path / "mod.py").write_text(
        "class Thing:\n"
        "    def used(self):\n"
        "        return 1\n"
        "    def lonely(self):\n"
        "        return self.lonely\n"
        "    def _private(self):\n"
        "        return 2\n"
        "def helper():\n"
        "    return Thing().used()\n")
    (tmp_path / "other.py").write_text(
        "from mod import helper\n"
        "__all__ = ['helper']\n")
    assert unreferenced_public_names(tmp_path) == ["mod.Thing.lonely", "mod.helper"]
