"""The oracles stay independent of the package's internals.

``tests/oracles.py`` may use only public names of ``hopfgalois``: it
imports no ``_``-prefixed name and reads no ``_``-prefixed attribute.  And
the package never imports from the tests.  Both are read off the syntax
trees, so nothing here runs the code.
"""

import ast
from pathlib import Path

TESTS = Path(__file__).parent
PACKAGE = TESTS.parent / "src" / "hopfgalois"
TEST_MODULES = {"tests", "oracles", "conftest"} | {p.stem for p in TESTS.glob("test_*.py")}


def private_reads(tree):
    """Each ``_``-prefixed name the tree imports from hopfgalois, reads as an
    attribute, or passes to ``getattr`` as a string."""
    found = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "hopfgalois":
            found += [a.name for a in node.names if a.name.startswith("_")]
            found += [p for p in node.module.split(".") if p.startswith("_")]
        elif isinstance(node, ast.Import):
            found += [a.name for a in node.names if a.name.split(".")[0] == "hopfgalois"
                      and any(p.startswith("_") for p in a.name.split("."))]
        elif isinstance(node, ast.Attribute) and node.attr.startswith("_"):
            found.append(node.attr)
        elif isinstance(node, ast.Call) and getattr(node.func, "id", None) == "getattr":
            found += [a.value for a in node.args[1:2] if isinstance(a, ast.Constant)
                      and str(a.value).startswith("_")]
    return found


def imported_modules(tree):
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            yield from (a.name for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            yield node.module


def test_oracles_use_public_names_only():
    tree = ast.parse((TESTS / "oracles.py").read_text())
    assert private_reads(tree) == []
    assert "hopfgalois" in {m.split(".")[0] for m in imported_modules(tree)}


def test_private_reads_are_detected():
    code = ("from hopfgalois.hcmod import _closure\n"
            "import hopfgalois._x\n"
            "y = x.field._zero_exp\n"
            "z = getattr(x, '_memo')\n")
    assert private_reads(ast.parse(code)) == ["_closure", "hopfgalois._x",
                                              "_zero_exp", "_memo"]


def test_package_never_imports_the_tests():
    paths = sorted(PACKAGE.glob("*.py"))
    assert paths
    for path in paths:
        roots = {m.split(".")[0] for m in imported_modules(ast.parse(path.read_text()))}
        assert not roots & TEST_MODULES, path.name
