"""No module of the package imports a name at module level that it never
uses.  A name re-exported through `__all__` counts as used."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "okbodies"

# Imported only so that perfbench's tracer can rebind them (its REBOUND
# table); the tracer refuses to install when either name is missing.
ALLOWED = {
    ("polytope", "solve"),  # rebound as linalg.solve
    ("polytope", "recession_is_trivial"),  # rebound as lp.recession_is_trivial
}


def module_imports(source):
    """Names bound by module-level imports, except `from __future__`."""
    names = set()
    for node in ast.parse(source).body:
        if isinstance(node, ast.Import):
            names.update((a.asname or a.name).split(".")[0] for a in node.names)
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            names.update(a.asname or a.name for a in node.names)
    return names


def unused_imports(source):
    tree = ast.parse(source)
    used = {n.id for n in ast.walk(tree) if isinstance(n, ast.Name)}
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(getattr(t, "id", None) == "__all__" for t in node.targets)):
            used.update(ast.literal_eval(node.value))
    return sorted(module_imports(source) - used)


def test_scanner_finds_unused_names():
    source = ("from __future__ import annotations\nimport json\nimport os.path\n"
              "from math import gcd, lcm as L\nfrom .x import y\n"
              "__all__ = ['y']\nprint(os.path.sep, L(2, 3))\n")
    assert unused_imports(source) == ["gcd", "json"]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unused_module_imports(path):
    unused = [name for name in unused_imports(path.read_text())
              if (path.stem, name) not in ALLOWED]
    assert unused == []


@pytest.mark.parametrize("module,name", sorted(ALLOWED))
def test_allowed_names_are_still_imported(module, name):
    assert name in module_imports((SRC / f"{module}.py").read_text())
