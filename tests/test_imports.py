"""No module of the package imports a name at module level that it never
uses, no private helper is left without a caller, and no function declares
a parameter that it never reads.  A name re-exported through `__all__`
counts as used."""

import ast
from collections import Counter
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


def _references(node):
    """How often each name is read under `node`, as a name or an attribute."""
    return Counter(n.id if isinstance(n, ast.Name) else n.attr
                   for n in ast.walk(node)
                   if isinstance(n, (ast.Name, ast.Attribute)))


def orphaned_helpers(sources):
    """Private functions and methods (`_name`, not dunders) that no code in
    `sources` names outside their own def."""
    trees = [ast.parse(s) for s in sources]
    total = sum(map(_references, trees), Counter())
    return sorted(node.name for tree in trees for node in ast.walk(tree)
                  if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef))
                  and node.name.startswith("_")
                  and not node.name.endswith("__")
                  and total[node.name] == _references(node)[node.name])


def test_orphan_scanner_finds_uncalled_helpers():
    sources = ["def _fit(xs):\n    return _fit(xs[1:])\n"
               "def _used():\n    pass\n"
               "class C:\n    def __init__(self):\n        self._m()\n"
               "    def _m(self):\n        pass\n",
               "from x import _used\nprint(_used)\n"]
    assert orphaned_helpers(sources) == ["_fit"]


def test_no_orphaned_private_helpers():
    sources = [p.read_text() for p in sorted(SRC.glob("*.py"))]
    assert orphaned_helpers(sources) == []


# Every backend is passed a flag; a curve's flag (curve, general point) is
# implicit, so the curve backend never reads it.
UNREAD_ALLOWED = {
    ("invariants", "CurveBackend.stratum", "flag"),
    ("invariants", "CurveBackend.body_val", "flag"),
    ("invariants", "CurveBackend.body_lim", "flag"),
}


def unread_parameters(source):
    """(qualified function name, parameter) for each parameter that its
    function never reads.  A method's first parameter is exempt unless the
    method is a staticmethod; a read in a nested function counts."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child.name)
            elif isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                params = [a.arg for a in (*args.posonlyargs, *args.args,
                                          args.vararg, *args.kwonlyargs,
                                          args.kwarg) if a]
                static = any(getattr(d, "id", None) == "staticmethod"
                             for d in child.decorator_list)
                if owner and not static:
                    params = params[1:]
                reads = {n.id for n in ast.walk(child)
                         if isinstance(n, ast.Name)
                         and isinstance(n.ctx, ast.Load)}
                name = f"{owner}.{child.name}" if owner else child.name
                found.extend((name, p) for p in params if p not in reads)
                visit(child, None)
            else:
                visit(child, owner)

    visit(ast.parse(source), None)
    return found


def test_unread_parameter_scanner():
    source = ("def f(a, b, *args, c, **kw):\n    return a + kw['x']\n"
              "def g(x):\n    x = 1\n    return x\n"
              "def h(y):\n    def inner():\n        return y\n"
              "    return inner\n"
              "class C:\n    def m(self, z):\n        pass\n"
              "    @staticmethod\n    def s(w):\n        pass\n"
              "    @property\n    def p(self):\n        return 0\n")
    assert unread_parameters(source) == [
        ("f", "b"), ("f", "args"), ("f", "c"), ("C.m", "z"), ("C.s", "w")]


@pytest.mark.parametrize("path", sorted(SRC.glob("*.py")), ids=lambda p: p.stem)
def test_no_unread_parameters(path):
    unread = [(path.stem, name, p) for name, p in
              unread_parameters(path.read_text())]
    assert [u for u in unread if u not in UNREAD_ALLOWED] == []


def test_allowed_unread_parameters_are_still_declared():
    unread = {(p.stem, name, q) for p in sorted(SRC.glob("*.py"))
              for name, q in unread_parameters(p.read_text())}
    assert UNREAD_ALLOWED <= unread
