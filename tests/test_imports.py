"""No module of the package imports a name at module level that it never
uses, no private helper is left without a caller, no function declares
a parameter that it never reads, and every function is reached from
`cli.main` or listed in NOT_REACHED with why it stays.  A name re-exported
through `__all__` counts as used."""

import ast
from collections import Counter
from pathlib import Path

import pytest

SRC = Path(__file__).resolve().parent.parent / "src" / "okbodies"

# Imported only so that perfbench's tracer can rebind them (its REBOUND
# table); the tracer refuses to install when one of the names is missing.
ALLOWED = {
    ("polytope", "solve"),  # rebound as linalg.solve
    ("toric", "solve"),  # rebound as linalg.solve
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


def definitions(tree):
    """(qualified name, node) of each function defined at module level or
    in a class body; a nested function is part of the function around it."""
    found = []

    def visit(body, owner):
        for node in body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
                found.append((f"{owner}.{node.name}" if owner else node.name,
                              node))
            elif isinstance(node, ast.ClassDef):
                visit(node.body, node.name)

    visit(tree.body, None)
    return found


# Dunders that Python calls without their name in the source: on
# construction, `==`, `hash` and `repr`.
PROTOCOL = {"__init__", "__post_init__", "__eq__", "__hash__", "__repr__"}


def unreached(sources, root=("cli", "main")):
    """(module, qualified name) of each function in `sources` (module name
    -> source) that no chain of references reaches from `root`.

    A reference resolves per module.  A bare name reaches the functions and
    methods of that name in its own module (a class body may alias a
    method) and the function that a relative `from .x import` binds to it.
    `alias.name`, where `from . import` binds `alias` to a module, reaches
    that module's function `name`.  Any other attribute read reaches every
    method of that name in every module, so a method call reaches the
    methods of that name on all classes, and no module-level function.  The
    module-level code of each module that importing the root's module runs
    (class bodies and default values included) is reached, and so are the
    PROTOCOL dunders, which construction, comparison, hashing and repr call
    implicitly.  Any other dunder (an operator such as `__add__`) is
    reached only by name, because the scanner cannot tell which class an
    operator is applied to."""
    trees = {module: ast.parse(s) for module, s in sources.items()}
    defs = {(module, q): node for module, tree in trees.items()
            for q, node in definitions(tree)}
    own, methods = {}, {}
    for module, q in defs:
        name = q.rsplit(".", 1)[-1]
        own.setdefault((module, name), set()).add((module, q))
        if "." in q:
            methods.setdefault(name, set()).add((module, q))
    aliases = {module: {} for module in trees}   # alias -> module
    imported = {module: {} for module in trees}  # name -> (module, name)
    for module, tree in trees.items():
        for n in ast.walk(tree):
            if isinstance(n, ast.ImportFrom) and n.level == 1:
                for a in n.names:
                    if n.module is None:
                        aliases[module][a.asname or a.name] = a.name
                    else:
                        imported[module][a.asname or a.name] = (n.module,
                                                                a.name)

    def resolve(module, nodes):
        """The functions that the names and attributes in `nodes`, read in
        `module`, reach."""
        found = set()
        for n in nodes:
            if isinstance(n, ast.Name):
                found |= own.get((module, n.id), set())
                found |= {imported[module].get(n.id)} & defs.keys()
            elif isinstance(n, ast.Attribute):
                target = (isinstance(n.value, ast.Name)
                          and aliases[module].get(n.value.id))
                found |= ({(target, n.attr)} & defs.keys() if target
                          else methods.get(n.attr, set()))
        return found

    loaded, todo = set(), ["__init__", root[0]]
    while todo:
        module = todo.pop()
        if module in loaded or module not in trees:
            continue
        loaded.add(module)
        todo.extend(name for n in ast.walk(trees[module])
                    if isinstance(n, ast.ImportFrom) and n.level == 1
                    for name in ([n.module] if n.module
                                 else [a.name for a in n.names]))
    reached = {root} | {(module, q) for module, q in defs if module in loaded
                        and q.rsplit(".", 1)[-1] in PROTOCOL}
    todo = list(reached)
    for module in loaded:
        inside = {id(n) for _, node in definitions(trees[module])
                  for n in ast.walk(node)}
        todo += resolve(module, (n for n in ast.walk(trees[module])
                                 if id(n) not in inside))
    while todo:
        d = todo.pop()
        reached.add(d)
        todo.extend(e for e in resolve(d[0], ast.walk(defs[d]))
                    if e not in reached)
    return set(defs) - reached


def test_reachability_scanner():
    sources = {
        "cli": ("from . import lib\nfrom .extra import Box\n"
                "from .lib import twin\n"
                "def main():\n    def inner():\n        return lib.go(1)\n"
                "    return inner() + twin()\n"
                "def dead():\n    return lib.only_dead()\n"),
        # `__eq__` runs implicitly and `helper` names `__len__`, but
        # nothing shows where the operator behind `__add__` is applied
        "lib": ("TABLE = {'t': tabled}\n"
                "def go(x):\n    return x.size\n"
                "def only_dead():\n    pass\n"
                "def tabled():\n    pass\n"
                "def twin():\n    return 0\n"
                "class A:\n    def size(self):\n        return 0\n"
                "    def __eq__(self, other):\n        return helper()\n"
                "    def __add__(self, other):\n        return self\n"
                "    def __len__(self):\n        return 0\n"
                "def helper():\n    return A.__len__\n"),
        "extra": ("class Box:\n    def size(self):\n        return 1\n"
                  "    def unused(self):\n        pass\n"),
        # `twin` in cli is lib's, so the same name here is not reached, and
        # `x.size` in lib reaches methods only, not this module's `size`
        "tools": ("HOOK = [unused_elsewhere]\n"
                  "def unused_elsewhere():\n    pass\n"
                  "def twin():\n    return 1\n"
                  "def size():\n    return 2\n"),
    }
    assert unreached(sources) == {
        ("cli", "dead"), ("lib", "only_dead"), ("extra", "Box.unused"),
        ("lib", "A.__add__"),
        ("tools", "unused_elsewhere"), ("tools", "twin"), ("tools", "size")}


# Functions that `cli.main` does not reach, by why each stays.
NOT_REACHED = {
    # perfbench/tracer.py wraps these (its BOUNDARIES), or only functions it
    # wraps call them; they go once the benchmark stops naming them
    "tracer": {
        ("invariants", "CurveBackend.is_pvs"),
        ("invariants", "SurfaceBackend.is_pvs"),
        ("invariants", "ToricBackend.is_pvs"),
        ("linalg", "det"), ("linalg", "nullspace"), ("linalg", "rank"),
        ("linalg", "solve"),
        ("lp", "_pivot"), ("lp", "_run"), ("lp", "max_cone_shift"),
        ("lp", "max_over_ineqs"), ("lp", "nonneg_combination"),
        ("lp", "recession_is_trivial"), ("lp", "simplex_max"),
        ("polytope", "Polytope.from_halfspaces"),
        ("polytope", "Polytope.slice_prefix_zero"),
        ("polytope", "Polytope.to_hrep"),
        ("toric", "sections"),
    },
    # perfbench/child.py calls these to build or check its workloads
    "child": {
        ("kernel", "active_lane"),
        ("polytope", "HalfSpace.violation"),
        ("polytope", "Polytope.translate"),
        ("toric", "projective_line"),
        ("toric", "projective_plane"),
    },
    # public API that the README names: embedding, flag valuations, and
    # the hull that `okbodies.__all__` exports
    "public": {
        ("polytope", "Polytope.embed"),
        ("polytope", "hull"),
        ("toric", "flag_valuation"),
    },
    # used only by tests
    "tests": {
        ("surface", "is_nef"),
        ("toric", "blown_up_plane"),
        ("toric", "hirzebruch"),
    },
}


ALLOWED_UNREACHED = set().union(*NOT_REACHED.values())


def _package_unreached():
    return unreached({p.stem: p.read_text() for p in sorted(SRC.glob("*.py"))})


def test_every_function_is_reached_or_allowed():
    assert sorted(_package_unreached() - ALLOWED_UNREACHED) == []


def test_allowed_functions_are_still_unreached():
    assert sorted(ALLOWED_UNREACHED - _package_unreached()) == []
