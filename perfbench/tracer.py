"""Boundary tracer for okbodies, installed from outside the package.

`Tracer.install()` wraps every function named in BOUNDARIES with a span
recorder. A function that other modules import by name (`from .linalg
import solve`), keep in a dict (`fiberspace.ALL_CHECKS`) or alias on a
class (`Polytope.__add__`) is replaced wherever that same object is bound
inside the package, so calls are counted no matter which name they go
through. Installing fails loudly when a named boundary is missing, or is
left unwrapped where it is defined or at one of the REBOUND sites: a
rename must never turn into a quiet zero.

Spans stay in memory as (name index, start, end, parent index) tuples;
`summary()` turns them into per-boundary calls and self times, and
`write_spans()` dumps them when the run ends.
"""

from __future__ import annotations

import functools
import importlib
import json
import sys
import time
from math import comb

_BACKEND_METHODS = ("body_val", "body_lim", "volume", "dims",
                    "restricted_volume_plus", "nakayama", "is_pvs")

# (layer = okbodies module, owner class or "" for the module, functions)
BOUNDARIES = (
    ("cli", "", ("main",)),
    ("ioformats", "", ("load_json", "instance_from_obj", "canonical_dumps")),
    ("fiberspace", "", ("check_thm_1_1", "check_thm_1_2", "check_thm_1_3",
                        "check_cor_3_5", "check_lemma_3_1", "check_remark_3_6",
                        "scaling_search")),
    ("invariants", "ToricBackend", _BACKEND_METHODS),
    ("invariants", "SurfaceBackend", _BACKEND_METHODS),
    ("invariants", "CurveBackend", _BACKEND_METHODS),
    ("toric", "", ("section_polytope", "sections", "okounkov_body_toric",
                   "okounkov_body_bruteforce", "restricted_series",
                   "restricted_volume_toric", "nakayama_verdict")),
    ("surface", "", ("zariski_decompose", "okounkov_body_surface",
                     "limiting_body_surface", "numerical_dims_surface",
                     "restricted_volume_plus", "psef_threshold")),
    ("polytope", "Polytope", ("hull", "from_halfspaces", "to_hrep",
                              "minkowski_sum", "contains", "volume_in_dim",
                              "slice_prefix_zero")),
    ("lp", "", ("recession_is_trivial", "simplex_max", "max_over_ineqs",
                "nonneg_combination", "max_cone_shift")),
    ("linalg", "", ("solve", "rank", "nullspace", "det", "solve_rect")),
    ("kernel", "", ("hull2d_indices", "hull3d_facets", "lattice_points",
                    "prune_interior")),
)

LAYERS = tuple(dict.fromkeys(layer for layer, _, _ in BOUNDARIES))

# Bindings outside the defining module that must end up wrapped:
# (module, owner class or "", attribute, boundary it must report as).
REBOUND = (
    ("polytope", "", "recession_is_trivial", "lp.recession_is_trivial"),
    ("polytope", "", "solve", "linalg.solve"),
    ("toric", "", "solve", "linalg.solve"),
    ("polytope", "Polytope", "__add__", "polytope.minkowski_sum"),
)

ROOT = "op"


class BoundaryMissing(RuntimeError):
    """A boundary named in BOUNDARIES or REBOUND was not found or not wrapped."""


class Tracer:
    def __init__(self):
        self.names = [ROOT]
        self.spans = []
        self._stack = [-1]
        self._wrapped = {}  # id(original function) -> wrapper, which keeps it alive
        self._boundary = {}  # id(wrapper) -> boundary name
        self.section_inputs = []
        self.halfspace_subsets = 0
        self.halfspace_vertices = 0
        self.hull_inputs = 0
        self.hull_extreme = 0

    # -- spans ---------------------------------------------------------------

    def _span(self, name_id, fn):
        spans, stack, clock = self.spans, self._stack, time.perf_counter

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            idx = len(spans)
            spans.append(None)
            parent = stack[-1]
            stack.append(idx)
            t0 = clock()
            try:
                return fn(*args, **kwargs)
            finally:
                t1 = clock()
                stack.pop()
                spans[idx] = (name_id, t0, t1, parent)

        return traced

    def root(self, fn, *args):
        """Call fn(*args) inside the root span of one operation."""
        return self._span(0, fn)(*args)

    # -- waste-ratio observers --------------------------------------------------

    def _observe(self, name, fn):
        if name == "toric.section_polytope":
            def section_polytope(X, D):
                self.section_inputs.append((X.rays, D.coeffs))
                return fn(X, D)
            return section_polytope
        if name == "polytope.from_halfspaces":
            def from_halfspaces(halfspaces, ambient_dim):
                hs = list(halfspaces)
                P = fn(hs, ambient_dim)
                self.halfspace_subsets += comb(len(hs), ambient_dim)
                self.halfspace_vertices += len(P.vertices)
                return P
            return from_halfspaces
        if name == "polytope.hull":
            def hull(points):
                pts = list(points)
                P = fn(pts)
                self.hull_inputs += len(pts)
                self.hull_extreme += len(P.vertices)
                return P
            return hull
        return fn

    # -- installation ------------------------------------------------------------

    def install(self, package="okbodies"):
        modules = {layer: importlib.import_module(f"{package}.{layer}")
                   for layer in LAYERS}
        defined = []  # (owner, attribute, boundary name)
        for layer, owner, funcs in BOUNDARIES:
            target = _owner(modules[layer], owner, layer)
            for fname in funcs:
                raw = vars(target).get(fname)
                if raw is None:
                    raise BoundaryMissing(f"{layer}.{owner + '.' if owner else ''}"
                                          f"{fname} not found")
                orig = raw.__func__ if isinstance(raw, staticmethod) else raw
                if not callable(orig):
                    raise BoundaryMissing(f"{layer}.{fname} is not callable")
                name = f"{layer}.{fname}"
                if name not in self.names:
                    self.names.append(name)
                wrapper = self._span(self.names.index(name),
                                     self._observe(name, orig))
                self._wrapped[id(orig)] = wrapper
                self._boundary[id(wrapper)] = name
                defined.append((target, fname, name))
        self._rebind(package)
        defined += [(_owner(modules[layer], owner, layer), attr, name)
                    for layer, owner, attr, name in REBOUND]
        for target, attr, name in defined:
            bound = getattr(target, attr, None)
            if self._boundary.get(id(bound)) != name:
                raise BoundaryMissing(f"{getattr(target, '__name__', target)}."
                                      f"{attr} is not wrapped as {name}")
        checks = modules["fiberspace"].ALL_CHECKS
        if not checks or any(id(fn) not in self._boundary
                             for fn in checks.values()):
            raise BoundaryMissing("fiberspace.ALL_CHECKS holds an unwrapped check")
        return self

    def _rebind(self, package):
        """Replace every binding of a wrapped original inside the package."""
        def wrapper_of(value):
            inner = value.__func__ if isinstance(value, staticmethod) else value
            w = self._wrapped.get(id(inner))
            if w is not None and isinstance(value, staticmethod):
                return staticmethod(w)
            return w

        for modname, mod in list(sys.modules.items()):
            if modname != package and not modname.startswith(package + "."):
                continue
            for key, value in list(vars(mod).items()):
                if (w := wrapper_of(value)) is not None:
                    setattr(mod, key, w)
                elif isinstance(value, dict):
                    for k, v in list(value.items()):
                        if (w := wrapper_of(v)) is not None:
                            value[k] = w
                elif isinstance(value, type) and value.__module__ == modname:
                    for k, v in list(vars(value).items()):
                        if (w := wrapper_of(v)) is not None:
                            setattr(value, k, w)

    # -- results -----------------------------------------------------------------

    def summary(self):
        """Calls and self seconds per boundary and per layer, plus ratios."""
        n = len(self.names)
        calls = [0] * n
        total = [0.0] * n
        child = [0.0] * len(self.spans)
        for _, t0, t1, parent in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        for idx, (name_id, t0, t1, parent) in enumerate(self.spans):
            calls[name_id] += 1
            total[name_id] += (t1 - t0) - child[idx]
        out = {}
        for i, name in enumerate(self.names[1:], start=1):
            out[f"{name}.calls"] = calls[i]
            out[f"{name}.self_s"] = total[i]
        for layer in LAYERS:
            out[f"{layer}.self_s"] = sum(
                total[i] for i, name in enumerate(self.names)
                if name.startswith(layer + "."))
        out["invariants.calls"] = sum(
            calls[i] for i, name in enumerate(self.names)
            if name.startswith("invariants."))
        nsec = len(self.section_inputs)
        out["toric.section_polytope.distinct_ratio"] = (
            len(set(self.section_inputs)) / nsec if nsec else 0.0)
        out["polytope.from_halfspaces.vertex_yield"] = (
            self.halfspace_vertices / self.halfspace_subsets
            if self.halfspace_subsets else 0.0)
        out["polytope.hull.extreme_ratio"] = (
            self.hull_extreme / self.hull_inputs if self.hull_inputs else 0.0)
        return out

    def write_spans(self, path):
        with open(path, "w") as fh:
            json.dump({"names": self.names,
                       "columns": ["name", "start_s", "end_s", "parent"],
                       "spans": self.spans}, fh, separators=(",", ":"))


def _owner(module, owner, layer):
    if not owner:
        return module
    cls = vars(module).get(owner)
    if cls is None:
        raise BoundaryMissing(f"{layer}.{owner} not found")
    return cls
