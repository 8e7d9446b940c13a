"""File formats: parsing, validation, canonical serialization.

All rationals travel as "p/q" strings (plain integers are accepted as a
shorthand); floats are rejected so no precision is ever lost.  Errors are
tagged with the JSON path that caused them.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .curve import CurveModel
from .fiberspace import FiberSpaceInstance, FiberTypeFlag
from .polytope import Polytope
from .surface import SurfaceLattice
from .toric import ToricFlag, ToricVariety


class InputError(ValueError):
    """Malformed or inconsistent input file; carries a JSON path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


def _rat(value, path) -> Fraction:
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(path, "rationals must be integers or 'p/q' strings")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(path, f"not a rational: {value!r} ({exc})")


def _rat_vec(values, path):
    if not isinstance(values, list):
        raise InputError(path, "expected a list of rationals")
    return tuple(_rat(v, f"{path}[{i}]") for i, v in enumerate(values))


def _int(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(path, f"expected an integer, got {value!r}")
    return value


def _curve_index(value, surface, path) -> int:
    """A flag-curve index: a position in the surface's effective generators."""
    i = _int(value, path)
    count = len(surface.effective_generators)
    if not 0 <= i < count:
        raise InputError(path, f"curve index {i} out of range: the surface "
                               f"has {count} effective generators")
    return i


def _int_vec(values, path):
    if not isinstance(values, list):
        raise InputError(path, "expected a list of integers")
    return tuple(_int(v, f"{path}[{i}]") for i, v in enumerate(values))


# -- models -------------------------------------------------------------------


def model_from_obj(obj, path="model"):
    if not isinstance(obj, dict):
        raise InputError(path, "expected an object")
    kind = obj.get("kind")
    try:
        if kind == "toric":
            return ToricVariety(
                dim=_int(obj.get("dim"), f"{path}.dim"),
                rays=tuple(_int_vec(r, f"{path}.rays[{i}]")
                           for i, r in enumerate(obj.get("rays", []))),
                max_cones=tuple(_int_vec(c, f"{path}.max_cones[{i}]")
                                for i, c in enumerate(obj.get("max_cones", []))))
        if kind == "surface":
            abundance = None
            if "abundance" in obj:
                deg = obj["abundance"].get("iitaka_degree_on", {})
                abundance = {"iitaka_degree_on":
                             {int(k): _int(v, f"{path}.abundance[{k}]")
                              for k, v in deg.items()}}
            return SurfaceLattice(
                rank=_int(obj.get("rank"), f"{path}.rank"),
                gram=tuple(_int_vec(row, f"{path}.gram[{i}]")
                           for i, row in enumerate(obj.get("gram", []))),
                effective_generators=tuple(
                    _rat_vec(g, f"{path}.effective_generators[{i}]")
                    for i, g in enumerate(obj.get("effective_generators", []))),
                nef_generators=tuple(
                    _rat_vec(g, f"{path}.nef_generators[{i}]")
                    for i, g in enumerate(obj.get("nef_generators", []))),
                negative_curves=_int_vec(obj.get("negative_curves", []),
                                         f"{path}.negative_curves"),
                canonical_class=_rat_vec(obj.get("canonical_class", []),
                                         f"{path}.canonical_class"),
                abundance=abundance,
                declared_kappa=obj.get("declared_kappa"),
                declared_kappa_sigma=obj.get("declared_kappa_sigma"))
        if kind == "curve":
            return CurveModel(genus=_int(obj.get("genus"), f"{path}.genus"))
    except InputError:
        raise
    except (ValueError, TypeError) as exc:
        raise InputError(path, str(exc))
    raise InputError(f"{path}.kind", f"unknown model kind: {kind!r}")


def divisor_from_obj(obj, path="divisor"):
    if not isinstance(obj, dict) or "coeffs" not in obj:
        raise InputError(path, "expected an object with a 'coeffs' list")
    return _rat_vec(obj["coeffs"], f"{path}.coeffs")


def flag_from_obj(obj, model, path="flag"):
    if obj is None:
        return None
    if not isinstance(obj, dict):
        raise InputError(path, "expected an object")
    if isinstance(model, ToricVariety):
        flag = ToricFlag(cone=_int(obj.get("cone"), f"{path}.cone"),
                         ray_order=_int_vec(obj.get("ray_order", []),
                                            f"{path}.ray_order"))
        try:
            flag.validate(model)
        except ValueError as exc:
            raise InputError(path, str(exc))
        return flag
    if isinstance(model, CurveModel):
        return None  # curves have a unique flag shape: (curve, point)
    if isinstance(model, SurfaceLattice):
        return _curve_index(obj.get("curve"), model, f"{path}.curve")
    raise InputError(path, "flag for unsupported model type")


def body_from_obj(obj, path="body"):
    """A body object {"ambient_dim": n, "vertices": [[...], ...]}, or a
    report that holds one under "body", as the hull of its vertices."""
    if isinstance(obj, dict) and "body" in obj:
        obj, path = obj["body"], f"{path}.body"
    if not isinstance(obj, dict):
        raise InputError(path, "expected an object")
    n = _int(obj.get("ambient_dim"), f"{path}.ambient_dim")
    if n < 1:
        raise InputError(f"{path}.ambient_dim", "must be >= 1")
    verts = obj.get("vertices")
    if not isinstance(verts, list):
        raise InputError(f"{path}.vertices", "expected a list of vertices")
    pts = [_rat_vec(v, f"{path}.vertices[{i}]") for i, v in enumerate(verts)]
    if any(len(p) != n for p in pts):
        raise InputError(f"{path}.vertices", f"every vertex needs {n} coordinates")
    return Polytope.hull(pts) if pts else Polytope.empty(n)


# -- fiber-space instances -----------------------------------------------------


def instance_from_obj(obj, path="instance"):
    if not isinstance(obj, dict):
        raise InputError(path, "expected an object")
    for key in ("base", "fiber", "total", "pullback", "restriction",
                "decomposition", "hypotheses", "flags"):
        if key not in obj:
            raise InputError(f"{path}.{key}", "missing required field")
    base = model_from_obj(obj["base"], f"{path}.base")
    fiber = model_from_obj(obj["fiber"], f"{path}.fiber")
    total = model_from_obj(obj["total"], f"{path}.total")
    dec = obj["decomposition"]
    for key in ("D", "D_Y", "R"):
        if key not in dec:
            raise InputError(f"{path}.decomposition.{key}", "missing")
    flags = obj["flags"]
    base_flag = flag_from_obj(flags.get("base"), base, f"{path}.flags.base")
    fiber_flag = flag_from_obj(flags.get("fiber"), fiber, f"{path}.flags.fiber")
    if isinstance(total, ToricVariety):
        total_flag = flag_from_obj(obj.get("total_flag"), total,
                                   f"{path}.total_flag")
    elif isinstance(total, SurfaceLattice):
        total_flag = _curve_index(obj.get("total_flag"), total,
                                  f"{path}.total_flag")
    else:
        total_flag = _int(obj.get("total_flag"), f"{path}.total_flag")
    ample = {k: _rat_vec(v, f"{path}.ample.{k}")
             for k, v in obj.get("ample", {}).items()}
    try:
        return FiberSpaceInstance(
            name=obj.get("name", "instance"),
            base=base, fiber=fiber, total=total,
            pullback=tuple(_rat_vec(r, f"{path}.pullback[{i}]")
                           for i, r in enumerate(obj["pullback"])),
            restriction=tuple(_rat_vec(r, f"{path}.restriction[{i}]")
                              for i, r in enumerate(obj["restriction"])),
            D=_rat_vec(dec["D"], f"{path}.decomposition.D"),
            D_Y=_rat_vec(dec["D_Y"], f"{path}.decomposition.D_Y"),
            R=_rat_vec(dec["R"], f"{path}.decomposition.R"),
            hypotheses=dict(obj["hypotheses"]),
            flag=FiberTypeFlag(base_flag, fiber_flag),
            total_flag=total_flag,
            ample=ample)
    except ValueError as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(path, str(exc))


def load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(path, f"malformed JSON: {exc}")


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
