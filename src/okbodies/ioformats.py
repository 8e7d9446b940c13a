"""File formats: parsing, validation, canonical serialization.

All rationals travel as "p/q" strings (plain integers are accepted as a
shorthand); floats are rejected so no precision is ever lost.  Errors are
tagged with the JSON path that caused them.
"""

from __future__ import annotations

import json
from fractions import Fraction

from .curve import CurveModel
from .fiberspace import FiberSpaceInstance, FiberTypeFlag, _flag_obj
from .polytope import Polytope
from .surface import SurfaceLattice
from .toric import ToricFlag, ToricVariety


class InputError(ValueError):
    """Malformed or inconsistent input file; carries a JSON path."""

    def __init__(self, path, message):
        self.path = path
        super().__init__(f"{path}: {message}")


def rational(value, path="value") -> Fraction:
    """An exact rational from an integer or a 'p/q' string; floats, and
    anything else that is not a rational, raise InputError."""
    if isinstance(value, bool) or isinstance(value, float):
        raise InputError(path, "rationals must be integers or 'p/q' strings")
    try:
        return Fraction(value)
    except (ValueError, TypeError, ZeroDivisionError) as exc:
        raise InputError(path, f"not a rational: {value!r} ({exc})")


def _rat_vec(values, path):
    if not isinstance(values, list):
        raise InputError(path, "expected a list of rationals")
    return tuple(rational(v, f"{path}[{i}]") for i, v in enumerate(values))


def _obj(value, path) -> dict:
    if not isinstance(value, dict):
        raise InputError(path, "expected an object")
    return value


def _int_map(value, path):
    """An object of integers, or None when absent."""
    if value is None:
        return None
    return {k: _int(v, f"{path}[{k}]") for k, v in _obj(value, path).items()}


def _rows(values, path, vec):
    """A list of rows, each parsed by `vec` (`_rat_vec` or `_int_vec`)."""
    if not isinstance(values, list):
        raise InputError(path, "expected a list of rows")
    return tuple(vec(r, f"{path}[{i}]") for i, r in enumerate(values))


def _int(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(path, f"expected an integer, got {value!r}")
    return value


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
                rays=_rows(obj.get("rays", []), f"{path}.rays", _int_vec),
                max_cones=_rows(obj.get("max_cones", []), f"{path}.max_cones",
                                _int_vec))
        if kind == "surface":
            abundance = None
            if "abundance" in obj:
                apath = f"{path}.abundance"
                deg = _obj(obj["abundance"], apath).get("iitaka_degree_on", {})
                abundance = {"iitaka_degree_on":
                             {int(k): _int(v, f"{apath}[{k}]") for k, v in
                              _obj(deg, f"{apath}.iitaka_degree_on").items()}}
            return SurfaceLattice(
                rank=_int(obj.get("rank"), f"{path}.rank"),
                gram=_rows(obj.get("gram", []), f"{path}.gram", _int_vec),
                effective_generators=_rows(
                    obj.get("effective_generators", []),
                    f"{path}.effective_generators", _rat_vec),
                nef_generators=_rows(obj.get("nef_generators", []),
                                     f"{path}.nef_generators", _rat_vec),
                negative_curves=_int_vec(obj.get("negative_curves", []),
                                         f"{path}.negative_curves"),
                canonical_class=_rat_vec(obj.get("canonical_class", []),
                                         f"{path}.canonical_class"),
                abundance=abundance,
                declared_kappa=_int_map(obj.get("declared_kappa"),
                                        f"{path}.declared_kappa"),
                declared_kappa_sigma=_int_map(obj.get("declared_kappa_sigma"),
                                              f"{path}.declared_kappa_sigma"))
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
    if obj is None and isinstance(model, CurveModel):
        return None  # curves have a unique flag shape: (curve, point)
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
        return None
    if isinstance(model, SurfaceLattice):
        i = _int(obj.get("curve"), f"{path}.curve")
        count = len(model.effective_generators)
        if not 0 <= i < count:
            raise InputError(f"{path}.curve", f"curve index {i} out of range: "
                             f"the surface has {count} effective generators")
        return i
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
    dec = _obj(obj["decomposition"], f"{path}.decomposition")
    for key in ("D", "D_Y", "R"):
        if key not in dec:
            raise InputError(f"{path}.decomposition.{key}", "missing")
    flags = _obj(obj["flags"], f"{path}.flags")
    base_flag = flag_from_obj(flags.get("base"), base, f"{path}.flags.base")
    fiber_flag = flag_from_obj(flags.get("fiber"), fiber, f"{path}.flags.fiber")
    ample = {k: _rat_vec(v, f"{path}.ample.{k}")
             for k, v in _obj(obj.get("ample", {}), f"{path}.ample").items()}
    if unknown := sorted(ample.keys() - {"A", "A_Y"}):
        raise InputError(f"{path}.ample.{unknown[0]}", "unknown key; the "
                         "allowed keys are A and A_Y")
    name = obj.get("name", "instance")
    if not isinstance(name, str):
        raise InputError(f"{path}.name", "expected a string")
    hypotheses = dict(_obj(obj["hypotheses"], f"{path}.hypotheses"))
    for key in ("weakly_positive", "isotrivial"):
        value = hypotheses.get(key, False)
        if not isinstance(value, bool):
            raise InputError(f"{path}.hypotheses.{key}",
                             f"expected true or false, got {value!r}")
    try:
        fs = FiberSpaceInstance(
            name=name,
            base=base, fiber=fiber, total=total,
            pullback=_rows(obj["pullback"], f"{path}.pullback", _rat_vec),
            restriction=_rows(obj["restriction"], f"{path}.restriction",
                              _rat_vec),
            D=_rat_vec(dec["D"], f"{path}.decomposition.D"),
            D_Y=_rat_vec(dec["D_Y"], f"{path}.decomposition.D_Y"),
            R=_rat_vec(dec["R"], f"{path}.decomposition.R"),
            hypotheses=hypotheses,
            flag=FiberTypeFlag(base_flag, fiber_flag),
            ample=ample)
    except ValueError as exc:
        if isinstance(exc, InputError):
            raise
        raise InputError(path, str(exc))
    declared, derived = (json.dumps(flag, sort_keys=True) for flag in
                         (obj.get("total_flag"), _flag_obj(fs.total_flag)))
    if declared != derived:
        raise InputError(f"{path}.total_flag", f"{declared} differs from the "
                         f"fiber-type flag derived from the models, {derived}")
    return fs


def load_json(path: str):
    with open(path) as fh:
        try:
            return json.load(fh)
        except json.JSONDecodeError as exc:
            raise InputError(path, f"malformed JSON: {exc}")


def canonical_dumps(obj) -> str:
    return json.dumps(obj, sort_keys=True, indent=2) + "\n"
