"""File formats: parsing, validation, canonical serialization.

Every object in an input file is read through `_fields` with the keys
declared for it at its one reader: a missing required key, or any key
that is not declared, is an InputError at `<path>.<key>` naming the
allowed keys, and no declared field has a default that hides a malformed
or absent value.  All rationals travel as "p/q" strings, as str(Fraction)
writes them (plain integers are accepted as a shorthand); floats, decimals
and exponents are rejected, so no precision is lost and no short exponent
expands to a huge integer.  A map key that names a class or an effective
generator must be written as `to_obj` writes it, so every accepted file
re-serialises to itself.  Errors are tagged with the JSON path that caused
them.

Every report and every file is written in one canonical form, the bytes
`json.dumps(obj, sort_keys=True, indent=2) + "\\n"` gives: keys sorted,
one item per line, a two-space indent, `": "` after a key, ASCII text
with `\\uXXXX` escapes, and one trailing newline.  `canonical_dumps`
writes it itself, because on Python <= 3.12 any `indent` turns off the
stdlib's C encoder and leaves its pure-Python one, which took most of
the time of a `scaling-search` run on ex42.
"""

from __future__ import annotations

import json
import re
from fractions import Fraction

from .curve import CurveModel
from .fiberspace import FiberSpaceInstance, FiberTypeFlag, _flag_obj
from .polytope import Polytope
from .surface import SurfaceLattice, class_key
from .toric import ToricFlag, ToricVariety


class InputError(ValueError):
    """Malformed or inconsistent input file, tagged with a JSON path."""

    def __init__(self, path, message):
        super().__init__(f"{path}: {message}")


# what `str(Fraction)` writes; Fraction itself would also read decimals,
# exponents, underscores and padding, and "1e999999999" as 10**999999999
_RATIONAL = re.compile(r"([+-]?[0-9]+)(?:/([0-9]+))?")


def rational(value, path="value") -> Fraction:
    """An exact rational from an integer or a 'p/q' string of ASCII
    digits; floats, decimals, exponents and anything else raise
    InputError."""
    match = isinstance(value, str) and _RATIONAL.fullmatch(value)
    if match:
        p, q = match.groups()
        try:
            return Fraction(int(p), int(q or 1))
        except (ValueError, ZeroDivisionError) as exc:
            raise InputError(path, f"not a rational: {value!r} ({exc})")
    if isinstance(value, int) and not isinstance(value, bool):
        return Fraction(value)
    raise InputError(path, "rationals must be integers or 'p/q' strings, "
                           f"got {value!r}")


def _list(values, path, item):
    """A list as a tuple, each entry read by `item(entry, path)`."""
    if not isinstance(values, list):
        raise InputError(path, "expected a list")
    return tuple(item(v, f"{path}[{i}]") for i, v in enumerate(values))


def _rat_vec(values, path):
    return _list(values, path, rational)


def _obj(value, path) -> dict:
    if not isinstance(value, dict):
        raise InputError(path, "expected an object")
    return value


def _fields(value, path, required, optional=()) -> dict:
    """value as an object with every key of `required` and no key outside
    `required` and `optional`; InputError at `<path>.<key>` otherwise."""
    obj = _obj(value, path)
    names = [*required, *optional]
    allowed = (f"the allowed keys are {', '.join(names[:-1])} and {names[-1]}"
               if names[1:] else f"the allowed key is {names[0]}")
    for key in required:
        if key not in obj:
            raise InputError(f"{path}.{key}",
                             f"missing required key; {allowed}")
    if unknown := sorted(obj.keys() - set(names)):
        raise InputError(f"{path}.{unknown[0]}", f"unknown key; {allowed}")
    return obj


def _int(value, path) -> int:
    if isinstance(value, bool) or not isinstance(value, int):
        raise InputError(path, f"expected an integer, got {value!r}")
    return value


def _int_vec(values, path):
    return _list(values, path, _int)


def _checked(path, make, **fields):
    """make(**fields), with a ValueError it raises as an InputError at
    path: the models check their own consistency."""
    try:
        return make(**fields)
    except ValueError as exc:
        raise InputError(path, str(exc))


def _map(value, path, read_key, write_key):
    """An object of integers keyed by `read_key(key)`; a key must be
    written as `write_key` writes what it reads, so that it round-trips."""
    out = {}
    for key, v in _obj(value, path).items():
        where = f"{path}[{key}]"
        try:
            parsed = read_key(key)
        except (ValueError, ZeroDivisionError):
            raise InputError(where, "malformed key")
        if write_key(parsed) != key:
            raise InputError(where, f"write this key as {write_key(parsed)!r}")
        out[parsed] = _int(v, where)
    return out


# -- models -------------------------------------------------------------------


def model_from_obj(obj, path="model"):
    kind = _obj(obj, path).get("kind")
    if kind == "toric":
        _fields(obj, path, ("kind", "dim", "rays", "max_cones"))
        return _checked(path, ToricVariety,
                        dim=_int(obj["dim"], f"{path}.dim"),
                        rays=_list(obj["rays"], f"{path}.rays", _int_vec),
                        max_cones=_list(obj["max_cones"], f"{path}.max_cones",
                                        _int_vec))
    if kind == "curve":
        _fields(obj, path, ("kind", "genus"))
        return _checked(path, CurveModel,
                        genus=_int(obj["genus"], f"{path}.genus"))
    if kind != "surface":
        raise InputError(f"{path}.kind", f"unknown model kind: {kind!r}")
    _fields(obj, path, ("kind", "rank", "gram", "effective_generators",
                        "nef_generators", "negative_curves",
                        "canonical_class"), ("abundance", "declared_kappa"))
    degrees, kappas = {}, {}
    if "abundance" in obj:
        abundance = _fields(obj["abundance"], f"{path}.abundance",
                            ("iitaka_degree_on",))
        degrees = _map(abundance["iitaka_degree_on"],
                       f"{path}.abundance.iitaka_degree_on", int, str)
    if "declared_kappa" in obj:
        kappas = _map(obj["declared_kappa"], f"{path}.declared_kappa",
                      lambda key: tuple(map(rational, key.split(","))),
                      class_key)
    return _checked(path, SurfaceLattice,
                    rank=_int(obj["rank"], f"{path}.rank"),
                    gram=_list(obj["gram"], f"{path}.gram", _int_vec),
                    effective_generators=_list(obj["effective_generators"],
                                               f"{path}.effective_generators",
                                               _rat_vec),
                    nef_generators=_list(obj["nef_generators"],
                                         f"{path}.nef_generators", _rat_vec),
                    negative_curves=_int_vec(obj["negative_curves"],
                                             f"{path}.negative_curves"),
                    canonical_class=_rat_vec(obj["canonical_class"],
                                             f"{path}.canonical_class"),
                    iitaka_degrees=degrees, declared_kappa=kappas)


def divisor_from_obj(obj, path="divisor"):
    return _rat_vec(_fields(obj, path, ("coeffs",))["coeffs"],
                    f"{path}.coeffs")


def flag_from_obj(obj, model, path="flag"):
    """A flag on `model`: a ToricFlag, the flag curve's index on a surface,
    and None on a curve, whose flag (curve, general point) is implicit and
    written null: any other value would be read by nothing and written
    back as null."""
    if isinstance(model, CurveModel):
        if obj is not None:
            raise InputError(path, "expected null: a curve's flag (curve, "
                                   "general point) is implicit")
        return None
    if isinstance(model, ToricVariety):
        obj = _fields(obj, path, ("cone", "ray_order"))
        flag = ToricFlag(cone=_int(obj["cone"], f"{path}.cone"),
                         ray_order=_int_vec(obj["ray_order"],
                                            f"{path}.ray_order"))
        _checked(path, flag.validate, X=model)
        return flag
    obj = _fields(obj, path, ("curve",))
    i = _int(obj["curve"], f"{path}.curve")
    count = len(model.effective_generators)
    if not 0 <= i < count:
        raise InputError(f"{path}.curve", f"curve index {i} out of range: "
                         f"the surface has {count} effective generators")
    return i


def body_from_obj(obj, path="body"):
    """A body object {"ambient_dim": n, "vertices": [[...], ...]}, or a
    report that holds one under "body", as the hull of its vertices."""
    if isinstance(obj, dict) and "body" in obj:
        obj, path = obj["body"], f"{path}.body"
    obj = _fields(obj, path, ("ambient_dim", "vertices"))
    n = _int(obj["ambient_dim"], f"{path}.ambient_dim")
    if n < 1:
        raise InputError(f"{path}.ambient_dim", "must be >= 1")
    pts = _list(obj["vertices"], f"{path}.vertices", _rat_vec)
    if any(len(p) != n for p in pts):
        raise InputError(f"{path}.vertices", f"every vertex needs {n} coordinates")
    return Polytope.hull(pts) if pts else Polytope.empty(n)


# -- fiber-space instances -----------------------------------------------------


def instance_from_obj(obj, path="instance"):
    _fields(obj, path, ("base", "fiber", "total", "pullback", "restriction",
                        "decomposition", "hypotheses", "flags", "total_flag"),
            ("name", "ample"))
    base = model_from_obj(obj["base"], f"{path}.base")
    fiber = model_from_obj(obj["fiber"], f"{path}.fiber")
    total = model_from_obj(obj["total"], f"{path}.total")
    dec = _fields(obj["decomposition"], f"{path}.decomposition",
                  ("D", "D_Y", "R"))
    flags = _fields(obj["flags"], f"{path}.flags", ("base", "fiber"))
    ample = (_fields(obj["ample"], f"{path}.ample", (), ("A", "A_Y"))
             if "ample" in obj else {})
    name = obj.get("name", "instance")
    if not isinstance(name, str):
        raise InputError(f"{path}.name", "expected a string")
    # var_f and iitaka_degree_on_fiber are informational: read by nothing
    hypotheses = dict(_fields(obj["hypotheses"], f"{path}.hypotheses", (),
                              ("weakly_positive", "isotrivial", "var_f",
                               "iitaka_degree_on_fiber")))
    for key in ("weakly_positive", "isotrivial"):
        if not isinstance(hypotheses.get(key, False), bool):
            raise InputError(f"{path}.hypotheses.{key}", "expected true or "
                             f"false, got {hypotheses[key]!r}")
    fs = _checked(
        path, FiberSpaceInstance, name=name, base=base, fiber=fiber,
        total=total,
        pullback=_list(obj["pullback"], f"{path}.pullback", _rat_vec),
        restriction=_list(obj["restriction"], f"{path}.restriction", _rat_vec),
        D=_rat_vec(dec["D"], f"{path}.decomposition.D"),
        D_Y=_rat_vec(dec["D_Y"], f"{path}.decomposition.D_Y"),
        R=_rat_vec(dec["R"], f"{path}.decomposition.R"),
        hypotheses=hypotheses,
        flag=FiberTypeFlag(
            base_flag=flag_from_obj(flags["base"], base, f"{path}.flags.base"),
            fiber_flag=flag_from_obj(flags["fiber"], fiber,
                                     f"{path}.flags.fiber")),
        ample={k: _rat_vec(v, f"{path}.ample.{k}") for k, v in ample.items()})
    declared, derived = (json.dumps(flag, sort_keys=True) for flag in
                         (obj["total_flag"], _flag_obj(fs.total_flag)))
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
    """obj in the canonical form (module docstring): keys sorted, one item
    per line, a two-space indent, `": "` after a key, ASCII with `\\uXXXX`
    escapes and one trailing newline, byte for byte what
    `json.dumps(obj, sort_keys=True, indent=2) + "\\n"` writes, without
    the stdlib's pure-Python encoder that `indent` forces on Python <= 3.12.
    A dict key that is not a str raises TypeError, where json.dumps would
    write it as a string; no report or file has one.  Any value json.dumps
    rejects raises TypeError too."""
    return _canonical(obj, "\n") + "\n"


_str = json.encoder.encode_basestring_ascii


def _canonical(o, pad):
    """o written at the indent `pad` (a newline and spaces): one join per
    container, with each str item encoded in place, so that the commonest
    leaf costs no call."""
    if isinstance(o, dict):
        if not o:
            return "{}"
        inner = pad + "  "
        return ("{" + inner + ("," + inner).join([
            _str(k) + ": " + (_str(v) if type(v) is str
                              else _canonical(v, inner))
            for k, v in sorted(o.items())]) + pad + "}")
    if isinstance(o, (list, tuple)):
        if not o:
            return "[]"
        inner = pad + "  "
        return ("[" + inner + ("," + inner).join([
            _str(v) if type(v) is str else _canonical(v, inner)
            for v in o]) + pad + "]")
    if isinstance(o, str):
        return _str(o)
    # json's order: a bool is an int, so True and False go first
    if o is None:
        return "null"
    if o is True:
        return "true"
    if o is False:
        return "false"
    if isinstance(o, int):
        return int.__repr__(o)
    return json.dumps(o)  # a float; anything else raises TypeError
