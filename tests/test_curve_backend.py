"""Oracles for the rules the backends own: the curve layer, the canonical
class of each model, and the flag-to-stratum encoding.

Each oracle is a test-local copy of the code that made the same decision
before it moved behind the backends: the degree functions of the curve
module, and the model-type branches of the fiber-space harness.
"""

from fractions import Fraction as F

import pytest
from corpus import INSTANCE_NAMES, instance

from okbodies import invariants as I
from okbodies import toric as T
from okbodies.curve import CurveModel
from okbodies.linalg import frac, qvec
from okbodies.polytope import Polytope
from okbodies.toric import NEG_INF

# -- the curve layer as a module of degree functions --------------------------


def _old_degree_of(cls):
    if len(cls) != 1:
        raise ValueError("curve classes are length-1 vectors")
    return frac(cls[0])


def _old_body_val(C, deg):
    deg = frac(deg)
    if deg < 0:
        raise ValueError("divisor has no sections")
    if deg == 0:
        return Polytope.hull([(0,)])
    return Polytope.hull([(F(0),), (deg,)])


def _old_body_lim(C, deg):
    deg = frac(deg)
    if deg < 0:
        raise ValueError("divisor is not pseudoeffective")
    return _old_body_val(C, deg)


def _old_volume(C, deg):
    deg = frac(deg)
    return deg if deg > 0 else F(0)


def _old_kappa(C, deg):
    deg = frac(deg)
    if deg > 0:
        return 1
    if deg == 0:
        return 0
    return NEG_INF


def _old_dims(C, deg):
    deg = frac(deg)
    if deg < 0:
        raise ValueError("divisor is not pseudoeffective")
    k = 1 if deg > 0 else 0
    return k, k, k


def _old_nakayama_verdict(C, deg, stratum_dim):
    k = _old_kappa(C, deg)
    if k == NEG_INF or stratum_dim != k:
        return "false", None
    return "certified", None


def _old_is_positive_volume_subvariety(C, deg, stratum_dim):
    deg = frac(deg)
    if deg < 0:
        raise ValueError("divisor is not pseudoeffective")
    nu = 1 if deg > 0 else 0
    return stratum_dim == nu


class _OldCurveBackend:
    """The curve backend that forwarded every question to those functions."""

    def __init__(self, C):
        self.C = C

    _deg = staticmethod(_old_degree_of)

    def canonical_class(self):
        return (self.C.canonical_degree,)

    def is_effective(self, cls):
        return self._deg(cls) >= 0

    is_psef = is_effective

    def is_big(self, cls):
        return self._deg(cls) > 0

    def is_ample(self, cls):
        return self._deg(cls) > 0

    def body_val(self, cls):
        return _old_body_val(self.C, self._deg(cls))

    def body_lim(self, cls):
        return _old_body_lim(self.C, self._deg(cls))

    def volume(self, cls):
        return _old_volume(self.C, self._deg(cls))

    def kappa(self, cls):
        return _old_kappa(self.C, self._deg(cls))

    def dims(self, cls):
        k, nu, kv = _old_dims(self.C, self._deg(cls))
        return I.DimsReport(kappa=k, nu_bdpp=nu, kappa_vol=kv, kappa_sigma=kv)

    def restricted_volume_plus(self, cls, stratum_dim):
        deg = self._deg(cls)
        if stratum_dim == 1:
            return deg if deg > 0 else F(0)
        if stratum_dim == 0:
            # D + eps*A has no sections for small eps when deg D < 0
            return F(1) if deg >= 0 else F(0)
        raise ValueError("stratum dimension out of range")

    def nakayama(self, cls, stratum_dim):
        return _old_nakayama_verdict(self.C, self._deg(cls), stratum_dim)

    def is_pvs(self, cls, stratum_dim):
        return _old_is_positive_volume_subvariety(self.C, self._deg(cls),
                                                  stratum_dim)


def _outcome(fn, *args):
    """Value or exception text, with bodies compared by their vertices."""
    try:
        out = fn(*args)
    except ValueError as exc:
        return "raises", str(exc)
    if isinstance(out, Polytope):
        return "body", out.ambient_dim, out.vertices, out.dim()
    return "value", type(out).__name__, out


DEGREES = sorted({F(k, q) for q in (1, 2, 3)
                  for k in range(-3 * q, 3 * q + 1)})
CLASSES = ([(d,) for d in DEGREES]
           + [(int(d),) for d in DEGREES if d.denominator == 1]
           + [(str(d),) for d in DEGREES] + [(), (1, 2)])
STRATA = (-1, 0, 1, 2)
PLAIN = ("canonical_class",)
CLASS_ONLY = ("is_effective", "is_psef", "is_big", "is_ample", "body_val",
              "body_lim", "volume", "kappa", "dims")
WITH_STRATUM = ("restricted_volume_plus", "nakayama", "is_pvs")


@pytest.mark.parametrize("genus", [0, 1, 2, 3])
def test_curve_backend_matches_degree_functions(genus):
    C = CurveModel(genus)
    new, old = I.CurveBackend(C), _OldCurveBackend(C)
    for meth in PLAIN:
        assert _outcome(getattr(new, meth)) == _outcome(getattr(old, meth))
    for cls in CLASSES:
        for meth in CLASS_ONLY:
            assert (_outcome(getattr(new, meth), cls)
                    == _outcome(getattr(old, meth), cls)), (meth, cls)
        for meth in WITH_STRATUM:
            for s in STRATA:
                got = _outcome(getattr(new, meth), cls, s)
                want = _outcome(getattr(old, meth), cls, s)
                assert got == want, (meth, cls, s)


# -- the same curve as a toric model -----------------------------------------


def _kind(fn, *args):
    """Value, or only that a ValueError was raised: the two backends word
    their errors differently.  Bodies compare by vertices, dimension
    reports by (kappa, nu, kappa_vol): only the curve computes
    kappa_sigma."""
    try:
        out = fn(*args)
    except ValueError:
        return "raises"
    if isinstance(out, Polytope):
        return out.ambient_dim, out.vertices, out.dim()
    if isinstance(out, I.DimsReport):
        return out.kappa, out.nu_bdpp, out.kappa_vol
    return out


@pytest.mark.parametrize("deg", DEGREES, ids=str)
def test_toric_line_agrees_with_rational_curve(deg):
    # degree d is the toric class (0, d) on P^1, and the flag (P^1, the
    # fixed point of ray 0) has strata () and (0,) of dimensions 1 and 0
    toric = I.ToricBackend(T.projective_line())
    curve = I.CurveBackend(CurveModel(0))
    flag = T.ToricFlag(0, (0,))
    tc, cc = (0, deg), (deg,)
    for meth in ("volume", "kappa", "dims"):
        assert (_kind(getattr(toric, meth), tc)
                == _kind(getattr(curve, meth), cc)), meth
    assert _kind(toric.body_val, tc, flag) == _kind(curve.body_val, cc)
    for meth in ("restricted_volume_plus", "is_pvs"):
        for dim in (0, 1):
            got = _kind(getattr(toric, meth), tc, toric.stratum(flag, dim))
            want = _kind(getattr(curve, meth), cc, curve.stratum(None, dim))
            assert got == want, (meth, dim)


# -- canonical classes and strata as model-type branches ----------------------


def _old_canonical_classes(fs):
    if isinstance(fs.total, T.ToricVariety):
        kx = tuple(F(-1) for _ in fs.total.rays)
    else:
        kx = qvec(fs.total.canonical_class)
    ky = (fs.base.canonical_degree,) if isinstance(fs.base, CurveModel) \
        else None
    kf = (fs.fiber.canonical_degree,) if isinstance(fs.fiber, CurveModel) \
        else None
    if isinstance(fs.base, T.ToricVariety):
        ky = tuple(F(-1) for _ in fs.base.rays)
    if isinstance(fs.fiber, T.ToricVariety):
        kf = tuple(F(-1) for _ in fs.fiber.rays)
    return kx, ky, kf


def _old_stratum(backend, flag, dim):
    if isinstance(backend, I.ToricBackend):
        # ToricFlag.stratum(i): the rays cutting out the codimension-i stratum
        return flag.ray_order[:backend.dim - dim]
    return dim


@pytest.mark.parametrize("name", INSTANCE_NAMES)
def test_canonical_classes_and_strata_match_model_branches(name):
    fs = instance(name)
    assert (fs.total_backend.canonical_class(),
            fs.base_backend.canonical_class(),
            fs.fiber_backend.canonical_class()) == _old_canonical_classes(fs)
    for backend, flag in ((fs.base_backend, fs.flag.base_flag),
                          (fs.fiber_backend, fs.flag.fiber_flag)):
        for k in range(backend.dim + 1):
            assert backend.stratum(flag, k) == _old_stratum(backend, flag, k)
