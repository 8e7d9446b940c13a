"""Shipped fixture instances: toric product fibrations and declared
surface-over-curve fibrations.

Surface fixtures declare their cone data; the engine validates internal
consistency (signature, pairings) and the checks consume only what is
decidable from it.  Hypotheses such as weak positivity and isotriviality
are trusted declarations on the instance.
"""

from __future__ import annotations

from fractions import Fraction

from . import toric as T
from .curve import CurveModel
from .fiberspace import FiberSpaceInstance, FiberTypeFlag
from .linalg import qvec
from .surface import SurfaceLattice


def _toric_product_instance(name, base, fiber, D_Y, R_total_coeffs,
                            base_flag, fiber_flag, A_Y):
    D_Y = qvec(D_Y)
    R = qvec(R_total_coeffs)
    D = tuple(a + b for a, b in zip(D_Y + (0,) * len(fiber.rays), R))
    return FiberSpaceInstance(
        name=name, base=base, fiber=fiber,
        total=T.product_fibration(base, fiber).total,
        D=D, D_Y=D_Y, R=R,
        hypotheses={"weakly_positive": True, "isotrivial": True, "var_f": 0},
        flag=FiberTypeFlag(base_flag, fiber_flag), ample={"A_Y": qvec(A_Y)})


def prod_line_line() -> FiberSpaceInstance:
    """P1 x P1 -> P1 with D = f*(2 pt) + 3 (vertical fiber divisor)."""
    p1 = T.projective_line()
    return _toric_product_instance(
        "prod_line_line", p1, p1,
        D_Y=[0, 2], R_total_coeffs=[0, 0, 0, 3],
        base_flag=T.ToricFlag(0, (0,)), fiber_flag=T.ToricFlag(0, (0,)),
        A_Y=[0, 1])


def prod_line_line_rf0() -> FiberSpaceInstance:
    """P1 x P1 -> P1 with a purely vertical class: R|_F = 0."""
    p1 = T.projective_line()
    return _toric_product_instance(
        "prod_line_line_rf0", p1, p1,
        D_Y=[0, 2], R_total_coeffs=[0, 0, 0, 0],
        base_flag=T.ToricFlag(0, (0,)), fiber_flag=T.ToricFlag(0, (0,)),
        A_Y=[0, 1])


def prod_plane_line() -> FiberSpaceInstance:
    """P2 x P1 -> P2 with a mixed class: R carries a vertical summand."""
    p2 = T.projective_plane()
    p1 = T.projective_line()
    return _toric_product_instance(
        "prod_plane_line", p2, p1,
        D_Y=[0, 0, 2], R_total_coeffs=[0, 0, 1, 0, 1],
        base_flag=T.ToricFlag(0, (0, 1)), fiber_flag=T.ToricFlag(0, (0,)),
        A_Y=[0, 0, 1])


def ex42_toric_surrogate() -> FiberSpaceInstance:
    """Toric stand-in for the kappa=1 surface example: trivial base class
    (kappa 0, like an elliptic base) and a degree-2 fiber class."""
    p1 = T.projective_line()
    return _toric_product_instance(
        "ex42_toric_surrogate", p1, p1,
        D_Y=[0, 0], R_total_coeffs=[0, 0, 0, 2],
        base_flag=T.ToricFlag(0, (0,)), fiber_flag=T.ToricFlag(0, (0,)),
        A_Y=[0, 1])


def _curve_product_instance(name, g_base, g_fiber, with_base_ample=True):
    """C_base x C_fiber with basis (fiber class, section class)."""
    base = CurveModel(genus=g_base)
    fiber = CurveModel(genus=g_fiber)
    ky = base.canonical_degree
    kf = fiber.canonical_degree
    K = (ky, kf)  # ky * fiber-class + kf * section-class
    total = SurfaceLattice(
        rank=2, gram=((0, 1), (1, 0)),
        effective_generators=(qvec([1, 0]), qvec([0, 1])),
        nef_generators=(qvec([1, 0]), qvec([0, 1])),
        negative_curves=(),
        canonical_class=qvec(K),
        abundance={"iitaka_degree_on": {0: 1}},
        declared_kappa={",".join(str(Fraction(x)) for x in K):
                        (2 if ky > 0 and kf > 0 else
                         1 if ky > 0 or kf > 0 else 0)})
    ample = {"A": qvec([1, 1])}
    if with_base_ample:
        ample["A_Y"] = qvec([1])
    return FiberSpaceInstance(
        name=name, base=base, fiber=fiber, total=total,
        pullback=((1,), (0,)),   # point -> fiber class (1, 0)
        D=qvec(K), D_Y=(ky,), R=(Fraction(0), kf),
        hypotheses={"weakly_positive": True, "isotrivial": True, "var_f": 0},
        flag=FiberTypeFlag(None, None), ample=ample)


def g2xg2() -> FiberSpaceInstance:
    """Product of two genus-2 curves; every canonical invariant is big."""
    return _curve_product_instance("g2xg2", 2, 2)


def g2xell() -> FiberSpaceInstance:
    """Genus-2 base, elliptic fiber: K_X is the pullback of K_Y."""
    return _curve_product_instance("g2xell", 2, 1)


def ellxg2() -> FiberSpaceInstance:
    """Elliptic base, genus-2 fiber: the honest product with equality."""
    return _curve_product_instance("ellxg2", 1, 2)


def ellxell() -> FiberSpaceInstance:
    """Abelian surface: all three canonical classes vanish.

    No base ample class is shipped: the padded body of K + f*A_Y is a
    non-canonical pseudoeffective class, which declared abundance data
    cannot resolve, so the pad-based check stays gated here.
    """
    return _curve_product_instance("ellxell", 1, 1, with_base_ample=False)


def ex41() -> FiberSpaceInstance:
    """Isotrivial genus-2 fibration over an elliptic base with a minimal
    general-type total space.

    The lattice takes basis (K, f) with K^2 = 4, K.f = 2, f^2 = 0 and
    pseudoeffective cone spanned by f and K - f, so the fiber threshold of
    K is 1.  Only the dimension pattern (2 > 0 + 1) matters for the
    verdicts; the specific K^2 is one consistent choice.
    """
    base = CurveModel(genus=1)
    fiber = CurveModel(genus=2)
    total = SurfaceLattice(
        rank=2, gram=((4, 2), (2, 0)),
        effective_generators=(qvec([0, 1]), qvec([1, -1])),  # f, K - f
        nef_generators=(qvec([0, 1]), qvec([1, 0])),          # f, K
        negative_curves=(),
        canonical_class=qvec([1, 0]),
        declared_kappa={"1,0": 2})
    return FiberSpaceInstance(
        name="ex41", base=base, fiber=fiber, total=total,
        pullback=((0,), (1,)),   # point -> f = (0, 1)
        D=qvec([1, 0]), D_Y=(Fraction(0),), R=qvec([1, 0]),
        hypotheses={"weakly_positive": True, "isotrivial": True, "var_f": 0},
        flag=FiberTypeFlag(None, None),
        ample={"A": qvec([1, 1]), "A_Y": qvec([1])})


def ex42() -> FiberSpaceInstance:
    """Minimal kappa=1 surface with a smooth isotrivial genus-2 fibration
    over an elliptic curve; the canonical fibration has degree 2 on the
    genus-2 fibers, declared through the abundance record.

    Basis (K, F): K^2 = F^2 = 0, K.F = 2; both classes are nef and span
    the pseudoeffective cone.
    """
    base = CurveModel(genus=1)
    fiber = CurveModel(genus=2)
    total = SurfaceLattice(
        rank=2, gram=((0, 2), (2, 0)),
        effective_generators=(qvec([1, 0]), qvec([0, 1])),  # K, F
        nef_generators=(qvec([1, 0]), qvec([0, 1])),
        negative_curves=(),
        canonical_class=qvec([1, 0]),
        abundance={"iitaka_degree_on": {1: 2}},
        declared_kappa={"1,0": 1})
    return FiberSpaceInstance(
        name="ex42", base=base, fiber=fiber, total=total,
        pullback=((0,), (1,)),   # point -> F = (0, 1)
        D=qvec([1, 0]), D_Y=(Fraction(0),), R=qvec([1, 0]),
        hypotheses={"weakly_positive": True, "isotrivial": True, "var_f": 0,
                    "iitaka_degree_on_fiber": 2},
        flag=FiberTypeFlag(None, None),
        ample={"A": qvec([1, 1]), "A_Y": qvec([1])})


example_4_2_fixture = ex42  # canonical entry point for the worked example


ALL_INSTANCES = {
    f.__name__: f for f in (
        prod_line_line, prod_line_line_rf0, prod_plane_line,
        ex42_toric_surrogate, g2xg2, g2xell, ellxg2, ellxell, ex41, ex42)
}


# -- standalone surface models (used by tests and the CLI corpus) -------------


def blown_up_plane_lattice() -> SurfaceLattice:
    """Plane blown up in a point, basis (H, E)."""
    return SurfaceLattice(
        rank=2, gram=((1, 0), (0, -1)),
        effective_generators=(qvec([0, 1]), qvec([1, -1])),  # E, H - E
        nef_generators=(qvec([1, 0]), qvec([1, -1])),
        negative_curves=(0,),
        canonical_class=qvec([-3, 1]))


def write_corpus(directory):
    """Write the instance corpus plus standalone model/divisor/flag files
    used by the command-line examples."""
    import json
    from pathlib import Path

    from .ioformats import canonical_dumps

    root = Path(directory)
    inst_dir = root / "instances"
    model_dir = root / "models"
    inst_dir.mkdir(parents=True, exist_ok=True)
    model_dir.mkdir(parents=True, exist_ok=True)
    for name, builder in sorted(ALL_INSTANCES.items()):
        (inst_dir / f"{name}.json").write_text(
            canonical_dumps(builder().to_obj()))
    plane = T.projective_plane()
    (model_dir / "plane.json").write_text(canonical_dumps(plane.to_obj()))
    (model_dir / "d2.json").write_text(
        canonical_dumps({"coeffs": ["0", "0", "2"]}))
    (model_dir / "std_flag.json").write_text(
        canonical_dumps({"cone": 0, "ray_order": [0, 1]}))
    (model_dir / "blown_up_plane_surface.json").write_text(
        canonical_dumps(blown_up_plane_lattice().to_obj()))
    (model_dir / "d_2h_plus_e.json").write_text(
        canonical_dumps({"coeffs": ["2", "1"]}))
    (model_dir / "curve_flag.json").write_text(canonical_dumps({"curve": 0}))
    return root
