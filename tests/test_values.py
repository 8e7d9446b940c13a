"""Value semantics of the package's model and report classes: equal
arguments make equal objects, one changed argument makes unequal ones,
the immutable classes hash by value, and the ones holding a dict or made
to change do not hash at all."""

import re
from fractions import Fraction as F

import pytest
from corpus import instance

from okbodies import toric as T
from okbodies.curve import CurveModel
from okbodies.fiberspace import CheckReport, FiberSpaceInstance, FiberTypeFlag
from okbodies.invariants import DimsReport
from okbodies.linalg import qvec
from okbodies.polytope import HalfSpace
from okbodies.surface import SurfaceLattice, ZariskiPair

P1, P2 = T.projective_line(), T.projective_plane()
F0, F1 = T.hirzebruch(0), T.hirzebruch(1)  # four rays each


def lattice_args():
    return dict(rank=2, gram=((0, 1), (1, 0)),
                effective_generators=(qvec([1, 0]), qvec([0, 1])),
                nef_generators=(qvec([1, 0]), qvec([0, 1])),
                negative_curves=(), canonical_class=qvec([-2, -2]),
                iitaka_degrees={0: 1}, declared_kappa={qvec([2, 2]): 2})


def instance_args():
    fs = instance("prod_line_line")
    return dict(name=fs.name, base=fs.base, fiber=fs.fiber, total=fs.total,
                D=fs.D, D_Y=fs.D_Y, R=fs.R, hypotheses=dict(fs.hypotheses),
                flag=fs.flag, pullback=fs.pullback,
                restriction=fs.restriction, ample=dict(fs.ample))


# class -> (arguments, {argument: another valid value})
CASES = {
    CurveModel: (lambda: dict(genus=1), {"genus": 2}),
    HalfSpace: (lambda: dict(normal=(F(1), F(0)), offset=F(1)),
                {"normal": (F(0), F(1)), "offset": F(2)}),
    DimsReport: (lambda: dict(kappa=1, nu_bdpp=1, kappa_vol=2,
                              kappa_sigma=None),
                 {"kappa": 0, "nu_bdpp": 2, "kappa_vol": 1,
                  "kappa_sigma": 1}),
    # any order of P^2's rays or of its cones is the same fan, written
    # differently
    T.ToricVariety: (lambda: dict(dim=2, rays=P2.rays,
                                  max_cones=P2.max_cones),
                     {"rays": P2.rays[::-1],
                      "max_cones": P2.max_cones[::-1]}),
    # F0 and F1 have as many rays, so the same coefficients fit both and
    # make the same numerators over the same denominator
    T.ToricDivisor: (lambda: dict(variety=F0, coeffs=(1, 0, 2, 0)),
                     {"variety": F1, "coeffs": (1, 0, 3, 0)}),
    T.ToricFlag: (lambda: dict(cone=0, ray_order=(0, 1)),
                  {"cone": 1, "ray_order": (1, 0)}),
    T.ToricFibration: (lambda: dict(base=P1, fiber=P1, total=F0),
                       {"base": P2, "fiber": P2, "total": F1}),
    SurfaceLattice: (lattice_args, {
        "gram": ((0, 2), (2, 0)),
        "effective_generators": (qvec([1, 0]), qvec([0, 1]), qvec([1, 1])),
        "nef_generators": (qvec([1, 1]),),
        "canonical_class": qvec([-2, -3]),
        "iitaka_degrees": {1: 1},
        "declared_kappa": {qvec([2, 2]): 1}}),
    ZariskiPair: (lambda: dict(positive=(F(1), F(0)), negative=(F(0), F(1)),
                               support=(1,), coefficients=(F(1),)),
                  {"positive": (F(2), F(0)), "negative": (F(0), F(2)),
                   "support": (0,), "coefficients": (F(2),)}),
    FiberTypeFlag: (lambda: dict(base_flag=T.ToricFlag(0, (0,)),
                                 fiber_flag=T.ToricFlag(1, (1,))),
                    {"base_flag": T.ToricFlag(1, (1,)), "fiber_flag": None}),
    FiberSpaceInstance: (instance_args, {
        "name": "renamed",
        "hypotheses": {"weakly_positive": False, "isotrivial": True}}),
    CheckReport: (lambda: dict(check_name="thm1_3", instance="x",
                               digest="0" * 16, verdict="holds",
                               margin=F(0), lhs={"vol": "1"}, rhs=None,
                               dims={"nu_X": 2}, volumes={"X": F(1)},
                               notes=["n"]),
                  {"check_name": "cor3_5", "instance": "y",
                   "digest": "1" * 16, "verdict": "strict", "margin": F(1),
                   "lhs": None, "rhs": {"vol": "1"}, "dims": {},
                   "volumes": {}, "notes": []}),
}
# memo keys and parts of them; the others hold a dict or change in place
HASHABLE = {CurveModel, HalfSpace, DimsReport, T.ToricVariety, T.ToricDivisor,
            T.ToricFlag, T.ToricFibration, ZariskiPair, FiberTypeFlag}


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_equal_arguments_make_equal_objects(cls):
    args, _changes = CASES[cls]
    a, b = cls(**args()), cls(**args())
    assert a is not b and a == b and not a != b
    if cls in HASHABLE:
        assert hash(a) == hash(b)
    else:
        with pytest.raises(TypeError, match="unhashable"):
            hash(a)


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_one_changed_argument_makes_unequal_objects(cls):
    args, changes = CASES[cls]
    a = cls(**args())
    for name, value in changes.items():
        b = cls(**dict(args(), **{name: value}))
        assert a != b and not a == b, name


@pytest.mark.parametrize("cls", CASES, ids=lambda cls: cls.__name__)
def test_other_types_are_never_equal(cls):
    a = CASES[cls][0]()
    assert cls(**a) != a and cls(**a).__eq__(a) is NotImplemented


def test_equal_keys_of_different_types_are_never_equal():
    # both keys are (0, (0,)): only the type tells the two flags apart
    flag, composite = T.ToricFlag(0, (0,)), FiberTypeFlag(0, (0,))
    assert flag._key() == composite._key()
    assert flag != composite and composite != flag
    assert not flag == composite and not composite == flag
    assert flag.__eq__(composite) is NotImplemented
    assert composite.__eq__(flag) is NotImplemented


def test_divisor_compares_coefficients_by_value():
    ints = T.ToricDivisor(P2, (0, 0, 3))
    fracs = T.ToricDivisor(P2, (F(0), F(0), F(3)))
    assert ints == fracs and hash(ints) == hash(fracs)


def test_equal_models_hit_the_section_polytope_memo():
    X = T.projective_plane()
    D = T.ToricDivisor(X, (0, 5, 0))
    first = T.section_polytope(X, D)
    info = T._face.cache_info()
    X2 = T.projective_plane()
    D2 = T.ToricDivisor(X2, (F(0), F(5), F(0)))
    assert X2 is not X and D2 is not D
    assert T.section_polytope(X2, D2) is first
    after = T._face.cache_info()
    assert (after.hits, after.misses) == (info.hits + 1, info.misses)


def test_lattice_equality_ignores_its_cone_memo():
    a, b = SurfaceLattice(**lattice_args()), SurfaceLattice(**lattice_args())
    a.cone_rows()
    assert a._cone is not None and b._cone is None and a == b


def test_dimension_chain_error_names_the_report():
    message = ("dimension chain violated: DimsReport(kappa=2, nu_bdpp=1, "
               "kappa_vol=1, kappa_sigma=None)")
    with pytest.raises(ValueError, match=re.escape(message)):
        DimsReport(kappa=2, nu_bdpp=1, kappa_vol=1, kappa_sigma=None)
