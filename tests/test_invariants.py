import itertools
import math
from fractions import Fraction as F

import pytest
from corpus import model
from exact_strategies import fractions_in
from fraction_reference import solve
from hypothesis import given, settings
from hypothesis import strategies as st

from okbodies import invariants as I
from okbodies import toric as T
from okbodies.curve import CurveModel
from okbodies.linalg import dot, qvec
from okbodies.polytope import HalfSpace
from okbodies.surface import SurfaceLattice
from okbodies.toric import NEG_INF

P1 = T.projective_line()
P2 = T.projective_plane()
STD = T.ToricFlag(0, (0, 1))
BL = model("blown_up_plane_surface")


class TestDimsReport:
    def test_chain_enforced(self):
        with pytest.raises(ValueError, match="chain"):
            I.DimsReport(kappa=2, nu_bdpp=1, kappa_vol=1, kappa_sigma=None)

    def test_undeclared_serialization(self):
        rep = I.DimsReport(kappa=None, nu_bdpp=1, kappa_vol=1, kappa_sigma=None)
        obj = rep.to_obj()
        assert obj["kappa"] == "undeclared" and obj["kappa_sigma"] == "undeclared"

    def test_neg_inf_ok(self):
        rep = I.DimsReport(kappa=NEG_INF, nu_bdpp=0, kappa_vol=0,
                           kappa_sigma=None)
        assert rep.to_obj()["kappa"] == "-infinity"


class TestKappaViaBody:
    """The body of honest sections has dimension kappa."""

    def test_big(self):
        tb = I.ToricBackend(P2)
        assert tb.body_val([0, 0, 3], STD).dim() == tb.kappa([0, 0, 3]) == 2

    def test_zero(self):
        tb = I.ToricBackend(P2)
        assert tb.body_val([0, 0, 0], STD).dim() == tb.kappa([0, 0, 0]) == 0

    def test_vertical(self):
        fib = T.product_fibration(P1, P1)
        flag = T.product_flag(fib, T.ToricFlag(0, (0,)), T.ToricFlag(0, (0,)))
        tb = I.ToricBackend(fib.total)
        D = [0, 2, 0, 0]
        assert tb.body_val(D, flag).dim() == tb.kappa(D) == 1

    def test_no_sections_sentinel(self):
        tb = I.ToricBackend(P2)
        assert tb.kappa([0, 0, -1]) == NEG_INF
        with pytest.raises(ValueError, match="no sections"):
            tb.body_val([0, 0, -1], STD)


def g2xg2_lattice():
    return SurfaceLattice(
        rank=2, gram=((0, 1), (1, 0)),
        effective_generators=(qvec([1, 0]), qvec([0, 1])),
        nef_generators=(qvec([1, 0]), qvec([0, 1])),
        negative_curves=(), canonical_class=qvec([2, 2]))


class TestNuViaBody:
    """The limiting body has dimension nu."""

    def test_big_is_ambient(self):
        sb = I.SurfaceBackend(BL)
        assert sb.body_lim([2, 1], 0).dim() == sb.dims([2, 1]).nu_bdpp == 2

    def test_fiber_class_segment(self):
        sb = I.SurfaceBackend(g2xg2_lattice())
        assert sb.body_lim([1, 0], 0).dim() == sb.dims([1, 0]).nu_bdpp == 1

    def test_rigid_point(self):
        sb = I.SurfaceBackend(BL)
        assert sb.body_lim([0, 1], 0).dim() == sb.dims([0, 1]).nu_bdpp == 0


class TestRestrictedVolumePlus:
    def test_big_surface_is_volume(self):
        sb = I.SurfaceBackend(BL)
        assert sb.restricted_volume_plus([2, 1], sb.stratum(0, 2)) == 4

    def test_canonical_along_fiber(self):
        sb = I.SurfaceBackend(g2xg2_lattice())
        assert sb.restricted_volume_plus([2, 2], sb.stratum(0, 1)) == 2

    def test_rigid_along_surface_is_zero(self):
        sb = I.SurfaceBackend(BL)
        assert sb.restricted_volume_plus([0, 1], sb.stratum(0, 2)) == 0

    def test_via_body_matches_toric_direct(self):
        # nu! vol(limiting body) = vol+ along a stratum of dimension nu on
        # which D has positive volume: the horizontal curve of ray 2
        fib = T.product_fibration(P1, P1)
        tb = I.ToricBackend(fib.total)
        flag = T.product_flag(fib, T.ToricFlag(0, (0,)), T.ToricFlag(0, (0,)))
        D = [0, 2, 0, 0]
        nu = tb.dims(D).nu_bdpp
        via_body = math.factorial(nu) * tb.body_lim(D, flag).volume_in_dim(nu)
        assert via_body == tb.restricted_volume_plus(D, (2,)) == 2

    def test_vol_plus_ge_vol_toric(self):
        tb = I.ToricBackend(P2)
        for coeffs in ([0, 0, 1], [0, 0, 2], [0, 0, 0]):
            rv = tb.restricted_volume(coeffs, (0,))
            rvp = tb.restricted_volume_plus(coeffs, (0,))
            assert rvp >= rv
        # equality for big classes
        assert (tb.restricted_volume([0, 0, 2], (0,))
                == tb.restricted_volume_plus([0, 0, 2], (0,)))


class TestNakayama:
    def test_whole_space_certified(self):
        tb = I.ToricBackend(P2)
        assert tb.nakayama([0, 0, 2], ())[0] == "certified"

    def test_horizontal_certified_vertical_false(self):
        fib = T.product_fibration(P1, P1)
        tb = I.ToricBackend(fib.total)
        assert tb.nakayama([0, 2, 0, 0], (2,))[0] == "certified"
        assert tb.nakayama([0, 2, 0, 0], (0,))[0] == "false"

    def test_surface_bounded_verdict(self):
        sb = I.SurfaceBackend(BL)
        assert sb.nakayama([2, 1], sb.stratum(0, 2))[0] == "certified"
        assert sb.nakayama([2, 1], sb.stratum(0, 1))[0] == "checked_up_to"

    def test_curve(self):
        cb = I.CurveBackend(CurveModel(genus=2))
        assert cb.nakayama([2], 1)[0] == "certified"
        assert cb.nakayama([2], 0)[0] == "false"
        cb0 = I.CurveBackend(CurveModel(genus=1))
        assert cb0.nakayama([0], 0)[0] == "certified"


class TestPositiveVolumeSubvariety:
    def test_big_whole_space(self):
        tb = I.ToricBackend(P2)
        assert tb.is_pvs([0, 0, 2], ())

    def test_dim_mismatch(self):
        fib = T.product_fibration(P1, P1)
        tb = I.ToricBackend(fib.total)
        assert not tb.is_pvs([0, 2, 0, 0], ())

    def test_vertical_class_wants_horizontal_stratum(self):
        # the stratum carrying positive volume is the one restriction sees
        fib = T.product_fibration(P1, P1)
        tb = I.ToricBackend(fib.total)
        assert tb.is_pvs([0, 2, 0, 0], (2,))
        assert not tb.is_pvs([0, 2, 0, 0], (0,))

    def test_surface_curve_stratum_keeps_flag_curve(self):
        # H - E has nu = 1 and (H - E).E = 1, so the flag curve E is a
        # positive volume subvariety; the stratum must name it
        from okbodies import fiberspace as FS

        sb = I.SurfaceBackend(BL)
        assert sb.is_pvs([1, -1], sb.stratum(0, 1))
        assert FS._flag_has_pvs(sb, [1, -1], 0, sb.dims([1, -1]).nu_bdpp)


class TestBackendAgreement:
    # the blown-up plane is realized both as a fan and as declared lattice
    # data; bodies must agree exactly: toric coefficients (0,0,a,b) and
    # lattice class aH+bE name the same divisor, the flags share the curve E
    CASES = [([0, 0, 1, 0], [1, 0]), ([0, 0, 2, 0], [2, 0]),
             ([0, 0, 2, 1], [2, 1]), ([0, 0, 1, 1], [1, 1]),
             ([0, 0, 3, 2], [3, 2])]

    @pytest.mark.parametrize("toric_coeffs,cls", CASES)
    def test_bodies_coincide(self, toric_coeffs, cls):
        blt = T.blown_up_plane()
        flag = T.ToricFlag(0, (3, 0))  # E first, then a line through the point
        tb = I.ToricBackend(blt)
        sb = I.SurfaceBackend(BL)
        assert tb.body_val(toric_coeffs, flag) == sb.body_val(cls, 0)

    @pytest.mark.parametrize("toric_coeffs,cls", CASES)
    def test_volumes_coincide(self, toric_coeffs, cls):
        blt = T.blown_up_plane()
        tb = I.ToricBackend(blt)
        sb = I.SurfaceBackend(BL)
        assert tb.volume(toric_coeffs) == sb.volume(cls)


class TestHomogeneity:
    def test_toric(self):
        tb = I.ToricBackend(P2)
        body = tb.body_val([0, 0, 1], STD)
        for c in (2, 3, F(1, 2)):
            assert tb.body_val([0, 0, c], STD) == body.scale(c)

    def test_surface(self):
        sb = I.SurfaceBackend(BL)
        body = sb.body_val([2, 1], 0)
        for c in (2, 3, F(1, 2)):
            scaled = sb.body_val([2 * F(c), F(c)], 0)
            assert scaled == body.scale(c)

    def test_curve(self):
        cb = I.CurveBackend(CurveModel(genus=2))
        body = cb.body_val([2])
        for c in (2, 3, F(1, 2)):
            assert cb.body_val([2 * F(c)]) == body.scale(c)


class TestDimsBackends:
    def test_toric_chain(self):
        tb = I.ToricBackend(P2)
        for coeffs in ([0, 0, 2], [0, 0, 0]):
            rep = tb.dims(coeffs)
            assert rep.kappa == rep.nu_bdpp == rep.kappa_vol

    def test_toric_3fold(self):
        fib = T.product_fibration(P2, P1)
        tb = I.ToricBackend(fib.total)
        assert tb.dims([0, 0, 1, 0, 1]).nu_bdpp == 3
        assert tb.dims([0, 0, 1, 0, 0]).nu_bdpp == 2

    def test_surface_undeclared_kappa(self):
        sb = I.SurfaceBackend(BL)
        rep = sb.dims([2, 1])
        assert rep.kappa is None and rep.nu_bdpp == 2


class TestFirstChamberLimits:
    """Limits at eps = 0 on the toric blown-up plane.

    Along A = (1, 1, 1, 1), for H + E/100, E/100 and E/10^6 the first
    chamber is shorter than the samples 1/8, 1/16, ... that a sampled fit
    starts from; E/2 is a control whose first chamber such samples do
    reach."""

    BLT = T.blown_up_plane()

    def test_vol_plus_of_h_plus_small_e(self):
        # H + E/100: positive part H, so vol+ is H.E = 0 along E (ray 3)
        # and H.(H - E) = 1 along the strict transform of a line (ray 0)
        tb = I.ToricBackend(self.BLT)
        D = [0, 0, 1, F(1, 100)]
        assert tb.restricted_volume_plus(D, (3,)) == 0
        assert tb.restricted_volume_plus(D, (0,)) == 1

    @pytest.mark.parametrize("c", [F(1, 100), F(1, 2), F(1, 10**6)])
    def test_rigid_class_has_kappa_vol_zero(self, c):
        rep = I.ToricBackend(self.BLT).dims([0, 0, 0, c])
        assert (rep.kappa, rep.nu_bdpp, rep.kappa_vol) == (0, 0, 0)


_P1xP1 = T.product_fibration(P1, P1).total
TORIC_MODELS = (P2, T.blown_up_plane(), T.hirzebruch(2), _P1xP1,
                T.product_fibration(P2, P1).total)


def _strata(X, k):
    """Ordered k-tuples of rays of some maximal cone of X."""
    return st.sampled_from(sorted({p[:k] for cone in X.max_cones
                                   for p in itertools.permutations(cone)}))


# strategies are built once here, not inside each draw; half the
# coefficients are 0, or classes that are effective but not big (where the
# two limits have content) would almost never be drawn
TORIC_COEFFS = st.one_of(st.just(F(0)), fractions_in(-2, 3, 6))
EPS_CLASSES = {X: st.tuples(*[TORIC_COEFFS] * len(X.rays))
               for X in TORIC_MODELS}
EPS_PADS = {X: st.tuples(*[st.integers(0, 3)] * len(X.rays))
            for X in TORIC_MODELS}
EPS_DEPTHS = {X: st.integers(0, X.dim) for X in TORIC_MODELS}
EPS_STRATA = {X: [_strata(X, k) for k in range(X.dim + 1)]
              for X in TORIC_MODELS}
# the pad that replaces a drawn one that is not ample
AMPLE = {X: next(a for a in itertools.product(range(1, 4), repeat=len(X.rays))
                 if T.is_ample(X, T.ToricDivisor(X, a)))
         for X in TORIC_MODELS}


@st.composite
def toric_eps_cases(draw):
    X = draw(st.sampled_from(TORIC_MODELS))
    A = draw(EPS_PADS[X])
    if not T.is_ample(X, T.ToricDivisor(X, A)):
        A = AMPLE[X]
    stratum = draw(EPS_STRATA[X][draw(EPS_DEPTHS[X])])
    return I.ToricBackend(X), draw(EPS_CLASSES[X]), A, stratum


def face_halfspaces(X, D, stratum):
    """The face of D's section polytope along `stratum`, built here from
    the rays and coefficients alone: <u, ray_i> >= -a_i on every ray, and
    <u, ray_i> <= -a_i on the stratum's rays."""
    hs = [HalfSpace(qvec([-c for c in ray]), a)
          for ray, a in zip(X.rays, D.coeffs)]
    return hs + [HalfSpace(qvec(X.rays[i]), -D.coeffs[i]) for i in stratum]


def subset_loop_first_chamber(X, D, A, stratum=()):
    """Right end eps1 of the first chamber of D + eps*A along `stratum`,
    on which the face lattice is fixed: for every nonsingular n-subset S
    of the face half-spaces, the least positive root of the slacks at the
    vertex x_S(eps), capped at 1."""
    hs0 = face_halfspaces(X, D, stratum)
    b1 = [h.offset for h in face_halfspaces(X, A, stratum)]
    eps1 = F(1)
    for subset in itertools.combinations(range(len(hs0)), X.dim):
        rows = [hs0[i].normal for i in subset]
        x0 = solve(rows, [hs0[i].offset for i in subset])
        if x0 is None:
            continue
        x1 = solve(rows, [b1[i] for i in subset])
        for h, c1 in zip(hs0, b1):
            slope = c1 - dot(h.normal, x1)
            if slope:
                root = (dot(h.normal, x0) - h.offset) / slope
                if 0 < root < eps1:
                    eps1 = root
    return eps1


def sampled_eps_fit(tb, f, cls, A, stratum):
    """Coefficients (c_0, ..., c_v) of eps -> f(D + eps*A) as the sampled
    fit found them: v + 1 samples eps1/2, ..., eps1/2^(v+1) inside the
    first chamber (0, eps1) along `stratum`, then a Vandermonde solve;
    v = the stratum dimension."""
    X = tb.X
    eps1 = subset_loop_first_chamber(X, T.ToricDivisor(X, cls),
                                     T.ToricDivisor(X, A), stratum)
    xs = [eps1 / 2 ** i for i in range(1, X.dim - len(stratum) + 2)]
    ys = [f(tuple(c + x * a for c, a in zip(cls, A))) for x in xs]
    return solve([[x ** k for k in range(len(xs))] for x in xs], ys)


class TestEpsLimitOracle:
    @settings(max_examples=150, deadline=None)
    @given(toric_eps_cases())
    def test_limits_match_sampled_fit(self, case):
        # vol+ is the constant term of the fit, and kappa_vol is n minus
        # the order of vanishing at eps = 0 of the volume's fit
        tb, cls, A, stratum = case
        fit = sampled_eps_fit(tb, lambda c: tb.restricted_volume(c, stratum),
                              cls, A, stratum)
        assert tb.restricted_volume_plus(cls, stratum) == fit[0]
        if tb.kappa(cls) == NEG_INF:
            return
        n = tb.X.dim
        fit = sampled_eps_fit(tb, tb.volume, cls, A, ())
        low = next((k for k, c in enumerate(fit) if c != 0), n)
        assert tb.dims(cls).kappa_vol == n - low
