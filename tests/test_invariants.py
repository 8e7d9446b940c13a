import itertools
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okbodies import invariants as I
from okbodies import toric as T
from okbodies.curve import CurveModel
from okbodies.fixtures import blown_up_plane_lattice
from okbodies.linalg import dot, qvec, solve
from okbodies.polytope import HalfSpace, Polytope
from okbodies.toric import NEG_INF

P1 = T.projective_line()
P2 = T.projective_plane()
STD = T.ToricFlag(0, (0, 1))


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
    def test_big(self):
        tb = I.ToricBackend(P2)
        assert I.kappa_via_body(tb, [0, 0, 3], STD) == 2

    def test_zero(self):
        tb = I.ToricBackend(P2)
        assert I.kappa_via_body(tb, [0, 0, 0], STD) == 0

    def test_vertical(self):
        fib = T.product_fibration(P1, P1)
        flag = T.product_flag(fib, T.ToricFlag(0, (0,)), T.ToricFlag(0, (0,)))
        tb = I.ToricBackend(fib.total)
        assert I.kappa_via_body(tb, [0, 2, 0, 0], flag) == 1

    def test_no_sections_sentinel(self):
        tb = I.ToricBackend(P2)
        assert I.kappa_via_body(tb, [0, 0, -1], STD) == NEG_INF


class TestNuViaBody:
    def test_big_is_ambient(self):
        sb = I.SurfaceBackend(blown_up_plane_lattice())
        assert I.nu_via_body(sb, [2, 1], 0, [2, -1]) == 2

    def test_fiber_class_segment(self):
        from okbodies.surface import SurfaceLattice

        G = SurfaceLattice(
            rank=2, gram=((0, 1), (1, 0)),
            effective_generators=(qvec([1, 0]), qvec([0, 1])),
            nef_generators=(qvec([1, 0]), qvec([0, 1])),
            negative_curves=(), canonical_class=qvec([2, 2]))
        assert I.nu_via_body(I.SurfaceBackend(G), [1, 0], 0, [1, 1]) == 1

    def test_rigid_point(self):
        sb = I.SurfaceBackend(blown_up_plane_lattice())
        assert I.nu_via_body(sb, [0, 1], 0, [2, -1]) == 0


class TestRestrictedVolumePlus:
    def test_big_surface_is_volume(self):
        sb = I.SurfaceBackend(blown_up_plane_lattice())
        assert sb.restricted_volume_plus([2, 1], sb.stratum(0, 2)) == 4

    def test_canonical_along_fiber(self):
        import okbodies.surface as S

        G = S.SurfaceLattice(
            rank=2, gram=((0, 1), (1, 0)),
            effective_generators=(qvec([1, 0]), qvec([0, 1])),
            nef_generators=(qvec([1, 0]), qvec([0, 1])),
            negative_curves=(), canonical_class=qvec([2, 2]))
        sb = I.SurfaceBackend(G)
        assert sb.restricted_volume_plus([2, 2], sb.stratum(0, 1)) == 2

    def test_rigid_along_surface_is_zero(self):
        sb = I.SurfaceBackend(blown_up_plane_lattice())
        assert sb.restricted_volume_plus([0, 1], sb.stratum(0, 2)) == 0

    def test_via_body_matches_toric_direct(self):
        fib = T.product_fibration(P1, P1)
        tb = I.ToricBackend(fib.total)
        flag = T.product_flag(fib, T.ToricFlag(0, (0,)), T.ToricFlag(0, (0,)))
        D = [0, 2, 0, 0]
        via_body = I.restricted_volume_plus_via_body(tb, D, flag)
        direct = tb.restricted_volume_plus(D, (2,), [1, 1, 1, 1])
        assert via_body == direct == 2

    def test_vol_plus_ge_vol_toric(self):
        tb = I.ToricBackend(P2)
        A = [1, 1, 1]
        for coeffs in ([0, 0, 1], [0, 0, 2], [0, 0, 0]):
            rv = tb.restricted_volume(coeffs, (0,))
            rvp = tb.restricted_volume_plus(coeffs, (0,), A)
            assert rvp >= rv
        # equality for big classes
        assert (tb.restricted_volume([0, 0, 2], (0,))
                == tb.restricted_volume_plus([0, 0, 2], (0,), A))


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
        sb = I.SurfaceBackend(blown_up_plane_lattice())
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
        assert tb.is_pvs([0, 0, 2], (), [1, 1, 1])

    def test_dim_mismatch(self):
        fib = T.product_fibration(P1, P1)
        tb = I.ToricBackend(fib.total)
        assert not tb.is_pvs([0, 2, 0, 0], (), [1, 1, 1, 1])

    def test_vertical_class_wants_horizontal_stratum(self):
        # the stratum carrying positive volume is the one restriction sees
        fib = T.product_fibration(P1, P1)
        tb = I.ToricBackend(fib.total)
        assert tb.is_pvs([0, 2, 0, 0], (2,), [1, 1, 1, 1])
        assert not tb.is_pvs([0, 2, 0, 0], (0,), [1, 1, 1, 1])

    def test_surface_curve_stratum_keeps_flag_curve(self):
        # H - E has nu = 1 and (H - E).E = 1, so the flag curve E is a
        # positive volume subvariety; the stratum must name it
        from okbodies import fiberspace as FS

        sb = I.SurfaceBackend(blown_up_plane_lattice())
        assert sb.is_pvs([1, -1], sb.stratum(0, 1))
        assert FS._flag_has_pvs(sb, [1, -1], 0)


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
        sb = I.SurfaceBackend(blown_up_plane_lattice())
        assert tb.body_val(toric_coeffs, flag) == sb.body_val(cls, 0)

    @pytest.mark.parametrize("toric_coeffs,cls", CASES)
    def test_volumes_coincide(self, toric_coeffs, cls):
        blt = T.blown_up_plane()
        tb = I.ToricBackend(blt)
        sb = I.SurfaceBackend(blown_up_plane_lattice())
        assert tb.volume(toric_coeffs) == sb.volume(cls)


class TestHomogeneity:
    def test_toric(self):
        tb = I.ToricBackend(P2)
        body = tb.body_val([0, 0, 1], STD)
        for c in (2, 3, F(1, 2)):
            assert tb.body_val([0, 0, c], STD) == body.scale(c)

    def test_surface(self):
        sb = I.SurfaceBackend(blown_up_plane_lattice())
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
        sb = I.SurfaceBackend(blown_up_plane_lattice())
        rep = sb.dims([2, 1])
        assert rep.kappa is None and rep.nu_bdpp == 2


class TestFirstChamberLimits:
    """Limits at eps = 0 along A = (1, 1, 1, 1) on the toric blown-up plane.

    For H + E/100, E/100 and E/10^6 the first chamber is shorter than the
    samples 1/8, 1/16, ... that a sampled fit starts from; E/2 is a
    control whose first chamber such samples do reach."""

    BLT = T.blown_up_plane()
    A = [1, 1, 1, 1]

    def test_vol_plus_of_h_plus_small_e(self):
        # H + E/100: positive part H, so vol+ is H.E = 0 along E (ray 3)
        # and H.(H - E) = 1 along the strict transform of a line (ray 0)
        tb = I.ToricBackend(self.BLT)
        D = [0, 0, 1, F(1, 100)]
        assert tb.restricted_volume_plus(D, (3,), self.A) == 0
        assert tb.restricted_volume_plus(D, (0,), self.A) == 1

    @pytest.mark.parametrize("c", [F(1, 100), F(1, 2), F(1, 10**6)])
    def test_rigid_class_has_kappa_vol_zero(self, c):
        rep = I.ToricBackend(self.BLT).dims([0, 0, 0, c], self.A)
        assert (rep.kappa, rep.nu_bdpp, rep.kappa_vol) == (0, 0, 0)


_P1xP1 = T.product_fibration(P1, P1).total
TORIC_MODELS = (P2, T.blown_up_plane(), T.hirzebruch(2), _P1xP1,
                T.product_fibration(P2, P1).total)


@st.composite
def toric_eps_cases(draw):
    X = draw(st.sampled_from(TORIC_MODELS))
    coeff = st.fractions(min_value=-2, max_value=3, max_denominator=6)
    cls = draw(st.lists(coeff, min_size=len(X.rays), max_size=len(X.rays)))
    tb = I.ToricBackend(X)
    A = draw(st.lists(st.integers(0, 3), min_size=len(X.rays),
                      max_size=len(X.rays)))
    if not tb.is_ample(A):
        A = tb.some_ample()
    order = draw(st.permutations(draw(st.sampled_from(X.max_cones))))
    stratum = tuple(order[:draw(st.integers(0, X.dim))])
    return tb, cls, A, stratum


def face_halfspaces(X, D, stratum):
    """The face of D's section polytope along `stratum`, built here from
    the rays and coefficients alone: <u, ray_i> >= -a_i on every ray, and
    <u, ray_i> <= -a_i on the stratum's rays."""
    hs = [HalfSpace(qvec([-c for c in ray]), a)
          for ray, a in zip(X.rays, D.coeffs)]
    return hs + [HalfSpace(qvec(X.rays[i]), -D.coeffs[i]) for i in stratum]


def subset_loop_first_chamber(X, D, A, stratum=()):
    """The first chamber as it was computed before the lifted polytope:
    for every nonsingular n-subset S of the face half-spaces, the least
    positive root of the slacks at the vertex x_S(eps), capped at 1."""
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


class TestEpsFitOracle:
    @settings(max_examples=150, deadline=None)
    @given(toric_eps_cases())
    def test_fit_reproduces_points_inside_the_chamber(self, case):
        # the fit uses eps1/2, eps1/4, ...; eps1/3 and 2*eps1/3 are not
        # among them, so a chamber wall inside (0, eps1) would show here
        tb, cls, A, stratum = case
        if stratum:
            def f(c):
                return tb.restricted_volume(c, stratum)
        else:
            f = tb.volume
        coeffs = tb._eps_fit(f, cls, A, stratum)
        D, DA = T.divisor(tb.X, cls), T.divisor(tb.X, A)
        eps1 = T.first_chamber(tb.X, D, DA, stratum)
        assert 0 < subset_loop_first_chamber(tb.X, D, DA, stratum) <= eps1 <= 1
        xs = [eps1 / 3, 2 * eps1 / 3]
        # the chamber is closed at eps1 when the face of D is not empty;
        # otherwise the face first appears at eps1, where f may jump
        face = Polytope.from_halfspaces(face_halfspaces(tb.X, D, stratum),
                                        tb.X.dim)
        if not face.is_empty:
            xs.append(eps1)
        for x in xs:
            shifted = [c + x * a for c, a in zip(cls, A)]
            assert sum(c * x ** k for k, c in enumerate(coeffs)) == f(shifted)
