import json
from fractions import Fraction as F
from functools import lru_cache

import pytest
from corpus import model
from exact_strategies import fractions_in
from fraction_reference import signature, solve
from hypothesis import example, given, settings
from hypothesis import strategies as st

from okbodies import lp
from okbodies import surface as S
from okbodies.cli import main
from okbodies.invariants import SurfaceBackend
from okbodies.linalg import qvec
from okbodies.polytope import Polytope, hull

BL = model("blown_up_plane_surface")
H = qvec([1, 0])
E = qvec([0, 1])
A_BL = qvec([2, -1])  # 2H - E, ample


def g2xg2_lattice():
    return S.SurfaceLattice(
        rank=2, gram=((0, 1), (1, 0)),
        effective_generators=(qvec([1, 0]), qvec([0, 1])),
        nef_generators=(qvec([1, 0]), qvec([0, 1])),
        negative_curves=(),
        canonical_class=qvec([2, 2]),
        iitaka_degrees={0: 1}, declared_kappa={(2, 2): 2})


def bl2_lattice():
    """Plane blown up in two points, basis (H, E1, E2); the three negative
    curves E1, E2 and the line L = H - E1 - E2 span the effective cone."""
    return S.SurfaceLattice(
        rank=3, gram=((1, 0, 0), (0, -1, 0), (0, 0, -1)),
        effective_generators=(qvec([0, 1, 0]), qvec([0, 0, 1]),
                              qvec([1, -1, -1])),
        nef_generators=(qvec([1, 0, 0]), qvec([1, -1, 0]), qvec([1, 0, -1])),
        negative_curves=(0, 1, 2),
        canonical_class=qvec([-3, 1, 1]))


class TestValidation:
    def test_signature_enforced(self):
        with pytest.raises(ValueError, match="signature"):
            S.SurfaceLattice(rank=2, gram=((1, 0), (0, 1)),
                             effective_generators=(qvec([1, 0]),),
                             nef_generators=(), negative_curves=(),
                             canonical_class=qvec([0, 0]))

    def test_nef_pairing_enforced(self):
        with pytest.raises(ValueError, match="nef generator"):
            S.SurfaceLattice(rank=2, gram=((1, 0), (0, -1)),
                             effective_generators=(qvec([0, 1]),),
                             nef_generators=(qvec([0, 1]),),  # pairs -1 with E
                             negative_curves=(0,),
                             canonical_class=qvec([0, 0]))

    @pytest.mark.parametrize("generators,curves", [
        ((qvec([0, 1]),), (0, 0)),
        ((qvec([0, 1]), qvec([0, 1])), (0, 1)),
    ], ids=["same-index", "same-class"])
    def test_negative_curve_listed_once(self, generators, curves):
        # a repeated curve would make Zariski's support Gram singular
        with pytest.raises(ValueError, match="negative_curves"):
            S.SurfaceLattice(rank=2, gram=((1, 0), (0, -1)),
                             effective_generators=generators,
                             nef_generators=(), negative_curves=curves,
                             canonical_class=qvec([0, 0]))

    @pytest.mark.parametrize("edit,message", [
        ({"gram": [[1, 1], [0, -1]]}, "gram must be symmetric"),
        ({"canonical_class": ["-3"]}, "class vectors must have length rank"),
        ({"negative_curves": [5]}, "negative curve index out of range"),
    ], ids=["asymmetric-gram", "class-length", "curve-index"])
    def test_validate_rejects_model(self, edit, message, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**BL.to_obj(), **edit}))
        assert main(["validate", "--model", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"input error: {path}: {message}\n"

    def test_negative_curve_must_be_negative(self):
        with pytest.raises(ValueError, match="self-intersection"):
            S.SurfaceLattice(rank=2, gram=((1, 0), (0, -1)),
                             effective_generators=(qvec([1, 0]),),
                             nef_generators=(), negative_curves=(0,),
                             canonical_class=qvec([0, 0]))


class TestIntersection:
    def test_blown_up_plane(self):
        assert BL.pair(H, H) == 1
        assert BL.pair(H, E) == 0
        assert BL.pair(E, E) == -1

    def test_product_canonical(self):
        G = g2xg2_lattice()
        K = qvec([2, 2])
        assert G.pair(K, K) == 8

    def test_length_mismatch(self):
        with pytest.raises(ValueError):
            BL.pair((1,), (1, 0))

    @pytest.mark.parametrize("call", [
        lambda D: BL.pair(D, H),
        lambda D: S.is_psef(BL, D),
        lambda D: S.psef_threshold(BL, H, D),
        lambda D: S.psef_threshold(BL, D, E),
        lambda D: S.zariski_decompose(BL, D),
        lambda D: S.volume_surface(BL, D),
    ])
    @pytest.mark.parametrize("D", [(1,), (2, 0, 1)])
    def test_every_entry_checks_class_length(self, call, D):
        # a short or long class must not be truncated by a zip or an index
        with pytest.raises(ValueError, match="class vectors must have "
                                             "length rank"):
            call(D)


class TestConeTests:
    def test_h_minus_e(self):
        D = qvec([1, -1])
        assert S.is_psef(BL, D) and S.is_nef(BL, D)
        assert not SurfaceBackend(BL).is_big(D) and not S.is_ample(BL, D)

    def test_2h_plus_e(self):
        D = qvec([2, 1])
        assert (SurfaceBackend(BL).is_big(D) and S.is_psef(BL, D)
                and not S.is_nef(BL, D))

    def test_minus_h(self):
        assert not S.is_psef(BL, qvec([-1, 0]))
        assert not SurfaceBackend(BL).is_big(qvec([-1, 0]))


class TestZariski:
    def test_nef_divisor(self):
        zp = S.zariski_decompose(BL, H)
        assert zp.positive == H and all(c == 0 for c in zp.negative)
        assert zp.support == ()

    def test_2h_plus_e(self):
        zp = S.zariski_decompose(BL, qvec([2, 1]))
        assert zp.positive == (2, 0) and zp.negative == (0, 1)

    def test_exceptional(self):
        zp = S.zariski_decompose(BL, E)
        assert zp.positive == (0, 0) and zp.negative == tuple(E)

    def test_orthogonality(self):
        for cls in ([2, 1], [3, 2], [1, 1]):
            zp = S.zariski_decompose(BL, qvec(cls))
            assert BL.pair(zp.positive, zp.negative) == 0
            for i in zp.support:
                assert BL.pair(zp.positive, BL.effective_generators[i]) == 0

    def test_permutation_invariance(self):
        # same lattice with negative curve listed after a reshuffle of the
        # effective generators
        alt = S.SurfaceLattice(
            rank=2, gram=((1, 0), (0, -1)),
            effective_generators=(qvec([1, -1]), qvec([0, 1])),
            nef_generators=(qvec([1, 0]), qvec([1, -1])),
            negative_curves=(1,),
            canonical_class=qvec([-3, 1]))
        for cls in ([2, 1], [1, 1], [3, 2]):
            a = S.zariski_decompose(BL, qvec(cls))
            b = S.zariski_decompose(alt, qvec(cls))
            assert a.positive == b.positive and a.negative == b.negative

    def test_not_psef(self):
        with pytest.raises(ValueError, match="pseudoeffective"):
            S.zariski_decompose(BL, qvec([-1, 0]))

    def test_section_count_oracle(self):
        # h^0(m(2H+E)) counted on the toric realization of the same surface
        from okbodies import toric as T

        blt = T.blown_up_plane()
        for m in range(1, 11):
            count = len(T.sections(blt, T.ToricDivisor(blt, [0, 0, 2, 1]), m))
            assert count == (2 * m + 1) * (2 * m + 2) // 2
        assert S.volume_surface(BL, qvec([2, 1])) == 4


class TestVolume:
    def test_values(self):
        assert S.volume_surface(BL, qvec([2, 1])) == 4
        assert S.volume_surface(BL, E) == 0
        assert S.volume_surface(BL, qvec([-1, 0])) == 0
        assert S.volume_surface(g2xg2_lattice(), qvec([2, 2])) == 8


class TestBodies:
    def test_h_with_flag_e(self):
        body = S.okounkov_body_surface(BL, H, 0)
        assert body == hull([(0, 0), (1, 0), (1, 1)])

    def test_genus2_square(self):
        body = S.okounkov_body_surface(g2xg2_lattice(), qvec([2, 2]), 0)
        assert body == hull([(0, 0), (2, 0), (0, 2), (2, 2)])

    def test_rigid_class_point_body(self):
        body = S.okounkov_body_surface(BL, E, 0)
        assert body == hull([(1, 0)])

    def test_left_endpoint_from_negative_part(self):
        body = S.okounkov_body_surface(BL, qvec([2, 1]), 0)
        assert body == hull([(1, 0), (3, 0), (3, 2)])
        assert 2 * body.volume_in_dim(2) == S.volume_surface(BL, qvec([2, 1]))

    def test_not_psef_errors(self):
        with pytest.raises(ValueError, match="pseudoeffective"):
            S.okounkov_body_surface(BL, qvec([-1, 0]), 0)

    def test_chamber_of_length_10_to_the_minus_100(self):
        # along D - tL the support gains E1 at t = 1 and E2 at
        # t = 1 + 10^-100: a chamber no halved probe reached
        L = bl2_lattice()
        D = qvec([3, -1, -1 - F(1, 10**100)])
        body = S.okounkov_body_surface(L, D, 2)
        assert 2 * body.volume_in_dim(2) == S.volume_surface(L, D)


class TestLimitingBodies:
    def test_big_equals_direct(self):
        for cls in ([1, 0], [2, 1], [1, 1]):
            direct = S.okounkov_body_surface(BL, qvec(cls), 0)
            lim = S.limiting_body_surface(BL, qvec(cls), 0)
            assert lim == direct

    def test_exceptional_shrinks_to_point(self):
        lim = S.limiting_body_surface(BL, E, 0)
        assert lim == hull([(1, 0)])

    def test_tiny_rigid_class(self):
        # every chamber probe the sampled extrapolation tried crossed a wall
        D = qvec([0, F(1, 10**6)])
        lim = S.limiting_body_surface(BL, D, 0)
        assert lim == hull([(F(1, 10**6), 0)])


class TestConeDataErrors:
    def test_undeclared_negative_curve(self):
        bad = S.SurfaceLattice(
            rank=2, gram=((1, 0), (0, -1)),
            effective_generators=(qvec([0, 1]), qvec([1, -1])),
            nef_generators=(),
            negative_curves=(),  # E missing from the declaration
            canonical_class=qvec([-3, 1]))
        with pytest.raises(S.ConeDataError, match="cone data incomplete"):
            S.zariski_decompose(bad, qvec([2, 1]))


class TestNumericalDims:
    def test_big(self):
        nd = S.numerical_dims_surface(BL, H)
        assert nd == {"nu_bdpp": 2, "kappa_vol": 2}

    def test_fiber_class(self):
        G = g2xg2_lattice()
        nd = S.numerical_dims_surface(G, qvec([1, 0]))
        assert nd == {"nu_bdpp": 1, "kappa_vol": 1}

    def test_rigid(self):
        nd = S.numerical_dims_surface(BL, E)
        assert nd == {"nu_bdpp": 0, "kappa_vol": 0}

    def test_not_psef(self):
        with pytest.raises(ValueError):
            S.numerical_dims_surface(BL, qvec([-1, 0]))

    @pytest.mark.parametrize("cls,k", [
        ([0, F(1, 10**6)], 0), ([0, F(1, 10**100)], 0), ([2, F(1, 10**100)], 2),
    ], ids=["E-over-10^6", "E-over-10^100", "2H-plus-E-over-10^100"])
    def test_tiny_rigid_class(self, cls, k):
        # the first chamber of D + eps*A ends near the coefficient of E:
        # far below the smallest eps the sampled quadratic fit tried, and
        # below 2^-256 for 10^-100, where a halved probe gave up
        nd = S.numerical_dims_surface(BL, qvec(cls))
        assert nd == {"nu_bdpp": k, "kappa_vol": k}


class TestValuativeAbundant:
    def test_scaling_by_declared_degree(self):
        G = S.SurfaceLattice(
            rank=2, gram=((0, 2), (2, 0)),
            effective_generators=(qvec([1, 0]), qvec([0, 1])),
            nef_generators=(qvec([1, 0]), qvec([0, 1])),
            negative_curves=(),
            canonical_class=qvec([1, 0]),
            iitaka_degrees={1: 2})
        body = S.valuative_body_abundant(G, qvec([1, 0]), 1)
        assert body == hull([(0, 0), (0, 1)])

    def test_alpha_one_is_limiting(self):
        G = g2xg2_lattice()
        body = S.valuative_body_abundant(G, qvec([2, 2]), 0)
        assert body == S.okounkov_body_surface(G, qvec([2, 2]), 0)

    def test_undeclared_errors(self):
        with pytest.raises(ValueError, match="undeterminable"):
            S.valuative_body_abundant(BL, qvec([2, 1]), 0)


class TestBodyProperties:
    @pytest.mark.parametrize("cls,flag", [
        ([2, 1], 0), ([1, 0], 0), ([1, 1], 0), ([3, 2], 0), ([2, 0], 1),
    ])
    def test_volume_consistency_big(self, cls, flag):
        body = S.okounkov_body_surface(BL, qvec(cls), flag)
        assert 2 * body.volume_in_dim(2) == S.volume_surface(BL, qvec(cls))

    def test_body_monotone_under_ample(self):
        for cls in ([2, 1], [0, 1], [1, 0]):
            D = qvec(cls)
            Dp = tuple(d + F(1, 8) * a for d, a in zip(D, A_BL))
            small = S.okounkov_body_surface(BL, D, 0)
            big = S.okounkov_body_surface(BL, Dp, 0)
            assert big.contains(small) == (True, 0)

    def test_dim_equals_nu(self):
        for cls, nu in ((H, 2), (qvec([1, -1]), 1), (E, 0)):
            lim = S.limiting_body_surface(BL, cls, 0)
            assert lim.dim() == S.numerical_dims_surface(BL, cls)["nu_bdpp"]


# -- the sampled eps-limits these functions used to compute ------------------


def _plus(D, e, A):
    return tuple(d + e * a for d, a in zip(D, A))


def _extrapolate(body1, body2, e1, e2):
    if len(body1.vertices) != len(body2.vertices):
        return None
    f = e2 / (e1 - e2)
    return Polytope.hull([tuple(b + (b - a) * f for a, b in zip(v1, v2))
                          for v1, v2 in zip(body1.vertices, body2.vertices)])


def sampled_limiting_body(L, D, flag_curve, A):
    """Vertexwise extrapolation from the bodies at eps, eps/2, eps/4 that
    must match a second extrapolation and the body of D, halving eps from
    1/64 up to ten times; None where it gives up."""
    direct = S.okounkov_body_surface(L, D, flag_curve)
    eps = F(1, 64)
    for _ in range(10):
        bodies = [S.okounkov_body_surface(L, _plus(D, e, A), flag_curve)
                  for e in (eps, eps / 2, eps / 4)]
        e01 = _extrapolate(bodies[0], bodies[1], eps, eps / 2)
        e12 = _extrapolate(bodies[1], bodies[2], eps / 2, eps / 4)
        if e01 is not None and e01 == e12 and e01 == direct:
            return e01
        eps /= 2
    return None


def sampled_numerical_dims(L, D, A):
    """Quadratic fit of vol(D + eps*A) through eps = b, b/2, b/4 that must
    reproduce vol(D) at 0, halving b from 1/8 up to ten times; None where
    it gives up."""
    zp = S.zariski_decompose(L, D)
    p2 = L.pair(zp.positive, zp.positive)
    k = 2 if p2 > 0 else (1 if any(zp.positive) else 0)
    base = F(1, 8)
    for _ in range(10):
        xs = (base, base / 2, base / 4)
        ys = [S.volume_surface(L, _plus(D, x, A)) for x in xs]
        a0, a1, _a2 = solve([[F(1), x, x * x] for x in xs], ys)
        if a0 == p2:
            assert (2 if a0 > 0 else (1 if a1 > 0 else 0)) == k
            return {"nu_bdpp": k, "kappa_vol": k}
        base /= 2
    return None


ORACLE_LATTICES = (BL, bl2_lattice(), g2xg2_lattice())


# strategies are built once here, not inside each draw
PSEF_WEIGHTS = fractions_in(0, 3, 8)
NEF_MULTIPLES = st.integers(1, 3)


@lru_cache(maxsize=None)
def lists_of(entry, n):
    return st.lists(entry, min_size=n, max_size=n)


@st.composite
def psef_cases(draw):
    L = draw(st.sampled_from(ORACLE_LATTICES))
    gens = L.effective_generators
    weights = draw(lists_of(PSEF_WEIGHTS, len(gens)))
    D = tuple(sum((w * g[i] for w, g in zip(weights, gens)), F(0))
              for i in range(L.rank))
    ks = draw(lists_of(NEF_MULTIPLES, len(L.nef_generators)))
    A = tuple(sum((k * g[i] for k, g in zip(ks, L.nef_generators)), F(0))
              for i in range(L.rank))
    flag = draw(st.integers(0, len(gens) - 1))
    return L, D, A, flag


class TestSampledOracle:
    """Wherever the old sampled code returns, the chamber argument agrees.
    The drawn ample A is read only by the sampled reference."""

    @settings(max_examples=60, deadline=None)
    @given(psef_cases())
    def test_limiting_body(self, case):
        L, D, A, flag = case
        assert S.is_ample(L, A)
        old = sampled_limiting_body(L, D, flag, A)
        if old is not None:
            assert S.limiting_body_surface(L, D, flag) == old

    @settings(max_examples=60, deadline=None)
    @given(psef_cases())
    def test_numerical_dims(self, case):
        L, D, A, _flag = case
        old = sampled_numerical_dims(L, D, A)
        if old is not None:
            assert S.numerical_dims_surface(L, D) == old


# -- the Zariski loop zariski_decompose ran before `_support_after` ----------


def loop_zariski_decompose(L, D):
    D = qvec(D)
    if not S.is_psef(L, D):
        raise ValueError("divisor is not pseudoeffective")
    support = sorted(i for i in L.negative_curves
                     if fraction_pair(L, D, L.effective_generators[i]) < 0)
    while True:
        coeffs = []
        if support:
            curves = [L.effective_generators[i] for i in support]
            gram = [[fraction_pair(L, a, b) for b in curves] for a in curves]
            pos, _neg, zero = signature(gram)
            if (pos, zero) != (0, 0):
                raise S.ConeDataError("cone data incomplete: support curves "
                                      "are not negative definite")
            coeffs = list(solve(gram, [fraction_pair(L, D, c)
                                       for c in curves]))
        N = tuple(sum((c * L.effective_generators[i][k]
                       for i, c in zip(support, coeffs)), F(0))
                  for k in range(L.rank))
        P = tuple(d - n for d, n in zip(D, N))
        extra = [i for i in L.negative_curves
                 if i not in support
                 and fraction_pair(L, P, L.effective_generators[i]) < 0]
        if not extra:
            break
        support = sorted(support + extra)
    if any(c < 0 for c in coeffs):
        raise S.ConeDataError("cone data incomplete: negative part has a "
                              "negative coefficient")
    if not S.is_nef(L, P):
        raise S.ConeDataError("cone data incomplete: residual part is not nef")
    return S.ZariskiPair(P, N, tuple(support), tuple(coeffs))


# declared cones that leave out a negative curve, or declare negative
# curves whose spans are not negative definite: with X = 2H - 2E1 + E2,
# X - E2 has square 0 and E1 + X has square 2
INCOMPLETE_LATTICES = (
    S.SurfaceLattice(
        rank=2, gram=((1, 0), (0, -1)),
        effective_generators=(qvec([0, 1]), qvec([1, -1])),
        nef_generators=(), negative_curves=(),
        canonical_class=qvec([-3, 1])),
    S.SurfaceLattice(
        rank=3, gram=((1, 0, 0), (0, -1, 0), (0, 0, -1)),
        effective_generators=(qvec([0, 1, 0]), qvec([2, -2, 1]),
                              qvec([0, 0, 1])),
        nef_generators=(), negative_curves=(0, 1, 2),
        canonical_class=qvec([0, 0, 0])),
)


def _outcome(f, *args):
    try:
        return f(*args)
    except ValueError as e:
        return type(e), str(e)


ANY_WEIGHTS = fractions_in(-1, 3, 4)


@st.composite
def any_classes(draw, lattices=ORACLE_LATTICES + INCOMPLETE_LATTICES):
    """Combinations of the effective generators, a few with a negative
    weight, so that most classes are pseudoeffective."""
    L = draw(st.sampled_from(lattices))
    gens = L.effective_generators
    weights = draw(lists_of(ANY_WEIGHTS, len(gens)))
    return L, tuple(sum((w * g[i] for w, g in zip(weights, gens)), F(0))
                    for i in range(L.rank))


@settings(max_examples=300, deadline=None)
@given(any_classes())
def test_zariski_matches_loop(case):
    L, D = case
    assert (_outcome(S.zariski_decompose, L, D)
            == _outcome(loop_zariski_decompose, L, D))


# -- vol+ along the flag curve against the Fraction pairing -----------------


def fraction_restricted_volume_plus(L, D, flag_curve):
    """vol+ of D along the flag curve as the Fraction pairing of the
    Zariski positive part with the curve."""
    zp = S.zariski_decompose(L, D)
    return L.pair(zp.positive, L.effective_generators[flag_curve])


def divided(L):
    """L with its i-th effective generator divided by i + 2: the same cone
    and negative curves, spanned by classes with denominators."""
    return S.SurfaceLattice(
        rank=L.rank, gram=L.gram,
        effective_generators=tuple(tuple(x / (i + 2) for x in g) for i, g
                                   in enumerate(L.effective_generators)),
        nef_generators=L.nef_generators, negative_curves=L.negative_curves,
        canonical_class=L.canonical_class)


CURVE_LATTICES = (ORACLE_LATTICES + INCOMPLETE_LATTICES
                  + tuple(map(divided, ORACLE_LATTICES + INCOMPLETE_LATTICES)))


@settings(max_examples=200, deadline=None)
@given(any_classes(CURVE_LATTICES), st.data())
def test_curve_stratum_matches_fraction_pairing(case, data):
    L, D = case
    flag = data.draw(st.integers(0, len(L.effective_generators) - 1))
    got = _outcome(S.restricted_volume_plus, L, D, 1, flag)
    assert got == _outcome(fraction_restricted_volume_plus, L, D, flag)
    assert type(got) in (F, tuple)


# -- cone tests by facet rows against the simplex ----------------------------


def bl3_lattice():
    """Plane blown up in three general points, basis (H, E1, E2, E3): the
    six (-1)-curves E_i and H - E_i - E_j span a non-simplicial cone."""
    curves = ((0, 1, 0, 0), (0, 0, 1, 0), (0, 0, 0, 1),
              (1, -1, -1, 0), (1, -1, 0, -1), (1, 0, -1, -1))
    nefs = ((1, 0, 0, 0), (1, -1, 0, 0), (1, 0, -1, 0), (1, 0, 0, -1),
            (2, -1, -1, -1))
    return S.SurfaceLattice(
        rank=4, gram=((1, 0, 0, 0), (0, -1, 0, 0), (0, 0, -1, 0),
                      (0, 0, 0, -1)),
        effective_generators=tuple(map(qvec, curves)),
        nef_generators=tuple(map(qvec, nefs)),
        negative_curves=tuple(range(6)),
        canonical_class=qvec([-3, 1, 1, 1]))


CONE_LATTICES = ORACLE_LATTICES + INCOMPLETE_LATTICES + (bl3_lattice(),)


# strategies are built once here: building them inside each draw costs
# more than the cone tests themselves
QUARTERS = st.integers(-12, 12).map(lambda n: F(n, 4))      # in [-3, 3]
WEIGHTS = st.integers(0, 8).map(lambda n: F(n, 4))          # in [0, 2]
SHIFTS = st.integers(1, 8).map(lambda n: F(n, 4))           # in [1/4, 2]
SMALL = st.integers(-2, 2).map(F)


@lru_cache(maxsize=None)
def tuples_of(entry, n):
    return st.tuples(*[entry] * n)


@lru_cache(maxsize=None)
def generator_lists(r):
    return st.lists(tuples_of(SMALL, r), max_size=r + 1)


@st.composite
def degenerate_lattices(draw):
    """An oracle lattice's form with drawn generators: none, too few to
    span, a line (g and -g), the zero class, a repeated generator."""
    base = draw(st.sampled_from(CONE_LATTICES))
    r = base.rank
    gens = draw(generator_lists(r))
    if gens and draw(st.booleans()):
        gens.append(tuple(-x for x in gens[0]))
    if draw(st.booleans()):
        gens.append(qvec([0] * r))
    if gens and draw(st.booleans()):
        gens.append(gens[-1])
    return S.SurfaceLattice(
        rank=r, gram=base.gram, effective_generators=tuple(gens),
        nef_generators=(), negative_curves=(), canonical_class=qvec([0] * r))


LATTICES = st.one_of(st.sampled_from(CONE_LATTICES), degenerate_lattices())
KINDS = st.sampled_from(("random", "inside", "shifted"))


@st.composite
def cone_cases(draw):
    """(L, D, C): D drawn at random, inside the cone, or as P + sC with P
    in the cone, which puts D outside the cone while D - sC enters it."""
    L = draw(LATTICES)
    r = L.rank
    C = draw(tuples_of(QUARTERS, r))
    gens = L.effective_generators
    w = draw(tuples_of(WEIGHTS, len(gens)))
    P = tuple(sum((x * g[i] for x, g in zip(w, gens)), F(0)) for i in range(r))
    kind = draw(KINDS)
    if kind == "random":
        D = draw(tuples_of(QUARTERS, r))
    elif kind == "inside":
        D = P
    else:
        s = draw(SHIFTS)
        D = tuple(p + s * c for p, c in zip(P, C))
    return L, D, C


def simplex_threshold(L, D, C):
    """`psef_threshold` as one `lp.max_cone_shift` solve."""
    status, t = lp.max_cone_shift(L.effective_generators, qvec(C), qvec(D))
    if status == lp.INFEASIBLE:
        raise ValueError("divisor is not pseudoeffective")
    if status == lp.UNBOUNDED:
        raise S.ConeDataError("D - tC never leaves the declared cone")
    return t


@settings(max_examples=400, deadline=None)
@given(cone_cases())
# D = -H + 2E is not psef, but D - tC = (2t - 1)H + (2 - 3t)E is for
# 1/2 <= t <= 1; and C = 0 never leaves the cone
@example((BL, qvec([-1, 2]), qvec([-2, 3])))
@example((BL, qvec([1, 0]), qvec([0, 0])))
def test_cone_tests_match_simplex(case):
    L, D, C = case
    gens = L.effective_generators
    assert S.is_psef(L, D) == (lp.nonneg_combination(gens, D) is not None)
    assert (_outcome(S.psef_threshold, L, D, C)
            == _outcome(simplex_threshold, L, D, C))


# -- the integer pairing against the Fraction double sum ---------------------


def fraction_pair(L, a, b):
    a, b = qvec(a), qvec(b)
    return sum((a[i] * L.gram[i][j] * b[j]
                for i in range(L.rank) for j in range(L.rank)), F(0))


# ints, and Fractions of mixed denominators up to 12
ENTRIES = st.one_of(st.integers(-5, 5),
                    st.builds(F, st.integers(-60, 60), st.integers(1, 12)))


@lru_cache(maxsize=None)
def classes_of_rank(r):
    return st.one_of(st.just((0,) * r), tuples_of(ENTRIES, r))


@st.composite
def class_pairs(draw):
    L = draw(st.sampled_from(CONE_LATTICES))
    return L, draw(classes_of_rank(L.rank)), draw(classes_of_rank(L.rank))


@settings(max_examples=300, deadline=None)
@given(class_pairs())
def test_pair_matches_fraction_double_sum(case):
    L, a, b = case
    got = L.pair(a, b)
    assert type(got) is F and got == fraction_pair(L, a, b)


# -- the Fraction chamber sweep the body ran before its integer classes -------


def fraction_fixed_support_affine(L, D, C, support):
    curves = [L.effective_generators[i] for i in support]
    x0 = x1 = ()
    if support:
        gram = [[fraction_pair(L, a, b) for b in curves] for a in curves]
        pos, _neg, zero = signature(gram)
        if (pos, zero) != (0, 0):
            raise S.ConeDataError("cone data incomplete: support curves are "
                                  "not negative definite")
        x0 = solve(gram, [fraction_pair(L, D, c) for c in curves])
        x1 = solve(gram, [-fraction_pair(L, C, c) for c in curves])
    n0, n1 = ([sum((c * g[k] for c, g in zip(x, curves)), F(0))
               for k in range(L.rank)] for x in (x0, x1))
    return (x0, x1), (tuple(d - n for d, n in zip(D, n0)),
                      tuple(-c - n for c, n in zip(C, n1)))


def fraction_support_after(L, D, C, t):
    support = []
    while True:
        x, (p0, p1) = fraction_fixed_support_affine(L, D, C, support)
        extra = []
        for i in L.negative_curves:
            if i not in support:
                g = L.effective_generators[i]
                a, b = fraction_pair(L, p0, g), fraction_pair(L, p1, g)
                if a + b * t < 0 or (a + b * t == 0 and b < 0):
                    extra.append(i)
        if not extra:
            return x, (p0, p1)
        support = sorted(support + extra)


def fraction_cond_window(conds, t):
    """Largest interval [lo, hi] around `t` where all a + b*s >= 0 hold."""
    lo, hi = None, None
    for a, b in conds:
        if b == 0:
            if a < 0:
                return None
            continue
        root = F(-a, b)
        if b > 0:
            lo = root if lo is None or root > lo else lo
        else:
            hi = root if hi is None or root < hi else hi
    if (lo is not None and lo > t) or (hi is not None and hi < t):
        return None
    return lo, hi


def fraction_chamber_after(L, D, C, t, hi):
    (x0, x1), (p0, p1) = fraction_support_after(L, D, C, t)
    conds = list(zip(x0, x1)) + [
        (fraction_pair(L, p0, g), fraction_pair(L, p1, g))
        for g in L.effective_generators]
    win = fraction_cond_window(conds, t)
    if win is None or (win[1] is not None and win[1] <= t):
        raise S.ConeDataError("cone data incomplete: no Zariski chamber "
                              "starts at t=%s" % t)
    return (hi if win[1] is None else min(win[1], hi)), (p0, p1)


def fraction_body(L, D, flag_curve):
    """`okounkov_body_surface` on `Fraction` classes."""
    D = qvec(D)
    if not S.is_psef(L, D):
        raise ValueError("divisor is not pseudoeffective")
    C = L.effective_generators[flag_curve]
    zp = loop_zariski_decompose(L, D)
    a = dict(zip(zp.support, zp.coefficients)).get(flag_curve, F(0))
    mu = simplex_threshold(L, D, C)
    if a == mu:
        P = loop_zariski_decompose(L, [x - mu * c for x, c in zip(D, C)])
        return hull([(mu, 0), (mu, fraction_pair(L, P.positive, C))])
    pts, t = [(a, 0), (mu, 0)], a
    for _ in range(len(L.negative_curves) + 1):
        t_end, (p0, p1) = fraction_chamber_after(L, D, C, t, mu)
        b0, b1 = fraction_pair(L, p0, C), fraction_pair(L, p1, C)
        pts += [(t, b0 + b1 * t), (t_end, b0 + b1 * t_end)]
        if t_end >= mu:
            return hull(pts)
        t = t_end
    raise S.ConeDataError("chamber sweep did not terminate")


def fraction_numerical_dims(L, D):
    """`numerical_dims_surface` on `Fraction` classes."""
    D = qvec(D)
    if not S.is_psef(L, D):
        raise ValueError("divisor is not pseudoeffective")
    sums = [tuple(sum(col, F(0)) for col in zip(*gens))
            for gens in (L.nef_generators, L.effective_generators) if gens]
    A = next((c for c in sums if S.is_ample(L, c)), None)
    if A is None:
        raise S.ConeDataError("declared cones admit no visible ample class")
    P = loop_zariski_decompose(L, D).positive
    p2 = fraction_pair(L, P, P)
    k = 2 if p2 > 0 else (1 if any(P) else 0)
    _, (p0, p1) = fraction_chamber_after(L, D, tuple(-a for a in A), F(0),
                                         F(1))
    a0, a1 = fraction_pair(L, p0, p0), fraction_pair(L, p0, p1)
    if a0 != p2:
        raise S.ConeDataError("chamber volume at eps=0 contradicts the "
                              "Zariski decomposition")
    if (2 if a0 > 0 else (1 if a1 > 0 else 0)) != k:
        raise S.ConeDataError("volume growth contradicts the Zariski "
                              "classification")
    return {"nu_bdpp": k, "kappa_vol": k}


def fraction_volume(L, D):
    if not S.is_psef(L, D):
        return F(0)
    P = loop_zariski_decompose(L, D).positive
    return fraction_pair(L, P, P)


@st.composite
def flagged_classes(draw):
    L, D = draw(any_classes())
    return L, D, draw(st.integers(0, len(L.effective_generators) - 1))


@settings(max_examples=150, deadline=None)
@given(flagged_classes())
def test_integer_surface_arithmetic_matches_fraction_path(case):
    """Body, numerical dimensions and volume on integer classes equal
    their `Fraction` forms, errors included; `test_zariski_matches_loop`
    and `test_pair_matches_fraction_double_sum` do the same for
    `zariski_decompose` and `pair`."""
    L, D, flag = case
    assert (_outcome(S.okounkov_body_surface, L, D, flag)
            == _outcome(fraction_body, L, D, flag))
    assert (_outcome(S.numerical_dims_surface, L, D)
            == _outcome(fraction_numerical_dims, L, D))
    assert (_outcome(S.volume_surface, L, D)
            == _outcome(fraction_volume, L, D))
