import math
from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okbodies import toric as T
from okbodies.polytope import Polytope, hull

P1 = T.projective_line()
P2 = T.projective_plane()
BL = T.blown_up_plane()
F2 = T.hirzebruch(2)
STD_FLAG = T.ToricFlag(0, (0, 1))


def d(X, coeffs):
    return T.divisor(X, coeffs)


class TestValidation:
    def test_non_primitive_ray(self):
        with pytest.raises(ValueError, match="primitive"):
            T.ToricVariety(1, ((2,), (-1,)), ((0,), (1,)))

    def test_duplicate_ray(self):
        with pytest.raises(ValueError, match="duplicate"):
            T.ToricVariety(1, ((1,), (1,)), ((0,), (1,)))

    def test_non_unimodular_cone(self):
        with pytest.raises(ValueError, match="unimodular"):
            T.ToricVariety(2, ((1, 0), (1, 2), (-1, -1)),
                           ((0, 1), (1, 2), (2, 0)))

    def test_incomplete_fan(self):
        with pytest.raises(ValueError, match="complete"):
            T.ToricVariety(2, ((1, 0), (0, 1), (-1, -1)), ((0, 1), (1, 2)))

    def test_divisor_accepts_any_exact_sequence(self):
        # lists used to reach the memoized section polytope unhashed
        listed = T.ToricDivisor(P2, [0, 0, 1])
        tupled = T.ToricDivisor(P2, (0, 0, 1))
        assert listed == tupled == d(P2, [0, 0, 1])
        assert listed.coeffs == (F(0), F(0), F(1))
        assert T.sections(P2, listed, 2) == T.sections(P2, tupled, 2)
        assert (T.okounkov_body_toric(P2, listed, STD_FLAG)
                == T.okounkov_body_toric(P2, tupled, STD_FLAG))
        assert (T.okounkov_body_bruteforce(P2, listed, STD_FLAG, 3)
                == T.okounkov_body_bruteforce(P2, tupled, STD_FLAG, 3))
        with pytest.raises(TypeError, match="floats"):
            T.ToricDivisor(P2, [0.0, 0, 1])

    def test_coefficient_count(self):
        with pytest.raises(ValueError):
            T.ToricDivisor(P2, (F(1),))

    def test_flag_validation(self):
        with pytest.raises(ValueError):
            T.ToricFlag(0, (0, 2)).validate(P2)


class TestSectionPolytope:
    def test_plane_simplex(self):
        P = T.section_polytope(P2, d(P2, [0, 0, 3]))
        assert P == hull([(0, 0), (3, 0), (0, 3)])

    def test_product_rectangle(self):
        fib = T.product_fibration(P1, P1)
        P = T.section_polytope(fib.total, d(fib.total, [0, 2, 0, 3]))
        assert P == hull([(0, 0), (2, 0), (0, 3), (2, 3)])

    def test_zero_divisor(self):
        assert T.section_polytope(P2, d(P2, [0, 0, 0])) == hull([(0, 0)])

    def test_empty_for_antieffective(self):
        P = T.section_polytope(P2, d(P2, [0, 0, -1]))
        assert P.is_empty

    def test_nonlattice_vertex_on_hirzebruch(self):
        P = T.section_polytope(F2, d(F2, [1, 1, 0, 0]))
        assert any(any(c.denominator > 1 for c in v) for v in P.vertices)


class TestSectionPolytopeMemo:
    def test_equal_inputs_share_one_polytope(self):
        X1, X2 = T.projective_plane(), T.projective_plane()
        D1 = d(X1, [0, 0, 3])
        D2 = T.ToricDivisor(X2, (F(0), F(0), F(3)))
        assert X1 is not X2 and D1 is not D2
        assert T.section_polytope(X1, D1) is T.section_polytope(X2, D2)

    def test_different_coefficients_differ(self):
        assert (T.section_polytope(P2, d(P2, [0, 0, 3]))
                != T.section_polytope(P2, d(P2, [0, 0, 4])))

    def test_cache_is_bounded(self):
        maxsize = T.section_polytope.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0

    def test_predicates_unchanged_when_warm(self):
        cases = [(P2, [0, 0, 3]), (P2, [0, 0, -1]), (P2, [0, 0, 0]),
                 (F2, [1, 1, 0, 0]), (F2, [0, 0, 0, 1]), (BL, [0, 1, 1, 0])]

        def answers():
            return [(T.is_effective(X, d(X, c)), T.is_big(X, d(X, c)),
                     T.kappa(X, d(X, c))) for X, c in cases]

        T.section_polytope.cache_clear()
        cold = answers()
        hits = T.section_polytope.cache_info().hits
        assert answers() == cold
        assert T.section_polytope.cache_info().hits > hits


class TestSections:
    def test_plane_count(self):
        pts = T.sections(P2, d(P2, [0, 0, 1]), 2)
        assert len(pts) == 6  # h^0(O(2)) = C(4,2)

    def test_zero(self):
        assert T.sections(P2, d(P2, [0, 0, 0]), 7) == [(0, 0)]

    def test_rectangle(self):
        fib = T.product_fibration(P1, P1)
        pts = T.sections(fib.total, d(fib.total, [0, 1, 0, 1]), 3)
        assert len(pts) == 16  # (3+1)^2

    def test_non_integral_multiple(self):
        with pytest.raises(ValueError, match="non-integral multiple"):
            T.sections(P2, d(P2, [0, 0, F(1, 2)]), 3)

    def test_lex_order(self):
        pts = T.sections(P2, d(P2, [0, 0, 2]), 1)
        assert pts == sorted(pts)


class TestFlagValuation:
    def test_simplex_image(self):
        D = d(P2, [0, 0, 2])
        vals = {T.flag_valuation(P2, STD_FLAG, u, D)
                for u in T.sections(P2, D, 1)}
        expected = {(F(i), F(j)) for i in range(3) for j in range(3 - i)}
        assert vals == expected

    def test_fixed_point_vertex_is_zero(self):
        D = d(P2, [0, 0, 2])
        assert T.flag_valuation(P2, STD_FLAG, (0, 0), D) == (0, 0)

    def test_zero_divisor(self):
        assert T.flag_valuation(P2, STD_FLAG, (0, 0), d(P2, [0, 0, 0])) == (0, 0)

    def test_outside_errors(self):
        with pytest.raises(ValueError, match="outside"):
            T.flag_valuation(P2, STD_FLAG, (5, 5), d(P2, [0, 0, 2]))

    def test_additivity_of_monomial_valuations(self):
        # values of s*t sections add, exhaustively through level 5
        D = d(P2, [0, 0, 1])
        rows, shift = T._flag_affine_map(P2, STD_FLAG, D)
        for m1 in range(1, 3):
            for m2 in range(1, 6 - m1):
                for u1 in T.sections(P2, D, m1):
                    for u2 in T.sections(P2, D, m2):
                        s = tuple(a + b for a, b in zip(u1, u2))
                        v1 = T.flag_valuation(P2, STD_FLAG,
                                              [F(c, m1) for c in u1], D)
                        v2 = T.flag_valuation(P2, STD_FLAG,
                                              [F(c, m2) for c in u2], D)
                        vs = T.flag_valuation(P2, STD_FLAG,
                                              [F(c, m1 + m2) for c in s], D)
                        for a, b, c_ in zip(v1, v2, vs):
                            assert (m1 * a + m2 * b) == (m1 + m2) * c_


class TestBodies:
    def test_plane_body(self):
        body = T.okounkov_body_toric(P2, d(P2, [0, 0, 3]), STD_FLAG)
        assert body == hull([(0, 0), (3, 0), (0, 3)])
        assert body.volume_in_dim(2) == F(9, 2)

    def test_product_body(self):
        fib = T.product_fibration(P1, P1)
        flag = T.product_flag(fib, T.ToricFlag(0, (0,)), T.ToricFlag(0, (0,)))
        body = T.okounkov_body_toric(fib.total, d(fib.total, [0, 2, 0, 3]), flag)
        assert body == hull([(0, 0), (2, 0), (0, 3), (2, 3)])

    def test_zero_divisor_body(self):
        body = T.okounkov_body_toric(P2, d(P2, [0, 0, 0]), STD_FLAG)
        assert body == hull([(0, 0)])

    def test_no_sections_errors(self):
        with pytest.raises(ValueError, match="no sections"):
            T.okounkov_body_toric(P2, d(P2, [0, 0, -1]), STD_FLAG)

    def test_bruteforce_m1_plane_degree1(self):
        D = d(P2, [0, 0, 1])
        exact = T.okounkov_body_toric(P2, D, STD_FLAG)
        assert T.okounkov_body_bruteforce(P2, D, STD_FLAG, 1) == exact

    def test_bruteforce_single_section(self):
        body = T.okounkov_body_bruteforce(P2, d(P2, [0, 0, 0]), STD_FLAG, 4)
        assert len(body.vertices) == 1

    def test_bruteforce_converges_on_hirzebruch(self):
        # non-lattice section polytope: strictly smaller at m=1, equal at m=2
        D = d(F2, [1, 1, 0, 0])
        flag = T.ToricFlag(0, (0, 1))
        exact = T.okounkov_body_toric(F2, D, flag)
        b1 = T.okounkov_body_bruteforce(F2, D, flag, 1)
        b2 = T.okounkov_body_bruteforce(F2, D, flag, 2)
        assert exact.contains(b1) == (True, 0) and b1 != exact
        assert b2 == exact


class TestRestriction:
    def test_plane_to_line(self):
        gs = T.restricted_series(P2, d(P2, [0, 0, 2]), (0,), [1])
        assert gs.dimension(1) == 3

    def test_zero_divisor(self):
        gs = T.restricted_series(P2, d(P2, [0, 0, 0]), (0,), [1, 2, 3])
        assert all(gs.dimension(m) == 1 for m in (1, 2, 3))

    def test_fiber_counts(self):
        fib = T.product_fibration(P1, P1)
        gs = T.restricted_series(fib.total, d(fib.total, [0, 2, 0, 3]), (0,),
                                 range(1, 5))
        assert [gs.dimension(m) for m in range(1, 5)] == [4, 7, 10, 13]

    def test_graded_subadditivity(self):
        gs = T.restricted_series(P2, d(P2, [0, 0, 2]), (0,), range(1, 7))
        for m1 in range(1, 3):
            for m2 in range(1, 4):
                sums = {tuple(a + b for a, b in zip(u, v))
                        for u in gs.levels[m1] for v in gs.levels[m2]}
                assert sums <= set(gs.levels[m1 + m2])

    def test_not_a_stratum(self):
        fib = T.product_fibration(P1, P1)
        with pytest.raises(ValueError, match="not a cone"):
            # opposite rays never span a cone of the fan
            T.restricted_series(fib.total, d(fib.total, [0, 1, 0, 1]), (0, 1), [1])

    def test_restriction_image_can_be_smaller_than_shadow(self):
        # on the blown-up plane, sections of H restrict to constants on the
        # exceptional curve: image dimension 1 at every level
        gs = T.restricted_series(BL, d(BL, [0, 0, 1, 0]), (3,), [1, 2, 3])
        assert [gs.dimension(m) for m in (1, 2, 3)] == [1, 1, 1]


class TestRestrictedVolume:
    def test_fiber(self):
        fib = T.product_fibration(P1, P1)
        D = d(fib.total, [0, 2, 0, 3])
        assert T.restricted_volume_toric(fib.total, D, (0,)) == 3

    def test_whole_space(self):
        fib = T.product_fibration(P1, P1)
        D = d(fib.total, [0, 2, 0, 3])
        assert T.restricted_volume_toric(fib.total, D, ()) == 12  # 2ab

    def test_zero(self):
        assert T.restricted_volume_toric(P2, d(P2, [0, 0, 0]), (0,)) == 0

    def test_matches_series_growth(self):
        D = d(P2, [0, 0, 2])
        rv = T.restricted_volume_toric(P2, D, (0,))
        gs = T.restricted_series(P2, D, (0,), [40])
        v = 1
        assert abs(gs.dimension(40) / (40 ** v / math.factorial(v)) - rv) < F(1, 10)


class TestProductFibration:
    def test_line_line(self):
        fib = T.product_fibration(P1, P1)
        assert fib.total.dim == 2 and len(fib.total.rays) == 4

    def test_plane_line(self):
        fib = T.product_fibration(P2, P1)
        assert fib.total.dim == 3 and len(fib.total.max_cones) == 6

    def test_pullback_polytope(self):
        fib = T.product_fibration(P1, P1)
        DY = d(P1, [0, 2])
        fstar = fib.pullback(DY)
        P = T.section_polytope(fib.total, fstar)
        base = T.section_polytope(P1, DY)
        assert P == base.embed(0, 1)

    def test_restrict_vertical_is_zero(self):
        fib = T.product_fibration(P1, P1)
        fstar = fib.pullback(d(P1, [1, 2]))
        assert all(c == 0 for c in fib.restrict_to_fiber(fstar).coeffs)


def _flag_for(X, rays):
    cone = next(i for i, c in enumerate(X.max_cones) if set(c) == set(rays))
    return T.ToricFlag(cone, tuple(rays))


P2xP1 = T.product_fibration(P2, P1).total
P1x3 = T.product_fibration(T.product_fibration(P1, P1).total, P1).total

FIXTURE_BODIES = [
    (P2, [0, 0, 1], T.ToricFlag(0, (0, 1))),
    (P2, [0, 0, 2], T.ToricFlag(0, (0, 1))),
    (P2, [0, 0, 3], T.ToricFlag(1, (2, 1))),
    (BL, [0, 0, 2, 1], T.ToricFlag(0, (3, 0))),
    (BL, [0, 0, 1, 1], T.ToricFlag(0, (3, 0))),
    (F2, [1, 1, 1, 1], T.ToricFlag(0, (0, 1))),
    (P2xP1, [0, 0, 1, 0, 1], _flag_for(P2xP1, (0, 1, 3))),
    (P1x3, [0, 1, 0, 2, 0, 1], _flag_for(P1x3, (0, 2, 4))),
]


class TestInvariants:
    @pytest.mark.parametrize("X,coeffs,flag", FIXTURE_BODIES)
    def test_bruteforce_contained_all_levels(self, X, coeffs, flag):
        D = d(X, coeffs)
        exact = T.okounkov_body_toric(X, D, flag)
        for m in range(1, 21):
            brute = T.okounkov_body_bruteforce(X, D, flag, m)
            assert exact.contains(brute) == (True, 0)

    @pytest.mark.parametrize("X,coeffs,flag", FIXTURE_BODIES)
    def test_volume_identity(self, X, coeffs, flag):
        D = d(X, coeffs)
        body = T.okounkov_body_toric(X, D, flag)
        n = X.dim
        P = T.section_polytope(X, D)
        assert (math.factorial(n) * body.volume_in_dim(n)
                == T.restricted_volume_toric(X, D, ()))
        assert body.volume_in_dim(n) == P.volume_in_dim(n)

    @pytest.mark.parametrize("X,coeffs,flag", FIXTURE_BODIES[:4])
    def test_valuation_injective_per_level(self, X, coeffs, flag):
        D = d(X, coeffs)
        rows, shift = T._flag_affine_map(X, flag, D)
        for m in range(1, 11):
            pts = T.sections(X, D, m)
            vals = {tuple(sum(r[c] * u[c] for c in range(X.dim))
                          for r in rows) for u in pts}
            assert len(vals) == len(pts)

    def test_bruteforce_hulls_integer_valuations(self, monkeypatch):
        X, coeffs, flag = FIXTURE_BODIES[-1]
        D = d(X, coeffs)
        rows, shift = T._flag_affine_map(X, flag, D)
        vals = [tuple(sum(r[c] * u[c] for c in range(X.dim)) + 3 * s
                      for r, s in zip(rows, shift)) for u in T.sections(X, D, 3)]
        expected = hull(vals).scale(F(1, 3))

        def forbidden(*args):
            raise AssertionError("rational hull or dilation on the oracle path")

        # the memoized section polytope is the one hull the oracle needs
        T.section_polytope(X, D)
        monkeypatch.setattr(Polytope, "hull", staticmethod(forbidden))
        monkeypatch.setattr(Polytope, "scale", forbidden)
        body = T.okounkov_body_bruteforce(X, D, flag, 3)
        assert body == expected and body.dim() == 3

    def test_flag_independence_of_volume(self):
        D = d(BL, [0, 0, 2, 1])
        flags = [T.ToricFlag(0, (3, 0)), T.ToricFlag(2, (1, 2)),
                 T.ToricFlag(1, (3, 1)), T.ToricFlag(3, (2, 0))]
        vols = {T.okounkov_body_toric(BL, D, f).volume_in_dim(2)
                for f in flags}
        assert len(vols) == 1

    def test_homogeneity(self):
        D = d(P2, [0, 0, 1])
        body = T.okounkov_body_toric(P2, D, STD_FLAG)
        for c in (2, 3, F(1, 2)):
            scaled = T.okounkov_body_toric(P2, D.scaled(c), STD_FLAG)
            assert scaled == body.scale(c)


class TestPredicates:
    def test_ample_nef(self):
        assert T.is_ample(P2, d(P2, [0, 0, 1]))
        assert not T.is_ample(BL, d(BL, [0, 0, 1, 0]))  # H: nef, not ample
        assert T.is_nef(BL, d(BL, [0, 0, 1, 0]))
        assert T.is_nef(F2, d(F2, [1, 1, 1, 1]))
        assert not T.is_ample(F2, d(F2, [1, 1, 1, 1]))

    def test_kappa(self):
        assert T.kappa(P2, d(P2, [0, 0, 2])) == 2
        assert T.kappa(P2, d(P2, [0, 0, 0])) == 0
        assert T.kappa(P2, d(P2, [0, 0, -1])) == T.NEG_INF

    def test_nakayama(self):
        fib = T.product_fibration(P1, P1)
        Dv = d(fib.total, [0, 2, 0, 0])
        assert T.nakayama_verdict(fib.total, Dv, (2,))[0] == "certified"
        assert T.nakayama_verdict(fib.total, Dv, (0,))[0] == "false"
        assert T.nakayama_verdict(P2, d(P2, [0, 0, 2]), ())[0] == "certified"

    def test_nakayama_bounded_level(self):
        # a half-integral vertical class only has integral multiples at
        # even levels; at level 2 the off-face lattice point refutes
        # injectivity
        fib = T.product_fibration(P1, P1)
        Dh = d(fib.total, [0, F(1, 2), 0, 0])
        assert T.nakayama_verdict(fib.total, Dh, (0,)) == ("false", 2)

    def test_nakayama_witness_beyond_level_ten(self):
        # D_3 / 11 has integral multiples only at levels divisible by 11;
        # at level 11 the section with exponent (0, 1) is off the face
        # <u, (0, 1)> = 0, so restriction is not injective
        X = T.product_fibration(P1, P1).total
        D = d(X, [0, 0, 0, F(1, 11)])
        assert T.nakayama_verdict(X, D, (2,)) == ("false", 11)
        assert (0, 1) in T.sections(X, D, 11)


# -- Nakayama verdicts against section enumeration ------------------------------

NAKAYAMA_MODELS = (P2, T.product_fibration(P1, P1).total, T.hirzebruch(1),
                   F2, T.hirzebruch(3), BL)


@st.composite
def nakayama_cases(draw):
    """(model, q, D): a model among P^2, P^1 x P^1, F_1, F_2, F_3 and
    Bl P^2, and a Q-divisor with coefficients in [-1/2, 1] over one common
    denominator q <= 13.  Zero coefficients are drawn often, so that
    divisors that are not big, whose verdicts need a witness, are common."""
    X = draw(st.sampled_from(NAKAYAMA_MODELS))
    q = draw(st.integers(1, 13))
    coeff = st.one_of(st.just(0), st.integers(-(q // 2), q))
    nums = draw(st.lists(coeff, min_size=len(X.rays), max_size=len(X.rays)))
    return X, q, d(X, [F(a, q) for a in nums])


@settings(max_examples=200, deadline=None)
@given(nakayama_cases())
def test_nakayama_verdict_matches_sections(case):
    """On every stratum: a witness level holds a section off the stratum's
    face, and a certified verdict has none at any integral level <= 2q."""
    X, q, D = case
    levels = [m for m in range(1, 2 * q + 1)
              if all((m * a).denominator == 1 for a in D.coeffs)]
    found = {}

    def off_face(m, stratum):
        if m not in found:
            found[m] = T.sections(X, D, m)
        return any(sum(r * x for r, x in zip(X.rays[i], u)) != -m * D.coeffs[i]
                   for u in found[m] for i in stratum)

    strata = [()] + [(i,) for i in range(len(X.rays))] + list(X.max_cones)
    for stratum in strata:
        verdict, m = T.nakayama_verdict(X, D, stratum)
        if verdict == "certified":
            assert not any(off_face(level, stratum) for level in levels)
        elif m is not None:
            assert verdict == "false" and off_face(m, stratum)
