import json
import math
import random
from fractions import Fraction as F
from functools import lru_cache
from operator import mul

import fraction_reference as ref
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from okbodies import kernel
from okbodies import toric as T
from okbodies.cli import main
from okbodies.invariants import ToricBackend
from okbodies.linalg import dot, mat_vec, qvec
from okbodies.polytope import Polytope, hull

P1 = T.projective_line()
P2 = T.projective_plane()
BL = T.blown_up_plane()
F2 = T.hirzebruch(2)
STD_FLAG = T.ToricFlag(0, (0, 1))


def d(X, coeffs):
    return T.ToricDivisor(X, coeffs)


def flag_map(X, flag, D):
    """The flag valuation u -> (<u, v_i> + a_i) as its rows v_i and shifts
    a_i, in the flag's ray order."""
    return ([X.rays[i] for i in flag.ray_order],
            [D.coeffs[i] for i in flag.ray_order])


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

    def test_empty_fan(self):
        with pytest.raises(ValueError, match="no maximal cones"):
            T.ToricVariety(1, ((1,),), ())

    @pytest.mark.parametrize("edit,message", [
        ({"dim": 0}, "toric model needs dimension >= 1"),
        ({"rays": [[1], [0, 1], [-1, -1]]}, "rays[0]: wrong length"),
        ({"max_cones": [[0, 0], [1, 2], [2, 0]]},
         "max_cones[0]: need 2 distinct rays"),
        ({"max_cones": [[0, 1], [1, 7], [2, 0]]},
         "max_cones[1]: ray index out of range"),
    ], ids=["dim-0", "ray-length", "repeated-ray", "ray-index"])
    def test_validate_rejects_model(self, edit, message, tmp_path, capsys):
        path = tmp_path / "model.json"
        path.write_text(json.dumps({**P2.to_obj(), **edit}))
        assert main(["validate", "--model", str(path)]) == 2
        out = capsys.readouterr()
        assert out.out == "" and out.err == f"input error: {path}: {message}\n"

    def test_ray_in_no_maximal_cone(self):
        # the fan of P^2 is complete without the extra ray (1, 1)
        with pytest.raises(ValueError, match=r"rays\[3\]: not in any maximal"):
            T.ToricVariety(2, P2.rays + ((1, 1),), P2.max_cones)

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
        maxsize = T._face.cache_info().maxsize
        assert isinstance(maxsize, int) and maxsize > 0

    def test_predicates_unchanged_when_warm(self):
        cases = [(P2, [0, 0, 3]), (P2, [0, 0, -1]), (P2, [0, 0, 0]),
                 (F2, [1, 1, 0, 0]), (F2, [0, 0, 0, 1]), (BL, [0, 1, 1, 0])]

        def answers():
            backends = [(ToricBackend(X), c) for X, c in cases]
            return [(tb.is_effective(c), tb.is_big(c), tb.kappa(c))
                    for tb, c in backends]

        T._face.cache_clear()
        cold = answers()
        hits = T._face.cache_info().hits
        assert answers() == cold
        assert T._face.cache_info().hits > hits


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
        rows, shift = flag_map(P2, STD_FLAG, D)
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
        assert len(gs[1]) == 3

    def test_zero_divisor(self):
        gs = T.restricted_series(P2, d(P2, [0, 0, 0]), (0,), [1, 2, 3])
        assert all(len(gs[m]) == 1 for m in (1, 2, 3))

    def test_fiber_counts(self):
        fib = T.product_fibration(P1, P1)
        gs = T.restricted_series(fib.total, d(fib.total, [0, 2, 0, 3]), (0,),
                                 range(1, 5))
        assert [len(gs[m]) for m in range(1, 5)] == [4, 7, 10, 13]

    def test_graded_subadditivity(self):
        gs = T.restricted_series(P2, d(P2, [0, 0, 2]), (0,), range(1, 7))
        for m1 in range(1, 3):
            for m2 in range(1, 4):
                sums = {tuple(a + b for a, b in zip(u, v))
                        for u in gs[m1] for v in gs[m2]}
                assert sums <= set(gs[m1 + m2])

    def test_not_a_stratum(self):
        fib = T.product_fibration(P1, P1)
        with pytest.raises(ValueError, match="not a cone"):
            # opposite rays never span a cone of the fan
            T.restricted_series(fib.total, d(fib.total, [0, 1, 0, 1]), (0, 1), [1])

    def test_restriction_image_can_be_smaller_than_shadow(self):
        # on the blown-up plane, sections of H restrict to constants on the
        # exceptional curve: image dimension 1 at every level
        gs = T.restricted_series(BL, d(BL, [0, 0, 1, 0]), (3,), [1, 2, 3])
        assert [len(gs[m]) for m in (1, 2, 3)] == [1, 1, 1]


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
        assert abs(len(gs[40]) / (40 ** v / math.factorial(v)) - rv) < F(1, 10)


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
        fstar = d(fib.total, mat_vec(fib.pullback, DY.coeffs))
        P = T.section_polytope(fib.total, fstar)
        base = T.section_polytope(P1, DY)
        assert P == base.embed(0, 1)

    def test_restrict_vertical_is_zero(self):
        fib = T.product_fibration(P1, P1)
        fstar = mat_vec(fib.pullback, [1, 2])
        assert all(c == 0 for c in mat_vec(fib.restriction, fstar))

    def test_maps_are_coordinate_maps(self):
        # P2 x P1: base rays 0-2, fiber rays 3-4
        fib = T.product_fibration(P2, P1)
        assert mat_vec(fib.pullback, [1, 2, 3]) == (1, 2, 3, 0, 0)
        assert mat_vec(fib.restriction, [1, 2, 3, 4, 5]) == (4, 5)


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
        rows, shift = flag_map(X, flag, D)
        for m in range(1, 11):
            pts = T.sections(X, D, m)
            vals = {tuple(sum(r[c] * u[c] for c in range(X.dim))
                          for r in rows) for u in pts}
            assert len(vals) == len(pts)

    def test_bruteforce_hulls_integer_valuations(self, monkeypatch):
        X, coeffs, flag = FIXTURE_BODIES[-1]
        D = d(X, coeffs)
        rows, shift = flag_map(X, flag, D)
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
            scaled = T.okounkov_body_toric(
                P2, d(P2, [c * a for a in D.coeffs]), STD_FLAG)
            assert scaled == body.scale(c)


def _product(*factors):
    X = factors[0]
    for Y in factors[1:]:
        X = T.product_fibration(X, Y).total
    return X


# Toric 4-folds with the all-ones divisor.  On a product the volume is the
# multinomial coefficient times the factors' volumes: 2 on P^1 and 9 on P^2.
FOURFOLDS = [
    pytest.param(_product(P1, P1, P1, P1), 384, id="P1^4"),  # 24 * 2^4
    pytest.param(_product(P2, P2), 486, id="P2xP2"),  # 6 * 9 * 9
    pytest.param(_product(P2, P1, P1), 432, id="P2xP1xP1"),  # 12 * 9 * 2 * 2
]


@pytest.mark.parametrize("X,vol", FOURFOLDS)
def test_fourfold_volume_and_bruteforce_bodies(X, vol):
    D = d(X, [1] * len(X.rays))
    flag = T.ToricFlag(0, X.max_cones[0])
    assert ToricBackend(X).volume(D.coeffs) == vol
    body = T.okounkov_body_toric(X, D, flag)
    assert body.dim() == 4
    assert math.factorial(4) * body.volume_in_dim(4) == vol
    for m in (1, 2, 3):
        brute = T.okounkov_body_bruteforce(X, D, flag, m)
        assert body.contains(brute) == (True, 0)


# -- the brute-force body against its section-by-section form -----------------

BRUTEFORCE_MODELS = (P1, P2, BL, T.hirzebruch(1), F2, T.hirzebruch(3),
                     _product(P1, P1), P2xP1, P1x3, _product(BL, P1))


def bruteforce_reference(X, D, flag, m):
    """okounkov_body_bruteforce as it was before it hulled the exponents
    first: `lattice_hull` of every level-m valuation vector over m."""
    pts = T.sections(X, D, m)
    if not pts:
        raise ValueError("divisor has no sections")
    macoeffs = T._integral_multiple(D, m)
    rows = [X.rays[i] for i in flag.ray_order]
    shift = [macoeffs[i] for i in flag.ray_order]
    return Polytope.lattice_hull(
        [tuple(sum(map(mul, r, u)) + s for r, s in zip(rows, shift))
         for u in pts], m)


def test_bruteforce_matches_valuation_hull_reference():
    """Seeded cases on ten models: coefficients a / q with a in [-3, 4]
    and q in 1..3, any maximal cone and ray order, and a level that is a
    multiple of q (up to 4q on curves and surfaces, 2q on threefolds).
    The bodies are equal, and "no sections" is raised on the same cases."""
    rng = random.Random(2021)
    empty = 0
    for _ in range(1000):
        X = rng.choice(BRUTEFORCE_MODELS)
        q = rng.randint(1, 3)
        D = d(X, [F(rng.randint(-3, 4), q) for _ in X.rays])
        cone = rng.randrange(len(X.max_cones))
        flag = T.ToricFlag(cone, tuple(rng.sample(X.max_cones[cone], X.dim)))
        m = q * rng.randint(1, 4 if X.dim < 3 else 2)
        try:
            expected = bruteforce_reference(X, D, flag, m)
        except ValueError as exc:
            empty += 1
            with pytest.raises(ValueError, match=str(exc)):
                T.okounkov_body_bruteforce(X, D, flag, m)
            continue
        assert (T.okounkov_body_bruteforce(X, D, flag, m)
                == expected), (X.rays, D.coeffs, flag, m)
    assert 0 < empty < 1000


@pytest.mark.parametrize("m", [0, -1])
@pytest.mark.parametrize("coeffs", [[0, 0, 2], [0, 0, -1]],
                         ids=["sections", "no-sections"])
def test_level_below_one_is_rejected(m, coeffs):
    """Every level-m enumeration rejects m < 1 before it looks for
    sections, so a divisor without sections gives the same error."""
    D = d(P2, coeffs)
    flag = T.ToricFlag(0, P2.max_cones[0])
    for call in (lambda: T.sections(P2, D, m),
                 lambda: T.restricted_series(P2, D, (0,), [1, m]),
                 lambda: T.okounkov_body_bruteforce(P2, D, flag, m)):
        with pytest.raises(ValueError, match="level must be >= 1"):
            call()


class TestPredicates:
    def test_ample_nef(self):
        assert T.is_ample(P2, d(P2, [0, 0, 1]))
        assert not T.is_ample(BL, d(BL, [0, 0, 1, 0]))  # H: nef, not ample
        assert not T.is_ample(F2, d(F2, [1, 1, 1, 1]))

    def test_kappa(self):
        tb = ToricBackend(P2)
        assert tb.kappa([0, 0, 2]) == 2
        assert tb.kappa([0, 0, 0]) == 0
        assert tb.kappa([0, 0, -1]) == T.NEG_INF

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


# -- restricted series and Nakayama verdicts against the section filter --------


def filtered_series(X, D, stratum, levels):
    """restricted_series as it was before it enumerated only the face:
    every section of mD in the box of m * section_polytope, kept when it
    lies on the stratum's face."""
    stratum, rest = T._stratum_frame(X, stratum)
    P = T.section_polytope(X, D)
    out = {}
    for m in levels:
        offsets = [-a for a in T._integral_multiple(D, m)]
        pts = []
        if not P.is_empty:
            cols = list(zip(*P.vertices))
            lo = [math.ceil(m * min(col)) for col in cols]
            hi = [math.floor(m * max(col)) for col in cols]
            pts = kernel.lattice_points(X.rays, offsets, lo, hi)
        face = [u for u in pts
                if all(sum(X.rays[i][c] * u[c] for c in range(X.dim)) == offsets[i]
                       for i in stratum)]
        out[m] = tuple(sorted({tuple(sum(X.rays[j][c] * u[c] for c in range(X.dim))
                                     for j in rest) for u in face}))
    return out


def fraction_nakayama(X, D, stratum):
    """nakayama_verdict as it was before it compared vertex sets: a
    vertex of P is off the face when a `Fraction` dot product says so."""
    stratum, _rest = T._stratum_frame(X, stratum)
    P = T.section_polytope(X, D)
    if X.dim - len(stratum) != P.dim():
        return "false", None
    off_face = [v for v in P.vertices
                if any(dot(qvec(X.rays[i]), v) != -D.coeffs[i] for i in stratum)]
    if not off_face:
        return "certified", None
    den = math.lcm(*(a.denominator for a in D.coeffs))
    return "false", min(math.lcm(den, *(c.denominator for c in v))
                        for v in off_face)


SERIES_MODELS = (P2, BL, T.hirzebruch(1), F2, T.hirzebruch(3), P2xP1, P1x3)
# numerators over a drawn denominator q <= 3, zero often, so that faces
# along strata are often nonempty and divisors often not big
NUMERATORS = st.one_of(st.just(0), st.integers(-1, 3))


@lru_cache(maxsize=None)
def numerator_tuples(n):
    return st.tuples(*[NUMERATORS] * n)


@st.composite
def series_cases(draw):
    """(model, D, stratum, levels): D has coefficients in [-1, 3] / q, the
    levels are q and 2q, and the stratum is a prefix, possibly () or the
    whole cone, of a permuted maximal cone."""
    X = draw(st.sampled_from(SERIES_MODELS))
    q = draw(st.integers(1, 3))
    D = d(X, [F(a, q) for a in draw(numerator_tuples(len(X.rays)))])
    cone = draw(st.permutations(draw(st.sampled_from(X.max_cones))))
    stratum = tuple(cone[:draw(st.integers(0, X.dim))])
    return X, D, stratum, (q, 2 * q)


@settings(max_examples=300, deadline=None)
@given(series_cases())
def test_face_enumeration_matches_section_filter(case):
    X, D, stratum, levels = case
    series = T.restricted_series(X, D, stratum, levels)
    assert series == filtered_series(X, D, stratum, levels)
    assert T.nakayama_verdict(X, D, stratum) == fraction_nakayama(X, D, stratum)


# -- the integer class arithmetic against the Fraction path -------------------

# each coefficient over its own denominator, so that D's denominator is
# often not the section polytope's
COEFFS = st.builds(F, st.integers(-2, 4), st.integers(1, 4))


@lru_cache(maxsize=None)
def coefficient_tuples(n):
    return st.tuples(*[COEFFS] * n)


@st.composite
def flagged_divisors(draw):
    """(model, D, flag): coefficients in [-2, 4] over denominators <= 4, a
    drawn maximal cone and a drawn order of its rays."""
    X = draw(st.sampled_from(SERIES_MODELS))
    D = d(X, draw(coefficient_tuples(len(X.rays))))
    cone = draw(st.integers(0, len(X.max_cones) - 1))
    return X, D, T.ToricFlag(cone, tuple(draw(st.permutations(
        X.max_cones[cone]))))


def fraction_is_ample(X, D):
    """Strict convexity with each cone vertex from the `Fraction` solve."""
    for cone in X.max_cones:
        u = ref.solve([X.rays[i] for i in cone], [-D.coeffs[i] for i in cone])
        if any(dot(u, ray) + D.coeffs[j] <= 0
               for j, ray in enumerate(X.rays) if j not in cone):
            return False
    return True


def fraction_restricted_volume(X, D, stratum):
    """v! vol of the face's `Fraction` vertices mapped to the stratum."""
    _stratum, rest = T._stratum_frame(X, stratum)
    face, v = T._face(X, D, tuple(stratum)), X.dim - len(stratum)
    if face.is_empty:
        return F(0)
    if v == 0:
        return F(1)
    image = hull([tuple(dot(u, X.rays[j]) for j in rest)
                  for u in face.vertices])
    return math.factorial(v) * image.volume_in_dim(v)


@settings(max_examples=120, deadline=None)
@given(flagged_divisors())
# a third on the exceptional ray, which bounds no facet: D's denominator 3
# is not the section polytope's 1
@example((BL, d(BL, [0, 0, 1, F(1, 3)]), T.ToricFlag(0, (3, 0))))
def test_integer_toric_arithmetic_matches_fraction_path(case):
    """The body is the hull of the `flag_valuation` images of the section
    polytope's vertices; ampleness and the restricted volumes along the
    flag's strata agree with their `Fraction` forms."""
    X, D, flag = case
    assert T.is_ample(X, D) == fraction_is_ample(X, D)
    for k in range(X.dim + 1):
        stratum = flag.ray_order[:k]
        assert (T.restricted_volume_toric(X, D, stratum)
                == fraction_restricted_volume(X, D, stratum))
    P = T.section_polytope(X, D)
    if P.is_empty:
        with pytest.raises(ValueError, match="no sections"):
            T.okounkov_body_toric(X, D, flag)
        return
    assert T.okounkov_body_toric(X, D, flag) == hull(
        [T.flag_valuation(X, flag, v, D) for v in P.vertices])
