from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okbodies import fiberspace as FS
from okbodies import fixtures as FX
from okbodies import polytope
from okbodies import toric as T
from okbodies.polytope import Polytope, hull

INSTANCES = {name: builder() for name, builder in FX.ALL_INSTANCES.items()}


class TestInstanceValidation:
    def test_decomposition_identity_enforced(self):
        fs = FX.g2xg2()
        with pytest.raises(ValueError, match="class group"):
            FS.FiberSpaceInstance(
                name="broken", base=fs.base, fiber=fs.fiber, total=fs.total,
                pullback=fs.pullback, restriction=fs.restriction,
                D=(3, 3), D_Y=fs.D_Y, R=fs.R,
                hypotheses=fs.hypotheses, flag=fs.flag,
                total_flag=fs.total_flag)

    def test_toric_principal_difference_allowed(self):
        # shifting D by a principal class keeps the identity in the class group
        fs = FX.prod_line_line()
        shifted = tuple(d + s for d, s in zip(fs.D, (1, -1, 0, 0)))
        FS.FiberSpaceInstance(
            name="shifted", base=fs.base, fiber=fs.fiber, total=fs.total,
            pullback=fs.pullback, restriction=fs.restriction,
            D=shifted, D_Y=fs.D_Y, R=fs.R,
            hypotheses=fs.hypotheses, flag=fs.flag, total_flag=fs.total_flag,
            ample=fs.ample)

    def test_restriction_pullback_vanishes(self):
        fs = FX.ex41()
        bad_restriction = ((F(1), F(1)),)  # does not kill the fiber class
        with pytest.raises(ValueError, match="vanish"):
            FS.FiberSpaceInstance(
                name="bad", base=fs.base, fiber=fs.fiber, total=fs.total,
                pullback=fs.pullback, restriction=bad_restriction,
                D=fs.D, D_Y=fs.D_Y, R=fs.R,
                hypotheses=fs.hypotheses, flag=fs.flag,
                total_flag=fs.total_flag)

    def test_flag_curve_must_be_fiber_class(self):
        fs = FX.ex42()
        with pytest.raises(ValueError, match="fiber class"):
            FS.FiberSpaceInstance(
                name="bad", base=fs.base, fiber=fs.fiber, total=fs.total,
                pullback=fs.pullback, restriction=fs.restriction,
                D=fs.D, D_Y=fs.D_Y, R=fs.R,
                hypotheses=fs.hypotheses, flag=fs.flag, total_flag=0)


class TestFiberTypeFlag:
    def test_composite_valuations_concatenate(self):
        fs = INSTANCES["prod_line_line"]
        # the pullback of a base section has zero fiber coordinates
        for m in range(1, 6):
            DY = T.divisor(fs.base, [F(c) * m for c in fs.D_Y])
            fstar = T.divisor(fs.total, list(DY.coeffs) + [F(0), F(0)])
            for u in T.sections(fs.base, T.divisor(fs.base, fs.D_Y), m):
                val = T.flag_valuation(
                    fs.total, fs.total_flag, (F(u[0], m), F(0)),
                    T.divisor(fs.total, fs.D_Y + (F(0), F(0))))
                assert val[1] == 0

    def test_fiber_constant_sections_have_zero_base_coordinates(self):
        fs = INSTANCES["prod_line_line"]
        R = T.divisor(fs.total, fs.R)
        for m in range(1, 6):
            for u in T.sections(fs.total, R, m):
                if u[0] != 0:
                    continue
                val = T.flag_valuation(fs.total, fs.total_flag,
                                       (F(0), F(u[1], m)), R)
                assert val[0] == 0


EXPECTED = {
    # instance -> check -> verdict
    "prod_line_line": {"thm1_3": FS.STRICT, "cor3_5": FS.HOLDS,
                       "lemma3_1": FS.HOLDS, "rem3_6": FS.HOLDS,
                       "thm1_1": FS.GATED, "thm1_2": FS.GATED},
    "prod_line_line_rf0": {"thm1_3": FS.STRICT, "cor3_5": FS.HOLDS,
                           "lemma3_1": FS.HOLDS, "rem3_6": FS.HOLDS},
    "prod_plane_line": {"thm1_3": FS.STRICT, "cor3_5": FS.STRICT,
                        "lemma3_1": FS.HOLDS, "rem3_6": FS.HOLDS},
    "ex42_toric_surrogate": {"thm1_3": FS.STRICT, "cor3_5": FS.GATED,
                             "lemma3_1": FS.GATED, "rem3_6": FS.HOLDS},
    "g2xg2": {"thm1_1": FS.HOLDS, "thm1_2": FS.HOLDS, "thm1_3": FS.STRICT,
              "cor3_5": FS.HOLDS, "rem3_6": FS.HOLDS},
    "g2xell": {"thm1_1": FS.HOLDS, "thm1_2": FS.HOLDS, "thm1_3": FS.STRICT,
               "cor3_5": FS.HOLDS, "rem3_6": FS.HOLDS},
    "ellxg2": {"thm1_1": FS.HOLDS, "thm1_2": FS.GATED, "thm1_3": FS.STRICT,
               "cor3_5": FS.GATED, "rem3_6": FS.HOLDS},
    "ellxell": {"thm1_1": FS.HOLDS, "thm1_2": FS.GATED, "thm1_3": FS.GATED,
                "rem3_6": FS.HOLDS},
    "ex41": {"thm1_1": FS.STRICT, "thm1_2": FS.GATED, "thm1_3": FS.STRICT,
             "rem3_6": FS.HOLDS},
    "ex42": {"thm1_1": FS.HOLDS, "thm1_2": FS.GATED, "thm1_3": FS.STRICT,
             "rem3_6": FS.HOLDS},
}


class TestVerdicts:
    @pytest.mark.parametrize("name,check,expected", [
        (n, c, v) for n, checks in EXPECTED.items() for c, v in checks.items()])
    def test_expected_verdict(self, name, check, expected):
        fs = INSTANCES[name]
        if check == "lemma3_1" and not isinstance(fs.total, T.ToricVariety):
            pytest.skip("lemma3_1 is toric-only")
        report = FS.ALL_CHECKS[check](fs)
        assert report.verdict == expected
        if expected in (FS.HOLDS, FS.STRICT):
            assert report.margin == 0

    def test_lemma31_unsupported_on_surfaces(self):
        rep = FS.check_lemma_3_1(INSTANCES["g2xg2"])
        assert rep.verdict == FS.GATED
        assert rep.notes == ["lemma3_1 requires a toric instance"]
        assert rep.margin is None and rep.volumes == {}

    def test_never_holds_when_hypothesis_fails(self):
        # flipping the weak-positivity declaration gates every affected check
        fs = FX.prod_line_line()
        fs.hypotheses = dict(fs.hypotheses, weakly_positive=False)
        for check in (FS.check_thm_1_3, FS.check_cor_3_5, FS.check_lemma_3_1):
            rep = check(fs)
            assert rep.verdict == FS.GATED
            assert any("weakly positive" in n for n in rep.notes)

    def test_thm11_strict_dims_on_ex41(self):
        rep = FS.check_thm_1_1(INSTANCES["ex41"])
        assert rep.verdict == FS.STRICT
        assert rep.dims == {"nu_X": 2, "nu_Y": 0, "nu_F": 1}

    def test_thm11_product_formula_equality_on_g2xg2(self):
        rep = FS.check_thm_1_1(INSTANCES["g2xg2"])
        assert rep.volumes["vol+_X/nu_X!"] == 4
        assert rep.volumes["vol+_Y/nu_Y!"] == 2
        assert rep.volumes["vol+_F/nu_F!"] == 2
        assert any("equality" in n for n in rep.notes)

    def test_thm12_kappa_addition(self):
        rep = FS.check_thm_1_2(INSTANCES["g2xg2"])
        assert rep.dims == {"kappa_X": 2, "kappa_Y": 1, "kappa_F": 1}
        rep = FS.check_thm_1_2(INSTANCES["g2xell"])
        assert rep.dims == {"kappa_X": 1, "kappa_Y": 1, "kappa_F": 0}

    def test_lemma31_volumes_equal(self):
        for name in ("prod_line_line", "prod_line_line_rf0", "prod_plane_line"):
            rep = FS.check_lemma_3_1(INSTANCES[name])
            vols = list(rep.volumes.values())
            assert vols[0] == vols[1]


class TestCoordinateConvention:
    @pytest.mark.parametrize("name", ["prod_line_line", "prod_line_line_rf0",
                                      "prod_plane_line"])
    def test_slice_recovers_fiber_body(self, name):
        fs = INSTANCES[name]
        total_body = fs.total_val_body(fs.D)
        dim_y = fs.base_backend.dim
        sliced = total_body.slice_prefix_zero(dim_y)
        emb = fs.fiber_backend.body_val(
            fs.R_fiber, fs.flag.fiber_flag).embed(dim_y, 0)
        assert sliced.contains(emb) == (True, 0)
        # equality on instances satisfying the pad-free hypotheses
        if fs.base_backend.is_big(fs.D_Y):
            assert sliced == emb

    def test_dims_add_under_holds(self):
        for name, checks in EXPECTED.items():
            fs = INSTANCES[name]
            for check, expected in checks.items():
                if expected not in (FS.HOLDS, FS.STRICT):
                    continue
                if check not in ("thm1_3", "cor3_5"):
                    continue
                rep = FS.ALL_CHECKS[check](fs)
                assert rep.dims["lhs"] >= rep.dims["base"] + rep.dims["fiber"]


class TestScalingSearch:
    def test_ex42(self):
        res = FS.scaling_search(INSTANCES["ex42"])
        feas = res["feasible"]
        assert (F(2), F(1), F(1)) in feas
        assert (F(1), F(1), F(1)) not in feas
        assert res["minimal_alpha_for_unit"] == 2

    def test_product_equality_case(self):
        res = FS.scaling_search(INSTANCES["g2xg2"])
        assert (F(1), F(1), F(1)) in res["feasible"]

    def test_point_total_body_blocks_positive_gamma(self):
        # a trivial total body cannot absorb any dilation of a nontrivial
        # fiber body, so no triple with positive gamma is feasible
        origin = hull([(0, 0)])
        fiber = hull([(0, 0), (0, 2)])
        step = F(1, 4)
        for k in range(1, 17):
            for j in range(1, 17):
                assert not origin.scale(k * step).contains(
                    fiber.scale(j * step))[0]


def _hulled_scaling_search(fs, step=F(1, 4), bound=F(4)):
    """Reference feasible triples: each right-hand side is the hulled
    Minkowski sum of the two embedded, dilated bodies."""
    n_b, n_f = fs.base_backend.dim, fs.fiber_backend.dim
    lhs0 = fs.total_val_body(fs.D)
    base0 = fs.base_backend.body_val(fs.D_Y, fs.flag.base_flag).embed(0, n_f)
    fiber0 = fs.fiber_backend.body_val(
        fs.R_fiber, fs.flag.fiber_flag).embed(n_b, 0)
    values = [step * k for k in range(1, int(bound / step) + 1)]
    sums = {(be, ga): base0.scale(be) + fiber0.scale(ga)
            for be in values for ga in values}
    feasible = []
    for al in values:
        lhs = lhs0.scale(al)
        feasible += [(al, be, ga) for be in values for ga in values
                     if lhs.contains(sums[be, ga])[0]]
    return feasible


@pytest.mark.parametrize("name", sorted(INSTANCES))
def test_scaling_search_matches_hulled_sums(name):
    fs = INSTANCES[name]
    assert FS.scaling_search(fs)["feasible"] == _hulled_scaling_search(fs)


# -- support-function inclusion rule ------------------------------------------

coord = st.fractions(min_value=-3, max_value=3, max_denominator=4)
factor = st.fractions(min_value=F(1, 4), max_value=3, max_denominator=4)


@st.composite
def scaled_inclusions(draw):
    """A nonempty body in R^(m+n), bodies in R^m and R^n (either possibly
    empty or a point) and positive dilations alpha, beta, gamma; few points
    or 0/1 coordinates make flat bodies, and so equality pairs, common."""
    m = draw(st.integers(1, 2))
    n = draw(st.integers(1, 3 - m))

    def body(k, may_be_empty):
        if may_be_empty and draw(st.integers(0, 5)) == 0:
            return Polytope.empty(k)
        c = draw(st.sampled_from([coord, st.integers(0, 1).map(F)]))
        return hull(draw(st.lists(st.tuples(*[c] * k), min_size=1,
                                  max_size=6)))

    return (body(m + n, False), body(m, True), body(n, True),
            draw(factor), draw(factor), draw(factor))


@settings(max_examples=200, deadline=None)
@given(scaled_inclusions())
def test_support_rows_match_contains_on_hulled_sum(case):
    lhs, B, G, al, be, ga = case
    m, n = B.ambient_dim, G.ambient_dim
    rows, q = lhs.support_rows(B, G)
    verdict = all(be * hb + ga * hf <= al * c for c, hb, hf in rows)
    margin = max([F(0)] + [(be * hb + ga * hf - al * c) / q
                           for c, hb, hf in rows])
    assert all(isinstance(x, int) for row in rows for x in row + (q,))
    expected = lhs.scale(al).contains(B.scale(be).embed(0, n)
                                      + G.scale(ga).embed(m, 0))
    assert (verdict, margin) == expected


def test_report_hulls_no_right_hand_side(monkeypatch):
    # the lhs, base and fiber bodies arrive hulled; the product's margin
    # comes from support functions and its volume from vol(B) * vol(F)
    fs = INSTANCES["prod_plane_line"]
    expected = FS.check_cor_3_5(fs)
    lhs = fs.total_val_body(fs.D)
    base = fs.base_backend.body_val(fs.D_Y, fs.flag.base_flag)
    fiber = fs.fiber_backend.body_val(fs.R_fiber, fs.flag.fiber_flag)
    lhs, base, fiber = (hull(b.vertices) for b in (lhs, base, fiber))
    calls = []
    real = polytope._int_hull

    def counting(ints, d):
        calls.append(d)
        return real(ints, d)

    monkeypatch.setattr(polytope, "_int_hull", counting)
    rep = FS._subadditivity_report("cor3_5", fs, lhs, base, fiber)
    assert calls == []
    monkeypatch.undo()
    rhs = base.product(fiber)
    assert (rep.margin == 0, rep.margin) == lhs.contains(rhs)
    assert rep.rhs["volume"] == str(rhs.volume_in_dim(rhs.dim()))
    assert (rep.verdict, rep.lhs, rep.rhs) == (
        expected.verdict, expected.lhs, expected.rhs)


@pytest.mark.parametrize("base,verdict,margin", [
    ([(1,), (2,)], FS.STRICT, 0),     # product strictly inside: margin 0
    ([(1,), (4,)], FS.FAILS, 1),      # (4, y) escapes x <= 3 by 1
    ([], FS.STRICT, 0),               # an empty product is contained
])
def test_report_margin_is_worst_violation(base, verdict, margin):
    square = hull([(0, 0), (3, 0), (0, 3), (3, 3)])
    base = hull(base) if base else Polytope.empty(1)
    fiber = hull([(1,), (2,)])
    rep = FS._subadditivity_report("p", INSTANCES["ex42"], square, base,
                                   fiber)
    assert (rep.verdict, rep.margin) == (verdict, margin)
    assert rep.rhs["volume"] == ("0" if base.is_empty
                                 else str(base.volume_in_dim(1)))


class TestDeterminism:
    def test_reports_byte_identical(self):
        a = FS.check_thm_1_3(FX.prod_line_line()).to_json()
        b = FS.check_thm_1_3(FX.prod_line_line()).to_json()
        assert a == b

    def test_digest_stable_across_builds(self):
        assert FX.ex41().digest() == FX.ex41().digest()


class TestExample42Reproduction:
    def test_bodies(self):
        fs = FX.example_4_2_fixture()
        val = fs.total_val_body(fs.D)
        lim = fs.total_lim_body(fs.D)
        assert val == hull([(0, 0), (0, 1)])
        assert lim == hull([(0, 0), (0, 2)])

    def test_reverse_strict_inclusion(self):
        fs = FX.example_4_2_fixture()
        val = fs.total_val_body(fs.D)
        rhs = fs.base_backend.body_val(fs.D_Y, None).product(
            fs.fiber_backend.body_val(fs.R_fiber, None))
        ok, margin = rhs.contains(val)
        assert ok and margin == 0 and rhs != val
