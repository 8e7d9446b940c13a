from fractions import Fraction as F

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okbodies import linalg, lp, toric


class TestLinalg:
    def test_solve(self):
        assert linalg.solve([[F(2), F(0)], [F(0), F(4)]], [F(2), F(2)]) == (1, F(1, 2))
        assert linalg.solve([[F(1), F(1)], [F(2), F(2)]], [F(1), F(2)]) is None

    def test_rank_nullspace(self):
        rows = [(F(1), F(2), F(3)), (F(2), F(4), F(6))]
        assert linalg.rank(rows) == 1
        ns = linalg.nullspace(rows)
        assert len(ns) == 2
        for v in ns:
            assert linalg.dot(rows[0], v) == 0

    def test_det(self):
        assert linalg.det([[F(1), F(2)], [F(3), F(4)]]) == -2
        assert linalg.det([[F(1), F(2)], [F(2), F(4)]]) == 0

    @given(st.integers(0, 5).flatmap(lambda n: st.lists(
        st.lists(st.integers(-9, 9), min_size=n, max_size=n),
        min_size=n, max_size=n)))
    def test_int_det_matches_rational_det(self, rows):
        want = linalg.det([[F(x) for x in r] for r in rows]) if rows else 1
        assert linalg.int_det(rows) == want

    def test_primitive(self):
        ints, mult = linalg.primitive_int_vector((F(2, 3), F(-4, 3)))
        assert ints == (1, -2)
        assert mult == F(3, 2)

    def test_signature(self):
        assert linalg.signature([[1, 0], [0, -1]]) == (1, 1, 0)
        assert linalg.signature([[0, 1], [1, 0]]) == (1, 1, 0)
        assert linalg.signature([[2, 0, 0], [0, -3, 0], [0, 0, 0]]) == (1, 1, 1)
        assert linalg.signature([[4, 2], [2, 0]]) == (1, 1, 0)

    def test_float_rejected(self):
        with pytest.raises(TypeError):
            linalg.frac(0.5)


class TestSimplex:
    def test_basic_max(self):
        # max x+y st x+y+s=2: optimum 2
        status, x, val = lp.simplex_max([[1, 1, 1]], [2], [1, 1, 0])
        assert status == lp.OPTIMAL and val == 2

    def test_infeasible(self):
        status, _, _ = lp.simplex_max([[1, 0], [1, 0]], [1, 2], [0, 0])
        assert status == lp.INFEASIBLE

    def test_unbounded(self):
        # max x st x - y = 0: x can grow with y
        status, _, _ = lp.simplex_max([[1, -1]], [0], [1, 0])
        assert status == lp.UNBOUNDED

    def test_nonneg_combination(self):
        gens = [(F(0), F(1)), (F(1), F(-1))]
        x = lp.nonneg_combination(gens, (F(2), F(1)))  # 2H+E = 3E + 2(H-E)
        assert x is not None
        assert all(c >= 0 for c in x)
        assert lp.nonneg_combination(gens, (F(-1), F(0))) is None

    def test_max_cone_shift(self):
        gens = [(F(0), F(1)), (F(1), F(-1))]  # E, H-E on the blown-up plane
        # sup{t : H - tE psef} = 1
        status, t = lp.max_cone_shift(gens, (F(0), F(1)), (F(1), F(0)))
        assert (status, t) == (lp.OPTIMAL, 1)

    def test_recession(self):
        # square [0,1]^2: bounded
        A = [[1, 0], [-1, 0], [0, 1], [0, -1]]
        assert lp.recession_is_trivial(A, 2)
        # half-strip: unbounded
        assert not lp.recession_is_trivial([[1, 0], [-1, 0], [0, -1]], 2)


def _recession_by_lp(A, dim):
    """Reference: maximize each of +-x_j over {x : A x <= 0} (2n solves)."""
    zero = [F(0)] * len(A)
    for j in range(dim):
        for sign in (1, -1):
            c = [F(0)] * dim
            c[j] = F(sign)
            status, _, val = lp.max_over_ineqs(A, zero, c)
            if status == lp.UNBOUNDED or (status == lp.OPTIMAL and val > 0):
                return False
    return True


_ENTRY = st.fractions(min_value=-3, max_value=3, max_denominator=3)


@st.composite
def cone_systems(draw):
    """(rows, dim) in dims 1-4, with zero, duplicate, parallel and
    antiparallel rows mixed in, and rows often confined to a subspace."""
    dim = draw(st.integers(1, 4))
    vec = st.lists(_ENTRY, min_size=dim, max_size=dim)
    span = draw(st.integers(0, dim))
    if span == dim:
        rows = draw(st.lists(vec, max_size=7))
    else:
        basis = draw(st.lists(vec, min_size=span, max_size=span))
        coeffs = draw(st.lists(st.lists(st.integers(-2, 2), min_size=span,
                                        max_size=span), max_size=7))
        rows = [[sum((c * b[j] for c, b in zip(cs, basis)), F(0))
                 for j in range(dim)] for cs in coeffs]
    extras = draw(st.lists(st.tuples(
        st.sampled_from(["zero", "dup", "scaled"]),
        st.integers(0, 6), st.sampled_from([F(2), F(1, 3), F(-1), F(-5, 2)])),
        max_size=3))
    for kind, i, c in extras:
        if kind == "zero" or not rows:
            rows.append([F(0)] * dim)
        else:
            row = rows[i % len(rows)]
            rows.append(list(row) if kind == "dup" else [c * x for x in row])
    return rows, dim


class TestRecession:
    @settings(max_examples=400, deadline=None)
    @given(cone_systems())
    def test_matches_lp_reference(self, system):
        rows, dim = system
        assert lp.recession_is_trivial(rows, dim) == _recession_by_lp(rows, dim)

    def test_fan_normals_are_bounded(self):
        p1 = toric.projective_line()
        p1xp1 = toric.product_fibration(p1, p1).total
        p1_4 = toric.product_fibration(p1xp1, p1xp1).total
        p2xp1 = toric.product_fibration(toric.projective_plane(), p1).total
        for X in (p1_4, p2xp1):
            normals = [[-x for x in ray] for ray in X.rays]
            assert lp.recession_is_trivial(normals, X.dim)
            assert _recession_by_lp(normals, X.dim)

    def test_single_ray_cone_is_unbounded(self):
        # x <= 0, x >= 0, y <= 0: the cone is the ray -e_2
        assert not lp.recession_is_trivial([[1, 0], [-1, 0], [0, 1]], 2)

    def test_lineality_line_is_unbounded(self):
        # |x| <= 0 and |y| <= 0 in R^3 leave the z-axis
        rows = [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, -1, 0]]
        assert not lp.recession_is_trivial(rows, 3)

    def test_empty_and_zero_systems_are_unbounded(self):
        assert not lp.recession_is_trivial([], 1)
        assert not lp.recession_is_trivial([[0, 0], [F(0), F(0)]], 2)

    def test_dimension_one(self):
        assert lp.recession_is_trivial([[2], [F(-1, 3)]], 1)
        assert not lp.recession_is_trivial([[2], [F(1, 3)], [0]], 1)
