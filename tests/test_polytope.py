from fractions import Fraction as F
from math import factorial

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from okbodies import polytope
from okbodies.linalg import (clear_denominators_columns, dot, nullspace,
                             qvec, solve, vec_sub)
from okbodies.polytope import HalfSpace, Polytope, hull


def tri():
    return hull([(0, 0), (1, 0), (0, 1)])


def square(a=1):
    return hull([(0, 0), (a, 0), (0, a), (a, a)])


class TestHull:
    def test_interior_point_removed(self):
        P = hull([(0, 0), (1, 0), (0, 1), (F(1, 2), F(1, 4))])
        assert P == tri()

    def test_degenerate_point(self):
        P = hull([(0, 0)])
        assert P.vertices == ((F(0), F(0)),)
        assert P.dim() == 0

    def test_collinear(self):
        P = hull([(0, 0, 0), (1, 1, 1), (2, 2, 2)])
        assert len(P.vertices) == 2 and P.dim() == 1

    def test_idempotent(self):
        P = hull([(0, 0), (3, 1), (1, 3), (1, 1), (0, 3)])
        assert hull(P.vertices) == P

    def test_errors(self):
        with pytest.raises(ValueError, match="empty point set"):
            hull([])
        with pytest.raises(ValueError, match="mixed"):
            hull([(0, 0), (1, 1, 1)])

    def test_curve_sections_hull(self):
        # flag valuations of the 10 degree-2 monomials on the plane, halved
        pts = [(i, j) for i in range(3) for j in range(3 - i)]
        pts = [(F(x, 2), F(y, 2)) for x, y in
               [(u1, u2) for u1, u2 in pts]]
        P = hull(pts)
        assert P == hull([(0, 0), (1, 0), (0, 1)])


class TestHRep:
    def test_square(self):
        hs = square().to_hrep()
        assert len(hs) == 4
        normals = sorted(tuple(int(c) for c in h.normal) for h in hs)
        assert normals == [(-1, 0), (0, -1), (0, 1), (1, 0)]

    def test_point_equality_pairs(self):
        hs = hull([(2, 3)]).to_hrep()
        assert len(hs) == 4  # 2n half-spaces for a point in R^2

    def test_triangle_y_le_x(self):
        P = hull([(0, 0), (1, 0), (1, 1)])
        normals = {(tuple(int(c) for c in h.normal), h.offset)
                   for h in P.to_hrep()}
        assert ((0, -1), F(0)) in normals     # y >= 0
        assert ((1, 0), F(1)) in normals      # x <= 1
        assert ((-1, 1), F(0)) in normals     # y <= x

    def test_roundtrip(self):
        for P in (tri(), square(3), hull([(0, 0, 0), (1, 0, 0), (0, 1, 0),
                                          (0, 0, 1), (1, 1, 1)])):
            assert Polytope.from_halfspaces(P.to_hrep(), P.ambient_dim) == P

    def test_normalized_primitive_sorted(self):
        hs = hull([(0, 0), (F(1, 2), 0), (0, F(1, 3))]).to_hrep()
        for h in hs:
            assert all(c.denominator == 1 for c in h.normal)
        assert list(hs) == sorted(hs, key=lambda h: (h.normal, h.offset))

    def test_unbounded_system_rejected(self):
        from okbodies.polytope import HalfSpace

        half_plane = [HalfSpace((F(1), F(0)), F(0))]
        with pytest.raises(ValueError, match="unbounded"):
            Polytope.from_halfspaces(half_plane, 2)


class TestMinkowski:
    def test_segments(self):
        assert hull([(0,), (1,)]) + hull([(0,), (2,)]) == hull([(0,), (3,)])

    def test_identity(self):
        P = hull([(0, 0), (2, 1), (1, 2)])
        assert P + hull([(0, 0)]) == P

    def test_segments_to_square(self):
        horiz = hull([(0, 0), (2, 0)])
        vert = hull([(0, 0), (0, 2)])
        assert horiz + vert == square(2)

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError):
            hull([(0,)]) + hull([(0, 0)])


class TestVolume:
    def test_simplex(self):
        assert tri().volume_in_dim(2) == F(1, 2)

    def test_rectangle(self):
        P = hull([(0, 0), (3, 0), (0, 5), (3, 5)])
        assert P.volume_in_dim(2) == 15

    def test_surface_triangle(self):
        P = hull([(0, 0), (1, 0), (1, 1)])
        assert P.volume_in_dim(2) == F(1, 2)

    def test_lower_dim_zero(self):
        seg = hull([(0, 0), (1, 0)])
        assert seg.volume_in_dim(2) == 0

    def test_too_small_errors(self):
        with pytest.raises(ValueError, match="exceeds requested dimension"):
            square().volume_in_dim(1)

    def test_embedded_segment(self):
        seg = hull([(0, 0, 0), (0, 3, 0)])
        assert seg.volume_in_dim(1) == 3

    def test_point_zero_dim(self):
        assert hull([(5, 7)]).volume_in_dim(0) == 1

    def test_skew_rejected(self):
        skew = hull([(0, 0), (1, 1)])
        with pytest.raises(ValueError, match="axis-aligned"):
            skew.volume_in_dim(1)

    def test_cube_minus_corner(self):
        pts = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
        pts.remove((2, 2, 2))
        P = hull(pts)
        assert P.volume_in_dim(3) == 8 - F(4, 3)


class TestDim:
    def test_cases(self):
        assert hull([(1, 2, 3)]).dim() == 0
        assert hull([(0, 0, 0), (0, 3, 0)]).dim() == 1
        assert square(2).dim() == 2


class TestContains:
    def test_inscribed(self):
        ok, margin = square().contains(tri())
        assert ok and margin == 0

    def test_reflexive(self):
        P = hull([(0, 0), (2, 1), (1, 3)])
        assert P.contains(P) == (True, 0)

    def test_violation_margin(self):
        ok, margin = hull([(0,), (1,)]).contains(hull([(0,), (2,)]))
        assert (ok, margin) == (False, 1)

    def test_empty_cases(self):
        e = Polytope.empty(2)
        assert square().contains(e) == (True, 0)
        ok, margin = e.contains(square())
        assert not ok and margin > 0


class TestSlice:
    def test_square(self):
        assert square().slice_prefix_zero(1) == hull([(0, 0), (0, 1)])

    def test_identity(self):
        P = tri()
        assert P.slice_prefix_zero(0) is P

    def test_simplex(self):
        P = hull([(0, 0), (2, 0), (0, 2)])
        assert P.slice_prefix_zero(1) == hull([(0, 0), (0, 2)])

    def test_empty_result_flagged(self):
        P = hull([(1, 1), (2, 2)])
        S = P.slice_prefix_zero(2)
        assert S.is_empty and S.ambient_dim == 2


class TestScaleEmbed:
    def test_scale_half(self):
        assert hull([(0,), (2,)]).scale(F(1, 2)) == hull([(0,), (1,)])

    def test_scale_one_and_zero(self):
        P = tri()
        assert P.scale(1) == P
        assert P.scale(0) == hull([(0, 0)])

    def test_scale_three(self):
        assert square().scale(3) == square(3)

    def test_scale_negative(self):
        with pytest.raises(ValueError):
            tri().scale(-1)

    def test_embed(self):
        seg = hull([(0,), (2,)])
        assert seg.embed(0, 1) == hull([(0, 0), (2, 0)])
        assert seg.embed(1, 0) == hull([(0, 0), (0, 2)])
        assert hull([(0,)]).embed(0, 2) == hull([(0, 0, 0)])


class TestSerialization:
    def test_roundtrip(self):
        for P in (tri(), Polytope.empty(3), hull([(F(1, 2), F(-2, 3))])):
            assert Polytope.from_json(P.to_json()) == P

    def test_rational_strings(self):
        blob = hull([(F(1, 2),)]).to_json()
        assert '"1/2"' in blob


# -- property tests ------------------------------------------------------------

coord = st.fractions(min_value=-5, max_value=5, max_denominator=4)


def points(dim, min_size=1, max_size=9):
    return st.lists(st.tuples(*[coord] * dim), min_size=min_size,
                    max_size=max_size)


@settings(max_examples=60, deadline=None)
@given(st.one_of(points(1), points(2), points(3)))
def test_hull_roundtrip_property(pts):
    P = hull(pts)
    assert hull(P.vertices) == P
    Q = Polytope.from_halfspaces(P.to_hrep(), P.ambient_dim)
    assert Q == P


@settings(max_examples=60, deadline=None)
@given(points(2))
def test_dual_consistency(pts):
    P = hull(pts)
    hs = P.to_hrep()
    for v in P.vertices:
        assert max((h.violation(v) for h in hs), default=F(0)) <= 0
    # a point strictly outside violates some half-space
    far = tuple(c + 100 for c in P.vertices[0])
    assert any(h.violation(far) > 0 for h in hs)


@settings(max_examples=40, deadline=None)
@given(points(2, max_size=6), points(2, max_size=6), points(2, max_size=6))
def test_minkowski_properties(a, b, c):
    P, Q, R = hull(a), hull(b), hull(c)
    assert (P + Q) + R == P + (Q + R)
    assert P + Q == Q + P
    sums = {tuple(x + y for x, y in zip(p, q))
            for p in P.vertices for q in Q.vertices}
    assert set((P + Q).vertices) <= sums


@settings(max_examples=40, deadline=None)
@given(points(2, max_size=6), points(2, max_size=6),
       st.fractions(min_value=0, max_value=3, max_denominator=3))
def test_scale_distributes(a, b, lam):
    P, Q = hull(a), hull(b)
    assert (P + Q).scale(lam) == P.scale(lam) + Q.scale(lam)


@settings(max_examples=40, deadline=None)
@given(points(2, min_size=3, max_size=8))
def test_containment_monotonicity(pts):
    P = hull(pts)
    sub = hull(pts[: max(1, len(pts) - 1)])
    ok, margin = P.contains(sub)
    assert ok and margin == 0
    k = P.dim()
    if sub.dim() == k and k == P.ambient_dim:
        assert P.volume_in_dim(k) >= sub.volume_in_dim(k)


@st.composite
def body_pairs(draw):
    """Bodies in R^m and R^n with m + n <= 3, either of them possibly empty
    or a single point; 0/1 coordinates make flat and degenerate bodies
    common."""
    m = draw(st.integers(1, 2))
    n = draw(st.integers(1, 3 - m))

    def body(k):
        if draw(st.integers(0, 5)) == 0:
            return Polytope.empty(k)
        c = draw(st.sampled_from([coord, st.integers(0, 1).map(F)]))
        return hull(draw(st.lists(st.tuples(*[c] * k), min_size=1,
                                  max_size=6)))

    return body(m), body(n)


@settings(max_examples=150, deadline=None)
@given(body_pairs())
def test_product_is_sum_of_embeddings(pair):
    B, G = pair
    m, n = B.ambient_dim, G.ambient_dim
    P = B.product(G)
    S = B.embed(0, n) + G.embed(m, 0)
    assert P.ambient_dim == S.ambient_dim == m + n
    assert P.vertices == S.vertices
    d = P.dim()
    assert d == S.dim()
    assert P.to_hrep() == S.to_hrep()
    vol = _outcome(lambda: P.volume_in_dim(d))
    assert vol == _outcome(lambda: S.volume_in_dim(d))
    if B.is_empty or G.is_empty:
        assert P.is_empty and d == -1
        return
    assert d == B.dim() + G.dim()
    vb = _outcome(lambda: B.volume_in_dim(B.dim()))
    vg = _outcome(lambda: G.volume_in_dim(G.dim()))
    if isinstance(vb, F) and isinstance(vg, F):
        assert vol == vb * vg


# -- oracle: the per-point affine-coordinate path ------------------------------
#
# A test-local copy of the frame each polytope operation used to build on
# its own: affine coordinates solved point by point in a basis of the
# direction space, facet normals mapped back through the inverse basis
# matrix, and volumes on a separate projection onto the varying columns.


def _old_affine_frame(pts):
    p0 = pts[0]
    n = len(p0)
    basis, echelon = [], []
    for p in pts[1:]:
        if len(basis) == n:
            break
        v = list(vec_sub(p, p0))
        w = list(v)
        for row, piv in echelon:
            if w[piv] != 0:
                f = w[piv]
                w = [a - f * b for a, b in zip(w, row)]
        piv = next((i for i, a in enumerate(w) if a != 0), None)
        if piv is not None:
            echelon.append(([a / w[piv] for a in w], piv))
            basis.append(tuple(v))
    return len(basis), basis, [piv for _, piv in echelon]


def _old_coords_map(pts, basis, pivcols):
    d = len(basis)
    bjt = [[basis[i][c] for i in range(d)] for c in pivcols]
    return [tuple(solve(bjt, [p[c] - pts[0][c] for c in pivcols]))
            for p in pts]


def _old_invert_small(rows):
    d = len(rows)
    cols = [solve(rows, [F(int(j == i)) for j in range(d)]) for i in range(d)]
    return [[cols[j][i] for j in range(d)] for i in range(d)]


def _old_vertices(pts):
    pts = sorted(set(qvec(p) for p in pts))
    if len(pts) == 1:
        return pts, 0
    d, basis, pivcols = _old_affine_frame(pts)
    coords = pts if d == len(pts[0]) else _old_coords_map(pts, basis, pivcols)
    ints, _ = clear_denominators_columns(coords)
    extreme, _ = polytope._int_hull(ints, d)
    return [pts[i] for i in sorted(extreme)], d


def _old_hrep(verts):
    n, p0 = len(verts[0]), verts[0]
    if len(verts) == 1:
        d, basis, pivcols = 0, [], []
    else:
        d, basis, pivcols = _old_affine_frame(verts)
    out = []
    if d < n:
        eqs = nullspace(basis) if basis else [
            tuple(F(int(j == i)) for j in range(n)) for i in range(n)]
        for w in eqs:
            out += [HalfSpace(qvec(w), dot(w, p0)),
                    HalfSpace(tuple(-x for x in w), -dot(w, p0))]
    if d > 0:
        if d == n:
            coords = [vec_sub(p, p0) for p in verts]
            mrows = [tuple(F(int(j == i)) for j in range(n)) for i in range(n)]
        else:
            coords = _old_coords_map(verts, basis, pivcols)
            minv = _old_invert_small(
                [[basis[i][c] for i in range(d)] for c in pivcols])
            mrows = []
            for i in range(d):
                row = [F(0)] * n
                for k, c in enumerate(pivcols):
                    row[c] = minv[i][k]
                mrows.append(tuple(row))
        ints, mults = clear_denominators_columns(coords)
        for g, c, _ in polytope._int_hull(ints, d)[1]:
            gy = [g[i] * mults[i] for i in range(d)]
            normal = tuple(sum(gy[i] * mrows[i][col] for i in range(d))
                           for col in range(n))
            out.append(HalfSpace(normal, c + dot(normal, p0)))
    key = lambda h: (tuple(h.normal), h.offset)
    return tuple(sorted((h.normalized() for h in out), key=key))


def _old_volume(verts, d, k):
    if k < d:
        raise ValueError("body exceeds requested dimension")
    if k > d:
        return F(0)
    if d == 0:
        return F(1)
    pts = verts
    if d < len(verts[0]):
        keep = [c for c in range(len(verts[0]))
                if any(p[c] != verts[0][c] for p in verts)]
        if len(keep) != d:
            raise ValueError(
                "volume_in_dim needs an axis-aligned affine hull; "
                "got a skew %d-dimensional body in R^%d" % (d, len(verts[0])))
        pts = [tuple(p[c] for c in keep) for p in verts]
    if d > 3:
        raise NotImplementedError("exact volume is implemented up to dimension 3")
    ints, mults = clear_denominators_columns(pts)
    extreme, facets = polytope._int_hull(ints, d)
    v0 = min(extreme, key=lambda i: ints[i])
    orient = {1: lambda p0, a: a[0] - p0[0], 2: polytope.kernel.orient2d,
              3: polytope.kernel.orient3d}[d]
    total = 0
    for _, _, poly in facets:
        if v0 in poly:
            continue
        for i in range(1, len(poly) - d + 2):
            total += orient(ints[v0], *(ints[j] for j in poly[:1] + poly[i:i + d - 1]))
    denom = F(1)
    for mx in mults:
        denom *= mx
    return F(total, factorial(d)) / denom


def _outcome(fn):
    try:
        return fn()
    except (ValueError, NotImplementedError) as exc:
        return type(exc).__name__, str(exc)


@st.composite
def flat_bodies(draw):
    """Point sets spanning a d-dimensional affine subspace of R^n, n <= 4,
    along coordinate axes or along random (skew) directions."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(0, n))
    p0 = draw(st.tuples(*[coord] * n))
    if draw(st.booleans()):
        axes = draw(st.permutations(range(n)))[:d]
        dirs = [tuple(F(int(c == a)) for c in range(n)) for a in axes]
    else:
        dirs = draw(st.lists(st.tuples(*[coord] * n), min_size=d, max_size=d))
    cs = draw(st.lists(st.tuples(*[coord] * d), min_size=1,
                       max_size=8 if d == 4 else 10))
    return [tuple(p0[i] + sum(c * v[i] for c, v in zip(cc, dirs))
                  for i in range(n)) for cc in cs]


@settings(max_examples=200, deadline=None)
@given(flat_bodies())
def test_one_frame_matches_affine_coordinate_oracle(pts):
    P = hull(pts)
    verts, d = _old_vertices(pts)
    assert P.vertices == tuple(verts)
    assert P.dim() == d
    assert P.to_hrep() == _old_hrep(verts)
    for k in range(P.ambient_dim + 1):
        assert (_outcome(lambda: P.volume_in_dim(k))
                == _outcome(lambda: _old_volume(verts, d, k)))


def test_one_hull_per_polytope(monkeypatch):
    calls = []
    real = polytope._int_hull

    def counting(ints, d):
        calls.append(d)
        return real(ints, d)

    monkeypatch.setattr(polytope, "_int_hull", counting)
    solid = [(0, 0, 0), (2, 0, 0), (0, 3, 0), (0, 0, 1), (F(1, 2), 1, F(1, 5))]
    flat = [(0, 1, 0), (2, 1, 0), (0, 1, F(3, 2)), (1, 1, F(1, 3))]
    for pts in (solid, flat):
        calls.clear()
        P = hull(pts)
        P.to_hrep()
        P.volume_in_dim(P.dim())
        assert len(calls) == 1
        # a dilate has no cached hull yet and builds exactly one on demand
        Q = P.scale(3)
        Q.to_hrep()
        assert Q.volume_in_dim(Q.dim()) == 3 ** P.dim() * P.volume_in_dim(P.dim())
        assert len(calls) == 2


# -- lattice hull ----------------------------------------------------------------


@st.composite
def lattice_sets(draw):
    """(integer points, m): points spanning a d-dimensional affine subspace
    of R^n, n <= 4, along coordinate axes or skew integer directions, with
    repeated points.  At most 48 points in R^4, and at most 10 when they
    may span it (the facet search in dimension 4 is exponential)."""
    n = draw(st.integers(1, 4))
    d = draw(st.integers(0, n))
    small = st.integers(-3, 3)
    p0 = draw(st.tuples(*[small] * n))
    if draw(st.booleans()):
        axes = draw(st.permutations(range(n)))[:d]
        dirs = [tuple(int(c == a) for c in range(n)) for a in axes]
    else:
        dirs = draw(st.lists(st.tuples(*[small] * n), min_size=d, max_size=d))
    cap = 10 if d == 4 else 48 if n == 4 else 80
    cs = draw(st.lists(st.tuples(*[small] * d), min_size=1, max_size=cap))
    pts = [tuple(p0[i] + sum(c * v[i] for c, v in zip(cc, dirs))
                 for i in range(n)) for cc in cs]
    pts += draw(st.lists(st.sampled_from(pts), max_size=3))
    return pts, draw(st.integers(1, 7))


@settings(max_examples=150, deadline=None)
@given(lattice_sets())
def test_lattice_hull_matches_rational_hull(case):
    pts, m = case
    P = Polytope.lattice_hull(pts, m)
    Q = hull([tuple(F(c, m) for c in p) for p in pts])
    assert P.ambient_dim == Q.ambient_dim
    assert P.vertices == Q.vertices
    d = P.dim()
    assert d == Q.dim()
    assert P.to_hrep() == Q.to_hrep()
    if d <= 3:
        assert (_outcome(lambda: P.volume_in_dim(d))
                == _outcome(lambda: Q.volume_in_dim(d)))


def test_lattice_hull_errors():
    with pytest.raises(ValueError, match="empty point set"):
        Polytope.lattice_hull([], 2)
    with pytest.raises(ValueError, match="mixed"):
        Polytope.lattice_hull([(0, 0), (1, 1, 1)], 2)
    with pytest.raises(ValueError, match=">= 1"):
        Polytope.lattice_hull([(0, 0)], 0)
