import json
from fractions import Fraction as F
from itertools import chain, combinations, product
from math import factorial, gcd, lcm

import pytest
from fraction_reference import nullspace, solve
from hull_reference import brute_hull, brute_volume
from hypothesis import given, settings
from hypothesis import strategies as st

from okbodies import kernel, lp, polytope, toric
from okbodies.ioformats import body_from_obj
from okbodies.linalg import dot, primitive_int_vector, qvec
from okbodies.lp import recession_is_trivial
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

    def test_float_data_rejected_like_hull(self):
        with pytest.raises(TypeError, match="floats"):
            hull([(0.5, 1)])
        for h in (HalfSpace((0.5, F(1)), F(2)), HalfSpace((F(1), F(0)), 2.0)):
            with pytest.raises(TypeError, match="floats"):
                Polytope.from_halfspaces(square().to_hrep() + (h,), 2)

    @pytest.mark.parametrize("n,message", [
        (1, "normal length does not match ambient_dim"),
        (3, "normal length does not match ambient_dim"),
        (0, "ambient dimension must be >= 1"),
    ])
    def test_normal_length_must_match_ambient_dim(self, n, message):
        with pytest.raises(ValueError, match=message):
            Polytope.from_halfspaces(square().to_hrep(), n)


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

    def test_four_dimensional(self):
        simplex = hull([(0, 0, 0, 0)] + [tuple(F(int(j == i), 2)
                                               for j in range(4))
                                         for i in range(4)])
        assert simplex.volume_in_dim(4) == F(1, 2 ** 4 * factorial(4))
        cube = hull([(x, y, z, w) for x in (0, 2) for y in (0, 2)
                     for z in (0, 2) for w in (0, 2)])
        assert cube.volume_in_dim(4) == 16
        assert cube.embed(1, 0).volume_in_dim(4) == 16


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

    def test_dimension_mismatch(self):
        with pytest.raises(ValueError, match="mismatch in containment"):
            square().contains(hull([(0,), (1,)]))
        with pytest.raises(ValueError, match="mismatch in containment"):
            square().support_rows(hull([(0,)]), tri())


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

    def test_translate_length_must_match_ambient_dim(self):
        # a short vector used to truncate the rows below ambient_dim
        P = hull([(0, 0, 0), (1, 2, 3)])
        with pytest.raises(ValueError, match="does not match ambient_dim"):
            P.translate((5,))


def _half_triangle():
    return Polytope.lattice_hull([(0, 0), (1, 0), (0, 1)], 2)


def _p2_body(coeffs):
    X = toric.projective_plane()
    return lambda: toric.okounkov_body_toric(
        X, toric.ToricDivisor(X, coeffs), toric.ToricFlag(0, (0, 1)))


# every builder that calls `_lowest` (hull, lattice_hull, sum, scale,
# translate, the first toric body) hands it rows that share a factor with
# their denominator; `from_halfspaces` reads its vertex keys in lowest terms
_CANONICAL_CASES = {
    "hull": lambda: hull([(0, 0, 0), (F(1, 2), 0, 0), (0, F(1, 2), 0),
                          (0, 0, F(1, 2)), (F(1, 4), F(1, 4), 0)]),
    "lattice_hull": lambda: Polytope.lattice_hull(
        [(0, 0), (2, 0), (0, 2), (1, 1), (2, 2)], 4),
    "sum": lambda: _half_triangle() + _half_triangle(),
    "scale": lambda: _half_triangle().scale(F(2, 3)),
    "translate": lambda: Polytope.lattice_hull(
        [(1, 1), (3, 1), (1, 3)], 2).translate((F(1, 2), F(1, 2))),
    "product": lambda: _half_triangle().product(hull([(0,), (F(1, 3),)])),
    "embed": lambda: _half_triangle().embed(1, 2),
    "from_halfspaces": lambda: Polytope.from_halfspaces(
        [HalfSpace((F(1), F(0)), F(1, 2)), HalfSpace((F(-1), F(0)), F(0)),
         HalfSpace((F(0), F(1)), F(3, 4)), HalfSpace((F(0), F(-1)), F(0))],
        2),
    "toric": _p2_body((F(3, 2), F(1, 2), 0)),
    "toric-halves": _p2_body((F(1, 2), F(1, 2), F(1, 2))),
}


@pytest.mark.parametrize("make", list(_CANONICAL_CASES.values()),
                         ids=list(_CANONICAL_CASES))
def test_constructors_give_canonical_rows(make):
    # equality and hashing compare (rows, q), so every constructor must
    # leave sorted, distinct integer rows over q >= 1 in lowest terms
    P = make()
    rows, q = P._rows, P._q
    assert all(type(r) is tuple and all(type(x) is int for x in r)
               for r in rows)
    assert list(rows) == sorted(set(rows))
    assert q >= 1
    assert gcd(q, *chain.from_iterable(rows)) == 1


def test_lowest_divides_a_common_factor_and_keeps_the_rest():
    assert polytope._lowest([(2, -4), (6, 0)], 10) == ([(1, -2), (3, 0)], 5)
    assert polytope._lowest([(0, 0)], 4) == ([(0, 0)], 1)
    rows = [(2, -4), (6, 0)]  # the rows share 2, but q = 3 does not
    got, q = polytope._lowest(rows, 3)
    assert got is rows and q == 3


class TestSerialization:
    def test_roundtrip(self):
        for P in (tri(), Polytope.empty(3), hull([(F(1, 2), F(-2, 3))])):
            assert body_from_obj(json.loads(json.dumps(P.to_obj()))) == P

    def test_rational_strings(self):
        blob = json.dumps(hull([(F(1, 2),)]).to_obj())
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


def clear_denominators_columns(points):
    """Scale each coordinate axis of a rational point set to integers:
    (integer points, per-axis multipliers)."""
    if not points:
        return [], ()
    mults = [lcm(*(p[c].denominator for p in points))
             for c in range(len(points[0]))]
    ints = [tuple(int(x * m) for x, m in zip(p, mults)) for p in points]
    return ints, tuple(F(m) for m in mults)


def _normalized(h):
    """The half-space h with its normal scaled to a primitive integer
    vector, as `HalfSpace.normalized` used to give it."""
    ints, mult = primitive_int_vector(h.normal)
    return HalfSpace(qvec(ints), h.offset * mult)


def _old_affine_frame(pts):
    p0 = pts[0]
    n = len(p0)
    basis, echelon = [], []
    for p in pts[1:]:
        if len(basis) == n:
            break
        v = [x - y for x, y in zip(p, p0)]
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
    extreme, _ = brute_hull(ints)
    return [pts[i] for i in extreme], d


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
            coords = [tuple(x - y for x, y in zip(p, p0)) for p in verts]
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
        for g, c in brute_hull(ints)[1]:
            gy = [g[i] * mults[i] for i in range(d)]
            normal = tuple(sum(gy[i] * mrows[i][col] for i in range(d))
                           for col in range(n))
            out.append(HalfSpace(normal, c + dot(normal, p0)))
    key = lambda h: (tuple(h.normal), h.offset)
    return tuple(sorted((_normalized(h) for h in out), key=key))


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
    ints, mults = clear_denominators_columns(pts)
    vol = brute_volume(ints)
    for mx in mults:
        vol /= mx
    return vol


def _outcome(fn):
    try:
        return fn()
    except ValueError as exc:
        return type(exc).__name__, str(exc)


@st.composite
def flat_bodies(draw, n=None):
    """Point sets spanning a d-dimensional affine subspace of R^n, n <= 4,
    along coordinate axes or along random (skew) directions; n is drawn
    unless given.  d = n is drawn half the time, and at least d + 1
    points, so that full-dimensional bodies are common, in R^4 too."""
    n = n or draw(st.integers(1, 4))
    d = draw(st.one_of(st.just(n), st.integers(0, n)))
    p0 = draw(st.tuples(*[coord] * n))
    if draw(st.booleans()):
        axes = draw(st.permutations(range(n)))[:d]
        dirs = [tuple(F(int(c == a)) for c in range(n)) for a in axes]
    else:
        dirs = draw(st.lists(st.tuples(*[coord] * n), min_size=d, max_size=d))
    cs = draw(st.lists(st.tuples(*[coord] * d), min_size=d + 1,
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


def _box_plus_octahedron():
    box = hull([(x, y, z) for x in (0, 3) for y in (0, 2) for z in (0, 1)])
    octahedron = hull([(1, 0, 0), (-1, 0, 0), (0, 2, 0), (0, -2, 0),
                       (0, 0, 3), (0, 0, -3)])
    return lambda: box + octahedron


def _cut_cube_system():
    # every nonzero {-1, 0, 1} normal n, at offset 4 |n|^2 + 3: 26 rows
    return lambda: Polytope.from_halfspaces(
        [HalfSpace(tuple(map(F, n)), F(4 * sum(x * x for x in n) + 3))
         for n in product((-1, 0, 1), repeat=3) if any(n)], 3)


# boundary simplices the engine builds when it places points farthest from
# their centroid first; lexicographic placement builds 216 and 233
@pytest.mark.parametrize("make,bound", [(_box_plus_octahedron, 91),
                                        (_cut_cube_system, 165)],
                         ids=["minkowski-sum", "from-halfspaces"])
def test_hull_engine_builds_few_simplices(monkeypatch, make, bound):
    run = make()  # the summands' own hulls are built here, not counted
    built = []
    normal = kernel._normal

    def counted(f):
        built.append(f)
        return normal(f)

    monkeypatch.setattr(kernel, "_normal", counted)
    assert len(run().vertices) == 24
    assert 0 < len(built) <= bound


# -- lattice hull ----------------------------------------------------------------


@st.composite
def lattice_sets(draw, n=None):
    """(integer points, m): points spanning a d-dimensional affine subspace
    of R^n, n <= 4, along coordinate axes or skew integer directions, with
    repeated points; at most 80 points.  n is drawn unless given."""
    n = n or draw(st.integers(1, 4))
    d = draw(st.integers(0, n))
    small = st.integers(-3, 3)
    p0 = draw(st.tuples(*[small] * n))
    if draw(st.booleans()):
        axes = draw(st.permutations(range(n)))[:d]
        dirs = [tuple(int(c == a) for c in range(n)) for a in axes]
    else:
        dirs = draw(st.lists(st.tuples(*[small] * n), min_size=d, max_size=d))
    cs = draw(st.lists(st.tuples(*[small] * d), min_size=1, max_size=80))
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
    assert (_outcome(lambda: P.volume_in_dim(d))
            == _outcome(lambda: Q.volume_in_dim(d)))


def test_lattice_hull_errors():
    with pytest.raises(ValueError, match="empty point set"):
        Polytope.lattice_hull([], 2)
    with pytest.raises(ValueError, match="mixed"):
        Polytope.lattice_hull([(0, 0), (1, 1, 1)], 2)
    with pytest.raises(ValueError, match=">= 1"):
        Polytope.lattice_hull([(0, 0)], 0)


# -- vertex enumeration (H -> V) ---------------------------------------------------


def _old_vertex_enum(halfspaces, n):
    """The former H -> V path: one Fraction solve and one Fraction
    feasibility sweep per n-subset of half-spaces."""
    rows = [list(h.normal) for h in halfspaces]
    offs = [h.offset for h in halfspaces]
    if not recession_is_trivial(rows, n):
        raise ValueError("half-space system is unbounded")
    verts = set()
    for sub in combinations(range(len(rows)), n):
        x = solve([rows[i] for i in sub], [offs[i] for i in sub])
        if x is not None and all(dot(r, x) <= c for r, c in zip(rows, offs)):
            verts.add(tuple(x))
    return sorted(verts)


qcoord = st.fractions(min_value=-3, max_value=3, max_denominator=7)


@st.composite
def halfspace_systems(draw, n=None):
    """(half-spaces, n) in R^n, n <= 4: a box [lo, lo + width] (flat where a
    width is 0, left out for unbounded systems) cut by random half-spaces
    near the corner lo,
    plus up to two of: duplicates and positively scaled duplicates, cuts
    through the corner lo (a degenerate apex), an equality pair, a
    contradictory pair (infeasible).  Rational data, denominators <= 7."""
    n = n or draw(st.integers(1, 4))

    def normal():
        return draw(st.tuples(*[qcoord] * n).filter(any))

    def unit(i, sign):
        return tuple(F(sign) if j == i else F(0) for j in range(n))

    lo = draw(st.tuples(*[qcoord] * n))
    hs = []
    if draw(st.integers(0, 4)):
        widths = draw(st.tuples(*[st.fractions(0, 3, max_denominator=7)] * n))
        for i in range(n):
            hs.append(HalfSpace(unit(i, -1), -lo[i]))
            hs.append(HalfSpace(unit(i, 1), lo[i] + widths[i]))
    for _ in range(draw(st.integers(0, 3 if n < 4 else 1))):
        a = normal()  # keeps lo unless the slack is negative
        slack = draw(st.fractions(min_value=-1, max_value=3, max_denominator=7))
        hs.append(HalfSpace(a, dot(a, lo) + slack))
    flavours = draw(st.sets(st.sampled_from(
        ["duplicate", "apex", "equality", "infeasible"]), max_size=2))
    if "duplicate" in flavours and hs:
        for h in draw(st.lists(st.sampled_from(hs), min_size=1, max_size=2)):
            lam = draw(st.sampled_from([F(1), F(1, 7), F(2, 3), F(5)]))
            hs.append(HalfSpace(tuple(lam * c for c in h.normal), lam * h.offset))
    if "apex" in flavours:
        for _ in range(draw(st.integers(1, 2))):
            a = normal()
            hs.append(HalfSpace(a, dot(a, lo)))
    if "equality" in flavours:
        a, c = normal(), draw(qcoord)
        hs += [HalfSpace(a, c), HalfSpace(tuple(-x for x in a), -c)]
    if "infeasible" in flavours:
        a, c = normal(), draw(qcoord)
        gap = draw(st.fractions(min_value=F(1, 7), max_value=2, max_denominator=7))
        hs += [HalfSpace(a, c), HalfSpace(tuple(-x for x in a), -c - gap)]
    return draw(st.permutations(hs)), n


@settings(max_examples=200, deadline=None)
@given(halfspace_systems())
def test_vertex_enum_matches_fraction_solve_oracle(system):
    hs, n = system
    def keys_as_fractions():
        rows = [h.normal + (h.offset,) for h in hs]
        return sorted(tuple(F(x, den) for x in num)
                      for num, den in polytope._vertex_enum(rows, n))

    assert (_outcome(keys_as_fractions)
            == _outcome(lambda: _old_vertex_enum(hs, n)))


def test_from_halfspaces_solves_nothing(monkeypatch):
    def no_solve(rows, rhs):
        raise AssertionError("H -> V ran a Fraction solve")

    monkeypatch.setattr(polytope, "solve", no_solve)
    cube = hull([(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)])
    assert Polytope.from_halfspaces(cube.to_hrep(), 3) == cube
    P2 = toric.projective_plane()
    D = toric.ToricDivisor(P2, (0, 0, 3))
    assert (toric._face.__wrapped__(P2, D, ())
            == hull([(0, 0), (3, 0), (0, 3)]))
    assert cube.slice_prefix_zero(1) == hull([(0, y, z) for y in (0, 2)
                                                for z in (0, 2)])


def test_from_halfspaces_runs_no_recession_test(monkeypatch):
    def no_recession(A, dim):
        raise AssertionError("H -> V ran a separate boundedness test")

    monkeypatch.setattr(polytope, "recession_is_trivial", no_recession)
    monkeypatch.setattr(lp, "recession_is_trivial", no_recession)
    cube = hull([(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)])
    assert Polytope.from_halfspaces(cube.to_hrep(), 3) == cube
    assert cube.slice_prefix_zero(2) == hull([(0, 0, 0), (0, 0, 2)])
    assert cube.translate((3, 0, 0)).slice_prefix_zero(1).is_empty
    with pytest.raises(ValueError, match="unbounded"):
        Polytope.from_halfspaces(cube.to_hrep()[1:], 3)


@settings(max_examples=200, deadline=None)
@given(halfspace_systems())
def test_from_rows_equals_hull_of_its_vertices(system):
    """`_from_rows` keeps the vertex keys as the body without hulling them;
    the body must be the one `_int_polytope` makes from the same keys."""
    hs, n = system
    rows = [h.normal + (h.offset,) for h in hs]
    keys = _outcome(lambda: polytope._vertex_enum(rows, n))
    if not isinstance(keys, list):
        with pytest.raises(ValueError, match="unbounded"):
            polytope._from_rows(rows, n)
        return
    P = polytope._from_rows(rows, n)
    if not keys:
        assert P.is_empty and P == Polytope.empty(n) and P.dim() == -1
        return
    assert P._hull is None  # filled on first use
    q = lcm(*(den for _num, den in keys))
    R = polytope._int_polytope(
        n, [tuple(x * (q // den) for x in num) for num, den in keys], q)
    assert P == R
    assert P.dim() == R.dim()
    assert P.to_hrep() == R.to_hrep()
    for k in range(n + 1):
        assert (_outcome(lambda: P.volume_in_dim(k))
                == _outcome(lambda: R.volume_in_dim(k)))


# -- oracle: the Fraction-vertex paths -----------------------------------------
#
# A test-local copy of the paths a polytope took while its vertices were
# tuples of Fractions: a Fraction echelon for the frame, denominators
# cleared per axis for the integer hull, and every other operation on the
# Fraction vertices.  Hulls and volumes come from the brute-force reference
# in `hull_reference`.


def _frac_frame(pts):
    p0 = pts[0]
    n = len(p0)
    echelon = []
    for p in pts[1:]:
        if len(echelon) == n:
            break
        w = [x - y for x, y in zip(p, p0)]
        for row, piv in echelon:
            if w[piv] != 0:
                f = w[piv]
                w = [a - f * b for a, b in zip(w, row)]
        piv = next((i for i, a in enumerate(w) if a != 0), None)
        if piv is not None:
            echelon.append(([a / w[piv] for a in w], piv))
    return (len(echelon), sorted(piv for _, piv in echelon),
            [row for row, _ in echelon])


def _frac_frame_hull(pts):
    d, pivots, rows = _frac_frame(pts)
    if d == 0:
        return [0], (0, pivots, rows, [()], (), [])
    ints, mults = clear_denominators_columns(
        [tuple(p[c] for c in pivots) for p in pts])
    extreme, facets = brute_hull(ints)
    return extreme, (d, pivots, rows, [ints[i] for i in extreme], mults,
                     list(facets))


class _FracBody:
    """Sorted Fraction vertices, dimension and (lazily) the frame and hull."""

    def __init__(self, n, verts, d, fh=None):
        self.n, self.vertices, self.d, self._fh = n, tuple(verts), d, fh

    @staticmethod
    def hull(points):
        pts = sorted(set(qvec(p) for p in points))
        extreme, fh = _frac_frame_hull(pts)
        return _FracBody(len(pts[0]), [pts[i] for i in extreme], fh[0], fh)

    @staticmethod
    def from_halfspaces(hs, n):
        verts = _old_vertex_enum(hs, n)
        return _FracBody.hull(verts) if verts else _FracBody(n, (), -1)

    def frame_hull(self):
        if self._fh is None:
            self._fh = _frac_frame_hull(list(self.vertices))[1]
        return self._fh

    def hrep(self):
        n = self.n
        if not self.vertices:
            e1 = qvec([1] + [0] * (n - 1))
            return tuple(sorted([HalfSpace(e1, F(-1)),
                                 HalfSpace(tuple(-c for c in e1), F(0))],
                                key=lambda h: (h.normal, h.offset)))
        p0 = self.vertices[0]
        d, pivots, rows, _ints, mults, facets = self.frame_hull()
        out = []
        if d < n:
            eqs = nullspace(rows) if rows else [
                tuple(F(int(j == i)) for j in range(n)) for i in range(n)]
            for w in eqs:
                out += [HalfSpace(qvec(w), dot(w, p0)),
                        HalfSpace(tuple(-x for x in w), -dot(w, p0))]
        for g, c in facets:
            normal = [F(0)] * n
            for gi, mi, col in zip(g, mults, pivots):
                normal[col] = gi * mi
            out.append(HalfSpace(tuple(normal), F(c)))
        return tuple(sorted((_normalized(h) for h in out),
                            key=lambda h: (h.normal, h.offset)))

    def contains(self, other):
        if not other.vertices:
            return True, F(0)
        margin = F(0)
        for h in self.hrep():
            for v in other.vertices:
                margin = max(margin, h.violation(v))
        return margin == 0, margin

    def volume(self, k):
        if not self.vertices:
            return F(0)
        d = self.d
        if k < d:
            raise ValueError("body exceeds requested dimension")
        if k > d:
            return F(0)
        if d == 0:
            return F(1)
        _d, pivots, _rows, ints, mults, facets = self.frame_hull()
        p0 = self.vertices[0]
        fixed = [c for c in range(self.n) if c not in pivots]
        if any(p[c] != p0[c] for p in self.vertices for c in fixed):
            raise ValueError(
                "volume_in_dim needs an axis-aligned affine hull; "
                "got a skew %d-dimensional body in R^%d" % (d, self.n))
        vol = brute_volume(ints)
        for m in mults:
            vol /= m
        return vol

    def scale(self, lam):
        if lam == 0:
            return _FracBody(self.n, [(F(0),) * self.n], 0)
        return _FracBody(self.n, sorted(tuple(lam * c for c in v)
                                        for v in self.vertices), self.d)

    def translate(self, t):
        return _FracBody(self.n, sorted(tuple(a + b for a, b in zip(v, t))
                                        for v in self.vertices), self.d)

    def embed(self, before, after):
        zb, za = (F(0),) * before, (F(0),) * after
        return _FracBody(self.n + before + after,
                         sorted(zb + v + za for v in self.vertices), self.d)

    def product(self, other):
        if not (self.vertices and other.vertices):
            return _FracBody(self.n + other.n, (), -1)
        return _FracBody(self.n + other.n,
                         [p + q for p in self.vertices for q in other.vertices],
                         self.d + other.d)


def _same_body(P, R):
    """P matches the reference body R: vertices, dimension, H-description
    and every volume (value or error)."""
    assert (P.ambient_dim, P.vertices, P.dim()) == (R.n, R.vertices, R.d)
    assert P.to_hrep() == R.hrep()
    for k in range(max(P.dim(), 0), P.ambient_dim + 1):
        assert (_outcome(lambda: P.volume_in_dim(k))
                == _outcome(lambda: R.volume(k)))


@st.composite
def reference_bodies(draw, n):
    """(Polytope, reference body) in R^n from every constructor: `hull` on
    flat or full point sets, `lattice_hull` on integer points over m,
    `from_halfspaces` on boxes cut by half-spaces, and the empty body."""
    kind = draw(st.sampled_from(["hull", "lattice", "halfspaces", "empty"]))
    if kind == "hull":
        pts = draw(flat_bodies(n))
        return hull(pts), _FracBody.hull(pts)
    if kind == "lattice":
        pts, m = draw(lattice_sets(n))
        return (Polytope.lattice_hull(pts, m),
                _FracBody.hull([tuple(F(c, m) for c in p) for p in pts]))
    if kind == "halfspaces":
        hs, _ = draw(halfspace_systems(n))
        R = _outcome(lambda: _FracBody.from_halfspaces(hs, n))
        if isinstance(R, _FracBody):
            return Polytope.from_halfspaces(hs, n), R
    return Polytope.empty(n), _FracBody(n, (), -1)


@settings(max_examples=150, deadline=None)
@given(st.integers(1, 3).flatmap(
    lambda n: st.tuples(reference_bodies(n), reference_bodies(n),
                        st.tuples(*[qcoord] * n), st.integers(1, n))),
    reference_bodies(1),
    st.fractions(min_value=0, max_value=3, max_denominator=5))
def test_integer_rows_match_fraction_reference(bodies, segment, lam):
    """Every constructor and operation against the Fraction-vertex copy,
    and equality as equality of vertices across constructors.  Products
    are compared in full up to R^3 (facets in R^4 are a brute-force
    search); product inclusions by `support_rows` on two factors, and
    slices by the reference H -> V path on the half-spaces plus the unit
    equality pairs."""
    (P, R), (Q, S), vec, k = bodies
    n = P.ambient_dim
    _same_body(P, R)
    assert P.contains(Q) == R.contains(S)
    assert Q.contains(P) == S.contains(R)
    G, T = segment
    PG, RT = P.product(G), R.product(T)
    E = P.embed(1, 0)
    # (lhs, reference lhs, factors, reference factors)
    inclusions = [(E, R.embed(1, 0), (G, Q), (T, S))]
    if PG.ambient_dim <= 3:
        _same_body(PG, RT)
        inclusions.append((PG, RT, (Q, G), (S, T)))
    assert (PG.vertices, PG.dim()) == (RT.vertices, RT.d)
    assert (E.vertices, E.dim()) == (R.embed(1, 0).vertices, R.d)
    for lhs, ref, (B, C), (U, V) in inclusions:
        rows, q = lhs.support_rows(B, C)
        margin = F(max([0] + [hb + hc - c for c, hb, hc in rows]), q)
        assert (margin == 0, margin) == ref.contains(U.product(V))
    others = [Q]
    if not P.is_empty:
        _same_body(P.scale(lam), R.scale(lam))
        _same_body(P.translate(vec), R.translate(vec))
        units = [HalfSpace(tuple(F(s * (j == i)) for j in range(n)), F(0))
                 for i in range(k) for s in (1, -1)]
        _same_body(P.slice_prefix_zero(k),
                   _FracBody.from_halfspaces(list(R.hrep()) + units, n))
        others += [hull(P.vertices), P.scale(lam), P.translate(vec),
                   P.scale(2).scale(F(1, 2)), P.translate(vec).translate(
                       tuple(-c for c in vec))]
    for B in others:
        assert (P == B) == (P.vertices == B.vertices)
        assert P != B or hash(P) == hash(B)
