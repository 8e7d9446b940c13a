"""Integer-geometry kernel tests: reference behaviour and brute-force
oracles for the 2D chain, the hull engine in R^3 and R^4, lattice
enumeration and the interior-point prefilter."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import factorial
from operator import mul

import pytest
from hull_reference import brute_hull, brute_volume

from okbodies import kernel
from okbodies.linalg import int_det
from okbodies.polytope import Polytope


def brute_hull2d(pts):
    """Extreme points by definition: p is dropped iff it lies in the hull
    of the remaining points (tested per triangle / segment)."""
    out = []
    for i, p in enumerate(pts):
        others = [q for j, q in enumerate(pts) if j != i]
        inside = False
        for a, b, c in combinations(others, 3):
            d1 = kernel.orient2d(a, b, p)
            d2 = kernel.orient2d(b, c, p)
            d3 = kernel.orient2d(c, a, p)
            if (d1 >= 0 and d2 >= 0 and d3 >= 0) or (d1 <= 0 and d2 <= 0 and d3 <= 0):
                if kernel.orient2d(a, b, c) != 0:
                    inside = True
                    break
        for a, b in combinations(others, 2):
            if kernel.orient2d(a, b, p) == 0 and _between(a, b, p):
                inside = True
        if not inside:
            out.append(i)
    return sorted(out)


def _between(a, b, p):
    return (min(a[0], b[0]) <= p[0] <= max(a[0], b[0])
            and min(a[1], b[1]) <= p[1] <= max(a[1], b[1])
            and (a, b) != (p, p))


class TestHull2D:
    def test_square(self):
        pts = [(0, 0), (2, 0), (0, 2), (2, 2), (1, 1)]
        assert sorted(kernel.hull2d_indices(pts)) == [0, 1, 2, 3]

    def test_collinear(self):
        pts = [(0, 0), (1, 1), (2, 2), (3, 3)]
        assert sorted(kernel.hull2d_indices(pts)) == [0, 3]

    def test_single_and_pair(self):
        assert kernel.hull2d_indices([(5, 5)]) == [0]
        assert sorted(kernel.hull2d_indices([(0, 1), (1, 0)])) == [0, 1]

    def test_ccw_order(self):
        pts = [(0, 0), (2, 0), (2, 2), (0, 2)]
        cyc = kernel.hull2d_indices(pts)
        assert cyc[0] == 0  # lex-min first
        area2 = sum(
            pts[cyc[i]][0] * pts[cyc[(i + 1) % 4]][1]
            - pts[cyc[i]][1] * pts[cyc[(i + 1) % 4]][0]
            for i in range(4))
        assert area2 > 0  # counterclockwise

    def test_against_brute(self):
        rng = random.Random(11)
        for _ in range(60):
            pts = list({(rng.randint(-6, 6), rng.randint(-6, 6))
                        for _ in range(rng.randint(3, 16))})
            got = sorted(kernel.hull2d_indices(pts))
            if len(got) <= 2:
                continue
            assert got == brute_hull2d(pts), pts


def _full_dim_sets(rng, d, count, size):
    """Random sets of distinct integer points spanning R^d."""
    out = []
    while len(out) < count:
        pts = list({tuple(rng.randint(-4, 4) for _ in range(d))
                    for _ in range(rng.randint(d + 1, size))})
        if kernel.affine_frame(pts)[0] == d:
            out.append(pts)
    return out


def _check_engine(pts):
    """hull_facets against the brute-force reference: extreme points,
    facets as (normal, offset) and d! times the volume."""
    d = len(pts[0])
    extreme, facets, dvol = kernel.hull_facets(pts)
    ref_extreme, ref_facets = brute_hull(pts)
    assert extreme == ref_extreme, pts
    assert sorted(facets) == sorted(ref_facets), pts
    assert dvol == factorial(d) * brute_volume(pts), pts


@pytest.mark.parametrize("d", [2, 3, 4])
class TestHullEngine:
    def test_cube(self, d):
        pts = list(product((0, 2), repeat=d)) + [(1,) * d, (2,) + (1,) * (d - 1)]
        extreme, facets, dvol = kernel.hull_facets(pts)
        assert extreme == list(range(2 ** d))
        assert len(facets) == 2 * d  # coplanar simplices merge
        for n, off in facets:
            assert sum(abs(a) for a in n) == 1
            assert all(sum(map(mul, n, p)) <= off for p in pts)
        assert dvol == factorial(d) * 2 ** d

    def test_random_against_brute(self, d):
        rng = random.Random(23 + d)
        for pts in _full_dim_sets(rng, d, 40 if d < 4 else 25,
                                  14 if d < 4 else 10):
            _check_engine(pts)

    def test_lattice_grid_against_brute(self, d):
        # many coplanar and collinear points: every facet is triangulated
        # in pieces, and non-extreme points sit on the boundary
        rng = random.Random(7 + d)
        box = list(product(range(3), repeat=d))
        for _ in range(15):
            pts = rng.sample(box, rng.randint(d + 1, {2: 9, 3: 13, 4: 20}[d]))
            if kernel.affine_frame(pts)[0] == d:
                _check_engine(pts)

    def test_huge_coordinates_are_exact(self, d):
        # far beyond 64-bit range: predicates run on Python ints
        big = 10**20
        pts = list(product((0, 2 * big), repeat=d))
        pts += [(big,) * d, (big, 1) + (big + 3,) * (d - 2),
                (big - 7,) + (big,) * (d - 2) + (2 * big - 1,)]
        extreme, facets, dvol = kernel.hull_facets(pts)
        assert extreme == list(range(2 ** d))
        units = [tuple(int(j == i) for j in range(d)) for i in range(d)]
        assert sorted(facets) == sorted(
            [(e, 2 * big) for e in units]
            + [(tuple(-x for x in e), 0) for e in units])
        assert dvol == factorial(d) * (2 * big) ** d
        P = Polytope.hull(pts)
        assert len(P.vertices) == 2 ** d
        assert P.volume_in_dim(d) == Fraction((2 * big) ** d)

    def test_simplex_with_interior_point(self, d):
        # the interior point sees nothing and is skipped
        k = d + 1
        pts = [(0,) * d] + [tuple(k * (j == i) for j in range(d))
                            for i in range(d)] + [(1,) * d]
        extreme, facets, dvol = kernel.hull_facets(pts)
        assert extreme == list(range(d + 1))
        assert len(facets) == d + 1
        assert dvol == k ** d

    @pytest.mark.parametrize("body", ["cube", "cross-polytope"])
    def test_boundary_points_placed_before_corners(self, d, body):
        # midpoints of edges (and of the cube's facets) start the
        # triangulation and end up on the boundary, each a vertex of some
        # boundary simplices without being extreme; an edge of the 4D
        # cross-polytope lies in four facets, so a facet count cannot tell
        if body == "cube":
            edges = [c[:i] + (1,) + c[i:] for i in range(d)
                     for c in product((0, 2), repeat=d - 1)]
            centres = [(1,) * i + (c,) + (1,) * (d - 1 - i)
                       for i in range(d) for c in (0, 2)]
            mids = list(dict.fromkeys(edges + centres))  # equal for d = 2
            corners = list(product((0, 2), repeat=d))
        else:
            units = [tuple(int(j == i) for j in range(d)) for i in range(d)]
            mids = [tuple(s * x + t * y for x, y in zip(e, f))
                    for e, f in combinations(units, 2)
                    for s in (1, -1) for t in (1, -1)]
            corners = [tuple(2 * s * x for x in e)
                       for e in units for s in (1, -1)]
        pts = mids + corners
        assert kernel.hull_facets(pts)[0] == list(range(len(mids), len(pts)))
        _check_engine(pts)

    def test_flat_input_rejected(self, d):
        with pytest.raises(ValueError, match="not full-dimensional"):
            kernel.hull_facets([(0,) * d, (0,) + (1,) * (d - 1),
                                (0, 2) + (0,) * (d - 2)])


def test_normal_closed_forms_match_minors():
    # the d = 3 and d = 4 closed forms against signed maximal minors
    rng = random.Random(17)
    for d in (3, 4):
        for scale in (9, 10**20):
            for _ in range(200):
                f = [tuple(rng.randint(-scale, scale) for _ in range(d))
                     for _ in range(d)]
                u = [[a - b for a, b in zip(p, f[0])] for p in f[1:]]
                assert kernel._normal(f) == tuple(
                    (-1) ** k * int_det([r[:k] + r[k + 1:] for r in u])
                    for k in range(d)), f


def test_hull3d_facets_is_the_engine():
    assert kernel.hull3d_facets is kernel.hull_facets


class TestLattice:
    def test_simplex_points(self):
        # u1, u2 >= 0, u1 + u2 <= 3
        pts = kernel.lattice_points([(1, 0), (0, 1), (-1, -1)], [0, 0, -3],
                                    [0, 0], [3, 3])
        assert len(pts) == 10
        assert pts == sorted(pts)

    def test_empty(self):
        assert kernel.lattice_points([(1,)], [5], [0], [3]) == []

    def test_against_box_filter(self):
        # the prefix pruning must drop exactly the box points that violate
        # some constraint, and keep lexicographic order
        rng = random.Random(41)
        for _ in range(120):
            dim = rng.randint(1, 3)
            normals = [tuple(rng.randint(-3, 3) for _ in range(dim))
                       for _ in range(rng.randint(1, 5))]
            offs = [rng.randint(-6, 2) for _ in normals]
            lo = [rng.randint(-4, 0) for _ in range(dim)]
            hi = [l + rng.randint(0, 5) for l in lo]
            box = product(*(range(a, b + 1) for a, b in zip(lo, hi)))
            expected = [u for u in box
                        if all(sum(a * b for a, b in zip(n, u)) >= o
                               for n, o in zip(normals, offs))]
            assert kernel.lattice_points(normals, offs, lo, hi) == expected


class TestPrune:
    def test_never_drops_extreme(self):
        rng = random.Random(5)
        dirs = kernel.plus_minus_directions(2)
        for _ in range(30):
            pts = list({(rng.randint(0, 8), rng.randint(0, 8))
                        for _ in range(rng.randint(6, 40))})
            keep = set(kernel.prune_interior(pts, dirs))
            hull = set(kernel.hull2d_indices(pts))
            assert hull <= keep


def test_active_lane_reports_python():
    assert kernel.active_lane() == "python"
