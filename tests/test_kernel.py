"""Integer-geometry kernel tests: reference behaviour and brute-force
oracles for the 2D chain, the 3D hull driver, lattice enumeration and the
interior-point prefilter."""

import random
from fractions import Fraction
from itertools import combinations, product

from okbodies import kernel
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


class TestHull3D:
    def brute_facets(self, pts):
        planes = set()
        for a, b, c in combinations(range(len(pts)), 3):
            sides = [kernel.orient3d(pts[a], pts[b], pts[c], p) for p in pts]
            if all(s <= 0 for s in sides) or all(s >= 0 for s in sides):
                if any(s != 0 for s in sides):
                    members = frozenset(i for i, s in enumerate(sides) if s == 0)
                    planes.add(members)
        return planes

    def test_cube(self):
        pts = [(x, y, z) for x in (0, 2) for y in (0, 2) for z in (0, 2)]
        pts.append((1, 1, 1))
        extreme, facets = kernel.hull3d_facets(pts)
        assert extreme == list(range(8))
        assert len(facets) == 6
        for n, off, poly in facets:
            assert len(poly) == 4
            assert all(sum(a * b for a, b in zip(n, pts[i])) == off for i in poly)
            assert all(sum(a * b for a, b in zip(n, p)) <= off for p in pts)

    def test_random_against_brute(self):
        rng = random.Random(23)
        for _ in range(40):
            pts = list({(rng.randint(-4, 4), rng.randint(-4, 4), rng.randint(-4, 4))
                        for _ in range(rng.randint(5, 14))})
            diffs = [tuple(p[i] - pts[0][i] for i in range(3)) for p in pts[1:]]
            if _rank3(diffs) < 3:  # driver requires full-dimensional input
                continue
            _extreme, facets = kernel.hull3d_facets(pts)
            expected = self.brute_facets(pts)
            # compare facet planes by their full coplanar membership (the
            # polygon keeps corners only)
            got_full = set()
            for n, off, _poly in facets:
                got_full.add(frozenset(
                    i for i, p in enumerate(pts)
                    if sum(a * b for a, b in zip(n, p)) == off))
            assert got_full == expected, pts

    def test_huge_coordinates_are_exact(self):
        # far beyond 64-bit range: predicates run on Python ints
        big = 10**20
        pts = [(x, y, z) for x in (0, 2 * big) for y in (0, 2 * big)
               for z in (0, 2 * big)]
        pts += [(big, big, big), (big, 1, big + 3), (big - 7, big, 2 * big - 1)]
        extreme, facets = kernel.hull3d_facets(pts)
        assert extreme == list(range(8))
        assert sorted((n, off) for n, off, _ in facets) == sorted(
            [((1, 0, 0), 2 * big), ((-1, 0, 0), 0), ((0, 1, 0), 2 * big),
             ((0, -1, 0), 0), ((0, 0, 1), 2 * big), ((0, 0, -1), 0)])
        P = Polytope.hull(pts)
        assert len(P.vertices) == 8
        assert P.volume_in_dim(3) == Fraction(8 * big**3)

    def test_tetra_volume_path(self):
        pts = [(0, 0, 0), (3, 0, 0), (0, 3, 0), (0, 0, 3), (1, 1, 1)]
        extreme, facets = kernel.hull3d_facets(pts)
        assert extreme == [0, 1, 2, 3]
        assert len(facets) == 4


def _rank3(diffs):
    from fractions import Fraction

    from okbodies.linalg import rank
    return rank([tuple(map(Fraction, d)) for d in diffs])


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
