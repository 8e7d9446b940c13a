"""Integer-geometry kernel tests: reference behaviour and brute-force
oracles for the 2D chain, the hull engine in R^3 and R^4, lattice
enumeration and the line-end and midpoint hull prefilter."""

import random
from fractions import Fraction
from itertools import combinations, product
from math import factorial
from operator import mul

import pytest
from fraction_reference import int_det
from hull_reference import brute_hull, brute_volume
from hypothesis import assume, given, settings
from hypothesis import strategies as st

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
    def test_boundary_points_placed_before_corners(self, d, body,
                                                   monkeypatch):
        # midpoints of edges lie farther from the centroid than the near
        # corners, so each is placed while outside the hull of the points
        # before it, and ends up on the boundary, a vertex of some boundary
        # simplices without being extreme; an edge of the 4D cross-polytope
        # lies in four facets, so a facet count cannot tell
        if body == "cube":  # a frustum: far corners at x0 = 0, near at 2
            far = [(0,) + s for s in product((-3, 3), repeat=d - 1)]
            mids = [(1,) + s for s in product((-2, 2), repeat=d - 1)]
            corners = far + [(2,) + s for s in product((-1, 1), repeat=d - 1)]
        else:  # stretched along x0: far corners +-12 e0, near +-2 e_i
            mids = [(6 * s,) + tuple(t * (j == i) for j in range(1, d))
                    for s in (1, -1) for i in range(1, d) for t in (1, -1)]
            corners = [(12 * s,) + (0,) * (d - 1) for s in (1, -1)] + [
                (0,) + tuple(2 * t * (j == i) for j in range(1, d))
                for i in range(1, d) for t in (1, -1)]
        pts = mids + corners
        simplices = []
        normal = kernel._normal

        def recorded(f):
            simplices.append(f)
            return normal(f)

        monkeypatch.setattr(kernel, "_normal", recorded)
        assert kernel.hull_facets(pts)[0] == list(range(len(mids), len(pts)))
        assert set(mids) <= {p for f in simplices for p in f}
        _check_engine(pts)

    def test_flat_input_rejected(self, d):
        with pytest.raises(ValueError, match="not full-dimensional"):
            kernel.hull_facets([(0,) * d, (0,) + (1,) * (d - 1),
                                (0, 2) + (0,) * (d - 2)])


@st.composite
def _even_corners_and_midpoints(draw, d):
    """Points with even coordinates spanning R^d, and the midpoints of
    their pairs: those lie on edges, on facets or inside."""
    corners = draw(st.lists(st.tuples(*[st.integers(-3, 3).map(
        lambda x: 2 * x)] * d), min_size=d + 1, max_size=8, unique=True))
    assume(kernel.affine_frame(corners)[0] == d)
    mids = [tuple((a + b) // 2 for a, b in zip(p, q))
            for p, q in combinations(corners, 2)]
    return list(dict.fromkeys(corners + mids))


@pytest.mark.parametrize("d", [3, 4])
@settings(max_examples=30, deadline=None)
@given(data=st.data())
def test_hull_does_not_depend_on_point_order(d, data):
    pts = data.draw(_even_corners_and_midpoints(d))
    shuffled = data.draw(st.permutations(pts))
    extreme, facets, dvol = kernel.hull_facets(pts)
    got_extreme, got_facets, got_dvol = kernel.hull_facets(shuffled)
    assert {shuffled[i] for i in got_extreme} == {pts[i] for i in extreme}
    assert sorted(got_facets) == sorted(facets)
    assert got_dvol == dvol
    assert Polytope.hull(shuffled) == Polytope.hull(pts)


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


def _box_filter(normals, offs, lo, hi):
    """The points of the box [lo, hi], in lexicographic order, that satisfy
    every constraint normals[j] . u >= offs[j]."""
    box = product(*(range(a, b + 1) for a, b in zip(lo, hi)))
    return [u for u in box
            if all(sum(a * b for a, b in zip(n, u)) >= o
                   for n, o in zip(normals, offs))]


def _lattice_cases():
    """500 seeded (normals, offsets, lo, hi): dimensions 1 to 4, entries up
    to +-5 and offsets that are mostly not their multiples, so quotients of
    either sign round both ways; last entries of 0 with offsets of either
    sign; boxes with lo == hi in some coordinates; and rows whose solved
    interval is empty."""
    rng = random.Random(43)
    for _ in range(500):
        dim = rng.randint(1, 4)
        normals = []
        for _ in range(rng.randint(1, 5)):
            nrm = [rng.randint(-5, 5) for _ in range(dim)]
            if rng.random() < 0.3:
                nrm[-1] = 0
            normals.append(tuple(nrm))
        offs = [rng.randint(-11, 4) for _ in normals]
        lo = [rng.randint(-4, 1) for _ in range(dim)]
        hi = [l + rng.choice((0, 0, 1, 2, 3, 4)) for l in lo]
        yield normals, offs, lo, hi


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
        """The prefix pruning and the solved last coordinate must keep
        exactly the box points that satisfy every constraint, in
        lexicographic order."""
        for case in _lattice_cases():
            assert kernel.lattice_points(*case) == _box_filter(*case), case

    def test_lines_against_box_filter(self):
        """Each line is a nonempty row a <= b, one per prefix in strictly
        increasing order, and the lines expand to exactly the box points
        that satisfy every constraint."""
        for case in _lattice_cases():
            lines = kernel.lattice_lines(*case)
            assert all(a <= b for _head, a, b in lines), case
            heads = [head for head, _a, _b in lines]
            assert all(h < k for h, k in zip(heads, heads[1:])), case
            assert ([head + (v,) for head, a, b in lines
                     for v in range(a, b + 1)] == _box_filter(*case)), case

    def test_rejects_dimension_zero(self):
        for enumerate_ in (kernel.lattice_points, kernel.lattice_lines):
            with pytest.raises(ValueError, match="dimension >= 1"):
                enumerate_([()], [0], [], [])


def _check_prune(pts, extreme, dirs):
    keep = kernel.prune_interior(pts, dirs)
    assert keep == sorted(set(keep))
    assert set(extreme) <= set(keep), pts


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

    @pytest.mark.parametrize("d", [3, 4])
    def test_never_drops_extreme_full(self, d):
        """Dense clouds (the lattice points of a box cut by random
        half-spaces) and sparse ones (random points, most lines holding one
        or two), shuffled, against the engine's extreme points."""
        rng = random.Random(50 + d)
        dirs = kernel.plus_minus_directions(d)
        side = 6 if d == 3 else 4
        checked = 0
        while checked < 24:
            if checked % 2:
                pts = list({tuple(rng.randint(-5, 5) for _ in range(d))
                            for _ in range(rng.randint(d + 1, 60))})
            else:
                cuts = [tuple(rng.randint(-2, 2) for _ in range(d))
                        for _ in range(rng.randint(1, 4))]
                offs = [rng.randint(-2 * side, 0) for _ in cuts]
                pts = _box_filter(cuts, offs, [0] * d, [side - 1] * d)
            rng.shuffle(pts)
            if len(pts) <= d or kernel.affine_frame(pts)[0] < d:
                continue
            _check_prune(pts, kernel.hull_facets(pts)[0], dirs)
            checked += 1

    @pytest.mark.parametrize("d", [3, 4])
    def test_keeps_only_the_corners_of_a_cube(self, d):
        pts = list(product(range(5), repeat=d))
        keep = kernel.prune_interior(pts, kernel.plus_minus_directions(d))
        assert [pts[i] for i in keep] == list(product((0, 4), repeat=d))

    @pytest.mark.parametrize("n", [3, 4])
    def test_never_drops_extreme_flat(self, n):
        """A cloud on a skew lattice plane in R^3, or a skew 3-flat in R^4,
        pruned in its pivot coordinates as `polytope._frame_hull` projects
        it: lines there hold points with gaps."""
        rng = random.Random(60 + n)
        d = n - 1
        checked = 0
        while checked < 20:
            basis = [tuple(rng.randint(-3, 3) for _ in range(n))
                     for _ in range(d)]
            shift = tuple(rng.randint(-5, 5) for _ in range(n))
            coeffs = {tuple(rng.randint(-3, 3) for _ in range(d))
                      for _ in range(rng.randint(d + 1, 50))}
            pts = list({tuple(s + sum(map(mul, c, col))
                              for s, col in zip(shift, zip(*basis)))
                        for c in coeffs})
            rng.shuffle(pts)
            rank, pivots, _rows, _base = kernel.affine_frame(pts)
            if rank != d:
                continue
            proj = [tuple(p[c] for c in pivots) for p in pts]
            extreme = (kernel.hull2d_indices(proj) if d == 2
                       else kernel.hull_facets(proj)[0])
            _check_prune(proj, extreme, kernel.plus_minus_directions(d))
            checked += 1


    @pytest.mark.parametrize("d", [3, 4])
    def test_never_drops_extreme_lattice_and_ends(self, d):
        """Lattice clouds as the brute-force oracle builds them: m times
        P^2 x P^1 of bidegree (1, 1), a simplex-prism, and boxes cut by
        skew half-spaces, translated, at small levels m; each both whole
        and as the two ends of its lines along the last coordinate, sorted
        and shuffled.  Every pruned cloud keeps every extreme point of the
        whole cloud."""
        rng = random.Random(70 + d)
        dirs = kernel.plus_minus_directions(d)
        checked = 0
        while checked < 24:
            m = rng.randint(1, 5 if d == 3 else 2)
            if d == 3 and checked % 3 == 0:
                normals = [(1, 0, 0), (0, 1, 0), (-1, -1, 0), (0, 0, 1),
                           (0, 0, -1)]
                offs = [0, 0, -m, 0, -m]
            else:
                normals = [tuple(rng.choice((-3, -2, -1, 1, 2, 3))
                                 for _ in range(d))
                           for _ in range(rng.randint(1, 3))]
                normals += [tuple(int(i == j) for j in range(d))
                            for i in range(d)]
                normals += [tuple(-int(i == j) for j in range(d))
                            for i in range(d)]
                offs = ([-rng.randint(m, 3 * m) for _ in normals[:-2 * d]]
                        + [0] * d + [-m] * d)
            shift = [rng.randint(-4, 4) for _ in range(d)]
            offs = [o + sum(map(mul, n, shift)) for n, o in zip(normals, offs)]
            lo = [s - 3 * m for s in shift]
            hi = [s + 3 * m for s in shift]
            lines = kernel.lattice_lines(normals, offs, lo, hi)
            full = [head + (v,) for head, a, b in lines
                    for v in range(a, b + 1)]
            if len(full) <= d or kernel.affine_frame(full)[0] < d:
                continue
            extreme = {full[i] for i in kernel.hull_facets(full)[0]}
            ends = [head + (v,) for head, a, b in lines
                    for v in dict.fromkeys((a, b))]
            for cloud in (full, ends, rng.sample(ends, len(ends))):
                keep = kernel.prune_interior(cloud, dirs)
                assert keep == sorted(set(keep))
                assert extreme <= {cloud[i] for i in keep}, (normals, offs)
            checked += 1


def test_active_lane_reports_python():
    assert kernel.active_lane() == "python"
