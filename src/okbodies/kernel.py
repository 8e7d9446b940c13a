"""Exact integer-geometry kernels and the hull engine.

These are the hot inner loops of the package: the 2D orientation
predicate and monotone chain, the fraction-free affine frame, the
beneath-beyond hull engine for any dimension, which places the points
farthest from their centroid first so that most non-extreme points
build no boundary simplex (each one built costs a normal, whose d = 3
and d = 4 closed forms read the points with no list of difference rows,
a comprehension and so a function call per row), the prefilter that
keeps the two ends of each line along every coordinate axis in turn,
first axis to last (the other points of a line lie between them, and the
brute-force oracle's clouds hold only line ends along the last axis, so
that pass comes last, on the fewest points), and lattice enumeration,
which prunes coordinate prefixes and solves the last coordinate by
integer floor division, so it yields whole lines (prefix, least,
greatest) that callers expand to points or hull by their ends.  All
inputs are plain Python ints, so results are exact for any magnitude.
"""

from __future__ import annotations

from math import gcd
from operator import mul, neg

from .linalg import int_det


def active_lane() -> str:
    """Name of the integer-geometry implementation; there is one."""
    return "python"


def orient2d(a, b, c) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def hull2d_indices(pts):
    """Indices of the convex hull of distinct integer pairs, CCW from lex-min.

    Collinear non-extreme points are dropped.
    """
    idx = sorted(range(len(pts)), key=lambda i: pts[i])
    if len(idx) <= 2:
        return idx
    lower = []
    for i in idx:
        while len(lower) >= 2 and orient2d(pts[lower[-2]], pts[lower[-1]], pts[i]) <= 0:
            lower.pop()
        lower.append(i)
    upper = []
    for i in reversed(idx):
        while len(upper) >= 2 and orient2d(pts[upper[-2]], pts[upper[-1]], pts[i]) <= 0:
            upper.pop()
        upper.append(i)
    hull = lower[:-1] + upper[:-1]
    if len(hull) == 1:  # all points collinear collapses both chains
        hull = [idx[0], idx[-1]]
    return hull


def affine_frame(pts):
    """(d, sorted pivot columns, echelon rows, base) of the affine hull of
    integer points.

    The rows span the direction space of the hull, and each row's leading
    nonzero entry sits at its own pivot column, where every later row is
    zero.  Restricted to the pivot columns the rows thus form a triangular
    matrix with a nonzero diagonal, so projecting onto the pivot columns
    is injective on the affine hull: the projected integer points are
    exact hull coordinates.  The elimination is fraction-free: each step
    cross-multiplies, and each new row is divided by its content.  `base`
    holds the indices of d + 1 affinely independent points: 0 and each
    point that raised the rank.
    """
    p0 = pts[0]
    n = len(p0)
    echelon = []
    base = [0]
    for i in range(1, len(pts)):
        if len(echelon) == n:
            break
        w = [a - b for a, b in zip(pts[i], p0)]
        for row, piv in echelon:
            f = w[piv]
            if f:
                r = row[piv]
                w = [r * a - f * b for a, b in zip(w, row)]
        piv = next((j for j, a in enumerate(w) if a), None)
        if piv is not None:
            g = gcd(*w)
            echelon.append(([a // g for a in w], piv))
            base.append(i)
    return (len(echelon), sorted(piv for _, piv in echelon),
            [row for row, _ in echelon], base)


def _normal(f):
    """Unreduced normal of the hyperplane through d integer points in R^d:
    the vector of signed maximal minors of the differences f[j] - f[0].

    It runs once per boundary simplex, so the d = 3 and d = 4 closed forms
    read the points and subtract inline: a list of difference rows would
    cost a comprehension, a function call, per row, more than the
    arithmetic.  Other d expand the minors of those rows."""
    d = len(f[0])
    if d == 3:
        (o1, o2, o3), (a1, a2, a3), (b1, b2, b3) = f
        a1, a2, a3 = a1 - o1, a2 - o2, a3 - o3
        b1, b2, b3 = b1 - o1, b2 - o2, b3 - o3
        return (a2 * b3 - a3 * b2, a3 * b1 - a1 * b3, a1 * b2 - a2 * b1)
    if d == 4:  # 3x3 minors along their last row, by the 2x2 minors m_ij
        ((o0, o1, o2, o3), (a0, a1, a2, a3), (b0, b1, b2, b3),
         (c0, c1, c2, c3)) = f
        a0, a1, a2, a3 = a0 - o0, a1 - o1, a2 - o2, a3 - o3
        b0, b1, b2, b3 = b0 - o0, b1 - o1, b2 - o2, b3 - o3
        c0, c1, c2, c3 = c0 - o0, c1 - o1, c2 - o2, c3 - o3
        m01, m02, m03 = a0 * b1 - a1 * b0, a0 * b2 - a2 * b0, a0 * b3 - a3 * b0
        m12, m13, m23 = a1 * b2 - a2 * b1, a1 * b3 - a3 * b1, a2 * b3 - a3 * b2
        return (c1 * m23 - c2 * m13 + c3 * m12, c2 * m03 - c0 * m23 - c3 * m02,
                c0 * m13 - c1 * m03 + c3 * m01, c1 * m02 - c0 * m12 - c2 * m01)
    f0 = f[0]
    u = [[a - b for a, b in zip(p, f0)] for p in f[1:]]
    return tuple((-1) ** k * int_det([r[:k] + r[k + 1:] for r in u])
                 for k in range(d))


def hull_facets(pts, base=None):
    """Hull of distinct integer points spanning R^d, d >= 2.

    Returns (extreme indices, facets, dvol): extreme indices sorted,
    facets as (primitive outward normal a, offset c) with a . p <= c on
    every point, and dvol = d! times the volume of the hull.

    Beneath-beyond, building a placing triangulation, farthest point
    first.  The points are ordered by decreasing distance from their
    centroid g, compared exactly as |n p - (sum of all points)|^2 =
    n^2 |p - g|^2 for n points, ties by index.  The first affinely
    independent (d + 1)-subset in that order, or the indices `base` of a
    caller that holds a frame of the points already, starts the
    triangulation, and the other points are placed in that order.  A
    point farthest from any fixed point is extreme: were it strictly
    between two points of the hull, one of them would be farther, as
    |x - g|^2 is strictly convex.
    So the points likely to be extreme come first, and most of the others
    then lie in the hull already, see no boundary simplex and build none.
    The starting simplex's indices are sorted, as is every simplex built
    later, because ridges are matched as sorted tuples.  Only the order
    of the facet list depends on the placing order: extreme indices are
    sorted, facets are keyed by primitive (normal, offset) and dvol is
    exact.

    A boundary simplex F has the outward normal N_F of `_normal` and
    offset c_F = N_F . f at its vertices; it is visible from p when
    h_F(p) = N_F . p - c_F > 0, and the simplex conv(F, p) then has d!
    times its volume equal to h_F(p).  The visible simplices give
    way to p joined to the horizon ridges, those seen once among them;
    a point that sees nothing lies in the hull and is skipped.  Facets
    are the boundary simplices grouped by primitive (normal, offset).  A
    boundary vertex v is extreme iff the point sets of its facets meet in
    {v} alone: the facets meet in the smallest face containing v, and if
    that face is not v, it has an extreme point w != v, which the
    triangulation of every facet containing the face must use.
    """
    d = len(pts[0])
    n = len(pts)
    total = tuple(map(sum, zip(*pts)))
    order = sorted(range(n), key=lambda i: -sum(  # stable: ties by index
        (n * a - s) ** 2 for a, s in zip(pts[i], total)))
    if base is None:
        rank, _pivots, _rows, base = affine_frame([pts[i] for i in order])
        if rank != d:
            raise ValueError("point set is not full-dimensional")
        base = [order[j] for j in base]
    base = sorted(base)  # ridges match as sorted tuples
    # d + 1 times an interior point: orients every normal outward
    inner = tuple(map(sum, zip(*(pts[i] for i in base))))
    k = d + 1

    def simplex(verts):
        f = [pts[i] for i in verts]
        nrm = _normal(f)
        c = sum(map(mul, nrm, f[0]))
        if sum(map(mul, nrm, inner)) > k * c:
            nrm, c = tuple(map(neg, nrm)), -c
        return nrm, c, verts

    faces = [simplex(tuple(base[:j] + base[j + 1:])) for j in range(k)]
    nrm, c, _ = faces[0]  # the facet opposite pts[base[0]]
    dvol = c - sum(map(mul, nrm, pts[base[0]]))
    placed = set(base)
    for i in order:
        if i in placed:
            continue
        p = pts[i]
        keep = []
        horizon = set()
        for face in faces:
            h = sum(map(mul, face[0], p)) - face[1]
            if h <= 0:
                keep.append(face)
                continue
            dvol += h
            verts = face[2]
            for j in range(d):
                ridge = verts[:j] + verts[j + 1:]
                if ridge in horizon:
                    horizon.remove(ridge)
                else:
                    horizon.add(ridge)
        if horizon:
            faces = keep + [simplex(tuple(sorted(r + (i,)))) for r in horizon]

    facets = {}
    for nrm, c, verts in faces:
        g = gcd(*nrm)
        key = (tuple([x // g for x in nrm]), c // g)
        facets.setdefault(key, set()).update(verts)
    incident = {}  # per boundary vertex: the point sets of its facets
    for verts in facets.values():
        for v in verts:
            incident.setdefault(v, []).append(verts)
    extreme = sorted(v for v, sets in incident.items()
                     if len(set.intersection(*sets)) == 1)
    return extreme, list(facets), dvol


# the name perfbench's tracer binds as a boundary: it counts every engine call
hull3d_facets = hull_facets


def prune_interior(pts):
    """Indices, increasing, of the points that may be extreme.

    Points that agree on every coordinate but the k-th lie on one line
    along axis k, and only that line's least and greatest points can be
    extreme: any other lies strictly between those two.  So one pass per
    axis k, from the first to the last, keeps the two ends of each such
    line among the previous pass's survivors.  A dropped point lies
    strictly between two kept ones, so each pass leaves the hull as it
    was and keeps every extreme point, in any pass order; this holds for
    any point set, sorted or not, and for pivot projections of a flat
    one.  This is a prefilter for hulls of dense lattice-point clouds.
    The last axis goes last: the brute-force oracle hands in only the two
    ends of each lattice line along it, where that pass drops nothing, so
    it should see the few survivors of the other passes, not the cloud.
    """
    survivors = list(range(len(pts)))
    for k in range(len(pts[0]) if pts else 0):
        ends = {}
        for i in survivors:
            p = pts[i]
            key = p[:k] + p[k + 1:]
            e = ends.get(key)
            if e is None:
                ends[key] = [i, i]
            elif p[k] < pts[e[0]][k]:
                e[0] = i
            elif p[k] > pts[e[1]][k]:
                e[1] = i
        survivors = sorted({i for e in ends.values() for i in e})
    return survivors


def lattice_lines(normals, offsets, lo, hi):
    """The integer points u in the box [lo, hi] with normals[j].u >= offsets[j],
    for a box of dimension >= 1, as lines: rows (head, a, b) with a <= b,
    one per prefix `head` that has a point, standing for the points
    head + (v,) with a <= v <= b, in lexicographic order.

    Each outer coordinate prunes its prefix when no completion inside the
    box can satisfy some constraint.  The last coordinate v is solved:
    with s_j the prefix's part of normals[j].u and n_j the last entry of
    normals[j], constraint j reads n_j v >= offsets[j] - s_j, a lower bound
    by ceiling division when n_j > 0, an upper bound by floor division when
    n_j < 0, and, when n_j = 0, no bound or no point.  Every constraint is
    linear in v, so the points of a prefix are exactly the integers between
    the two bounds, and integer floor division keeps each bound exact.
    """
    dim = len(lo)
    if dim < 1:
        raise ValueError("lattice box needs dimension >= 1")
    m = len(normals)
    last = dim - 1
    lastcol = [nrm[last] for nrm in normals]
    # max contribution of coordinates >= level k, per constraint
    maxrest = [[0] * (dim + 1) for _ in range(m)]
    for j in range(m):
        for k in range(dim - 1, -1, -1):
            nj = normals[j][k]
            best = nj * (hi[k] if nj > 0 else lo[k])
            maxrest[j][k] = maxrest[j][k + 1] + best
    out = []
    u = [0] * dim
    partial = [[0] * m for _ in range(dim + 1)]

    def rec(k):
        base = partial[k]
        if k == last:
            a, b = lo[last], hi[last]
            for n, r, s in zip(lastcol, offsets, base):
                if n > 0:
                    a = max(a, -((s - r) // n))
                elif n < 0:
                    b = min(b, (r - s) // n)
                elif s < r:
                    return
            if a <= b:
                out.append((tuple(u[:last]), a, b))
            return
        for v in range(lo[k], hi[k] + 1):
            u[k] = v
            nxt = partial[k + 1]
            ok = True
            for j in range(m):
                s = base[j] + normals[j][k] * v
                if s + maxrest[j][k + 1] < offsets[j]:
                    ok = False
                    break
                nxt[j] = s
            if ok:
                rec(k + 1)
        u[k] = lo[k]

    rec(0)
    return out


def lattice_points(normals, offsets, lo, hi):
    """Every integer point of `lattice_lines(normals, offsets, lo, hi)`, in
    lexicographic order: each line expanded from its least to its greatest
    point.  Callers that need only what a line spans use the lines."""
    return [head + (v,) for head, a, b in lattice_lines(normals, offsets, lo, hi)
            for v in range(a, b + 1)]

