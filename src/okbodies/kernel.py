"""Exact integer-geometry kernels and the 3D hull driver.

These are the hot inner loops of the package: orientation predicates, the
2D monotone chain, 3D gift wrapping, the interior-point prefilter, and
lattice-point enumeration.  All inputs are plain Python ints, so results
are exact for any magnitude.
"""

from __future__ import annotations

from collections import deque
from math import gcd


def active_lane() -> str:
    """Name of the integer-geometry implementation; there is one."""
    return "python"


def orient2d(a, b, c) -> int:
    return (b[0] - a[0]) * (c[1] - a[1]) - (b[1] - a[1]) * (c[0] - a[0])


def orient3d(a, b, c, d) -> int:
    ux, uy, uz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    vx, vy, vz = c[0] - a[0], c[1] - a[1], c[2] - a[2]
    wx, wy, wz = d[0] - a[0], d[1] - a[1], d[2] - a[2]
    return (ux * (vy * wz - vz * wy)
            - uy * (vx * wz - vz * wx)
            + uz * (vx * wy - vy * wx))


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


def pivot3d(pts, a, b):
    """Gift-wrap pivot around the directed edge (a, b) of a 3D hull.

    Returns c with orient3d(pts[a], pts[b], pts[c], p) <= 0 for every point
    p, i.e. (a, b, c) spans a supporting plane with outward normal
    cross(pb - pa, pc - pa).  Requires a full-dimensional point set.
    """
    pa, pb = pts[a], pts[b]
    c = -1
    pc = None
    for i in range(len(pts)):
        if i == a or i == b:
            continue
        if c < 0:
            if _collinear(pa, pb, pts[i]):
                continue
            c = i
            pc = pts[i]
            continue
        if orient3d(pa, pb, pc, pts[i]) > 0:
            c = i
            pc = pts[i]
    return c


def _collinear(a, b, p) -> bool:
    ux, uy, uz = b[0] - a[0], b[1] - a[1], b[2] - a[2]
    vx, vy, vz = p[0] - a[0], p[1] - a[1], p[2] - a[2]
    return (uy * vz - uz * vy == 0
            and uz * vx - ux * vz == 0
            and ux * vy - uy * vx == 0)


def coplanar3d(pts, a, b, c):
    """All indices whose points lie on the plane through pts[a,b,c]."""
    pa, pb, pc = pts[a], pts[b], pts[c]
    return [i for i in range(len(pts)) if orient3d(pa, pb, pc, pts[i]) == 0]


def prune_interior(pts, dirs):
    """Indices of points that are not obvious midpoints of neighbours.

    A point with both p+d and p-d present (d from `dirs`) is their midpoint,
    hence not extreme; dropping it is always safe.  This is a prefilter for
    hulls of dense lattice-point clouds.
    """
    pset = set(pts)
    keep = []
    for i, p in enumerate(pts):
        interior = False
        for d in dirs:
            plus = tuple(p[k] + d[k] for k in range(len(p)))
            if plus not in pset:
                continue
            minus = tuple(p[k] - d[k] for k in range(len(p)))
            if minus in pset:
                interior = True
                break
        if not interior:
            keep.append(i)
    return keep


def lattice_points(normals, offsets, lo, hi):
    """Integer points u in the box [lo, hi] with normals[j].u >= offsets[j].

    Output is in lexicographic order.  Prunes a coordinate prefix when no
    completion inside the box can satisfy some constraint.
    """
    dim = len(lo)
    m = len(normals)
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
        if k == dim:
            out.append(tuple(u))
            return
        base = partial[k]
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


def plus_minus_directions(dim):
    """Nonzero {-1,0,1} vectors up to sign, for the interior-point prefilter."""
    dirs = []

    def rec(prefix):
        if len(prefix) == dim:
            if any(prefix):
                dirs.append(tuple(prefix))
            return
        first = next((x for x in prefix if x), 0)
        for v in ((0, 1) if first == 0 else (-1, 0, 1)):
            rec(prefix + [v])

    rec([])
    return dirs


_DIRS3 = plus_minus_directions(3)


def _primitive(vec):
    g = 0
    for x in vec:
        g = gcd(g, abs(x))
    return tuple(x // g for x in vec) if g else tuple(vec)


def _cross(u, v):
    return (u[1] * v[2] - u[2] * v[1],
            u[2] * v[0] - u[0] * v[2],
            u[0] * v[1] - u[1] * v[0])


def _initial_edge(pts):
    """An edge of the 3D hull: wrap the xy-shadow, then wrap inside the
    vertical support plane it determines."""
    i0 = min(range(len(pts)), key=lambda i: pts[i])
    p0 = pts[i0]
    c = -1
    for i, p in enumerate(pts):
        if (p[0], p[1]) == (p0[0], p0[1]):
            continue
        if c < 0:
            c = i
        elif orient2d(p0, pts[c], p) < 0:
            c = i
    if c < 0:
        raise ValueError("point set is vertical; not full-dimensional")
    d2 = (pts[c][0] - p0[0], pts[c][1] - p0[1])
    in_plane = [i for i, p in enumerate(pts)
                if orient2d(p0, pts[c], p) == 0]
    # 2D hull inside the vertical plane; coordinates (along-line, z)
    coords = [((pts[i][0] - p0[0]) * d2[0] + (pts[i][1] - p0[1]) * d2[1],
               pts[i][2]) for i in in_plane]
    sub = hull2d_indices(coords)
    return in_plane[sub[0]], in_plane[sub[1]]


def hull3d_facets(pts):
    """Facets of the hull of a full-dimensional set of distinct int triples.

    Returns (extreme_indices, facets); each facet is (outward primitive
    integer normal, integer offset, vertex indices CCW seen from outside).
    Gift wrapping with exact predicates.
    """
    e0 = _initial_edge(pts)
    queue = deque([e0, (e0[1], e0[0])])
    edge_facet = {}
    facet_key_to_id = {}
    facets = []

    while queue:
        a, b = queue.popleft()
        if (a, b) in edge_facet:
            continue
        c = pivot3d(pts, a, b)
        pa, pb, pc = pts[a], pts[b], pts[c]
        n = _cross((pb[0] - pa[0], pb[1] - pa[1], pb[2] - pa[2]),
                   (pc[0] - pa[0], pc[1] - pa[1], pc[2] - pa[2]))
        n = _primitive(n)
        off = n[0] * pa[0] + n[1] * pa[1] + n[2] * pa[2]
        key = (n, off)
        if key in facet_key_to_id:
            poly = facets[facet_key_to_id[key]][2]
        else:
            cop = coplanar3d(pts, a, b, c)
            poly = _facet_polygon(pts, cop, n)
            facet_key_to_id[key] = len(facets)
            facets.append((n, off, poly))
        k = len(poly)
        directed = {(poly[i], poly[(i + 1) % k]) for i in range(k)}
        if (a, b) not in directed:
            raise AssertionError("wrap invariant broken: edge not on facet")
        for i in range(k):
            u, v = poly[i], poly[(i + 1) % k]
            edge_facet[(u, v)] = facet_key_to_id[key]
            if (v, u) not in edge_facet:
                queue.append((v, u))

    extreme = sorted({v for _, _, poly in facets for v in poly})
    return extreme, facets


def _facet_polygon(pts, cop, n):
    """Order the coplanar points of one facet CCW w.r.t. the outward normal
    n, dropping non-corners.  Returns original indices."""
    k = max(range(3), key=lambda i: abs(n[i]))
    i1, j1 = [(1, 2), (2, 0), (0, 1)][k]  # (i1, j1, k) is an even permutation
    proj = [(pts[i][i1], pts[i][j1]) for i in cop]
    sub = hull2d_indices(proj)
    poly = [cop[s] for s in sub]
    if n[k] < 0:
        poly.reverse()
    return poly
