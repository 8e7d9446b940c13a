"""Exact rational convex polytopes with dual V/H descriptions.

The vertex description is canonical (sorted tuple of coordinate tuples of
``Fraction``); the half-space description is a normalized cache computed on
demand (primitive integer normals, lexicographically sorted).  All
operations are pure and exact; floats never appear.

Each polytope has one frame and one hull, computed once and cached: the
frame projects the affine hull injectively onto its pivot coordinates,
which scaled per axis become integer points, and `_int_hull` gives their
extreme points and facets.  `hull` keeps the extreme points, `to_hrep`
maps the facets back to ambient half-spaces, and `volume_in_dim` sums
simplices over the same facets.  Integer point sets over one common
denominator m (finite-level bodies) enter through `lattice_hull`, which
runs the frame and the hull on the integers and makes `Fraction`s only
of the extreme points, divided by m.

Half-space systems enter through `from_halfspaces` as primitive integer
rows.  Each vertex comes from the integer minors of n rows (Cramer's
rule), is tested against every row in integers, and becomes a `Fraction`
only once it is feasible and distinct.

Empty polytopes (from infeasible half-space systems or empty slices) are
first-class values with an explicit flag rather than a sentinel.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction
from itertools import combinations
from math import factorial, gcd, prod
from operator import mul

from . import kernel
from .linalg import (clear_denominators_columns, dot, frac, int_det,
                     nullspace, primitive_int_vector, qvec, rank, vec_sub)
# unused here, but perfbench's tracer rebinds polytope.solve and needs the name
from .linalg import solve  # noqa: F401
from .lp import recession_is_trivial

QVec = tuple[Fraction, ...]


@dataclass(frozen=True)
class HalfSpace:
    """The set {x : normal . x <= offset}."""

    normal: QVec
    offset: Fraction

    def __post_init__(self):
        if all(c == 0 for c in self.normal):
            raise ValueError("half-space normal must be nonzero")

    def violation(self, point) -> Fraction:
        return dot(self.normal, point) - self.offset

    def normalized(self) -> "HalfSpace":
        ints, mult = primitive_int_vector(self.normal)
        return HalfSpace(qvec(ints), self.offset * mult)


class Polytope:
    """Bounded rational polytope, canonically the hull of its vertices.

    `_hull` caches the frame and integer hull of the vertices (see
    `_frame_hull`); `hull` fills it from the hull it computes anyway, and
    the other constructors leave it to be filled on first use.
    """

    __slots__ = ("ambient_dim", "vertices", "_dim", "_hrep", "_hull")

    def __init__(self, ambient_dim: int, vertices, _dim=None, _trusted=False,
                 _hull=None):
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        if not _trusted:
            raise ValueError("use Polytope.hull / from_halfspaces / empty")
        self.ambient_dim = ambient_dim
        self.vertices = tuple(vertices)
        self._dim = _dim
        self._hrep = None
        self._hull = _hull

    # -- constructors ------------------------------------------------------

    @staticmethod
    def hull(points) -> "Polytope":
        """Convex hull; removes redundant points, idempotent."""
        n, pts = _distinct_points([qvec(p) for p in points])
        extreme, fh = _frame_hull(pts)
        return Polytope(n, [pts[i] for i in extreme], _dim=fh[0],
                        _trusted=True, _hull=fh)

    @staticmethod
    def lattice_hull(points, m=1) -> "Polytope":
        """Convex hull of {p/m} for integer tuples p and an integer m >= 1.

        Equals `hull([p/m for p in points])`, but the frame and the hull run
        on the integer points themselves, whose pivot coordinates are
        already integer hull coordinates; only the extreme points become
        Fractions.  Like `scale`, it leaves the hull to be cached on first
        use.
        """
        if m < 1:
            raise ValueError("lattice hull denominator must be >= 1")
        n, pts = _distinct_points([tuple(p) for p in points])
        d, pivots, _rows = _frame(pts)
        extreme = [0]
        if d:
            ints = [tuple(p[c] for c in pivots) for p in pts]
            extreme = sorted(_int_hull(ints, d)[0])
        verts = [tuple(Fraction(c, m) for c in pts[i]) for i in extreme]
        return Polytope(n, verts, _dim=d, _trusted=True)

    @staticmethod
    def empty(ambient_dim: int) -> "Polytope":
        return Polytope(ambient_dim, (), _dim=-1, _trusted=True)

    @staticmethod
    def point(coords) -> "Polytope":
        v = qvec(coords)
        return Polytope(len(v), (v,), _dim=0, _trusted=True)

    @staticmethod
    def from_halfspaces(halfspaces, ambient_dim: int) -> "Polytope":
        """Vertex enumeration of an intersection of half-spaces.

        The system must be bounded (raises otherwise); an infeasible system
        yields the empty polytope.  Each half-space becomes one primitive
        integer row.  Boundedness is decided without LP, by
        `recession_is_trivial` on those rows' normals; the vertices are
        the feasible solutions of the n-row subsystems, found from integer
        minors by Cramer's rule and made `Fraction`s only once they are
        feasible and distinct.
        """
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        hs = list(halfspaces)
        if any(len(h.normal) != ambient_dim for h in hs):
            raise ValueError("half-space normal length does not match ambient_dim")
        verts = _vertex_enum(hs, ambient_dim)
        if not verts:
            return Polytope.empty(ambient_dim)
        return Polytope.hull(verts)

    # -- basic structure ---------------------------------------------------

    @property
    def is_empty(self) -> bool:
        return not self.vertices

    def dim(self) -> int:
        """Dimension of the affine hull; 0 for a point, -1 for empty."""
        return self._dim

    def _cached_hull(self):
        if self._hull is None:
            self._hull = _frame_hull(self.vertices)[1]
        return self._hull

    def __eq__(self, other):
        return (isinstance(other, Polytope)
                and self.ambient_dim == other.ambient_dim
                and self.vertices == other.vertices)

    def __hash__(self):
        return hash((self.ambient_dim, self.vertices))

    def __repr__(self):
        if self.is_empty:
            return f"Polytope.empty({self.ambient_dim})"
        return (f"<Polytope dim {self.dim()} in R^{self.ambient_dim}, "
                f"{len(self.vertices)} vertices>")

    # -- H-description -----------------------------------------------------

    def to_hrep(self) -> tuple[HalfSpace, ...]:
        """Minimal normalized half-space description.

        Lower-dimensional bodies carry their affine hull as equality pairs;
        the empty polytope is encoded by a canonical contradictory pair.
        The facets are those of the cached hull, mapped back to R^n.
        """
        if self._hrep is None:
            self._hrep = self._compute_hrep()
        return self._hrep

    def _compute_hrep(self):
        n = self.ambient_dim
        if self.is_empty:
            e1 = qvec([1] + [0] * (n - 1))
            me1 = qvec([-1] + [0] * (n - 1))
            return tuple(sorted(
                [HalfSpace(e1, Fraction(-1)), HalfSpace(me1, Fraction(0))],
                key=_hs_key))
        out = _facet_halfspaces(self.vertices[0], self._cached_hull())
        return tuple(sorted((h.normalized() for h in out), key=_hs_key))

    # -- spec operations ---------------------------------------------------

    def minkowski_sum(self, other: "Polytope") -> "Polytope":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch in Minkowski sum")
        if self.is_empty or other.is_empty:
            return Polytope.empty(self.ambient_dim)
        sums = [tuple(a + b for a, b in zip(p, q))
                for p in self.vertices for q in other.vertices]
        return Polytope.hull(sums)

    __add__ = minkowski_sum

    def product(self, other: "Polytope") -> "Polytope":
        """Cartesian product of self in R^m and other in R^n, in R^(m+n).

        Every pair of vertices is a vertex, and pairs drawn from two sorted
        vertex lists come out sorted, so no hull is computed; dimensions
        add and volumes multiply.  Equals self.embed(0, n) + other.embed(m, 0).
        """
        ambient = self.ambient_dim + other.ambient_dim
        if self.is_empty or other.is_empty:
            return Polytope.empty(ambient)
        pairs = [p + q for p in self.vertices for q in other.vertices]
        return Polytope(ambient, pairs, _dim=self._dim + other._dim,
                        _trusted=True)

    def contains(self, other: "Polytope") -> tuple[bool, Fraction]:
        """(containment verdict, worst constraint violation).

        Margin is 0 exactly when every vertex of `other` satisfies every
        half-space of `self`.
        """
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch in containment test")
        if other.is_empty:
            return True, Fraction(0)
        margin = Fraction(0)
        for h in self.to_hrep():
            for v in other.vertices:
                viol = h.violation(v)
                if viol > margin:
                    margin = viol
        return margin == 0, margin

    def support(self, normal) -> Fraction:
        """Support function h(normal) = max of normal . v over the vertices
        (nonempty polytopes only)."""
        return max(dot(normal, v) for v in self.vertices)

    def volume_in_dim(self, k: int) -> Fraction:
        """Exact k-dimensional Lebesgue volume.

        Requires k >= dim; returns 0 when dim < k.  For k == dim <
        ambient_dim the affine hull must be an axis-aligned (coordinate)
        subspace, possibly translated; skew lower-dimensional bodies are
        rejected.  The volume is summed over the facets of the cached hull.
        """
        if self.is_empty:
            return Fraction(0)
        d = self.dim()
        if k < d:
            raise ValueError("body exceeds requested dimension")
        if k > d:
            return Fraction(0)
        if d == 0:
            return Fraction(1)
        _d, pivots, _rows, ints, mults, facets = self._cached_hull()
        p0 = self.vertices[0]
        fixed = [c for c in range(self.ambient_dim) if c not in pivots]
        if any(p[c] != p0[c] for p in self.vertices for c in fixed):
            raise ValueError(
                "volume_in_dim needs an axis-aligned affine hull; "
                "got a skew %d-dimensional body in R^%d" % (d, self.ambient_dim))
        return _int_volume(ints, d, facets) / prod(mults)

    def scale(self, lam) -> "Polytope":
        """Dilation {lam * x : x in P} about the origin, lam >= 0."""
        lam = frac(lam)
        if lam < 0:
            raise ValueError("scale factor must be >= 0")
        if self.is_empty:
            return self
        if lam == 0:
            return Polytope.point([0] * self.ambient_dim)
        return Polytope(self.ambient_dim,
                        sorted(tuple(lam * c for c in v) for v in self.vertices),
                        _dim=self._dim, _trusted=True)

    def translate(self, vec) -> "Polytope":
        v = qvec(vec)
        if self.is_empty:
            return self
        return Polytope(self.ambient_dim,
                        sorted(tuple(a + b for a, b in zip(p, v))
                               for p in self.vertices),
                        _dim=self._dim, _trusted=True)

    def embed(self, zeros_before: int, zeros_after: int) -> "Polytope":
        """Pad vertices with zero coordinates before/after."""
        if zeros_before < 0 or zeros_after < 0:
            raise ValueError("padding counts must be >= 0")
        zb = (Fraction(0),) * zeros_before
        za = (Fraction(0),) * zeros_after
        n = self.ambient_dim + zeros_before + zeros_after
        if self.is_empty:
            return Polytope.empty(n)
        return Polytope(n, sorted(zb + v + za for v in self.vertices),
                        _dim=self._dim, _trusted=True)

    def slice_prefix_zero(self, k: int) -> "Polytope":
        """Intersection with {x_1 = ... = x_k = 0}, in the same ambient space."""
        if not 0 <= k <= self.ambient_dim:
            raise ValueError("slice count out of range")
        if k == 0 or self.is_empty:
            return self
        hs = list(self.to_hrep())
        for i in range(k):
            e = [Fraction(0)] * self.ambient_dim
            e[i] = Fraction(1)
            hs.append(HalfSpace(tuple(e), Fraction(0)))
            hs.append(HalfSpace(tuple(-c for c in e), Fraction(0)))
        return Polytope.from_halfspaces(hs, self.ambient_dim)

    # -- serialization -----------------------------------------------------

    def to_obj(self):
        return {"ambient_dim": self.ambient_dim,
                "vertices": [[str(c) for c in v] for v in self.vertices]}

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))

    @staticmethod
    def from_obj(obj) -> "Polytope":
        n = int(obj["ambient_dim"])
        verts = obj["vertices"]
        if not verts:
            return Polytope.empty(n)
        pts = [qvec(v) for v in verts]
        if any(len(p) != n for p in pts):
            raise ValueError("vertex length does not match ambient_dim")
        return Polytope.hull(pts)

    @staticmethod
    def from_json(s: str) -> "Polytope":
        return Polytope.from_obj(json.loads(s))


def hull(points) -> Polytope:
    return Polytope.hull(points)


def _hs_key(h: HalfSpace):
    return (tuple(h.normal), h.offset)


# -- frame and hull ----------------------------------------------------------


def _distinct_points(pts):
    """(ambient dimension, sorted distinct points) of a list of tuples;
    raises ValueError on an empty list or on mixed lengths."""
    if not pts:
        raise ValueError("empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("points of mixed ambient dimension")
    return n, sorted(set(pts))


def _frame(pts):
    """(d, sorted pivot columns, echelon rows) of the affine hull of pts.

    The rows span the direction space of the hull, and each row's leading
    nonzero entry sits at its own pivot column.  Restricted to the pivot
    columns the rows thus form a unit triangular matrix, so projecting onto
    the pivot columns is injective on the affine hull: the projected
    points, scaled per axis to integers, are exact hull coordinates.
    """
    p0 = pts[0]
    n = len(p0)
    echelon = []
    for p in pts[1:]:
        if len(echelon) == n:
            break
        w = list(vec_sub(p, p0))
        for row, piv in echelon:
            if w[piv] != 0:
                f = w[piv]
                w = [a - f * b for a, b in zip(w, row)]
        piv = next((i for i, a in enumerate(w) if a != 0), None)
        if piv is not None:
            inv = Fraction(1) / w[piv]
            echelon.append(([a * inv for a in w], piv))
    return (len(echelon), sorted(piv for _, piv in echelon),
            [row for row, _ in echelon])


def _frame_hull(pts):
    """Extreme indices among distinct rational points, and their hull.

    The hull is (d, pivots, rows, ints, mults, facets) as in `_frame`,
    with ints[k] = mults * (pivot coordinates of the k-th extreme point)
    and facets as in `_int_hull`, re-indexed onto the extreme points.
    """
    d, pivots, rows = _frame(pts)
    if d == 0:
        return [0], (0, pivots, rows, [()], (), [])
    ints, mults = clear_denominators_columns(
        [tuple(p[c] for c in pivots) for p in pts])
    extreme, facets = _int_hull(ints, d)
    extreme = sorted(extreme)
    new = {i: k for k, i in enumerate(extreme)}
    facets = [(nrm, off, [new[i] for i in members if i in new])
              for nrm, off, members in facets]
    return extreme, (d, pivots, rows, [ints[i] for i in extreme], mults, facets)


def _int_hull(ints, d):
    """Hull of a full-dimensional set of distinct integer points in R^d.

    Returns (extreme indices, facets); each facet is (outward integer
    normal, offset, member indices) with normal . p <= offset on every
    point.  Members are the facet's corners in boundary order for d <= 3
    (CCW seen from outside in R^3), all incident points for d >= 4.
    """
    if d == 1:
        lo = min(range(len(ints)), key=lambda i: ints[i])
        hi = max(range(len(ints)), key=lambda i: ints[i])
        return [lo, hi], [((1,), ints[hi][0], [hi]),
                          ((-1,), -ints[lo][0], [lo])]
    if d == 2:
        cyc = kernel.hull2d_indices(ints)
        facets = []
        for i, j in zip(cyc, cyc[1:] + cyc[:1]):
            (ax, ay), (bx, by) = ints[i], ints[j]
            nrm = (by - ay, ax - bx)  # outward for a CCW polygon
            facets.append((nrm, nrm[0] * ax + nrm[1] * ay, [i, j]))
        return cyc, facets
    if d == 3:
        if len(ints) <= 64:
            return kernel.hull3d_facets(ints)
        idxmap = kernel.prune_interior(ints, kernel._DIRS3)
        extreme, facets = kernel.hull3d_facets([ints[i] for i in idxmap])
        return ([idxmap[i] for i in extreme],
                [(nrm, off, [idxmap[i] for i in poly])
                 for nrm, off, poly in facets])
    if len(ints) > 48:
        raise NotImplementedError(
            "hulls of more than 48 points are only supported up to dimension 3")
    facets = _brute_facets(ints, d)
    on = {i: [] for i in range(len(ints))}
    for nrm, _off, members in facets:
        for i in members:
            on[i].append(nrm)
    extreme = [i for i, nrms in on.items() if nrms and rank(nrms) == d]
    return extreme, facets


def _brute_facets(ints, d):
    """All facets of a full-dimensional integer point set in R^d.

    Returns (primitive outward normal, offset, member indices) triples.
    Exponential in the input: reserved for small sets in dimension >= 4.
    """
    facets = {}
    npts = len(ints)
    for sub in combinations(range(npts), d):
        diffs = [vec_sub(qvec(ints[i]), qvec(ints[sub[0]])) for i in sub[1:]]
        if rank(diffs) != d - 1:
            continue
        ns = nullspace(diffs)
        if len(ns) != 1:
            continue
        nrm, _ = primitive_int_vector(ns[0])
        off = sum(a * b for a, b in zip(nrm, ints[sub[0]]))
        sides = [sum(a * b for a, b in zip(nrm, p)) - off for p in ints]
        if all(s <= 0 for s in sides):
            pass
        elif all(s >= 0 for s in sides):
            nrm = tuple(-a for a in nrm)
            off = -off
            sides = [-s for s in sides]
        else:
            continue
        members = tuple(i for i, s in enumerate(sides) if s == 0)
        facets[(nrm, off)] = members
    return [(n, o, m) for (n, o), m in sorted(facets.items())]


# -- facet enumeration (H-description) --------------------------------------


def _facet_halfspaces(p0, frame_hull):
    """Half-spaces of a polytope with vertex p0 and the given frame and
    hull: facet inequalities plus affine-hull equality pairs for
    lower-dimensional bodies.  A facet g . y <= c of the integer
    coordinates y = mults * x[pivots] is the ambient half-space with
    normal g * mults on the pivot columns, zero elsewhere."""
    n = len(p0)
    d, pivots, rows, _ints, mults, facets = frame_hull
    out = []
    if d < n:
        if rows:
            hullspace = nullspace(rows)
        else:
            hullspace = [tuple(Fraction(1) if j == i else Fraction(0)
                               for j in range(n)) for i in range(n)]
        for w in hullspace:
            c = dot(w, p0)
            out.append(HalfSpace(qvec(w), c))
            out.append(HalfSpace(tuple(-x for x in w), -c))
    for g, c, _members in facets:
        normal = [Fraction(0)] * n
        for gi, mi, col in zip(g, mults, pivots):
            normal[col] = gi * mi
        out.append(HalfSpace(tuple(normal), Fraction(c)))
    return out


# -- vertex enumeration (H -> V) ---------------------------------------------


def _vertex_enum(halfspaces, n):
    """Sorted vertices of the intersection of half-spaces (must be bounded).

    Each half-space a . x <= c becomes one primitive integer row (a, c).
    An n-subset S of rows with D = det(A_S) != 0 meets in the point num / D,
    where num_j is the minor of A_S with column j replaced by c_S (Cramer's
    rule).  With D > 0 and gcd(num, D) = 1 that pair is an exact key, and
    the point is feasible iff a . num <= c * D on every row.  Only the
    distinct feasible keys become Fractions.
    """
    rows = list(dict.fromkeys(
        primitive_int_vector(tuple(h.normal) + (h.offset,))[0]
        for h in halfspaces))
    if not recession_is_trivial([r[:n] for r in rows], n):
        raise ValueError("half-space system is unbounded")
    seen = set()
    verts = []
    for sub in combinations(rows, n):
        den = int_det([r[:n] for r in sub])
        if den == 0:
            continue
        num = [int_det([r[:j] + r[n:] + r[j + 1:n] for r in sub])
               for j in range(n)]
        if den < 0:
            den, num = -den, [-x for x in num]
        g = gcd(den, *num)
        key = (tuple(x // g for x in num), den // g)
        if key in seen:
            continue
        seen.add(key)
        num, den = key
        if all(sum(map(mul, r, num)) <= r[n] * den for r in rows):
            verts.append(tuple(Fraction(x, den) for x in num))
    return sorted(verts)


# -- exact volume ------------------------------------------------------------


# d! times the signed volume of the simplex (p0, a, ...)
_SIMPLEX_ORIENT = {1: lambda p0, a: a[0] - p0[0],
                   2: kernel.orient2d,
                   3: kernel.orient3d}


def _int_volume(ints, d, facets):
    """Volume of the full-dimensional hull of integer vertices in R^d with
    the given facets, d <= 3: the cones from the lex-min vertex over the
    facets that miss it, each facet fanned into simplices from its first
    corner."""
    if d > 3:
        raise NotImplementedError("exact volume is implemented up to dimension 3")
    orient = _SIMPLEX_ORIENT[d]
    v0 = min(range(len(ints)), key=lambda i: ints[i])
    p0 = ints[v0]
    total = 0
    for _nrm, _off, poly in facets:
        if v0 in poly:
            continue
        for i in range(1, len(poly) - d + 2):
            total += orient(p0, *(ints[j] for j in poly[:1] + poly[i:i + d - 1]))
    if total < 0:
        raise AssertionError("inconsistent facet orientation in volume")
    return Fraction(total, factorial(d))

