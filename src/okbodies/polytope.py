"""Exact rational convex polytopes with dual V/H descriptions.

Inside this module a polytope is integers: a sorted tuple of integer
vertex rows over one least common denominator q (gcd(q, every entry) ==
1), a canonical form that equality and hashing compare, and, made on
first use, a sorted tuple of integer facet rows (a, c) over one
denominator qh, each meaning a . x <= c / qh with a primitive (equality
pairs included).  `Fraction`s appear only at the API edge: `vertices`
and `to_hrep` are their views, and `from_halfspaces` turns each
`HalfSpace` into a row once; the toric layer passes its integer face rows
to `_from_rows` and builds no `HalfSpace`.  Floats never appear.

Each polytope has one frame and one hull, computed once and cached: the
frame (`kernel.affine_frame`) is a fraction-free echelon of the affine
hull, whose pivot coordinates are exact integer hull coordinates, and
`_int_hull` gives their extreme points, their facets, which `_hull_rows`
maps back to R^n, and d! times their volume, which `volume_in_dim`
divides out.  A segment and a polygon are hulled directly; every higher
dimension runs the one beneath-beyond engine `kernel.hull_facets`, whose
placing triangulation, started on the frame's d + 1 independent points and
built farthest point from the centroid first, gives the volume; no result
depends on that order.  Every constructor that hulls ends in
`_int_polytope`: `hull` clears one common denominator, and `lattice_hull`
passes its integer points over m; `_image` does not hull, as an injective
affine map sends vertices to vertices.  `_from_rows`, behind
`from_halfspaces` and `slice_prefix_zero`, hulls in R^(n+1) instead:
`_vertex_enum` reads exact vertex keys off the facets of the cone polar
to the homogenised system.
Inclusions of products are decided on the facet rows by `support_rows`.

Empty polytopes (from infeasible half-space systems or empty slices) are
first-class values with an explicit flag rather than a sentinel.
"""

from __future__ import annotations

from fractions import Fraction
from itertools import accumulate, chain
from math import factorial, gcd, lcm
from operator import mul

from . import kernel
from .linalg import (clear_denominators, dot, frac, int_nullspace,
                     primitive_int_vector, qvec)
# unused here, but perfbench's tracer rebinds both names and needs them
from .linalg import solve  # noqa: F401
from .lp import recession_is_trivial  # noqa: F401
from .value import Value

QVec = tuple[Fraction, ...]


class HalfSpace(Value):
    """The set {x : normal . x <= offset}."""

    def __init__(self, normal: QVec, offset: Fraction):
        if all(c == 0 for c in normal):
            raise ValueError("half-space normal must be nonzero")
        self.normal, self.offset = normal, offset

    def violation(self, point) -> Fraction:
        return dot(self.normal, point) - self.offset


class Polytope:
    """Bounded rational polytope, canonically the hull of its vertices
    `_rows` / `_q`.

    `_hull` caches the frame and integer hull of the vertices (see
    `_frame_hull`); `_int_polytope` fills it from the hull it computes
    anyway, and the other constructors leave it to be filled on first use;
    `_hrows` caches the facet rows made from it (see `_facet_rows`).
    """

    __slots__ = ("ambient_dim", "_rows", "_q", "_vertices", "_dim", "_hrows",
                 "_hull")

    def __init__(self, ambient_dim: int, rows, q, _dim=None, _trusted=False,
                 _hull=None):
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        if not _trusted:
            raise ValueError("use Polytope.hull / from_halfspaces / empty")
        self.ambient_dim = ambient_dim
        self._rows = tuple(rows)
        self._q = q
        self._vertices = None
        self._dim = _dim
        self._hrows = None
        self._hull = _hull

    # -- constructors ------------------------------------------------------

    @staticmethod
    def hull(points) -> "Polytope":
        """Convex hull; removes redundant points, idempotent."""
        pts = [qvec(p) for p in points]
        n = _ambient_dim(pts)
        ints, q = clear_denominators(pts)
        return _int_polytope(n, ints, q)

    @staticmethod
    def lattice_hull(points, m=1) -> "Polytope":
        """Convex hull of {p/m} for integer tuples p and an integer m >= 1.

        Equals `hull([p/m for p in points])`, with no `Fraction` made."""
        if m < 1:
            raise ValueError("lattice hull denominator must be >= 1")
        pts = [tuple(p) for p in points]
        return _int_polytope(_ambient_dim(pts), pts, m)

    @staticmethod
    def empty(ambient_dim: int) -> "Polytope":
        return Polytope(ambient_dim, (), 1, _dim=-1, _trusted=True)

    @staticmethod
    def from_halfspaces(halfspaces, ambient_dim: int) -> "Polytope":
        """Vertex enumeration of an intersection of half-spaces.

        The system must be bounded (raises ValueError otherwise), and a
        float raises TypeError; an infeasible system yields the empty
        polytope.  `_vertex_enum` decides both and finds the vertices.
        """
        if ambient_dim < 1:
            raise ValueError("ambient dimension must be >= 1")
        hs = list(halfspaces)
        if any(len(h.normal) != ambient_dim for h in hs):
            raise ValueError("half-space normal length does not match ambient_dim")
        return _from_rows([qvec((*h.normal, h.offset)) for h in hs],
                          ambient_dim)

    # -- basic structure ---------------------------------------------------

    @property
    def vertices(self) -> tuple[QVec, ...]:
        """The vertices as sorted tuples of `Fraction`s."""
        if self._vertices is None:
            q = self._q
            self._vertices = tuple(tuple(Fraction(x, q) for x in r)
                                   for r in self._rows)
        return self._vertices

    @property
    def is_empty(self) -> bool:
        return not self._rows

    def dim(self) -> int:
        """Dimension of the affine hull; 0 for a point, -1 for empty."""
        return self._dim

    def _cached_hull(self):
        if self._hull is None:
            self._hull = _frame_hull(self._rows, self._q)[1]
        return self._hull

    def __eq__(self, other):
        return (isinstance(other, Polytope)
                and self.ambient_dim == other.ambient_dim
                and self._q == other._q and self._rows == other._rows)

    def __hash__(self):
        return hash((self.ambient_dim, self._q, self._rows))

    def __repr__(self):
        if self.is_empty:
            return f"Polytope.empty({self.ambient_dim})"
        return (f"<Polytope dim {self.dim()} in R^{self.ambient_dim}, "
                f"{len(self._rows)} vertices>")

    # -- H-description -----------------------------------------------------

    def to_hrep(self) -> tuple[HalfSpace, ...]:
        """Minimal half-space description: the `HalfSpace` view of the
        facet rows, with primitive integer normals, sorted.

        Lower-dimensional bodies carry their affine hull as equality pairs;
        the empty polytope is encoded by a canonical contradictory pair.
        """
        rows, qh = self._facet_rows()
        return tuple(HalfSpace(tuple(map(Fraction, a)), Fraction(c, qh))
                     for a, c in rows)

    def _facet_rows(self):
        """(rows, qh): the sorted integer rows (a, c), each meaning
        a . x <= c / qh with a primitive, that `to_hrep` shows."""
        if self._hrows is None:
            if self.is_empty:
                e1 = (1,) + (0,) * (self.ambient_dim - 1)
                self._hrows = ((tuple(-x for x in e1), 0), (e1, -1)), 1
            else:
                self._hrows = _hull_rows(self._rows[0], self._q,
                                         self._cached_hull())
        return self._hrows

    def support_rows(self, *factors):
        """(rows, q): one integer row (c, h_1, ..., h_k) per facet row
        a . x <= c / q of self, where h_i / q is the support function of
        factors[i] at the i-th block of a.  For all beta_i > 0, self holds
        beta_1 * factors[0] x ... x beta_k * factors[-1] iff
        sum(beta_i * h_i) <= c on every row; an empty factor gives no rows.
        """
        if self.ambient_dim != sum(f.ambient_dim for f in factors):
            raise ValueError("ambient dimension mismatch in containment test")
        if any(f.is_empty for f in factors):
            return [], 1
        rows, qh = self._facet_rows()
        q = lcm(qh, *(f._q for f in factors))
        ends = accumulate(f.ambient_dim for f in factors)
        blocks = [(end - f.ambient_dim, end, f._rows, q // f._q)
                  for f, end in zip(factors, ends)]
        k = q // qh
        return [(k * c,) + tuple(
                    s * max(sum(map(mul, a[lo:hi], r)) for r in vrows)
                    for lo, hi, vrows, s in blocks)
                for a, c in rows], q

    # -- spec operations ---------------------------------------------------

    def minkowski_sum(self, other: "Polytope") -> "Polytope":
        if self.ambient_dim != other.ambient_dim:
            raise ValueError("ambient dimension mismatch in Minkowski sum")
        if self.is_empty or other.is_empty:
            return Polytope.empty(self.ambient_dim)
        q = lcm(self._q, other._q)
        a, b = q // self._q, q // other._q
        sums = [tuple(a * x + b * y for x, y in zip(p, r))
                for p in self._rows for r in other._rows]
        return _int_polytope(self.ambient_dim, sums, q)

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
        q = lcm(self._q, other._q)
        a, b = q // self._q, q // other._q
        right = [tuple(b * y for y in r) for r in other._rows]
        pairs = [tuple(a * x for x in p) + r for p in self._rows for r in right]
        return Polytope(ambient, pairs, q, _dim=self._dim + other._dim,
                        _trusted=True)

    def contains(self, other: "Polytope") -> tuple[bool, Fraction]:
        """(containment verdict, worst constraint violation).

        Margin is 0 exactly when every vertex of `other` satisfies every
        half-space of `self`.
        """
        rows, q = self.support_rows(other)
        margin = Fraction(max([0] + [h - c for c, h in rows]), q)
        return margin == 0, margin

    def volume_in_dim(self, k: int) -> Fraction:
        """Exact k-dimensional Lebesgue volume.

        Requires k >= dim; returns 0 when dim < k.  For k == dim <
        ambient_dim the affine hull must be an axis-aligned (coordinate)
        subspace, possibly translated; skew lower-dimensional bodies are
        rejected.  d! times the volume comes with the cached hull.
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
        _d, pivots, _frame_rows, q, _facets, dvol = self._cached_hull()
        r0 = self._rows[0]
        fixed = [c for c in range(self.ambient_dim) if c not in pivots]
        if any(r[c] != r0[c] for r in self._rows for c in fixed):
            raise ValueError(
                "volume_in_dim needs an axis-aligned affine hull; "
                "got a skew %d-dimensional body in R^%d" % (d, self.ambient_dim))
        return Fraction(dvol, factorial(d) * q ** d)

    def scale(self, lam) -> "Polytope":
        """Dilation {lam * x : x in P} about the origin, lam >= 0."""
        lam = frac(lam)
        if lam < 0:
            raise ValueError("scale factor must be >= 0")
        if self.is_empty:
            return self
        if lam == 0:
            return Polytope.hull([(0,) * self.ambient_dim])
        a = lam.numerator
        rows, q = _lowest([tuple(a * x for x in r) for r in self._rows],
                          self._q * lam.denominator)
        return Polytope(self.ambient_dim, rows, q, _dim=self._dim,
                        _trusted=True)

    def translate(self, vec) -> "Polytope":
        v = qvec(vec)
        if len(v) != self.ambient_dim:
            raise ValueError("vector length does not match ambient_dim")
        if self.is_empty:
            return self
        (t,), s = clear_denominators([v])
        q = lcm(self._q, s)
        a, b = q // self._q, q // s
        rows, q = _lowest([tuple(a * x + b * y for x, y in zip(r, t))
                           for r in self._rows], q)
        return Polytope(self.ambient_dim, rows, q, _dim=self._dim,
                        _trusted=True)

    def embed(self, zeros_before: int, zeros_after: int) -> "Polytope":
        """Pad vertices with zero coordinates before/after."""
        if zeros_before < 0 or zeros_after < 0:
            raise ValueError("padding counts must be >= 0")
        zb, za = (0,) * zeros_before, (0,) * zeros_after
        n = self.ambient_dim + zeros_before + zeros_after
        if self.is_empty:
            return Polytope.empty(n)
        return Polytope(n, [zb + r + za for r in self._rows], self._q,
                        _dim=self._dim, _trusted=True)

    def slice_prefix_zero(self, k: int) -> "Polytope":
        """Intersection with {x_1 = ... = x_k = 0}, in the same ambient space."""
        if not 0 <= k <= self.ambient_dim:
            raise ValueError("slice count out of range")
        if k == 0 or self.is_empty:
            return self
        n = self.ambient_dim
        rows, qh = self._facet_rows()
        rows = [tuple(qh * x for x in a) + (c,) for a, c in rows]
        for i in range(k):
            e = (0,) * i + (1,) + (0,) * (n - i)  # x_i <= 0, offset last
            rows += [e, tuple(-x for x in e)]
        return _from_rows(rows, n)

    # -- serialization -----------------------------------------------------

    def to_obj(self):
        return {"ambient_dim": self.ambient_dim,
                "vertices": [[str(c) for c in v] for v in self.vertices]}


def hull(points) -> Polytope:
    return Polytope.hull(points)


# -- frame and hull ----------------------------------------------------------


def _ambient_dim(pts):
    """The common length of a list of points; raises ValueError on an
    empty list or on mixed lengths."""
    if not pts:
        raise ValueError("empty point set")
    n = len(pts[0])
    if any(len(p) != n for p in pts):
        raise ValueError("points of mixed ambient dimension")
    return n


def _lowest(rows, q):
    """(rows, q) with their common factor divided out: the same list when
    that factor is 1, as it mostly is, so no row is copied for nothing."""
    g = gcd(q, *chain.from_iterable(rows))
    if g == 1:
        return rows, q
    return [tuple(x // g for x in r) for r in rows], q // g


def _int_polytope(n, pts, q):
    """The hull of {p / q} for integer points p in Z^n and an integer
    q >= 1: the one body every constructor that hulls ends in.  Duplicates
    go by `dict.fromkeys`, which keeps the input order, so input that is
    already sorted (lattice enumerations are) costs `sorted` one pass."""
    pts = sorted(dict.fromkeys(pts))
    extreme, fh = _frame_hull(pts, q)
    rows, q = _lowest([pts[i] for i in extreme], q)
    return Polytope(n, rows, q, _dim=fh[0], _trusted=True, _hull=fh)


def _image(rows, q, dim):
    """The image, of dimension `dim`, of a polytope under an injective
    affine map, given as its vertices' integer image rows over q: they
    are the image's vertices, so no hull is run."""
    rows, q = _lowest(sorted(rows), q)
    return Polytope(len(rows[0]), rows, q, _dim=dim, _trusted=True)


def _frame_hull(pts, q):
    """Extreme indices among sorted distinct integer points, and the hull
    of those points over the denominator q.

    The hull is (d, pivots, rows, q, facets, dvol): d, pivots and rows as
    in `kernel.affine_frame`, and facets and dvol of the points' pivot
    coordinates, which are q times points of the body, as in `_int_hull`.
    """
    d, pivots, rows, base = kernel.affine_frame(pts)
    if d == 0:
        return [0], (0, pivots, rows, q, [], 1)
    ints = pts if d == len(pts[0]) else [tuple(p[c] for c in pivots)
                                         for p in pts]
    extreme, facets, dvol = _int_hull(ints, base)
    return sorted(extreme), (d, pivots, rows, q, facets, dvol)


def _int_hull(ints, base):
    """Hull of a full-dimensional set of distinct integer points in R^d,
    given the indices `base` of d + 1 affinely independent ones, which
    start the engine's triangulation: the frame is computed once per hull.

    Returns (extreme indices, facets, dvol): each facet is (outward
    integer normal, offset) with normal . p <= offset on every point, and
    dvol is d! times the volume.  A segment and the 2D chain are direct;
    above that `kernel.hull_facets` runs, on the points that
    `kernel.prune_interior` keeps when there are more than 64: those that
    are an end of their line along every coordinate axis in turn, and
    `base`.  Each dropped point lies strictly between two kept ones, so
    none is extreme, and the hull and its volume are those of all the
    points.
    """
    d = len(base) - 1
    if d == 1:
        lo = min(range(len(ints)), key=lambda i: ints[i])
        hi = max(range(len(ints)), key=lambda i: ints[i])
        a, b = ints[lo][0], ints[hi][0]
        return [lo, hi], [((1,), b), ((-1,), -a)], b - a
    if d == 2:
        cyc = kernel.hull2d_indices(ints)
        facets = []
        for i, j in zip(cyc, cyc[1:] + cyc[:1]):
            (ax, ay), (bx, by) = ints[i], ints[j]
            nrm = (by - ay, ax - bx)  # outward for a CCW polygon
            facets.append((nrm, nrm[0] * ax + nrm[1] * ay))
        p0 = ints[cyc[0]]
        dvol = sum(kernel.orient2d(p0, ints[i], ints[j])
                   for i, j in zip(cyc[1:], cyc[2:]))
        return cyc, facets, dvol
    if len(ints) <= 64:
        return kernel.hull_facets(ints, base)
    idxmap = sorted(set(kernel.prune_interior(ints)).union(base))
    extreme, facets, dvol = kernel.hull_facets(
        [ints[i] for i in idxmap], [idxmap.index(i) for i in base])
    return [idxmap[i] for i in extreme], facets, dvol


# -- facet enumeration (H-description) --------------------------------------


def _hull_rows(r0, q0, frame_hull):
    """(sorted facet rows (a, c), qh) of a polytope with vertex r0 / q0 and
    the given frame and hull, plus affine-hull equality pairs when it is
    flat.  A facet g . y <= c of y = qh * x[pivots] (qh the hull's own
    denominator, which q0 divides) is the row g / gcd(g) on the pivot
    columns, c / gcd(g), exact since the facet holds integer points."""
    n = len(r0)
    d, pivots, rows, qh, facets, _dvol = frame_hull
    out = []
    if d < n:
        hullspace = (int_nullspace(rows)[0] if rows else
                     [tuple(int(j == i) for j in range(n)) for i in range(n)])
        k = qh // q0
        for w in hullspace:
            a, _ = primitive_int_vector(w)
            c = k * sum(map(mul, a, r0))
            out += [(a, c), (tuple(-x for x in a), -c)]
    for g, c in facets:
        k = gcd(*g)
        a = [0] * n
        for gi, col in zip(g, pivots):
            a[col] = gi // k
        out.append((tuple(a), c // k))
    return tuple(sorted(out)), qh


# -- vertex enumeration (H -> V) ---------------------------------------------


def _from_rows(rows, n):
    """The polytope {x in R^n : a . x <= c on every row (a_1..a_n, c)}; its
    vertex keys are extreme and in lowest terms, so no hull is run."""
    keys = _vertex_enum(rows, n)
    if not keys:
        return Polytope.empty(n)
    q = lcm(*(den for _num, den in keys))
    pts = sorted(tuple(x * (q // den) for x in num) for num, den in keys)
    return Polytope(n, pts, q, _dim=kernel.affine_frame(pts)[0], _trusted=True)


def _vertex_enum(rows, n):
    """Vertex keys (num, D), D > 0 and gcd(num, D) = 1, of the half-spaces
    a . x <= c given as rational or integer rows (a_1, ..., a_n, c): none
    if they are infeasible, a ValueError if they are unbounded.

    One double-description step: with each row made primitive, the points
    (a, -c), (0, ..., 0, -1) and the origin generate the cone K polar to
    C = {(x, t) : a . x <= c t, t >= 0}.  If they do not span R^(n+1), C
    holds a line of points (y, 0): unbounded.  Else each facet of their
    hull through the origin is a facet of K, whose primitive outward
    normal (y, s) spans an extreme ray of C: the vertex y / s if s > 0, a
    recession direction if s = 0.  No such facet: K = R^(n+1), C = {0}.
    """
    rows = list(dict.fromkeys(primitive_int_vector(r)[0] for r in rows))
    pts = [(0,) * (n + 1), (0,) * n + (-1,)] + [r[:n] + (-r[n],) for r in rows]
    try:
        facets = kernel.hull_facets(pts)[1]
    except ValueError:  # the points do not span R^(n+1)
        raise ValueError("half-space system is unbounded") from None
    keys = []
    for nrm, c in facets:
        if c == 0:
            if nrm[n] == 0:
                raise ValueError("half-space system is unbounded")
            keys.append((nrm[:n], nrm[n]))
    return keys
