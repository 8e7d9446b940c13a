"""Smooth complete toric models: section polytopes, monomial sections,
flag valuations, and a brute-force body oracle.

Everything on these models is computable exactly from the fan: global
sections of an invariant divisor are lattice points of its section
polytope, and the flag valuation of a monomial section is an explicit
unimodular-affine function of its exponent, so bodies come out as exact
images of section polytopes.  The class arithmetic runs on integers: a
divisor keeps its coefficients as numerators over one denominator
(`ToricDivisor.num`, `.q`), and bodies, restricted volumes and ampleness
map integer vertex rows; `Fraction`s appear only at the API edge.  The
finite-level brute-force path exists as an independent oracle for that
exact path: it enumerates the level-m sections as lattice lines by
integer bounds, hulls the two ends of each line (the line's other points
lie between them), and maps the hull's vertices by the valuation, which
is exact because the valuation is affine.
"""

from __future__ import annotations

import functools
import math
from fractions import Fraction
from operator import mul

from . import kernel
from .linalg import clear_denominators, dot, int_det, int_solve, qvec
# unused here, but perfbench's tracer rebinds the name and needs it
from .linalg import solve  # noqa: F401
from .polytope import Polytope, _from_rows
from .value import Value

NEG_INF = float("-inf")  # Iitaka dimension of a divisor with no sections


class ToricVariety(Value):
    """Complete smooth toric variety: primitive rays plus unimodular
    simplicial maximal cones (as ray index tuples)."""

    def __init__(self, dim: int, rays: tuple[tuple[int, ...], ...],
                 max_cones: tuple[tuple[int, ...], ...]):
        self.dim, self.rays, self.max_cones = dim, rays, max_cones
        n = self.dim
        if n < 1:
            raise ValueError("toric model needs dimension >= 1")
        seen = set()
        for i, r in enumerate(self.rays):
            if len(r) != n:
                raise ValueError(f"rays[{i}]: wrong length")
            if math.gcd(*r) != 1:
                raise ValueError(f"rays[{i}]: not a primitive vector")
            if r in seen:
                raise ValueError(f"rays[{i}]: duplicate ray")
            seen.add(r)
        if not self.max_cones:
            raise ValueError("fan has no maximal cones")
        walls = {}
        for ci, cone in enumerate(self.max_cones):
            if len(set(cone)) != n:
                raise ValueError(f"max_cones[{ci}]: need {n} distinct rays")
            if any(not 0 <= i < len(self.rays) for i in cone):
                raise ValueError(f"max_cones[{ci}]: ray index out of range")
            if abs(int_det([self.rays[i] for i in cone])) != 1:
                raise ValueError(f"max_cones[{ci}]: cone is not unimodular")
            for drop in range(n):
                wall = frozenset(cone[:drop] + cone[drop + 1:])
                walls[wall] = walls.get(wall, 0) + 1
        if any(c != 2 for c in walls.values()):
            raise ValueError("fan is not complete: some wall is not shared "
                             "by exactly two maximal cones")
        unused = set(range(len(self.rays))).difference(*self.max_cones)
        if unused:
            raise ValueError(f"rays[{min(unused)}]: not in any maximal cone")

    def cones_containing(self, ray_indices) -> list[int]:
        want = set(ray_indices)
        return [i for i, c in enumerate(self.max_cones) if want <= set(c)]

    def to_obj(self):
        return {"kind": "toric", "dim": self.dim,
                "rays": [list(r) for r in self.rays],
                "max_cones": [list(c) for c in self.max_cones]}


class ToricDivisor(Value):
    """Invariant divisor sum(coeffs[i] * D_rays[i]); coeffs may be any
    sequence of exact numbers and is stored as a tuple of Fractions, and
    as integer numerators `num` over their least common denominator `q`."""

    def __init__(self, variety: ToricVariety, coeffs: tuple[Fraction, ...]):
        self.variety, self.coeffs = variety, qvec(coeffs)
        if len(self.coeffs) != len(variety.rays):
            raise ValueError("divisor needs one coefficient per ray")
        (self.num,), self.q = clear_denominators([self.coeffs])

    def _key(self):
        return self.variety, self.coeffs


class ToricFlag(Value):
    """Invariant full flag: a maximal cone plus an ordering of its rays.

    Stratum i is the intersection of the first i ordered invariant
    divisors, down to the torus-fixed point of the cone.
    """

    def __init__(self, cone: int, ray_order: tuple[int, ...]):
        self.cone, self.ray_order = cone, ray_order

    def validate(self, X: ToricVariety):
        if not 0 <= self.cone < len(X.max_cones):
            raise ValueError("flag cone index out of range")
        if sorted(self.ray_order) != sorted(X.max_cones[self.cone]):
            raise ValueError("flag ray_order must permute the cone's rays")

    def to_obj(self):
        return {"cone": self.cone, "ray_order": list(self.ray_order)}


# -- cone/divisor predicates -------------------------------------------------


def section_polytope(X: ToricVariety, D: ToricDivisor) -> Polytope:
    """{u : <u, ray_i> >= -a_i}; empty exactly when D has no sections."""
    return _face(X, D, ())


def is_ample(X, D) -> bool:
    """Strict convexity of the support function over the complete fan: at
    the vertex u = w / (d D.q) of each maximal cone, <u, ray_j> + a_j > 0
    for each ray j off the cone, on integers times d D.q > 0."""
    for cone in X.max_cones:
        w, d = int_solve([X.rays[i] + (-D.num[i],) for i in cone])
        if any(sum(a * x for (a,), x in zip(w, ray)) + d * D.num[j] <= 0
               for j, ray in enumerate(X.rays) if j not in cone):
            return False
    return True


# -- sections and valuations -------------------------------------------------


def _integral_multiple(D: ToricDivisor, m: int):
    if m % D.q:
        raise ValueError("non-integral multiple")
    return [m // D.q * a for a in D.num]


def sections(X: ToricVariety, D: ToricDivisor, m: int):
    """Exponent vectors of a monomial basis of the level-m space, in
    lexicographic order (lattice points of m * section_polytope)."""
    return _face_points(X, D, m, (), section_polytope(X, D))


def _face_box(X, D, m, stratum, face):
    """`kernel.lattice_lines` arguments (normals, offsets, lo, hi) for the
    lattice points of m * face, D's face along `stratum`: <u, ray_i> >=
    -m a_i, reversed too on the stratum, in the bounding box of m * face;
    None when the face is empty."""
    if m < 1:
        raise ValueError("level must be >= 1")
    offsets = [-a for a in _integral_multiple(D, m)]
    if face.is_empty:
        return None
    normals = list(X.rays) + [tuple(-x for x in X.rays[i]) for i in stratum]
    offsets += [-offsets[i] for i in stratum]
    cols, q = list(zip(*face._rows)), face._q
    lo = [-(-m * min(col) // q) for col in cols]
    hi = [m * max(col) // q for col in cols]
    return normals, offsets, lo, hi


def _face_points(X, D, m, stratum, face):
    """Lattice points of m * face, in lexicographic order, for D's face
    along `stratum`."""
    box = _face_box(X, D, m, stratum, face)
    return kernel.lattice_points(*box) if box else []


def flag_valuation(X, flag: ToricFlag, exponent, D: ToricDivisor):
    """Valuation vector of the invariant divisor of a monomial section.

    Peeling flag strata off the section's divisor is, for invariant data,
    the affine map u -> (<u, v_i> + a_i) in the flag's ray order.
    """
    flag.validate(X)
    u = qvec(exponent)
    for ray, a in zip(X.rays, D.coeffs):
        if dot(u, ray) < -a:
            raise ValueError("exponent outside the section polytope")
    return tuple(dot(u, X.rays[i]) + D.coeffs[i] for i in flag.ray_order)


def _flag_images(X, flag: ToricFlag, pts, k, shift):
    """The integer vectors (k <u, v_i> + shift[i]) over the flag's ordered
    rays v_i, for integer points u."""
    rows = [(X.rays[i], shift[i]) for i in flag.ray_order]
    return [tuple(k * sum(map(mul, r, u)) + s for r, s in rows) for u in pts]


def okounkov_body_toric(X, D: ToricDivisor, flag: ToricFlag) -> Polytope:
    """Exact body: image of the section polytope under the flag valuation.

    The valuation map is unimodular-affine, so no limit over levels is
    needed; the finite-level brute-force body below converges to this.
    On the section polytope's integer vertex rows u over its denominator
    p, and D's numerators over D.q, it is (k <u, v_i> + s num_i) / q, with
    q = lcm(p, D.q), k = q / p and s = q / D.q.
    """
    flag.validate(X)
    P = section_polytope(X, D)
    if P.is_empty:
        raise ValueError("divisor has no sections")
    q = math.lcm(P._q, D.q)
    shift = [q // D.q * a for a in D.num]
    return Polytope.lattice_hull(
        _flag_images(X, flag, P._rows, q // P._q, shift), q)


def okounkov_body_bruteforce(X, D: ToricDivisor, flag: ToricFlag, m: int) -> Polytope:
    """(1/m) * hull of the valuation vectors of all level-m sections.

    The level-m exponents are enumerated as lattice lines of m * P_D
    (`kernel.lattice_lines`, by integer bounds on each coordinate), and
    only each line's two ends, one when it holds a single point, are
    hulled with `Polytope.lattice_hull` over m: every lattice point of a
    line lies on the segment between its ends, so the two hulls are
    equal.  The valuation u -> (<u, v_i> + m a_i) is affine, and an
    affine map A sends conv(S) to conv(A S), whose vertices are images of
    vertices of conv(S); so only that hull's vertices, integer exponents
    over m, are mapped, and their integer valuation vectors are hulled
    over m in turn, with no `Fraction` made per section.  The oracle stays
    independent of the exact path: it enumerates lattice rows by integer
    bounds and hulls lattice points, where the exact path enumerates the
    vertices of the section polytope from its half-spaces."""
    flag.validate(X)
    box = _face_box(X, D, m, (), section_polytope(X, D))
    lines = kernel.lattice_lines(*box) if box else []
    if not lines:
        raise ValueError("divisor has no sections")
    ends = [head + (v,) for head, a, b in lines
            for v in ((a,) if a == b else (a, b))]
    H = Polytope.lattice_hull(ends, m)  # its vertex rows over H._q | m
    return Polytope.lattice_hull(_flag_images(
        X, flag, H._rows, m // H._q, _integral_multiple(D, m)), m)


# -- restriction to invariant strata ------------------------------------------


def _stratum_frame(X: ToricVariety, stratum):
    """(stratum rays, complementary rays) forming a unimodular basis.

    The complement comes from the first maximal cone containing the
    stratum; its dual coordinates realize the stratum's character lattice.
    """
    stratum = tuple(stratum)
    if len(set(stratum)) != len(stratum):
        raise ValueError("stratum rays must be distinct")
    cones = X.cones_containing(stratum)
    if not cones:
        raise ValueError("stratum is not a cone of the fan (not irreducible)")
    cone = X.max_cones[cones[0]]
    rest = [i for i in cone if i not in stratum]
    return stratum, tuple(rest)


@functools.lru_cache(maxsize=256)
def _face(X, D, stratum):
    """The face of D's section polytope along the tuple `stratum`;
    section_polytope is the stratum () case.  It is built from integer rows
    (a_1..a_n, c), each a . u <= c, over D's least common denominator q:
    -q <u, ray_i> <= q a_i on every ray, and q <u, ray_i> <= -q a_i on the
    stratum's.

    Memoized: nothing changes models and divisors once built, they compare
    and hash by value (`value.Value`), and a Polytope is immutable (lazy
    caches are deterministic)."""
    num, q = D.num, D.q
    rows = [tuple(-q * x for x in ray) + (a,) for ray, a in zip(X.rays, num)]
    rows += [tuple(q * x for x in X.rays[i]) + (-num[i],) for i in stratum]
    return _from_rows(rows, X.dim)


def restricted_series(X, D: ToricDivisor, stratum, levels) -> dict:
    """Images of the level-m monomial bases under restriction to a stratum.

    A monomial survives restriction exactly when its exponent is on the
    stratum's face of the section polytope, so only the lattice points of
    m * face are enumerated; they inject into the stratum's character
    lattice via the complementary-ray coordinates.  Returns {m: the sorted
    tuple of surviving exponent images at level m}; its length is the
    dimension of the restricted space.
    """
    stratum, rest = _stratum_frame(X, stratum)
    face = _face(X, D, stratum)
    return {m: tuple(sorted(
        tuple(sum(map(mul, X.rays[j], u)) for j in rest)
        for u in _face_points(X, D, m, stratum, face))) for m in levels}


def restricted_volume_toric(X, D: ToricDivisor, stratum) -> Fraction:
    """Exact growth limit of the restricted section counts along a stratum.

    Equals v! times the v-dimensional volume of the stratum's face of the
    section polytope, pushed to the stratum's character lattice (v = the
    stratum dimension).
    """
    stratum, rest = _stratum_frame(X, stratum)
    v = X.dim - len(stratum)
    face = _face(X, D, stratum)
    if face.is_empty:
        return Fraction(0)
    if v == 0:
        return Fraction(1)
    image = Polytope.lattice_hull(
        [tuple(sum(map(mul, X.rays[j], u)) for j in rest) for u in face._rows],
        face._q)
    return math.factorial(v) * image.volume_in_dim(v)


def nakayama_verdict(X, D: ToricDivisor, stratum):
    """('certified' | 'false', witness level or None).

    Restriction to the stratum injects at every level iff the section
    polytope P lies on the stratum's face F, a face of P: iff every vertex
    of P is one of F.  Certified when it is and the stratum dimension is
    the Iitaka dimension.  Otherwise, for a vertex v of P off F, m * v is
    a section off F at m = lcm(den(D), den(v)); the witness is the least
    such m."""
    stratum, _rest = _stratum_frame(X, stratum)
    P = section_polytope(X, D)
    if X.dim - len(stratum) != P.dim():  # P.dim() is -1 when P is empty
        return "false", None
    on_face = set(_face(X, D, stratum).vertices)
    off_face = [v for v in P.vertices if v not in on_face]
    if not off_face:
        return "certified", None
    return "false", min(math.lcm(D.q, *(c.denominator for c in v))
                        for v in off_face)


# -- product fibrations -------------------------------------------------------


class ToricFibration(Value):
    """Projection of a product fan onto its first factor.  The total space
    lists the base rays first, so on invariant divisor classes the pullback
    and the restriction to a general fiber are coordinate maps."""

    def __init__(self, base: ToricVariety, fiber: ToricVariety,
                 total: ToricVariety):
        self.base, self.fiber, self.total = base, fiber, total

    def _unit_rows(self):
        n = len(self.total.rays)
        return tuple(tuple(int(i == j) for j in range(n)) for i in range(n))

    @property
    def pullback(self):
        """Matrix total rays x base rays: a base class on the base rays."""
        return tuple(row[:len(self.base.rays)] for row in self._unit_rows())

    @property
    def restriction(self):
        """Matrix fiber rays x total rays: the fiber-ray coefficients."""
        return self._unit_rows()[len(self.base.rays):]


def product_fibration(Y: ToricVariety, F: ToricVariety) -> ToricFibration:
    ny, nf = Y.dim, F.dim
    rays = [tuple(r) + (0,) * nf for r in Y.rays]
    rays += [(0,) * ny + tuple(r) for r in F.rays]
    k = len(Y.rays)
    cones = []
    for cy in Y.max_cones:
        for cf in F.max_cones:
            cones.append(tuple(cy) + tuple(i + k for i in cf))
    total = ToricVariety(ny + nf, tuple(rays), tuple(cones))
    return ToricFibration(Y, F, total)


def product_flag(fib: ToricFibration, base_flag: ToricFlag,
                 fiber_flag: ToricFlag) -> ToricFlag:
    """Fiber-type flag on the product: base strata first, then fiber strata."""
    base_flag.validate(fib.base)
    fiber_flag.validate(fib.fiber)
    k = len(fib.base.rays)
    order = tuple(base_flag.ray_order) + tuple(i + k for i in fiber_flag.ray_order)
    return ToricFlag(fib.total.cones_containing(order)[0], order)


# -- standard models ----------------------------------------------------------


def projective_line() -> ToricVariety:
    return ToricVariety(1, ((1,), (-1,)), ((0,), (1,)))


def projective_plane() -> ToricVariety:
    return ToricVariety(2, ((1, 0), (0, 1), (-1, -1)),
                        ((0, 1), (1, 2), (2, 0)))


def blown_up_plane() -> ToricVariety:
    """Plane blown up at the fixed point of the first cone; ray 3 is the
    exceptional curve."""
    return ToricVariety(2, ((1, 0), (0, 1), (-1, -1), (1, 1)),
                        ((0, 3), (3, 1), (1, 2), (2, 0)))


def hirzebruch(a: int) -> ToricVariety:
    return ToricVariety(2, ((1, 0), (0, 1), (-1, a), (0, -1)),
                        ((0, 1), (1, 2), (2, 3), (3, 0)))
