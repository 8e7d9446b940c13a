"""Smooth complete toric models: section polytopes, monomial sections,
flag valuations, and a brute-force body oracle.

Everything on these models is computable exactly from the fan: global
sections of an invariant divisor are lattice points of its section
polytope, and the flag valuation of a monomial section is an explicit
unimodular-affine function of its exponent, so bodies come out as exact
images of section polytopes.  The finite-level brute-force path exists as
an independent oracle for that exact path.
"""

from __future__ import annotations

import functools
import itertools
import math
from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from . import kernel
from .linalg import det, dot, frac, qvec, solve
from .polytope import HalfSpace, Polytope

NEG_INF = float("-inf")  # Iitaka dimension of a divisor with no sections


@dataclass(frozen=True)
class ToricVariety:
    """Complete smooth toric variety: primitive rays plus unimodular
    simplicial maximal cones (as ray index tuples)."""

    dim: int
    rays: tuple[tuple[int, ...], ...]
    max_cones: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        n = self.dim
        if n < 1:
            raise ValueError("toric model needs dimension >= 1")
        seen = set()
        for i, r in enumerate(self.rays):
            if len(r) != n:
                raise ValueError(f"rays[{i}]: wrong length")
            g = 0
            for x in r:
                g = math.gcd(g, abs(x))
            if g != 1:
                raise ValueError(f"rays[{i}]: not a primitive vector")
            if r in seen:
                raise ValueError(f"rays[{i}]: duplicate ray")
            seen.add(r)
        walls = {}
        for ci, cone in enumerate(self.max_cones):
            if len(set(cone)) != n:
                raise ValueError(f"max_cones[{ci}]: need {n} distinct rays")
            if any(not 0 <= i < len(self.rays) for i in cone):
                raise ValueError(f"max_cones[{ci}]: ray index out of range")
            mat = [list(map(Fraction, self.rays[i])) for i in cone]
            if abs(det(mat)) != 1:
                raise ValueError(f"max_cones[{ci}]: cone is not unimodular")
            for drop in range(n):
                wall = frozenset(cone[:drop] + cone[drop + 1:])
                walls[wall] = walls.get(wall, 0) + 1
        bad = [w for w, c in walls.items() if c != 2]
        if bad:
            raise ValueError("fan is not complete: some wall is not shared "
                             "by exactly two maximal cones")

    def cones_containing(self, ray_indices) -> list[int]:
        want = set(ray_indices)
        return [i for i, c in enumerate(self.max_cones) if want <= set(c)]

    def to_obj(self):
        return {"kind": "toric", "dim": self.dim,
                "rays": [list(r) for r in self.rays],
                "max_cones": [list(c) for c in self.max_cones]}


@dataclass(frozen=True)
class ToricDivisor:
    """Invariant divisor sum(coeffs[i] * D_rays[i]); coeffs may be any
    sequence of exact numbers and is stored as a tuple of Fractions."""

    variety: ToricVariety
    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", qvec(self.coeffs))
        if len(self.coeffs) != len(self.variety.rays):
            raise ValueError("divisor needs one coefficient per ray")

    def __add__(self, other: "ToricDivisor") -> "ToricDivisor":
        if other.variety is not self.variety and other.variety != self.variety:
            raise ValueError("divisors live on different models")
        return ToricDivisor(self.variety,
                            tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def scaled(self, c) -> "ToricDivisor":
        c = frac(c)
        return ToricDivisor(self.variety, tuple(c * a for a in self.coeffs))


def divisor(X: ToricVariety, coeffs) -> ToricDivisor:
    return ToricDivisor(X, coeffs)


@dataclass(frozen=True)
class ToricFlag:
    """Invariant full flag: a maximal cone plus an ordering of its rays.

    Stratum i is the intersection of the first i ordered invariant
    divisors, down to the torus-fixed point of the cone.
    """

    cone: int
    ray_order: tuple[int, ...]

    def validate(self, X: ToricVariety):
        if not 0 <= self.cone < len(X.max_cones):
            raise ValueError("flag cone index out of range")
        if sorted(self.ray_order) != sorted(X.max_cones[self.cone]):
            raise ValueError("flag ray_order must permute the cone's rays")

    def to_obj(self):
        return {"cone": self.cone, "ray_order": list(self.ray_order)}


@dataclass(frozen=True)
class GradedSeries:
    """Monomial bases of the levels of a restricted linear series.

    levels[m] is the sorted tuple of surviving exponent images at level m;
    its length is the dimension of the restricted space.
    """

    levels: dict = field(default_factory=dict)

    def dimension(self, m: int) -> int:
        return len(self.levels[m])


# -- cone/divisor predicates -------------------------------------------------


@functools.lru_cache(maxsize=256)
def section_polytope(X: ToricVariety, D: ToricDivisor) -> Polytope:
    """{u : <u, ray_i> >= -a_i}; empty exactly when D has no sections.

    Memoized: models and divisors are frozen and compare by value, and the
    returned Polytope is immutable (its lazy caches are deterministic)."""
    hs = [HalfSpace(qvec([-c for c in ray]), frac(a))
          for ray, a in zip(X.rays, D.coeffs)]
    return Polytope.from_halfspaces(hs, X.dim)


def is_effective(X, D) -> bool:
    return not section_polytope(X, D).is_empty


def is_big(X, D) -> bool:
    return section_polytope(X, D).dim() == X.dim


def kappa(X, D):
    """Iitaka dimension: growth exponent of the section count."""
    P = section_polytope(X, D)
    return NEG_INF if P.is_empty else P.dim()


def _cone_vertex(X, D, cone):
    rows = [list(map(Fraction, X.rays[i])) for i in cone]
    rhs = [-D.coeffs[i] for i in cone]
    return solve(rows, rhs)


def is_ample(X, D) -> bool:
    """Strict convexity of the support function over the complete fan."""
    for cone in X.max_cones:
        u = _cone_vertex(X, D, cone)
        for j, ray in enumerate(X.rays):
            if j in cone:
                continue
            if dot(u, qvec(ray)) <= -D.coeffs[j]:
                return False
    return True


def is_nef(X, D) -> bool:
    for cone in X.max_cones:
        u = _cone_vertex(X, D, cone)
        for j, ray in enumerate(X.rays):
            if dot(u, qvec(ray)) < -D.coeffs[j]:
                return False
    return True


# -- sections and valuations -------------------------------------------------


def _integral_multiple(D: ToricDivisor, m: int):
    coeffs = []
    for a in D.coeffs:
        ma = m * a
        if ma.denominator != 1:
            raise ValueError("non-integral multiple")
        coeffs.append(int(ma))
    return coeffs


def sections(X: ToricVariety, D: ToricDivisor, m: int):
    """Exponent vectors of a monomial basis of the level-m space, in
    lexicographic order (lattice points of m * section_polytope)."""
    if m < 1:
        raise ValueError("level must be >= 1")
    offsets = [-a for a in _integral_multiple(D, m)]
    P = section_polytope(X, D)
    if P.is_empty:
        return []
    lo, hi = [], []
    for c in range(X.dim):
        vals = [m * v[c] for v in P.vertices]
        lo.append(math.ceil(min(vals)))
        hi.append(math.floor(max(vals)))
    return [tuple(p) for p in kernel.lattice_points(X.rays, offsets, lo, hi)]


def _flag_affine_map(X, flag: ToricFlag, D: ToricDivisor):
    """val(u) = (<u, v_i> + a_i) over the flag's ordered rays v_i."""
    rows = [qvec(X.rays[i]) for i in flag.ray_order]
    shift = qvec([D.coeffs[i] for i in flag.ray_order])
    return rows, shift


def flag_valuation(X, flag: ToricFlag, exponent, D: ToricDivisor):
    """Valuation vector of the invariant divisor of a monomial section.

    Peeling flag strata off the section's divisor is, for invariant data,
    the affine map u -> (<u, v_i> + a_i) in the flag's ray order.
    """
    flag.validate(X)
    u = qvec(exponent)
    for ray, a in zip(X.rays, D.coeffs):
        if dot(u, qvec(ray)) < -a:
            raise ValueError("exponent outside the section polytope")
    rows, shift = _flag_affine_map(X, flag, D)
    return tuple(dot(r, u) + s for r, s in zip(rows, shift))


def okounkov_body_toric(X, D: ToricDivisor, flag: ToricFlag) -> Polytope:
    """Exact body: image of the section polytope under the flag valuation.

    The valuation map is unimodular-affine, so no limit over levels is
    needed; the finite-level brute-force body below converges to this.
    """
    flag.validate(X)
    P = section_polytope(X, D)
    if P.is_empty:
        raise ValueError("divisor has no sections")
    rows, shift = _flag_affine_map(X, flag, D)
    return Polytope.hull(
        [tuple(dot(r, v) + s for r, s in zip(rows, shift)) for v in P.vertices])


def okounkov_body_bruteforce(X, D: ToricDivisor, flag: ToricFlag, m: int) -> Polytope:
    """(1/m) * hull of the valuation vectors of all level-m sections.

    The valuation vectors of level-m sections are integer vectors, so
    `Polytope.lattice_hull` hulls them as they are, over the denominator
    m, and no `Fraction` is made."""
    flag.validate(X)
    pts = sections(X, D, m)
    if not pts:
        raise ValueError("divisor has no sections")
    macoeffs = _integral_multiple(D, m)
    rows = [X.rays[i] for i in flag.ray_order]
    shift = [macoeffs[i] for i in flag.ray_order]
    vals = [tuple(sum(map(mul, r, u)) + s for r, s in zip(rows, shift))
            for u in pts]
    return Polytope.lattice_hull(vals, m)


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


def _face_halfspaces(X, D, stratum):
    hs = [HalfSpace(qvec([-c for c in ray]), frac(a))
          for ray, a in zip(X.rays, D.coeffs)]
    for i in stratum:
        ray = qvec(X.rays[i])
        hs.append(HalfSpace(ray, -D.coeffs[i]))  # makes <u, ray> == -a_i
    return hs


def first_chamber(X, D: ToricDivisor, A: ToricDivisor, stratum=()) -> Fraction:
    """Right end eps1 of the first chamber of D + eps*A along `stratum`.

    The face half-spaces of D + eps*A have offsets b0 + eps*b1, so the
    vertex x_S(eps) cut out by a nonsingular n-subset S of them is affine
    in eps, and so is every slack b_j(eps) - r_j.x_S(eps).  eps1 is the
    least positive root of those slacks, capped at 1.  On
    (0, eps1) no slack changes sign, so which candidates are vertices and
    which half-spaces are tight at them is fixed: the face lattice is
    constant and every volume of the face is a polynomial in eps.
    """
    hs0 = _face_halfspaces(X, D, stratum)
    b1 = [h.offset for h in _face_halfspaces(X, A, stratum)]
    eps1 = Fraction(1)
    for subset in itertools.combinations(range(len(hs0)), X.dim):
        rows = [hs0[i].normal for i in subset]
        x0 = solve(rows, [hs0[i].offset for i in subset])
        if x0 is None:
            continue
        x1 = solve(rows, [b1[i] for i in subset])
        for h, c1 in zip(hs0, b1):
            slope = c1 - dot(h.normal, x1)
            if slope:
                root = (dot(h.normal, x0) - h.offset) / slope
                if 0 < root < eps1:
                    eps1 = root
    return eps1


def restricted_series(X, D: ToricDivisor, stratum, levels) -> GradedSeries:
    """Images of the level-m monomial bases under restriction to a stratum.

    A monomial survives restriction exactly when its exponent is on the
    stratum's face of the section polytope; surviving exponents inject
    into the stratum's character lattice via the complementary-ray
    coordinates.
    """
    stratum, rest = _stratum_frame(X, stratum)
    out = {}
    for m in levels:
        offsets = [-a for a in _integral_multiple(D, m)]
        pts = sections(X, D, m)
        face = [u for u in pts
                if all(sum(X.rays[i][c] * u[c] for c in range(X.dim)) == offsets[i]
                       for i in stratum)]
        proj = sorted({tuple(sum(X.rays[j][c] * u[c] for c in range(X.dim))
                             for j in rest) for u in face})
        out[m] = tuple(proj)
    return GradedSeries(out)


def restricted_volume_toric(X, D: ToricDivisor, stratum) -> Fraction:
    """Exact growth limit of the restricted section counts along a stratum.

    Equals v! times the v-dimensional volume of the stratum's face of the
    section polytope, pushed to the stratum's character lattice (v = the
    stratum dimension).
    """
    stratum, rest = _stratum_frame(X, stratum)
    v = X.dim - len(stratum)
    face = Polytope.from_halfspaces(_face_halfspaces(X, D, stratum), X.dim)
    if face.is_empty:
        return Fraction(0)
    if v == 0:
        return Fraction(1)
    imgs = [tuple(dot(qvec(X.rays[j]), u) for j in rest) for u in face.vertices]
    image = Polytope.hull(imgs)
    return Fraction(math.factorial(v)) * image.volume_in_dim(v)


def nakayama_verdict(X, D: ToricDivisor, stratum):
    """('certified' | 'false', witness level or None).

    Restriction to the stratum injects at every level iff the section
    polytope P lies on the stratum's face F.  Certified when it does and
    the stratum dimension is the Iitaka dimension.  Otherwise, for a
    vertex v of P off F, m * v is a section off F at m = lcm(den(D),
    den(v)); the witness is the least such m."""
    stratum, _rest = _stratum_frame(X, stratum)
    P = section_polytope(X, D)
    if X.dim - len(stratum) != P.dim():  # P.dim() is -1 when P is empty
        return "false", None
    off_face = [v for v in P.vertices
                if any(dot(qvec(X.rays[i]), v) != -D.coeffs[i] for i in stratum)]
    if not off_face:
        return "certified", None
    den = math.lcm(*(a.denominator for a in D.coeffs))
    return "false", min(math.lcm(den, *(c.denominator for c in v))
                        for v in off_face)


# -- product fibrations -------------------------------------------------------


@dataclass(frozen=True)
class ToricFibration:
    """Projection of a product fan onto its first factor."""

    base: ToricVariety
    fiber: ToricVariety
    total: ToricVariety

    @property
    def base_ray_count(self):
        return len(self.base.rays)

    def pullback(self, D_Y: ToricDivisor) -> ToricDivisor:
        coeffs = tuple(D_Y.coeffs) + (Fraction(0),) * len(self.fiber.rays)
        return ToricDivisor(self.total, coeffs)

    def restrict_to_fiber(self, D: ToricDivisor) -> ToricDivisor:
        return ToricDivisor(self.fiber, tuple(D.coeffs[self.base_ray_count:]))


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
    k = fib.base_ray_count
    order = tuple(base_flag.ray_order) + tuple(i + k for i in fiber_flag.ray_order)
    want = set(order)
    cone_idx = next(i for i, c in enumerate(fib.total.max_cones)
                    if set(c) == want)
    return ToricFlag(cone_idx, order)


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
