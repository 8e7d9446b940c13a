"""Abstract smooth projective surfaces given by Neron-Severi data.

A model declares its intersection form, finitely many generators of the
pseudoeffective and nef cones, its negative curves, and the canonical
class; the engine validates internal consistency (Hodge index sign
pattern, nef/effective pairings) but cannot certify the declarations
against actual geometry.

Classes enter the module through `SurfaceLattice._class`, which checks
their length; inside, a class is integer numerators over one denominator
(`SurfaceLattice._ints`), as is each affine family p0 + s p1.  A lattice
keeps the Gram images G g of its effective generators, so a pairing with
a generator is one integer dot product, and the Zariski support is solved
fraction-free (`linalg.int_solve`); `Fraction`s are made only for results
such as `pair`, `ZariskiPair` and body vertices.  Cone tests are integer
too: the effective cone's facets are
the facets through the origin of hull(0, g_1, ..., g_k), as in a
double-description step (Fukuda-Prodon 1996), read once per lattice as
integer rows (`SurfaceLattice.cone_rows`); D is psef iff every row pairs
with D to >= 0, and the psef threshold along C is the upper end of the
interval of t the rows leave for D - tC.

Bodies for a flag (C, x) with x general on C come out of the Zariski
decomposition of D - tC: the lower boundary is 0 (general point), the
upper boundary is the piecewise-linear t -> P(D - tC).C, and t ranges
from the multiplicity of C in the negative part of D up to the boundary
of the pseudoeffective cone.  The chamber sweep takes one exact step per
chamber: along D - sC the negative part is piecewise affine and
nondecreasing (Lazarsfeld-Mustata 2009, section 6.2) across the Zariski
chambers of Bauer-Kuronya-Szemberg 2004, so Zariski's iteration on the
affine pairings just above s = t (`_support_after`) gives the support of
the chamber starting at t, and its affine validity conditions give where
that chamber ends.  The support only grows, so there are at most one
more chambers than negative curves.

The eps-limits over D + eps*A (the limiting body, nu and kappa_vol) are
the same for every ample A (`limiting_body_surface`), so no function here
takes one; only `numerical_dims_surface` picks one, `_ample_class`, for
its cone-data cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .linalg import clear_denominators, frac, int_solve, qvec, signature
from .polytope import Polytope


class ConeDataError(ValueError):
    """Declared cone data cannot support the requested computation."""


def class_key(cls) -> str:
    return ",".join(str(frac(c)) for c in cls)


def _dot(a, b) -> int:
    return sum(map(mul, a, b))


@dataclass(frozen=True)
class SurfaceLattice:
    rank: int
    gram: tuple[tuple[int, ...], ...]
    effective_generators: tuple[tuple[Fraction, ...], ...]
    nef_generators: tuple[tuple[Fraction, ...], ...]
    negative_curves: tuple[int, ...]  # indices into effective_generators
    canonical_class: tuple[Fraction, ...]
    # declared {effective generator index: degree >= 1 of the Iitaka map on
    # it} and {class: kappa 0, 1 or 2}; an empty map declares nothing
    iitaka_degrees: dict = field(default_factory=dict)
    declared_kappa: dict = field(default_factory=dict)
    _cone: tuple | None = field(default=None, init=False, compare=False,
                                repr=False)
    # the effective generators as (integer row g, q), and their images G g
    _gens: tuple = field(default=(), init=False, compare=False, repr=False)
    _imgs: tuple = field(default=(), init=False, compare=False, repr=False)

    def __post_init__(self):
        r = self.rank
        if len(self.gram) != r or any(len(row) != r for row in self.gram):
            raise ValueError("gram must be rank x rank")
        for i in range(r):
            for j in range(r):
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("gram must be symmetric")
        pos, neg, zero = signature(self.gram)
        if (pos, neg, zero) != (1, r - 1, 0):
            raise ValueError("intersection form must have signature (1, rank-1)")
        for v in (*self.effective_generators, *self.nef_generators,
                  self.canonical_class):
            if len(v) != r:
                raise ValueError("class vectors must have length rank")
        gens = tuple(map(self._ints, self.effective_generators))
        object.__setattr__(self, "_gens", gens)
        object.__setattr__(self, "_imgs",
                           tuple(self._image(g) for g, _q in gens))
        if any(_dot(self._ints(nf)[0], img) < 0
               for nf in self.nef_generators for img in self._imgs):
            raise ValueError("a nef generator pairs negatively with "
                             "an effective generator")
        classes, n = set(), len(self.effective_generators)
        for i in self.negative_curves:
            if not 0 <= i < n:
                raise ValueError("negative curve index out of range")
            if _dot(gens[i][0], self._imgs[i]) >= 0:
                raise ValueError("declared negative curve has self-intersection >= 0")
            c = self.effective_generators[i]
            if c in classes:
                raise ValueError(f"negative_curves names the class of "
                                 f"effective generator {i} twice")
            classes.add(c)
        for i, deg in self.iitaka_degrees.items():
            if not (0 <= i < n and deg >= 1):
                raise ValueError(f"abundance.iitaka_degree_on[{i}] = {deg}: "
                                 f"needs an index below {n} and a degree >= 1")
        for cls, k in self.declared_kappa.items():
            if len(cls) != r or k not in (0, 1, 2):
                raise ValueError(f"declared_kappa[{class_key(cls)}] = {k}: "
                                 f"needs a length-{r} class, kappa 0, 1 or 2")

    def _class(self, v) -> tuple[Fraction, ...]:
        """v as a class: a tuple of `rank` Fractions; every class enters
        the module through here."""
        v = qvec(v)
        if len(v) != self.rank:
            raise ValueError("class vectors must have length rank")
        return v

    def _ints(self, v) -> tuple[tuple[int, ...], int]:
        """(numerators, q): the class v as integers over its least common
        denominator q."""
        (ints,), q = clear_denominators([self._class(v)])
        return ints, q

    def _image(self, v) -> tuple[int, ...]:
        """G v for an integer vector v."""
        return tuple(_dot(row, v) for row in self.gram)

    def pair(self, a, b) -> Fraction:
        (a, qa), (b, qb) = self._ints(a), self._ints(b)
        return Fraction(_dot(a, self._image(b)), qa * qb)

    def cone_rows(self) -> tuple[tuple[int, ...], ...]:
        """Inward integer normals w of the effective cone's facets, made on
        first use: D is pseudoeffective iff w . D >= 0 for every w.

        cone(g_1, ..., g_k) is the tangent cone at 0 of
        hull(0, g_1, ..., g_k), so its facets are the facet rows of that
        hull with offset 0, equality pairs included (a cone that does not
        span, or no generators at all); a cone with a line, or zero and
        duplicate generators, need nothing extra.
        """
        if self._cone is None:
            body = Polytope.hull([(0,) * self.rank, *self.effective_generators])
            rows, _qh = body._facet_rows()
            object.__setattr__(self, "_cone", tuple(
                tuple(-x for x in a) for a, c in rows if c == 0))
        return self._cone

    def kappa_declared(self, cls):
        return self.declared_kappa.get(self._class(cls))

    def to_obj(self):
        obj = {
            "kind": "surface",
            "rank": self.rank,
            "gram": [list(row) for row in self.gram],
            "effective_generators": [[str(c) for c in g]
                                     for g in self.effective_generators],
            "nef_generators": [[str(c) for c in g] for g in self.nef_generators],
            "negative_curves": list(self.negative_curves),
            "canonical_class": [str(c) for c in self.canonical_class],
        }
        if self.iitaka_degrees:
            obj["abundance"] = {"iitaka_degree_on": {
                str(i): d for i, d in sorted(self.iitaka_degrees.items())}}
        if self.declared_kappa:
            obj["declared_kappa"] = {class_key(cls): k for cls, k in
                                     self.declared_kappa.items()}
        return obj


@dataclass(frozen=True)
class ZariskiPair:
    positive: tuple[Fraction, ...]
    negative: tuple[Fraction, ...]
    support: tuple[int, ...]            # indices into effective_generators
    coefficients: tuple[Fraction, ...]  # of the support curves in N


# -- cone membership ----------------------------------------------------------


def _in_cone(S, d) -> bool:
    return all(_dot(w, d) >= 0 for w in S.cone_rows())


def is_psef(S: SurfaceLattice, D) -> bool:
    return _in_cone(S, S._ints(D)[0])


def is_nef(S: SurfaceLattice, D) -> bool:
    d, _q = S._ints(D)
    return all(_dot(d, img) >= 0 for img in S._imgs)


def is_ample(S: SurfaceLattice, D) -> bool:
    d, _q = S._ints(D)
    return (all(_dot(d, img) > 0 for img in S._imgs)
            and _dot(d, S._image(d)) > 0)


def is_big(S: SurfaceLattice, D) -> bool:
    """Pseudoeffective with a positive part of positive self-intersection."""
    return volume_surface(S, D) > 0


def _ample_class(S: SurfaceLattice):
    """A convenient ample class (a, q), the sum of the nef generators or
    else of the effective ones; declared cones always admit one here."""
    for gens in (S.nef_generators, S.effective_generators):
        if gens:
            ints, q = clear_denominators(gens)
            a = tuple(map(sum, zip(*ints)))
            if is_ample(S, a):
                return a, q
    raise ConeDataError("declared cones admit no visible ample class")


# -- Zariski decomposition ----------------------------------------------------


def zariski_decompose(S: SurfaceLattice, D) -> ZariskiPair:
    """Iterative negative-part construction: Zariski's iteration
    `_support_after` on D itself (C = 0, t = 0), then the checks that the
    declared cone data support its result (`_zariski`)."""
    d, qd = S._ints(D)
    if not _in_cone(S, d):
        raise ValueError("divisor is not pseudoeffective")
    support, x0, p0, q = _zariski(S, (d, qd))
    k = q // qd
    return ZariskiPair(tuple(Fraction(p, q) for p in p0),
                       tuple(Fraction(k * a - p, q) for a, p in zip(d, p0)),
                       tuple(support), tuple(Fraction(x, q) for x in x0))


def _zariski(S, D):
    """(support, x0, p0, q) for the class D = (d, qd): the negative part
    has the coefficients x0 / q on the support curves and the positive
    part is p0 / q.  Raises ConeDataError when the declared cone data do
    not support the result."""
    support, x, (p0, _p1), q = _support_after(S, D, ((0,) * S.rank, 1), 0)
    if any(a < 0 for a, _b in x):
        raise ConeDataError("cone data incomplete: negative part has a "
                            "negative coefficient")
    if any(_dot(p0, img) < 0 for img in S._imgs):
        raise ConeDataError("cone data incomplete: residual part is not nef")
    return support, [a for a, _b in x], p0, q


def _drops(a, b, t) -> bool:
    """Whether a + b*s < 0 just above s = t (at s = t+)."""
    v = a * t.denominator + b * t.numerator
    return v < 0 or (v == 0 and b < 0)


def _support_after(S, D, C, t):
    """Zariski's iteration on D - sC just above s = t (at s = t+), for
    classes D = (d, qd) and C = (c, qc).

    Start from the empty support and add every negative curve that the
    positive part of the current support meets negatively at t+, until
    none does.  For a fixed support the negative-part coefficients and
    the positive part are affine in s (`_fixed_support_affine`), so each
    pairing is some (a + b*s) / q with q > 0: negative at t+ iff a + b*t
    < 0, or a + b*t = 0 and b < 0.  Returns (support, x, (p0, p1), q) as
    `_fixed_support_affine` does.
    """
    support = []
    while True:
        x, (p0, p1), q = _fixed_support_affine(S, D, C, support)
        extra = [i for i in S.negative_curves if i not in support
                 and _drops(_dot(p0, S._imgs[i]), _dot(p1, S._imgs[i]), t)]
        if not extra:
            return support, x, (p0, p1), q
        support = sorted(support + extra)


def volume_surface(S: SurfaceLattice, D) -> Fraction:
    """Self-intersection of the Zariski positive part (0 off the cone)."""
    d, qd = S._ints(D)
    if not _in_cone(S, d):
        return Fraction(0)
    _support, _x0, p, q = _zariski(S, (d, qd))
    return Fraction(_dot(p, S._image(p)), q * q)


# -- bodies -------------------------------------------------------------------


def psef_threshold(S: SurfaceLattice, D, C) -> Fraction:
    """sup{t >= 0 : D - tC pseudoeffective}, exact.

    With D = d/qd and C = c/qc, each cone row w holds at D - tC iff
    t * v <= u for the integers u = (w.d) qc and v = (w.c) qd, so the
    t >= 0 with D - tC in the cone form an interval.  D itself need not
    lie in it: t is bounded below by the rows with v < 0.  An empty
    interval raises ValueError, one with no upper end ConeDataError.
    """
    (d, qd), (c, qc) = S._ints(D), S._ints(C)
    lo, hi = Fraction(0), None
    for w in S.cone_rows():
        u = _dot(w, d) * qc
        v = _dot(w, c) * qd
        if v > 0:
            hi = Fraction(u, v) if hi is None else min(hi, Fraction(u, v))
        elif v < 0:
            lo = max(lo, Fraction(u, v))
        elif u < 0:  # v == 0: the row fails for every t
            raise ValueError("divisor is not pseudoeffective")
    if hi is not None and hi < lo:
        raise ValueError("divisor is not pseudoeffective")
    if hi is None:
        raise ConeDataError("D - tC never leaves the declared cone")
    return hi


def _fixed_support_affine(S, D, C, support):
    """Negative and positive part of D - tC for a fixed support, for the
    classes D = (d, qd) and C = (c, qc).

    With the support curves g_i / q_i, N(D - tC) = sum(y_i g_i), where
    sum_i y_i (g_i . g_j) = (D - tC) . g_j on the support: times qd qc, an
    integer system with the right-hand side qc (d . g_j) - t qd (c . g_j),
    so one elimination solves it as qd qc y = (y0 + t y1) / e.  Returns
    (x, (p0, p1), q), q = e qd qc: N(D - tC) has the coefficients
    (x0 + t x1) / q on the support curves, [(x0, x1)] = x, and P(D - tC)
    = (p0 + t p1) / q while `support` is the Zariski support.  A support
    that is not negative definite raises.
    """
    (d, qd), (c, qc) = D, C
    gens = [S._gens[i] for i in support]
    ys, e = [], 1
    if support:
        imgs = [S._imgs[i] for i in support]
        gram = [[_dot(g, img) for g, _q in gens] for img in imgs]
        pos, _neg, zero = signature(gram)
        if (pos, zero) != (0, 0):
            raise ConeDataError("cone data incomplete: support curves are "
                                "not negative definite")
        ys, e = int_solve([row + [qc * _dot(d, img), -qd * _dot(c, img)]
                           for row, img in zip(gram, imgs)])
    p0 = [e * qc * a for a in d]
    p1 = [-e * qd * a for a in c]
    for (y0, y1), (g, _q) in zip(ys, gens):
        p0 = [a - y0 * b for a, b in zip(p0, g)]
        p1 = [a - y1 * b for a, b in zip(p1, g)]
    x = [(qg * y0, qg * y1) for (y0, y1), (_g, qg) in zip(ys, gens)]
    return x, (p0, p1), e * qd * qc


def _chamber_after(S, D, C, t, hi):
    """(t_end, (p0, p1), q) with P(D - sC) = (p0 + s*p1) / q on the whole
    closed chamber [t, t_end] that starts at s = t, and t < t_end <= hi.

    `_support_after` gives the support at t+, the Zariski support wherever
    its affine conditions a + b*s >= 0 hold: the support coefficients and
    P's pairings with the effective generators.  None may drop at t+, and
    the chamber ends at hi or the least root -a/b of those with b < 0.
    """
    _support, x, (p0, p1), q = _support_after(S, D, C, t)
    conds = x + [(_dot(p0, img), _dot(p1, img)) for img in S._imgs]
    if any(_drops(a, b, t) for a, b in conds):
        raise ConeDataError("cone data incomplete: no Zariski chamber "
                            "starts at t=%s" % t)
    end = hi.numerator, hi.denominator
    for a, b in conds:
        if b < 0 and a * end[1] < -b * end[0]:
            end = a, -b
    return Fraction(*end), (p0, p1), q


def _beta_breakpoints(S, D, C, lo, hi):
    """[(t, beta(t))] at every chamber breakpoint of [lo, hi], exact, for
    beta(t) = P(D - tC).C and classes D = (d, qd), C = (c, qc)."""
    c, qc = C
    img = S._image(c)
    pts = []
    t = lo
    for _ in range(len(S.negative_curves) + 1):
        t_end, (p0, p1), q = _chamber_after(S, D, C, t, hi)
        b0, b1 = _dot(p0, img), _dot(p1, img)  # beta = (b0 + b1 t) / (q qc)
        pts += [(s, Fraction(b0 * s.denominator + b1 * s.numerator,
                             q * qc * s.denominator)) for s in (t, t_end)]
        if t_end >= hi:
            return pts
        t = t_end
    raise ConeDataError("chamber sweep did not terminate")


def okounkov_body_surface(S: SurfaceLattice, D, flag_curve: int) -> Polytope:
    """Body of a pseudoeffective class for the flag (C, general x on C).

    Coordinates: t = order along C, y = order at x of the restriction.
    The lower boundary is 0 since x is general; t starts at the
    multiplicity of C in the negative part of D (smaller orders along C
    are not attained by effective classes) and ends at the cone boundary.
    For big D this is the body of the honest sections; for psef non-big D
    it is the limiting body.
    """
    d, qd = S._ints(D)
    if not _in_cone(S, d):
        raise ValueError("divisor is not pseudoeffective")
    C = S._gens[flag_curve]
    support, x0, _p0, q = _zariski(S, (d, qd))
    a = Fraction(x0[support.index(flag_curve)] if flag_curve in support
                 else 0, q)
    mu = psef_threshold(S, D, S.effective_generators[flag_curve])
    if a == mu:  # P(D - mu C).C, with D - mu C over qd qc den(mu)
        (c, qc), m, n = C, mu.numerator, mu.denominator
        shifted = [n * qc * x - m * qd * y for x, y in zip(d, c)]
        _s, _x, p, q = _zariski(S, (shifted, qd * qc * n))
        top = Fraction(_dot(p, S._imgs[flag_curve]), q * qc)
        return Polytope.hull([(mu, 0), (mu, top)])
    pts = _beta_breakpoints(S, (d, qd), C, a, mu)
    return Polytope.hull([(a, 0), (mu, 0)] + pts)


def limiting_body_surface(S: SurfaceLattice, D, flag_curve: int) -> Polytope:
    """Common limit of the bodies of D + eps*A as eps -> 0, for any ample
    A: the body of D, so no A is needed to compute it.

    This is exact, not an extrapolation.  For each t, the negative-part
    support of D - tC + eps*A is monotone in eps and takes finitely many
    values, so it is fixed on a first chamber (0, eps1], where it is the
    support that Zariski's iteration gives at eps = 0+ (`_support_after`
    along the direction -A).  There
    N(D - tC + eps*A) solves a linear system whose right-hand side is
    affine in eps, so N is affine in eps.  Its limit at eps = 0 still has
    nonnegative coefficients, a negative definite support, a nef residual
    orthogonal to the support, and those conditions define N(D - tC)
    uniquely.  Hence the boundary functions of the bodies converge to
    those of D (with the psef threshold and the multiplicity of C as the
    ends), and by continuity of Okounkov bodies the limiting body is
    `okounkov_body_surface(S, D, flag_curve)`, whichever A is used.
    """
    return okounkov_body_surface(S, D, flag_curve)


# -- numerical dimensions -----------------------------------------------------


def numerical_dims_surface(S: SurfaceLattice, D) -> dict:
    """nu and kappa_vol of a pseudoeffective class.

    Classified by the Zariski positive part and cross-checked against the
    exact growth of vol(D + eps*A) for A = `_ample_class(S)`; the order of
    that growth is the same for every ample A.  The chamber of D + eps*A
    that starts at eps = 0 (`_chamber_after` along the direction -A) is
    [0, eps1], where P(D + eps*A) = (p0 + eps*p1) / q; so vol(D + eps*A)
    = (p0 + eps*p1)^2 / q^2 there, with constant term p0^2 / q^2 and
    linear term 2 p0.p1 / q^2, exactly.  Declared cone data that admit no
    visible ample class, or that contradict the classification, raise
    ConeDataError.
    """
    d, qd = S._ints(D)
    if not _in_cone(S, d):
        raise ValueError("divisor is not pseudoeffective")
    a, qa = _ample_class(S)
    _support, _x0, p, qz = _zariski(S, (d, qd))
    p2 = _dot(p, S._image(p))
    k = 2 if p2 > 0 else (1 if any(p) else 0)
    _, (p0, p1), q = _chamber_after(S, (d, qd), (tuple(-x for x in a), qa),
                                    0, 1)
    img = S._image(p0)
    a0, a1 = _dot(p0, img), _dot(p1, img)
    if a0 * qz * qz != p2 * q * q:
        raise ConeDataError("chamber volume at eps=0 contradicts the "
                            "Zariski decomposition")
    fitted = 2 if a0 > 0 else (1 if a1 > 0 else 0)
    if fitted != k:
        raise ConeDataError("volume growth contradicts the Zariski "
                            "classification")
    return {"nu_bdpp": k, "kappa_vol": k}


def valuative_body_abundant(S: SurfaceLattice, D, flag_curve: int) -> Polytope:
    """Body of honest sections of a canonical-type class, via the declared
    degree of the Iitaka map on the flag curve: (1/deg) * limiting body."""
    (d, _q), (k, _qk) = S._ints(D), S._ints(S.canonical_class)
    if flag_curve not in S.iitaka_degrees:
        raise ValueError("valuative body undeterminable from numerical data")
    # D = rK with r > 0, or D = 0: d.k > 0 and Cauchy-Schwarz holds with
    # equality, which it does exactly for parallel d and k
    dk = _dot(d, k)
    if any(d) and not (dk > 0 and dk * dk == _dot(d, d) * _dot(k, k)):
        raise ValueError("abundance declaration only covers canonical-type "
                         "classes")
    body = limiting_body_surface(S, D, flag_curve)
    return body.scale(Fraction(1, S.iitaka_degrees[flag_curve]))


# -- augmented restricted volumes --------------------------------------------


def restricted_volume_plus(S: SurfaceLattice, D, stratum_dim: int,
                           flag_curve: int | None = None) -> Fraction:
    """vol+ of D along a flag stratum (the surface, the flag curve, or the
    flag point), via Zariski continuity."""
    D = S._class(D)
    if not is_psef(S, D):
        raise ValueError("divisor is not pseudoeffective")
    if stratum_dim == 2:
        return volume_surface(S, D)
    if stratum_dim == 1:
        if flag_curve is None:
            raise ValueError("curve stratum needs the flag curve index")
        zp = zariski_decompose(S, D)
        return S.pair(zp.positive, S.effective_generators[flag_curve])
    if stratum_dim == 0:
        return Fraction(1)
    raise ValueError("stratum dimension out of range")
