"""Abstract smooth projective surfaces given by Neron-Severi data.

A model declares its intersection form, finitely many generators of the
pseudoeffective and nef cones, its negative curves, and the canonical
class; the engine validates internal consistency (Hodge index sign
pattern, nef/effective pairings) but cannot certify the declarations
against actual geometry.

Classes enter the module through `SurfaceLattice._class`, which checks
their length, and pairings run on integer numerators over one denominator
per class.  Cone tests are integer too: the effective cone's facets are
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
takes one; only `numerical_dims_surface` picks one, `some_ample`, for its
cone-data cross-checks.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from fractions import Fraction
from operator import mul

from .linalg import clear_denominators, frac, qvec, signature, solve
from .polytope import Polytope


class ConeDataError(ValueError):
    """Declared cone data cannot support the requested computation."""


def class_key(cls) -> str:
    return ",".join(str(frac(c)) for c in cls)


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
        for nf in self.nef_generators:
            for g in self.effective_generators:
                if self.pair(nf, g) < 0:
                    raise ValueError("a nef generator pairs negatively with "
                                     "an effective generator")
        classes, n = set(), len(self.effective_generators)
        for i in self.negative_curves:
            if not 0 <= i < n:
                raise ValueError("negative curve index out of range")
            c = self.effective_generators[i]
            if self.pair(c, c) >= 0:
                raise ValueError("declared negative curve has self-intersection >= 0")
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

    def pair(self, a, b) -> Fraction:
        (a, qa), (b, qb) = self._ints(a), self._ints(b)
        return Fraction(sum(x * sum(map(mul, row, b))
                            for x, row in zip(a, self.gram)), qa * qb)

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

    def coefficient_of(self, gen_index: int) -> Fraction:
        for i, c in zip(self.support, self.coefficients):
            if i == gen_index:
                return c
        return Fraction(0)


# -- cone membership ----------------------------------------------------------


def is_psef(S: SurfaceLattice, D) -> bool:
    d, _q = S._ints(D)
    return all(sum(map(mul, w, d)) >= 0 for w in S.cone_rows())


def is_nef(S: SurfaceLattice, D) -> bool:
    return all(S.pair(D, g) >= 0 for g in S.effective_generators)


def is_ample(S: SurfaceLattice, D) -> bool:
    return (all(S.pair(D, g) > 0 for g in S.effective_generators)
            and S.pair(D, D) > 0)


def is_big(S: SurfaceLattice, D) -> bool:
    """Pseudoeffective with a positive part of positive self-intersection."""
    return volume_surface(S, D) > 0


def some_ample(S: SurfaceLattice):
    """A convenient ample class; declared cones always admit one here."""
    candidates = []
    if S.nef_generators:
        candidates.append(tuple(sum(col, Fraction(0))
                                for col in zip(*S.nef_generators)))
    candidates.append(tuple(sum(col, Fraction(0))
                            for col in zip(*S.effective_generators)))
    for cand in candidates:
        if is_ample(S, cand):
            return qvec(cand)
    raise ConeDataError("declared cones admit no visible ample class")


# -- Zariski decomposition ----------------------------------------------------


def zariski_decompose(S: SurfaceLattice, D) -> ZariskiPair:
    """Iterative negative-part construction: Zariski's iteration
    `_support_after` on D itself (C = 0, t = 0), then the checks that the
    declared cone data support its result."""
    D = S._class(D)
    if not is_psef(S, D):
        raise ValueError("divisor is not pseudoeffective")
    support, (coeffs, _), (P, _) = _support_after(
        S, D, (Fraction(0),) * S.rank, Fraction(0))
    if any(c < 0 for c in coeffs):
        raise ConeDataError("cone data incomplete: negative part has a "
                            "negative coefficient")
    if not is_nef(S, P):
        raise ConeDataError("cone data incomplete: residual part is not nef")
    N = tuple(d - p for d, p in zip(D, P))
    return ZariskiPair(P, N, tuple(support), tuple(coeffs))


def _support_after(S, D, C, t):
    """Zariski's iteration on D - sC just above s = t (at s = t+).

    Start from the empty support and add every negative curve that the
    positive part of the current support meets negatively at t+, until
    none does.  For a fixed support the negative-part coefficients
    x0 + s*x1 and the positive part p0 + s*p1 are affine in s
    (`_fixed_support_affine`), so each pairing is some a + b*s: negative
    at t+ iff a + b*t < 0, or a + b*t = 0 and b < 0.  Returns (support,
    (x0, x1), (p0, p1)).
    """
    support = []
    while True:
        x, p = _fixed_support_affine(S, D, C, support)
        extra = []
        for i in S.negative_curves:
            if i not in support:
                g = S.effective_generators[i]
                a, b = S.pair(p[0], g), S.pair(p[1], g)
                if a + b * t < 0 or (a + b * t == 0 and b < 0):
                    extra.append(i)
        if not extra:
            return support, x, p
        support = sorted(support + extra)


def _combo(S, indices, coeffs):
    out = [Fraction(0)] * S.rank
    for i, c in zip(indices, coeffs):
        g = S.effective_generators[i]
        for k in range(S.rank):
            out[k] += c * g[k]
    return tuple(out)


def volume_surface(S: SurfaceLattice, D) -> Fraction:
    """Self-intersection of the Zariski positive part (0 off the cone)."""
    D = S._class(D)
    if not is_psef(S, D):
        return Fraction(0)
    zp = zariski_decompose(S, D)
    return S.pair(zp.positive, zp.positive)


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
        u = sum(map(mul, w, d)) * qc
        v = sum(map(mul, w, c)) * qd
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
    """Negative part and positive part of D - tC for a fixed support.

    Returns ((x0, x1), (p0, p1)): N(D - tC) has coefficients x0 + t*x1 on
    the support curves and P(D - tC) = p0 + t*p1 while `support` is the
    Zariski support.  A support that is not negative definite raises.
    """
    curves = [S.effective_generators[i] for i in support]
    x0 = x1 = ()
    if support:
        gram = [[S.pair(a, b) for b in curves] for a in curves]
        pos, _neg, zero = signature(gram)
        if (pos, zero) != (0, 0):
            raise ConeDataError("cone data incomplete: support curves are "
                                "not negative definite")
        x0 = solve(gram, [S.pair(D, c) for c in curves])
        x1 = solve(gram, [-S.pair(C, c) for c in curves])
    n0 = _combo(S, support, x0)
    n1 = _combo(S, support, x1)
    p0 = tuple(d - n for d, n in zip(D, n0))
    p1 = tuple(-c - n for c, n in zip(C, n1))
    return (x0, x1), (p0, p1)


def _chamber_after(S, D, C, t, hi):
    """(t_end, (p0, p1)) with P(D - sC) = p0 + s*p1 on the whole closed
    chamber [t, t_end] that starts at s = t, and t < t_end <= hi.

    `_support_after` gives the support at t+.  It is the Zariski support
    wherever its affine conditions hold, the support coefficients >= 0
    and P nef, and `_cond_window` gives where they do.
    """
    _support, (x0, x1), (p0, p1) = _support_after(S, D, C, t)
    conds = list(zip(x0, x1))
    conds += [(S.pair(p0, g), S.pair(p1, g)) for g in S.effective_generators]
    win = _cond_window(conds, t)
    if win is None or (win[1] is not None and win[1] <= t):
        raise ConeDataError("cone data incomplete: no Zariski chamber "
                            "starts at t=%s" % t)
    return (hi if win[1] is None else min(win[1], hi)), (p0, p1)


def _cond_window(conds, t):
    """Largest interval [lo, hi] around `t` where all conditions hold."""
    lo, hi = None, None
    for a, b in conds:
        if b == 0:
            if a < 0:
                return None
            continue
        root = Fraction(-a, b)
        if b > 0:  # holds for t >= root
            lo = root if lo is None or root > lo else lo
        else:      # holds for t <= root
            hi = root if hi is None or root < hi else hi
    if (lo is not None and lo > t) or (hi is not None and hi < t):
        return None
    return lo, hi


def _beta_breakpoints(S, D, C, lo, hi):
    """[(t, beta(t))] at every chamber breakpoint of [lo, hi], exact."""
    pts = []
    t = lo
    for _ in range(len(S.negative_curves) + 1):
        t_end, p = _chamber_after(S, D, C, t, hi)
        beta = (S.pair(p[0], C), S.pair(p[1], C))  # P(D - tC).C
        pts.append((t, beta[0] + beta[1] * t))
        pts.append((t_end, beta[0] + beta[1] * t_end))
        if t_end >= hi:
            return pts
        t = t_end
    raise ConeDataError("chamber sweep did not terminate")


def _shift(D, C, t):
    return tuple(d - t * c for d, c in zip(qvec(D), qvec(C)))


def okounkov_body_surface(S: SurfaceLattice, D, flag_curve: int) -> Polytope:
    """Body of a pseudoeffective class for the flag (C, general x on C).

    Coordinates: t = order along C, y = order at x of the restriction.
    The lower boundary is 0 since x is general; t starts at the
    multiplicity of C in the negative part of D (smaller orders along C
    are not attained by effective classes) and ends at the cone boundary.
    For big D this is the body of the honest sections; for psef non-big D
    it is the limiting body.
    """
    D = S._class(D)
    if not is_psef(S, D):
        raise ValueError("divisor is not pseudoeffective")
    C = S.effective_generators[flag_curve]
    zp = zariski_decompose(S, D)
    a = zp.coefficient_of(flag_curve)
    mu = psef_threshold(S, D, C)
    if a == mu:
        top = S.pair(zariski_decompose(S, _shift(D, C, mu)).positive, C)
        return Polytope.hull([(mu, Fraction(0)), (mu, top)])
    pts = _beta_breakpoints(S, D, C, a, mu)
    verts = [(a, Fraction(0)), (mu, Fraction(0))] + [(t, y) for t, y in pts]
    return Polytope.hull(verts)


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
    exact growth of vol(D + eps*A) for A = `some_ample(S)`; the order of
    that growth is the same for every ample A.  The chamber of D + eps*A
    that starts at eps = 0 (`_chamber_after` along the direction -A) is
    [0, eps1], where P(D + eps*A) = p0 + eps*p1; so vol(D + eps*A) =
    (p0 + eps*p1)^2 there, with constant term p0^2 and linear term
    2 p0.p1, exactly.  Declared cone data that admit no visible ample
    class, or that contradict the classification, raise ConeDataError.
    """
    D = S._class(D)
    if not is_psef(S, D):
        raise ValueError("divisor is not pseudoeffective")
    A = some_ample(S)
    zp = zariski_decompose(S, D)
    p2 = S.pair(zp.positive, zp.positive)
    if p2 > 0:
        k = 2
    elif any(c != 0 for c in zp.positive):
        k = 1
    else:
        k = 0
    _, (p0, p1) = _chamber_after(S, D, tuple(-a for a in A),
                                 Fraction(0), Fraction(1))
    a0, a1 = S.pair(p0, p0), 2 * S.pair(p0, p1)
    if a0 != p2:
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
    D = S._class(D)
    if flag_curve not in S.iitaka_degrees:
        raise ValueError("valuative body undeterminable from numerical data")
    if not _proportional(D, S.canonical_class):
        raise ValueError("abundance declaration only covers canonical-type "
                         "classes")
    body = limiting_body_surface(S, D, flag_curve)
    return body.scale(Fraction(1, S.iitaka_degrees[flag_curve]))


def _proportional(D, K):
    if all(c == 0 for c in D) or all(c == 0 for c in K):
        return all(c == 0 for c in D)
    ratio = None
    for d, k in zip(D, K):
        if k == 0:
            if d != 0:
                return False
            continue
        r = frac(d) / frac(k)
        if ratio is None:
            ratio = r
        elif r != ratio:
            return False
    return ratio is not None and ratio > 0


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
