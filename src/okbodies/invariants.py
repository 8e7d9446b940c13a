"""Model-agnostic layer: bodies, Iitaka-type dimensions, restricted
volumes, and the subvariety predicates, dispatching to the toric, surface,
or curve backend.

A backend wraps one variety model and owns every rule that depends on its
kind, among them the canonical class and `stratum(flag, dim)`, the flag
stratum of dimension dim (ray indices of a toric flag; the pair (dim, flag
curve) on surfaces; the dimension itself on curves, whose flag is always
(curve, general point)).  A total space's backend also derives an
instance's fibration data (`fibration`) and decides its decomposition in
the class group (`same_class`).
"""

from __future__ import annotations

import math
from fractions import Fraction

from . import surface as surfmod
from . import toric as toricmod
from .curve import CurveModel
from .linalg import frac, mat_vec, qvec, solve_rect
from .polytope import Polytope
from .toric import NEG_INF
from .value import Value

UNDECLARED = "undeclared"


class DimsReport(Value):
    """kappa / nu / kappa_vol / kappa_sigma of one divisor class.

    kappa may be undeclared (None): it is not a numerical invariant and is
    never guessed on abstract surfaces.  kappa_sigma is computed on curves
    and is None, printed "undeclared", on toric and surface models.
    """

    def __init__(self, kappa, nu_bdpp: int, kappa_vol: int, kappa_sigma):
        # kappa: int, NEG_INF, or None for undeclared; kappa_sigma: int or None
        self.kappa, self.nu_bdpp, self.kappa_vol = kappa, nu_bdpp, kappa_vol
        self.kappa_sigma = kappa_sigma
        chain = [k for k in (kappa, nu_bdpp, kappa_vol) if k is not None]
        for lo, hi in zip(chain, chain[1:]):
            if lo > hi:
                raise ValueError("dimension chain violated: %r" % (self,))

    def __repr__(self):
        return "DimsReport(%s)" % ", ".join(f"{k}={v!r}"
                                            for k, v in vars(self).items())

    def to_obj(self):
        def enc(v):
            if v is None:
                return UNDECLARED
            if v == NEG_INF:
                return "-infinity"
            return v

        return {"kappa": enc(self.kappa), "nu_bdpp": self.nu_bdpp,
                "kappa_vol": self.kappa_vol,
                "kappa_sigma": enc(self.kappa_sigma)}


# -- toric backend ------------------------------------------------------------


class ToricBackend(Value):
    def __init__(self, X: toricmod.ToricVariety):
        self.X = X

    @property
    def dim(self):
        return self.X.dim

    def canonical_class(self):
        return (Fraction(-1),) * len(self.X.rays)

    def stratum(self, flag, dim):
        """Ray indices cutting out the flag stratum of dimension `dim`."""
        return flag.ray_order[:self.dim - dim]

    def fibration(self, fs):
        """(pullback, restriction, total flag) of the instance fs: coordinate
        maps of the product fan and the product flag, base strata first."""
        if {type(fs.base), type(fs.fiber)} != {toricmod.ToricVariety}:
            raise ValueError("a toric total space needs a toric base and a "
                             "toric fiber")
        fib = toricmod.product_fibration(fs.base, fs.fiber)
        if fib.total != self.X:
            raise ValueError("total fan is not the product of base and "
                             "fiber fans")
        return fib.pullback, fib.restriction, toricmod.product_flag(
            fib, fs.flag.base_flag, fs.flag.fiber_flag)

    def same_class(self, diff):
        """Equality in the class group: diff must be principal."""
        if solve_rect(self.X.rays, diff) is None:
            raise ValueError("decomposition fails: D - f*D_Y - R is not "
                             "principal")

    def _div(self, cls) -> toricmod.ToricDivisor:
        return toricmod.ToricDivisor(self.X, qvec(cls))

    def _polytope(self, cls) -> Polytope:
        return toricmod.section_polytope(self.X, self._div(cls))

    def is_effective(self, cls):
        return not self._polytope(cls).is_empty

    is_psef = is_effective  # invariant classes: effective iff psef

    def is_big(self, cls):
        return self._polytope(cls).dim() == self.X.dim

    def is_ample(self, cls):
        return toricmod.is_ample(self.X, self._div(cls))

    def body_val(self, cls, flag) -> Polytope:
        return toricmod.okounkov_body_toric(self.X, self._div(cls), flag)

    def body_lim(self, cls, flag) -> Polytope:
        """The valuative body.  For any ample A, the section polytope of
        D + eps*A is the slice at height eps of the compact polytope
        {(u, eps) : <u, ray_i> >= -a_i - eps*b_i, 0 <= eps <= 1}; near
        eps = 0 its vertices move affinely in eps, so the slices tend to
        the section polytope of D in the Hausdorff metric, and the
        intersection over eps > 0 of the bodies is the body of D itself."""
        return self.body_val(cls, flag)

    def volume(self, cls) -> Fraction:
        P = self._polytope(cls)
        return math.factorial(self.X.dim) * P.volume_in_dim(self.X.dim)

    def kappa(self, cls):
        """Iitaka dimension: growth exponent of the section count."""
        P = self._polytope(cls)
        return NEG_INF if P.is_empty else P.dim()

    def restricted_volume(self, cls, stratum) -> Fraction:
        return toricmod.restricted_volume_toric(self.X, self._div(cls), stratum)

    def restricted_volume_plus(self, cls, stratum) -> Fraction:
        """Limit of vol_{X|V}(D + eps*A) as eps -> 0, for any ample A:
        vol_{X|V}(D) itself.

        The face of D + eps*A over the stratum is the slice Q_eps of the
        compact polytope Q = {(u, eps) : <u, ray_i> >= -a_i - eps*b_i, with
        equality on the stratum's rays, 0 <= eps <= 1}.  Up to Q's least
        positive vertex height, each vertex of Q_eps moves affinely, v0 +
        eps*v1, so Q_eps tends to Q_0, the face of D, in the Hausdorff
        metric; Q_0 is nonempty whenever Q_eps is for all small eps, since
        Q is closed.  Volume in the stratum's character lattice is
        continuous in that metric, so the limit is the restricted volume
        of D (Ein-Lazarsfeld-Mustata-Nakamaye-Popa 2009: restricted
        volumes are continuous at invariant strata)."""
        return self.restricted_volume(cls, stratum)

    def dims(self, cls) -> DimsReport:
        """kappa = nu = kappa_vol = d = dim P_D.

        For any ample A, P_{D+eps*A} contains P_D + eps*P_A, whose volume has
        the positive mixed-volume term c*eps^(n-d).  It also lies in P_D +
        eps*B(r), with r the largest speed |v1| of its vertices v0 + eps*v1
        near eps = 0, and the Steiner polynomial of that sum starts at
        eps^(n-d).  So vol(D + eps*A) grows like eps^(n-d), and kappa_vol =
        d = kappa."""
        k = self.kappa(cls)
        if k == NEG_INF:
            raise ValueError("class has no sections; dimensions undefined")
        return DimsReport(kappa=k, nu_bdpp=k, kappa_vol=k, kappa_sigma=None)

    def nakayama(self, cls, stratum):
        return toricmod.nakayama_verdict(self.X, self._div(cls), stratum)

    def is_pvs(self, cls, stratum) -> bool:
        nu = self.dims(cls).nu_bdpp
        if self.X.dim - len(tuple(stratum)) != nu:
            return False
        return self.restricted_volume_plus(cls, stratum) > 0


# -- surface backend ----------------------------------------------------------


class SurfaceBackend(Value):
    def __init__(self, S: surfmod.SurfaceLattice):
        self.S = S

    @property
    def dim(self):
        return 2

    def canonical_class(self):
        return qvec(self.S.canonical_class)

    def stratum(self, flag_curve, dim):
        """(dim, flag curve): the surface, the flag curve or the flag point."""
        return dim, flag_curve

    def fibration(self, fs):
        """(pullback, restriction, flag curve) of the instance fs: the declared
        pullback's column is the fiber class F, restriction the degree on F."""
        if {type(fs.base), type(fs.fiber)} != {CurveModel}:
            raise ValueError("a surface total space needs a curve base and "
                             "a curve fiber")
        if fs.pullback is None:
            raise ValueError("a surface over a curve needs the pullback: "
                             "its column is the fiber class F")
        F = tuple(row[0] for row in fs.pullback if row)  # shape checked later
        if F not in self.S.effective_generators or self.S.pair(F, F) != 0:
            raise ValueError(f"pullback: the fiber class F = "
                             f"({', '.join(map(str, F))}) must be an "
                             f"effective generator with F.F = 0")
        return (fs.pullback, (mat_vec(self.S.gram, F),),
                self.S.effective_generators.index(F))

    def same_class(self, diff):
        """Classes are numerical: diff must be zero."""
        if any(diff):
            raise ValueError("decomposition fails: D != f*D_Y + R in the "
                             "class group")

    def is_psef(self, cls):
        return surfmod.is_psef(self.S, cls)

    # numerical data cannot separate effective from psef; psef stands in
    is_effective = is_psef

    def is_big(self, cls):
        """Pseudoeffective with a positive part of positive self-intersection."""
        return surfmod.volume_surface(self.S, cls) > 0

    def is_ample(self, cls):
        return surfmod.is_ample(self.S, cls)

    def body_val(self, cls, flag_curve) -> Polytope:
        """Body of honest sections: direct for big classes, declared
        Iitaka-degree rescaling of the limiting body otherwise."""
        if self.is_big(cls):
            return surfmod.okounkov_body_surface(self.S, cls, flag_curve)
        return surfmod.valuative_body_abundant(self.S, cls, flag_curve)

    def body_lim(self, cls, flag_curve) -> Polytope:
        """Limiting body, exact: the body of D itself, for any ample A
        (`limiting_body_surface`)."""
        return surfmod.limiting_body_surface(self.S, cls, flag_curve)

    def volume(self, cls) -> Fraction:
        return surfmod.volume_surface(self.S, cls)

    def kappa(self, cls):
        return self.S.kappa_declared(cls)  # None = undeclared, never guessed

    def dims(self, cls) -> DimsReport:
        nd = surfmod.numerical_dims_surface(self.S, cls)
        return DimsReport(kappa=self.kappa(cls), nu_bdpp=nd["nu_bdpp"],
                          kappa_vol=nd["kappa_vol"], kappa_sigma=None)

    def restricted_volume_plus(self, cls, stratum) -> Fraction:
        stratum_dim, flag_curve = stratum
        return surfmod.restricted_volume_plus(self.S, cls, stratum_dim,
                                              flag_curve)

    def nakayama(self, cls, stratum):
        """Surfaces cannot enumerate sections; only the trivial cases are
        certified, the rest stay bounded-level declarations."""
        stratum_dim, _flag_curve = stratum
        k = self.kappa(cls)
        if k is not None and stratum_dim != k:
            return "false", None
        if stratum_dim == 2:
            return "certified", None  # restriction to X is the identity
        return "checked_up_to", 0

    def is_pvs(self, cls, stratum) -> bool:
        if stratum[0] != self.dims(cls).nu_bdpp:
            return False
        return self.restricted_volume_plus(cls, stratum) > 0


# -- curve backend ------------------------------------------------------------


class CurveBackend(Value):
    """Divisor classes are tracked by degree (length-1 class vectors).
    Degree zero is taken to be the trivial class, as in every model shipped
    here; a nontrivial degree-zero bundle would have no sections."""

    def __init__(self, C: CurveModel):
        self.C = C

    @property
    def dim(self):
        return 1

    def canonical_class(self):
        return (self.C.canonical_degree,)

    def stratum(self, flag, dim):
        return dim

    @staticmethod
    def _deg(cls):
        if len(cls) != 1:
            raise ValueError("curve classes are length-1 vectors")
        return frac(cls[0])

    def is_effective(self, cls):
        return self._deg(cls) >= 0

    is_psef = is_effective

    def is_big(self, cls):
        return self._deg(cls) > 0

    is_ample = is_big

    def body_val(self, cls, flag=None) -> Polytope:
        """Body for the flag at a general point: [0, d].

        Multiples of a positive-degree divisor are eventually base-point
        free, so the vanishing orders at a general point fill [0, d]; the
        trivial class gives the origin.
        """
        return self._segment(cls, "divisor has no sections")

    def body_lim(self, cls, flag=None) -> Polytope:
        return self._segment(cls, "divisor is not pseudoeffective")

    def _segment(self, cls, negative_degree_error) -> Polytope:
        deg = self._deg(cls)
        if deg < 0:
            raise ValueError(negative_degree_error)
        if deg == 0:
            return Polytope.hull([(0,)])
        return Polytope.hull([(Fraction(0),), (deg,)])

    def volume(self, cls) -> Fraction:
        return max(self._deg(cls), Fraction(0))

    def kappa(self, cls):
        deg = self._deg(cls)
        if deg < 0:
            return NEG_INF
        return 1 if deg > 0 else 0

    def dims(self, cls) -> DimsReport:
        if not self.is_psef(cls):
            raise ValueError("divisor is not pseudoeffective")
        k = self.kappa(cls)
        return DimsReport(kappa=k, nu_bdpp=k, kappa_vol=k, kappa_sigma=k)

    def restricted_volume_plus(self, cls, stratum_dim) -> Fraction:
        """Along the curve: the degree, when positive.  At the flag point:
        1 while D + eps*A has sections for small eps, that is for degree
        >= 0, and 0 for negative degree."""
        deg = self._deg(cls)
        if stratum_dim == 1:
            return deg if deg > 0 else Fraction(0)
        if stratum_dim == 0:
            return Fraction(1) if deg >= 0 else Fraction(0)
        raise ValueError("stratum dimension out of range")

    def nakayama(self, cls, stratum_dim):
        """Stratum is the curve itself (dim 1) or the flag point (dim 0)."""
        k = self.kappa(cls)
        if k == NEG_INF or stratum_dim != k:
            return "false", None
        # positive degree restricted to the curve is the identity; the
        # trivial class restricted to a general point keeps its one section
        return "certified", None

    def is_pvs(self, cls, stratum_dim) -> bool:
        if not self.is_psef(cls):
            raise ValueError("divisor is not pseudoeffective")
        return stratum_dim == self.kappa(cls)


def backend_for(model):
    if isinstance(model, toricmod.ToricVariety):
        return ToricBackend(model)
    if isinstance(model, surfmod.SurfaceLattice):
        return SurfaceBackend(model)
    if isinstance(model, CurveModel):
        return CurveBackend(model)
    raise TypeError("unsupported model type: %r" % type(model))
