"""Fiber-space instances and the subadditivity check harness.

An instance packages a fibration f: X -> Y with general fiber F as three
models (total, base, fiber), a pullback map on divisor classes, a
restriction map to the fiber, a decomposition D ~ f*D_Y + R, and declared
hypotheses (weak positivity, isotriviality) that are deep theorems outside
numerical reach.  The checks verify everything that is decidable from the
models, compute the three bodies for the fiber-type flag (base coordinates
first, then fiber coordinates), and report machine-readable verdicts; every
model-specific rule (canonical classes, flag strata) is a backend's.

Each body check compares the total-space body with the product
Delta_Y(D_Y) x Delta_F(R|_F) (`Polytope.product`): its vertices are the
pairs of vertices, its dimensions add and its volumes multiply.  The
inclusion is decided by support functions, with no hull: P contains
Q = B x F iff h_Q(a) <= c for every half-space a . x <= c of P (equality
pairs included), and h_Q(a) = h_B(a_B) + h_F(a_F), where a_B and a_F are
the base and fiber coordinates of a; `Polytope.support_rows` gives all
three as integers over one denominator.  The margin max(0, h_Q(a) - c)
over the half-spaces is the worst violation of a vertex of Q.

  holds   containment with margin 0 and equal bodies
  strict  containment with margin 0 and lhs strictly larger
  fails   some vertex of the product escapes the total-space body
  hypotheses-not-met  a precondition failed; nothing is asserted

Exit semantics for the CLI: holds/strict -> 0, fails -> 1, gated -> 2.
"""

from __future__ import annotations

import hashlib
import json
from dataclasses import dataclass, field
from fractions import Fraction

from . import surface as surfmod
from . import toric as toricmod
from .invariants import backend_for
from .linalg import frac, mat_vec, qvec, solve_rect
from .polytope import Polytope
from .toric import NEG_INF

HOLDS = "holds"
STRICT = "strict"
FAILS = "fails"
GATED = "hypotheses-not-met"


def _flag_obj(flag):
    return flag.to_obj() if hasattr(flag, "to_obj") else flag


@dataclass(frozen=True)
class FiberTypeFlag:
    """Composite flag: base strata pulled back, then fiber strata.

    Valuation vectors concatenate base coordinates first, so the
    right-hand side of subadditivity is the product Delta_Y x Delta_F.
    """

    base_flag: object   # ToricFlag or None (curves have a unique flag shape)
    fiber_flag: object

    def to_obj(self):
        return {"base": _flag_obj(self.base_flag),
                "fiber": _flag_obj(self.fiber_flag)}


@dataclass
class FiberSpaceInstance:
    name: str
    base: object
    fiber: object
    total: object
    pullback: tuple            # matrix: base classes -> total classes
    restriction: tuple         # matrix: total classes -> fiber classes
    D: tuple
    D_Y: tuple
    R: tuple
    hypotheses: dict
    flag: FiberTypeFlag
    total_flag: object = None  # ToricFlag, or flag-curve index for surfaces
    ample: dict = field(default_factory=dict)  # optional "A", "A_Y" classes

    def __post_init__(self):
        self.D = qvec(self.D)
        self.D_Y = qvec(self.D_Y)
        self.R = qvec(self.R)
        self.pullback = tuple(qvec(row) for row in self.pullback)
        self.restriction = tuple(qvec(row) for row in self.restriction)
        self.total_backend = backend_for(self.total)
        self.base_backend = backend_for(self.base)
        self.fiber_backend = backend_for(self.fiber)
        self._validate()

    # -- structure ----------------------------------------------------------

    def pull(self, base_cls):
        return mat_vec(self.pullback, qvec(base_cls))

    def restrict(self, total_cls):
        return mat_vec(self.restriction, qvec(total_cls))

    @property
    def R_fiber(self):
        return self.restrict(self.R)

    def _validate(self):
        total, base, fiber = (self.total_backend, self.base_backend,
                              self.fiber_backend)
        if total.dim != base.dim + fiber.dim:
            raise ValueError(f"total dimension {total.dim} is not base + "
                             f"fiber dimension {base.dim} + {fiber.dim}")
        if total.kind == "toric" and not base.kind == fiber.kind == "toric":
            raise ValueError("a toric total space needs a toric base and a "
                             "toric fiber")
        diff = tuple(d - p - r for d, p, r in
                     zip(self.D, self.pull(self.D_Y), self.R))
        if isinstance(self.total, toricmod.ToricVariety):
            # equality in the class group: the difference must be principal
            rays = [qvec(r) for r in self.total.rays]
            if solve_rect(rays, list(diff)) is None:
                raise ValueError("decomposition fails: D - f*D_Y - R is not "
                                 "principal")
            fib = toricmod.product_fibration(self.base, self.fiber)
            if fib.total != self.total:
                raise ValueError("total fan is not the product of base and "
                                 "fiber fans")
        else:
            if any(x != 0 for x in diff):
                raise ValueError("decomposition fails: D != f*D_Y + R in the "
                                 "class group")
        # vertical classes restrict to zero on the fiber
        comp = [self.restrict(col) for col in zip(*self.pullback)]
        if any(x != 0 for row in comp for x in row):
            raise ValueError("restriction o pullback must vanish")
        if isinstance(self.total, surfmod.SurfaceLattice):
            fiber_cls = self.pull([1])
            gen = self.total.effective_generators[self.total_flag]
            if tuple(gen) != tuple(fiber_cls):
                raise ValueError("total flag curve must be the fiber class "
                                 "f^{-1}(base flag point)")

    def total_val_body(self, cls) -> Polytope:
        return self.total_backend.body_val(cls, self.total_flag)

    def total_lim_body(self, cls) -> Polytope:
        A = self.ample.get("A")
        return self.total_backend.body_lim(cls, self.total_flag, A)

    # -- flag strata --------------------------------------------------------

    def base_nakayama_ok(self, cls) -> tuple[bool, str]:
        return _flag_has_nakayama(self.base_backend, cls, self.flag.base_flag)

    def fiber_nakayama_ok(self, cls) -> tuple[bool, str]:
        return _flag_has_nakayama(self.fiber_backend, cls, self.flag.fiber_flag)

    def base_pvs_ok(self, cls) -> bool:
        return _flag_has_pvs(self.base_backend, cls, self.flag.base_flag)

    def fiber_pvs_ok(self, cls) -> bool:
        return _flag_has_pvs(self.fiber_backend, cls, self.flag.fiber_flag)

    # -- serialization ------------------------------------------------------

    def to_obj(self):
        obj = {
            "name": self.name,
            "base": self.base.to_obj(),
            "fiber": self.fiber.to_obj(),
            "total": self.total.to_obj(),
            "pullback": [[str(x) for x in row] for row in self.pullback],
            "restriction": [[str(x) for x in row] for row in self.restriction],
            "decomposition": {"D": [str(x) for x in self.D],
                              "D_Y": [str(x) for x in self.D_Y],
                              "R": [str(x) for x in self.R]},
            "hypotheses": dict(sorted(self.hypotheses.items())),
            "flags": self.flag.to_obj(),
            "total_flag": _flag_obj(self.total_flag),
        }
        if self.ample:
            obj["ample"] = {k: [str(x) for x in v]
                            for k, v in sorted(self.ample.items())}
        return obj

    def digest(self) -> str:
        blob = json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))
        return hashlib.sha256(blob.encode()).hexdigest()[:16]


def _flag_has_nakayama(backend, cls, flag):
    """Does the flag contain a Nakayama subvariety of cls?

    The candidate stratum is the one whose dimension is the Iitaka
    dimension.  Returns (ok, note)."""
    k = backend.kappa(cls)
    if k is None:
        return False, "kappa undeclared; Nakayama stratum unknown"
    if k == NEG_INF:
        return False, "class has no sections"
    verdict, _level = backend.nakayama(cls, backend.stratum(flag, k))
    return verdict != "false", f"Nakayama stratum verdict: {verdict}"


def _flag_has_pvs(backend, cls, flag) -> bool:
    nu = backend.dims(cls).nu_bdpp
    return backend.is_pvs(cls, backend.stratum(flag, nu))


# -- reports ------------------------------------------------------------------


@dataclass
class CheckReport:
    check_name: str
    instance: str
    digest: str
    verdict: str
    margin: Fraction | None = None
    lhs: dict | None = None
    rhs: dict | None = None
    dims: dict = field(default_factory=dict)
    volumes: dict = field(default_factory=dict)
    notes: list = field(default_factory=list)

    @property
    def exit_code(self) -> int:
        if self.verdict in (HOLDS, STRICT):
            return 0
        if self.verdict == FAILS:
            return 1
        return 2

    def to_obj(self):
        return {
            "check": self.check_name,
            "instance": self.instance,
            "digest": self.digest,
            "verdict": self.verdict,
            "margin": None if self.margin is None else str(self.margin),
            "lhs": self.lhs,
            "rhs": self.rhs,
            "dims": self.dims,
            "volumes": {k: str(v) for k, v in self.volumes.items()},
            "notes": list(self.notes),
        }

    def to_json(self) -> str:
        return json.dumps(self.to_obj(), sort_keys=True, indent=2)


def _volume(body: Polytope) -> Fraction:
    return body.volume_in_dim(body.dim()) if not body.is_empty else Fraction(0)


def _body_summary(body: Polytope, volume: Fraction) -> dict:
    return {"vertices": [[str(c) for c in v] for v in body.vertices],
            "dim": body.dim(), "volume": str(volume)}


def _subadditivity_report(name, fs, lhs: Polytope, base_body: Polytope,
                          fiber_body: Polytope, **fields) -> CheckReport:
    """Report on lhs containing base_body x fiber_body: holds, strict or
    fails with its support-function margin, and both bodies summarized;
    the product's volume is vol(base) * vol(fiber).  `fields` are the
    check's own dims, volumes and notes."""
    rhs = base_body.product(fiber_body)
    rows, q = lhs.support_rows(base_body, fiber_body)
    margin = Fraction(max([0] + [hb + hf - c for c, hb, hf in rows]), q)
    verdict = (HOLDS if lhs == rhs else STRICT) if margin == 0 else FAILS
    rhs_volume = (Fraction(0) if rhs.is_empty
                  else _volume(base_body) * _volume(fiber_body))
    return CheckReport(check_name=name, instance=fs.name, digest=fs.digest(),
                       verdict=verdict, margin=margin,
                       lhs=_body_summary(lhs, _volume(lhs)),
                       rhs=_body_summary(rhs, rhs_volume), **fields)


def _gated(name, fs, failures, notes=()):
    return CheckReport(check_name=name, instance=fs.name, digest=fs.digest(),
                       verdict=GATED,
                       notes=[f"hypothesis failed: {f}" for f in failures]
                       + list(notes))


def _check_hypotheses(pairs):
    return [name for name, ok in pairs if not ok]


# -- individual checks --------------------------------------------------------


def check_thm_1_3(fs: FiberSpaceInstance) -> CheckReport:
    """Valuative subadditivity with an ample pad pulled back from the base:
    body(D + f*A_Y) must contain the product of the base body of D_Y and
    the fiber body of R|_F."""
    name = "thm1_3"
    if "A_Y" not in fs.ample:
        return _gated(name, fs, ["no base ample class A_Y supplied"])
    A_Y = qvec(fs.ample["A_Y"])
    rf = fs.R_fiber
    nak_base, note_b = fs.base_nakayama_ok(fs.D_Y)
    nak_fiber, note_f = fs.fiber_nakayama_ok(rf)
    failures = _check_hypotheses([
        ("f_* O(mR) weakly positive (declared)",
         fs.hypotheses.get("weakly_positive", False)),
        ("R|_F effective", fs.fiber_backend.is_effective(rf)),
        ("D_Y effective", fs.base_backend.is_effective(fs.D_Y)),
        ("A_Y ample", fs.base_backend.is_ample(A_Y)),
        ("base flag contains a Nakayama subvariety of D_Y", nak_base),
        ("fiber flag contains a Nakayama subvariety of R|_F", nak_fiber),
    ])
    if failures:
        return _gated(name, fs, failures, notes=[note_b, note_f])
    padded = tuple(d + p for d, p in zip(fs.D, fs.pull(A_Y)))
    try:
        lhs = fs.total_val_body(padded)
    except ValueError as exc:
        return _gated(name, fs, [f"valuative body unavailable: {exc}"])
    base_body = fs.base_backend.body_val(fs.D_Y, fs.flag.base_flag)
    fiber_body = fs.fiber_backend.body_val(rf, fs.flag.fiber_flag)
    return _subadditivity_report(
        name, fs, lhs, base_body, fiber_body,
        dims={"lhs": lhs.dim(), "base": base_body.dim(),
              "fiber": fiber_body.dim()},
        volumes={"lhs": lhs.volume_in_dim(lhs.dim()),
                 "base": base_body.volume_in_dim(base_body.dim()),
                 "fiber": fiber_body.volume_in_dim(fiber_body.dim())},
        notes=[note_b, note_f])


def check_cor_3_5(fs: FiberSpaceInstance) -> CheckReport:
    """Pad-free valuative subadditivity when D_Y is big, with the Iitaka
    superadditivity kappa(D) >= kappa(D_Y) + kappa(R|_F) read off the body
    dimensions."""
    name = "cor3_5"
    rf = fs.R_fiber
    nak_base, note_b = fs.base_nakayama_ok(fs.D_Y)
    nak_fiber, note_f = fs.fiber_nakayama_ok(rf)
    failures = _check_hypotheses([
        ("f_* O(mR) weakly positive (declared)",
         fs.hypotheses.get("weakly_positive", False)),
        ("R|_F effective", fs.fiber_backend.is_effective(rf)),
        ("D_Y big", fs.base_backend.is_big(fs.D_Y)),
        ("base flag contains a Nakayama subvariety of D_Y", nak_base),
        ("fiber flag contains a Nakayama subvariety of R|_F", nak_fiber),
    ])
    if failures:
        return _gated(name, fs, failures)
    try:
        lhs = fs.total_val_body(fs.D)
    except ValueError as exc:
        return _gated(name, fs, [f"valuative body unavailable: {exc}"])
    base_body = fs.base_backend.body_val(fs.D_Y, fs.flag.base_flag)
    fiber_body = fs.fiber_backend.body_val(rf, fs.flag.fiber_flag)
    kd, kb, kf = lhs.dim(), base_body.dim(), fiber_body.dim()
    notes = [f"kappa superadditivity: {kd} >= {kb} + {kf}: "
             f"{'ok' if kd >= kb + kf else 'VIOLATED'}"]
    return _subadditivity_report(
        name, fs, lhs, base_body, fiber_body,
        dims={"lhs": kd, "base": kb, "fiber": kf},
        volumes={"lhs": lhs.volume_in_dim(kd)},
        notes=notes)


def _canonical_classes(fs: FiberSpaceInstance):
    """K_X, K_Y, K_F in the three class groups, from the models."""
    return (fs.total_backend.canonical_class(),
            fs.base_backend.canonical_class(),
            fs.fiber_backend.canonical_class())


def check_thm_1_1(fs: FiberSpaceInstance) -> CheckReport:
    """Limiting-body subadditivity for canonical classes, the induced nu
    inequality, and (when the nu's add and K_F is big) the product formula
    for augmented restricted canonical volumes."""
    name = "thm1_1"
    kx, ky, kf = _canonical_classes(fs)
    failures = []
    if tuple(fs.D) != kx:
        failures.append("instance decomposition is not the canonical class")
    if tuple(fs.D_Y) != ky:
        failures.append("D_Y is not the base canonical class")
    if tuple(fs.R_fiber) != kf:
        failures.append("R|_F is not the fiber canonical class")
    if failures:
        return _gated(name, fs, failures)
    failures = _check_hypotheses([
        ("K_Y pseudoeffective", fs.base_backend.is_psef(ky)),
        ("K_F pseudoeffective", fs.fiber_backend.is_psef(kf)),
        ("base flag contains a positive volume subvariety of K_Y",
         fs.base_pvs_ok(ky)),
        ("fiber flag contains a positive volume subvariety of K_F",
         fs.fiber_pvs_ok(kf)),
    ])
    if failures:
        return _gated(name, fs, failures)
    lhs = fs.total_lim_body(kx)
    base_body = fs.base_backend.body_lim(ky, fs.flag.base_flag)
    fiber_body = fs.fiber_backend.body_lim(kf, fs.flag.fiber_flag)
    nu_x = fs.total_backend.dims(kx, fs.ample.get("A")).nu_bdpp
    nu_y = fs.base_backend.dims(ky).nu_bdpp
    nu_f = fs.fiber_backend.dims(kf).nu_bdpp
    notes = [f"nu inequality: {nu_x} >= {nu_y} + {nu_f}: "
             f"{'ok' if nu_x >= nu_y + nu_f else 'VIOLATED'}"]
    volumes = {}
    product_formula = nu_x == nu_y + nu_f and fs.fiber_backend.is_big(kf)
    if product_formula:
        vx = lhs.volume_in_dim(nu_x)
        vy = base_body.volume_in_dim(nu_y)
        vf = fiber_body.volume_in_dim(nu_f)
        volumes.update({"vol+_X/nu_X!": vx, "vol+_Y/nu_Y!": vy,
                        "vol+_F/nu_F!": vf})
        ok = vx >= vy * vf
        eq = vx == vy * vf
        notes.append(f"canonical volume product formula: {vx} >= {vy} * {vf}: "
                     f"{'ok' if ok else 'VIOLATED'}"
                     + (" (equality)" if eq else ""))
    report = _subadditivity_report(
        name, fs, lhs, base_body, fiber_body,
        dims={"nu_X": nu_x, "nu_Y": nu_y, "nu_F": nu_f},
        volumes=volumes, notes=notes)
    if product_formula and report.verdict == HOLDS:
        report.notes.append("body equality implies birational isotriviality; "
                            "instance declares isotrivial="
                            + str(fs.hypotheses.get("isotrivial")))
    return report


def check_thm_1_2(fs: FiberSpaceInstance) -> CheckReport:
    """Valuative subadditivity for canonical classes over a base of big
    canonical class, plus the Iitaka-dimension addition through the easy
    upper bound kappa(K_X) <= dim Y + kappa(K_F)."""
    name = "thm1_2"
    kx, ky, kf = _canonical_classes(fs)
    failures = []
    if tuple(fs.D) != kx or tuple(fs.D_Y) != ky or tuple(fs.R_fiber) != kf:
        failures.append("instance decomposition is not canonical")
        return _gated(name, fs, failures)
    nak_base, note_b = fs.base_nakayama_ok(ky)
    nak_fiber, note_f = fs.fiber_nakayama_ok(kf)
    failures = _check_hypotheses([
        ("K_Y big", fs.base_backend.is_big(ky)),
        ("K_F effective", fs.fiber_backend.is_effective(kf)),
        ("base flag contains a Nakayama subvariety of K_Y", nak_base),
        ("fiber flag contains a Nakayama subvariety of K_F", nak_fiber),
    ])
    kappa_x = fs.total_backend.kappa(kx)
    if kappa_x is None:
        failures.append("kappa(K_X) undeclared and not computable")
    if failures:
        return _gated(name, fs, failures)
    try:
        lhs = fs.total_val_body(kx)
    except ValueError as exc:
        return _gated(name, fs, [f"valuative body unavailable: {exc}"])
    base_body = fs.base_backend.body_val(ky, fs.flag.base_flag)
    fiber_body = fs.fiber_backend.body_val(kf, fs.flag.fiber_flag)
    ky_dim = fs.base_backend.kappa(ky)
    kf_dim = fs.fiber_backend.kappa(kf)
    addition = kappa_x == ky_dim + kf_dim
    easy = kappa_x <= fs.base_backend.dim + kf_dim
    notes = [f"kappa addition: {kappa_x} == {ky_dim} + {kf_dim}: "
             f"{'ok' if addition else 'VIOLATED'}",
             f"easy addition bound kappa(K_X) <= dim Y + kappa(K_F): "
             f"{'ok' if easy else 'VIOLATED'}"]
    report = _subadditivity_report(
        name, fs, lhs, base_body, fiber_body,
        dims={"kappa_X": kappa_x, "kappa_Y": ky_dim, "kappa_F": kf_dim},
        notes=notes)
    if not addition or not easy:
        report.verdict = FAILS
    return report


def check_lemma_3_1(fs: FiberSpaceInstance) -> CheckReport:
    """Restricted-volume transfer: the volume of D restricted from the
    total space to a Nakayama subvariety N of R|_F inside the fiber equals
    the volume of R|_F restricted from the fiber.  Both sides are computed
    independently by lattice enumeration.

    N is the fiber-flag stratum of dimension kappa(R|_F)."""
    name = "lemma3_1"
    if not isinstance(fs.total, toricmod.ToricVariety):
        return _gated(name, fs, [],
                      notes=["lemma3_1 requires a toric instance"])
    rf = fs.R_fiber
    k = fs.fiber_backend.kappa(rf)
    if k == NEG_INF:
        return _gated(name, fs, ["R|_F has no sections"])
    fiber_stratum = fs.fiber_backend.stratum(fs.flag.fiber_flag, k)
    verdict_n, _ = fs.fiber_backend.nakayama(rf, fiber_stratum)
    failures = _check_hypotheses([
        ("f_* O(mR) weakly positive (declared)",
         fs.hypotheses.get("weakly_positive", False)),
        ("R|_F effective", fs.fiber_backend.is_effective(rf)),
        ("D_Y big", fs.base_backend.is_big(fs.D_Y)),
        ("N is a Nakayama subvariety of R|_F", verdict_n != "false"),
    ])
    if failures:
        return _gated(name, fs, failures)
    base_cone_rays = tuple(fs.flag.base_flag.ray_order)
    offset = len(fs.base.rays)
    total_stratum = base_cone_rays + tuple(i + offset for i in fiber_stratum)
    lhs = fs.total_backend.restricted_volume(fs.D, total_stratum)
    rhs = fs.fiber_backend.restricted_volume(rf, fiber_stratum)
    verdict = HOLDS if lhs == rhs else FAILS
    series_total = toricmod.restricted_series(
        fs.total, toricmod.ToricDivisor(fs.total, fs.D), total_stratum,
        range(1, 7))
    series_fiber = toricmod.restricted_series(
        fs.fiber, toricmod.ToricDivisor(fs.fiber, rf), fiber_stratum,
        range(1, 7))
    dims_t = [series_total.dimension(m) for m in range(1, 7)]
    dims_f = [series_fiber.dimension(m) for m in range(1, 7)]
    return CheckReport(
        check_name=name, instance=fs.name, digest=fs.digest(),
        verdict=verdict, margin=abs(lhs - rhs),
        volumes={"vol_{X|N}(D)": lhs, "vol_{F|N}(R|F)": rhs},
        notes=[f"restricted series dims, total side, m=1..6: {dims_t}",
               f"restricted series dims, fiber side, m=1..6: {dims_f}"])


def check_remark_3_6(fs: FiberSpaceInstance) -> CheckReport:
    """Superadditivity of kappa_vol across the fibration."""
    name = "rem3_6"
    rf = fs.R_fiber
    failures = _check_hypotheses([
        ("D pseudoeffective", fs.total_backend.is_psef(fs.D)),
        ("D_Y pseudoeffective", fs.base_backend.is_psef(fs.D_Y)),
        ("R|_F pseudoeffective", fs.fiber_backend.is_psef(rf)),
    ])
    if failures:
        return _gated(name, fs, failures)
    kv_x = fs.total_backend.dims(fs.D, fs.ample.get("A")).kappa_vol
    kv_y = fs.base_backend.dims(fs.D_Y).kappa_vol
    kv_f = fs.fiber_backend.dims(rf).kappa_vol
    ok = kv_x >= kv_y + kv_f
    return CheckReport(
        check_name=name, instance=fs.name, digest=fs.digest(),
        verdict=HOLDS if ok else FAILS,
        margin=Fraction(0) if ok else Fraction(kv_y + kv_f - kv_x),
        dims={"kappa_vol_X": kv_x, "kappa_vol_Y": kv_y, "kappa_vol_F": kv_f},
        notes=[f"kappa_vol superadditivity: {kv_x} >= {kv_y} + {kv_f}"])


def scaling_search(fs: FiberSpaceInstance, grid_step=Fraction(1, 4),
                   bound=Fraction(4)) -> dict:
    """Grid scan for dilation factors with
    alpha * body(D) containing beta * body(D_Y) x gamma * body(R|_F).

    Reports every feasible positive triple on the grid and the minimal
    feasible alpha for beta = gamma = 1 (a bound on the grid, not an
    optimum).

    Certificate: the support function of beta * B x gamma * F at a is
    beta * h_B(a_B) + gamma * h_F(a_F), so the triple is feasible iff
    beta * h_B(a_B) + gamma * h_F(a_F) <= alpha * c for every half-space
    a . x <= c of body(D), equality pairs included
    (`Polytope.support_rows`).  With alpha, beta, gamma = k * grid_step the
    positive step cancels, and each triple is decided on integer rows, with
    no dilation, product or hull.
    """
    grid_step = frac(grid_step)
    bound = frac(bound)
    if grid_step <= 0:
        raise ValueError(f"grid step must be positive, got {grid_step}")
    lhs0 = fs.total_val_body(fs.D)
    base0 = fs.base_backend.body_val(fs.D_Y, fs.flag.base_flag)
    fiber0 = fs.fiber_backend.body_val(fs.R_fiber, fs.flag.fiber_flag)
    rows, _q = lhs0.support_rows(base0, fiber0)
    grid = [(k, k * grid_step) for k in range(1, bound // grid_step + 1)]
    feasible = [(al, be, ga)
                for ka, al in grid for kb, be in grid for kg, ga in grid
                if all(kb * hb + kg * hf <= ka * c for c, hb, hf in rows)]
    minimal_alpha = next((al for (al, be, ga) in feasible
                          if be == 1 and ga == 1), None)
    return {"feasible": feasible, "minimal_alpha_for_unit": minimal_alpha,
            "grid_step": grid_step, "bound": bound}


ALL_CHECKS = {
    "thm1_1": check_thm_1_1,
    "thm1_2": check_thm_1_2,
    "thm1_3": check_thm_1_3,
    "cor3_5": check_cor_3_5,
    "lemma3_1": check_lemma_3_1,
    "rem3_6": check_remark_3_6,
}
