"""Fiber-space instances and the subadditivity check harness.

An instance packages a fibration f: X -> Y with general fiber F as three
models (total, base, fiber), a decomposition D ~ f*D_Y + R, and declared
hypotheses (weak positivity, isotriviality) that are deep theorems outside
numerical reach.  The total space's backend derives the pullback and
restriction maps on divisor classes and the fiber-type flag on X (base
strata first, then fiber strata) from the models (`fibration`) and decides
D ~ f*D_Y + R in its class group (`same_class`).  R|_F and the digest are
derived once, after validation, and the instance is not changed after
that.  The checks verify everything that is decidable from the models,
compute the three bodies for that flag, and report machine-readable
verdicts on one path: each check evaluates all of its (label, ok)
hypotheses, `_gated` turns any failures into the gated report, and
`_report` builds every report.  Every model-specific rule (canonical
classes, flag strata, fibration data) is a backend's.  One check still
reads a model kind itself: lemma3_1 runs on toric totals only and
enumerates their restricted series with `toric` directly.

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
"""

from __future__ import annotations

import hashlib
import json
from fractions import Fraction

from . import toric as toricmod
from .invariants import backend_for
from .linalg import frac, mat_vec, qvec
from .polytope import Polytope
from .toric import NEG_INF
from .value import Value

HOLDS = "holds"
STRICT = "strict"
FAILS = "fails"
GATED = "hypotheses-not-met"


def _flag_obj(flag):
    return flag.to_obj() if hasattr(flag, "to_obj") else flag


def _matrix_obj(rows):
    return [[str(x) for x in row] for row in rows]


class FiberTypeFlag(Value):
    """Composite flag: base strata pulled back, then fiber strata.

    Valuation vectors concatenate base coordinates first, so the
    right-hand side of subadditivity is the product Delta_Y x Delta_F.
    """

    def __init__(self, base_flag, fiber_flag):
        # ToricFlag or None (curves have a unique flag shape)
        self.base_flag, self.fiber_flag = base_flag, fiber_flag

    def to_obj(self):
        return {"base": _flag_obj(self.base_flag),
                "fiber": _flag_obj(self.fiber_flag)}


class FiberSpaceInstance(Value):
    def __init__(self, name: str, base, fiber, total, D: tuple, D_Y: tuple,
                 R: tuple, hypotheses: dict, flag: FiberTypeFlag,
                 pullback: tuple = None, restriction: tuple = None,
                 ample: dict | None = None):
        self.name, self.base, self.fiber, self.total = name, base, fiber, total
        self.D, self.D_Y, self.R = qvec(D), qvec(D_Y), qvec(R)
        self.hypotheses, self.flag = hypotheses, flag
        # class maps base -> total -> fiber from `total_backend.fibration`; a
        # declared copy must match.  A surface's pullback column is its fiber F.
        self.pullback, self.restriction = pullback, restriction
        # optional classes: "A_Y", the base pad of thm1_3, and "A", an ample
        # class on the total space that is checked on input and read by no
        # computation (every eps-limit is the same for each ample A)
        self.ample = {} if ample is None else ample
        self.total_backend, self.base_backend, self.fiber_backend = map(
            backend_for, (total, base, fiber))
        # derives total_flag: ToricFlag, or the flag-curve index for surfaces
        self._validate()
        # R|_F, and 16 hex digits of sha256(to_obj)
        self.R_fiber = mat_vec(self.restriction, self.R)
        blob = json.dumps(self.to_obj(), sort_keys=True, separators=(",", ":"))
        self.digest = hashlib.sha256(blob.encode()).hexdigest()[:16]

    __hash__ = None

    def _key(self):
        # the backends take no part
        return (self.name, self.base, self.fiber, self.total, self.D,
                self.D_Y, self.R, self.hypotheses, self.flag, self.pullback,
                self.restriction, self.ample, self.total_flag, self.R_fiber,
                self.digest)

    # -- structure ----------------------------------------------------------

    def pull(self, base_cls):
        return mat_vec(self.pullback, qvec(base_cls))

    def _validate(self):
        total, base, fiber = (self.total_backend, self.base_backend,
                              self.fiber_backend)
        if total.dim != base.dim + fiber.dim:
            raise ValueError(f"total dimension {total.dim} is not base + "
                             f"fiber dimension {base.dim} + {fiber.dim}")
        declared = {name: tuple(qvec(row) for row in rows) for name, rows in
                    (("pullback", self.pullback),
                     ("restriction", self.restriction)) if rows is not None}
        self.pullback = declared.get("pullback")  # a surface reads it
        self.pullback, self.restriction, self.total_flag = total.fibration(self)
        nx, ny, nf = (len(b.canonical_class()) for b in (total, base, fiber))
        classes = [("D", self.D, nx), ("R", self.R, nx), ("D_Y", self.D_Y, ny)]
        classes += [(f"ample.{key}", self.ample[key], n) for key, n in
                    (("A", nx), ("A_Y", ny)) if key in self.ample]
        for name, cls, n in classes:
            if len(cls) != n:
                raise ValueError(f"{name} has {len(cls)} coefficients, "
                                 f"not {n}")
        for name, m, n in (("pullback", nx, ny), ("restriction", nf, nx)):
            if (rows := declared.get(name)) is None:
                continue
            if len(rows) != m or any(len(row) != n for row in rows):
                raise ValueError(f"{name} must be a {m} x {n} matrix")
            if rows != getattr(self, name):
                raise ValueError(
                    f"{name} {json.dumps(_matrix_obj(rows))} differs from the "
                    f"map derived from the models, "
                    f"{json.dumps(_matrix_obj(getattr(self, name)))}")
        total.same_class(tuple(d - p - r for d, p, r in
                               zip(self.D, self.pull(self.D_Y), self.R)))
        if "A" in self.ample and not total.is_ample(self.ample["A"]):
            raise ValueError("ample.A is not ample on the total space")

    def total_val_body(self, cls) -> Polytope:
        return self.total_backend.body_val(cls, self.total_flag)

    def factor_val_bodies(self, base_cls, fiber_cls):
        """The valuative bodies of base_cls and fiber_cls, for their flags."""
        return (self.base_backend.body_val(base_cls, self.flag.base_flag),
                self.fiber_backend.body_val(fiber_cls, self.flag.fiber_flag))

    # -- serialization ------------------------------------------------------

    def to_obj(self):
        obj = {
            "name": self.name,
            "base": self.base.to_obj(),
            "fiber": self.fiber.to_obj(),
            "total": self.total.to_obj(),
            "pullback": _matrix_obj(self.pullback),
            "restriction": _matrix_obj(self.restriction),
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


def _nakayama(backend, cls, flag):
    """Does the flag contain a Nakayama subvariety of cls?

    The candidate stratum is the one whose dimension is the Iitaka
    dimension.  Returns (ok, note)."""
    k = backend.kappa(cls)
    if k == NEG_INF:
        return False, "class has no sections"
    verdict, _level = backend.nakayama(cls, backend.stratum(flag, k))
    return verdict != "false", f"Nakayama stratum verdict: {verdict}"


# -- reports ------------------------------------------------------------------


class CheckReport(Value):
    def __init__(self, check_name: str, instance: str, digest: str,
                 verdict: str, margin: Fraction | None = None,
                 lhs: dict | None = None, rhs: dict | None = None,
                 dims: dict | None = None, volumes: dict | None = None,
                 notes: list | None = None):
        self.check_name, self.instance, self.digest = check_name, instance, digest
        self.verdict, self.margin, self.lhs, self.rhs = verdict, margin, lhs, rhs
        self.dims = {} if dims is None else dims
        self.volumes = {} if volumes is None else volumes
        self.notes = [] if notes is None else notes

    __hash__ = None

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


def _report(name, fs, verdict, **fields) -> CheckReport:
    return CheckReport(check_name=name, instance=fs.name, digest=fs.digest,
                       verdict=verdict, **fields)


def _gated(name, fs, hypotheses, notes=()):
    """The gated report naming each (label, ok) hypothesis that is not ok,
    then `notes`; None when every hypothesis holds."""
    failed = [f"hypothesis failed: {label}" for label, ok in hypotheses
              if not ok]
    if failed:
        return _report(name, fs, GATED, notes=failed + list(notes))


def _positivity(fs):
    """The hypotheses on R that thm1_3, cor3_5 and lemma3_1 share; rem3_6
    takes the first, weak positivity."""
    return [("f_* O(mR) weakly positive (declared)",
             fs.hypotheses.get("weakly_positive", False)),
            ("R|_F effective", fs.fiber_backend.is_effective(fs.R_fiber))]


def _unavailable(name, fs, exc):
    return _gated(name, fs, [(f"valuative body unavailable: {exc}", False)])


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
    vol_b, vol_f = (body.volume_in_dim(body.dim())
                    for body in (base_body, fiber_body))
    return _report(name, fs, verdict, margin=margin,
                   lhs=_body_summary(lhs, lhs.volume_in_dim(lhs.dim())),
                   rhs=_body_summary(rhs, vol_b * vol_f), **fields)


# -- individual checks --------------------------------------------------------


def check_thm_1_3(fs: FiberSpaceInstance) -> CheckReport:
    """Valuative subadditivity with an ample pad pulled back from the base:
    body(D + f*A_Y) must contain the product of the base body of D_Y and
    the fiber body of R|_F."""
    name = "thm1_3"
    if "A_Y" not in fs.ample:
        return _gated(name, fs, [("no base ample class A_Y supplied", False)])
    A_Y = qvec(fs.ample["A_Y"])
    nak_base, note_b = _nakayama(fs.base_backend, fs.D_Y, fs.flag.base_flag)
    nak_fiber, note_f = _nakayama(fs.fiber_backend, fs.R_fiber,
                                  fs.flag.fiber_flag)
    if gated := _gated(name, fs, [
            *_positivity(fs),
            ("D_Y effective", fs.base_backend.is_effective(fs.D_Y)),
            ("A_Y ample", fs.base_backend.is_ample(A_Y)),
            ("base flag contains a Nakayama subvariety of D_Y", nak_base),
            ("fiber flag contains a Nakayama subvariety of R|_F", nak_fiber),
        ], notes=[note_b, note_f]):
        return gated
    padded = tuple(d + p for d, p in zip(fs.D, fs.pull(A_Y)))
    try:
        lhs = fs.total_val_body(padded)
    except ValueError as exc:
        return _unavailable(name, fs, exc)
    base_body, fiber_body = fs.factor_val_bodies(fs.D_Y, fs.R_fiber)
    bodies = {"lhs": lhs, "base": base_body, "fiber": fiber_body}
    return _subadditivity_report(
        name, fs, lhs, base_body, fiber_body,
        dims={k: body.dim() for k, body in bodies.items()},
        volumes={k: body.volume_in_dim(body.dim())
                 for k, body in bodies.items()},
        notes=[note_b, note_f])


def check_cor_3_5(fs: FiberSpaceInstance) -> CheckReport:
    """Pad-free valuative subadditivity when D_Y is big, with the Iitaka
    superadditivity kappa(D) >= kappa(D_Y) + kappa(R|_F) read off the body
    dimensions."""
    name = "cor3_5"
    nak_base, _ = _nakayama(fs.base_backend, fs.D_Y, fs.flag.base_flag)
    nak_fiber, _ = _nakayama(fs.fiber_backend, fs.R_fiber, fs.flag.fiber_flag)
    if gated := _gated(name, fs, [
            *_positivity(fs),
            ("D_Y big", fs.base_backend.is_big(fs.D_Y)),
            ("base flag contains a Nakayama subvariety of D_Y", nak_base),
            ("fiber flag contains a Nakayama subvariety of R|_F", nak_fiber),
        ]):
        return gated
    try:
        lhs = fs.total_val_body(fs.D)
    except ValueError as exc:
        return _unavailable(name, fs, exc)
    base_body, fiber_body = fs.factor_val_bodies(fs.D_Y, fs.R_fiber)
    kd, kb, kf = lhs.dim(), base_body.dim(), fiber_body.dim()
    return _subadditivity_report(
        name, fs, lhs, base_body, fiber_body,
        dims={"lhs": kd, "base": kb, "fiber": kf},
        volumes={"lhs": lhs.volume_in_dim(kd)},
        notes=[f"kappa superadditivity: {kd} >= {kb} + {kf}: "
               f"{'ok' if kd >= kb + kf else 'VIOLATED'}"])


def check_thm_1_1(fs: FiberSpaceInstance) -> CheckReport:
    """Limiting-body subadditivity for canonical classes, the induced nu
    inequality, and (when the nu's add and K_F is big) the product formula
    for augmented restricted canonical volumes."""
    name = "thm1_1"
    kx, ky, kf = (b.canonical_class() for b in
                  (fs.total_backend, fs.base_backend, fs.fiber_backend))
    if gated := _gated(name, fs, [
            ("instance decomposition is not the canonical class", fs.D == kx),
            ("D_Y is not the base canonical class", fs.D_Y == ky),
            ("R|_F is not the fiber canonical class", fs.R_fiber == kf),
        ]) or _gated(name, fs, [
            # nu, which picks the flag stratum to test, needs a psef class
            ("K_Y pseudoeffective", fs.base_backend.is_psef(ky)),
            ("K_F pseudoeffective", fs.fiber_backend.is_psef(kf))]):
        return gated
    nu_y = fs.base_backend.dims(ky).nu_bdpp
    nu_f = fs.fiber_backend.dims(kf).nu_bdpp
    if gated := _gated(name, fs, [
            ("base flag contains a positive volume subvariety of K_Y",
             fs.base_backend.is_pvs(
                 ky, fs.base_backend.stratum(fs.flag.base_flag, nu_y))),
            ("fiber flag contains a positive volume subvariety of K_F",
             fs.fiber_backend.is_pvs(
                 kf, fs.fiber_backend.stratum(fs.flag.fiber_flag, nu_f)))]):
        return gated
    lhs = fs.total_backend.body_lim(kx, fs.total_flag)
    base_body = fs.base_backend.body_lim(ky, fs.flag.base_flag)
    fiber_body = fs.fiber_backend.body_lim(kf, fs.flag.fiber_flag)
    nu_x = fs.total_backend.dims(kx).nu_bdpp
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
        notes.append(f"canonical volume product formula: {vx} >= {vy} * {vf}: "
                     f"{'ok' if vx >= vy * vf else 'VIOLATED'}"
                     + (" (equality)" if vx == vy * vf else ""))
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
    kx, ky, kf = (b.canonical_class() for b in
                  (fs.total_backend, fs.base_backend, fs.fiber_backend))
    if gated := _gated(name, fs, [
            ("instance decomposition is not canonical",
             (fs.D, fs.D_Y, fs.R_fiber) == (kx, ky, kf))]):
        return gated
    nak_base, _ = _nakayama(fs.base_backend, ky, fs.flag.base_flag)
    nak_fiber, _ = _nakayama(fs.fiber_backend, kf, fs.flag.fiber_flag)
    hypotheses = [
        ("K_Y big", fs.base_backend.is_big(ky)),
        ("K_F effective", fs.fiber_backend.is_effective(kf)),
        ("base flag contains a Nakayama subvariety of K_Y", nak_base),
        ("fiber flag contains a Nakayama subvariety of K_F", nak_fiber)]
    kappa_x = fs.total_backend.kappa(kx)
    if gated := _gated(name, fs, hypotheses + [
            ("kappa(K_X) undeclared and not computable",
             kappa_x is not None)]):
        return gated
    try:
        lhs = fs.total_val_body(kx)
    except ValueError as exc:
        return _unavailable(name, fs, exc)
    base_body, fiber_body = fs.factor_val_bodies(ky, kf)
    ky_dim = fs.base_backend.kappa(ky)
    kf_dim = fs.fiber_backend.kappa(kf)
    addition = kappa_x == ky_dim + kf_dim
    easy = kappa_x <= fs.base_backend.dim + kf_dim
    report = _subadditivity_report(
        name, fs, lhs, base_body, fiber_body,
        dims={"kappa_X": kappa_x, "kappa_Y": ky_dim, "kappa_F": kf_dim},
        notes=[f"kappa addition: {kappa_x} == {ky_dim} + {kf_dim}: "
               f"{'ok' if addition else 'VIOLATED'}",
               f"easy addition bound kappa(K_X) <= dim Y + kappa(K_F): "
               f"{'ok' if easy else 'VIOLATED'}"])
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
        return _report(name, fs, GATED,
                       notes=["lemma3_1 requires a toric instance"])
    rf = fs.R_fiber
    k = fs.fiber_backend.kappa(rf)
    if k == NEG_INF:
        return _gated(name, fs, [("R|_F has no sections", False)])
    fiber_stratum = fs.fiber_backend.stratum(fs.flag.fiber_flag, k)
    verdict_n, _ = fs.fiber_backend.nakayama(rf, fiber_stratum)
    if gated := _gated(name, fs, [
            *_positivity(fs),
            ("D_Y big", fs.base_backend.is_big(fs.D_Y)),
            ("N is a Nakayama subvariety of R|_F", verdict_n != "false")]):
        return gated
    total_stratum = fs.total_backend.stratum(fs.total_flag, k)
    lhs = fs.total_backend.restricted_volume(fs.D, total_stratum)
    rhs = fs.fiber_backend.restricted_volume(rf, fiber_stratum)
    notes = []
    for side, X, cls, stratum in (("total", fs.total, fs.D, total_stratum),
                                  ("fiber", fs.fiber, rf, fiber_stratum)):
        series = toricmod.restricted_series(
            X, toricmod.ToricDivisor(X, cls), stratum, range(1, 7))
        notes.append(f"restricted series dims, {side} side, m=1..6: "
                     f"{[len(series[m]) for m in range(1, 7)]}")
    return _report(
        name, fs, HOLDS if lhs == rhs else FAILS, margin=abs(lhs - rhs),
        volumes={"vol_{X|N}(D)": lhs, "vol_{F|N}(R|F)": rhs}, notes=notes)


def check_remark_3_6(fs: FiberSpaceInstance) -> CheckReport:
    """Superadditivity of kappa_vol across the fibration, under the
    hypotheses "f_* O(mR) weakly positive (declared)", "D
    pseudoeffective", "D_Y pseudoeffective" and "R|_F pseudoeffective"."""
    name = "rem3_6"
    if gated := _gated(name, fs, [
            _positivity(fs)[0],
            ("D pseudoeffective", fs.total_backend.is_psef(fs.D)),
            ("D_Y pseudoeffective", fs.base_backend.is_psef(fs.D_Y)),
            ("R|_F pseudoeffective", fs.fiber_backend.is_psef(fs.R_fiber))]):
        return gated
    kv_x = fs.total_backend.dims(fs.D).kappa_vol
    kv_y = fs.base_backend.dims(fs.D_Y).kappa_vol
    kv_f = fs.fiber_backend.dims(fs.R_fiber).kappa_vol
    ok = kv_x >= kv_y + kv_f
    return _report(
        name, fs, HOLDS if ok else FAILS,
        margin=Fraction(0) if ok else Fraction(kv_y + kv_f - kv_x),
        dims={"kappa_vol_X": kv_x, "kappa_vol_Y": kv_y, "kappa_vol_F": kv_f},
        notes=[f"kappa_vol superadditivity: {kv_x} >= {kv_y} + {kv_f}"])


# the grid has (steps per axis)^3 triples: 64 steps is 262144 triples
MAX_GRID_STEPS = 64
# the default grid, also the CLI's: steps of 1/4 up to 4, 16 per axis
GRID_STEP, GRID_BOUND = Fraction(1, 4), Fraction(4)


def scaling_search(fs: FiberSpaceInstance, grid_step=GRID_STEP,
                   bound=GRID_BOUND) -> dict:
    """Grid scan for dilation factors with
    alpha * body(D) containing beta * body(D_Y) x gamma * body(R|_F).

    Reports every feasible positive triple on the grid and the minimal
    feasible alpha for beta = gamma = 1 (a bound on the grid, not an
    optimum).  The grid takes bound // grid_step steps per axis, which
    must be 1 to MAX_GRID_STEPS.  `grid` lists its values k * grid_step
    for k = 0 .. steps, and `feasible_indices` gives each triple of
    `feasible` as its (ka, kb, kg) positions in `grid`, so a caller can
    format each grid value once.

    Certificate: the support function of beta * B x gamma * F at a is
    beta * h_B(a_B) + gamma * h_F(a_F), so on each integer row (c, h_B, h_F)
    of body(D) (`Polytope.support_rows`, equality pairs included) the triple
    (ka, kb, kg) * grid_step is feasible iff ka * c >= kb * h_B + kg * h_F.
    Each column (kb, kg) thus holds the ka of one interval [lo, hi] in
    [1, steps]: a row with c > 0 bounds lo by a ceiling, one with c < 0
    bounds hi by a floor, and one with c = 0 holds for every ka or none.
    The minimal alpha is the lo of the column kb = kg = 1 / grid_step, and
    None when 1 is off the grid or that column is empty.
    """
    grid_step = frac(grid_step)
    bound = frac(bound)
    if grid_step <= 0:
        raise ValueError(f"grid step must be positive, got {grid_step}")
    steps = bound // grid_step
    if not 1 <= steps <= MAX_GRID_STEPS:
        raise ValueError(f"bound {bound} over grid step {grid_step} gives "
                         f"{steps} steps per axis; the grid takes 1 to "
                         f"{MAX_GRID_STEPS}")
    lhs0 = fs.total_val_body(fs.D)
    rows, _q = lhs0.support_rows(*fs.factor_val_bodies(fs.D_Y, fs.R_fiber))
    grid = [k * grid_step for k in range(steps + 1)]
    columns = {}
    for kb in range(1, steps + 1):
        for kg in range(1, steps + 1):
            lo, hi = 1, steps
            for c, hb, hf in rows:
                s = kb * hb + kg * hf
                if c > 0:
                    lo = max(lo, -(-s // c))
                elif c < 0:
                    hi = min(hi, s // c)
                elif s > 0:
                    hi = 0
            columns[kb, kg] = lo, hi
    indices = [(ka, kb, kg) for ka in range(1, steps + 1)
               for (kb, kg), (lo, hi) in columns.items() if lo <= ka <= hi]
    unit = grid_step.denominator if grid_step.numerator == 1 else 0
    lo, hi = columns.get((unit, unit), (1, 0))
    minimal_alpha = grid[lo] if lo <= hi else None
    return {"feasible": [(grid[ka], grid[kb], grid[kg])
                         for ka, kb, kg in indices],
            "feasible_indices": indices, "grid": grid,
            "minimal_alpha_for_unit": minimal_alpha,
            "grid_step": grid_step, "bound": bound}


ALL_CHECKS = {
    "thm1_1": check_thm_1_1,
    "thm1_2": check_thm_1_2,
    "thm1_3": check_thm_1_3,
    "cor3_5": check_cor_3_5,
    "lemma3_1": check_lemma_3_1,
    "rem3_6": check_remark_3_6,
}
