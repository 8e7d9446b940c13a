"""Acceptance suite: one test per criterion, exact tolerances (margin 0)
unless a numeric tolerance is stated.  Each test prints a PASS line on
success (run with `pytest -s tests/test_acceptance.py` to see them).
"""

import math
import random
from fractions import Fraction as F

import pytest
from corpus import INSTANCE_NAMES, instance, model
from fraction_reference import solve

from okbodies import fiberspace as FS
from okbodies import surface as SF
from okbodies import toric as T
from okbodies.invariants import ToricBackend
from okbodies.linalg import qvec
from okbodies.polytope import Polytope, hull

P1 = T.projective_line()
P2 = T.projective_plane()
BL = T.blown_up_plane()
F2 = T.hirzebruch(2)
P1xP1 = T.product_fibration(P1, P1).total
P2xP1 = T.product_fibration(P2, P1).total
P1x3 = T.product_fibration(P1xP1, P1).total


def _flag(X, rays):
    want = set(rays)
    cone = next(i for i, c in enumerate(X.max_cones) if set(c) == want)
    return T.ToricFlag(cone, tuple(rays))


# (model, divisor coefficients, flag) with big divisor; dimensions 2 and 3
TORIC_FIXTURES = [
    (P2, [0, 0, 1], _flag(P2, (0, 1))),
    (P2, [0, 0, 2], _flag(P2, (0, 1))),
    (P2, [0, 0, 3], _flag(P2, (2, 1))),
    (P1xP1, [0, 1, 0, 1], _flag(P1xP1, (0, 2))),
    (P1xP1, [0, 2, 0, 3], _flag(P1xP1, (0, 2))),
    (BL, [0, 0, 2, 1], _flag(BL, (3, 0))),
    (BL, [0, 0, 1, 1], _flag(BL, (3, 0))),
    (F2, [1, 1, 1, 1], _flag(F2, (0, 1))),
    (P2xP1, [0, 0, 1, 0, 1], _flag(P2xP1, (0, 1, 3))),
    (P1x3, [0, 1, 0, 2, 0, 1], _flag(P1x3, (0, 2, 4))),
]

BLS = model("blown_up_plane_surface")

# (lattice, class, flag curve) with big class
SURFACE_FIXTURES = [
    (BLS, [2, 1], 0),
    (BLS, [1, 1], 0),
    (BLS, [3, 2], 0),
    ("g2xg2", [2, 2], 0),
    ("ex41", [1, 0], 0),
]


def _surface(entry):
    if entry == "g2xg2":
        return instance("g2xg2").total
    if entry == "ex41":
        return instance("ex41").total
    return entry


INSTANCES = {name: instance(name) for name in INSTANCE_NAMES}


def test_criterion_01_volume_identity():
    """n! * body volume == divisor volume, exactly, on 15 fixtures."""
    for X, coeffs, flag in TORIC_FIXTURES:
        D = T.ToricDivisor(X, coeffs)
        body = T.okounkov_body_toric(X, D, flag)
        n = X.dim
        vol = ToricBackend(X).volume(coeffs)
        assert vol > 0, "fixture must be big"
        assert math.factorial(n) * body.volume_in_dim(n) == vol
    for entry, cls, fc in SURFACE_FIXTURES:
        S = _surface(entry)
        body = SF.okounkov_body_surface(S, qvec(cls), fc)
        vol = SF.volume_surface(S, qvec(cls))
        assert vol > 0, "fixture must be big"
        assert 2 * body.volume_in_dim(2) == vol
    print("criterion 01 (volume identity, 10 toric + 5 surface): PASS")


def test_criterion_02_oracle_convergence():
    """Brute-force bodies at m=20: contained with margin 0, volume within
    15 percent (float comparison at 1e-9); equality already at m=1 for the
    degree-1 plane case."""
    for X, coeffs, flag in TORIC_FIXTURES:
        D = T.ToricDivisor(X, coeffs)
        exact = T.okounkov_body_toric(X, D, flag)
        brute = T.okounkov_body_bruteforce(X, D, flag, 20)
        contained, margin = exact.contains(brute)
        assert contained and margin == 0
        n = X.dim
        ve = float(exact.volume_in_dim(n))
        vb = float(brute.volume_in_dim(n))
        assert vb >= 0.85 * ve - 1e-9
    D1 = T.ToricDivisor(P2, [0, 0, 1])
    assert (T.okounkov_body_bruteforce(P2, D1, TORIC_FIXTURES[0][2], 1)
            == T.okounkov_body_toric(P2, D1, TORIC_FIXTURES[0][2]))
    print("criterion 02 (oracle convergence at m=20): PASS")


def test_criterion_03_zariski_oracle():
    """vol(2H+E) = 4 against the section-count oracle on the toric
    realization, h^0(m(2H+E)) = (2m+1)(2m+2)/2 for m <= 10, with the
    growth coefficient fitted from the counts; P = 2H and N = E exactly."""
    Dt = T.ToricDivisor(BL, [0, 0, 2, 1])
    counts = {}
    for m in range(1, 11):
        counts[m] = len(T.sections(BL, Dt, m))
        assert counts[m] == (2 * m + 1) * (2 * m + 2) // 2
    # exact quadratic fit through the last three counts; volume = 2! * lead
    rows = [[F(1), F(m), F(m * m)] for m in (8, 9, 10)]
    a0, a1, a2 = solve(rows, [F(counts[m]) for m in (8, 9, 10)])
    assert 2 * a2 == 4
    zp = SF.zariski_decompose(BLS, qvec([2, 1]))
    assert zp.positive == (2, 0) and zp.negative == (0, 1)
    assert SF.volume_surface(BLS, qvec([2, 1])) == 4
    print("criterion 03 (Zariski vs section-count oracle): PASS")


def test_criterion_04_subadditivity_verdicts():
    """thm1_3 and cor3_5: margin-0 containment on every shipped instance
    that satisfies the hypotheses, equality on the pad-free product cases."""
    checked = 0
    for name, fs in INSTANCES.items():
        if not isinstance(fs.total, T.ToricVariety):
            continue
        for check in (FS.check_thm_1_3, FS.check_cor_3_5):
            rep = check(fs)
            if rep.verdict == FS.GATED:
                continue
            assert rep.verdict in (FS.HOLDS, FS.STRICT) and rep.margin == 0
            checked += 1
    assert checked >= 6
    # product equality cases are exact equalities
    for name in ("prod_line_line", "prod_line_line_rf0"):
        assert FS.check_cor_3_5(INSTANCES[name]).verdict == FS.HOLDS
    print("criterion 04 (thm1_3 / cor3_5 inclusion verdicts): PASS")


def test_criterion_05_strict_inclusion_instance():
    """The isotrivial general-type fixture: strict inclusion and nu
    dimensions (2, 0, 1) with 2 > 0 + 1."""
    rep = FS.check_thm_1_1(INSTANCES["ex41"])
    assert rep.verdict == FS.STRICT
    assert rep.dims == {"nu_X": 2, "nu_Y": 0, "nu_F": 1}
    assert rep.dims["nu_X"] > rep.dims["nu_Y"] + rep.dims["nu_F"]
    print("criterion 05 (strict inclusion, nu = 2 > 0 + 1): PASS")


def test_criterion_06_product_formula_equality():
    """Genus-2 x genus-2: 8/2! = (2/1!)*(2/1!) with exact equality,
    consistent with the declared isotriviality."""
    rep = FS.check_thm_1_1(INSTANCES["g2xg2"])
    assert rep.verdict == FS.HOLDS
    assert rep.volumes["vol+_X/nu_X!"] == F(8, 2)
    assert rep.volumes["vol+_Y/nu_Y!"] * rep.volumes["vol+_F/nu_F!"] == 4
    assert any("equality" in n for n in rep.notes)
    assert INSTANCES["g2xg2"].hypotheses["isotrivial"]
    print("criterion 06 (canonical volume product formula): PASS")


def test_criterion_07_example_42():
    """Reverse strict inclusion and the scaling witness (2,1,1)."""
    fs = INSTANCES["ex42"]
    val = fs.total_val_body(fs.D)
    assert val == hull([(0, 0), (0, 1)])
    rhs = fs.base_backend.body_val(fs.D_Y, None).product(
        fs.fiber_backend.body_val(fs.R_fiber, None))
    ok, margin = rhs.contains(val)
    assert ok and margin == 0 and rhs != val
    res = FS.scaling_search(fs)
    assert (F(2), F(1), F(1)) in res["feasible"]
    assert (F(1), F(1), F(1)) not in res["feasible"]
    print("criterion 07 (worked example: bodies, reverse inclusion, scaling): PASS")


def test_criterion_08_restricted_volume_transfer():
    """Both restricted volumes agree exactly on three toric instances."""
    for name in ("prod_line_line", "prod_line_line_rf0", "prod_plane_line"):
        rep = FS.check_lemma_3_1(INSTANCES[name])
        assert rep.verdict == FS.HOLDS and rep.margin == 0
        lhs, rhs = rep.volumes.values()
        assert lhs == rhs
    print("criterion 08 (restricted volume transfer on 3 instances): PASS")


def test_criterion_09_dimension_chains():
    """kappa <= dim(limiting body) <= nu wherever kappa is declared, and
    kappa_vol superadditivity on every instance."""
    for name, fs in INSTANCES.items():
        backend = fs.total_backend
        kappa = backend.kappa(fs.D)
        if kappa is None or kappa == T.NEG_INF:
            continue
        lim = fs.total_lim_body(fs.D)
        nu = backend.dims(fs.D).nu_bdpp
        assert kappa <= lim.dim() <= nu, name
    for name, fs in INSTANCES.items():
        assert FS.check_remark_3_6(fs).verdict == FS.HOLDS, name
    print("criterion 09 (dimension chains and kappa_vol superadditivity): PASS")


def test_criterion_10_kernel_property_suite():
    """1000 hull/Minkowski/containment round-trips; 200 Brunn-Minkowski
    pairs checked in floats at 1e-9."""
    rng = random.Random(20240)
    for trial in range(1000):
        n = rng.choice((1, 2, 3))
        pts = [tuple(F(rng.randint(-12, 12), rng.randint(1, 3))
                     for _ in range(n))
               for _ in range(rng.randint(1, 8))]
        P = hull(pts)
        assert hull(P.vertices) == P
        assert Polytope.from_halfspaces(P.to_hrep(), n) == P
        qts = [tuple(F(rng.randint(-12, 12), rng.randint(1, 3))
                     for _ in range(n))
               for _ in range(rng.randint(1, 6))]
        Q = hull(qts)
        M = P + Q
        assert M == Q + P
        okp, mp = M.contains(P.translate(Q.vertices[0]))
        assert okp and mp == 0
    done = 0
    while done < 200:
        n = rng.choice((2, 3))
        mk = lambda: hull([tuple(F(rng.randint(0, 10)) for _ in range(n))
                           for _ in range(rng.randint(n + 1, 8))])
        P, Q = mk(), mk()
        if P.dim() < n or Q.dim() < n:
            continue
        s = (P + Q).volume_in_dim(n) ** F(1)  # keep exact until float step
        lhs = float(s) ** (1.0 / n)
        rhs = float(P.volume_in_dim(n)) ** (1.0 / n) \
            + float(Q.volume_in_dim(n)) ** (1.0 / n)
        assert lhs >= rhs - 1e-9
        done += 1
    print("criterion 10 (kernel property suite, 1000 + 200 trials): PASS")
