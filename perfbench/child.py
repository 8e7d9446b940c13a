"""One cold sample of one benchmark workload, run in a fresh interpreter.

`run.py` starts this file once per sample with `src` on PYTHONPATH, so
every sample pays interpreter start, `import okbodies` and input
generation, as a command-line user does, and no cache survives from one
sample to the next. It prints one JSON line:

    ready        CLOCK_MONOTONIC reading when set-up ended
    wall_s       seconds spent in the timed operation
    ref_s        reference_seconds() right before and right after it
    peak_rss_mb  peak resident set of this process
    lane         kernel.active_lane()
    ok, error    the correctness gate
    trace        per-boundary summary (with --trace only)

Usage: python3 perfbench/child.py --workload NAME --seed N [--trace] [--spans PATH]
       python3 perfbench/child.py --probe
"""

from __future__ import annotations

import argparse
import contextlib
import functools
import gc
import hashlib
import io
import json
import math
import random
import resource
import sys
import time
import traceback
from fractions import Fraction

import okbodies
from okbodies import cli, kernel, toric
from okbodies.invariants import ToricBackend
from okbodies.polytope import Polytope, hull


def now() -> float:
    """Clock shared with the parent process, for set-up time."""
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def reference_seconds(reps=10, n=14):
    """Time a fixed exact-rational elimination that uses no okbodies code.

    The shared host this benchmark runs on changes speed by up to 2x over
    seconds to minutes. This kernel has okbodies' instruction mix (Fraction
    and int arithmetic, list churn), so its time measures the machine's
    current speed, which run.py divides out.
    """
    gc.collect()
    t0 = time.perf_counter()
    for rep in range(reps):
        m = [[Fraction((i * 7 + j * 3 + rep) % 11 - 5, (i + j) % 4 + 1)
              for j in range(n + 1)] for i in range(n)]
        for c in range(n):
            p = next((r for r in range(c, n) if m[r][c] != 0), None)
            if p is None:
                continue
            m[c], m[p] = m[p], m[c]
            inv = 1 / m[c][c]
            m[c] = [x * inv for x in m[c]]
            for r in range(n):
                if r != c and m[r][c] != 0:
                    f = m[r][c]
                    m[r] = [x - f * y for x, y in zip(m[r], m[c])]
    return time.perf_counter() - t0


# -- command-line verbs on the shipped corpus ---------------------------------

# (exit code, sha256 of stdout), recorded at the commit that added this
# benchmark; the canonical JSON output is fixed byte for byte.
EXPECTED_CLI = {
    "corpus_check": (0, "97daee3eb52ec7c534386d19da2fbf76f9b42d9b2d3eb35ef55e5a2abb6e2146"),
    "scaling_ex42": (0, "c985d06426f197a7fadeac36c05e81f57d3f747c6b9905c8794edbd9c0b9e13f"),
}

CLI_ARGV = {
    "corpus_check": ["check", "--all", "fixtures/instances"],
    "scaling_ex42": ["scaling-search", "--instance", "fixtures/instances/ex42.json"],
}


def cli_run(argv):
    out, err = io.StringIO(), io.StringIO()
    with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
        rc = cli.main(argv)
    return rc, out.getvalue()


def cli_check(name, result):
    rc, stdout = result
    want_rc, want_sha = EXPECTED_CLI[name]
    if rc != want_rc:
        return f"exit code {rc}, expected {want_rc}"
    sha = hashlib.sha256(stdout.encode()).hexdigest()
    if sha != want_sha:
        return f"stdout sha256 {sha}, expected {want_sha}"
    return None


# -- polytope_roundtrip ---------------------------------------------------------

ROUNDTRIP_TRIALS = 30
# Fixes the point sets up to translation. --seed translates each set by an
# integer vector and shuffles the trials. Translation keeps every sort
# order, orientation test and LP pivot, so every seed runs the same
# operations on different numbers.
ROUNDTRIP_CORPUS_SEED = 20240


def _criterion_points(rng, n, k):
    """k rational points in R^n, drawn as in acceptance criterion 10."""
    return [tuple(Fraction(rng.randint(-12, 12), rng.randint(1, 3))
                  for _ in range(n)) for _ in range(k)]


def _translate(rng, pts, n):
    shift = [rng.randint(-4, 4) for _ in range(n)]
    return [tuple(x + s for x, s in zip(p, shift)) for p in pts]


def roundtrip_inputs(seed):
    base = random.Random(ROUNDTRIP_CORPUS_SEED)
    rng = random.Random(seed)
    trials = []
    for _ in range(ROUNDTRIP_TRIALS):
        n = base.choice((1, 2, 3))
        p = _criterion_points(base, n, base.randint(1, 8))
        q = _criterion_points(base, n, base.randint(1, 6))
        trials.append((n, _translate(rng, p, n), _translate(rng, q, n)))
    rng.shuffle(trials)
    return trials


def roundtrip_run(trials):
    out = []
    for n, p, q in trials:
        P, Q = hull(p), hull(q)
        M = P + Q
        contained, margin = M.contains(P.translate(Q.vertices[0]))
        out.append({
            "hull idempotent": hull(P.vertices) == P,
            "V->H->V round trip": Polytope.from_halfspaces(P.to_hrep(), n) == P,
            "Minkowski sum commutes": M == Q + P,
            "P + q contained in P + Q": contained and margin == 0,
            "volumes": [(body, body.volume_in_dim(n)) for body in (M, P, Q)],
        })
    return out


def _polygon_area(pts):
    """Area of distinct points in strictly convex position in the plane."""
    if len(pts) < 3:
        return Fraction(0)
    cx = sum(p[0] for p in pts) / len(pts)
    cy = sum(p[1] for p in pts) / len(pts)

    def order(a, b):  # counter-clockwise around the centroid
        ha = a[1] < cy or (a[1] == cy and a[0] < cx)
        hb = b[1] < cy or (b[1] == cy and b[0] < cx)
        if ha != hb:
            return 1 if ha else -1
        cross = (a[0] - cx) * (b[1] - cy) - (a[1] - cy) * (b[0] - cx)
        return -1 if cross > 0 else (1 if cross < 0 else 0)

    ring = sorted(pts, key=functools.cmp_to_key(order))
    return abs(sum(a[0] * b[1] - a[1] * b[0]
                   for a, b in zip(ring, ring[1:] + ring[:1]))) / 2


def volume_by_facets(body, n):
    """Exact volume in R^n, n <= 3, by pyramids from a vertex over facets.

    Independent of `Polytope.volume_in_dim`: facet a.x <= b with k the
    coordinate where |a_k| is largest adds (b - a.c) * mu / |a_k|, where mu
    is the facet's measure projected along e_k; the sum over n is the
    volume.
    """
    if body.dim() < n:
        return Fraction(0)
    c = body.vertices[0]
    total = Fraction(0)
    for h in body.to_hrep():
        a, b = h.normal, h.offset
        k = max(range(n), key=lambda i: abs(a[i]))
        face = [tuple(x for i, x in enumerate(v) if i != k)
                for v in body.vertices if h.violation(v) == 0]
        if n == 1:
            mu = Fraction(1)
        elif n == 2:
            mu = max(face)[0] - min(face)[0]
        else:
            mu = _polygon_area(face)
        total += (b - sum(x * y for x, y in zip(a, c))) * mu / abs(a[k])
    return total / n


def roundtrip_check(trials, result):
    for i, ((n, _, _), res) in enumerate(zip(trials, result)):
        (M, vm), (P, vp), (Q, vq) = res.pop("volumes")
        res["volume_in_dim agrees with pyramids over facets"] = all(
            v == volume_by_facets(body, n) for body, v in ((M, vm), (P, vp), (Q, vq)))
        # (a + b)^n >= a^n + b^n, with equality for n = 1 (lengths add)
        res["vol(P + Q) >= vol(P) + vol(Q)"] = vm >= vp + vq
        res["lengths add in R^1"] = n != 1 or vm == vp + vq
        bad = [k for k, ok in res.items() if not ok]
        if bad:
            return f"trial {i} (dim {n}): {', '.join(bad)}"
    return None


# -- oracle_m20 -------------------------------------------------------------------

ORACLE_LEVEL = 20
# Factors and class degrees: P^2 of degree 3, P^2 x P^1 of bidegree (1, 1)
# (4851 level-20 sections) and (P^1)^3 of tridegree (1, 1, 1) (9261).
# The seed picks the torus-invariant representative of each class and the
# flag, which keeps the section count, and so the work, the same.
ORACLE_CASES = ((("P2", 3),), (("P2", 1), ("P1", 1)),
                (("P1", 1), ("P1", 1), ("P1", 1)))


def oracle_inputs(seed):
    rng = random.Random(seed)
    factors = {"P1": toric.projective_line(), "P2": toric.projective_plane()}
    cases = []
    for spec in ORACLE_CASES:
        X = None
        coeffs = []
        for name, degree in spec:
            F = factors[name]
            free = [rng.randint(-3, 3) for _ in range(len(F.rays) - 1)]
            coeffs += free + [degree - sum(free)]
            X = F if X is None else toric.product_fibration(X, F).total
        cone = rng.randrange(len(X.max_cones))
        order = tuple(rng.sample(X.max_cones[cone], X.dim))
        cases.append((X, tuple(Fraction(c) for c in coeffs),
                      toric.ToricFlag(cone, order)))
    return cases


def oracle_run(cases):
    out = []
    for X, coeffs, flag in cases:
        D = toric.ToricDivisor(X, coeffs)
        exact = toric.okounkov_body_toric(X, D, flag)
        brute = toric.okounkov_body_bruteforce(X, D, flag, ORACLE_LEVEL)
        contained, margin = exact.contains(brute)
        out.append((contained, margin, exact.volume_in_dim(X.dim)))
    return out


def oracle_check(cases, result):
    for (X, coeffs, _), (contained, margin, vol) in zip(cases, result):
        if not contained or margin != 0:
            return f"brute-force body not inside the exact body on {coeffs}: margin {margin}"
        want = ToricBackend(X).volume(coeffs)
        if want <= 0 or math.factorial(X.dim) * vol != want:
            return f"n! vol(exact body) = {math.factorial(X.dim) * vol}, volume {want}"
    return None


# prepare(seed) -> inputs (set-up); run(inputs) -> result (timed);
# check(inputs, result) -> None or a failure message.
WORKLOADS = {
    "corpus_check": (lambda seed: CLI_ARGV["corpus_check"], cli_run,
                     lambda _, r: cli_check("corpus_check", r)),
    "scaling_ex42": (lambda seed: CLI_ARGV["scaling_ex42"], cli_run,
                     lambda _, r: cli_check("scaling_ex42", r)),
    "polytope_roundtrip": (roundtrip_inputs, roundtrip_run, roundtrip_check),
    "oracle_m20": (oracle_inputs, oracle_run, oracle_check),
}


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", choices=sorted(WORKLOADS))
    ap.add_argument("--seed", type=int, default=0)
    ap.add_argument("--trace", action="store_true")
    ap.add_argument("--spans", help="write the traced spans to this file")
    ap.add_argument("--probe", action="store_true",
                    help="report the imported package and lane, run nothing")
    args = ap.parse_args(argv)
    if args.probe:
        print(json.dumps({"package": okbodies.__file__,
                          "lane": kernel.active_lane()}))
        return 0
    if args.workload is None:
        ap.error("--workload is required")

    prepare, run, check = WORKLOADS[args.workload]
    inputs = prepare(args.seed)
    tracer = None
    if args.trace:
        from tracer import BoundaryMissing, Tracer
        try:
            tracer = Tracer().install()
        except BoundaryMissing as exc:
            print(f"tracer: {exc}", file=sys.stderr)
            return 3
    ready = now()
    ref_before = reference_seconds()
    t0 = time.perf_counter()
    result, error = None, None
    try:
        result = tracer.root(run, inputs) if tracer else run(inputs)
    except Exception:
        error = traceback.format_exc(limit=-3)
    wall = time.perf_counter() - t0
    ref_after = reference_seconds()
    rec = {"ready": ready, "wall_s": wall, "ref_s": [ref_before, ref_after],
           "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024,
           "lane": kernel.active_lane()}
    if tracer:
        rec["trace"] = tracer.summary()
        if args.spans:
            tracer.write_spans(args.spans)
    if error is None:
        try:
            error = check(inputs, result)
        except Exception:
            error = traceback.format_exc(limit=-3)
    rec["ok"] = error is None
    rec["error"] = error
    print(json.dumps(rec))
    return 0


if __name__ == "__main__":
    sys.exit(main())
