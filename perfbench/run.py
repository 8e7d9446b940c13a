"""End-to-end benchmark for okbodies.

Run from the root of a source checkout:

    python3 perfbench/run.py --workload corpus_check --seed 1 --seconds 20 --trace 0

The load is a closed loop with one client: for `--seconds` seconds this
process launches `child.py` in a fresh interpreter, waits for it, and
launches the next, so each sample pays a command-line user's cold start
and no more than one child ever runs. With `--trace 0` every sample is
untraced and the run reports the end-to-end metrics; with `--trace 1`
samples alternate between untraced and traced, and the run reports the
per-layer metrics plus the tracing overhead (traced minus untraced wall
time). The last line of stdout is one JSON object with the keys
`correct`, `attempted`, `failed` and `metrics`; the lines before it and
`.perfbench_out/<workload>-seed<seed>-trace<t>.json` hold the samples and
the run's metadata, which `compare.py` reads. See README.md.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
import time
from pathlib import Path

from tracer import BOUNDARIES, LAYERS

HERE = Path(__file__).resolve().parent
CHILD = HERE / "child.py"
WORKLOADS = ("corpus_check", "scaling_ex42", "polytope_roundtrip", "oracle_m20")
OUT_DIR = Path(".perfbench_out")
# A run ends within 180 s even if one sample became very slow: no sample
# starts later than LAST_START_S after the run began, and a child still
# running at CHILD_DEADLINE_S is killed.
LAST_START_S = 120
CHILD_DEADLINE_S = 170
EXIT_TRACER = 3  # child.py: a traced boundary is missing
# Seconds child.reference_seconds() takes on an idle core of the machine the
# benchmark was written on (Intel Xeon, 2 vCPUs, Python 3.11.7). Every time
# is reported at this reference speed: raw seconds * REFERENCE_S / measured.
REFERENCE_S = 0.1


def now() -> float:
    return time.clock_gettime(time.CLOCK_MONOTONIC)


def per_layer_names():
    """Per-layer metric names and units, in report order."""
    names = []
    for layer, _, funcs in BOUNDARIES:
        for f in funcs:
            for suffix, unit in (("calls", "count"), ("self_s", "s")):
                item = (f"{layer}.{f}.{suffix}", unit)
                if item not in names:
                    names.append(item)
    names += [(f"{layer}.self_s", "s") for layer in LAYERS]
    names += [("invariants.calls", "count"),
              ("toric.section_polytope.distinct_ratio", "ratio"),
              ("polytope.from_halfspaces.vertex_yield", "ratio"),
              ("polytope.hull.extreme_ratio", "ratio"),
              ("trace.wall_s", "s"), ("trace.untraced_wall_s", "s"),
              ("trace.overhead_s", "s")]
    return names


# -- metadata -------------------------------------------------------------------


def git_commit():
    """HEAD of the checkout when it is a git repository, else None."""
    git = Path(".git")
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def source_digest():
    h = hashlib.sha256()
    for p in sorted(Path("src/okbodies").rglob("*")):
        if p.suffix in (".py", ".pyx") and "__pycache__" not in p.parts:
            h.update(str(p).encode() + b"\0" + p.read_bytes() + b"\0")
    return h.hexdigest()


def cpu_model():
    try:
        with open("/proc/cpuinfo") as fh:
            for line in fh:
                if line.startswith("model name"):
                    return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or platform.machine()


# -- samples ----------------------------------------------------------------------


def child_env():
    env = dict(os.environ)
    env.pop("OKBODIES_KERNEL", None)  # measure the lane the import selects
    env["PYTHONPATH"] = str(Path("src").resolve())
    return env


def run_child(args, timeout):
    """(exit code, last stdout line as JSON or None, launch time, stderr tail)."""
    t_launch = now()
    try:
        proc = subprocess.run([sys.executable, str(CHILD), *args],
                              capture_output=True, text=True,
                              env=child_env(), timeout=max(timeout, 1))
    except subprocess.TimeoutExpired:
        return None, None, t_launch, "timed out"
    lines = proc.stdout.strip().splitlines()
    try:
        rec = json.loads(lines[-1]) if lines else None
    except json.JSONDecodeError:
        rec = None
    return proc.returncode, rec, t_launch, proc.stderr.strip()[-2000:]


def speed_corrected(rec, t_launch):
    """A child's times scaled to the reference speed (see README.md).

    Set-up is scaled by the reference kernel run right after it, the
    operation and its trace by the mean of the runs before and after it.
    """
    before, after = rec["ref_s"]
    op_scale = REFERENCE_S / ((before + after) / 2)
    raw_setup = rec["ready"] - t_launch
    out = {"wall_s": rec["wall_s"] * op_scale,
           "setup_s": raw_setup * REFERENCE_S / before,
           "raw_wall_s": rec["wall_s"], "raw_setup_s": raw_setup,
           "ref_s": (before + after) / 2, "peak_rss_mb": rec["peak_rss_mb"]}
    if rec.get("trace"):
        out["trace"] = {k: v * op_scale if k.endswith("_s") else v
                        for k, v in rec["trace"].items()}
    return out


def percentile_info(values):
    """Highest of p50..p99 with at least ten samples beyond it (nearest rank)."""
    xs = sorted(values)
    n = len(xs)
    for p in (99, 95, 90, 75, 50):
        rank = math.ceil(p / 100 * n)
        if rank >= 1 and n - rank >= 10:
            return {"p": p, "value": xs[rank - 1]}
    return None


def fail(message, code=2):
    print(f"perfbench: {message}", file=sys.stderr)
    return code


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description="okbodies end-to-end benchmark")
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    t_main = now()
    if not Path("src/okbodies/__init__.py").is_file():
        return fail("src/okbodies not found; run from the root of an okbodies checkout")
    rc, probe, _, err = run_child(["--probe"], 60)
    if rc != 0 or probe is None:
        return fail(f"cannot import okbodies from src: {err}")
    expected_pkg = Path("src/okbodies/__init__.py").resolve()
    if Path(probe["package"]).resolve() != expected_pkg:
        return fail(f"imported {probe['package']}, not {expected_pkg}")
    lane = probe["lane"]

    OUT_DIR.mkdir(exist_ok=True)
    tag = f"{args.workload}-seed{args.seed}-trace{args.trace}"
    spans_path = OUT_DIR / f"{tag}-spans.json"
    samples = []
    start = now()
    while True:
        elapsed = now() - start
        since_main = now() - t_main
        trace_this = bool(args.trace) and len(samples) % 2 == 1
        have_both = not args.trace or len(samples) >= 2
        if (elapsed >= args.seconds and have_both and samples) \
                or since_main >= LAST_START_S:
            break
        cargs = ["--workload", args.workload, "--seed", str(args.seed)]
        if trace_this:
            cargs += ["--trace", "--spans", str(spans_path)]
        rc, rec, t_launch, err = run_child(cargs, CHILD_DEADLINE_S - since_main)
        if rc == EXIT_TRACER:
            return fail(f"tracer refused to install: {err}", EXIT_TRACER)
        sample = {"traced": trace_this, "exit": rc}
        if rec is not None:
            if rec["lane"] != lane:
                return fail(f"sample ran on lane {rec['lane']}, probe saw {lane}; "
                            "refusing to mix lanes")
            sample.update(speed_corrected(rec, t_launch), ok=rec["ok"],
                          error=rec["error"])
        else:
            sample.update(ok=False, error=f"child exited {rc}: {err}")
        sample["ok"] = sample["ok"] and rc == 0
        samples.append(sample)

    attempted = len(samples)
    failed = sum(not s["ok"] for s in samples)
    plain = [s for s in samples if not s["traced"] and "wall_s" in s]
    traced = [s for s in samples if s["traced"] and "trace" in s]
    if not plain or (args.trace and not traced):
        return fail("no sample finished; " + "; ".join(
            str(s["error"]) for s in samples[:3]), 1)
    walls = [s["wall_s"] for s in plain]
    info = {"samples": len(walls),
            "wall_s_percentile": percentile_info(walls),
            "raw_wall_s": statistics.median(s["raw_wall_s"] for s in plain),
            "raw_setup_s": statistics.median(s["raw_setup_s"] for s in plain),
            "reference_s": statistics.median(s["ref_s"] for s in plain),
            "error_rate": failed / attempted}

    if args.trace:
        values = {name: statistics.median(s["trace"][name] for s in traced)
                  for name, _ in per_layer_names() if not name.startswith("trace.")}
        values["trace.wall_s"] = statistics.median(s["wall_s"] for s in traced)
        values["trace.untraced_wall_s"] = statistics.median(walls)
        values["trace.overhead_s"] = values["trace.wall_s"] - statistics.median(walls)
        metrics = {name: {"value": values[name], "unit": unit}
                   for name, unit in per_layer_names()}
        info["traced_samples"] = len(traced)
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls), "unit": "s"},
            "setup_s": {"value": statistics.median(s["setup_s"] for s in plain),
                        "unit": "s"},
            "peak_rss_mb": {"value": statistics.median(s["peak_rss_mb"] for s in plain),
                            "unit": "MB"},
        }

    meta = {"workload": args.workload, "seed": args.seed,
            "seconds": args.seconds, "trace": args.trace, "lane": lane,
            "commit": git_commit(), "source_sha256": source_digest(),
            "python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu_model()}
    result = {"correct": failed == 0, "attempted": attempted,
              "failed": failed, "metrics": metrics}
    (OUT_DIR / f"{tag}.json").write_text(json.dumps(
        {"meta": meta, "info": info, "samples": samples, "result": result},
        indent=1))
    print("# meta " + json.dumps(meta))
    print("# info " + json.dumps(info))
    for s in samples:
        if not s["ok"]:
            print(f"# failed sample: {s['error']}")
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
