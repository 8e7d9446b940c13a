"""Command-line front end.

Verbs compute bodies, decompositions, volumes and dimension reports from
model/divisor/flag files, run the fiber-space checks on instance files,
and emit plot data.  Every verb writes its report (canonical JSON, or the
csv/svg text of `emit-plot`) to stdout, or to the file named by `--out`,
and one-line human summaries to stderr.  Numeric arguments (`--grid-step`,
`--bound`) are exact rationals such as `1/4`.

Exit codes: 0 = computed (checks: verdict holds/strict); 1 = a check
verdict is "fails"; 2 = hypotheses not met, or malformed/inconsistent
input (a missing or out-of-range flag, a malformed numeric argument, a
`scaling-search` grid of no step or of more than 64 steps per axis, and an
unwritable `--out` included); 3 = internal error (an unexpected exception,
reported as a one-line summary instead of a traceback).

Each verb's handler takes the parsed arguments, with every input file it
declares already loaded, and returns (report, summary lines, exit code);
`main` is the one place that writes them.  One table, `VERBS`, declares
every verb, and a call builds the parser of its own verb only.
"""

from __future__ import annotations

import argparse
import sys
from pathlib import Path

from . import fiberspace as fsmod
from . import ioformats as io
from . import plotting
from . import surface as surfmod
from . import toric as toricmod
from .curve import CurveModel
from .invariants import backend_for

EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3
# a check's exit code; `check --all` exits EXIT_FAIL if some report fails
# and 0 otherwise
VERDICT_EXIT = {fsmod.HOLDS: 0, fsmod.STRICT: 0, fsmod.FAILS: EXIT_FAIL,
                fsmod.GATED: EXIT_INPUT}


def _load_files(args):
    """Parse each input file the verb was given: `--model M` sets
    `args.model` to the model read from M (and `args.model_path` stays M),
    and likewise for the divisor, instance, body and flag.  A flag is read
    against its model, so it needs one."""
    def load(name, parse, *context):
        path = getattr(args, f"{name}_path", None)
        setattr(args, name, None if path is None
                else parse(io.load_json(path), *context, path))

    load("model", io.model_from_obj)
    load("divisor", io.divisor_from_obj)
    load("instance", io.instance_from_obj)
    load("body", io.body_from_obj)
    if getattr(args, "flag_path", None) is not None and args.model is None:
        raise io.InputError("--flag", "a flag file is read against a model; "
                                      "pass --model too")
    load("flag", io.flag_from_obj, args.model)


def cmd_body(args):
    """`body` and `limbody`: the valuative or the limiting body.  The flag
    is required except on curves, whose flag (curve, general point) is
    implicit."""
    if args.flag is None and not isinstance(args.model, CurveModel):
        raise io.InputError("--flag", "a flag file is required for toric and "
                                      "surface models")
    backend = backend_for(args.model)
    compute, label = ((backend.body_val, "body") if args.verb == "body"
                      else (backend.body_lim, "limiting body"))
    body = compute(args.divisor, args.flag)
    return ({"body": body.to_obj(), "dim": body.dim(),
             "volume": str(body.volume_in_dim(body.dim()))},
            [f"{label}: dim {body.dim()}, {len(body.vertices)} vertices"], 0)


def cmd_zariski(args):
    model = args.model
    if not isinstance(model, surfmod.SurfaceLattice):
        raise io.InputError(args.model_path,
                            "zariski requires a surface model")
    zp = surfmod.zariski_decompose(model, args.divisor)
    return ({"positive": [str(c) for c in zp.positive],
             "negative": [str(c) for c in zp.negative],
             "support": list(zp.support),
             "coefficients": [str(c) for c in zp.coefficients],
             "volume": str(model.pair(zp.positive, zp.positive))},
            [f"zariski: support {list(zp.support)}"], 0)


def cmd_vol(args):
    vol = backend_for(args.model).volume(args.divisor)
    return {"volume": str(vol)}, [f"vol = {vol}"], 0


def cmd_dims(args):
    report = backend_for(args.model).dims(args.divisor).to_obj()
    return report, [f"dims: {report}"], 0


def cmd_check(args):
    if args.all:
        if args.check is not None or args.instance is not None:
            raise io.InputError("--all", "runs every check on every instance in "
                                         "DIR; pass no check name or --instance")
        paths = sorted(Path(args.all).glob("*.json"))
        if not paths:
            raise io.InputError(args.all, "no instance files found")
        instances = (io.instance_from_obj(io.load_json(str(p)), str(p))
                     for p in paths)
        reports = [fsmod.ALL_CHECKS[name](fs) for fs in instances
                   for name in sorted(fsmod.ALL_CHECKS)]
        failed = any(r.verdict == fsmod.FAILS for r in reports)
        return ([r.to_obj() for r in reports],
                [f"{r.instance}: {r.check_name}: {r.verdict}"
                 for r in reports], EXIT_FAIL if failed else 0)
    if args.check is None:
        raise io.InputError("check", "a check name or --all is required")
    if args.check not in fsmod.ALL_CHECKS:
        raise io.InputError("check", f"unknown check {args.check!r}; "
                            f"choose from {sorted(fsmod.ALL_CHECKS)}")
    if args.instance is None:
        raise io.InputError("check", "--instance is required (or use --all)")
    report = fsmod.ALL_CHECKS[args.check](args.instance)
    margin = "" if report.margin is None else f" (margin {report.margin})"
    return (report.to_obj(),
            [f"{report.check_name} on {report.instance}: {report.verdict}"
             + margin], VERDICT_EXIT[report.verdict])


def cmd_scaling_search(args):
    res = fsmod.scaling_search(args.instance, grid_step=args.grid_step,
                               bound=args.bound)
    alpha = res["minimal_alpha_for_unit"]
    labels = [str(g) for g in res["grid"]]
    return ({"feasible": [[labels[ka], labels[kb], labels[kg]]
                          for ka, kb, kg in res["feasible_indices"]],
             "minimal_alpha_for_unit": None if alpha is None else str(alpha),
             "grid_step": str(res["grid_step"]),
             "bound": str(res["bound"])},
            [f"scaling search: {len(res['feasible'])} feasible triples; "
             f"minimal alpha at beta=gamma=1: {alpha}"], 0)


def cmd_oracle_compare(args):
    model, flag, m = args.model, args.flag, args.m
    if not isinstance(model, toricmod.ToricVariety):
        raise io.InputError(args.model_path,
                            "oracle-compare requires a toric model")
    D = toricmod.ToricDivisor(model, args.divisor)
    exact = toricmod.okounkov_body_toric(model, D, flag)
    brute = toricmod.okounkov_body_bruteforce(model, D, flag, m)
    contained, margin = exact.contains(brute)
    exact_set, brute_set = set(exact.vertices), set(brute.vertices)
    missing = [v for v in exact.vertices if v not in brute_set]
    extra = [v for v in brute.vertices if v not in exact_set]
    return ({"exact": exact.to_obj(), "bruteforce": brute.to_obj(),
             "m": m, "contained": contained, "margin": str(margin),
             "vertex_diff": {
                 "exact_only": [[str(c) for c in v] for v in missing],
                 "bruteforce_only": [[str(c) for c in v] for v in extra]},
             "volumes": {
                 "exact": str(exact.volume_in_dim(exact.dim())),
                 "bruteforce": str(brute.volume_in_dim(brute.dim()))}},
            [f"oracle-compare at m={m}: contained={contained}, "
             f"margin={margin}, vertex diff {len(missing)}+{len(extra)}"],
            0 if contained else EXIT_FAIL)


def cmd_emit_plot(args):
    return (plotting.emit_plot(args.body, args.format),
            [f"emitted {args.format} plot"
             + (f" to {args.out}" if args.out else "")], 0)


def cmd_validate(args):
    checked = sum(getattr(args, f"{name}_path") is not None
                  for name in ("model", "divisor", "flag", "instance"))
    if not checked:
        raise io.InputError("validate", "nothing to validate; pass --model, "
                            "--divisor, --flag and/or --instance")
    return ({"validated": checked, "ok": True},
            [f"validate: {checked} file(s) ok"], 0)


# verb -> (handler, one-line help, the JSON input files it reads, its
# other options as (name, `add_argument` keywords)).  An input name ending
# in "?" is optional; `_load_files` parses each file given.
VERBS = {
    "body": (cmd_body, "valuative body of a divisor", "model divisor flag?",
             ()),
    "limbody": (cmd_body, "limiting body of a divisor", "model divisor flag?",
                ()),
    "zariski": (cmd_zariski, "Zariski decomposition (surface)",
                "model divisor", ()),
    "vol": (cmd_vol, "volume of a divisor", "model divisor", ()),
    "dims": (cmd_dims, "kappa/nu/kappa_vol report", "model divisor", ()),
    "check": (cmd_check, "run a fiber-space check on an instance file",
              "instance?",
              (("check", {"nargs": "?",
                          "help": f"one of {sorted(fsmod.ALL_CHECKS)}"}),
               ("--all", {"metavar": "DIR", "help": "run every check on "
                          "every instance in DIR"}))),
    "scaling-search": (cmd_scaling_search,
                       "grid search for feasible body scalings", "instance",
                       (("--grid-step", {"type": io.rational,
                                         "default": fsmod.GRID_STEP}),
                        ("--bound", {"type": io.rational,
                                     "default": fsmod.GRID_BOUND}))),
    "oracle-compare": (cmd_oracle_compare, "compare the exact toric body "
                       "against the finite-level oracle", "model divisor flag",
                       (("--m", {"type": int, "default": 20}),)),
    "emit-plot": (cmd_emit_plot, "emit csv/svg plot data of a body", "body",
                  (("--format", {"choices": ("csv", "svg"),
                                 "default": "csv"}),)),
    "validate": (cmd_validate, "validate input files",
                 "model? divisor? flag? instance?", ()),
}


def _parse_args(argv):
    """The top-level parser reads only the verb and hands the rest of argv
    to a parser built from that verb's row of VERBS alone."""
    top = argparse.ArgumentParser(
        prog="okbodies",
        description="Exact Newton-Okounkov bodies, volumes, numerical Iitaka "
                    "dimensions,\nand fiber-space subadditivity checks.",
        epilog="verbs:\n" + "".join(f"  {verb:16}{row[1]}\n"
                                    for verb, row in VERBS.items()),
        formatter_class=argparse.RawDescriptionHelpFormatter)
    top.add_argument("verb", choices=VERBS, metavar="VERB",
                     help="one of the verbs below")
    top.add_argument("args", nargs=argparse.REMAINDER, metavar="ARGS",
                     help="the verb's options; okbodies VERB -h lists them")
    call = top.parse_args(argv)
    fn, about, inputs, options = VERBS[call.verb]
    p = argparse.ArgumentParser(prog=f"okbodies {call.verb}",
                                description=about)
    p.add_argument("--out", help="write the report to this file")
    for spec in inputs.split():
        key = spec.rstrip("?")
        p.add_argument(f"--{key}", dest=f"{key}_path", metavar=key.upper(),
                       help=f"{key} JSON file",
                       required=not spec.endswith("?"))
    for name, keywords in options:
        p.add_argument(name, **keywords)
    return p.parse_args(call.args, argparse.Namespace(verb=call.verb, fn=fn))


def main(argv=None) -> int:
    args = _parse_args(argv)
    try:
        _load_files(args)
        report, summaries, code = args.fn(args)
        text = (report if isinstance(report, str)
                else io.canonical_dumps(report))
        if args.out:
            Path(args.out).write_text(text)
        else:
            sys.stdout.write(text)
    except io.InputError as exc:
        summaries, code = [f"input error: {exc}"], EXIT_INPUT
    except (ValueError, OSError) as exc:
        summaries, code = [f"error: {exc}"], EXIT_INPUT
    except Exception as exc:
        summaries = [f"internal error: {type(exc).__name__}: {exc}"]
        code = EXIT_INTERNAL
    print(*summaries, sep="\n", file=sys.stderr)
    return code


if __name__ == "__main__":
    sys.exit(main())
