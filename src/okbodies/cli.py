"""Command-line front end.

Verbs compute bodies, decompositions, volumes and dimension reports from
model/divisor/flag files, run the fiber-space checks on instance files,
and emit plot data.  JSON reports go to stdout, a one-line human summary
to stderr.

Exit codes: 0 = computed (checks: verdict holds/strict); 1 = a check
verdict is "fails"; 2 = hypotheses not met, or malformed/inconsistent
input (a missing or out-of-range flag included); 3 = internal error (an
unexpected exception, reported as a one-line summary instead of a
traceback).
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
from .linalg import frac

EXIT_FAIL = 1
EXIT_INPUT = 2
EXIT_INTERNAL = 3


def _summary(text):
    print(text, file=sys.stderr)


def _emit(obj, out=None):
    blob = io.canonical_dumps(obj)
    if out:
        Path(out).write_text(blob)
    else:
        sys.stdout.write(blob)


def _load_model(path):
    return io.model_from_obj(io.load_json(path), path)


def _load_divisor(path):
    return io.divisor_from_obj(io.load_json(path), path)


def _load_flag(path, model):
    return io.flag_from_obj(io.load_json(path), model, path)


def _body_flag(args, model):
    """The flag of `body` / `limbody`: required except on curves, whose
    flag (curve, general point) is implicit."""
    if args.flag:
        return _load_flag(args.flag, model)
    if isinstance(model, CurveModel):
        return None
    raise io.InputError("--flag", "a flag file is required for toric and "
                                  "surface models")


def _load_instance(path):
    return io.instance_from_obj(io.load_json(path), path)


def cmd_body(args):
    model = _load_model(args.model)
    cls = _load_divisor(args.divisor)
    flag = _body_flag(args, model)
    backend = backend_for(model)
    body = backend.body_val(cls, flag)
    _emit({"body": body.to_obj(), "dim": body.dim(),
           "volume": str(body.volume_in_dim(body.dim()))}, args.out)
    _summary(f"body: dim {body.dim()}, {len(body.vertices)} vertices")
    return 0


def cmd_limbody(args):
    model = _load_model(args.model)
    cls = _load_divisor(args.divisor)
    flag = _body_flag(args, model)
    backend = backend_for(model)
    A = _load_divisor(args.ample) if args.ample else None
    body = backend.body_lim(cls, flag, A)
    _emit({"body": body.to_obj(), "dim": body.dim(),
           "volume": str(body.volume_in_dim(body.dim()))}, args.out)
    _summary(f"limiting body: dim {body.dim()}, {len(body.vertices)} vertices")
    return 0


def cmd_zariski(args):
    model = _load_model(args.model)
    if not isinstance(model, surfmod.SurfaceLattice):
        raise io.InputError(args.model, "zariski requires a surface model")
    cls = _load_divisor(args.divisor)
    zp = surfmod.zariski_decompose(model, cls)
    _emit({"positive": [str(c) for c in zp.positive],
           "negative": [str(c) for c in zp.negative],
           "support": list(zp.support),
           "coefficients": [str(c) for c in zp.coefficients],
           "volume": str(model.pair(zp.positive, zp.positive))}, args.out)
    _summary(f"zariski: support {list(zp.support)}")
    return 0


def cmd_vol(args):
    model = _load_model(args.model)
    cls = _load_divisor(args.divisor)
    vol = backend_for(model).volume(cls)
    _emit({"volume": str(vol)}, args.out)
    _summary(f"vol = {vol}")
    return 0


def cmd_dims(args):
    model = _load_model(args.model)
    cls = _load_divisor(args.divisor)
    A = _load_divisor(args.ample) if args.ample else None
    report = backend_for(model).dims(cls, A)
    _emit(report.to_obj(), args.out)
    _summary(f"dims: {report.to_obj()}")
    return 0


def cmd_check(args):
    if args.all:
        paths = sorted(Path(args.all).glob("*.json"))
        if not paths:
            raise io.InputError(args.all, "no instance files found")
        reports = []
        for p in paths:
            fs = _load_instance(str(p))
            reports.extend(fsmod.ALL_CHECKS[name](fs)
                           for name in sorted(fsmod.ALL_CHECKS))
        _emit([r.to_obj() for r in reports], args.out)
        worst = 0
        for r in reports:
            _summary(f"{r.instance}: {r.check_name}: {r.verdict}")
            if r.verdict == fsmod.FAILS:
                worst = EXIT_FAIL
        return worst
    if args.check not in fsmod.ALL_CHECKS:
        raise io.InputError("check", f"unknown check {args.check!r}; "
                            f"choose from {sorted(fsmod.ALL_CHECKS)}")
    if not args.instance:
        raise io.InputError("check", "--instance is required (or use --all)")
    fs = _load_instance(args.instance)
    report = fsmod.ALL_CHECKS[args.check](fs)
    _emit(report.to_obj(), args.out)
    _summary(f"{report.check_name} on {report.instance}: {report.verdict}"
             + (f" (margin {report.margin})" if report.margin is not None else ""))
    return report.exit_code


def cmd_scaling_search(args):
    fs = _load_instance(args.instance)
    res = fsmod.scaling_search(fs, grid_step=frac(args.grid_step),
                               bound=frac(args.bound))
    _emit({"feasible": [[str(x) for x in t] for t in res["feasible"]],
           "minimal_alpha_for_unit":
               None if res["minimal_alpha_for_unit"] is None
               else str(res["minimal_alpha_for_unit"]),
           "grid_step": str(res["grid_step"]),
           "bound": str(res["bound"])}, args.out)
    _summary(f"scaling search: {len(res['feasible'])} feasible triples; "
             f"minimal alpha at beta=gamma=1: {res['minimal_alpha_for_unit']}")
    return 0


def cmd_oracle_compare(args):
    model = _load_model(args.model)
    if not isinstance(model, toricmod.ToricVariety):
        raise io.InputError(args.model, "oracle-compare requires a toric model")
    cls = _load_divisor(args.divisor)
    flag = _load_flag(args.flag, model)
    D = toricmod.ToricDivisor(model, cls)
    exact = toricmod.okounkov_body_toric(model, D, flag)
    brute = toricmod.okounkov_body_bruteforce(model, D, flag, args.m)
    contained, margin = exact.contains(brute)
    exact_set, brute_set = set(exact.vertices), set(brute.vertices)
    missing = [v for v in exact.vertices if v not in brute_set]
    extra = [v for v in brute.vertices if v not in exact_set]
    _emit({"exact": exact.to_obj(), "bruteforce": brute.to_obj(),
           "m": args.m, "contained": contained, "margin": str(margin),
           "vertex_diff": {
               "exact_only": [[str(c) for c in v] for v in missing],
               "bruteforce_only": [[str(c) for c in v] for v in extra]},
           "volumes": {
               "exact": str(exact.volume_in_dim(exact.dim())),
               "bruteforce": str(brute.volume_in_dim(brute.dim()))}}, args.out)
    _summary(f"oracle-compare at m={args.m}: contained={contained}, "
             f"margin={margin}, vertex diff {len(missing)}+{len(extra)}")
    return 0 if contained else EXIT_FAIL


def cmd_emit_plot(args):
    body = io.body_from_obj(io.load_json(args.body), args.body)
    text = plotting.emit_plot(body, args.format)
    if args.out:
        Path(args.out).write_text(text)
    else:
        sys.stdout.write(text)
    _summary(f"emitted {args.format} plot"
             + (f" to {args.out}" if args.out else ""))
    return 0


def cmd_validate(args):
    checked = 0
    if args.model:
        model = _load_model(args.model)
        if args.flag:
            _load_flag(args.flag, model)
            checked += 1
        checked += 1
    if args.divisor:
        _load_divisor(args.divisor)
        checked += 1
    if args.instance:
        _load_instance(args.instance)
        checked += 1
    if not checked:
        raise io.InputError("validate", "nothing to validate; pass --model, "
                            "--divisor, --flag and/or --instance")
    _emit({"validated": checked, "ok": True})
    _summary(f"validate: {checked} file(s) ok")
    return 0


def build_parser():
    p = argparse.ArgumentParser(
        prog="okbodies",
        description="Exact Newton-Okounkov bodies, volumes, numerical "
                    "Iitaka dimensions, and fiber-space subadditivity checks.")
    sub = p.add_subparsers(dest="verb", required=True)

    def add(name, fn, **kwargs):
        sp = sub.add_parser(name, **kwargs)
        sp.set_defaults(fn=fn)
        sp.add_argument("--out", help="write the JSON report to this file")
        return sp

    sp = add("body", cmd_body, help="valuative body of a divisor")
    sp.add_argument("--model", required=True)
    sp.add_argument("--divisor", required=True)
    sp.add_argument("--flag")
    sp = add("limbody", cmd_limbody, help="limiting body of a divisor")
    sp.add_argument("--model", required=True)
    sp.add_argument("--divisor", required=True)
    sp.add_argument("--flag")
    sp.add_argument("--ample", help="ample class file for the perturbation")
    sp = add("zariski", cmd_zariski, help="Zariski decomposition (surface)")
    sp.add_argument("--model", required=True)
    sp.add_argument("--divisor", required=True)
    sp = add("vol", cmd_vol, help="volume of a divisor")
    sp.add_argument("--model", required=True)
    sp.add_argument("--divisor", required=True)
    sp = add("dims", cmd_dims, help="kappa/nu/kappa_vol report")
    sp.add_argument("--model", required=True)
    sp.add_argument("--divisor", required=True)
    sp.add_argument("--ample")
    sp = add("check", cmd_check,
             help="run a fiber-space check on an instance file")
    sp.add_argument("check", nargs="?",
                    help=f"one of {sorted(fsmod.ALL_CHECKS)}")
    sp.add_argument("--instance")
    sp.add_argument("--all", metavar="DIR",
                    help="run every check on every instance in DIR")
    sp = add("scaling-search", cmd_scaling_search,
             help="grid search for feasible body scalings")
    sp.add_argument("--instance", required=True)
    sp.add_argument("--grid-step", default="1/4")
    sp.add_argument("--bound", default="4")
    sp = add("oracle-compare", cmd_oracle_compare,
             help="compare the exact toric body against the finite-level oracle")
    sp.add_argument("--model", required=True)
    sp.add_argument("--divisor", required=True)
    sp.add_argument("--flag", required=True)
    sp.add_argument("--m", type=int, default=20)
    sp = add("emit-plot", cmd_emit_plot, help="emit csv/svg plot data of a body")
    sp.add_argument("--body", required=True, help="body JSON file")
    sp.add_argument("--format", choices=("csv", "svg"), default="csv")
    sp = add("validate", cmd_validate, help="validate input files")
    sp.add_argument("--model")
    sp.add_argument("--divisor")
    sp.add_argument("--flag")
    sp.add_argument("--instance")
    return p


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.fn(args)
    except io.InputError as exc:
        _summary(f"input error: {exc}")
        return EXIT_INPUT
    except (ValueError, OSError, KeyError) as exc:
        _summary(f"error: {exc}")
        return EXIT_INPUT
    except Exception as exc:
        _summary(f"internal error: {type(exc).__name__}: {exc}")
        return EXIT_INTERNAL


if __name__ == "__main__":
    sys.exit(main())
