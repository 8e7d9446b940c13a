import argparse
import io
import json
import os
import re
import subprocess
import sys
from contextlib import redirect_stderr, redirect_stdout
from fractions import Fraction

import pytest
from corpus import FIXTURES, INSTANCE_NAMES
from hypothesis import example, given, settings
from hypothesis import strategies as st

from okbodies import fiberspace as fsmod
from okbodies import plotting, toric
from okbodies.cli import EXIT_INTERNAL, VERBS, main
from okbodies.ioformats import (canonical_dumps, divisor_from_obj,
                                flag_from_obj, instance_from_obj, load_json,
                                model_from_obj, rational)
from okbodies.polytope import Polytope
from okbodies.surface import SurfaceLattice


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


def parse_exit(capsys, *argv):
    """Run main on argv that argparse itself answers; returns (exit code,
    stdout, stderr)."""
    with pytest.raises(SystemExit) as exc:
        main([str(a) for a in argv])
    out = capsys.readouterr()
    return exc.value.code, out.out, out.err


class TestCommandLineSurface:
    """The top-level parser reads only the verb, and each call builds the
    parser of its own verb; what a user types and reads stays the same."""

    HELP = {
        "body": "valuative body of a divisor",
        "limbody": "limiting body of a divisor",
        "zariski": "Zariski decomposition (surface)",
        "vol": "volume of a divisor",
        "dims": "kappa/nu/kappa_vol report",
        "check": "run a fiber-space check on an instance file",
        "scaling-search": "grid search for feasible body scalings",
        "oracle-compare": "compare the exact toric body against the "
                          "finite-level oracle",
        "emit-plot": "emit csv/svg plot data of a body",
        "validate": "validate input files",
    }

    OPTIONS = {
        "body": {"--model", "--divisor", "--flag"},
        "limbody": {"--model", "--divisor", "--flag"},
        "zariski": {"--model", "--divisor"},
        "vol": {"--model", "--divisor"},
        "dims": {"--model", "--divisor"},
        "check": {"--instance", "--all", "check"},
        "scaling-search": {"--instance", "--grid-step", "--bound"},
        "oracle-compare": {"--model", "--divisor", "--flag", "--m"},
        "emit-plot": {"--body", "--format"},
        "validate": {"--model", "--divisor", "--flag", "--instance"},
    }

    def test_help_names_every_verb_with_its_help_line(self, capsys):
        assert set(VERBS) == set(self.HELP)
        code, out, err = parse_exit(capsys, "-h")
        assert code == 0 and err == ""
        for verb, about in self.HELP.items():
            assert re.search(rf"^ +{re.escape(verb)} +{re.escape(about)}$",
                             out, re.M), verb

    @pytest.mark.parametrize("verb", sorted(OPTIONS))
    def test_verb_help_lists_its_options(self, capsys, verb):
        code, out, err = parse_exit(capsys, verb, "-h")
        assert code == 0 and err == ""
        assert out.startswith(f"usage: okbodies {verb} ")
        # an option or positional opens its line two spaces in; wrapped
        # help text is indented further
        listed = set(re.findall(r"^  ([\w-]+)", out, re.M))
        assert listed == {"-h", "--out"} | self.OPTIONS[verb]

    @pytest.mark.parametrize("argv", [[], ["bogus"], ["--instance", "x"]],
                             ids=["none", "unknown", "option-first"])
    def test_missing_or_unknown_verb_is_usage_error(self, capsys, argv):
        code, out, err = parse_exit(capsys, *argv)
        assert code == 2 and out == ""
        assert err.startswith("usage: okbodies ")

    def test_equals_form_and_option_prefix(self, capsys):
        ex42 = FIXTURES / "instances/ex42.json"
        spelled = run(capsys, "scaling-search", "--instance", ex42,
                      "--grid-step", "1/2", "--bound", "2")
        assert spelled[0] == 0 and spelled[1]
        assert run(capsys, "scaling-search", "--inst", ex42,
                   "--grid-step=1/2", "--bound=2") == spelled

    @pytest.mark.parametrize("argv", [
        ["scaling-search", "--instance", FIXTURES / "instances/ex42.json"],
        ["check", "--all", FIXTURES / "instances"]],
        ids=["scaling-search", "check-all"])
    def test_a_call_builds_at_most_two_parsers(self, capsys, monkeypatch,
                                               argv):
        built = []
        init = argparse.ArgumentParser.__init__

        def counted(parser, *args, **kwargs):
            built.append(kwargs.get("prog"))
            init(parser, *args, **kwargs)

        monkeypatch.setattr(argparse.ArgumentParser, "__init__", counted)
        code, out, _ = run(capsys, *argv)
        assert code == 0 and out
        assert len(built) <= 2, built


class TestRational:
    """`ioformats.rational` reads the strings that `str(Fraction)` writes,
    with the value that `Fraction` gives them."""

    @settings(max_examples=300, deadline=None)
    @given(sign=st.sampled_from(["", "+", "-"]),
           numerator=st.just(0) | st.integers(0, 10**30),
           denominator=st.none() | st.integers(1, 10**12),
           zeros=st.tuples(st.integers(0, 3), st.integers(0, 3)))
    def test_matches_fraction(self, sign, numerator, denominator, zeros):
        text = sign + "0" * zeros[0] + str(numerator)
        if denominator is not None:
            text += "/" + "0" * zeros[1] + str(denominator)
        assert rational(text) == Fraction(text)


class TestComputeVerbs:
    def test_body_plane_degree2(self, capsys):
        code, out, err = run(capsys, "body",
                             "--model", FIXTURES / "models/plane.json",
                             "--divisor", FIXTURES / "models/d2.json",
                             "--flag", FIXTURES / "models/std_flag.json")
        assert code == 0
        body = json.loads(out)["body"]
        assert body["vertices"] == [["0", "0"], ["0", "2"], ["2", "0"]]

    def test_zariski_and_vol(self, capsys):
        code, out, _ = run(capsys, "zariski",
                           "--model", FIXTURES / "models/blown_up_plane_surface.json",
                           "--divisor", FIXTURES / "models/d_2h_plus_e.json")
        assert code == 0
        rep = json.loads(out)
        assert rep["positive"] == ["2", "0"] and rep["negative"] == ["0", "1"]
        code, out, _ = run(capsys, "vol",
                           "--model", FIXTURES / "models/blown_up_plane_surface.json",
                           "--divisor", FIXTURES / "models/d_2h_plus_e.json")
        assert code == 0 and json.loads(out)["volume"] == "4"

    def test_dims(self, capsys):
        code, out, _ = run(capsys, "dims",
                           "--model", FIXTURES / "models/plane.json",
                           "--divisor", FIXTURES / "models/d2.json")
        assert code == 0
        assert json.loads(out)["kappa"] == 2

    @pytest.mark.parametrize("verb", ["limbody", "dims"])
    def test_no_ample_option(self, capsys, verb):
        # no eps-limit depends on the ample class, so neither verb takes one
        models = FIXTURES / "models"
        flag = (["--flag", models / "std_flag.json"] if verb == "limbody"
                else [])
        with pytest.raises(SystemExit) as exc:
            run(capsys, verb, "--model", models / "plane.json", "--divisor",
                models / "d2.json", *flag, "--ample", models / "d2.json")
        assert exc.value.code == 2
        assert "unrecognized arguments: --ample" in capsys.readouterr().err

    def test_limbody(self, capsys):
        code, out, _ = run(capsys, "limbody",
                           "--model", FIXTURES / "models/blown_up_plane_surface.json",
                           "--divisor", FIXTURES / "models/d_2h_plus_e.json",
                           "--flag", "-")
        # '-' is not a file; expect a clean input error, not a traceback
        assert code == 2

    @pytest.mark.parametrize("verb", ["zariski", "vol"])
    def test_class_of_wrong_length_is_input_error(self, verb, capsys,
                                                  tmp_path):
        divisor = tmp_path / "divisor.json"
        divisor.write_text(json.dumps({"coeffs": ["2", "1", "1"]}))
        code, out, err = run(capsys, verb, "--model",
                             FIXTURES / "models/blown_up_plane_surface.json",
                             "--divisor", divisor)
        assert code == 2 and out == ""
        assert err == "error: class vectors must have length rank\n"

    @pytest.mark.parametrize("verb", ["zariski", "vol", "dims"])
    def test_repeated_negative_curve_is_input_error(self, verb, capsys,
                                                    tmp_path):
        model = load_json(FIXTURES / "models/blown_up_plane_surface.json")
        model["negative_curves"] = [0, 0]
        (tmp_path / "model.json").write_text(canonical_dumps(model))
        (tmp_path / "divisor.json").write_text(
            canonical_dumps({"coeffs": ["1", "1"]}))
        code, out, err = run(capsys, verb, "--model", tmp_path / "model.json",
                             "--divisor", tmp_path / "divisor.json")
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and "negative_curves" in err

    def test_oracle_compare(self, capsys):
        code, out, _ = run(capsys, "oracle-compare",
                           "--model", FIXTURES / "models/plane.json",
                           "--divisor", FIXTURES / "models/d2.json",
                           "--flag", FIXTURES / "models/std_flag.json",
                           "--m", "7")
        assert code == 0
        rep = json.loads(out)
        assert rep["contained"] and rep["margin"] == "0"

    def test_oracle_compare_rejects_level_zero(self, capsys):
        code, out, err = run(capsys, "oracle-compare",
                             "--model", FIXTURES / "models/plane.json",
                             "--divisor", FIXTURES / "models/d2.json",
                             "--flag", FIXTURES / "models/std_flag.json",
                             "--m", "0")
        assert code == 2 and out == ""
        assert err == "error: level must be >= 1\n"


    def test_body_and_vol_on_a_fourfold(self, capsys, tmp_path):
        # (P^1)^4 with all coefficients 1: the body is [0, 2]^4 up to
        # translation, of volume 16, and vol(D) = 4! * 16
        p1 = toric.projective_line()
        p1xp1 = toric.product_fibration(p1, p1).total
        X = toric.product_fibration(p1xp1, p1xp1).total
        files = {"model": X.to_obj(),
                 "divisor": {"coeffs": ["1"] * len(X.rays)},
                 "flag": {"cone": 0, "ray_order": [0, 2, 4, 6]}}
        for name, obj in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        args = ["--model", tmp_path / "model.json",
                "--divisor", tmp_path / "divisor.json"]
        for verb in ("body", "limbody"):
            code, out, _ = run(capsys, verb, *args,
                               "--flag", tmp_path / "flag.json")
            assert code == 0
            rep = json.loads(out)
            assert rep["dim"] == 4 and rep["volume"] == "16"
            assert len(rep["body"]["vertices"]) == 16
        code, out, _ = run(capsys, "vol", *args)
        assert code == 0 and json.loads(out)["volume"] == "384"

    def test_abundance_covers_canonical_type_classes_only(self, capsys,
                                                          tmp_path):
        # ex42's total surface declares the Iitaka degree of K = (1, 0) on
        # curve 1; (0, 1) is no multiple of K, so its body is undetermined
        files = {"model": load_json(FIXTURES / "instances/ex42.json")["total"],
                 "divisor": {"coeffs": ["0", "1"]}, "flag": {"curve": 1}}
        for name, obj in files.items():
            (tmp_path / f"{name}.json").write_text(canonical_dumps(obj))
        code, out, err = run(capsys, "body",
                             "--model", tmp_path / "model.json",
                             "--divisor", tmp_path / "divisor.json",
                             "--flag", tmp_path / "flag.json")
        assert code == 2 and out == ""
        assert err == ("error: abundance declaration only covers "
                       "canonical-type classes\n")

    @pytest.mark.parametrize("verb", ["body", "limbody"])
    def test_surface_non_psef_class_names_the_cause(self, capsys, tmp_path,
                                                    verb):
        # -H is not pseudoeffective; that, not the missing abundance
        # declaration, is why neither body exists
        divisor = tmp_path / "divisor.json"
        divisor.write_text(canonical_dumps({"coeffs": ["-1", "0"]}))
        code, out, err = run(capsys, verb, "--model",
                             FIXTURES / "models/blown_up_plane_surface.json",
                             "--divisor", divisor,
                             "--flag", FIXTURES / "models/curve_flag.json")
        assert code == 2 and out == ""
        assert err == "error: divisor is not pseudoeffective\n"


class TestEpsLimitVerbs:
    """Classes whose first chamber under the default ample class is far
    shorter than the eps the sampled fits started from."""

    @staticmethod
    def _write(tmp_path, **objs):
        for name, obj in objs.items():
            (tmp_path / f"{name}.json").write_text(canonical_dumps(obj))

    def test_dims_of_small_rigid_toric_class(self, capsys, tmp_path):
        self._write(tmp_path, model=toric.blown_up_plane().to_obj(),
                    divisor={"coeffs": ["0", "0", "0", "1/100"]})
        code, out, _ = run(capsys, "dims", "--model", tmp_path / "model.json",
                           "--divisor", tmp_path / "divisor.json")
        assert code == 0
        assert json.loads(out) == {"kappa": 0, "nu_bdpp": 0, "kappa_vol": 0,
                                   "kappa_sigma": "undeclared"}

    def test_dims_of_tiny_surface_class(self, capsys, tmp_path):
        model = load_json(FIXTURES / "models/blown_up_plane_surface.json")
        self._write(tmp_path, model=model,
                    divisor={"coeffs": ["0", "1/" + str(10**100)]})
        code, out, err = run(capsys, "dims", "--model", tmp_path / "model.json",
                             "--divisor", tmp_path / "divisor.json")
        assert code == 0, err
        assert json.loads(out)["nu_bdpp"] == 0

    def test_limbody_of_tiny_surface_class(self, capsys, tmp_path):
        model = load_json(FIXTURES / "models/blown_up_plane_surface.json")
        self._write(tmp_path, model=model,
                    divisor={"coeffs": ["0", "1/1000000"]},
                    flag={"curve": 0})
        code, out, err = run(capsys, "limbody",
                             "--model", tmp_path / "model.json",
                             "--divisor", tmp_path / "divisor.json",
                             "--flag", tmp_path / "flag.json")
        assert code == 0, err
        rep = json.loads(out)
        assert rep["body"]["vertices"] == [["1/1000000", "0"]]
        assert rep["dim"] == 0


class TestFlagInput:
    """`body` and `limbody` need a flag on toric and surface models, and a
    surface flag names one of the effective generators."""

    MODELS = {"toric": ("models/plane.json", "models/d2.json"),
              "surface": ("models/blown_up_plane_surface.json",
                          "models/d_2h_plus_e.json")}

    @pytest.mark.parametrize("verb", ["body", "limbody"])
    @pytest.mark.parametrize("kind", ["toric", "surface"])
    def test_missing_flag_is_input_error(self, capsys, verb, kind):
        model, divisor = self.MODELS[kind]
        code, out, err = run(capsys, verb, "--model", FIXTURES / model,
                             "--divisor", FIXTURES / divisor)
        assert code == 2
        assert err.startswith("input error: ") and "--flag" in err
        assert out == ""

    @pytest.mark.parametrize("verb", ["body", "limbody"])
    def test_curve_needs_no_flag(self, capsys, tmp_path, verb):
        (tmp_path / "model.json").write_text(
            canonical_dumps({"kind": "curve", "genus": 1}))
        (tmp_path / "divisor.json").write_text(canonical_dumps({"coeffs": ["3"]}))
        code, out, err = run(capsys, verb, "--model", tmp_path / "model.json",
                             "--divisor", tmp_path / "divisor.json")
        assert code == 0, err
        assert json.loads(out)["body"]["vertices"] == [["0"], ["3"]]

    @pytest.mark.parametrize("index", [99, 2, -1])
    def test_surface_flag_out_of_range(self, capsys, tmp_path, index):
        model, divisor = self.MODELS["surface"]
        flag = tmp_path / "flag.json"
        flag.write_text(canonical_dumps({"curve": index}))
        code, out, err = run(capsys, "body", "--model", FIXTURES / model,
                             "--divisor", FIXTURES / divisor, "--flag", flag)
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and "out of range" in err
        code, _, err = run(capsys, "validate", "--model", FIXTURES / model,
                           "--flag", flag)
        assert code == 2 and "out of range" in err

    def test_surface_flag_in_range(self, capsys):
        model, divisor = self.MODELS["surface"]
        code, _, err = run(capsys, "body", "--model", FIXTURES / model,
                           "--divisor", FIXTURES / divisor,
                           "--flag", FIXTURES / "models/curve_flag.json")
        assert code == 0, err

    @pytest.mark.parametrize("index", [2, -1])
    def test_surface_total_flag_out_of_range(self, capsys, tmp_path,
                                             index):
        obj = load_json(FIXTURES / "instances/ex41.json")
        obj["total_flag"] = index
        bad = tmp_path / "instance.json"
        bad.write_text(canonical_dumps(obj))
        code, out, err = run(capsys, "validate", "--instance", bad)
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and "total_flag: " in err
        assert "differs from the fiber-type flag derived" in err


class TestCheckVerb:
    def test_exit_codes(self, capsys):
        cases = [
            ("thm1_3", "prod_line_line", 0),
            ("cor3_5", "prod_line_line", 0),
            ("thm1_1", "g2xg2", 0),
            ("thm1_1", "ex41", 0),
            ("thm1_2", "ex42", 2),       # base canonical class is not big
            ("cor3_5", "ex42_toric_surrogate", 2),
            ("lemma3_1", "prod_plane_line", 0),
            ("rem3_6", "ex41", 0),
        ]
        for check, inst, expected in cases:
            code, out, err = run(capsys, "check", check, "--instance",
                                 FIXTURES / f"instances/{inst}.json")
            assert code == expected, (check, inst, err)

    def test_thm1_2_fails_when_kappa_does_not_add(self, capsys, tmp_path):
        # g2 x g2 with kappa(K_X) declared 1: the bodies still agree, but
        # kappa(K_X) = 1 is not kappa(K_Y) + kappa(K_F) = 1 + 1
        obj = load_json(FIXTURES / "instances/g2xg2.json")
        obj["total"]["declared_kappa"] = {"2,2": 1}
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(obj))
        code, out, err = run(capsys, "check", "thm1_2", "--instance", path)
        rep = json.loads(out)
        assert code == 1 and err == "thm1_2 on g2xg2: fails (margin 0)\n"
        assert rep["verdict"] == "fails" and rep["margin"] == "0"
        assert rep["notes"] == [
            "kappa addition: 1 == 1 + 1: VIOLATED",
            "easy addition bound kappa(K_X) <= dim Y + kappa(K_F): ok"]

    def test_rem3_6_gates_on_weak_positivity(self, capsys, tmp_path):
        # kappa_vol(D) = 0 < kappa_vol(D_Y) + kappa_vol(R|_F) = 1 + 0: with
        # no weak positivity nothing is asserted, so no "fails"
        obj = load_json(FIXTURES / "instances/prod_line_line.json")
        obj["decomposition"] = {"D": ["0"] * 4, "D_Y": ["2", "0"],
                                "R": ["-2", "0", "0", "0"]}
        obj["hypotheses"]["weakly_positive"] = False
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(obj))
        code, out, _ = run(capsys, "check", "rem3_6", "--instance", path)
        rep = json.loads(out)
        assert code == 2 and rep["verdict"] == "hypotheses-not-met"
        assert rep["notes"] == [
            "hypothesis failed: f_* O(mR) weakly positive (declared)"]

    def test_report_fields(self, capsys):
        code, out, _ = run(capsys, "check", "thm1_3", "--instance",
                           FIXTURES / "instances/prod_line_line.json")
        rep = json.loads(out)
        assert rep["verdict"] == "strict" and rep["margin"] == "0"
        assert rep["lhs"]["vertices"] and rep["rhs"]["vertices"]
        assert rep["digest"]

    def test_check_all(self, capsys):
        code, out, err = run(capsys, "check", "--all", FIXTURES / "instances")
        assert code == 0  # no verdict is "fails" on the shipped corpus
        reports = json.loads(out)
        assert len(reports) == 6 * len(INSTANCE_NAMES)
        assert all(r["verdict"] in ("holds", "strict", "hypotheses-not-met")
                   for r in reports)

    def test_unexpected_exception_is_internal_error(self, capsys,
                                                    monkeypatch):
        # an unexpected exception must not exit 1, the code of a "fails"
        # verdict, nor end in a traceback
        def broken(fs):
            raise RuntimeError("boom")

        monkeypatch.setitem(fsmod.ALL_CHECKS, "thm1_3", broken)
        code, out, err = run(capsys, "check", "thm1_3", "--instance",
                             FIXTURES / "instances/prod_line_line.json")
        assert code == EXIT_INTERNAL == 3
        assert err == "internal error: RuntimeError: boom\n"
        assert out == ""

    def test_key_error_is_internal_error(self, capsys, monkeypatch):
        # `ioformats._fields` checks every input key, so a KeyError past
        # it is a bug in the program, not bad input
        def broken(fs):
            raise KeyError("digest")

        monkeypatch.setitem(fsmod.ALL_CHECKS, "thm1_3", broken)
        code, out, err = run(capsys, "check", "thm1_3", "--instance",
                             FIXTURES / "instances/prod_line_line.json")
        assert code == EXIT_INTERNAL
        assert err == "internal error: KeyError: 'digest'\n"
        assert out == ""

    @pytest.mark.parametrize("check", ["thm1_3", "cor3_5", "thm1_2"])
    def test_unavailable_valuative_body_gates(self, capsys, tmp_path, check):
        # with no declared Iitaka degree on the flag curve, the surface
        # total's valuative body of K_X cannot be read off numerical data
        obj = load_json(FIXTURES / "instances/g2xell.json")
        del obj["total"]["abundance"]
        path = tmp_path / "g2xell.json"
        path.write_text(canonical_dumps(obj))
        code, out, err = run(capsys, "check", check, "--instance", path)
        assert code == 2, err
        rep = json.loads(out)
        assert rep["verdict"] == "hypotheses-not-met"
        assert rep["notes"] == [
            "hypothesis failed: valuative body unavailable: valuative body "
            "undeterminable from numerical data"]

    def test_unknown_check(self, capsys):
        code, _, err = run(capsys, "check", "thm9_9", "--instance",
                           FIXTURES / "instances/g2xg2.json")
        assert code == 2 and "unknown check" in err

    @pytest.mark.parametrize("extra", ["name", "instance"])
    def test_all_takes_no_check_name_or_instance(self, capsys, extra):
        argv = (["thm1_3"] if extra == "name"
                else ["--instance", FIXTURES / "instances/g2xg2.json"])
        code, out, err = run(capsys, "check", *argv, "--all",
                             FIXTURES / "instances")
        assert code == 2 and out == ""
        assert err.startswith("input error: --all: ")

    def test_check_name_or_all_is_required(self, capsys):
        code, out, err = run(capsys, "check", "--instance",
                             FIXTURES / "instances/g2xg2.json")
        assert code == 2 and out == ""
        assert err == "input error: check: a check name or --all is required\n"

    def test_thm1_1_gates_non_psef_canonical_classes(self, capsys, tmp_path):
        # K_X on P1 x P1 -> P1: neither K_Y nor K_F is psef, so nu and the
        # flag stratum it picks are undefined; the check must gate on psef
        obj = load_json(FIXTURES / "instances/prod_line_line.json")
        obj["decomposition"] = {"D": ["-1"] * 4, "D_Y": ["-1"] * 2,
                                "R": ["0", "0", "-1", "-1"]}
        path = tmp_path / "canonical.json"
        path.write_text(canonical_dumps(obj))
        code, out, err = run(capsys, "check", "thm1_1", "--instance", path)
        assert code == 2, err
        rep = json.loads(out)
        assert rep["verdict"] == "hypotheses-not-met"
        assert rep["notes"] == ["hypothesis failed: K_Y pseudoeffective",
                                "hypothesis failed: K_F pseudoeffective"]


class TestScalingSearchVerb:
    def test_ex42(self, capsys):
        code, out, _ = run(capsys, "scaling-search", "--instance",
                           FIXTURES / "instances/ex42.json",
                           "--grid-step", "1/2", "--bound", "2")
        assert code == 0
        rep = json.loads(out)
        assert rep["minimal_alpha_for_unit"] == "2"
        assert ["2", "1", "1"] in rep["feasible"]
        assert ["1", "1", "1"] not in rep["feasible"]

    @staticmethod
    def _rejected(capsys, monkeypatch, *argv):
        """Run scaling-search on ex42; it must exit 2 with no output and
        without computing a body.  Returns stderr."""
        def no_body(self, cls):
            raise AssertionError("body computed for a bad grid")

        monkeypatch.setattr(fsmod.FiberSpaceInstance, "total_val_body",
                            no_body)
        code, out, err = run(capsys, "scaling-search", "--instance",
                             FIXTURES / "instances/ex42.json", *argv)
        assert code == 2 and out == ""
        return err

    @pytest.mark.parametrize("step", ["0", "-1/4"])
    def test_nonpositive_step_is_input_error(self, capsys,
                                             monkeypatch, step):
        err = self._rejected(capsys, monkeypatch, f"--grid-step={step}")
        assert "grid step must be positive" in err

    @pytest.mark.parametrize("argv,steps", [
        (["--bound", "0"], 0), (["--bound", "-1"], -4),
        (["--bound", "1/8"], 0), (["--grid-step", "1/32"], 128),
        (["--grid-step", "1/1000"], 4000)])
    def test_grid_out_of_range_is_input_error(self, capsys, monkeypatch,
                                              argv, steps):
        # an empty grid would read as a search result, and nothing else
        # bounds the (bound/step)^3 triples
        err = self._rejected(capsys, monkeypatch, *argv)
        assert f"gives {steps} steps per axis; the grid takes 1 to 64" in err

    @pytest.mark.parametrize("argv,count", [
        (["--grid-step", "1/16"], 65536), (["--bound", "1/4"], 0)])
    def test_grid_in_range(self, capsys, argv, count):
        # the largest grid, 64 steps per axis, and the one-step grid
        # {(1/4, 1/4, 1/4)}
        code, out, _ = run(capsys, "scaling-search", "--instance",
                           FIXTURES / "instances/ex42.json", *argv)
        assert code == 0 and len(json.loads(out)["feasible"]) == count

    @pytest.mark.parametrize("option", ["--grid-step", "--bound"])
    @pytest.mark.parametrize("value", ["1/0", "abc", "1/2/3", "1e3", "0.5"])
    def test_malformed_rational_is_usage_error(self, capsys, option,
                                               value):
        with pytest.raises(SystemExit) as exc:
            run(capsys, "scaling-search", "--instance",
                FIXTURES / "instances/ex42.json", option, value)
        assert exc.value.code == 2
        out = capsys.readouterr()
        assert out.out == ""
        assert (f"argument {option}: invalid rational value: '{value}'"
                in out.err)


class TestOutOption:
    """Every verb writes to --out exactly what it prints without it."""

    VERBS = {
        "body": ["body", "--model", "models/plane.json", "--divisor",
                 "models/d2.json", "--flag", "models/std_flag.json"],
        "limbody": ["limbody", "--model", "models/plane.json", "--divisor",
                    "models/d2.json", "--flag", "models/std_flag.json"],
        "zariski": ["zariski", "--model", "models/blown_up_plane_surface.json",
                    "--divisor", "models/d_2h_plus_e.json"],
        "vol": ["vol", "--model", "models/plane.json",
                "--divisor", "models/d2.json"],
        "dims": ["dims", "--model", "models/plane.json",
                 "--divisor", "models/d2.json"],
        "check": ["check", "thm1_3", "--instance",
                  "instances/prod_line_line.json"],
        "check-all": ["check", "--all", "instances"],
        "scaling-search": ["scaling-search", "--instance",
                           "instances/ex42.json", "--grid-step", "1/2",
                           "--bound", "2"],
        "oracle-compare": ["oracle-compare", "--model", "models/plane.json",
                           "--divisor", "models/d2.json",
                           "--flag", "models/std_flag.json", "--m", "3"],
        "emit-plot": ["emit-plot", "--body", "body.json", "--format", "svg"],
        "validate": ["validate", "--model", "models/plane.json"],
    }

    @pytest.mark.parametrize("verb", sorted(VERBS))
    def test_out_holds_stdout(self, capsys, tmp_path, verb):
        (tmp_path / "body.json").write_text(canonical_dumps(
            {"ambient_dim": 2, "vertices": [["0", "0"], ["1", "0"]]}))
        argv = [(tmp_path if a == "body.json" else FIXTURES) / a
                if a.endswith(".json") or a == "instances" else a
                for a in self.VERBS[verb]]
        code, out, err = run(capsys, *argv)
        target = tmp_path / "report"
        code_out, out_out, err_out = run(capsys, *argv, "--out", target)
        assert (code_out, out_out) == (code, "") and out
        assert target.read_text() == out
        if verb != "emit-plot":  # its summary names the file it wrote
            assert err_out == err

    def test_unwritable_out_is_input_error(self, capsys, tmp_path):
        code, out, err = run(capsys, "vol",
                             "--model", FIXTURES / "models/plane.json",
                             "--divisor", FIXTURES / "models/d2.json",
                             "--out", tmp_path / "missing" / "report.json")
        assert code == 2 and out == ""
        assert err.startswith("error: ") and "Traceback" not in err


class TestInstanceShape:
    """Instances whose models cannot form a fibration are input errors."""

    def _write(self, tmp_path, obj):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(obj))
        return path

    @pytest.mark.parametrize("part", ["base", "fiber"])
    def test_toric_total_over_curve(self, capsys, tmp_path, part):
        obj = load_json(FIXTURES / "instances/prod_line_line.json")
        obj[part] = {"kind": "curve", "genus": 0}
        obj["flags"][part] = None  # a curve's flag is null
        path = self._write(tmp_path, obj)
        code, _, err = run(capsys, "validate", "--instance", path)
        assert code == 2
        assert "toric total space needs a toric base and a toric fiber" in err

    def test_surface_total_over_toric_line(self, capsys, tmp_path):
        # the pullback column and the restriction row name classes of a
        # curve, whose class group has rank 1
        obj = load_json(FIXTURES / "instances/ex41.json")
        obj["base"] = toric.projective_line().to_obj()
        obj["flags"]["base"] = {"cone": 0, "ray_order": [0]}
        path = self._write(tmp_path, obj)
        code, _, err = run(capsys, "validate", "--instance", path)
        assert code == 2
        assert "surface total space needs a curve base and a curve fiber" in err

    @pytest.mark.parametrize("argv", [("validate",), ("check", "thm1_1"),
                                      ("check", "thm1_2")])
    def test_dimensions_must_add(self, capsys, tmp_path, argv):
        obj = {"name": "curve_over_curves",
               "base": {"kind": "curve", "genus": 1},
               "fiber": {"kind": "curve", "genus": 1},
               "total": {"kind": "curve", "genus": 2},
               "pullback": [["1"]], "restriction": [["0"]],
               "decomposition": {"D": ["0"], "D_Y": ["0"], "R": ["0"]},
               "hypotheses": {"weakly_positive": True},
               "flags": {"base": None, "fiber": None}, "total_flag": 0}
        path = self._write(tmp_path, obj)
        code, _, err = run(capsys, *argv, "--instance", path)
        assert code == 2
        assert "total dimension 1 is not base + fiber dimension 1 + 1" in err

    # cor3_5 reads hypotheses.weakly_positive, where the string "false"
    # would count as true
    @pytest.mark.parametrize("argv", [("validate",), ("check", "cor3_5")],
                             ids=["validate", "check"])
    @pytest.mark.parametrize("name,where,value,message", [
        pytest.param(name, where, value, message, id=case)
        for case, name, where, value, message in [
            ("ex41-name", "ex41", "name", ["ex41"],
             "name: expected a string"),
            ("ex41-flags", "ex41", "flags", [], "flags: expected an object"),
            ("ex41-ample", "ex41", "ample", [], "ample: expected an object"),
            ("ex41-hypotheses", "ex41", "hypotheses", [],
             "hypotheses: expected an object"),
            ("prod_line_line-hypotheses.weakly_positive", "prod_line_line",
             "hypotheses.weakly_positive", "false",
             "hypotheses.weakly_positive: expected true or false"),
            ("prod_line_line-hypotheses.isotrivial", "prod_line_line",
             "hypotheses.isotrivial", "false",
             "hypotheses.isotrivial: expected true or false"),
            ("g2xg2-ample.A", "g2xg2", "ample.A", ["1", "-1"],
             "ample.A is not ample on the total space"),
            ("ex41-ample.A", "ex41", "ample.A", ["1", "1", "1"],
             "ample.A has 3 coefficients, not 2"),
            ("prod_line_line-ample.A_Y", "prod_line_line", "ample.A_Y",
             ["0", "1", "0"], "ample.A_Y has 3 coefficients, not 2"),
            ("ex41-ample.A_Y", "ex41", "ample.A_Y", [],
             "ample.A_Y has 0 coefficients, not 1"),
            # no check reads a misspelt key: thm1_3 would gate on a missing pad
            ("prod_line_line-ample.A_y", "prod_line_line", "ample.A_y",
             ["1", "0"],
             "ample.A_y: unknown key; the allowed keys are A and A_Y"),
            ("ex41-total.abundance", "ex41", "total.abundance", [],
             "abundance: expected an object"),
            ("ex41-total.declared_kappa", "ex41", "total.declared_kappa", [],
             "declared_kappa: expected an object"),
            ("ex41-decomposition.D", "ex41", "decomposition.D",
             ["1", "0", "0"], "D has 3 coefficients, not 2"),
            ("ex41-decomposition.D_Y", "ex41", "decomposition.D_Y",
             ["0", "0"], "D_Y has 2 coefficients, not 1"),
            ("ex41-decomposition.R", "ex41", "decomposition.R", ["1"],
             "R has 1 coefficients, not 2"),
            ("ex41-pullback", "ex41", "pullback", [["0", "0"], ["1", "0"]],
             "pullback must be a 2 x 1 matrix"),
            ("ex41-restriction", "ex41", "restriction",
             [["2", "0"], ["0", "0"]], "restriction must be a 1 x 2 matrix"),
            ("prod_line_line-flags.base", "prod_line_line", "flags.base",
             None, "flags.base: expected an object"),
            # a curve's flag is implicit: any object would be read by
            # nothing and written back as null
            ("ex41-flags.base", "ex41", "flags.base", {},
             "flags.base: expected null: a curve's flag (curve, general "
             "point) is implicit"),
            ("prod_line_line-total_flag", "prod_line_line", "total_flag",
             None,
             "total_flag: null differs from the fiber-type flag derived"),
            # a declared copy that disagrees with the models would turn
            # thm1_3, cor3_5 and lemma3_1 into a false "fails"
            ("prod_plane_line-total_flag.ray_order", "prod_plane_line",
             "total_flag.ray_order", [3, 1, 0],
             "total_flag: {\"cone\": 0, \"ray_order\": [3, 1, 0]} differs "
             "from the fiber-type flag derived from the models, "
             "{\"cone\": 0, \"ray_order\": [0, 1, 3]}"),
            ("prod_plane_line-restriction", "prod_plane_line", "restriction",
             [[0, 0, 0, 1, 1], [0, 0, 0, 0, 1]],
             "restriction [[\"0\", \"0\", \"0\", \"1\", \"1\"], "
             "[\"0\", \"0\", \"0\", \"0\", \"1\"]] differs from the map "
             "derived from the models"),
            ("ex42-restriction", "ex42", "restriction", [["3", "0"]],
             "restriction [[\"3\", \"0\"]] differs from the map derived "
             "from the models, [[\"2\", \"0\"]]"),
            # a misspelt or extra key is read by nothing: each would turn a
            # computed verdict into a gate with the wrong reason
            ("prod_line_line-base.raays", "prod_line_line", "base.raays",
             [[1], [-1]], "base.raays: unknown key; the allowed keys are "
             "kind, dim, rays and max_cones"),
            ("prod_line_line-decomposition.R_F", "prod_line_line",
             "decomposition.R_F", ["0"],
             "decomposition.R_F: unknown key; the allowed keys are D, D_Y "
             "and R"),
            ("prod_line_line-hypotheses-misspelt", "prod_line_line",
             "hypotheses", {"isotrivial": True, "weakly_postive": True},
             "hypotheses.weakly_postive: unknown key"),
            ("g2xell-total.declared_kappa_sigma", "g2xell",
             "total.declared_kappa_sigma", {"2,0": 1},
             "total.declared_kappa_sigma: unknown key"),
            # declared kappa keys are classes written as class_key writes
            # them, and kappa on a surface is 0, 1 or 2
            ("g2xell-total.declared_kappa-spaced", "g2xell",
             "total.declared_kappa", {"2, 0": 1},
             "total.declared_kappa[2, 0]: malformed key"),
            ("g2xell-total.declared_kappa-unreduced", "g2xell",
             "total.declared_kappa", {"4/2,0": 1},
             "total.declared_kappa[4/2,0]: write this key as '2,0'"),
            ("ex42-total.declared_kappa.1,0", "ex42",
             "total.declared_kappa.1,0", 5,
             "total: declared_kappa[1,0] = 5: needs a length-2 class, "
             "kappa 0, 1 or 2"),
            # an Iitaka degree is >= 1, on an effective generator's index
            ("g2xell-total.abundance.iitaka_degree_on-zero", "g2xell",
             "total.abundance.iitaka_degree_on", {"0": 0},
             "total: abundance.iitaka_degree_on[0] = 0: needs an index "
             "below 2 and a degree >= 1"),
            ("g2xell-total.abundance.iitaka_degree_on-index", "g2xell",
             "total.abundance.iitaka_degree_on", {"7": 1},
             "total: abundance.iitaka_degree_on[7] = 1: needs an index "
             "below 2"),
            ("g2xell-total.abundance.iitaka_degree_on-key", "g2xell",
             "total.abundance.iitaka_degree_on", {"x": 1},
             "total.abundance.iitaka_degree_on[x]: malformed key"),
            # a rational is written as str(Fraction) writes it: Fraction
            # alone would read "1e999999999" by computing 10**999999999
            *[(f"ex41-decomposition.D-{case}", "ex41", "decomposition.D",
               [value, "0"], f"decomposition.D[0]: rationals must be "
               f"integers or 'p/q' strings, got {value!r}")
              for case, value in [
                  ("decimal", "0.5"), ("exponent", "1e3"),
                  ("leading-space", " 1/2"), ("underscore", "1_0"),
                  ("trailing-space", "1/2 "), ("fullwidth-digit", "\uff11"),
                  ("float", 0.5)]],
            ("ex41-decomposition.D-zero-denominator", "ex41",
             "decomposition.D", ["1/0", "0"],
             "decomposition.D[0]: not a rational: '1/0'"),
            ("g2xell-total.declared_kappa-exponent", "g2xell",
             "total.declared_kappa", {"2e0,0": 1},
             "total.declared_kappa[2e0,0]: malformed key")]])
    def test_malformed_field_is_input_error(self, capsys, tmp_path, argv,
                                            name, where, value, message):
        path = FIXTURES / "instances" / f"{name}.json"
        obj = json.loads(path.read_text())
        *parents, key = where.split(".")
        target = obj
        for part in parents:
            target = target[part]
        target[key] = value
        path = self._write(tmp_path, obj)
        code, out, err = run(capsys, *argv, "--instance", path)
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and message in err

    # a missing key is named as such, not by what fails without it (a
    # toric model without rays would fail on its cones' ray indices)
    @pytest.mark.parametrize("where", ["total.rays", "flags.base",
                                       "total_flag", "decomposition.R"])
    def test_missing_required_key_is_input_error(self, capsys, tmp_path,
                                                 where):
        obj = load_json(FIXTURES / "instances/prod_line_line.json")
        *parents, key = where.split(".")
        del _at(obj, parents)[key]
        code, out, err = run(capsys, "validate", "--instance",
                             self._write(tmp_path, obj))
        assert code == 2 and out == ""
        assert err.startswith("input error: ")
        assert f".{where}: missing required key; the allowed keys are" in err


def _at(obj, path):
    for key in path:
        obj = obj[key]
    return obj


def _json_paths(value, path=()):
    """The path, as a tuple of keys and indices, of every value in value."""
    yield path
    items = (value.items() if isinstance(value, dict)
             else enumerate(value) if isinstance(value, list) else ())
    for key, item in items:
        yield from _json_paths(item, path + (key,))


SHIPPED = {name: (FIXTURES / f"instances/{name}.json").read_text()
           for name in INSTANCE_NAMES}
FUZZ_VALUES = [None, True, -1, 1.5, "x", "1/0", [], {}, 10**40]


@settings(max_examples=400, deadline=None)
@given(data=st.data())
def test_validate_reads_every_one_edit_as_a_verdict(tmp_path_factory, data):
    """Validate a shipped instance after one edit: a value set from a fixed
    pool, a key deleted, or an unknown key added.  The reader answers 0 or
    2 with one stderr line, never an internal error; an unknown key is
    always an input error."""
    obj = json.loads(SHIPPED[data.draw(st.sampled_from(INSTANCE_NAMES))])
    paths = list(_json_paths(obj))[1:]
    edit = data.draw(st.sampled_from(["set", "delete", "add"]))
    if edit == "add":
        paths = [p for p in paths if isinstance(_at(obj, p), dict)]
    elif edit == "delete":
        paths = [p for p in paths if isinstance(p[-1], str)]
    # a field first, then one of its places: a long list of rays or
    # coefficients does not crowd out the one-key objects
    fields = {}
    for p in paths:
        fields.setdefault(tuple(k for k in p if isinstance(k, str)),
                          []).append(p)
    field = data.draw(st.sampled_from(sorted(fields)))
    *parents, key = data.draw(st.sampled_from(fields[field]))
    target = _at(obj, parents)
    if edit == "set":
        target[key] = data.draw(st.sampled_from(FUZZ_VALUES))
    elif edit == "delete":
        del target[key]
    else:
        target[key]["unknown_key"] = 0
    path = tmp_path_factory.getbasetemp() / "fuzzed.json"
    path.write_text(json.dumps(obj))
    out, err = io.StringIO(), io.StringIO()
    with redirect_stdout(out), redirect_stderr(err):
        code = main(["validate", "--instance", str(path)])
    err = err.getvalue()
    assert code in (0, 2) and err.count("\n") == 1 and err.endswith("\n")
    assert "internal error" not in err
    if edit == "add":
        assert code == 2 and err.startswith("input error: ")


class TestDerivedFields:
    """pullback, restriction and total_flag are determined by the models:
    a declared copy with any one entry off by one is an input error."""

    FIELDS = ("pullback", "restriction", "total_flag")

    @staticmethod
    def _perturbed(obj):
        """Every copy of obj with one number of FIELDS moved by +1 or -1,
        in a fixed order, with the path of the changed entry."""
        def walk(value, path):
            if isinstance(value, dict):
                for key in sorted(value):
                    for new, where in walk(value[key], f"{path}.{key}"):
                        yield {**value, key: new}, where
            elif isinstance(value, list):
                for i, item in enumerate(value):
                    for new, where in walk(item, f"{path}[{i}]"):
                        yield value[:i] + [new] + value[i + 1:], where
            else:
                for step in (1, -1):
                    yield (value + step if isinstance(value, int)
                           else str(Fraction(value) + step)), path

        for field in TestDerivedFields.FIELDS:
            for new, where in walk(obj[field], field):
                yield {**obj, field: new}, where

    @pytest.mark.parametrize("name", INSTANCE_NAMES)
    def test_one_entry_off_is_input_error(self, capsys, tmp_path, name):
        obj = load_json(FIXTURES / f"instances/{name}.json")
        path = tmp_path / "instance.json"
        wrong = []
        for count, (bad, where) in enumerate(self._perturbed(obj), 1):
            path.write_text(json.dumps(bad))
            code, out, err = run(capsys, "validate", "--instance", path)
            if code != 2 or out or not err.startswith("input error: "):
                wrong.append((where, code, err))
        assert not wrong
        # two per number in the three fields: 58 on P2 x P1, 38 on P1 x P1
        # and 10 on a surface over a curve
        expected = {"prod_plane_line": 58, "prod_line_line": 38,
                    "prod_line_line_rf0": 38, "ex42_toric_surrogate": 38}
        assert count == expected.get(name, 10)


class TestPlots:
    def test_csv_and_svg(self, capsys, tmp_path):
        body_file = tmp_path / "body.json"
        code, out, _ = run(capsys, "body",
                           "--model", FIXTURES / "models/plane.json",
                           "--divisor", FIXTURES / "models/d2.json",
                           "--flag", FIXTURES / "models/std_flag.json",
                           "--out", body_file)
        assert code == 0
        code, out, _ = run(capsys, "emit-plot", "--body", body_file,
                           "--format", "csv")
        assert code == 0 and out.splitlines()[0] == "x1,x2"
        assert len(out.strip().splitlines()) == 4  # header + 3 vertices
        svg_file = tmp_path / "body.svg"
        code, _, _ = run(capsys, "emit-plot", "--body", body_file,
                         "--format", "svg", "--out", svg_file)
        assert code == 0 and svg_file.read_text().startswith("<svg")

    def test_point_body_single_row(self, capsys, tmp_path):
        body_file = tmp_path / "pt.json"
        body_file.write_text(json.dumps(
            {"ambient_dim": 2, "vertices": [["1", "0"]]}))
        code, out, _ = run(capsys, "emit-plot", "--body", body_file,
                           "--format", "csv")
        assert code == 0 and out.strip().splitlines()[1:] == ["1,0"]

    @staticmethod
    def _svg(capsys, tmp_path, ambient_dim, vertices):
        body_file = tmp_path / "body.json"
        body_file.write_text(json.dumps(
            {"ambient_dim": ambient_dim,
             "vertices": [[str(c) for c in v] for v in vertices]}))
        return run(capsys, "emit-plot", "--body", body_file, "--format", "svg")

    @pytest.mark.parametrize("ambient_dim,vertices,message", [
        (2, [], "cannot plot an empty body"),
        (4, [(0, 0, 0, 0), (1, 0, 0, 0), (0, 1, 0, 0), (0, 0, 1, 0),
             (0, 0, 0, 1)], "svg output is limited to bodies of dimension <= 3"),
    ], ids=["empty", "4-simplex"])
    def test_svg_rejects_body(self, capsys, tmp_path, ambient_dim, vertices,
                              message):
        code, out, err = self._svg(capsys, tmp_path, ambient_dim, vertices)
        assert code == 2 and out == "" and err == f"error: {message}\n"

    def test_svg_point_is_a_circle(self, capsys, tmp_path):
        code, out, _ = self._svg(capsys, tmp_path, 2, [(1, 0)])
        assert code == 0 and "<circle" in out and "<polygon" not in out

    @pytest.mark.parametrize("ambient_dim,vertices", [
        (1, [(0,), (2,)]),
        # projects to three collinear points; the polygon keeps the ends
        (3, [(0, 0, 0), (1, 1, 0), (2, 2, 1)]),
    ], ids=["segment-in-R1", "collinear-projection"])
    def test_svg_segment_is_a_two_point_polygon(self, capsys, tmp_path,
                                                ambient_dim, vertices):
        code, out, _ = self._svg(capsys, tmp_path, ambient_dim, vertices)
        points = re.search(r'<polygon points="([^"]*)"', out).group(1)
        assert code == 0 and len(points.split()) == 2

    def test_unknown_plot_format(self):
        with pytest.raises(ValueError, match="unknown plot format: 'png'"):
            plotting.emit_plot(Polytope.hull([(0,)]), "png")

    @pytest.mark.parametrize("obj,where", [
        ({"ambient_dim": 2, "vertices": [[0.5, "1"]]}, "vertices[0][0]"),
        ({"ambient_dim": 2, "vertices": [["1/0", "1"]]}, "vertices[0][0]"),
        ([["0", "1"]], "expected an object"),
        ({"ambient_dim": True, "vertices": [["1"]]}, "ambient_dim"),
        ({"ambient_dim": 0, "vertices": []}, "ambient_dim"),
        ({"ambient_dim": 2, "vertices": [["1"]]}, "2 coordinates"),
        ({"ambient_dim": 2}, "vertices"),
        ({"body": [1, 2]}, "body"),
    ])
    def test_malformed_body_is_an_input_error(self, capsys, tmp_path, obj,
                                              where):
        body_file = tmp_path / "bad.json"
        body_file.write_text(json.dumps(obj))
        code, out, err = run(capsys, "emit-plot", "--body", body_file)
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and where in err


class TestValidateVerb:
    def test_ok(self, capsys):
        code, _, err = run(capsys, "validate",
                           "--instance", FIXTURES / "instances/ex41.json")
        assert code == 0

    def test_module_entry_point(self):
        # `python -m okbodies` reaches the same main as the console script
        env = dict(os.environ, PYTHONPATH=str(FIXTURES.parent / "src"))
        done = subprocess.run(
            [sys.executable, "-m", "okbodies", "validate", "--instance",
             str(FIXTURES / "instances/ex41.json")],
            env=env, capture_output=True, text=True, timeout=60)
        assert done.returncode == 0, done.stderr
        assert json.loads(done.stdout) == {"ok": True, "validated": 1}
        assert done.stderr == "validate: 1 file(s) ok\n"

    def test_malformed_json(self, capsys, tmp_path):
        bad = tmp_path / "bad.json"
        bad.write_text("{not json")
        code, _, err = run(capsys, "validate", "--instance", bad)
        assert code == 2 and "malformed JSON" in err

    def test_inconsistent_model(self, capsys, tmp_path):
        bad = tmp_path / "model.json"
        bad.write_text(json.dumps({"kind": "toric", "dim": 2,
                                   "rays": [[1, 0], [0, 1], [-1, -1]],
                                   "max_cones": [[0, 1], [1, 2]]}))
        code, _, err = run(capsys, "validate", "--model", bad)
        assert code == 2 and "complete" in err

    @pytest.mark.parametrize("model,coeffs,message", [
        ({"kind": "toric", "dim": 1, "rays": [[1]], "max_cones": []},
         ["1"], "fan has no maximal cones"),
        ({"kind": "toric", "dim": 2,
          "rays": [[1, 0], [0, 1], [-1, -1], [1, 1]],
          "max_cones": [[0, 1], [1, 2], [2, 0]]},
         ["0", "0", "1", "-1"], "rays[3]: not in any maximal cone"),
    ], ids=["no-cones", "unused-ray"])
    def test_malformed_fan_is_input_error(self, capsys, tmp_path, model,
                                          coeffs, message):
        (tmp_path / "model.json").write_text(json.dumps(model))
        (tmp_path / "divisor.json").write_text(json.dumps({"coeffs": coeffs}))
        code, out, err = run(capsys, "vol", "--model", tmp_path / "model.json",
                             "--divisor", tmp_path / "divisor.json")
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and message in err

    def test_flag_needs_a_model(self, capsys, tmp_path):
        # the flag is read against its model, so it cannot be checked alone
        code, out, err = run(capsys, "validate", "--divisor",
                             FIXTURES / "models/d2.json",
                             "--flag", tmp_path / "missing.json")
        assert code == 2 and out == ""
        assert err.startswith("input error: --flag: ")

    def test_float_rejected(self, capsys, tmp_path):
        bad = tmp_path / "div.json"
        bad.write_text(json.dumps({"coeffs": [0.5, 1, 1]}))
        code, _, err = run(capsys, "validate", "--divisor", bad)
        assert code == 2 and "p/q" in err


class TestVerbInputErrors:
    """A verb's own check on what it was given exits 2 with its message
    and writes no report."""

    CASES = {
        "zariski-on-toric": (
            ("zariski", "--model", "{m}/plane.json",
             "--divisor", "{m}/d2.json"),
            "{m}/plane.json: zariski requires a surface model"),
        "oracle-compare-on-surface": (
            ("oracle-compare", "--model", "{m}/blown_up_plane_surface.json",
             "--divisor", "{m}/d_2h_plus_e.json",
             "--flag", "{m}/curve_flag.json"),
            "{m}/blown_up_plane_surface.json: oracle-compare requires a "
            "toric model"),
        "check-all-on-empty-dir": (("check", "--all", "{tmp}"),
                                   "{tmp}: no instance files found"),
        "check-without-instance": (
            ("check", "thm1_3"),
            "check: --instance is required (or use --all)"),
        "validate-nothing": (
            ("validate",),
            "validate: nothing to validate; pass --model, --divisor, --flag "
            "and/or --instance"),
    }

    @pytest.mark.parametrize("case", CASES)
    def test_exits_2_with_its_message(self, capsys, tmp_path, case):
        argv, message = self.CASES[case]
        where = {"m": FIXTURES / "models", "tmp": tmp_path}
        code, out, err = run(capsys, *(a.format(**where) for a in argv))
        assert code == 2 and out == ""
        assert err == f"input error: {message.format(**where)}\n"


class TestCorpusOnDisk:
    """Each committed fixture file parses and re-serialises byte for byte."""

    def test_instances_parse_and_roundtrip(self):
        for path in sorted((FIXTURES / "instances").glob("*.json")):
            obj = load_json(str(path))
            fs = instance_from_obj(obj, str(path))
            assert canonical_dumps(fs.to_obj()) == path.read_text()

    # each model file with the divisor and the flag read against it
    MODEL_FILES = {"plane": ("d2", "std_flag"),
                   "blown_up_plane_surface": ("d_2h_plus_e", "curve_flag")}

    def test_model_files_are_pinned(self):
        names = {p.stem for p in (FIXTURES / "models").glob("*.json")}
        assert names == {name for key, value in self.MODEL_FILES.items()
                         for name in (key, *value)}

    @pytest.mark.parametrize("name", sorted(MODEL_FILES))
    def test_models_parse_and_roundtrip(self, name):
        def read(stem):
            path = FIXTURES / "models" / f"{stem}.json"
            return load_json(str(path)), path.read_text()

        divisor_name, flag_name = self.MODEL_FILES[name]
        obj, text = read(name)
        model = model_from_obj(obj, name)
        assert canonical_dumps(model.to_obj()) == text
        obj, text = read(divisor_name)
        coeffs = divisor_from_obj(obj)
        assert len(coeffs) == (model.rank if isinstance(model, SurfaceLattice)
                               else len(model.rays))
        assert canonical_dumps({"coeffs": [str(c) for c in coeffs]}) == text
        obj, text = read(flag_name)
        flag = flag_from_obj(obj, model)
        assert canonical_dumps({"curve": flag} if isinstance(flag, int)
                               else flag.to_obj()) == text


# text that json escapes: quotes, backslashes, control characters, non-ASCII,
# astral characters and lone surrogates, beside whatever `characters` draws
JSON_TEXT = st.text(st.characters(exclude_categories=())
                    | st.sampled_from('"\\/\x00\x1f\x7f\u00e9\u2028')
                    | st.integers(0xD800, 0xDFFF).map(chr)
                    | st.integers(0x10000, 0x10FFFF).map(chr))
JSON_LEAVES = (st.none() | st.sampled_from([True, False, 1, 0])
               | st.integers(-(2**130), 2**130) | st.floats() | JSON_TEXT)
# five levels of lists, tuples and dicts of up to three items: a fixed
# nesting draws several times faster than `st.recursive`
JSON_TREES = JSON_LEAVES
for _ in range(5):
    JSON_TREES = (JSON_LEAVES | st.lists(JSON_TREES, max_size=3)
                  | st.lists(JSON_TREES, max_size=3).map(tuple)
                  | st.dictionaries(JSON_TEXT, JSON_TREES, max_size=3))


class TestCanonicalDumps:
    """canonical_dumps writes what json.dumps(sort_keys=True, indent=2)
    writes, and every verb's stdout is in that form."""

    @settings(max_examples=300, deadline=None)
    @given(obj=JSON_TREES)
    @example(obj={"b": [[], {}, ([{"\ud800": (True, 1, False, 0)}],)],
                  "a": {"z": {"y": {"x": [None, -(2**64), "\U0001f600"]}}}})
    def test_matches_json_dumps(self, obj):
        assert canonical_dumps(obj) == (
            json.dumps(obj, sort_keys=True, indent=2) + "\n")

    @pytest.mark.parametrize("obj", [Fraction(1, 2), [Fraction(1, 2)],
                                     {"a": Fraction(1, 2)}, {1: "x"},
                                     {"a": {None: 0}}])
    def test_unwritable_value_or_key_is_type_error(self, obj):
        with pytest.raises(TypeError):
            canonical_dumps(obj)

    M = FIXTURES / "models"

    @pytest.mark.parametrize("argv", [
        ("check", "--all", FIXTURES / "instances"),
        ("scaling-search", "--instance", FIXTURES / "instances/ex42.json"),
        ("body", "--model", M / "plane.json", "--divisor", M / "d2.json",
         "--flag", M / "std_flag.json"),
        ("body", "--model", M / "blown_up_plane_surface.json",
         "--divisor", M / "d_2h_plus_e.json", "--flag", M / "curve_flag.json"),
        ("dims", "--model", M / "plane.json", "--divisor", M / "d2.json"),
        ("zariski", "--model", M / "blown_up_plane_surface.json",
         "--divisor", M / "d_2h_plus_e.json")], ids=lambda a: a[0])
    def test_stdout_is_canonical(self, capsys, argv):
        code, out, _ = run(capsys, *argv)
        assert code == 0
        assert out == json.dumps(json.loads(out), sort_keys=True,
                                 indent=2) + "\n"
