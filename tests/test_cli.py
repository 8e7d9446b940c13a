import json
from pathlib import Path

import pytest

from okbodies import fixtures as FX
from okbodies import fiberspace as fsmod
from okbodies import toric
from okbodies.cli import EXIT_INTERNAL, main
from okbodies.ioformats import canonical_dumps, instance_from_obj, load_json

REPO_FIXTURES = Path(__file__).resolve().parent.parent / "fixtures"


@pytest.fixture(scope="module")
def corpus(tmp_path_factory):
    root = tmp_path_factory.mktemp("corpus")
    FX.write_corpus(root)
    return root


def run(capsys, *argv):
    code = main([str(a) for a in argv])
    out = capsys.readouterr()
    return code, out.out, out.err


class TestComputeVerbs:
    def test_body_plane_degree2(self, corpus, capsys):
        code, out, err = run(capsys, "body",
                             "--model", corpus / "models/plane.json",
                             "--divisor", corpus / "models/d2.json",
                             "--flag", corpus / "models/std_flag.json")
        assert code == 0
        body = json.loads(out)["body"]
        assert body["vertices"] == [["0", "0"], ["0", "2"], ["2", "0"]]

    def test_zariski_and_vol(self, corpus, capsys):
        code, out, _ = run(capsys, "zariski",
                           "--model", corpus / "models/blown_up_plane_surface.json",
                           "--divisor", corpus / "models/d_2h_plus_e.json")
        assert code == 0
        rep = json.loads(out)
        assert rep["positive"] == ["2", "0"] and rep["negative"] == ["0", "1"]
        code, out, _ = run(capsys, "vol",
                           "--model", corpus / "models/blown_up_plane_surface.json",
                           "--divisor", corpus / "models/d_2h_plus_e.json")
        assert code == 0 and json.loads(out)["volume"] == "4"

    def test_dims(self, corpus, capsys):
        code, out, _ = run(capsys, "dims",
                           "--model", corpus / "models/plane.json",
                           "--divisor", corpus / "models/d2.json")
        assert code == 0
        assert json.loads(out)["kappa"] == 2

    def test_limbody(self, corpus, capsys):
        code, out, _ = run(capsys, "limbody",
                           "--model", corpus / "models/blown_up_plane_surface.json",
                           "--divisor", corpus / "models/d_2h_plus_e.json",
                           "--flag", "-")
        # '-' is not a file; expect a clean input error, not a traceback
        assert code == 2

    def test_oracle_compare(self, corpus, capsys):
        code, out, _ = run(capsys, "oracle-compare",
                           "--model", corpus / "models/plane.json",
                           "--divisor", corpus / "models/d2.json",
                           "--flag", corpus / "models/std_flag.json",
                           "--m", "7")
        assert code == 0
        rep = json.loads(out)
        assert rep["contained"] and rep["margin"] == "0"


    def test_body_beyond_volume_dimension_is_unsupported(self, capsys, tmp_path):
        # (P^1)^4: the body is 4-dimensional, beyond exact volume; this must
        # exit 2 with a summary, never 1 (the exit code of a "fails" verdict)
        p1 = toric.projective_line()
        p1xp1 = toric.product_fibration(p1, p1).total
        X = toric.product_fibration(p1xp1, p1xp1).total
        files = {"model": X.to_obj(),
                 "divisor": {"coeffs": ["1"] * len(X.rays)},
                 "flag": {"cone": 0, "ray_order": [0, 2, 4, 6]}}
        for name, obj in files.items():
            (tmp_path / f"{name}.json").write_text(json.dumps(obj))
        code, out, err = run(capsys, "body",
                             "--model", tmp_path / "model.json",
                             "--divisor", tmp_path / "divisor.json",
                             "--flag", tmp_path / "flag.json")
        assert code == 2
        assert err.startswith("unsupported: ") and "dimension 3" in err
        assert out == ""


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

    def test_limbody_of_tiny_surface_class(self, capsys, tmp_path):
        self._write(tmp_path, model=FX.blown_up_plane_lattice().to_obj(),
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
    def test_missing_flag_is_input_error(self, corpus, capsys, verb, kind):
        model, divisor = self.MODELS[kind]
        code, out, err = run(capsys, verb, "--model", corpus / model,
                             "--divisor", corpus / divisor)
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
    def test_surface_flag_out_of_range(self, corpus, capsys, tmp_path, index):
        model, divisor = self.MODELS["surface"]
        flag = tmp_path / "flag.json"
        flag.write_text(canonical_dumps({"curve": index}))
        code, out, err = run(capsys, "body", "--model", corpus / model,
                             "--divisor", corpus / divisor, "--flag", flag)
        assert code == 2 and out == ""
        assert err.startswith("input error: ") and "out of range" in err
        code, _, err = run(capsys, "validate", "--model", corpus / model,
                           "--flag", flag)
        assert code == 2 and "out of range" in err

    def test_surface_flag_in_range(self, corpus, capsys):
        model, divisor = self.MODELS["surface"]
        code, _, err = run(capsys, "body", "--model", corpus / model,
                           "--divisor", corpus / divisor,
                           "--flag", corpus / "models/curve_flag.json")
        assert code == 0, err

    @pytest.mark.parametrize("index", [2, -1])
    def test_surface_total_flag_out_of_range(self, corpus, capsys, tmp_path,
                                             index):
        obj = load_json(corpus / "instances/ex41.json")
        obj["total_flag"] = index
        bad = tmp_path / "instance.json"
        bad.write_text(canonical_dumps(obj))
        code, _, err = run(capsys, "validate", "--instance", bad)
        assert code == 2
        assert "total_flag" in err and "out of range" in err


class TestCheckVerb:
    def test_exit_codes(self, corpus, capsys):
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
                                 corpus / f"instances/{inst}.json")
            assert code == expected, (check, inst, err)

    def test_report_fields(self, corpus, capsys):
        code, out, _ = run(capsys, "check", "thm1_3", "--instance",
                           corpus / "instances/prod_line_line.json")
        rep = json.loads(out)
        assert rep["verdict"] == "strict" and rep["margin"] == "0"
        assert rep["lhs"]["vertices"] and rep["rhs"]["vertices"]
        assert rep["digest"]

    def test_check_all(self, corpus, capsys):
        code, out, err = run(capsys, "check", "--all", corpus / "instances")
        assert code == 0  # no verdict is "fails" on the shipped corpus
        reports = json.loads(out)
        assert len(reports) == 6 * len(FX.ALL_INSTANCES)
        assert all(r["verdict"] in ("holds", "strict", "hypotheses-not-met")
                   for r in reports)

    def test_unexpected_exception_is_internal_error(self, corpus, capsys,
                                                    monkeypatch):
        # an unexpected exception must not exit 1, the code of a "fails"
        # verdict, nor end in a traceback
        def broken(fs):
            raise RuntimeError("boom")

        monkeypatch.setitem(fsmod.ALL_CHECKS, "thm1_3", broken)
        code, out, err = run(capsys, "check", "thm1_3", "--instance",
                             corpus / "instances/prod_line_line.json")
        assert code == EXIT_INTERNAL == 3
        assert err == "internal error: RuntimeError: boom\n"
        assert out == ""

    def test_unknown_check(self, corpus, capsys):
        code, _, err = run(capsys, "check", "thm9_9", "--instance",
                           corpus / "instances/g2xg2.json")
        assert code == 2 and "unknown check" in err


class TestScalingSearchVerb:
    def test_ex42(self, corpus, capsys):
        code, out, _ = run(capsys, "scaling-search", "--instance",
                           corpus / "instances/ex42.json",
                           "--grid-step", "1/2", "--bound", "2")
        assert code == 0
        rep = json.loads(out)
        assert rep["minimal_alpha_for_unit"] == "2"
        assert ["2", "1", "1"] in rep["feasible"]
        assert ["1", "1", "1"] not in rep["feasible"]


    @pytest.mark.parametrize("step", ["0", "-1/4"])
    def test_nonpositive_step_is_input_error(self, corpus, capsys,
                                             monkeypatch, step):
        def no_body(self, cls):
            raise AssertionError("body computed for a bad grid step")

        monkeypatch.setattr(fsmod.FiberSpaceInstance, "total_val_body",
                            no_body)
        code, out, err = run(capsys, "scaling-search", "--instance",
                             corpus / "instances/ex42.json",
                             f"--grid-step={step}")
        assert code == 2 and out == ""
        assert "grid step must be positive" in err


class TestInstanceShape:
    """Instances whose models cannot form a fibration are input errors."""

    def _write(self, tmp_path, obj):
        path = tmp_path / "instance.json"
        path.write_text(json.dumps(obj))
        return path

    @pytest.mark.parametrize("part", ["base", "fiber"])
    def test_toric_total_over_curve(self, capsys, tmp_path, part):
        obj = FX.prod_line_line().to_obj()
        obj[part] = {"kind": "curve", "genus": 0}
        path = self._write(tmp_path, obj)
        code, _, err = run(capsys, "validate", "--instance", path)
        assert code == 2
        assert "toric total space needs a toric base and a toric fiber" in err

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


class TestPlots:
    def test_csv_and_svg(self, corpus, capsys, tmp_path):
        body_file = tmp_path / "body.json"
        code, out, _ = run(capsys, "body",
                           "--model", corpus / "models/plane.json",
                           "--divisor", corpus / "models/d2.json",
                           "--flag", corpus / "models/std_flag.json",
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
    def test_ok(self, corpus, capsys):
        code, _, err = run(capsys, "validate",
                           "--instance", corpus / "instances/ex41.json")
        assert code == 0

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

    def test_float_rejected(self, capsys, tmp_path):
        bad = tmp_path / "div.json"
        bad.write_text(json.dumps({"coeffs": [0.5, 1, 1]}))
        code, _, err = run(capsys, "validate", "--divisor", bad)
        assert code == 2 and "p/q" in err


class TestCorpusOnDisk:
    """The committed fixture corpus must match the builders byte for byte."""

    def test_tree_matches_write_corpus(self, tmp_path):
        FX.write_corpus(tmp_path)

        def tree(root):
            return {p.relative_to(root).as_posix(): p.read_text()
                    for p in sorted(root.rglob("*")) if p.is_file()}

        assert tree(REPO_FIXTURES) == tree(tmp_path)

    def test_instances_match_builders(self):
        for name, builder in FX.ALL_INSTANCES.items():
            path = REPO_FIXTURES / "instances" / f"{name}.json"
            assert path.read_text() == canonical_dumps(builder().to_obj())

    def test_instances_parse_and_roundtrip(self):
        for path in sorted((REPO_FIXTURES / "instances").glob("*.json")):
            obj = load_json(str(path))
            fs = instance_from_obj(obj, str(path))
            assert canonical_dumps(fs.to_obj()) == path.read_text()
