"""Byte-identity of the main verbs' stdout on the shipped corpus.

The digests pin the canonical JSON that `check --all` and `scaling-search`
print for the files under fixtures/instances, and that `dims` and
`limbody` and `oracle-compare` print for the model files under
fixtures/models; any change to a verdict, a vertex or a formatting detail
shows up here.  Edited copies of the instances pin the gated reports that
the shipped corpus never prints.
"""

import fractions
import hashlib
import json
from pathlib import Path

import pytest

from okbodies import lp, surface, toric
from okbodies.cli import main
from okbodies.fiberspace import FiberSpaceInstance
from okbodies.polytope import HalfSpace, Polytope

REPO = Path(__file__).resolve().parent.parent

GOLDEN = {
    "check_all": (
        ["check", "--all", "fixtures/instances"],
        "97daee3eb52ec7c534386d19da2fbf76f9b42d9b2d3eb35ef55e5a2abb6e2146"),
    "scaling_ex42": (
        ["scaling-search", "--instance", "fixtures/instances/ex42.json"],
        "c985d06426f197a7fadeac36c05e81f57d3f747c6b9905c8794edbd9c0b9e13f"),
    "scaling_prod_plane_line": (
        ["scaling-search", "--instance",
         "fixtures/instances/prod_plane_line.json"],
        "1e359a62b28d1b516bfc5fc001d70405e24bcbf5ff3a54ecb4cfcf1292df7484"),
    "scaling_g2xg2": (
        ["scaling-search", "--instance", "fixtures/instances/g2xg2.json"],
        "fb76579fcec9cb8c6c73e670d6cbf9cc223158c0b53e7b873cdad5636e249f76"),
    "dims_surface": (
        ["dims", "--model", "fixtures/models/blown_up_plane_surface.json",
         "--divisor", "fixtures/models/d_2h_plus_e.json"],
        "314d629c381d53aae5991fddab8e0ce82088bb3b04cefc667425b10457208099"),
    "limbody_surface": (
        ["limbody", "--model", "fixtures/models/blown_up_plane_surface.json",
         "--divisor", "fixtures/models/d_2h_plus_e.json",
         "--flag", "fixtures/models/curve_flag.json"],
        "b1347bb4544746cbbb2abab2435fe735bb68bcf826c6064ca0f0583a45f5f7c0"),
    "dims_plane": (
        ["dims", "--model", "fixtures/models/plane.json",
         "--divisor", "fixtures/models/d2.json"],
        "301533c67140538d689cf9c84edb47efeb1ff8aeeb5dc37d9eea379621e53c56"),
    "oracle_plane_m20": (
        ["oracle-compare", "--model", "fixtures/models/plane.json",
         "--divisor", "fixtures/models/d2.json",
         "--flag", "fixtures/models/std_flag.json", "--m", "20"],
        "3efb9a47063eb9bd52e3b0fee189951fa2c73a5d0dbbfd96321d24413d1bb9df"),
}


# `scaling-search` on every shipped instance over four grids, and on ex42
# over the largest grid; each run exits 0.  On the 3/8 grid 1 is not a grid
# value and on the bound-1 grid ex42 has no feasible alpha at beta = gamma
# = 1, so both print a null minimal alpha.  The digests were recorded from
# the triple-by-triple scan that the per-column alpha intervals replaced;
# the default grid on ex42, prod_plane_line and g2xg2 is pinned above.
SCALING_GRIDS = {
    "default": [],
    "step_1/2_bound_2": ["--grid-step", "1/2", "--bound", "2"],
    "step_3/8_bound_3": ["--grid-step", "3/8", "--bound", "3"],
    "bound_1": ["--bound", "1"],
    "step_1/16": ["--grid-step", "1/16"],
}
SCALING_DIGESTS = {
    ("ellxell", "default"):
        "e6d0139c6d087088f9699136af959e67fca9f29466369a9f77603a48271a3a6e",
    ("ellxell", "step_1/2_bound_2"):
        "8164f0106f8a1313612f3834484afc0b91cd5e37e107dc238981da2f57f18a6c",
    ("ellxell", "step_3/8_bound_3"):
        "0e45e9f2a0e6697f6a571eeb56ffe0b358f40cc7ee91caefcd4a8c58b1c373fa",
    ("ellxell", "bound_1"):
        "4246dd29025492c6396a193ffad28a7341a1bcf8d2f4290e55e98817e3042bc6",
    ("ellxg2", "default"):
        "b630e965da9531f124604126d8d8289f9299488dedb7f8b8bea39848a7edae30",
    ("ellxg2", "step_1/2_bound_2"):
        "d062d9641433d6f31fdd96edef57990818ebd2f5a4a489883279714d8a6744d6",
    ("ellxg2", "step_3/8_bound_3"):
        "497ea464d8f0e04d61f0c4010546f8697c71b78833fb3f478b5fa332cb567a0b",
    ("ellxg2", "bound_1"):
        "ee982cf7fb7240a084f73460b5e48f71752b3a012fa371a23e754444598e5000",
    ("ex41", "default"):
        "b630e965da9531f124604126d8d8289f9299488dedb7f8b8bea39848a7edae30",
    ("ex41", "step_1/2_bound_2"):
        "d062d9641433d6f31fdd96edef57990818ebd2f5a4a489883279714d8a6744d6",
    ("ex41", "step_3/8_bound_3"):
        "497ea464d8f0e04d61f0c4010546f8697c71b78833fb3f478b5fa332cb567a0b",
    ("ex41", "bound_1"):
        "ee982cf7fb7240a084f73460b5e48f71752b3a012fa371a23e754444598e5000",
    ("ex42", "step_1/2_bound_2"):
        "28032b9c9d39dd29fe5fa25aa4983a547d8d38048b7cad93c7d47524f8c0a214",
    ("ex42", "step_3/8_bound_3"):
        "f9175b906931e49c9f1b26c9a2342a056d6c66aa6b20302ecaf12476bafeb2e0",
    ("ex42", "bound_1"):
        "9be1251b4a029266646f2b5506098de9b46a006f0f6894c7baf9fe58caf6ac3d",
    ("ex42", "step_1/16"):
        "818ceaddf5c5217df10e98d844bce33e10d9403ef438d3471f82a6c86cca59f1",
    ("ex42_toric_surrogate", "default"):
        "b630e965da9531f124604126d8d8289f9299488dedb7f8b8bea39848a7edae30",
    ("ex42_toric_surrogate", "step_1/2_bound_2"):
        "d062d9641433d6f31fdd96edef57990818ebd2f5a4a489883279714d8a6744d6",
    ("ex42_toric_surrogate", "step_3/8_bound_3"):
        "497ea464d8f0e04d61f0c4010546f8697c71b78833fb3f478b5fa332cb567a0b",
    ("ex42_toric_surrogate", "bound_1"):
        "ee982cf7fb7240a084f73460b5e48f71752b3a012fa371a23e754444598e5000",
    ("g2xell", "default"):
        "554da4f9bc9623e279470e134c2a8dae9f16ba9467b4745d8383fdfc69af9156",
    ("g2xell", "step_1/2_bound_2"):
        "2d868f25855ee150a5ed68bdba8780af4f6d93423392bda89858f1bd092d1cf9",
    ("g2xell", "step_3/8_bound_3"):
        "15ea07beeea7dfcbff024269988088f1b63918aa815a27b3a3e101660296ab92",
    ("g2xell", "bound_1"):
        "a503269a537e51f75c6cb25fe8cdc543266e5b0d00db6fc2f781457a6b7d44b3",
    ("g2xg2", "step_1/2_bound_2"):
        "dd41ca8bc4e9a22beff343d706e78b63948809fcfe8262cd11aeb05057b40d38",
    ("g2xg2", "step_3/8_bound_3"):
        "9438889cc4fb3f8ba5c4c218127b15b8bca48c4256a4547e031174ff2bcea599",
    ("g2xg2", "bound_1"):
        "fae65c2216c1dfe90d4259423ebc5df56c2fd60c44224fbc6dc67b935f1586ac",
    ("prod_line_line", "default"):
        "fb76579fcec9cb8c6c73e670d6cbf9cc223158c0b53e7b873cdad5636e249f76",
    ("prod_line_line", "step_1/2_bound_2"):
        "dd41ca8bc4e9a22beff343d706e78b63948809fcfe8262cd11aeb05057b40d38",
    ("prod_line_line", "step_3/8_bound_3"):
        "9438889cc4fb3f8ba5c4c218127b15b8bca48c4256a4547e031174ff2bcea599",
    ("prod_line_line", "bound_1"):
        "fae65c2216c1dfe90d4259423ebc5df56c2fd60c44224fbc6dc67b935f1586ac",
    ("prod_line_line_rf0", "default"):
        "554da4f9bc9623e279470e134c2a8dae9f16ba9467b4745d8383fdfc69af9156",
    ("prod_line_line_rf0", "step_1/2_bound_2"):
        "2d868f25855ee150a5ed68bdba8780af4f6d93423392bda89858f1bd092d1cf9",
    ("prod_line_line_rf0", "step_3/8_bound_3"):
        "15ea07beeea7dfcbff024269988088f1b63918aa815a27b3a3e101660296ab92",
    ("prod_line_line_rf0", "bound_1"):
        "a503269a537e51f75c6cb25fe8cdc543266e5b0d00db6fc2f781457a6b7d44b3",
    ("prod_plane_line", "step_1/2_bound_2"):
        "f38c5af26b2cae2ec7411079debf2a812e0a98ef1b603639dd6a51ed6f364ec5",
    ("prod_plane_line", "step_3/8_bound_3"):
        "fc9c107a7ad998a9c88a77b323352360ce4c8d2bbe57a2a37abda228e91e4dcb",
    ("prod_plane_line", "bound_1"):
        "42d59c4d700cb0826aecd2d0dbea17a009f42e7f850fa29effef6cf18a000dab",
}
GOLDEN.update({
    f"scaling_{name}_{grid}": (
        ["scaling-search", "--instance", f"fixtures/instances/{name}.json",
         *SCALING_GRIDS[grid]], digest)
    for (name, grid), digest in SCALING_DIGESTS.items()})


@pytest.mark.parametrize("name", sorted(GOLDEN))
def test_stdout_digest(name, capsys, monkeypatch):
    argv, digest = GOLDEN[name]
    monkeypatch.chdir(REPO)
    code = main(argv)
    out = capsys.readouterr().out
    assert code == 0
    assert hashlib.sha256(out.encode()).hexdigest() == digest


def test_check_all_runs_no_cone_simplex(capsys, monkeypatch):
    # surface cone tests read the integer facet rows of each lattice's
    # effective cone, built when the lattice is made by one hull of the
    # origin and the generators
    def no_lp(*args):
        raise AssertionError("simplex cone test called")

    monkeypatch.setattr(lp, "nonneg_combination", no_lp)
    monkeypatch.setattr(lp, "max_cone_shift", no_lp)
    lattices, hulls = [], []
    init, hull = surface.SurfaceLattice.__init__, Polytope.hull

    def recording_init(self, *args, **kwargs):
        init(self, *args, **kwargs)
        lattices.append(self)

    def recording_hull(points):
        points = list(points)
        hulls.append(tuple(map(tuple, points)))
        return hull(points)

    monkeypatch.setattr(surface.SurfaceLattice, "__init__", recording_init)
    monkeypatch.setattr(Polytope, "hull", staticmethod(recording_hull))
    test_stdout_digest("check_all", capsys, monkeypatch)
    cones = {((0,) * L.rank,) + L.effective_generators for L in lattices}
    assert lattices
    assert sum(h in cones for h in hulls) == len(lattices)


def test_check_all_builds_no_halfspace(capsys, monkeypatch):
    # the toric layer passes integer face rows to the polytope layer, so
    # no `HalfSpace` is made and `from_halfspaces` is never entered
    def no_halfspace(*args, **kwargs):
        raise AssertionError("half-space built above the polytope layer")

    monkeypatch.setattr(Polytope, "from_halfspaces", staticmethod(no_halfspace))
    monkeypatch.setattr(HalfSpace, "__init__", no_halfspace)
    test_stdout_digest("check_all", capsys, monkeypatch)


# `Fraction`s one in-process `check --all` builds, with the section
# polytope memo cleared: classes run on integers over one denominator in
# linalg, toric and surface, and `Fraction`s are made at the API edge and
# in report writing (1638 here; 4609 when that arithmetic ran on them)
FRACTIONS_BUILT = 1800


def test_check_all_builds_few_fractions(capsys, monkeypatch):
    built = []
    new = fractions.Fraction.__new__

    def counted(cls, *args, **kwargs):
        built.append(None)
        return new(cls, *args, **kwargs)

    toric._face.cache_clear()
    monkeypatch.setattr(fractions.Fraction, "__new__", counted)
    test_stdout_digest("check_all", capsys, monkeypatch)
    monkeypatch.undo()
    assert 0 < len(built) <= FRACTIONS_BUILT


def test_check_all_serialises_each_instance_once(capsys, monkeypatch):
    # an instance's digest is derived once, when it is built; no loader
    # and no report serialises it again
    built = []
    to_obj = FiberSpaceInstance.to_obj

    def recording_to_obj(self):
        built.append(self.name)
        return to_obj(self)

    monkeypatch.setattr(FiberSpaceInstance, "to_obj", recording_to_obj)
    test_stdout_digest("check_all", capsys, monkeypatch)
    assert built == sorted(
        p.stem for p in (REPO / "fixtures" / "instances").glob("*.json"))


def test_oracle_compare_vertex_diff_digest(tmp_path, capsys):
    # F_2 with D = D_0 + D_1 at m = 1: the level-1 body is a segment that
    # misses the exact body's vertex (0, 1/2), so vertex_diff is nonempty
    files = {"model.json": toric.hirzebruch(2).to_obj(),
             "divisor.json": {"coeffs": ["1", "1", "0", "0"]},
             "flag.json": {"cone": 0, "ray_order": [0, 1]}}
    for name, obj in files.items():
        (tmp_path / name).write_text(json.dumps(obj))
    code = main(["oracle-compare", "--model", str(tmp_path / "model.json"),
                 "--divisor", str(tmp_path / "divisor.json"),
                 "--flag", str(tmp_path / "flag.json"), "--m", "1"])
    out = capsys.readouterr().out
    assert code == 0
    assert json.loads(out)["vertex_diff"]["exact_only"] == [["0", "1/2"]]
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "fcd78e5ab8d1d97e568af2f6675dd94f1b3d0759d3565e2b6b6c97e26b2cda1c")


def corpus_variants():
    """Shipped instances edited so that every check's gate is reached: each
    one without weak positivity, each one without ample classes, and
    prod_line_line with its canonical decomposition and with a zero base
    pad A_Y, which is not ample."""
    corpus = {p.stem: json.loads(p.read_text())
              for p in sorted((REPO / "fixtures" / "instances").glob("*.json"))}
    variants = {}
    for stem, obj in corpus.items():
        variants[f"{stem}_not_wp"] = dict(obj, hypotheses=dict(
            obj["hypotheses"], weakly_positive=False))
        variants[f"{stem}_no_ample"] = {k: v for k, v in obj.items()
                                        if k != "ample"}
    line_line = corpus["prod_line_line"]
    variants["prod_line_line_canonical"] = dict(line_line, decomposition={
        "D": ["-1"] * 4, "D_Y": ["-1"] * 2, "R": ["0", "0", "-1", "-1"]})
    variants["prod_line_line_zero_pad"] = dict(line_line,
                                               ample={"A_Y": ["0", "0"]})
    return {name: dict(obj, name=name) for name, obj in variants.items()}


def test_check_all_digest_on_gated_variants(tmp_path, capsys):
    # the shipped corpus reaches few gates; these variants pin the bytes
    # of the gated reports of all six checks
    for name, obj in corpus_variants().items():
        (tmp_path / f"{name}.json").write_text(json.dumps(obj))
    code = main(["check", "--all", str(tmp_path)])
    out = capsys.readouterr().out
    assert code == 0
    assert len(json.loads(out)) == 22 * 6
    assert (hashlib.sha256(out.encode()).hexdigest()
            == "c1a599312f0a24034fa0d2d14cad22af86c3edbae60f02388186272023d32917")
