import json
import warnings
from pathlib import Path

import numpy as np
import pytest

import mmreach as mm
from mmreach.cli import _scaled_region, main
from mmreach.errors import ConfigError
from mmreach.multiorder import ReachOutcome


def _write(tmp_path, raw, name="run.json"):
    path = tmp_path / name
    path.write_text(json.dumps(raw))
    return str(path)


def _fast_box_config(**overrides):
    raw = {
        "system": "bilinear",
        "initial_set": {"type": "box", "lo": [0.0, -0.25], "hi": [0.75, 0.25]},
        "horizon": 1.0,
        "dt": 0.005,
        "sampling": {"count": 800, "seed": 7},
    }
    raw.update(overrides)
    return raw


def test_check_preset_ok(capsys):
    assert main(["check", "--config", "example1"]) == 0
    out = capsys.readouterr().out
    assert "configuration OK" in out


def test_check_bad_expression(tmp_path, capsys):
    raw = _fast_box_config()
    raw["system"] = {"n": 2, "m": 1, "field": ["x1", "x3"],
                     "w_lo": [0.0], "w_hi": [0.25]}
    assert main(["check", "--config", _write(tmp_path, raw)]) == 1
    assert "field[1]" in capsys.readouterr().err


@pytest.mark.parametrize("location", ["system.field[1]",
                                      "decomposition.sources[0]"])
def test_check_rejects_expressions_too_deep_to_compile(tmp_path, capsys,
                                                       location):
    """These raised a raw SyntaxError when the expression was compiled."""
    raw = _fast_box_config()
    if location.startswith("system"):
        raw["system"] = {"n": 2, "m": 1, "field": ["x1", "-" * 200 + "x1"],
                         "w_lo": [0.0], "w_hi": [0.25]}
    else:
        raw["decomposition"] = {
            "method": "closed_form",
            "sources": ["max(" + ", ".join(["x2"] * 260) + ")", "x1 + 1"]}
    assert main(["check", "--config", _write(tmp_path, raw)]) == 1
    assert (f"error: {location}: expression does not compile: too many nested "
            "parentheses") in capsys.readouterr().err


def test_check_singular_shape(tmp_path, capsys):
    raw = _fast_box_config()
    raw["initial_set"] = {"type": "parallelotope",
                          "shape": [[2.0, 2.0], [1.0, 1.0]],
                          "lo": [0.0, 0.0], "hi": [1.0, 1.0]}
    assert main(["check", "--config", _write(tmp_path, raw)]) == 1
    assert "singular" in capsys.readouterr().err


def test_check_unknown_config(capsys):
    assert main(["check", "--config", "no_such_preset"]) == 1
    assert "preset" in capsys.readouterr().err


def test_reach_box_pipeline(tmp_path):
    cfg = _write(tmp_path, _fast_box_config())
    out = tmp_path / "out"
    assert main(["reach", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    doc = json.loads((out / "result.json").read_text())
    for key in ("meta", "system", "initial_set", "method", "boxes",
                "parallelotopes"):
        assert key in doc
    assert doc["method"]["kind"] == "box"
    assert len(doc["boxes"]) == 1
    box = doc["boxes"][0]
    assert box["t"] == 1.0
    assert all(a <= b for a, b in zip(box["lo"], box["hi"]))


@pytest.mark.parametrize("direction, second", [("forward", "x1 + 2"),
                                               ("backward", "x1 + 1")])
def test_reach_rejects_a_closed_form_off_the_diagonal(tmp_path, capsys,
                                                      direction, second):
    """A forward closed form whose diagonal is not F used to be integrated;
    a backward one given the forward sources is not -F either."""
    raw = _fast_box_config(direction=direction, decomposition={
        "method": "closed_form",
        "sources": ["max(x1, 0)*x2 + min(x1, 0)*x4 + w1", second]})
    field, where = "field", "initial_set"
    if direction == "backward":
        raw["initial_set"] = {"type": "parallelotope", "shape": [[1, 0], [0, 1]],
                              "lo": [0.0, -0.25], "hi": [0.75, 0.25]}
        field, where = "time-reversed field", "initial_set.shape"
    message = (f"closed_form decomposition does not match the {field} on the "
               "diagonal: at x=[0.375, 0.0]\n")
    cfg = _write(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["reach", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {message}"
    assert not out.exists()
    # check prepares the same embedding, and says where it comes from
    assert main(["check", "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: {where}: {message}"


def test_check_rejects_a_closed_form_under_transforms(tmp_path, capsys):
    """check used to accept this, and reach then failed the diagonal check."""
    raw = _fast_box_config(
        decomposition={"method": "closed_form",
                       "sources": ["max(x1, 0)*x2 + min(x1, 0)*x4 + w1",
                                   "x1 + 1"]},
        transforms={"family": "rotations", "count": 2})
    raw["initial_set"] = {"type": "vertices",
                          "points": [[0.0, -0.25], [0.75, -0.25],
                                     [0.75, 0.25], [0.0, 0.25]]}
    assert main(["check", "--config", _write(tmp_path, raw)]) == 1
    assert capsys.readouterr().err == (
        "error: transforms: closed_form sources decompose the untransformed "
        "field; every shape must be the identity\n")


def _too_deep_once_built(direction):
    """A field that parses, but nests too deeply once it is transformed
    (the shear) or time-reversed (the backward run)."""
    raw = _fast_box_config(direction=direction)
    minus, shape = (197, [[1, 1], [0, 1]]) if direction == "forward" else (
        198, [[1, 0], [0, 1]])
    raw["system"] = {"n": 2, "m": 1, "field": ["-" * minus + "x1", "x2"],
                     "w_lo": [0.0], "w_hi": [0.25]}
    raw["initial_set"] = {"type": "parallelotope", "shape": shape,
                          "lo": [0.0, 0.0], "hi": [0.1, 0.1]}
    return raw


def test_reach_reports_a_transformed_field_too_deep_to_compile(tmp_path, capsys):
    raw = _too_deep_once_built("forward")
    assert main(["reach", "--config", _write(tmp_path, raw), "--out",
                 str(tmp_path / "out"), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "error: field component 1 does not compile: too many nested "
        "parentheses\n")


@pytest.mark.parametrize("direction", ["forward", "backward"])
def test_check_builds_every_system_the_run_integrates(tmp_path, capsys,
                                                      direction):
    """check used to print "configuration OK" for these; reach fails."""
    cfg = _write(tmp_path, _too_deep_once_built(direction))
    assert main(["check", "--config", cfg]) == 1
    assert capsys.readouterr().err == (
        "error: initial_set.shape: field component 1 does not compile: too "
        "many nested parentheses\n")
    assert main(["reach", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 1
    assert "does not compile" in capsys.readouterr().err


@pytest.mark.parametrize("change, message", [
    ({"system": "cubic", "decomposition": {"method": "monotone"}},
     "initial_set: dF1/dx2 = -9.175e-01 < 0 at a sampled point"),
    ({"initial_set": {"type": "parallelotope", "shape": [[1, -2], [1, 1]],
                      "lo": [0.0, -0.25], "hi": [0.75, 0.25]},
      "decomposition": {"method": "monotone"}},
     "initial_set.shape: dF1/dx2 = -2.881e-01 < 0 at a sampled point"),
    ({"system": "cubic",
      "decomposition": {"method": "jacobian_sign", "domain_lo": [-3, -3],
                        "domain_hi": [3, 3]}},
     "initial_set: dF1/dx2 changes sign over the sampled domain"),
], ids=["monotone-cubic", "monotone-sheared-bilinear", "jacobian-sign-cubic"])
def test_check_rejects_a_decomposition_reach_would_reject(tmp_path, capsys,
                                                          change, message):
    """check used to print "configuration OK" for these; reach fails before
    its first step."""
    cfg = _write(tmp_path, _fast_box_config(**change))
    assert main(["check", "--config", cfg]) == 1
    assert capsys.readouterr().err == f"error: {message}\n"
    assert main(["reach", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet"]) == 1
    assert capsys.readouterr().err == f"error: {message.split(': ', 1)[1]}\n"


def test_reach_intersection_outputs(tmp_path):
    raw = {
        "system": "bilinear",
        "initial_set": {"type": "vertices",
                        "points": [[0.5, -0.25], [0.75, 0.0],
                                   [0.25, 0.25], [0.0, 0.0]]},
        "horizon": 1.0,
        "dt": 0.005,
        "transforms": {"family": "rotations", "count": 3},
    }
    cfg = _write(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["reach", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    doc = json.loads((out / "result.json").read_text())
    assert len(doc["parallelotopes"]) == 3
    curve = doc["area_curve"]
    assert [k for k, _ in curve] == [1, 2, 3]
    areas = [a for _, a in curve]
    assert all(b <= a + 1e-12 for a, b in zip(areas, areas[1:]))
    assert (out / "area_curve.csv").exists()
    assert (out / "intersection.txt").exists()
    poly = np.loadtxt(out / "intersection.txt")
    assert poly.ndim == 2 and poly.shape[1] == 2
    csv = (out / "area_curve.csv").read_text().strip().splitlines()
    assert csv[0] == "k,area"
    assert len(csv) == 4


def test_reach_intersection_with_a_member_too_wide_to_clip(tmp_path, capsys):
    """The sheared member's bound is finite but about 4e158 wide; clipping it
    used to overflow (numpy warnings) and report an empty intersection."""
    raw = json.loads((Path(__file__).parents[1] / "perfbench" / "configs"
                      / "intersect10.json").read_text())
    raw["transforms"] = {"matrices": [[[1, 0], [0, 1]], [[1, 0], [1, 1]]]}
    cfg = _write(tmp_path, raw)
    assert main(["check", "--config", cfg, "--quiet"]) == 0
    capsys.readouterr()
    with warnings.catch_warnings():
        warnings.simplefilter("error")
        assert main(["reach", "--config", cfg, "--out", str(tmp_path / "out"),
                     "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "error: transform 2: the member's bound is too wide to intersect\n")


def test_reach_intersection_of_point_bounds_is_unsupported(tmp_path, capsys):
    """A point start without disturbance makes every member bound a point;
    the empty clip used to be blamed on an upstream step."""
    raw = json.loads((Path(mm.__file__).parent / "presets"
                      / "example3.json").read_text())
    raw["system"] = {"n": 2, "m": 1, "field": ["x1 - x2 + x2^3 + w1", "x1 - x2"],
                     "w_lo": [0.0], "w_hi": [0.0]}
    cfg = _write(tmp_path, raw)
    assert main(["reach", "--config", cfg, "--dt", "0.02",
                 "--out", str(tmp_path / "out"), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "error: transform 1: the member's bound is a point or a segment, which "
        "planar intersection does not support\n")


def test_reach_intersection_3d_writes_volume(tmp_path):
    raw = {
        "system": {"n": 3, "m": 1, "field": ["-x1 + w1", "-x2 + w1", "-x3 + w1"],
                   "w_lo": [0.0], "w_hi": [0.1]},
        "initial_set": {"type": "box", "lo": [0.0, 0.0, 0.0],
                        "hi": [0.5, 0.5, 0.5]},
        "horizon": 0.5,
        "dt": 0.01,
        "transforms": {"matrices": [np.eye(3).tolist(),
                                    [[1.0, 1.0, 0.0], [0.0, 1.0, 0.0],
                                     [0.0, 0.0, 1.0]]]},
    }
    out = tmp_path / "out"
    assert main(["reach", "--config", _write(tmp_path, raw), "--out", str(out),
                 "--quiet"]) == 0
    doc = json.loads((out / "result.json").read_text())
    assert "intersection_polygon" not in doc and "area_curve" not in doc
    assert len(doc["parallelotopes"]) == 2
    lo = np.array(doc["parallelotopes"][0]["lo"])
    hi = np.array(doc["parallelotopes"][0]["hi"])
    # the sheared member cuts corners off the identity box
    assert 0.0 < doc["volume"] < np.prod(hi - lo)
    assert doc["volume_ci95"] > 0.0


def test_reach_deterministic_modulo_timestamp(tmp_path):
    cfg = _write(tmp_path, _fast_box_config())
    docs = []
    for sub in ("a", "b"):
        out = tmp_path / sub
        assert main(["reach", "--config", cfg, "--out", str(out), "--quiet"]) == 0
        doc = json.loads((out / "result.json").read_text())
        doc["meta"].pop("timestamp")
        docs.append(doc)
    assert docs[0] == docs[1]


def test_verify_clean_box_run(tmp_path):
    cfg = _write(tmp_path, _fast_box_config())
    out = tmp_path / "out"
    code = main(["verify", "--config", cfg, "--out", str(out), "--quiet"])
    assert code == 0
    doc = json.loads((out / "verify_report.json").read_text())
    assert doc["violations"] == 0
    assert doc["total"] == 800


def test_verify_shrunk_region_fails_with_witnesses(tmp_path):
    cfg = _write(tmp_path, _fast_box_config())
    out = tmp_path / "out"
    code = main(["verify", "--config", cfg, "--out", str(out), "--quiet",
                 "--debug-scale", "0.5"])
    assert code == 2
    doc = json.loads((out / "verify_report.json").read_text())
    assert doc["violations"] > 0
    assert doc["witnesses"]
    assert doc["debug_scale"] == 0.5


def test_verify_degenerate_run_is_clean(tmp_path):
    raw = {
        "system": {"n": 2, "m": 1, "field": ["x2 + w1", "x1 - x2"],
                   "w_lo": [0.2], "w_hi": [0.2]},
        "initial_set": {"type": "box", "lo": [0.3, -0.4], "hi": [0.3, -0.4]},
        "horizon": 0.5,
        "dt": 0.005,
        "sampling": {"count": 50, "seed": 1},
    }
    cfg = _write(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    doc = json.loads((out / "verify_report.json").read_text())
    assert abs(doc["worst_margin"]) <= 1e-6


def test_verify_backward_run(tmp_path, capsys):
    raw = {
        "system": "bilinear",
        "initial_set": {"type": "parallelotope",
                        "shape": [[1.0, -2.0], [1.0, 1.0]],
                        "lo": [0.0, -0.25], "hi": [0.25, 0.0]},
        "horizon": 1.0,
        "dt": 0.005,
        "direction": "backward",
        "sampling": {"count": 20000, "seed": 5,
                     "search_lo": [-3.0, -3.0], "search_hi": [3.0, 3.0]},
    }
    cfg = _write(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    doc = json.loads((out / "verify_report.json").read_text())
    assert doc["violations"] == 0
    assert doc["total"] > 50
    # without a search box there is nowhere to look for witnesses
    del raw["sampling"]["search_lo"], raw["sampling"]["search_hi"]
    cfg = _write(tmp_path, raw)
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == (
        "error: backward verify needs sampling.search_lo/search_hi\n")


def _strict_json(text):
    """The JSON document ``text``; Infinity and NaN, which RFC 8259 has no
    token for, fail the test."""
    def reject(token):
        pytest.fail(f"{token} in a JSON document")
    return json.loads(text, parse_constant=reject)


_NOTHING_AUDITED = {
    # the search box lies far outside the backward reachable set
    "backward": ({
        "system": "bilinear",
        "initial_set": {"type": "parallelotope",
                        "shape": [[1.0, -2.0], [1.0, 1.0]],
                        "lo": [0.0, -0.25], "hi": [0.25, 0.0]},
        "horizon": 1.0,
        "dt": 0.01,
        "direction": "backward",
        "sampling": {"count": 2000, "seed": 5,
                     "search_lo": [20.0, 20.0], "search_hi": [21.0, 21.0]},
    }, 0, "no backward witness in 2000 samples: nothing was audited"),
    # x' = x^2 from 1 escapes at t = 1; the closed form, the tangent at
    # x = 1, matches the field on the diagonal at the initial point only,
    # so its bound stays finite and is unsound
    "forward": ({
        "system": {"n": 1, "m": 1, "field": ["x1*x1 + w1"],
                   "w_lo": [0.0], "w_hi": [0.0]},
        "initial_set": {"type": "box", "lo": [1.0], "hi": [1.0]},
        "horizon": 2.0,
        "dt": 0.01,
        "decomposition": {"method": "closed_form", "sources": ["2*x1 - 1 + w1"]},
        "sampling": {"count": 50, "seed": 0},
    }, 50, "all 50 trajectories diverged: nothing was audited"),
}


@pytest.mark.parametrize("direction", sorted(_NOTHING_AUDITED))
def test_verify_that_audits_no_point_fails(tmp_path, capsys, direction):
    """A run that audits nothing used to pass (exit 0) and write
    ``Infinity`` as the worst margin; it now writes strict JSON and fails
    (exit 1, not the soundness violation's 2) with the cause."""
    raw, divergent, message = _NOTHING_AUDITED[direction]
    cfg = _write(tmp_path, raw)
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err.endswith(f"error: {message}\n")
    doc = _strict_json((out / "verify_report.json").read_text())
    assert doc["total"] == 0 and doc["violations"] == 0
    assert doc["worst_margin"] is None
    assert doc["divergent"] == divergent


_HULL_POINTS = [[0.0, 0.0], [0.75, -0.25], [0.6, 0.25], [0.1, 0.2]]


@pytest.mark.parametrize("points", [
    _HULL_POINTS, [[0.3, -0.4]],
    # two-vertex sets reach the sampler's one- and two-vertex hull branches
    [[0.0, 0.0], [0.5, -0.25]], [[0.25, 0.1], [0.25, 0.1]],
], ids=["hull", "point", "segment", "repeated_point"])
def test_verify_vertex_initial_sets(tmp_path, points):
    """verify samples the vertices' hull: a polygon, a segment, or a single
    point."""
    raw = _fast_box_config(initial_set={"type": "vertices", "points": points})
    out = tmp_path / "out"
    assert main(["verify", "--config", _write(tmp_path, raw), "--out", str(out),
                 "--quiet"]) == 0
    doc = json.loads((out / "verify_report.json").read_text())
    assert doc["violations"] == 0 and doc["total"] == 800


def test_reach_vertices_without_transforms_bounds_their_box(tmp_path):
    raw = _fast_box_config(initial_set={"type": "vertices",
                                        "points": _HULL_POINTS})
    out = tmp_path / "out"
    assert main(["reach", "--config", _write(tmp_path, raw), "--out", str(out),
                 "--quiet"]) == 0
    doc = json.loads((out / "result.json").read_text())
    assert doc["method"]["kind"] == "box"
    pts = np.array(_HULL_POINTS)
    want = mm.reach_box(mm.preset_system("bilinear"),
                        mm.Box(pts.min(axis=0), pts.max(axis=0)),
                        mm.ReachSpec(1.0, 0.005))
    assert doc["boxes"][0]["lo"] == want.lo.tolist()
    assert doc["boxes"][0]["hi"] == want.hi.tolist()


def test_reach_records_a_jacobian_sign_domain(tmp_path):
    raw = _fast_box_config(decomposition={
        "method": "jacobian_sign", "domain_lo": [0.0, -1.0],
        "domain_hi": [2.0, 1.0], "samples": 50})
    out = tmp_path / "out"
    assert main(["reach", "--config", _write(tmp_path, raw), "--out", str(out),
                 "--quiet"]) == 0
    doc = json.loads((out / "result.json").read_text())
    assert doc["method"]["decomposition"] == "jacobian_sign"
    assert doc["method"]["options"]["domain"] == {"lo": [0.0, -1.0],
                                                  "hi": [2.0, 1.0]}


_SUMMARY_CASES = {
    "box": ({}, ["result.json"]),
    "parallelotope": (
        {"initial_set": {"type": "parallelotope", "shape": [[1.0, -2.0], [1.0, 1.0]],
                         "lo": [0.0, -0.25], "hi": [0.25, 0.0]}},
        ["result.json", "parallelotope_01.txt"]),
    "intersection": (
        {"initial_set": {"type": "vertices", "points": _HULL_POINTS},
         "transforms": {"family": "rotations", "count": 2}},
        ["result.json", "parallelotope_01.txt", "parallelotope_02.txt",
         "intersection.txt", "area_curve.csv"]),
}


@pytest.mark.parametrize("kind", sorted(_SUMMARY_CASES))
def test_reach_prints_its_files_and_a_summary(tmp_path, capsys, kind):
    overrides, names = _SUMMARY_CASES[kind]
    out = tmp_path / "out"
    assert main(["reach", "--config", _write(tmp_path, _fast_box_config(**overrides)),
                 "--out", str(out)]) == 0
    doc = json.loads((out / "result.json").read_text())
    assert doc["method"]["kind"] == kind
    want = [f"wrote {out / name}" for name in names]
    want += [f"box at t={b['t']:.17g}: lo={b['lo']} hi={b['hi']}"
             for b in doc["boxes"]]
    for idx, p in enumerate(doc["parallelotopes"], start=1):
        area = mm.ptope_polygon(mm.Parallelotope(p["shape"],
                                                 mm.Box(p["lo"], p["hi"]))).area()
        want.append(f"parallelotope {idx}: lo={p['lo']} hi={p['hi']} "
                    f"area={area:.6g}")
    if "area_curve" in doc:
        want.append(f"intersection area: {doc['area_curve'][-1][1]:.6g}")
    assert capsys.readouterr().out.splitlines() == want


def test_reach_seed_and_dt_overrides(tmp_path):
    cfg = _write(tmp_path, _fast_box_config())
    out = tmp_path / "out"
    assert main(["reach", "--config", cfg, "--out", str(out), "--quiet",
                 "--dt", "0.01", "--seed", "99"]) == 0
    doc = json.loads((out / "result.json").read_text())
    assert doc["meta"]["dt"] == 0.01
    assert doc["meta"]["seed"] == 99


def test_nan_dt_override_is_rejected(tmp_path, capsys):
    cfg = _write(tmp_path, _fast_box_config())
    assert main(["reach", "--config", cfg, "--out", str(tmp_path / "out"),
                 "--quiet", "--dt", "nan"]) == 1
    assert capsys.readouterr().err == (
        "error: horizon and dt must be finite, got horizon=1.0, dt=nan\n")


@pytest.mark.parametrize("command", ["reach", "verify"])
def test_negative_seed_override_is_rejected(tmp_path, capsys, command):
    cfg = _write(tmp_path, _fast_box_config())
    out = tmp_path / "out"
    assert main([command, "--config", cfg, "--out", str(out), "--quiet",
                 "--seed", "-1"]) == 1
    assert "error: seed must be >= 0" in capsys.readouterr().err


@pytest.mark.parametrize("command", ["reach", "verify"])
def test_out_naming_a_file_is_rejected_before_the_pipeline(tmp_path, capsys,
                                                           monkeypatch, command):
    def unreachable(cfg):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr("mmreach.cli.run_reach", unreachable)
    cfg = _write(tmp_path, _fast_box_config())
    afile = tmp_path / "afile"
    afile.write_text("")
    assert main([command, "--config", cfg, "--out", str(afile), "--quiet"]) == 1
    assert "error: output.dir:" in capsys.readouterr().err


_NON_PLANAR_VERTICES = {
    "system": {"n": 3, "m": 1, "field": ["-x1 + w1", "-x2", "-x3"],
               "w_lo": [0.0], "w_hi": [0.1]},
    "initial_set": {"type": "vertices",
                    "points": [[0.0, 0.0, 0.0], [1.0, 0.0, 0.0],
                               [0.0, 1.0, 0.0], [0.0, 0.0, 1.0]]},
    "horizon": 0.1,
    "dt": 0.01,
}
# a backward run without the box its witness search draws from
_BACKWARD_WITHOUT_SEARCH_BOX = _fast_box_config(
    direction="backward",
    initial_set={"type": "parallelotope", "shape": [[1, 0], [0, 1]],
                 "lo": [0.0, -0.25], "hi": [0.75, 0.25]})


@pytest.mark.parametrize("raw, message", [
    (_NON_PLANAR_VERTICES,
     "error: verify supports vertex initial sets only for planar systems\n"),
    (_BACKWARD_WITHOUT_SEARCH_BOX,
     "error: backward verify needs sampling.search_lo/search_hi\n"),
], ids=["non-planar-vertices", "backward-without-search-box"])
def test_verify_rejects_non_planar_vertices_before_the_pipeline(tmp_path, capsys,
                                                                monkeypatch,
                                                                raw, message):
    def unreachable(cfg):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr("mmreach.cli.run_reach", unreachable)
    cfg = _write(tmp_path, raw)
    assert main(["check", "--config", cfg, "--quiet"]) == 0
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet"]) == 1
    assert capsys.readouterr().err == message


@pytest.mark.parametrize("raw, reason", [
    (_NON_PLANAR_VERTICES,
     "verify supports vertex initial sets only for planar systems"),
    (_BACKWARD_WITHOUT_SEARCH_BOX,
     "backward verify needs sampling.search_lo/search_hi"),
], ids=["non-planar-vertices", "backward-without-search-box"])
def test_check_notes_a_config_verify_rejects(tmp_path, capsys, raw, reason):
    """reach runs these configs, so check passes them; without --quiet it
    names the reason verify rejects them, in verify's own words."""
    cfg = _write(tmp_path, raw)
    assert main(["check", "--config", cfg]) == 0
    out, err = capsys.readouterr()
    assert out.startswith("configuration OK")
    assert err == f"note: verify rejects this configuration: {reason}\n"
    assert main(["check", "--config", cfg, "--quiet"]) == 0
    assert capsys.readouterr() == ("", "")
    # a backward config with its search box gets no note
    assert main(["check", "--config", "example1_backward"]) == 0
    assert capsys.readouterr().err == ""


@pytest.mark.parametrize("scale", ["-1", "nan", "inf"])
def test_verify_rejects_a_bad_debug_scale_before_the_pipeline(tmp_path, capsys,
                                                              monkeypatch, scale):
    def unreachable(cfg):
        raise AssertionError("the pipeline ran")

    monkeypatch.setattr("mmreach.cli.run_reach", unreachable)
    out = tmp_path / "out"
    assert main(["verify", "--config", "example1", "--dt", "0.05", "--out", str(out),
                 "--quiet", "--debug-scale", scale]) == 1
    assert capsys.readouterr().err == (
        f"error: --debug-scale must be finite and nonnegative, got {float(scale)}\n")
    assert not out.exists()


def test_verify_save_endpoints(tmp_path):
    cfg = _write(tmp_path, _fast_box_config())
    out = tmp_path / "out"
    assert main(["verify", "--config", cfg, "--out", str(out), "--quiet",
                 "--save-endpoints"]) == 0
    pts = np.loadtxt(out / "endpoints.csv", delimiter=",", skiprows=1)
    assert pts.shape == (800, 2)


def test_reach_parallelotope_preset(tmp_path):
    out = tmp_path / "out"
    assert main(["reach", "--config", "example1", "--out", str(out), "--quiet",
                 "--dt", "0.005"]) == 0
    doc = json.loads((out / "result.json").read_text())
    assert doc["method"]["kind"] == "parallelotope"
    assert (out / "parallelotope_01.txt").exists()


def test_union_audit_region_is_a_union_and_scales():
    a = mm.Parallelotope(np.eye(2), mm.Box([0.0, 0.0], [1.0, 1.0]))
    b = mm.Parallelotope(np.eye(2), mm.Box([2.0, 0.0], [3.0, 1.0]))
    region = ReachOutcome(kind="union", parallelotopes=[a, b]).audit_region()
    assert isinstance(region, mm.UnionInitialSet)
    assert region.members == (a, b)
    shrunk = _scaled_region(region, 0.5)
    assert isinstance(shrunk, mm.UnionInitialSet)
    assert np.allclose(shrunk.members[1].coords.lo, [2.25, 0.25])
    assert np.allclose(shrunk.members[1].coords.hi, [2.75, 0.75])
