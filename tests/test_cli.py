import json

import numpy as np
import pytest

import mmreach as mm
from mmreach.cli import _scaled_region, main, validate_result_document
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


def test_verify_backward_run(tmp_path):
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


def test_reach_seed_and_dt_overrides(tmp_path):
    cfg = _write(tmp_path, _fast_box_config())
    out = tmp_path / "out"
    assert main(["reach", "--config", cfg, "--out", str(out), "--quiet",
                 "--dt", "0.01", "--seed", "99"]) == 0
    doc = json.loads((out / "result.json").read_text())
    assert doc["meta"]["dt"] == 0.01
    assert doc["meta"]["seed"] == 99


def test_reach_result_revalidates_against_schema(tmp_path):
    cfg = _write(tmp_path, _fast_box_config())
    out = tmp_path / "out"
    assert main(["reach", "--config", cfg, "--out", str(out), "--quiet"]) == 0
    doc = json.loads((out / "result.json").read_text())
    assert validate_result_document(doc) is doc
    broken = dict(doc)
    del broken["boxes"]
    with pytest.raises(ConfigError):
        validate_result_document(broken)


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
