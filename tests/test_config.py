import json

import numpy as np
import pytest

from mmreach.config import load_config, parse_config, preset_names
from mmreach.errors import ConfigError


def _base_raw():
    return {
        "system": "bilinear",
        "initial_set": {"type": "box", "lo": [0.0, -0.25], "hi": [0.75, 0.25]},
        "horizon": 1.0,
        "dt": 0.002,
    }


def test_preset_names_cover_shipped_examples():
    names = preset_names()
    for expected in ("example1", "example1_backward", "example2", "example3",
                     "hexagon", "hexagon_overlap"):
        assert expected in names


@pytest.mark.parametrize("name", ["example1", "example1_backward", "example2",
                                  "example3", "hexagon", "hexagon_overlap"])
def test_shipped_presets_validate(name):
    cfg = load_config(name)
    assert cfg.system.n == 2
    assert cfg.spec.horizon == 1.0


def test_parse_minimal_box_config():
    cfg = parse_config(_base_raw())
    assert cfg.initial_kind == "box"
    assert cfg.method == "tight"
    assert cfg.transforms is None
    assert cfg.sampling.count == 10000


def test_inline_system_and_expressions():
    raw = _base_raw()
    raw["system"] = {"n": 2, "m": 1, "field": ["x1*x2 + w1", "x1 + 1"],
                     "w_lo": [0.0], "w_hi": [0.25]}
    cfg = parse_config(raw)
    assert np.allclose(cfg.system.eval_field([1, 0], [0]), [0, 2])


def test_expression_error_carries_location():
    raw = _base_raw()
    raw["system"] = {"n": 2, "m": 1, "field": ["x1", "x3 + 1"],
                     "w_lo": [0.0], "w_hi": [0.25]}
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert "field[1]" in str(err.value)


def test_singular_shape_rejected_at_validation():
    raw = _base_raw()
    raw["initial_set"] = {"type": "parallelotope",
                          "shape": [[1.0, 1.0], [1.0, 1.0]],
                          "lo": [0.0, 0.0], "hi": [1.0, 1.0]}
    with pytest.raises(ConfigError):
        parse_config(raw)
    raw = _base_raw()
    raw["transforms"] = {"matrices": [[[1.0, 1.0], [1.0, 1.0]]]}
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert "matrices[0]" in str(err.value)


def test_missing_keys_report_location():
    raw = _base_raw()
    del raw["horizon"]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert "horizon" in str(err.value)
    raw = _base_raw()
    del raw["initial_set"]["lo"]
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert "initial_set" in str(err.value)


def test_backward_requires_parallelotope():
    raw = _base_raw()
    raw["direction"] = "backward"
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_union_with_transforms_rejected():
    raw = _base_raw()
    raw["initial_set"] = {
        "type": "union",
        "members": [{"shape": [[1.0, 0.0], [0.0, 1.0]],
                     "lo": [0.0, 0.0], "hi": [1.0, 1.0]}],
    }
    raw["transforms"] = {"family": "rotations", "count": 3}
    with pytest.raises(ConfigError):
        parse_config(raw)


def test_closed_form_sources_validated():
    raw = _base_raw()
    raw["decomposition"] = {"method": "closed_form", "sources": ["x1"]}
    with pytest.raises(ConfigError):
        parse_config(raw)
    raw["decomposition"] = {
        "method": "closed_form",
        "sources": ["max(x1, 0)*x2 + min(x1, 0)*x4 + w1", "x1 + 1"],
    }
    cfg = parse_config(raw)
    assert cfg.method == "closed_form"


def test_jacobian_sign_domain_parsing():
    raw = _base_raw()
    raw["decomposition"] = {"method": "jacobian_sign", "domain_lo": [0.0, -3.0],
                            "domain_hi": [3.0, 3.0], "samples": 50}
    cfg = parse_config(raw)
    assert cfg.method_options["domain"].lo[0] == 0.0
    assert cfg.method_options["samples"] == 50


def test_search_box_parsing():
    raw = _base_raw()
    raw["sampling"] = {"count": 100, "search_lo": [-3.0, -3.0],
                       "search_hi": [3.0, 3.0]}
    cfg = parse_config(raw)
    assert cfg.search_box is not None


def test_load_config_path_and_errors(tmp_path):
    path = tmp_path / "run.json"
    path.write_text(json.dumps(_base_raw()))
    cfg = load_config(path)
    assert cfg.spec.dt == 0.002
    with pytest.raises(ConfigError):
        load_config(tmp_path / "missing.json")
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    with pytest.raises(ConfigError):
        load_config(bad)


@pytest.mark.parametrize("change, location", [
    ({"output": {"dir": 5}}, "output.dir"),
    ({"decomposition": {"samples": 0}}, "decomposition.samples"),
    ({"decomposition": {"method": "closed_form", "sources": [3, "x1"]}},
     "decomposition.sources[0]"),
    (None, None),  # the config path is a directory
])
def test_check_rejects_what_reach_would(tmp_path, change, location):
    """Each of these passed validation and then crashed or failed in reach."""
    path = tmp_path
    if change is not None:
        path = tmp_path / "run.json"
        path.write_text(json.dumps({**_base_raw(), **change}))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.location == (location or str(tmp_path))
