import json

import numpy as np
import pytest

from mmreach.cli import main
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


_CLOSED_FORM = {"method": "closed_form",
                "sources": ["max(x1, 0)*x2 + min(x1, 0)*x4 + w1", "x1 + 1"]}
_QUARTER_TURN = [[0.0, -1.0], [1.0, 0.0]]


def _member(shape, lo):
    return {"shape": shape, "lo": lo, "hi": [v + 0.25 for v in lo]}


@pytest.mark.parametrize("change, location", [
    ({"transforms": {"family": "rotations", "count": 2}}, "transforms"),
    ({"transforms": {"matrices": [[[1, 0], [0, 1]], [[1, 1], [0, 1]]]}},
     "transforms"),
    ({"initial_set": {"type": "parallelotope", "shape": _QUARTER_TURN,
                      "lo": [0.0, 0.0], "hi": [0.5, 0.5]}},
     "initial_set.shape"),
    ({"initial_set": {"type": "union", "members": [
        _member([[1, 0], [0, 1]], [0.0, 0.0]),
        _member(_QUARTER_TURN, [1.0, 0.0])]}},
     "initial_set.members[1].shape"),
])
def test_closed_form_rejects_a_non_identity_shape(change, location):
    """Its sources decompose the field itself, not a transformed field; such
    a config passed check and then failed the diagonal check in reach."""
    raw = {**_base_raw(), "decomposition": _CLOSED_FORM, **change}
    with pytest.raises(ConfigError) as err:
        parse_config(raw)
    assert err.value.location == location


@pytest.mark.parametrize("change", [
    {},
    {"transforms": {"family": "rotations", "count": 1}},  # the identity
    {"transforms": {"matrices": [[[1, 0], [0, 1]]]}},
    {"direction": "backward",
     "initial_set": {"type": "parallelotope", "shape": [[1, 0], [0, 1]],
                     "lo": [0.0, -0.25], "hi": [0.75, 0.25]}},
    {"initial_set": {"type": "union", "members": [
        _member([[1, 0], [0, 1]], [0.0, 0.0]),
        _member([[1, 0], [0, 1]], [1.0, 0.0])]}},
    # the transforms replace the parallelotope's own shape in the run
    {"initial_set": {"type": "parallelotope", "shape": _QUARTER_TURN,
                     "lo": [0.0, 0.0], "hi": [0.5, 0.5]},
     "transforms": {"matrices": [[[1, 0], [0, 1]]]}},
])
def test_closed_form_accepts_identity_shapes(change):
    cfg = parse_config({**_base_raw(), "decomposition": _CLOSED_FORM, **change})
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


def test_load_config_rejects_a_nan_horizon(tmp_path):
    """JSON's NaN literal passed every comparison in ReachSpec; reach then
    died converting horizon/dt to a step count."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps({**_base_raw(), "horizon": float("nan")}))
    assert "NaN" in path.read_text()
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.location == "horizon/dt"


@pytest.mark.parametrize("change, location", [
    ({"output": {"dir": 5}}, "output.dir"),
    ({"decomposition": {"samples": 0}}, "decomposition.samples"),
    ({"decomposition": {"method": "closed_form", "sources": [3, "x1"]}},
     "decomposition.sources[0]"),
    (None, None),  # the config path is a directory
    ({"decomposition": {"method": "jacobian_sign", "seed": -1}},
     "decomposition.seed"),
    ({"sampling": {"seed": -2}}, "sampling.seed"),
    ({"output": {"dir": __file__}}, "output.dir"),  # an existing file
    # a falsy non-table used to be taken as the default directory
    ({"output": []}, "output"),
    ({"output": 0}, "output"),
    ({"output": ""}, "output"),
    ({"output": False}, "output"),
    # reach failed with no location
    ({"decomposition": {"method": "jacobian_sign"}}, "decomposition"),
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


def _with(**change):
    return {**_base_raw(), **change}


_SYSTEM = {"n": 2, "m": 1, "field": ["x1*x2 + w1", "x1 + 1"],
           "w_lo": [0.0], "w_hi": [0.25]}
_LINE = {"system": {"n": 1, "m": 1, "field": ["w1"], "w_lo": [0.0], "w_hi": [0.0]},
         "initial_set": {"type": "box", "lo": [0.0], "hi": [1.0]}, "horizon": 1.0}


@pytest.mark.parametrize("raw, location, message", [
    ([], "", "top level must be a table"),
    (_with(horizon="1"), "horizon", "expected a number, got '1'"),
    (_with(direction="sideways"), "direction",
     "direction must be one of ('forward', 'backward')"),
    (_with(system=5), "system", "expected a preset name or a system table"),
    (_with(system={**_SYSTEM, "n": 2.0}), "system.n", "expected an integer, got 2.0"),
    (_with(system={**_SYSTEM, "n": 0}), "system", "invalid dimensions n=0, m=1"),
    (_with(system={**_SYSTEM, "field": ["x1"]}), "system.field",
     "field must list exactly 2 expressions"),
    (_with(system={**_SYSTEM, "field": [1, "x1"]}), "system.field[0]",
     "expected an expression string"),
    (_with(initial_set=[]), "initial_set", "expected a table with a 'type' key"),
    (_with(initial_set={"type": "ball"}), "initial_set",
     "type must be one of ('box', 'parallelotope', 'vertices', 'union'), got 'ball'"),
    (_with(initial_set={"type": "box", "lo": 0.0, "hi": [1.0, 1.0]}),
     "initial_set.lo", "expected a non-empty list of numbers"),
    (_with(initial_set={"type": "box", "lo": [0.0], "hi": [1.0, 1.0]}),
     "initial_set.lo", "expected 2 entries, got 1"),
    (_with(initial_set={"type": "parallelotope", "shape": "eye",
                        "lo": [0.0, 0.0], "hi": [1.0, 1.0]}),
     "initial_set.shape", "expected a matrix (list of rows)"),
    (_with(initial_set={"type": "vertices", "points": []}), "initial_set.points",
     "expected a non-empty list of points"),
    (_with(initial_set={"type": "union", "members": []}), "initial_set.members",
     "expected a non-empty member list"),
    (_with(decomposition="tight"), "decomposition", "expected a table"),
    (_with(decomposition={"method": "exact"}), "decomposition",
     "method must be one of ('tight', 'jacobian_sign', 'monotone', 'closed_form'), "
     "got 'exact'"),
    (_with(transforms=[]), "transforms", "expected a table"),
    (_with(transforms={"matrices": []}), "transforms.matrices",
     "expected a non-empty matrix list"),
    (_with(transforms={"matrices": [[[1.0, 0.0], [1.0]]]}), "transforms.matrices[0]",
     "matrix rows have unequal lengths"),
    (_with(transforms={"matrices": [np.eye(3).tolist()]}), "transforms.matrices[0]",
     "expected a 2x2 matrix"),
    ({**_LINE, "transforms": {"family": "rotations", "count": 3}}, "transforms",
     "rotation family requires a planar system"),
    (_with(transforms={"family": "shears"}), "transforms",
     "expected 'matrices' or family: 'rotations'"),
    (_with(sampling=5), "sampling", "expected a table"),
])
def test_a_malformed_table_is_refused_at_its_location(tmp_path, capsys, raw, location,
                                                      message):
    """Each error names where in the file it is, and ``check`` exits 1 with
    it."""
    path = tmp_path / "run.json"
    path.write_text(json.dumps(raw))
    with pytest.raises(ConfigError) as err:
        load_config(path)
    assert err.value.location == location
    assert str(err.value) == (f"{location}: {message}" if location else message)
    assert main(["check", "--config", str(path)]) == 1
    assert capsys.readouterr().err == f"error: {err.value}\n"
