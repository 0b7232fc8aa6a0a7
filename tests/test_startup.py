"""What ``import mmreach`` and each command load.

``import mmreach`` resolves its names on first use, and only ``verify``
imports the oracle, so a ``check`` or ``reach`` pays for no sampling code.
The module counts run in a fresh interpreter, where nothing else has
loaded a module yet.
"""

import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import mmreach as mm

ROOT = Path(__file__).resolve().parents[1]
CONFIGS = ROOT / "perfbench" / "configs"

# run in a child: the mmreach submodules and the oracle's standard-library
# imports loaded after `import mmreach` and after each command
_PROBE = r"""
import json, sys

def loaded():
    return sorted(m for m in sys.modules
                  if m.startswith("mmreach.") or m in ("logging", "signal"))

import mmreach
seen = {"import": loaded()}
# a submodule is an attribute of the package, imported on first use
seen["errors"] = mmreach.errors.__name__
from mmreach import cli
for name, argv in json.loads(sys.argv[1]):
    seen[name] = [cli.main(argv), loaded()]
print(json.dumps(seen))
"""


def test_each_command_loads_only_the_layers_it_runs(tmp_path):
    verify_cfg = tmp_path / "verify.json"
    verify_cfg.write_text(json.dumps({
        "system": "bilinear",
        "initial_set": {"type": "box", "lo": [0.0, -0.25], "hi": [0.75, 0.25]},
        "horizon": 0.1,
        "dt": 0.01,
        "sampling": {"count": 50, "seed": 0},
    }))
    steps = [
        ("reach", ["reach", "--config", str(CONFIGS / "closedform_box.json"),
                   "--out", str(tmp_path / "reach"), "--quiet"]),
        ("check", ["check", "--config", str(CONFIGS / "intersect10.json"),
                   "--quiet"]),
        ("verify", ["verify", "--config", str(verify_cfg),
                    "--out", str(tmp_path / "verify"), "--quiet"]),
    ]
    child = subprocess.run(
        [sys.executable, "-c", _PROBE, json.dumps(steps)],
        capture_output=True, text=True, timeout=120,
        env={**os.environ, "PYTHONPATH": str(Path(mm.__file__).parents[1])})
    assert child.returncode == 0, child.stderr
    seen = json.loads(child.stdout)
    assert seen["import"] == []
    assert seen["errors"] == "mmreach.errors"
    reach_layers = ["mmreach.cli", "mmreach.config", "mmreach.decomp",
                    "mmreach.embed", "mmreach.errors", "mmreach.exprlang",
                    "mmreach.geometry", "mmreach.multiorder", "mmreach.sysdef"]
    assert seen["reach"] == [0, reach_layers]
    assert seen["check"] == [0, reach_layers]
    code, after_verify = seen["verify"]
    assert code == 0
    assert after_verify == sorted([*reach_layers, "mmreach.oracle", "logging",
                                   "signal"])


def test_every_public_name_is_its_home_modules_object():
    assert len(mm.__all__) == len(set(mm.__all__))
    for name in mm.__all__:
        obj = getattr(mm, name)
        assert getattr(sys.modules[obj.__module__], name) is obj, name
    assert {*mm.__all__, "errors", "oracle"} <= set(dir(mm))
    assert mm.SampleConfig is mm.embed.SampleConfig is mm.oracle.SampleConfig


def test_an_unknown_name_is_an_attribute_error():
    with pytest.raises(AttributeError, match="has no attribute 'reach_everything'"):
        mm.reach_everything
    assert not hasattr(mm, "cli_main")
