"""Every benchmark workload's ``reach`` result matches its committed reference.

``perfbench/reference/<workload>.result.json`` holds the ``result.json`` of
``mmreach reach`` on ``perfbench/configs/<workload>.json`` (underscores in
the config name become hyphens), without ``meta.timestamp``. A change that
moves any bound, in any digit, fails here.
"""

import json
from pathlib import Path

import pytest

from mmreach.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CONFIGS = sorted((PERFBENCH / "configs").glob("*.json"))


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_reach_matches_reference_byte_for_byte(tmp_path, config):
    assert main(["reach", "--config", str(config), "--out", str(tmp_path),
                 "--quiet"]) == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    del doc["meta"]["timestamp"]
    reference = PERFBENCH / "reference" / f"{config.stem.replace('_', '-')}.result.json"
    assert json.dumps(doc, indent=2) + "\n" == reference.read_text()
