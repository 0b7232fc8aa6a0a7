"""Every benchmark workload's ``reach`` result matches its committed reference.

``perfbench/reference/<workload>.result.json`` holds the ``result.json`` of
``mmreach reach`` on ``perfbench/configs/<workload>.json`` (underscores in
the config name become hyphens), without ``meta.timestamp``. A change that
moves any bound, in any digit, fails here. The six shipped presets are
pinned the same way, by the SHA-256 of their ``result.json`` at --dt 0.02.
"""

import hashlib
import json
from pathlib import Path

import pytest

from mmreach.cli import main

PERFBENCH = Path(__file__).resolve().parent.parent / "perfbench"
CONFIGS = sorted((PERFBENCH / "configs").glob("*.json"))


def _reach_result(tmp_path, config, *options):
    """The ``result.json`` of ``mmreach reach`` on ``config``, without
    ``meta.timestamp``, serialized as the references are."""
    assert main(["reach", "--config", config, *options, "--out", str(tmp_path),
                 "--quiet"]) == 0
    doc = json.loads((tmp_path / "result.json").read_text())
    del doc["meta"]["timestamp"]
    return json.dumps(doc, indent=2) + "\n"


@pytest.mark.parametrize("config", CONFIGS, ids=lambda p: p.stem)
def test_reach_matches_reference_byte_for_byte(tmp_path, config):
    reference = PERFBENCH / "reference" / f"{config.stem.replace('_', '-')}.result.json"
    assert _reach_result(tmp_path, str(config)) == reference.read_text()


# SHA-256 of each shipped preset's ``_reach_result`` at --dt 0.02
PRESET_DIGESTS = {
    "example1": "e61871c70052a13498d2b30646883f83f317ebf1bd520909efdfbd4e966f5cf5",
    "example1_backward": "dd1d2e3d667933ad8967cfdd338c8a7e66dea0860cd3b4817e4ecf82b469de4e",
    "example2": "7c00269e613bbfcfce8ea5d83026e8e43a9f8f6a301d58a9d2740b87331ae768",
    "example3": "c4d99888a2030623e39cf684c2783a43cac6c3f47a1578e900e8eb37bd82438e",
    "hexagon": "0fb0f0f636ae698795b5e1de3076ae7a600d959e0288b835423d802bc8d33cdd",
    "hexagon_overlap": "20b8ddf2716037e908191c2f4a002fb96bde2ad721347ed05fed874e75f7a393",
}


@pytest.mark.parametrize("preset", sorted(PRESET_DIGESTS))
def test_preset_reach_matches_its_digest(tmp_path, preset):
    text = _reach_result(tmp_path, preset, "--dt", "0.02")
    assert hashlib.sha256(text.encode()).hexdigest() == PRESET_DIGESTS[preset]
