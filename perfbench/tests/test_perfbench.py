"""Tests of the benchmark itself: span arithmetic, output checks, tracing."""

import json
import shutil
import subprocess
import sys
from collections import Counter
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE.parent))

import run  # noqa: E402
import tracer  # noqa: E402

TINY_VERIFY = run.Workload("tiny-verify", "verify", "perfbench/tests/tiny_verify.json",
                           True, "batch", "closed-form box, 2,000 trajectories")
TINY_INTERSECT = run.Workload("tiny-intersect", "verify",
                              "perfbench/tests/tiny_intersect.json", True, "scalar",
                              "3 rotations with the tight search")


def test_self_time_of_a_synthetic_span_tree():
    spans = [
        ["root", 0.0, 10.0, -1],
        ["a", 1.0, 4.0, 0],
        ["a.x", 1.5, 2.0, 1],
        ["b", 5.0, 9.0, 0],
        ["b.x", 5.0, 7.0, 3],  # two overlapping children: 5..8 covered, not 5
        ["b.y", 6.0, 8.0, 3],
        ["c", 9.5, 11.0, 0],  # sticks out of the root: only 9.5..10 is covered
    ]
    got = tracer.self_times(spans)
    want = [10.0 - 3.0 - 4.0 - 0.5, 3.0 - 0.5, 0.5, 4.0 - 3.0, 2.0, 2.0, 1.5]
    assert got == pytest.approx(want)
    # self times of a properly nested tree add up to the root's duration
    nested = spans[:4]
    assert sum(tracer.self_times(nested)) == pytest.approx(10.0)


def test_layer_metrics_take_outermost_spans_and_counters():
    ev = tracer.EVAL
    spans = [
        ["cli.main", 0.0, 10.0, -1],
        ["embed.integrate", 1.0, 7.0, 0],
        [ev, 1.0, 2.0, 1],
        [ev, 1.2, 1.8, 2],  # nested evaluation (a combined decomposition)
        [ev, 3.0, 4.0, 1],
        ["oracle.sample_endpoints", 7.0, 9.0, 0],
        [tracer.FIELD_BATCH, 7.5, 8.5, 5],
    ]
    counters = Counter({"embed.rk4_steps": 4, "oracle.field_rows": 400,
                        "oracle.trajectories": 50, "oracle.audit_points": 40})
    m = tracer.layer_metrics(spans, counters)
    assert m["decomp.evals"] == 2
    assert m["decomp.eval_s"] == pytest.approx(2.0)
    assert m["decomp.eval_us"] == pytest.approx(1e6)
    assert m["embed.integrate_s"] == pytest.approx(6.0)
    assert m["embed.self_s"] == pytest.approx(4.0)
    assert m["embed.step_us"] == pytest.approx(1.5e6)
    assert m["oracle.traj_steps"] == 100
    assert m["oracle.sample_s"] == pytest.approx(2.0)
    assert m["oracle.field_s"] == pytest.approx(1.0)
    assert m["oracle.self_s"] == pytest.approx(1.0)
    assert m["oracle.traj_steps_per_s"] == pytest.approx(50.0)
    assert m["oracle.witness_yield"] == pytest.approx(0.8)
    assert m["cli.self_s"] == pytest.approx(2.0)
    assert m["geometry.clips"] == 0 and m["geometry.clip_s"] == 0.0


def test_bound_area_of_each_result_kind():
    box = {"parallelotopes": [], "boxes": [{"t": 1.0, "lo": [0, 0], "hi": [2, 3]}]}
    assert run.bound_area(box) == pytest.approx(6.0)
    ptopes = {"parallelotopes": [
        {"shape": [[1.0, 1.0], [0.0, 2.0]], "lo": [0, 0], "hi": [1, 1]},
        {"shape": [[1.0, 0.0], [0.0, 1.0]], "lo": [0, 0], "hi": [1, 3]},
    ], "boxes": []}
    assert run.bound_area(ptopes) == pytest.approx(2.0 + 3.0)
    square = {"intersection_polygon": [[0, 0], [2, 0], [2, 2], [0, 2]]}
    assert run.bound_area(square) == pytest.approx(4.0)


def test_each_run_is_divided_by_the_mean_of_the_reference_runs_around_it():
    ratios = run.bracketed_ratios([6.0, 3.0], [1.0, 3.0, 3.0])
    assert ratios == pytest.approx([3.0, 1.0])


def test_committed_references_give_positive_areas():
    for workload in run.WORKLOADS.values():
        doc = run.reference_doc(workload)
        assert "timestamp" not in doc["meta"]
        assert run.bound_area(doc) > 0.0


def test_reach_output_must_match_the_reference(tmp_path):
    reference = run.reference_doc(run.WORKLOADS["closedform-box"])
    doc = json.loads(json.dumps(reference))
    doc["meta"]["timestamp"] = 123.0
    (tmp_path / "result.json").write_text(json.dumps(doc))
    assert run.check_outputs("reach", tmp_path, 0, reference) == []
    doc["boxes"][-1]["hi"][0] = reference["boxes"][-1]["hi"][0] + 1e-15
    (tmp_path / "result.json").write_text(json.dumps(doc))
    assert run.check_outputs("reach", tmp_path, 0, reference) == [
        "result.json differs from the reference"]
    assert run.check_outputs("reach", tmp_path, 1, reference)[0] == "exit code 1"


def test_planted_debug_scale_failure_counts_as_failed(tmp_path):
    bench = run.Tally()
    run.run_cli(bench, TINY_VERIFY, "verify", 7, tmp_path / "ok", None)
    assert (bench.attempted, bench.failed) == (1, 0)
    sample = run.run_cli(bench, TINY_VERIFY, "verify", 7, tmp_path / "planted", None,
                         extra=["--debug-scale", "0.5"])
    assert sample.exit_code == 2
    assert (bench.attempted, bench.failed) == (2, 1)
    assert any("containment violations" in p for p in bench.problems)


def test_seed_reaches_verify_but_not_reach():
    assert "--seed" in run.cli_args(TINY_VERIFY, "verify", 5, "out")
    assert "--seed" not in run.cli_args(TINY_VERIFY, "reach", 5, "out")


def test_traced_run_wraps_from_import_bindings_and_repeats_counts(tmp_path):
    bench = run.Tally()
    layers = run.trace_layers(bench, TINY_INTERSECT, 3, tmp_path, baseline_s=0.0)
    assert bench.failed == 0, bench.problems
    # 3 rotations x 10 steps x 4 stages x 2n components
    assert layers["decomp.evals"] == 3 * 10 * 4 * 4
    assert layers["embed.rk4_steps"] == 30
    assert layers["multiorder.members"] == 3
    assert layers["geometry.clips"] == 2
    assert layers["oracle.traj_steps"] == 1000 * 10
    assert layers["oracle.audit_points"] == 1000
    assert layers["sysdef.transform_s"] > 0.0
    assert layers["exprlang.scalar_eval_ns"] > 0.0
    assert set(run.PER_LAYER_UNITS) == set(layers)
    names = set(json.loads((tmp_path / "spans0.json").read_text())["names"])
    # bound where the caller looks them up: multiorder's and cli's own names
    assert {"sysdef.transform", "multiorder.reach_intersection",
            "oracle.sample_endpoints", "cli.main"} <= names


def test_benchmark_refuses_to_run_without_sources(tmp_path):
    shutil.copytree(HERE.parent, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "closedform-box",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert proc.returncode != 0
    assert proc.stdout == ""
