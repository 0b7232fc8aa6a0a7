#!/usr/bin/env python3
"""mmreach benchmark: one workload through the ``mmreach`` CLI, checked.

Usage (from the root of a source checkout):

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

NAME is a workload below, or ``all`` for every workload in turn (the last
line then names each metric ``<workload>.<metric>``).

Every CLI run is a fresh ``python3 -m mmreach.cli`` process using the
checkout's ``src/``, with BLAS/OpenMP threads pinned to 1, started from this
one process, one at a time (a closed loop with one client). With
``--trace 0`` the CLI runs back to back for ``--seconds`` seconds (at least
once), each run between two runs of the reference process ``refload.py``,
and the end-to-end metrics are medians over those runs. With
``--trace 1`` the same untraced runs give a baseline, then the CLI runs
twice more in-process under ``traced.py``; the per-layer metrics come from
the first traced run, and the second must repeat its exact counts.

Every run's outputs are checked (see ``check_outputs``). The last line of
standard output is one JSON object with the keys ``correct``, ``attempted``,
``failed`` and ``metrics``; the lines before it hold the machine block and a
table with each metric's unit and sample count. The full record, including
every sample, is written to ``.perfbench_out/``.
"""

from __future__ import annotations

import argparse
import dataclasses
import hashlib
import json
import os
import platform
import shutil
import signal
import statistics
import subprocess
import sys
import threading
import time
from importlib import metadata
from pathlib import Path

import tracer

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
OUT = ROOT / ".perfbench_out"
REFERENCE = HERE / "reference"
REFLOAD = HERE / "refload.py"

CHILD_TIMEOUT_S = 150.0
SETUP_PROBES = 5  # at least; one more runs before each timed CLI run
THREAD_VARS = ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS",
               "NUMEXPR_NUM_THREADS", "VECLIB_MAXIMUM_THREADS")


@dataclasses.dataclass(frozen=True)
class Workload:
    name: str
    command: str  # reach | verify
    config: str  # config path relative to the checkout root
    seeded: bool  # whether the CLI receives the workload seed
    refload: str  # the refload.py kind of work that dominates this workload
    why: str


WORKLOADS = {
    w.name: w
    for w in (
        Workload("intersect10", "reach", "perfbench/configs/intersect10.json",
                 False, "scalar",
                 "10 rotated parallelotopes x 100 RK4 steps with the tight search, "
                 "intersected by clipping; no oracle work"),
        Workload("backward-verify", "verify", "perfbench/configs/backward_verify.json",
                 True, "batch",
                 "short backward reach, then 80,000 x 100-step oracle trajectories "
                 "searched for witnesses"),
        Workload("closedform-box", "reach", "perfbench/configs/closedform_box.json",
                 False, "scalar",
                 "one closed-form expression per decomposition call over 10,000 RK4 "
                 "steps; the tight search is bypassed"),
        Workload("union-verify", "verify", "perfbench/configs/union_verify.json",
                 True, "scalar",
                 "trig field, 3 union members, forward rejection sampling and a "
                 "union audit"),
    )
}

END_TO_END_UNITS = {
    "run_rel": "ref",
    "cpu_rel": "ref",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "bound_area": "area",
    "ok_rate": "ratio",
}

PER_LAYER_UNITS = {
    "decomp.evals": "count",
    "decomp.eval_s": "s",
    "decomp.eval_us": "us",
    "decomp.build_s": "s",
    "embed.rk4_steps": "count",
    "embed.integrate_s": "s",
    "embed.self_s": "s",
    "embed.step_us": "us",
    "exprlang.scalar_eval_ns": "ns",
    "exprlang.batch_row_ns": "ns",
    "multiorder.members": "count",
    "multiorder.member_max_s": "s",
    "geometry.clips": "count",
    "geometry.clip_s": "s",
    "oracle.traj_steps": "count",
    "oracle.sample_s": "s",
    "oracle.traj_steps_per_s": "1/s",
    "oracle.field_s": "s",
    "oracle.self_s": "s",
    "oracle.divergent": "count",
    "oracle.witness_yield": "ratio",
    "oracle.audit_points": "count",
    "oracle.audit_s": "s",
    "config.load_s": "s",
    "sysdef.transform_s": "s",
    "cli.self_s": "s",
    "trace.run_s": "s",
    "trace.overhead_s": "s",
}


@dataclasses.dataclass
class Sample:
    """One child process: wall and CPU seconds, peak RSS and exit code."""

    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    exit_code: int


class Tally:
    """Counts and problems of one benchmark invocation."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def record(self, label, problems):
        self.attempted += 1
        if problems:
            self.failed += 1
            self.problems.extend(f"{label}: {p}" for p in problems)
            for p in problems:
                print(f"FAILED {label}: {p}", file=sys.stderr)


def child_env():
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC)
    env.update({k: "1" for k in THREAD_VARS})
    return env


def spawn(argv, log_path, stdout=subprocess.DEVNULL):
    """Run ``argv`` from the checkout root; measure it with ``os.wait4``.

    ``ru_maxrss`` from ``wait4`` is this child's own peak, not a maximum
    over all children of this process.
    """
    with open(log_path, "wb") as log:
        start = time.perf_counter()
        proc = subprocess.Popen(argv, cwd=ROOT, env=child_env(),
                                stdout=stdout, stderr=log)
        timer = threading.Timer(CHILD_TIMEOUT_S, proc.kill)
        timer.start()
        try:
            _, status, usage = os.wait4(proc.pid, 0)
        except BaseException:
            proc.kill()
            proc.wait()
            raise
        finally:
            timer.cancel()
        wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return Sample(wall, usage.ru_utime + usage.ru_stime,
                  usage.ru_maxrss / 1024.0, proc.returncode)


def config_arg(workload):
    return str(ROOT / workload.config)


def cli_args(workload, command, seed, out_dir, extra=()):
    args = [command, "--config", config_arg(workload), "--out", str(out_dir), "--quiet"]
    if command == "verify" and workload.seeded:
        args += ["--seed", str(seed)]
    return args + list(extra)


def reference_doc(workload):
    return json.loads((REFERENCE / f"{workload.name}.result.json").read_text())


def without_timestamp(doc):
    doc = json.loads(json.dumps(doc))
    doc["meta"].pop("timestamp", None)
    return doc


def bound_area(doc):
    """Area of the reported planar bound: the intersection polygon if there
    is one, else the summed parallelotopes, else the last box."""
    if "intersection_polygon" in doc:
        v = doc["intersection_polygon"]
        return 0.5 * abs(sum(v[i][0] * v[i - 1][1] - v[i - 1][0] * v[i][1]
                             for i in range(len(v))))
    if doc["parallelotopes"]:
        total = 0.0
        for p in doc["parallelotopes"]:
            (a, b), (c, d) = p["shape"]
            total += abs(a * d - b * c) * ((p["hi"][0] - p["lo"][0])
                                           * (p["hi"][1] - p["lo"][1]))
        return total
    box = doc["boxes"][-1]
    return (box["hi"][0] - box["lo"][0]) * (box["hi"][1] - box["lo"][1])


def check_outputs(command, out_dir, exit_code, reference):
    """Problems with one CLI run's outputs; an empty list means correct.

    ``reach``: exit 0 and ``result.json`` equal to the reference, bit for
    bit, apart from ``meta.timestamp``. ``verify``: exit 0, at least one
    audited point, no violations and no divergent trajectories.
    """
    problems = []
    if exit_code != 0:
        problems.append(f"exit code {exit_code}")
    out_dir = Path(out_dir)
    if command == "reach":
        try:
            doc = json.loads((out_dir / "result.json").read_text())
        except (OSError, ValueError) as exc:
            return problems + [f"no readable result.json ({exc})"]
        if without_timestamp(doc) != reference:
            problems.append("result.json differs from the reference")
        return problems
    try:
        report = json.loads((out_dir / "verify_report.json").read_text())
        violations, divergent, total = (report[k] for k in
                                        ("violations", "divergent", "total"))
    except (OSError, ValueError, KeyError) as exc:
        return problems + [f"no readable verify_report.json ({exc!r})"]
    if violations != 0:
        problems.append(f"{violations} containment violations")
    if divergent != 0:
        problems.append(f"{divergent} divergent trajectories")
    if total < 1:
        problems.append("audit saw no points")
    return problems


def run_cli(run, workload, command, seed, out_dir, reference, extra=(), spans_path=None):
    """One checked CLI run in a fresh process, traced if ``spans_path`` is given."""
    if out_dir.exists():
        shutil.rmtree(out_dir)
    out_dir.mkdir(parents=True)
    args = cli_args(workload, command, seed, out_dir, extra)
    if spans_path is None:
        argv = [sys.executable, "-m", "mmreach.cli", *args]
    else:
        argv = [sys.executable, str(HERE / "traced.py"), str(spans_path), *args]
    sample = spawn(argv, out_dir / "stderr.log")
    run.record(f"{workload.name} {command}",
               check_outputs(command, out_dir, sample.exit_code, reference))
    return sample


def spawn_checked(argv, log_path):
    """``spawn`` for the benchmark's own processes: a failure is the
    benchmark's, so it ends the benchmark instead of counting as failed."""
    sample = spawn(argv, log_path)
    if sample.exit_code != 0:
        raise RuntimeError(f"{argv[1:]} exited {sample.exit_code}; see {log_path}")
    return sample


def setup_probe(workload, work_dir):
    """Seconds from a fresh interpreter to a validated config."""
    code = ("import mmreach\nfrom mmreach.config import load_config\n"
            f"load_config({config_arg(workload)!r})\n")
    return spawn_checked([sys.executable, "-c", code], work_dir / "setup.log").wall_s


def reference_run(workload, work_dir):
    """One run of ``refload.py`` with the workload's kind of work."""
    return spawn_checked([sys.executable, str(REFLOAD), workload.refload],
                         work_dir / "refload.log")


def measure(run, workload, seed, deadline, work_dir):
    """Untraced CLI runs back to back until ``deadline`` (at least one).

    A set-up probe and a reference run come before each CLI run, and one
    more reference run after the last, so that every CLI run sits between
    two reference runs. Another round starts only if the last one's
    duration still fits before the deadline. Returns the CLI samples, the
    reference samples (one more than CLI samples) and the set-up seconds.
    """
    command = workload.command
    reference = reference_doc(workload) if command == "reach" else None
    samples, refs, setup = [], [], []
    while True:
        round_start = time.perf_counter()
        setup.append(setup_probe(workload, work_dir))
        refs.append(reference_run(workload, work_dir))
        samples.append(run_cli(run, workload, command, seed, work_dir / "cli",
                               reference))
        now = time.perf_counter()
        if now + (now - round_start) > deadline:
            refs.append(reference_run(workload, work_dir))
            return samples, refs, setup


def bracketed_ratios(values, refs):
    """Each value divided by the mean of the two reference values around it:
    ``values[i] / ((refs[i] + refs[i + 1]) / 2)``."""
    return [v / (0.5 * (a + b)) for v, a, b in zip(values, refs, refs[1:])]


def checked_bound_area(out_dir):
    """``bound_area`` of the ``result.json`` in ``out_dir``, already checked."""
    try:
        return bound_area(json.loads((out_dir / "result.json").read_text()))
    except (OSError, ValueError, KeyError):  # already counted as failed
        return 0.0


def trace_layers(run, workload, seed, work_dir, baseline_s):
    """Two traced runs; layer metrics from the first, counts compared."""
    reference = reference_doc(workload) if workload.command == "reach" else None
    layers = []
    for i in range(2):
        spans_path = work_dir / f"spans{i}.json"
        sample = run_cli(run, workload, workload.command, seed, work_dir / f"traced{i}",
                         reference, spans_path=spans_path)
        try:
            spans, counters = tracer.load_spans(json.loads(spans_path.read_text()))
        except (OSError, ValueError) as exc:
            run.record(f"{workload.name} trace", [f"no readable spans ({exc})"])
            return None
        metrics = tracer.layer_metrics(spans, counters)
        metrics["trace.run_s"] = sample.wall_s
        metrics["trace.overhead_s"] = sample.wall_s - baseline_s
        layers.append(metrics)
    mismatched = [f"{k} {layers[0][k]} then {layers[1][k]}"
                  for k in tracer.EXACT_COUNTS if layers[0][k] != layers[1][k]]
    run.record(f"{workload.name} exact counts",
               [f"count changed between runs: {m}" for m in mismatched])
    expr_out = work_dir / "exprbench.json"
    with open(expr_out, "wb") as fh:
        expr = spawn([sys.executable, str(HERE / "exprbench.py"), config_arg(workload)],
                     work_dir / "exprbench.log", stdout=fh)
    if expr.exit_code != 0:
        run.record(f"{workload.name} exprbench", [f"exit code {expr.exit_code}"])
        return None
    layers[0].update(json.loads(expr_out.read_text()))
    return layers[0]


def src_digest():
    h = hashlib.sha256()
    for path in sorted((SRC / "mmreach").rglob("*")):
        if path.is_file() and path.suffix in (".py", ".json"):
            h.update(str(path.relative_to(SRC)).encode())
            h.update(path.read_bytes())
    return h.hexdigest()


def git_commit():
    if not (ROOT / ".git").exists():
        return None
    try:
        out = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, timeout=10,
                             capture_output=True, text=True)
    except (OSError, subprocess.TimeoutExpired):
        return None
    return out.stdout.strip() or None


def cpu_model():
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                return line.split(":", 1)[1].strip()
    except OSError:
        pass
    return platform.processor() or None


def machine_block():
    return {
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "cpu_model": cpu_model(),
        "python": platform.python_version(),
        "numpy": metadata.version("numpy"),
        "git_commit": git_commit(),
        "src_sha256": src_digest(),
        "thread_env": {k: os.environ.get(k) for k in THREAD_VARS},
        "child_thread_env": {k: "1" for k in THREAD_VARS},
        "load": "one benchmark process, one workload and one CLI process at a time",
    }


def summary(values):
    values = sorted(values)
    if len(values) < 2:
        return values[0], values[0], values[0]
    q1, q2, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, q2, q3


def run_workload(workload, seed, seconds, trace, machine):
    """Measure and check one workload; print its table; return the result."""
    deadline = time.perf_counter() + seconds
    work_dir = OUT / f"{workload.name}-{os.getpid()}"
    work_dir.mkdir(parents=True, exist_ok=True)
    run = Tally()
    # untimed warm-up: the first probe writes the bytecode caches and is
    # discarded. verify does not write the bound, so a verify workload runs
    # reach on its config once, checked, for bound_area.
    setup_probe(workload, work_dir)
    area_dir = work_dir / "cli"
    if workload.command == "verify":
        area_dir = work_dir / "reach"
        run_cli(run, workload, "reach", None, area_dir, reference_doc(workload))
    cli_seed = seed % 2**32  # numpy generators take non-negative seeds
    samples, refs, setup = measure(run, workload, cli_seed, deadline, work_dir)
    setup += [setup_probe(workload, work_dir) for _ in range(SETUP_PROBES - len(setup))]
    run_s = [s.wall_s for s in samples]
    cpu_s = [s.cpu_s for s in samples]
    end_to_end = {
        "run_rel": bracketed_ratios(run_s, [r.wall_s for r in refs]),
        "cpu_rel": bracketed_ratios(cpu_s, [r.cpu_s for r in refs]),
        "setup_s": setup,
        "peak_rss_mb": [s.peak_rss_mb for s in samples],
        "bound_area": [checked_bound_area(area_dir)],
    }
    layers = None
    if trace:
        layers = trace_layers(run, workload, cli_seed, work_dir, statistics.median(run_s))
    end_to_end["ok_rate"] = [(run.attempted - run.failed) / run.attempted]
    # shown, not gated: wall and CPU seconds, and those of the reference
    shown = {"run_s": run_s, "cpu_s": cpu_s, "refload_s": [r.wall_s for r in refs],
             "refload_cpu_s": [r.cpu_s for r in refs]}

    print(f"workload {workload.name}: {workload.why}")
    print(f"{'metric':<26}{'median':>16} {'unit':<7}{'q1':>14}{'q3':>14}  samples")
    units = {**END_TO_END_UNITS, **{name: "s" for name in shown}}
    for name, values in {**end_to_end, **shown}.items():
        q1, q2, q3 = summary(values)
        print(f"{name:<26}{q2:>16.6g} {units[name]:<7}"
              f"{q1:>14.6g}{q3:>14.6g}  {len(values)}")
    print(f"{'fail_rate':<26}{run.failed / run.attempted:>16.6g} {'ratio':<7}"
          f"{'':>14}{'':>14}  {run.attempted}")
    if layers is not None:
        for name, unit in PER_LAYER_UNITS.items():
            print(f"{name:<26}{layers[name]:>16.6g} {unit:<7}{'':>14}{'':>14}  1")

    if trace:
        metrics = {name: {"value": (layers or {}).get(name, 0.0), "unit": unit}
                   for name, unit in PER_LAYER_UNITS.items()}
    else:
        metrics = {name: {"value": statistics.median(values),
                          "unit": END_TO_END_UNITS[name]}
                   for name, values in end_to_end.items()}
    # trace_layers records a failure whenever it gives None
    result = {"correct": run.failed == 0, "attempted": run.attempted,
              "failed": run.failed, "metrics": metrics}
    record = {"workload": workload.name, "seed": seed, "seconds": seconds,
              "trace": trace, "machine": machine, "problems": run.problems,
              "samples": {**end_to_end, **shown}, "layers": layers, **result}
    (OUT / f"{workload.name}-seed{seed}-trace{trace}.json").write_text(
        json.dumps(record, indent=1) + "\n")
    shutil.rmtree(work_dir, ignore_errors=True)
    return result


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True, choices=[*WORKLOADS, "all"],
                        help="one workload, or all of them in turn")
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (SRC / "mmreach" / "cli.py").is_file():
        print(f"error: no mmreach sources under {SRC}; run from a source checkout",
              file=sys.stderr)
        return 2
    # turn SIGTERM into SystemExit so that spawn kills and reaps its child
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))
    machine = machine_block()
    print("machine " + json.dumps(machine))
    names = list(WORKLOADS) if args.workload == "all" else [args.workload]
    results = {name: run_workload(WORKLOADS[name], args.seed, args.seconds,
                                  args.trace, machine) for name in names}
    if len(results) == 1:
        print(json.dumps(results[names[0]]))
    else:
        print(json.dumps({
            "correct": all(r["correct"] for r in results.values()),
            "attempted": sum(r["attempted"] for r in results.values()),
            "failed": sum(r["failed"] for r in results.values()),
            "metrics": {f"{name}.{metric}": value for name, r in results.items()
                        for metric, value in r["metrics"].items()},
        }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
