#!/usr/bin/env python3
"""Write each workload's reference ``result.json`` from the current sources.

Usage: python3 perfbench/make_reference.py

Runs ``mmreach reach`` once per workload config and stores the result,
without ``meta.timestamp``, as ``perfbench/reference/<workload>.result.json``.
The committed references were taken at the commit that added the benchmark;
regenerate them only when a change to the results is intended and stated.
"""

import json
import shutil
import sys

import run


def main():
    for workload in run.WORKLOADS.values():
        out_dir = run.OUT / "reference" / workload.name
        shutil.rmtree(out_dir, ignore_errors=True)
        out_dir.mkdir(parents=True)
        argv = [sys.executable, "-m", "mmreach.cli",
                *run.cli_args(workload, "reach", None, out_dir)]
        sample = run.spawn(argv, out_dir / "stderr.log")
        if sample.exit_code != 0:
            print(f"{workload.name}: reach exited {sample.exit_code}", file=sys.stderr)
            return 1
        doc = run.without_timestamp(json.loads((out_dir / "result.json").read_text()))
        path = run.REFERENCE / f"{workload.name}.result.json"
        path.write_text(json.dumps(doc, indent=2) + "\n")
        print(f"{workload.name}: {sample.wall_s:.2f} s, bound area "
              f"{run.bound_area(doc)!r} -> {path.relative_to(run.ROOT)}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
