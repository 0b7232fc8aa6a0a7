"""Time a workload's compiled field expressions on fixed points.

Usage: python3 perfbench/exprbench.py CONFIG

Loads CONFIG (a preset name or a file) and times the ``exprlang`` code the
embedding and the oracle run: each field component's ``scalar_fn`` over
2,000 fixed points, and its ``batch_fn`` over a 20,000-row array. The points
are drawn from a fixed seed, independent of the workload seed. Prints one
JSON object: nanoseconds per scalar evaluation and per batch row, each per
component and the median of several repeats.
"""

import json
import statistics
import sys
import time

import numpy as np

from mmreach.config import load_config

SCALAR_POINTS = 2_000
BATCH_ROWS = 20_000
REPEATS = 9


def _median_ns(fn, per):
    times = []
    for _ in range(REPEATS):
        start = time.perf_counter_ns()
        fn()
        times.append(time.perf_counter_ns() - start)
    return statistics.median(times) / per


def main(config):
    system = load_config(config).system
    rng = np.random.default_rng(12345)
    X = rng.uniform(-1.0, 1.0, size=(BATCH_ROWS, system.n))
    W = rng.uniform(system.dist.lo, system.dist.hi, size=(BATCH_ROWS, system.m))
    scalar_fns = [e.scalar_fn() for e in system.field]
    batch_fns = [e.batch_fn() for e in system.field]
    points = [(list(X[i]), list(W[i])) for i in range(SCALAR_POINTS)]

    def scalar():
        for fn in scalar_fns:
            for x, w in points:
                fn(x, w)

    def batch():
        for fn in batch_fns:
            fn(X, W)

    k = len(scalar_fns)
    return {
        "exprlang.scalar_eval_ns": _median_ns(scalar, k * SCALAR_POINTS),
        "exprlang.batch_row_ns": _median_ns(batch, k * BATCH_ROWS),
    }


if __name__ == "__main__":
    print(json.dumps(main(sys.argv[1])))
