"""Reference process: a fixed piece of work that does not use mmreach.

Usage: python3 perfbench/refload.py scalar|batch

``run.py`` runs it before and after every timed CLI run and divides the
CLI's wall and CPU time by this process's. On a shared host, other tenants
slow every process on a core by up to half, for seconds to minutes at a
time, and process CPU time slows with wall time. A process started next to
the CLI run sees the same slowdown, so the ratio keeps the program's own
cost. The slowdown hits interpreted scalar code harder than numpy loops over
large arrays, so there are two kinds of work, and each workload is divided
by the kind that dominates it:

- ``scalar``: the interpreter loop of an RK4 step over small arrays, as in
  ``embed`` and the decompositions;
- ``batch``: RK4 steps over 80,000 rows at once, as in the oracle.

Both start with the interpreter and the numpy import, as a CLI run does.
Do not change them: the ratios of two commits compare only while the
reference work stays the same.
"""

import sys

import numpy as np


def scalar():
    x = np.zeros(2)
    k = np.ones(2)
    total = 0.0
    for _ in range(40_000):
        y = x + 0.5 * k
        total += max(float(y[0]), 0.0) * float(y[1]) + min(float(y[0]), 0.0)
        x = y * 0.999
    return total


def batch():
    def field(x):
        return np.stack([np.maximum(x[:, 0], 0.0) * x[:, 1]
                         + 0.5 * np.minimum(x[:, 0], 0.0), x[:, 0] + 1.0], axis=1)

    x = np.random.default_rng(0).uniform(-1.0, 1.0, (80_000, 2))
    h = 0.005
    for _ in range(25):
        k1 = field(x)
        k2 = field(x + 0.5 * h * k1)
        k3 = field(x + 0.5 * h * k2)
        k4 = field(x + h * k3)
        x = x + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
    return float(x.sum())


KINDS = {"scalar": scalar, "batch": batch}

if __name__ == "__main__":
    if len(sys.argv) != 2 or sys.argv[1] not in KINDS:
        sys.exit(f"usage: {sys.argv[0]} {'|'.join(KINDS)}")
    KINDS[sys.argv[1]]()
