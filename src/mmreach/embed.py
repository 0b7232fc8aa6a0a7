"""Embedding systems and fixed-step integration for box reachability.

One simulation of the 2n-dimensional embedding system bounds every disturbed
trajectory of the underlying system (forward in time); integrating the
embedding of the time-reversed field bounds backward reachable sets.
``reach_box`` is the one step from a decomposition method to a box:
``embedding`` prepares the decomposition, ``integrate`` steps it. Code that
builds its own decomposition (``combine``) calls ``integrate``.
"""

from __future__ import annotations

import math
import operator
from array import array
from dataclasses import dataclass

import numpy as np

from .decomp import Decomposition, make_decomposition
from .errors import (
    DimensionMismatchError,
    DivergenceError,
    EvalError,
    StepOrderError,
)
from .geometry import Box
from .sysdef import reverse_time

ORDER_CLIP_TOL = 1e-9
DIAGONAL_TOL = 1e-6
MAX_STEPS = 10**8
DEFAULT_DT = 1e-3


@dataclass(frozen=True)
class ReachSpec:
    """Horizon, step size, and direction of a reachability run."""

    horizon: float
    dt: float = DEFAULT_DT
    direction: str = "forward"

    def __post_init__(self):
        # every comparison with NaN is false, so the checks below would pass it
        if not (math.isfinite(self.horizon) and math.isfinite(self.dt)):
            raise DimensionMismatchError(
                f"horizon and dt must be finite, got horizon={self.horizon}, "
                f"dt={self.dt}"
            )
        if self.horizon < 0:
            raise DimensionMismatchError(f"horizon must be >= 0, got {self.horizon}")
        if self.dt <= 0:
            raise DimensionMismatchError(f"dt must be positive, got {self.dt}")
        if self.horizon > 0 and self.dt > self.horizon:
            raise DimensionMismatchError(
                f"dt={self.dt} exceeds horizon={self.horizon}"
            )
        if self.horizon / self.dt > MAX_STEPS:
            raise DimensionMismatchError(
                f"horizon/dt = {self.horizon / self.dt:.3e} exceeds {MAX_STEPS:.0e} steps"
            )
        if self.direction not in ("forward", "backward"):
            raise DimensionMismatchError(
                f"direction must be 'forward' or 'backward', got {self.direction!r}"
            )


@dataclass(frozen=True)
class Trajectory:
    """Sampled trajectory: strictly increasing times, one state row per time."""

    times: np.ndarray
    states: np.ndarray

    def __post_init__(self):
        times = np.array(self.times, dtype=float).reshape(-1)
        states = np.array(self.states, dtype=float)
        if states.ndim != 2 or states.shape[0] != times.shape[0]:
            raise DimensionMismatchError(
                f"expected one state row per time: {states.shape} vs {times.shape}"
            )
        if times.size > 1 and not np.all(np.diff(times) > 0):
            raise DimensionMismatchError("times must be strictly increasing")
        if not (np.all(np.isfinite(times)) and np.all(np.isfinite(states))):
            raise DimensionMismatchError("trajectory contains non-finite entries")
        times.flags.writeable = False
        states.flags.writeable = False
        object.__setattr__(self, "times", times)
        object.__setattr__(self, "states", states)

    @property
    def final_state(self):
        return self.states[-1]


def _ordered(v, n, where, t):
    """The stacked embedding state ``v`` (a list of 2n floats) with
    rounding-scale order noise clipped.

    Violations within 1e-9 are snapped to exact order (both endpoints move to
    the midpoint); anything larger aborts, since a real violation signals a
    bad decomposition or step size. An ordered state, or one with a NaN
    difference, keeps its values; the list returned may or may not be ``v``.
    """
    lower, upper = v[:n], v[n:]
    if all(map(operator.le, lower, upper)):
        return v
    diff = [a - b for a, b in zip(lower, upper)]
    if any(x != x for x in diff):
        return v
    worst = max(diff)
    if worst > ORDER_CLIP_TOL:
        raise StepOrderError(
            f"order violation {worst:.3e} {where} t={t:.6g}; retry with a smaller dt"
        )
    for i, x in enumerate(diff):
        if x > 0.0:
            lower[i] = upper[i] = 0.5 * (lower[i] + upper[i])
    return lower + upper


def _step_sizes(horizon, dt):
    """Full ``dt`` steps up to ``horizon`` plus one shorter remainder step;
    a remainder at rounding scale is dropped."""
    n_full = int(np.floor(horizon / dt + 1e-12))
    remainder = horizon - n_full * dt
    sizes = [dt] * n_full
    if remainder >= 1e-12 * max(1.0, horizon):
        sizes.append(remainder)
    return sizes


def _rk4(f, x, sizes, post):
    """Classical 4th-order Runge-Kutta over the step list ``sizes``.

    The state ``x`` is a list of parts (Python floats, or arrays), combined
    part by part; ``f(x, t)`` returns the field as a list of the same parts.
    After step ``s`` ends at time ``t``, ``post(x, x_new, t, s)`` does the
    caller's bookkeeping and returns the state to continue from. Returns the
    final state.
    """
    t = 0.0
    for s, h in enumerate(sizes):
        hh = 0.5 * h
        k1 = f(x, t)
        k2 = f([a + hh * b for a, b in zip(x, k1)], t + hh)
        k3 = f([a + hh * b for a, b in zip(x, k2)], t + hh)
        k4 = f([a + h * b for a, b in zip(x, k3)], t + h)
        t += h
        h6 = h / 6.0
        x = post(x, [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
                     for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)], t, s)
    return x


def integrate(d: Decomposition, x0: Box, spec: ReachSpec):
    """Classical fixed-step 4th-order integration of the embedding system of
    ``d`` from the state [x0.lo, x0.hi].

    Every stored state keeps lower <= upper exactly; the final time equals
    the horizon (a shorter last step absorbs any remainder). Non-finite
    states raise DivergenceError with the last valid time.
    """
    n = d.n
    if x0.dim != n:
        raise DimensionMismatchError(
            f"initial state has dimension {x0.dim}, embedding expects {n}"
        )
    v0 = x0.lo.tolist() + x0.hi.tolist()
    # the state is a list of 2n floats; the history is one flat buffer of
    # C doubles, 8 bytes a value, which becomes the Trajectory at the end
    times = [0.0]
    states = array("d", v0)

    def rhs(v, t):
        return d.embedding_field(_ordered(v, n, "inside a step near", t))

    def record(_v, v, t, _s):
        if not all(map(math.isfinite, v)):
            raise DivergenceError(
                f"embedding state diverged near t={t:.6g}", last_time=times[-1]
            )
        v = _ordered(v, n, "after the step to", t)
        times.append(t)
        states.extend(v)
        return v

    try:
        _rk4(rhs, v0, _step_sizes(spec.horizon, spec.dt), record)
    except EvalError as exc:
        raise DivergenceError(
            f"embedding field diverged near t={times[-1]:.6g}: {exc}",
            last_time=times[-1],
        ) from exc
    # the step list sums to the horizon up to rounding; pin the final time
    times[-1] = spec.horizon
    return Trajectory(np.array(times), np.frombuffer(states).reshape(len(times), 2 * n))


def embedding(system, x0: Box, spec: ReachSpec, method="tight", **options):
    """The ``method`` decomposition whose embedding ``reach_box`` integrates:
    of the time-reversed field for a backward ``spec``. A ``closed_form``
    decomposition, the one method whose diagonal is not the field by
    construction, is spot-checked on the diagonal at points of ``x0``."""
    field = "field"
    if spec.direction == "backward":
        system, field = reverse_time(system), "time-reversed field"
    d = make_decomposition(system, method, **options)
    if method == "closed_form":
        # d(x, w, x, w) = F(x, w) at the centre and extreme corners of x0,
        # with w at the centre of its box
        wc = system.dist.center.tolist()
        for p in (x0.center.tolist(), x0.lo.tolist(), x0.hi.tolist()):
            gap = np.abs(d.evaluate(p, wc, p, wc) - system.eval_field(p, wc))
            if float(np.max(gap)) > DIAGONAL_TOL:
                raise EvalError(f"closed_form decomposition does not match the "
                                f"{field} on the diagonal", f"at x={p}")
    return d


def reach_box(system, x0: Box, spec: ReachSpec, method="tight", **options):
    """Box over-approximation of the reachable set from ``x0`` at the horizon:
    the ``embedding`` for ``method``, integrated."""
    d = embedding(system, x0, spec, method, **options)
    final = integrate(d, x0, spec).final_state
    return Box(final[:d.n], final[d.n:])
