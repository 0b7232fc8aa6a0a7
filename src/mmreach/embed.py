"""Embedding systems and fixed-step integration for box reachability.

One simulation of the 2n-dimensional embedding system bounds every disturbed
trajectory of the underlying system (forward in time); integrating the
embedding of the time-reversed field bounds backward reachable sets.
``reach_box`` is the one step from a decomposition method to a box: it
builds the decomposition and ``integrate`` steps it. Code that builds its
own decomposition (``combine``) calls ``integrate``. The oracle's
``SampleConfig`` sits here beside ``ReachSpec``, so that a configuration
names both without loading the oracle.
"""

from __future__ import annotations

import functools
import math
import numbers
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
from .exprlang import _compile, _guarded, _scalar_code
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


def _integer(name, value, least):
    """The integer ``value`` of the argument ``name`` as an int; a bool, a
    non-integer (which would fail only once sampling draws with it) or a
    value below ``least`` raises DimensionMismatchError."""
    if not isinstance(value, numbers.Integral) or isinstance(value, bool):
        raise DimensionMismatchError(f"{name} must be an integer, got {value!r}")
    if value < least:
        raise DimensionMismatchError(f"{name} must be >= {least}, got {value}")
    return int(value)


@dataclass(frozen=True)
class SampleConfig:
    """How to draw trajectory samples.

    ``switch_count`` piecewise-constant disturbance switches are placed
    uniformly over the horizon (snapped to the integration grid, which keeps
    the signals admissible). ``init_mode`` is "uniform" or
    "corners_plus_uniform"; the latter spends the first samples on corner
    initial states paired with the two extreme constant disturbance signals.
    """

    count: int
    seed: int = 0
    switch_count: int = 4
    init_mode: str = "uniform"

    def __post_init__(self):
        for name, least in (("count", 1), ("seed", 0), ("switch_count", 0)):
            # the sampler moves its PCG64 stream by offsets computed from
            # these, and PCG64.advance refuses a numpy integer
            object.__setattr__(self, name, _integer(name, getattr(self, name), least))
        if self.init_mode not in ("uniform", "corners_plus_uniform"):
            raise DimensionMismatchError(
                f"init_mode must be 'uniform' or 'corners_plus_uniform', "
                f"got {self.init_mode!r}"
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
    Callers skip it for a state that passes ``_order_test(n)``, so only a
    state out of order or with a NaN is sliced and compared pair by pair.
    """
    lower, upper = v[:n], v[n:]
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


@functools.cache
def _order_test(n):
    """``v[0] <= v[n] and ... and v[n - 1] <= v[2n - 1]`` as a function of
    the stacked state v, compiled once per n: true exactly when no pair is
    out of order or has a NaN, the states ``_ordered`` returns unchanged."""
    chain = " and ".join(f"v[{i}] <= v[{n + i}]" for i in range(n)) or "True"
    return _compile(f"def in_order(v):\n    return {chain}\n", "in_order")


def _step_sizes(horizon, dt):
    """Full ``dt`` steps up to ``horizon`` plus one shorter remainder step;
    a remainder at rounding scale is dropped."""
    n_full = int(np.floor(horizon / dt + 1e-12))
    remainder = horizon - n_full * dt
    sizes = [dt] * n_full
    if remainder >= 1e-12 * max(1.0, horizon):
        sizes.append(remainder)
    return sizes


# each RK4 stage: its time, and the factor c and the k of its state
# a + c * k (the first stage's state is the step's own)
_STAGES = (("t", None, None), ("t + hh", "hh", 1), ("t + hh", "hh", 2),
           ("t + h", "h", 3))


@functools.cache
def _float_step(p, code=None):
    """``make(f)``, which returns the RK4 step of p float parts,
    ``step(x, t, h)``: the list state one step of size h on from the list
    x at time t. Generated once per p and field code.

    The parts are unpacked into locals; each stage state is written out
    term by term, ``a_i + c * k_i``, and so is the new state,
    ``a_i + h6 * (k1_i + 2.0 * k2_i + 2.0 * k3_i + k4_i)``: the IEEE
    operations of the array path, in the same order. With ``code`` None,
    each stage calls the field ``f(v, t)``. Otherwise ``code`` is the field
    written out, the pair (statements, p expressions) of
    ``exprlang._scalar_code`` over the stage state v0, v1, ..., and a stage
    runs it inline when its state is in order (``_order_test(p // 2)``),
    nothing raises ArithmeticError or ValueError and the p values have a
    finite sum. Any other stage calls ``f``, the field in full, which snaps
    the state, takes the batch value or names the non-finite component.
    """
    def row(term):
        return ", ".join(term(i) for i in range(p))

    if code is not None:
        lines, exprs = code
        order = " and ".join(f"v{i} <= v{p // 2 + i}" for i in range(p // 2))
    body = [f"[{row(lambda i: f'a{i}')}] = x", "hh = 0.5 * h"]
    for j, (time, c, prev) in enumerate(_STAGES, 1):
        def state(i):
            return f"a{i}" if prev is None else f"a{i} + {c} * k{prev}_{i}"

        k = f"[{row(lambda i: f'k{j}_{i}')}]"
        if code is None:
            arg = "x" if prev is None else f"[{row(state)}]"
            body.append(f"{k} = f({arg}, {time})")
            continue
        # a finite left-to-right sum means finite values; where the sum
        # overflows, the component loop returns these values
        inline = _guarded(
            [*lines, *(f"k{j}_{i} = {e}" for i, e in enumerate(exprs)),
             f"fast = isfinite({' + '.join(f'k{j}_{i}' for i in range(p))})"],
            ["fast = False"])
        body += [*(f"v{i} = {state(i)}" for i in range(p)),
                 f"fast = {order or 'True'}",
                 "if fast:", *(f"    {line}" for line in inline),
                 "if not fast:",
                 f"    {k} = f([{row(lambda i: f'v{i}')}], {time})"]
    body += ["h6 = h / 6.0",
             "return [" + row(lambda i: f"a{i} + h6 * (k1_{i} + 2.0 * k2_{i} "
                                        f"+ 2.0 * k3_{i} + k4_{i})") + "]"]
    source = ("def make(f):\n    def step(x, t, h):\n"
              + "".join(f"        {line}\n" for line in body)
              + "    return step\n")
    return _compile(source, "make")


def _rk4(f, x, sizes, post, code=None):
    """Classical 4th-order Runge-Kutta over the step list ``sizes``.

    The state ``x`` is a list of parts (Python floats, or arrays), combined
    part by part; ``f(x, t)`` returns the field as a list of the same parts.
    After step ``s`` ends at time ``t``, ``post(x, x_new, t, s)`` does the
    caller's bookkeeping and returns the state to continue from. Returns the
    final state.

    Float parts run the step that ``_float_step`` generates for their count
    and ``code``: None, or the field written out, which then runs in place
    of ``f`` wherever it can. Array parts are combined in place, through
    the same IEEE operations in the same order: each stage state is built
    in one buffer per part that ``_rk4`` owns, and k2, k3 and k4 fold into
    k1, which becomes the new state. So ``f`` must return arrays that
    nothing else holds, and ``f`` and ``post`` must not keep the stage
    state they are given; the old state handed to ``post`` is never written.
    """
    if len(x) and isinstance(x[0], np.ndarray):
        buffers = [np.empty_like(a) for a in x]

        def stage(x, c, k):
            for a, b, o in zip(x, k, buffers):
                np.multiply(c, b, out=o)
                np.add(a, o, out=o)
            return buffers

        def step(x, t, h):
            hh = 0.5 * h
            k1 = f(x, t)
            k2 = f(stage(x, hh, k1), t + hh)
            k3 = f(stage(x, hh, k2), t + hh)
            k4 = f(stage(x, h, k3), t + h)
            h6 = h / 6.0
            for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4):
                np.add(b1, np.multiply(2.0, b2, out=b2), out=b1)
                np.add(b1, np.multiply(2.0, b3, out=b3), out=b1)
                np.add(b1, b4, out=b1)
                np.multiply(h6, b1, out=b1)
                np.add(a, b1, out=b1)
            return k1
    else:
        step = _float_step(len(x), code)(f)
    t = 0.0
    for s, h in enumerate(sizes):
        new = step(x, t, h)
        t += h
        x = post(x, new, t, s)
    return x


def _trajectory(f, x0, spec: ReachSpec, keep, diverged, code=None):
    """The float ``_rk4`` run of ``f`` and ``code`` from the list ``x0`` as
    a Trajectory, its final time pinned to the horizon. A non-finite state
    raises DivergenceError "``diverged`` near t=...", and an EvalError of
    ``f`` gains ``last_time``, the last time of a finite state. A finite
    state is recorded as ``keep(x, t)``, and the run goes on from that."""
    # the history is one flat buffer of C doubles, 8 bytes a value
    times = [0.0]
    states = array("d", x0)

    def record(_x, x, t, _s):
        # a finite sum has finite terms; only a sum that overflows or meets
        # an inf or NaN needs the part-by-part test
        if not (math.isfinite(sum(x)) or all(map(math.isfinite, x))):
            raise DivergenceError(f"{diverged} near t={t:.6g}", last_time=times[-1])
        x = keep(x, t)
        times.append(t)
        states.extend(x)
        return x

    try:
        _rk4(f, x0, _step_sizes(spec.horizon, spec.dt), record, code)
    except EvalError as exc:
        exc.last_time = times[-1]
        raise
    # the step list sums to the horizon up to rounding; pin the final time
    times[-1] = spec.horizon
    return Trajectory(np.array(times), np.frombuffer(states).reshape(len(times), len(x0)))


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
    in_order = _order_test(n)

    def rhs(v, t):
        if not in_order(v):
            v = _ordered(v, n, "inside a step near", t)
        return d.embedding_field(v)

    def keep(v, t):
        return v if in_order(v) else _ordered(v, n, "after the step to", t)

    code = None
    if d._trees is not None:
        # x_j is the stage state's v_j; w_k, a finite bound of the box, a
        # constant
        w = d.w_lo + d.w_hi
        lines, exprs = _scalar_code(d._trees, lambda v: (
            f"v{v.index}" if v.kind == "x" else repr(w[v.index])))
        code = tuple(lines), tuple(exprs)
    try:
        return _trajectory(rhs, x0.lo.tolist() + x0.hi.tolist(), spec, keep,
                           "embedding state diverged", code)
    except EvalError as exc:
        t = exc.last_time
        raise DivergenceError(f"embedding field diverged near t={t:.6g}: {exc}",
                              last_time=t) from exc


def reach_box(system, x0: Box, spec: ReachSpec, method="tight", **options):
    """Box over-approximation of the reachable set from ``x0`` at the horizon:
    the embedding of the ``method`` decomposition, integrated; for a backward
    ``spec``, of the time-reversed field. A ``closed_form`` decomposition,
    the one method whose diagonal is not the field by construction, is first
    spot-checked on the diagonal at points of ``x0``."""
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
    final = integrate(d, x0, spec).final_state
    return Box(final[:d.n], final[d.n:])
