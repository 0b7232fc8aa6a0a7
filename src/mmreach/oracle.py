"""Monte-Carlo trajectory sampling, containment audits, and occupancy areas.

Ground truth for the over-approximation pipeline: endpoints of randomly
disturbed trajectories must land inside computed regions, and grid occupancy
over endpoint clouds estimates the area of the true reachable set.
"""

from __future__ import annotations

import logging
from dataclasses import dataclass, field

import numpy as np

from .embed import ReachSpec, Trajectory, _rk4, _step_sizes
from .errors import DimensionMismatchError
from .geometry import (
    Box,
    Parallelotope,
    Polygon2D,
    Region,
    RegionIntersection,
    UnionInitialSet,
)

log = logging.getLogger(__name__)

CONTAINMENT_TOL = 1e-9
DEFAULT_CELL = 0.02

_CHUNK = 250_000
_BLOCK = 1 << 14  # rows integrated together: 256 KB per (N, 2) array
_CORNER_LEVEL_PROB = 0.2  # per-segment chance of an extreme disturbance level


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
        if self.count < 1:
            raise DimensionMismatchError(f"count must be >= 1, got {self.count}")
        if self.seed < 0:
            raise DimensionMismatchError(f"seed must be >= 0, got {self.seed}")
        if self.switch_count < 0:
            raise DimensionMismatchError(
                f"switch_count must be >= 0, got {self.switch_count}"
            )
        if self.init_mode not in ("uniform", "corners_plus_uniform"):
            raise DimensionMismatchError(
                f"init_mode must be 'uniform' or 'corners_plus_uniform', "
                f"got {self.init_mode!r}"
            )


@dataclass
class SampleResult:
    """Endpoint cloud with the number of excluded divergent trajectories."""

    points: np.ndarray
    divergent: int

    def __len__(self):
        return len(self.points)


@dataclass
class ContainmentReport:
    """Outcome of a membership audit of sampled points against a region."""

    total: int
    violations: int
    worst_margin: float
    witnesses: list = field(default_factory=list)

    @property
    def ok(self):
        """True when at least one point was audited and none violated: an
        audit of no point shows nothing about the region."""
        return self.total > 0 and self.violations == 0

    def to_jsonable(self):
        return {
            "total": self.total,
            "violations": self.violations,
            # the margin of no point is infinite, which JSON cannot hold
            "worst_margin": self.worst_margin if self.total else None,
            "witnesses": [list(map(float, w)) for w in self.witnesses],
        }


def _sample_initial(region, count, rng):
    """Uniform initial states: direct sampling for boxes, parallelotopes and
    one- or two-vertex polygons; rejection sampling from the bounding box,
    by the region's margins, for other polygons and unions."""
    if isinstance(region, Box):
        return rng.uniform(region.lo, region.hi, size=(count, region.dim))
    if isinstance(region, Parallelotope):
        coords = rng.uniform(
            region.coords.lo, region.coords.hi, size=(count, region.dim)
        )
        return coords @ region.shape.T
    if isinstance(region, Polygon2D):
        verts = region.vertices
        if len(verts) == 1:
            return np.tile(verts[0], (count, 1))
        if len(verts) == 2:  # degenerate hull: sample along the segment
            t = rng.uniform(0.0, 1.0, size=(count, 1))
            return verts[0] + t * (verts[1] - verts[0])
    if isinstance(region, (Polygon2D, UnionInitialSet)):
        return _rejection_sample(rng, region.bounding_box(), count,
                                 lambda batch: region.margins(batch) >= 0.0)
    raise DimensionMismatchError(f"cannot sample from {type(region).__name__}")


def _rejection_sample(rng, bbox, count, accept):
    out = np.empty((count, bbox.dim))
    have = 0
    while have < count:
        batch = rng.uniform(bbox.lo, bbox.hi, size=(max(count, 1024), bbox.dim))
        accepted = batch[accept(batch)]
        take = min(count - have, len(accepted))
        out[have : have + take] = accepted[:take]
        have += take
    return out


def _integrate_batch(system, X, levels, switch_steps, sizes):
    """Vectorized fixed-step 4th-order integration with piecewise-constant
    disturbances.

    Row ``r`` is driven by ``levels[r, k]`` over the steps at which ``k`` of
    its ``switch_steps`` have passed: a switch at step ``s`` in
    [0, len(sizes)] applies from step ``s`` on. Rows are independent, so the
    batch is integrated in blocks of _BLOCK rows, whose RK4 buffers and
    field results stay in a core's L2 cache; the blocks change no value.
    ``X`` is never written: the witness search reads it afterwards, and
    ``_rk4`` may receive it uncopied. Every row stays in the
    batch for every step: each RK4 update adds to the state, so a component
    that turns non-finite stays non-finite, and one finiteness test after
    the last step finds the diverged rows. Returns (endpoints of the alive
    rows in row order, alive mask).
    """
    out = np.empty(X.shape)
    for lo in range(0, len(X), _BLOCK):
        block = slice(lo, lo + _BLOCK)
        out[block] = _integrate_block(system, X[block], levels[block],
                                      switch_steps[block], sizes)
    alive = np.isfinite(out).all(axis=1)
    return out[alive], alive


def _integrate_block(system, X, levels, switch_steps, sizes):
    """``_integrate_batch`` of one row block: its final states, diverged
    rows included.

    The state and the disturbances are column-major (N, n) and (N, m)
    arrays, so the batch code's ``x[:, i]`` reads contiguous memory; the
    field and the in-place RK4 arithmetic keep that layout. The switch
    events are grouped by step once, and each step updates only the rows
    that switch there.
    """
    count, switch_count = switch_steps.shape
    # switch events grouped by step. The steps lie in [0, last] and so fit a
    # small integer type, which numpy sorts stably by radix.
    last = len(sizes)
    steps = switch_steps.ravel().astype(np.min_scalar_type(last))
    event_rows = np.argsort(steps, kind="stable")
    event_rows //= max(switch_count, 1)
    event_rows = event_rows.astype(np.int32)
    bounds = np.concatenate(([0], np.cumsum(np.bincount(steps, minlength=last + 1))))
    segment = np.zeros(count, dtype=np.int32)
    one = np.int32(1)  # an int32 increment keeps np.add.at on its fast path
    np.add.at(segment, event_rows[: bounds[1]], one)
    W = np.asfortranarray(levels[np.arange(count), segment])

    # the state is a one-part list: the block's (N, n) array
    def field(parts, _t):
        return [system.eval_field_batch(parts[0], W)]

    def post(_parts, parts, _t, s):
        if s + 1 < last:
            rows = event_rows[bounds[s + 1] : bounds[s + 2]]
            # one row can switch twice at the same step
            np.add.at(segment, rows, one)
            W[rows] = levels[rows, segment[rows]]
        return parts

    with np.errstate(all="ignore"):
        X, = _rk4(field, [np.asfortranarray(X)], sizes, post)
    return X


def _draw_signals(rng, count, switch_count, dist: Box, spec: ReachSpec, steps):
    """Levels (count, switch_count + 1, m) and switch steps (count,
    switch_count) of ``count`` piecewise-constant disturbance signals."""
    segments = switch_count + 1
    levels = rng.uniform(dist.lo, dist.hi, size=(count, segments, dist.dim))
    pick = rng.uniform(size=(count, segments))
    levels[pick < 0.5 * _CORNER_LEVEL_PROB] = dist.lo
    levels[(pick >= 0.5 * _CORNER_LEVEL_PROB) & (pick < _CORNER_LEVEL_PROB)] = dist.hi
    del pick  # release it before the switch draw so that draw can reuse its pages
    if switch_count == 0:
        return levels, np.zeros((count, 0), dtype=int)
    raw = rng.uniform(0.0, spec.horizon, size=(count, switch_count))
    return levels, np.clip(np.round(raw / spec.dt).astype(int), 0, steps)


def _trajectories(system, spec: ReachSpec, cfg: SampleConfig, draw_starts,
                  corners=()):
    """The one trajectory loop of the oracle: yields (starts, endpoints of
    the alive rows, alive mask) per integrated batch.

    The ``corners`` (start, constant disturbance) pairs, if any, come first
    as one batch. The other ``cfg.count - len(corners)`` trajectories follow
    in chunks of at most _CHUNK; each chunk draws its starts with
    ``draw_starts(rng, count)`` and then its disturbance signals.
    """
    sizes = _step_sizes(spec.horizon, spec.dt)
    rng = np.random.default_rng(cfg.seed)
    if corners:
        starts = np.array([c for c, _ in corners], dtype=float)
        levels = np.array([np.tile(w, (cfg.switch_count + 1, 1)) for _, w in corners])
        switches = np.zeros((len(corners), cfg.switch_count), dtype=int)
        yield (starts, *_integrate_batch(system, starts, levels, switches, sizes))
    for done in range(len(corners), cfg.count, _CHUNK):
        count = min(_CHUNK, cfg.count - done)
        starts = draw_starts(rng, count)
        levels, switches = _draw_signals(rng, count, cfg.switch_count,
                                         system.dist, spec, len(sizes))
        yield (starts, *_integrate_batch(system, starts, levels, switches, sizes))


def sample_endpoints(system, x0, spec: ReachSpec, cfg: SampleConfig):
    """Endpoints of ``cfg.count`` disturbed trajectories from ``x0``.

    Deterministic under a fixed seed. Divergent trajectories are excluded
    and counted in the result.
    """
    corners = ()
    if cfg.init_mode == "corners_plus_uniform":
        # corner starts under the two extreme constant signals come first
        extremes = (system.dist.lo, system.dist.hi)
        corners = [(c, w) for c in x0.corners() for w in extremes][: cfg.count]
    endpoints = []
    divergent = 0
    for _, X, alive in _trajectories(system, spec, cfg,
                                     lambda rng, count: _sample_initial(x0, count, rng),
                                     corners):
        divergent += int((~alive).sum())
        endpoints.append(X)
    if divergent:
        log.warning("excluded %d divergent trajectories of %d", divergent, cfg.count)
    return SampleResult(points=np.concatenate(endpoints), divergent=divergent)


def audit_containment(points, region, tol=CONTAINMENT_TOL):
    """Membership of every point in the region, with signed margins.

    Margins are the region's own ``margins``, measured in its native
    (transformed) coordinates. A list or tuple of regions is their union;
    wrap members in RegionIntersection to require membership in all of them.
    Points with margin < -tol count as violations; up to 10 worst witnesses
    are recorded. ``tol`` must be finite and nonnegative.
    """
    if not 0.0 <= tol < np.inf:  # a NaN tol would count no violation
        raise DimensionMismatchError(
            f"tol must be finite and nonnegative, got {tol}")
    if isinstance(region, (list, tuple)):
        region = UnionInitialSet(region)
    if not isinstance(region, Region):
        raise DimensionMismatchError(
            f"unsupported region type {type(region).__name__}"
        )
    pts = np.asarray(points, dtype=float)
    if pts.ndim != 2:
        pts = pts.reshape(-1, pts.shape[-1] if pts.ndim else 1)
    if len(pts) == 0:
        return ContainmentReport(total=0, violations=0, worst_margin=np.inf)
    margins = region.margins(pts)
    bad = margins < -tol
    violations = int(bad.sum())
    worst = float(margins.min())
    witnesses = []
    if violations:
        order = np.argsort(margins)
        for idx in order[: min(10, violations)]:
            witnesses.append(list(pts[idx]) + [float(margins[idx])])
    return ContainmentReport(
        total=len(pts), violations=violations, worst_margin=worst,
        witnesses=witnesses,
    )


def occupancy_area(points, cell=DEFAULT_CELL):
    """Occupied-cell area of a 2-D endpoint cloud: cells holding at least one
    point, times cell^2."""
    if cell <= 0:
        raise DimensionMismatchError(f"cell must be positive, got {cell}")
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return 0.0
    if pts.shape[1] != 2:
        raise DimensionMismatchError("occupancy area requires 2-D points")
    cells = np.floor(pts / cell).astype(np.int64)
    occupied = np.unique(cells, axis=0)
    return float(len(occupied)) * cell * cell


def backward_witnesses(system, x0: Parallelotope, spec: ReachSpec,
                       cfg: SampleConfig, search_box: Box):
    """Start states in ``search_box`` whose forward endpoint lands in ``x0``.

    Every returned point belongs to the true backward reachable set by
    construction, so it must lie inside any sound backward over-approximation.
    Returns an (k, n) array; logs a warning when no witnesses were found.
    """
    batches = _trajectories(system, spec, cfg, lambda rng, count: rng.uniform(
        search_box.lo, search_box.hi, size=(count, system.n)))
    witnesses = np.concatenate([starts[alive][x0.margins(X) >= -CONTAINMENT_TOL]
                                for starts, X, alive in batches])
    if len(witnesses) == 0:
        log.warning(
            "no backward witnesses found in %d samples; the target may be "
            "unreachable from the search box", cfg.count,
        )
    return witnesses


def simulate(system, x0, w, spec: ReachSpec):
    """Single trajectory under a constant or callable disturbance signal.

    ``w`` is either a constant vector or a callable t -> vector (evaluated at
    the stage times of each step).
    """
    w_of = w if callable(w) else (lambda _t, _w=[float(v) for v in w]: _w)
    times = [0.0]
    states = [np.array(x0, dtype=float).tolist()]

    def field(x, t):
        return system.field_values(x, w_of(t))

    def record(_x, x, t, _s):
        times.append(t)
        states.append(x)
        return x

    _rk4(field, states[0], _step_sizes(spec.horizon, spec.dt), record)
    times[-1] = spec.horizon
    return Trajectory(np.array(times), np.array(states))


def intersection_volume_mc(ptopes, samples=10**6, seed=0):
    """Monte-Carlo volume of an intersection of parallelotopes or boxes.

    Samples uniformly in the intersection of the members' bounding boxes.
    Returns (volume, ci95).
    """
    if not ptopes:
        raise DimensionMismatchError("no parallelotopes given")
    boxes = [p.bounding_box() for p in ptopes]
    lo = np.max([b.lo for b in boxes], axis=0)
    hi = np.min([b.hi for b in boxes], axis=0)
    if np.any(lo >= hi):
        return 0.0, 0.0
    box_vol = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    pts = rng.uniform(lo, hi, size=(samples, len(lo)))
    frac = (RegionIntersection(tuple(ptopes)).margins(pts) >= 0.0).mean()
    ci = 1.96 * float(np.sqrt(max(frac * (1.0 - frac), 0.0) / samples)) * box_vol
    return frac * box_vol, ci
