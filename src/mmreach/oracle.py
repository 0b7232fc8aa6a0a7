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
    ptope_vertices,
)

log = logging.getLogger(__name__)

CONTAINMENT_TOL = 1e-9
DEFAULT_CELL = 0.02

_CHUNK = 250_000
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
        return self.violations == 0

    def to_jsonable(self):
        return {
            "total": self.total,
            "violations": self.violations,
            "worst_margin": self.worst_margin,
            "witnesses": [list(map(float, w)) for w in self.witnesses],
        }


def _region_corners(region):
    if isinstance(region, Box):
        return region.corners()
    if isinstance(region, Parallelotope):
        return ptope_vertices(region)
    if isinstance(region, UnionInitialSet):
        return [v for m in region.members for v in _region_corners(m)]
    if isinstance(region, Polygon2D):
        return list(region.vertices)
    raise DimensionMismatchError(f"cannot enumerate corners of {type(region).__name__}")


def _sample_initial(region, count, rng):
    """Uniform initial states: direct coordinate sampling for boxes and
    parallelotopes, rejection sampling from the bounding box for unions."""
    if isinstance(region, Box):
        return rng.uniform(region.lo, region.hi, size=(count, region.dim))
    if isinstance(region, Parallelotope):
        coords = rng.uniform(
            region.coords.lo, region.coords.hi, size=(count, region.dim)
        )
        return coords @ region.shape.T
    if isinstance(region, UnionInitialSet):
        return _rejection_sample(rng, region.bounding_box(), count,
                                 lambda batch: region.margins(batch) >= 0.0)
    if isinstance(region, Polygon2D):
        verts = region.vertices
        if len(verts) == 1:
            return np.tile(verts[0], (count, 1))
        if len(verts) == 2:  # degenerate hull: sample along the segment
            t = rng.uniform(0.0, 1.0, size=(count, 1))
            return verts[0] + t * (verts[1] - verts[0])
        edges = [(verts[i], verts[(i + 1) % len(verts)])
                 for i in range(len(verts))]

        # not margins: this unnormalized edge test rounds differently
        def inside_poly(batch):
            ok = np.ones(len(batch), dtype=bool)
            for a, b in edges:
                e = b - a
                ok &= (e[0] * (batch[:, 1] - a[1])
                       - e[1] * (batch[:, 0] - a[0])) >= -1e-12
            return ok

        return _rejection_sample(rng, region.bounding_box(), count, inside_poly)
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
    disturbances. Rows that turn non-finite keep their last finite state.
    Returns (endpoints, alive mask)."""
    rows = np.arange(X.shape[0])
    alive = np.ones(X.shape[0], dtype=bool)

    def level_at(s):
        return levels[rows, (switch_steps <= s).sum(axis=1), :]

    W = level_at(0)

    def field(X, _t):
        return system.eval_field_batch(X, W)

    def freeze(X, X_new, _t, s):
        nonlocal W, alive
        good = np.all(np.isfinite(X_new), axis=1)
        alive &= good
        if s + 1 < len(sizes):
            W = level_at(s + 1)
        return np.where(good[:, None], X_new, X)

    with np.errstate(all="ignore"):
        X = _rk4(field, X, sizes, freeze)
    return X, alive


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


def sample_endpoints(system, x0, spec: ReachSpec, cfg: SampleConfig):
    """Endpoints of ``cfg.count`` disturbed trajectories from ``x0``.

    Deterministic under a fixed seed. Divergent trajectories are excluded
    and counted in the result.
    """
    sizes = _step_sizes(spec.horizon, spec.dt)
    rng = np.random.default_rng(cfg.seed)

    starts_blocks = []
    levels_blocks = []
    switches_blocks = []
    remaining = cfg.count

    if cfg.init_mode == "corners_plus_uniform":
        # corner starts under the two extreme constant signals come first
        extremes = (system.dist.lo, system.dist.hi)
        pairs = [(c, w) for c in _region_corners(x0) for w in extremes][:remaining]
        starts_blocks.append(np.array([np.asarray(c, dtype=float) for c, _ in pairs]))
        segments = cfg.switch_count + 1
        levels_blocks.append(np.array([np.tile(w, (segments, 1)) for _, w in pairs]))
        switches_blocks.append(np.zeros((len(pairs), cfg.switch_count), dtype=int))
        remaining -= len(pairs)

    if remaining > 0:
        starts_blocks.append(_sample_initial(x0, remaining, rng))
        levels, switches = _draw_signals(rng, remaining, cfg.switch_count,
                                         system.dist, spec, len(sizes))
        levels_blocks.append(levels)
        switches_blocks.append(switches)

    starts = np.concatenate(starts_blocks)
    levels = np.concatenate(levels_blocks)
    switches = np.concatenate(switches_blocks)

    endpoints = []
    divergent = 0
    if len(sizes) == 0:  # zero horizon
        return SampleResult(points=starts, divergent=0)
    for start in range(0, cfg.count, _CHUNK):
        stop = min(start + _CHUNK, cfg.count)
        X, alive = _integrate_batch(
            system, starts[start:stop].copy(), levels[start:stop],
            switches[start:stop], sizes,
        )
        divergent += int((~alive).sum())
        endpoints.append(X[alive])
    points = np.concatenate(endpoints) if endpoints else np.empty((0, system.n))
    if divergent:
        log.warning("excluded %d divergent trajectories of %d", divergent, cfg.count)
    return SampleResult(points=points, divergent=divergent)


def audit_containment(points, region, tol=CONTAINMENT_TOL):
    """Membership of every point in the region, with signed margins.

    Margins are the region's own ``margins``, measured in its native
    (transformed) coordinates. A list or tuple of regions is their union;
    wrap members in RegionIntersection to require membership in all of them.
    Points with margin < -tol count as violations; up to 10 worst witnesses
    are recorded.
    """
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
    sizes = _step_sizes(spec.horizon, spec.dt)
    rng = np.random.default_rng(cfg.seed)

    found = []
    for start in range(0, cfg.count, _CHUNK):
        count = min(_CHUNK, cfg.count - start)
        starts = rng.uniform(search_box.lo, search_box.hi, size=(count, system.n))
        levels, switches = _draw_signals(rng, count, cfg.switch_count,
                                         system.dist, spec, len(sizes))
        X, alive = _integrate_batch(system, starts.copy(), levels, switches, sizes)
        coords = X @ x0.shape_inv.T
        # not margins: `c >= lo - tol` rounds unlike `c - lo >= -tol`
        inside = np.all(
            (coords >= x0.coords.lo - CONTAINMENT_TOL)
            & (coords <= x0.coords.hi + CONTAINMENT_TOL),
            axis=1,
        )
        found.append(starts[inside & alive])
    witnesses = np.concatenate(found) if found else np.empty((0, system.n))
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
    states = [np.array(x0, dtype=float)]

    def field(x, t):
        return np.array(system.field_values(x.tolist(), w_of(t)))

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
