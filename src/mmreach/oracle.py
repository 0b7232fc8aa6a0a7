"""Monte-Carlo trajectory sampling, containment audits, and occupancy areas.

Ground truth for the over-approximation pipeline: endpoints of randomly
disturbed trajectories must land inside computed regions, and grid occupancy
over endpoint clouds estimates the area of the true reachable set.
"""

from __future__ import annotations

import contextlib
import logging
import math
import os
import pickle
import signal
import warnings
from dataclasses import dataclass, field

import numpy as np

from .embed import ReachSpec, _rk4, _step_sizes, _trajectory
from .errors import DimensionMismatchError, GeometryError, MmreachError
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

_CHUNK = 250_000  # rows per chunk: fixes the layout of the random stream
_BLOCK = 1 << 14  # rows integrated together: 256 KB per (N, 2) array
_MIN_AREA_RATIO = 1e-9  # of a rejection-sampled region to its bounding box
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
    by the region's margins, for other polygons and unions.

    Before any draw, a union whose every member is flatter than its
    bounding box (a zero-width side where the box has none) raises
    GeometryError, and so does a polygon or union whose area is below
    _MIN_AREA_RATIO of its bounding box's: few or no draws from the box
    would land in it. A union's area is taken as its members' summed area,
    an upper bound.
    """
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
    if isinstance(region, UnionInitialSet):
        spanned = _dimension(region.bounding_box())
        if all(_dimension(m) < spanned for m in region.members):
            raise GeometryError(
                "cannot sample the union initial set: every member has a "
                "zero-width side, so no draw from its bounding box lands in it")
    if isinstance(region, (Polygon2D, UnionInitialSet)):
        bbox = region.bounding_box()
        box_area = _area(bbox)
        ratio = _area(region) / box_area if box_area > 0.0 else 1.0
        if ratio < _MIN_AREA_RATIO:
            kind = "polygon" if isinstance(region, Polygon2D) else "union"
            raise GeometryError(
                f"cannot sample the {kind} initial set: its area is "
                f"{ratio:.3g} of its bounding box's, below "
                f"{_MIN_AREA_RATIO:g}, so rejection sampling from the box "
                "would not finish")
        return _rejection_sample(rng, bbox, count,
                                 lambda batch: region.margins(batch) >= 0.0)
    raise DimensionMismatchError(f"cannot sample from {type(region).__name__}")


def _dimension(region):
    """Sides of positive width of a box or of a parallelotope's coordinate
    box; a region of another type counts as full."""
    box = region.coords if isinstance(region, Parallelotope) else region
    if isinstance(box, Box):
        return int(np.count_nonzero(box.hi > box.lo))
    return region.dim


def _area(region):
    """Volume of a box, parallelotope or polygon; of a union or
    intersection, its members' summed volume, an upper bound on its own."""
    if isinstance(region, Box):
        return float(np.prod(region.hi - region.lo))
    if isinstance(region, Parallelotope):
        return abs(float(np.linalg.det(region.shape))) * _area(region.coords)
    if isinstance(region, Polygon2D):
        return region.area()
    return sum(_area(m) for m in region.members)


def _row_blocks(count):
    """Slices that cover ``count`` rows in order: blocks of _BLOCK rows and
    a remainder."""
    return [slice(lo, min(lo + _BLOCK, count)) for lo in range(0, count, _BLOCK)]


def _rejection_sample(rng, bbox, count, accept):
    """``count`` draws from ``bbox`` that ``accept`` passes, in draw order.

    Each round draws max(count, 1024) candidates, tested in _row_blocks
    pieces; split uniform draws of one generator return the values of a
    single draw. Once ``count`` have passed, the rest of the round is not
    drawn: the generator is advanced past it (each uniform double takes one
    64-bit draw), so it ends where a whole-round draw leaves it.
    """
    out = np.empty((count, bbox.dim))
    have = 0
    while have < count:
        size = max(count, 1024)
        for rows in _row_blocks(size):
            if have == count:
                rng.bit_generator.advance((size - rows.start) * bbox.dim)
                break
            batch = rng.uniform(bbox.lo, bbox.hi,
                                size=(rows.stop - rows.start, bbox.dim))
            accepted = batch[accept(batch)]
            take = min(count - have, len(accepted))
            out[have : have + take] = accepted[:take]
            have += take
    return out


def _integrate_batch(system, X, signals, sizes):
    """Vectorized fixed-step 4th-order integration of the rows of ``X`` with
    piecewise-constant disturbances, one _row_blocks block at a time.

    ``signals(rows)`` gives a block's levels and switch steps: row ``r`` is
    driven by ``levels[r, k]`` over the steps at which ``k`` of its
    ``switch_steps`` have passed, a switch at step ``s`` in [0, len(sizes)]
    applying from step ``s`` on. Rows are independent, and a block's RK4
    buffers and field results stay in a core's L2 cache; the blocks change
    no value. ``X`` is never written: the witness search selects from it
    afterwards, and ``_rk4`` may receive a block uncopied. Every row stays
    in the block for every step: each RK4 update adds to the state, so a
    component that turns non-finite stays non-finite, and one finiteness
    test after the last step finds the diverged rows. Yields (starts,
    endpoints, alive mask) per block, in block order, diverged rows
    included; the blocks are integrated by ``_block_workers``.
    """
    blocks = _row_blocks(len(X))

    def integrate(rows):
        return _integrate_block(system, X[rows], *signals(rows), sizes)

    with _block_workers(integrate, blocks, system.n) as ends_of:
        for i, rows in enumerate(blocks):
            ends = ends_of(i)
            yield X[rows], ends, np.isfinite(ends).all(axis=1)


def _allowed_cpus():
    """The CPUs the row blocks may start on, in order: those this process
    may run on, as many as the CPU time that a cgroup v2 ``cpu.max`` above
    it allows, rounded up; none where the platform cannot fork a process or
    set its CPUs."""
    if not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")):
        return []
    cpus = sorted(os.sched_getaffinity(0))
    return cpus[: min([len(cpus), *map(math.ceil, _cpu_quotas())])]


def _cpu_quotas(proc="/proc/self/cgroup", root="/sys/fs/cgroup"):
    """The CPUs' worth of time that the ``cpu.max`` of this process's cgroup
    v2, and of each cgroup above it, allows, for those that set a limit."""
    try:
        with open(proc) as fh:
            path = next(line[3:].rstrip("\n") for line in fh if line.startswith("0::"))
    except (OSError, StopIteration):
        return []
    quotas = []
    while True:
        try:
            with open(f"{root}{path.rstrip('/')}/cpu.max") as fh:
                limit, period = fh.read().split()
            if limit != "max":
                quotas.append(int(limit) / int(period))
        except (OSError, ValueError, ZeroDivisionError):
            pass
        if os.path.dirname(path) == path:
            return quotas
        path = os.path.dirname(path)


@contextlib.contextmanager
def _block_workers(integrate, blocks, n):
    """``ends(i)``, the (rows, n) column-major endpoints ``integrate`` gives
    for ``blocks[i]``, to be called for i = 0, 1, ... in order.

    With two or more blocks and two or more allowed CPUs, W = min(blocks,
    CPUs) forked workers integrate them: worker k starts on the k-th
    allowed CPU, integrates blocks k, k + W, ... and writes each block's
    endpoints to its own pipe, where ``ends`` reads them back in block
    order. A worker blocks on its full pipe until they are read, so the
    parent holds about one block per worker. Otherwise ``ends`` integrates
    the block in this process. The values are the same either way: a
    worker runs the same ``integrate`` on the same block, and its bits
    travel unchanged. A worker's error is raised by ``ends`` at its block,
    and a worker that dies raises MmreachError there. Every worker is
    killed, if still running, and reaped on leaving the context.
    """
    cpus = _allowed_cpus()[: len(blocks)]
    count = len(cpus)
    if count < 2:
        yield lambda i: integrate(blocks[i])
        return
    workers = []  # [pid or None once reaped, read end of its pipe]
    try:
        for k, cpu in enumerate(cpus):
            read, write = os.pipe()
            # SIGINT stays blocked in the worker for its whole life, so an
            # interrupt reaches the parent alone, which kills the workers
            mask = signal.pthread_sigmask(signal.SIG_BLOCK, {signal.SIGINT})
            try:
                workers.append([None, open(read, "rb")])
                with warnings.catch_warnings():
                    # Python 3.12+ warns, in the parent, of forking a
                    # process that has threads, such as BLAS's; a worker
                    # makes no BLAS call (its field, RK4 and signal draw are
                    # elementwise numpy), so the fork is safe
                    warnings.filterwarnings(
                        "ignore", r".* is multi-threaded, use of fork\(\)",
                        DeprecationWarning)
                    pid = os.fork()
                if pid == 0:
                    _work(integrate, blocks[k::count], cpu, write, workers)
                workers[-1][0] = pid
            finally:
                signal.pthread_sigmask(signal.SIG_SETMASK, mask)
                os.close(write)
        yield lambda i: _receive(workers[i % count], blocks[i], n)
    finally:
        for worker in workers:
            worker[1].close()  # a worker still writing then leaves
            if worker[0] is not None:
                os.kill(worker[0], signal.SIGKILL)
                os.waitpid(worker[0], 0)


def _work(integrate, blocks, cpu, write, workers):
    """A forked worker's life: moved to ``cpu`` and then free to run on any
    allowed CPU, it writes to the pipe ``write`` each of ``blocks``'
    endpoints after a 0 byte, or at its first error a 1 byte and the
    pickled error, and leaves through os._exit, which runs no exit handler
    and flushes no stdio buffer it shares with the parent. An error that
    pickle cannot carry leaves nothing to read, and the parent reports the
    worker as died. It closes the read ends of its own and earlier workers'
    pipes, so a pipe's reader is the parent alone."""
    try:
        for _, pipe in workers:
            os.close(pipe.fileno())
        with open(write, "wb", closefd=False) as out:
            try:
                # some kernels leave a fresh fork on its parent's CPU (on a
                # 2-vCPU Firecracker VM two unplaced workers shared one CPU
                # and ran slower than one process); once placed, a worker
                # may still be moved off a busy CPU, as a pinned one cannot
                allowed = os.sched_getaffinity(0)
                os.sched_setaffinity(0, {cpu})
                os.sched_setaffinity(0, allowed)
                for rows in blocks:
                    ends = np.asfortranarray(integrate(rows))
                    out.write(b"\0")
                    out.write(ends.T)  # the column-major bytes of ``ends``
                    out.flush()
            except Exception as exc:  # raised by the parent at its block
                out.write(b"\1" + pickle.dumps(exc))
    finally:
        os._exit(0)


def _receive(worker, rows, n):
    """The endpoints of ``rows`` from a worker's pipe, or the error the
    worker sent for them, or MmreachError if it left without either."""
    pid, pipe = worker
    status = pipe.read(1)
    if status == b"\0":
        ends = np.empty((rows.stop - rows.start, n), order="F")
        if pipe.readinto(ends.T) == ends.nbytes:  # reads to the end or EOF
            return ends
    elif status == b"\1":
        raise pickle.loads(pipe.read())
    _, code = os.waitpid(pid, 0)
    worker[0] = None
    raise MmreachError(
        f"the oracle worker integrating rows {rows.start} to {rows.stop - 1} "
        f"of a chunk died (exit status {os.waitstatus_to_exitcode(code)})")


def _integrate_block(system, X, levels, switch_steps, sizes):
    """The final states of one row block of ``_integrate_batch``, diverged
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
    steps = switch_steps.ravel().astype(np.min_scalar_type(last), copy=False)
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
    """The piecewise-constant disturbance signals of ``count`` rows, drawn
    block by block: returns ``draw(rows)``, the levels (k, switch_count + 1,
    m) and switch steps (k, switch_count) of a slice of the rows, and moves
    ``rng`` past every draw of the ``count`` rows.

    The stream layout is that of drawing with ``rng`` all the levels, then
    all the corner-level picks, then all the switch times. ``draw`` reads a
    block's piece of each at its offset in that layout, from a second PCG64
    set to ``rng``'s state and moved with ``advance``, since each uniform
    double takes one 64-bit draw; split draws return the values of a single
    draw, so any block gives its rows' values of the one-shot draw. The
    switch steps lie in [0, steps] and are held in the smallest integer type
    that fits ``steps``, which ``_integrate_block`` sorts without a copy.
    """
    segments = switch_count + 1
    picks_at = count * segments * dist.dim
    switches_at = picks_at + count * segments
    base = rng.bit_generator.state
    rng.bit_generator.advance(switches_at + count * switch_count)
    aux = np.random.Generator(np.random.PCG64())
    step_type = np.min_scalar_type(steps)

    def stream(offset):
        aux.bit_generator.state = base
        aux.bit_generator.advance(offset)
        return aux

    def draw(rows):
        lo, k = rows.start, rows.stop - rows.start
        levels = stream(lo * segments * dist.dim).uniform(
            dist.lo, dist.hi, size=(k, segments, dist.dim))
        pick = stream(picks_at + lo * segments).uniform(size=(k, segments))
        levels[pick < 0.5 * _CORNER_LEVEL_PROB] = dist.lo
        levels[(pick >= 0.5 * _CORNER_LEVEL_PROB) & (pick < _CORNER_LEVEL_PROB)] = dist.hi
        raw = stream(switches_at + lo * switch_count).uniform(
            0.0, spec.horizon, size=(k, switch_count))
        return levels, np.clip(np.round(raw / spec.dt), 0, steps).astype(step_type)

    return draw


def _trajectories(system, spec: ReachSpec, cfg: SampleConfig, draw_starts,
                  corners=()):
    """The one trajectory loop of the oracle: yields (starts, endpoints,
    alive mask) per integrated row block, the endpoints of diverged rows
    included.

    The ``corners`` (start, constant disturbance) pairs, if any, come first.
    The other ``cfg.count - len(corners)`` trajectories follow in chunks of
    at most _CHUNK, which fix the layout of the random stream: each chunk
    draws its starts with ``draw_starts(rng, count)``, and each of its row
    blocks then draws its disturbance signals at its offset in the chunk's
    stream. A chunk holds its starts; everything else lives for one block.
    """
    sizes = _step_sizes(spec.horizon, spec.dt)
    rng = np.random.default_rng(cfg.seed)
    if corners:
        starts = np.array([c for c, _ in corners], dtype=float)
        levels = np.array([np.tile(w, (cfg.switch_count + 1, 1)) for _, w in corners])
        switches = np.zeros((len(corners), cfg.switch_count), dtype=int)
        yield from _integrate_batch(system, starts,
                                    lambda rows: (levels[rows], switches[rows]), sizes)
    for done in range(len(corners), cfg.count, _CHUNK):
        count = min(_CHUNK, cfg.count - done)
        starts = draw_starts(rng, count)
        signals = _draw_signals(rng, count, cfg.switch_count, system.dist, spec,
                                len(sizes))
        yield from _integrate_batch(system, starts, signals, sizes)


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
    points = np.empty((cfg.count, system.n))
    have = 0
    # closed on any exit, so the block workers are reaped before it returns
    with contextlib.closing(_trajectories(
            system, spec, cfg, lambda rng, count: _sample_initial(x0, count, rng),
            corners)) as blocks:
        for _, X, alive in blocks:
            X = X[alive]
            points[have : have + len(X)] = X
            have += len(X)
    divergent = cfg.count - have
    if divergent:
        log.warning("excluded %d divergent trajectories of %d", divergent, cfg.count)
    return SampleResult(points=points[:have], divergent=divergent)


def audit_containment(points, region, tol=CONTAINMENT_TOL):
    """Membership of every point in the region, with signed margins.

    Margins are the region's own ``margins``, measured in its native
    (transformed) coordinates, one row block at a time. A list or tuple of
    regions is their union; wrap members in RegionIntersection to require
    membership in all of them. Points with margin < -tol count as
    violations; up to 10 worst witnesses are recorded. A NaN margin (a NaN
    coordinate) counts as the margin -inf, a violation that sorts first.
    ``tol`` must be finite and nonnegative.
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
    margins = np.empty(len(pts))
    for rows in _row_blocks(len(pts)):  # the members' temporaries follow the block
        margins[rows] = region.margins(pts[rows])
    # margins < -tol is false for NaN, which would count the point as inside
    margins[np.isnan(margins)] = -np.inf
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
    point, times cell^2. ``cell`` must be finite and positive, and the points
    finite."""
    if not 0.0 < cell < np.inf:  # a NaN cell would pass cell <= 0
        raise DimensionMismatchError(f"cell must be finite and positive, got {cell}")
    pts = np.asarray(points, dtype=float)
    if pts.size == 0:
        return 0.0
    if pts.ndim != 2 or pts.shape[1] != 2:
        raise DimensionMismatchError("occupancy area requires 2-D points")
    if not np.isfinite(pts).all():
        raise DimensionMismatchError("occupancy area requires finite points")
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
    witnesses = []
    with contextlib.closing(_trajectories(
            system, spec, cfg, lambda rng, count: rng.uniform(
                search_box.lo, search_box.hi, size=(count, system.n)))) as blocks:
        for starts, X, alive in blocks:
            # margins of the whole block; the diverged rows' are masked out
            with np.errstate(all="ignore"):
                inside = x0.margins(X) >= -CONTAINMENT_TOL
            witnesses.append(starts[alive & inside])
    witnesses = np.concatenate(witnesses)
    if len(witnesses) == 0:
        log.warning(
            "no backward witnesses found in %d samples; the target may be "
            "unreachable from the search box", cfg.count,
        )
    return witnesses


def simulate(system, x0, w, spec: ReachSpec):
    """Single trajectory under a constant or callable disturbance signal.

    ``w`` is either a constant vector or a callable t -> vector (evaluated at
    the stage times of each step, and once more at t = 0 for its
    dimension). A non-finite state raises DivergenceError with the last
    time of a finite one; an ``x0`` or ``w`` whose dimension is not the
    system's, DimensionMismatchError.
    """
    w_of = w if callable(w) else (lambda _t, _w=[float(v) for v in w]: _w)
    x0 = np.array(x0, dtype=float)
    if x0.shape != (system.n,):
        raise DimensionMismatchError(
            f"initial state has shape {x0.shape}, the system expects ({system.n},)")
    w_shape = np.shape(w_of(0.0))
    if w_shape != (system.m,):
        raise DimensionMismatchError(
            f"disturbance has shape {w_shape}, the system expects ({system.m},)")

    def field(x, t):
        return system.field_values(x, w_of(t))

    return _trajectory(field, x0.tolist(), spec, lambda x, _t: x,
                       "trajectory diverged")


def intersection_volume_mc(ptopes, samples=10**6, seed=0):
    """Monte-Carlo volume of an intersection of parallelotopes or boxes.

    Samples uniformly in the intersection of the members' bounding boxes,
    drawn and tested one row block at a time. Returns (volume, ci95).
    ``samples`` must be at least 1.
    """
    if not ptopes:
        raise DimensionMismatchError("no parallelotopes given")
    if samples < 1:
        raise DimensionMismatchError(f"samples must be >= 1, got {samples}")
    boxes = [p.bounding_box() for p in ptopes]
    lo = np.max([b.lo for b in boxes], axis=0)
    hi = np.min([b.hi for b in boxes], axis=0)
    if np.any(lo >= hi):
        return 0.0, 0.0
    box_vol = float(np.prod(hi - lo))
    rng = np.random.default_rng(seed)
    region = RegionIntersection(tuple(ptopes))
    inside = 0
    for rows in _row_blocks(samples):  # split draws give a single draw's values
        pts = rng.uniform(lo, hi, size=(rows.stop - rows.start, len(lo)))
        inside += int(np.count_nonzero(region.margins(pts) >= 0.0))
    frac = inside / samples
    ci = 1.96 * float(np.sqrt(max(frac * (1.0 - frac), 0.0) / samples)) * box_vol
    return frac * box_vol, ci
