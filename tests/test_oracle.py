import hashlib
import logging
import math
import os
import signal
import subprocess
import sys
import tracemalloc
import types
import warnings
from pathlib import Path

import numpy as np
import pytest

import mmreach as mm
from mmreach import oracle
from mmreach.config import load_config
from mmreach.embed import _rk4, _step_sizes
from mmreach.errors import (DimensionMismatchError, DivergenceError, GeometryError,
                            MmreachError)
from mmreach.oracle import (_draw_signals, _integrate_batch, _rejection_sample,
                            _row_blocks, _sample_initial)


def test_sample_determinism(bilinear, example1_ptope):
    spec = mm.ReachSpec(0.2, 5e-3)
    cfg = mm.SampleConfig(count=500, seed=42)
    a = mm.sample_endpoints(bilinear, example1_ptope, spec, cfg)
    b = mm.sample_endpoints(bilinear, example1_ptope, spec, cfg)
    assert (a.points == b.points).all()
    c = mm.sample_endpoints(bilinear, example1_ptope, spec,
                            mm.SampleConfig(count=500, seed=43))
    assert not (a.points == c.points).all()


def test_degenerate_everything_reproduces_point_flow():
    s = mm.SystemDef.from_strings(2, 1, ["x2 + w1", "x1 - x2"], [0.2], [0.2])
    spec = mm.ReachSpec(0.5, 1e-3)
    x = np.array([0.3, -0.4])
    res = mm.sample_endpoints(s, mm.Box(x, x), spec,
                              mm.SampleConfig(count=64, seed=0, switch_count=3))
    want = mm.simulate(s, x, [0.2], spec).final_state
    assert np.allclose(res.points, want, atol=1e-12)
    assert res.divergent == 0


def test_zero_horizon_returns_initial_points(bilinear):
    x0 = mm.Box([0.0, 0.0], [1.0, 1.0])
    res = mm.sample_endpoints(bilinear, x0, mm.ReachSpec(0.0, 1e-3),
                              mm.SampleConfig(count=100, seed=1))
    assert len(res) == 100
    assert np.all(res.points >= 0.0) and np.all(res.points <= 1.0)
    # a 5-vertex hull is rejection-sampled by its margins; the draw is pinned
    hull = mm.convex_hull_2d([[0.0, 0.0], [1.0, -0.25], [1.5, 0.5],
                              [0.75, 1.25], [-0.25, 0.75]])
    assert len(hull) == 5
    res = mm.sample_endpoints(bilinear, hull, mm.ReachSpec(0.0, 0.01),
                              mm.SampleConfig(count=3000, seed=4))
    assert np.all(hull.margins(res.points) >= 0.0)
    assert hashlib.sha256(res.points.tobytes()).hexdigest() == (
        "177e2986c49a28d89582fd723037158552924b64d5387f964e5f07cd6d0300b0")


def test_a_point_or_segment_polygon_is_sampled_on_it(bilinear):
    """A one-vertex polygon's starts are its point; a two-vertex polygon's
    lie on its segment and spread along it."""
    spec, cfg = mm.ReachSpec(0.0, 0.01), mm.SampleConfig(count=200, seed=3)
    point = mm.sample_endpoints(bilinear, mm.Polygon2D([[0.3, -0.4]]), spec, cfg)
    assert len(point) == 200 and (point.points == [0.3, -0.4]).all()
    segment = mm.Polygon2D([[0.0, 0.0], [1.0, 0.5]])
    starts = mm.sample_endpoints(bilinear, segment, spec, cfg).points
    assert len(starts) == 200
    assert np.all(segment.margins(starts) >= -1e-15)
    assert np.all((0.0 <= starts[:, 0]) & (starts[:, 0] <= 1.0))
    assert len(np.unique(starts[:, 0])) == 200


def test_corners_plus_uniform_hits_extreme_flows(trig):
    x0 = mm.Box([0.5, 0.5], [1.0, 1.0])
    spec = mm.ReachSpec(0.5, 2e-3)
    res = mm.sample_endpoints(
        trig, x0, spec,
        mm.SampleConfig(count=64, seed=2, init_mode="corners_plus_uniform"),
    )
    lo_end = mm.simulate(trig, x0.lo, [0.0], spec).final_state
    hi_end = mm.simulate(trig, x0.hi, [0.5], spec).final_state
    dists_lo = np.min(np.linalg.norm(res.points - lo_end, axis=1))
    dists_hi = np.min(np.linalg.norm(res.points - hi_end, axis=1))
    assert dists_lo <= 1e-9 and dists_hi <= 1e-9


def test_sampling_inside_union_is_uniform_over_members(rng):
    a = mm.Parallelotope(np.eye(2), mm.Box([0, 0], [1, 1]))
    b = mm.Parallelotope(np.eye(2), mm.Box([2, 0], [3, 1]))
    union = mm.UnionInitialSet((a, b))
    s = mm.SystemDef.from_strings(2, 1, ["0*x1", "0*x1"], [0.0], [0.0])
    res = mm.sample_endpoints(s, union, mm.ReachSpec(0.0, 1e-3),
                              mm.SampleConfig(count=4000, seed=3))
    inside = [union.contains(p, tol=1e-12) for p in res.points]
    assert all(inside)
    left = float(np.mean(res.points[:, 0] < 1.5))
    assert 0.45 <= left <= 0.55


def test_a_union_of_zero_area_members_is_refused_before_any_draw():
    """No draw from the bounding box of two parallel segments lands on
    either, so rejection sampling would never finish. The call runs in a
    child process under a timeout, so a sampler that hangs fails the test
    instead of the suite."""
    code = (
        "import numpy as np, mmreach as mm\n"
        "seg = lambda y: mm.Parallelotope(np.eye(2), mm.Box([0.0, y], [0.5, y]))\n"
        "union = mm.UnionInitialSet((seg(0.0), seg(0.1)))\n"
        "mm.sample_endpoints(mm.preset_system('bilinear'), union,\n"
        "                    mm.ReachSpec(0.1, 0.01), mm.SampleConfig(count=10))\n"
    )
    src = str(Path(mm.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, timeout=60,
                           env={**os.environ, "PYTHONPATH": src})
    assert child.returncode == 1
    assert "GeometryError: cannot sample the union initial set" in child.stderr
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    union = mm.UnionInitialSet(tuple(
        mm.Parallelotope(np.eye(2), mm.Box([0.0, y], [0.5, y])) for y in (0.0, 0.1)))
    with pytest.raises(GeometryError, match="zero-width side"):
        _sample_initial(union, 10, rng)
    assert rng.bit_generator.state == state


def test_a_thin_union_is_refused_before_any_draw():
    """Two strips 1e-12 high fill 2e-11 of their bounding box, so about one
    draw from it in 5e10 would land in them: rejection sampling would run
    until killed. The call runs in a child process under a timeout."""
    code = (
        "import numpy as np, mmreach as mm\n"
        "strip = lambda y: mm.Parallelotope(np.eye(2), mm.Box([0.0, y], [0.5, y + 1e-12]))\n"
        "union = mm.UnionInitialSet((strip(0.0), strip(0.1)))\n"
        "mm.sample_endpoints(mm.preset_system('bilinear'), union,\n"
        "                    mm.ReachSpec(0.1, 0.01), mm.SampleConfig(count=10))\n"
    )
    src = str(Path(mm.__file__).resolve().parents[1])
    child = subprocess.run([sys.executable, "-c", code], capture_output=True,
                           text=True, timeout=60,
                           env={**os.environ, "PYTHONPATH": src})
    assert child.returncode == 1
    assert ("GeometryError: cannot sample the union initial set: its area is "
            "2e-11 of its bounding box's, below 1e-09") in child.stderr


def test_a_sliver_polygon_is_refused_before_any_draw():
    """A triangle along the diagonal of its unit bounding box fills 5e-11 of
    it; the generator is left as it was."""
    sliver = mm.convex_hull_2d([[0.0, 0.0], [1.0, 1.0], [0.5, 0.5 + 1e-10]])
    assert len(sliver) == 3
    rng = np.random.default_rng(0)
    state = rng.bit_generator.state
    with pytest.raises(GeometryError, match="the polygon initial set: its area "
                                            "is 5e-11 of its bounding box's"):
        _sample_initial(sliver, 10, rng)
    assert rng.bit_generator.state == state


def test_a_union_as_flat_as_its_bounding_box_is_sampled():
    """Segments on one line have a flat bounding box, and every draw from
    it lands on the line: such a union is sampled, not refused."""
    union = mm.UnionInitialSet((
        mm.Parallelotope(np.eye(2), mm.Box([0.0, 0.2], [0.5, 0.2])),
        mm.Parallelotope(np.eye(2), mm.Box([0.25, 0.2], [1.0, 0.2])),
    ))
    points = _sample_initial(union, 50, np.random.default_rng(0))
    assert np.all(points[:, 1] == 0.2)
    assert np.all((points[:, 0] >= 0.0) & (points[:, 0] <= 1.0))


def test_audit_containment_basics():
    box = mm.Box([0.0, 0.0], [1.0, 1.0])
    pts = np.array([[0.5, 0.5], [0.9, 0.1]])
    rep = mm.audit_containment(pts, box)
    assert rep.violations == 0 and rep.ok
    assert rep.worst_margin == pytest.approx(0.1)

    planted = np.vstack([pts, [2.0, 0.5]])
    rep = mm.audit_containment(planted, box)
    assert rep.violations == 1
    assert rep.worst_margin == pytest.approx(-1.0)
    assert len(rep.witnesses) == 1
    assert rep.witnesses[0][:2] == [2.0, 0.5]


def test_an_audit_of_no_point_is_not_ok():
    rep = mm.audit_containment(np.empty((0, 2)), mm.Box([0.0, 0.0], [1.0, 1.0]))
    assert rep.total == 0 and rep.violations == 0
    assert not rep.ok


def test_an_empty_point_list_is_an_audit_of_no_point():
    """``[]`` gives the report of ``np.empty((0, 2))``; it once failed in
    numpy's reshape with an untyped ValueError."""
    box = mm.Box([0.0, 0.0], [1.0, 1.0])
    assert mm.audit_containment([], box) == mm.audit_containment(np.empty((0, 2)), box)


@pytest.mark.parametrize("tol", [math.nan, math.inf, -1e-9])
def test_audit_rejects_a_tolerance_that_is_not_finite_and_nonnegative(tol):
    """A NaN tol counted no violation: a point at margin -4 passed."""
    with pytest.raises(DimensionMismatchError):
        mm.audit_containment(np.array([[5.0, 5.0]]), mm.Box([0, 0], [1, 1]),
                             tol=tol)
    rep = mm.audit_containment(np.array([[5.0, 5.0]]), mm.Box([0, 0], [1, 1]),
                               tol=0.0)
    assert rep.violations == 1 and not rep.ok


def test_audit_union_and_intersection_semantics():
    a = mm.Box([0.0], [1.0])
    b = mm.Box([0.5], [2.0])
    pts = np.array([[0.25], [0.75], [1.5]])
    union = mm.audit_containment(pts, [a, b])
    assert union.violations == 0
    inter = mm.audit_containment(pts, mm.RegionIntersection((a, b)))
    assert inter.violations == 2  # only 0.75 lies in both


def test_audit_parallelotope_margin(example1_ptope):
    inside = example1_ptope.shape @ np.array([1 / 8, -1 / 8])
    rep = mm.audit_containment([inside], example1_ptope)
    assert rep.violations == 0
    assert rep.worst_margin == pytest.approx(1 / 8)


def test_audit_polygon_region():
    square = mm.Polygon2D(np.array([[0, 0], [1, 0], [1, 1], [0, 1]]))
    rep = mm.audit_containment(np.array([[0.5, 0.5], [1.2, 0.5]]), square)
    assert rep.violations == 1
    assert rep.worst_margin == pytest.approx(-0.2)

    # degenerate hulls: the margin is minus the distance to the point or segment
    point = mm.convex_hull_2d([[0.0, 0.0]])
    rep = mm.audit_containment(np.array([[1.0, 1.0], [5.0, 5.0]]), point)
    assert rep.violations == 2
    assert rep.worst_margin == pytest.approx(-math.sqrt(50.0))
    assert point.margin([1.0, 1.0]) == pytest.approx(-math.sqrt(2.0))
    segment = mm.convex_hull_2d([[0.0, 0.0], [1.0, 0.0]])
    rep = mm.audit_containment(np.array([[0.5, 0.0], [3.0, 0.0]]), segment)
    assert rep.violations == 1
    assert rep.worst_margin == pytest.approx(-2.0)
    assert segment.margin([0.5, 0.0]) == 0.0
    assert segment.margin([0.5, 0.5]) == pytest.approx(-0.5)
    assert segment.margin([3.0, 0.0]) == pytest.approx(-2.0)


def test_audit_rejects_unsupported_region():
    with pytest.raises(DimensionMismatchError):
        mm.audit_containment(np.array([[0.5, 0.5]]), {"lo": [0, 0], "hi": [1, 1]})
    with pytest.raises(DimensionMismatchError):
        mm.audit_containment(np.array([[0.5, 0.5, 0.5]]), mm.Box([0, 0], [1, 1]))


def test_audit_counts_a_nan_point_as_a_violation(example1_ptope):
    """A NaN coordinate gives a NaN margin in every region type, and
    NaN < -tol is false: the point counts as a violation with margin -inf,
    the first witness."""
    box = mm.Box([0, 0], [1, 1])
    for region in (box, example1_ptope, [box, example1_ptope]):
        report = mm.audit_containment(np.array([[np.nan, 0.5]]), region)
        assert (report.total, report.violations, report.ok) == (1, 1, False)
        assert report.worst_margin == -math.inf
    report = mm.audit_containment(np.array([[2.0, 0.5], [0.5, np.nan], [0.5, 0.5]]), box)
    assert (report.total, report.violations) == (3, 2)
    x1, x2, margin = report.witnesses[0]
    assert x1 == 0.5 and math.isnan(x2) and margin == -math.inf
    assert report.witnesses[1] == [2.0, 0.5, -1.0]


def test_occupancy_full_unit_square(rng):
    pts = rng.uniform(0, 1, (10**6, 2))
    assert mm.occupancy_area(pts, 0.05) == pytest.approx(1.0, abs=0.01)


def test_occupancy_single_point_and_empty():
    assert mm.occupancy_area(np.array([[0.3, 0.7]]), 0.02) == pytest.approx(4e-4)
    assert mm.occupancy_area(np.empty((0, 2)), 0.02) == 0.0
    with pytest.raises(DimensionMismatchError):
        mm.occupancy_area(np.array([[1.0, 2.0]]), 0.0)
    with pytest.raises(DimensionMismatchError):
        mm.occupancy_area(np.array([[1.0, 2.0, 3.0]]), 0.1)
    with pytest.raises(DimensionMismatchError):
        mm.occupancy_area(np.array([1.0, 2.0]), 0.1)  # one point, not an (N, 2) cloud


@pytest.mark.parametrize("points, cell", [
    ([[1.0, 2.0]], math.nan),  # passes cell <= 0
    ([[1.0, 2.0]], math.inf),
    ([[math.nan, 2.0]], 0.02),  # floor(NaN) has no int64 cell
    ([[1.0, -math.inf]], 0.02),
])
def test_occupancy_rejects_what_has_no_cell(points, cell):
    with pytest.raises(DimensionMismatchError):
        mm.occupancy_area(np.array(points), cell)


@pytest.mark.parametrize("fields", [
    {"count": 10.5},
    {"count": 10.0},
    {"count": True},
    {"count": 10, "seed": 1.5},
    {"count": 10, "seed": np.float64(1)},
    {"count": 10, "switch_count": 2.5},
    {"count": 10, "switch_count": False},
], ids=["count_float", "count_integral_float", "count_bool", "seed_float",
        "seed_numpy_float", "switch_count_float", "switch_count_bool"])
def test_sample_config_refuses_a_count_seed_or_switch_count_that_is_no_integer(fields):
    """Each was accepted, and sampling then died with an untyped TypeError."""
    with pytest.raises(DimensionMismatchError, match="must be an integer"):
        mm.SampleConfig(**fields)


def test_sample_config_takes_numpy_integers():
    """PCG64.advance refuses a numpy integer, so a numpy count or switch
    count failed in sampling with an OverflowError; the fields hold Python
    ints, so the sample is the int one's."""
    system = mm.SystemDef.from_strings(1, 1, ["-x1 + w1"], [0.0], [0.1])
    x0, spec = mm.Box([0.0], [1.0]), mm.ReachSpec(0.1, 0.01)
    cfg = mm.SampleConfig(np.int64(10), seed=np.uint32(1), switch_count=np.int8(2))
    assert cfg == mm.SampleConfig(10, seed=1, switch_count=2)
    assert all(type(v) is int for v in (cfg.count, cfg.seed, cfg.switch_count))
    ours = mm.sample_endpoints(system, x0, spec, cfg).points
    ref = mm.sample_endpoints(system, x0, spec, mm.SampleConfig(10, 1, 2)).points
    assert ours.tobytes() == ref.tobytes()


def test_backward_witnesses_scalar_decay():
    s = mm.SystemDef.from_strings(1, 1, ["-x1"], [0.0], [0.0])
    x0 = mm.Parallelotope(np.array([[1.0]]),
                          mm.Box([math.exp(-1)], [2 * math.exp(-1)]))
    wit = mm.backward_witnesses(
        s, x0, mm.ReachSpec(1.0, 1e-3), mm.SampleConfig(count=2000, seed=4),
        mm.Box([0.0], [3.0]),
    )
    assert len(wit) > 50
    assert np.all(wit >= 1.0 - 1e-5) and np.all(wit <= 2.0 + 1e-5)


def test_backward_witnesses_empty_warns(caplog):
    s = mm.SystemDef.from_strings(1, 1, ["-x1"], [0.0], [0.0])
    x0 = mm.Parallelotope(np.array([[1.0]]), mm.Box([50.0], [51.0]))
    with caplog.at_level(logging.WARNING, logger="mmreach.oracle"):
        wit = mm.backward_witnesses(
            s, x0, mm.ReachSpec(1.0, 1e-2), mm.SampleConfig(count=200, seed=5),
            mm.Box([0.0], [3.0]),
        )
    assert len(wit) == 0
    assert any("witnesses" in rec.message for rec in caplog.records)


def test_simulate_piecewise_signal():
    s = mm.SystemDef.from_strings(1, 1, ["w1"], [-1.0], [1.0])
    spec = mm.ReachSpec(1.0, 1e-3)
    w_of = lambda t: [1.0] if t < 0.5 else [-1.0]
    traj = mm.simulate(s, [0.0], w_of, spec)
    # stage sampling across the switch leaves O(dt) local error there
    assert traj.final_state[0] == pytest.approx(0.0, abs=2e-3)


@pytest.mark.parametrize("x0, w", [
    ([0.0], [0.0]),  # a state short of the system's two
    ([0.0, 0.0], []),  # no disturbance for its one
    ([0.0, 0.0, 0.0], [0.0]),  # a state of three
    ([[0.0, 0.0]], [0.0]),  # a state of the right size but shape (1, 2)
    ([0.0, 0.0], lambda t: [t, t]),  # a signal of two
])
def test_simulate_checks_its_dimensions(x0, w):
    """simulate names a dimension mistake, as integrate does, where the
    generated scalar code would raise a bare IndexError or ValueError."""
    s = mm.SystemDef.from_strings(2, 1, ["x2 + w1", "x1"], [0.0], [1.0])
    with pytest.raises(DimensionMismatchError, match="the system expects"):
        mm.simulate(s, x0, w, mm.ReachSpec(1.0, 0.1))


def test_simulate_raises_divergence_with_the_last_finite_time():
    """x' = x^2 from 3 escapes at t = 1/3. RK4 at dt 1e-3 lags the exact
    flow and stays finite to t = 0.335; the trajectory stops there, at the
    time integrate's embedding of the same flow stops, instead of running on
    through inf and NaN."""
    s = mm.SystemDef.from_strings(1, 1, ["x1^2"], [0.0], [0.0])
    spec = mm.ReachSpec(1.0, 1e-3)
    with pytest.raises(DivergenceError) as err:
        mm.simulate(s, [3.0], [0.0], spec)
    with pytest.raises(DivergenceError) as embedded:
        mm.reach_box(s, mm.Box([3.0], [3.0]), spec, "tight")
    assert 1.0 / 3.0 < err.value.last_time == embedded.value.last_time < 0.34


def test_intersection_volume_mc():
    unit = mm.Parallelotope(np.eye(2), mm.Box([0, 0], [1, 1]))
    vol, ci = mm.intersection_volume_mc([unit, unit], samples=20000, seed=6)
    assert vol == pytest.approx(1.0, abs=1e-12)
    shifted = mm.Parallelotope(np.eye(2), mm.Box([2, 2], [3, 3]))
    vol, ci = mm.intersection_volume_mc([unit, shifted], samples=1000, seed=7)
    assert vol == 0.0


_BAD_MC_ARGUMENTS = {"0": {"samples": 0}, "-1": {"samples": -1},
                     "1.5": {"samples": 1.5}, "True": {"samples": True},
                     "seed=-1": {"seed": -1}, "seed=1.5": {"seed": 1.5},
                     "seed=True": {"seed": True}}


@pytest.mark.parametrize("arguments", _BAD_MC_ARGUMENTS.values(), ids=_BAD_MC_ARGUMENTS)
def test_intersection_volume_mc_needs_a_sample(arguments):
    """No sample has no mean: the volume would be NaN. A float or bool
    sample count or seed, or a negative seed, is refused as SampleConfig
    refuses it; each failed in range or numpy, or ran one sample for True."""
    unit = mm.Parallelotope(np.eye(2), mm.Box([0, 0], [1, 1]))
    with pytest.raises(DimensionMismatchError):
        mm.intersection_volume_mc([unit, unit], **arguments)


def test_occupancy_estimate_converges(bilinear, example1_ptope):
    """Doubling samples moves the saturated occupancy estimate by <= 2 cells.

    At the 0.02 reporting cell the occupied-cell count is still growing at
    10^6 samples (endpoint density thins toward the extremes of the set, so
    boundary cells keep filling in); saturation is checked at a coarser cell
    where the estimator has converged under the pinned seed.
    """
    spec = mm.ReachSpec(1.0, 5e-3)
    cell = 0.08
    full = mm.sample_endpoints(bilinear, example1_ptope, spec,
                               mm.SampleConfig(count=400000, seed=11)).points
    half = mm.sample_endpoints(bilinear, example1_ptope, spec,
                               mm.SampleConfig(count=200000, seed=11)).points
    delta = abs(mm.occupancy_area(full, cell) - mm.occupancy_area(half, cell))
    assert delta <= 2 * cell * cell


def _reference_batch(system, X, levels, switch_steps, sizes):
    """The integrator the event-driven one replaced, with its own RK4 step:
    every step recounts the passed switches of every row, builds each stage
    out of place in the documented order, and a row that turns non-finite
    keeps its last finite state. Returns (all rows, alive mask)."""
    rows = np.arange(X.shape[0])
    alive = np.ones(X.shape[0], dtype=bool)
    with np.errstate(all="ignore"):
        for s, h in enumerate(sizes):
            W = levels[rows, (switch_steps <= s).sum(axis=1), :]
            hh = 0.5 * h
            k1 = system.eval_field_batch(X, W)
            k2 = system.eval_field_batch(X + hh * k1, W)
            k3 = system.eval_field_batch(X + hh * k2, W)
            k4 = system.eval_field_batch(X + h * k3, W)
            X_new = X + h / 6.0 * (k1 + 2.0 * k2 + 2.0 * k3 + k4)
            good = np.all(np.isfinite(X_new), axis=1)
            alive &= good
            X = np.where(good[:, None], X_new, X)
    return X, alive


def _same_bits(a, b):
    return a.dtype == b.dtype and a.shape == b.shape and a.tobytes() == b.tobytes()


def _integrate(system, X, levels, switch_steps, sizes):
    """``_integrate_batch`` of whole signal arrays, its row blocks joined:
    (endpoints of the alive rows, alive mask)."""
    blocks = list(_integrate_batch(
        system, X, lambda rows: (levels[rows], switch_steps[rows]), sizes))
    alive = np.concatenate([a for _, _, a in blocks])
    return np.concatenate([e for _, e, _ in blocks])[alive], alive


_BLOWUP = mm.SystemDef.from_strings(1, 1, ["x1*x1 + w1"], [0.0], [1.0])


def _batch_case(name):
    """(system, starts, levels, switch steps, step sizes) of one case."""
    rng = np.random.default_rng(sum(map(ord, name)))
    system = mm.preset_system("trig" if name == "remainder" else "bilinear")
    sizes = _step_sizes(0.5, 0.01)
    count, switch_count = 300, 4
    if name == "remainder":
        sizes = _step_sizes(0.255, 0.01)
        assert sizes[-1] < sizes[0]
    elif name == "zero_horizon":
        sizes = _step_sizes(0.0, 0.01)
    elif name == "no_switches":
        switch_count = 0
    elif name.startswith("diverge"):
        system, sizes = _BLOWUP, _step_sizes(1.0, 0.01)
    starts = rng.uniform(-1.0, 1.0, size=(count, system.n))
    levels = rng.uniform(system.dist.lo, system.dist.hi,
                         size=(count, switch_count + 1, system.m))
    steps = rng.integers(0, len(sizes) + 1, size=(count, switch_count))
    if name == "switch_at_step_0":
        steps[::2, 0] = 0
    elif name == "two_switches_at_one_step":
        steps[::3, 1] = steps[::3, 0]
        steps[1::3, :2] = 0
    elif name == "switch_at_last_step":
        steps[::2, -1] = len(sizes) - 1
        steps[1::4, -1] = len(sizes)  # at the horizon: never applied
    elif name == "diverge_at_different_steps":
        starts[:, 0] = np.linspace(-1.0, 20.0, count)
        starts[::25, 0] = 1e200  # x1*x1 overflows in the first step
    elif name == "diverge_all_at_once":
        starts[:, 0] = 20.0
        levels[:] = 0.5
    return system, starts, levels, steps, sizes


_BATCH_CASES = [
    "switch_at_step_0", "two_switches_at_one_step", "switch_at_last_step",
    "no_switches", "remainder", "zero_horizon", "diverge_at_different_steps",
    "diverge_all_at_once",
]


@pytest.mark.parametrize("name", _BATCH_CASES)
def test_integrate_batch_matches_the_per_step_reference(name):
    system, starts, levels, steps, sizes = _batch_case(name)
    ref_X, ref_alive = _reference_batch(system, starts, levels, steps, sizes)
    X, alive = _integrate(system, starts, levels, steps, sizes)
    assert _same_bits(alive, ref_alive)
    assert _same_bits(X, ref_X[ref_alive])
    if name == "diverge_at_different_steps":
        assert 0 < alive.sum() < len(alive)
        assert not alive[::25].any()
    if name == "diverge_all_at_once":
        assert not alive.any() and X.shape == (0, 1)


@pytest.mark.parametrize("name", _BATCH_CASES)
def test_row_blocks_are_invisible(name, monkeypatch):
    """300 rows in blocks of 64, four full blocks and a 44-row remainder,
    give the per-step reference's bits."""
    monkeypatch.setattr(oracle, "_BLOCK", 64)
    test_integrate_batch_matches_the_per_step_reference(name)


def _sample_and_search(system):
    """Corner-first forward endpoints and backward witnesses of one small
    run each."""
    spec = mm.ReachSpec(0.5, 0.01)
    cfg = mm.SampleConfig(count=500, seed=9, init_mode="corners_plus_uniform")
    x0 = mm.Box([-0.5, -0.5], [0.5, 0.5])
    target = mm.Parallelotope(np.eye(2), mm.Box([-0.5, 0.0], [0.5, 1.0]))
    return (mm.sample_endpoints(system, x0, spec, cfg).points,
            mm.backward_witnesses(system, target, spec,
                                  mm.SampleConfig(count=500, seed=9), x0))


def test_sampling_is_the_same_at_any_block_size(trig, monkeypatch):
    points, witnesses = _sample_and_search(trig)
    assert len(witnesses) > 0
    monkeypatch.setattr(oracle, "_BLOCK", 7)
    small_points, small_witnesses = _sample_and_search(trig)
    assert _same_bits(small_points, points)
    assert _same_bits(small_witnesses, witnesses)


def _one_cpu(monkeypatch):
    """Integrate every row block in this process, where spies see it."""
    monkeypatch.setattr(oracle, "_allowed_cpus", lambda: [0])


def test_the_field_sees_every_trajectory_step_as_one_row(bilinear, monkeypatch):
    """A profiler counts trajectory steps as the rows of the field's X: every
    call gets a 2-D (rows, n) array, and the rows sum to four RK4 stages per
    step per trajectory, corner rows included. The spy counts in this
    process, so the blocks are integrated here."""
    _one_cpu(monkeypatch)
    seen = []
    field = mm.SystemDef.eval_field_batch

    def spy(self, X, W):
        seen.append(X.shape)
        return field(self, X, W)

    monkeypatch.setattr(mm.SystemDef, "eval_field_batch", spy)
    monkeypatch.setattr(oracle, "_BLOCK", 128)
    steps = len(_step_sizes(0.5, 0.01))
    _sample_and_search(bilinear)
    assert all(len(shape) == 2 and shape[1] == bilinear.n for shape in seen)
    assert sum(rows for rows, _ in seen) == 2 * 4 * steps * 500
    assert max(rows for rows, _ in seen) == 128


@pytest.mark.parametrize("layout", ["C", "F", "one_column"])
def test_integrate_batch_never_writes_the_starts(layout):
    """The witness search reads the starts after integrating them. A
    column-major or one-column batch is integrated with no copy of its
    starts (np.asfortranarray returns it as it is), so the in-place RK4
    must never write its first state."""
    system, starts, levels, steps, sizes = _batch_case("no_switches")
    if layout == "F":
        starts = np.asfortranarray(starts)
    elif layout == "one_column":
        system = mm.SystemDef.from_strings(1, 1, ["-x1 + w1"], [0.0], [1.0])
        starts = starts[:, :1].copy()
        levels = levels[:, :, :1]
    assert (np.asfortranarray(starts) is starts) == (layout != "C")
    before = starts.copy()
    X, alive = _integrate(system, starts, levels, steps, sizes)
    assert alive.all() and not np.array_equal(X, before)
    assert _same_bits(starts, before)


def test_rk4_hands_post_an_unmodified_old_state(bilinear):
    """Array parts are combined in place, yet each step hands ``post`` the
    old state as it was, and the new state is the float parts' bits: the
    same IEEE operations in the same order as ``simulate``'s per-row loop."""
    rng = np.random.default_rng(5)
    x0 = np.asfortranarray(rng.uniform(-0.5, 0.5, (40, 2)))
    w = [0.125]
    W = np.full((40, 1), w[0], order="F")
    sizes = _step_sizes(0.205, 0.01)
    seen = [x0.tobytes()]

    def field(parts, _t):
        return [bilinear.eval_field_batch(parts[0], W)]

    def post(old, new, _t, _s):
        assert old[0].tobytes() == seen[-1]
        assert not np.shares_memory(old[0], new[0])
        seen.append(new[0].tobytes())
        return new

    final, = _rk4(field, [x0], sizes, post)
    assert len(seen) == len(sizes) + 1 and x0.tobytes() == seen[0]
    spec = mm.ReachSpec(0.205, 0.01)
    rows = np.array([mm.simulate(bilinear, x, w, spec).final_state for x in x0])
    assert _same_bits(np.ascontiguousarray(final), rows)


def test_divergent_rows_are_counted_and_never_witnesses():
    """Diverged rows stay in the batch and are found after the last step:
    the sampler counts exactly the reference's, and a diverged search row is
    no backward witness even where its last finite state lies in the target."""
    spec = mm.ReachSpec(1.0, 0.01)
    sizes = _step_sizes(spec.horizon, spec.dt)
    x0 = mm.Box([-1.0], [20.0])
    cfg = mm.SampleConfig(count=600, seed=3)
    res = mm.sample_endpoints(_BLOWUP, x0, spec, cfg)
    rng = np.random.default_rng(cfg.seed)
    starts = _sample_initial(x0, cfg.count, rng)
    levels, steps = _one_shot_signals(rng, cfg.count, cfg.switch_count,
                                      _BLOWUP.dist, spec, len(sizes))
    ref_X, ref_alive = _reference_batch(_BLOWUP, starts, levels, steps, sizes)
    assert 0 < res.divergent == int((~ref_alive).sum()) < cfg.count
    assert _same_bits(res.points, ref_X[ref_alive])

    search = mm.Box([-1.0], [20.0])
    target = mm.Parallelotope(np.eye(1), mm.Box([0.0], [1e300]))
    wit = mm.backward_witnesses(_BLOWUP, target, spec, cfg, search)
    rng = np.random.default_rng(cfg.seed)
    starts = rng.uniform(search.lo, search.hi, size=(cfg.count, 1))
    levels, steps = _one_shot_signals(rng, cfg.count, cfg.switch_count,
                                      _BLOWUP.dist, spec, len(sizes))
    ref_X, ref_alive = _reference_batch(_BLOWUP, starts, levels, steps, sizes)
    inside = (ref_X[:, 0] >= 0.0) & (ref_X[:, 0] <= 1e300)
    assert (inside & ~ref_alive).any()  # frozen states the audit must skip
    assert _same_bits(wit, starts[inside & ref_alive])


def _one_shot_signals(rng, count, switch_count, dist, spec, steps):
    """The signal draw that the block-by-block one replaced: every pick and
    every switch time of the chunk in one draw each, the steps as int."""
    segments = switch_count + 1
    levels = rng.uniform(dist.lo, dist.hi, size=(count, segments, dist.dim))
    pick = rng.uniform(size=(count, segments))
    levels[pick < 0.1] = dist.lo
    levels[(pick >= 0.1) & (pick < 0.2)] = dist.hi
    if switch_count == 0:
        return levels, np.zeros((count, 0), dtype=int)
    raw = rng.uniform(0.0, spec.horizon, size=(count, switch_count))
    return levels, np.clip(np.round(raw / spec.dt).astype(int), 0, steps)


def _one_shot_search(system, target, spec, cfg, search, chunk):
    """The trajectory loop that the streamed one replaced: each chunk draws
    its starts from ``search``, then all its levels, picks and switch times
    at once, integrates them by the per-step reference and selects the
    witnesses among the chunk's alive rows. Returns the levels, switch
    steps, endpoints of the alive rows and witnesses of all chunks, and the
    generator state after each chunk."""
    sizes = _step_sizes(spec.horizon, spec.dt)
    rng = np.random.default_rng(cfg.seed)
    levels, switches, ends, witnesses, states = [], [], [], [], []
    for done in range(0, cfg.count, chunk):
        count = min(chunk, cfg.count - done)
        starts = rng.uniform(search.lo, search.hi, size=(count, system.n))
        chunk_levels, chunk_switches = _one_shot_signals(
            rng, count, cfg.switch_count, system.dist, spec, len(sizes))
        X, alive = _reference_batch(system, starts, chunk_levels, chunk_switches,
                                    sizes)
        X = X[alive]
        levels.append(chunk_levels)
        switches.append(chunk_switches)
        ends.append(X)
        witnesses.append(starts[alive][target.margins(X) >= -oracle.CONTAINMENT_TOL])
        states.append(rng.bit_generator.state)
    return (*map(np.concatenate, (levels, switches, ends, witnesses)), states)


_DRAW_CASES = {
    # name: (count, switch_count, disturbance box, horizon, dt, step type,
    #        rows per chunk)
    "ragged": (100, 4, mm.Box([-1.0], [1.0]), 1.0, 0.01, np.uint8, 100),
    "no_switches": (100, 0, mm.Box([-1.0], [1.0]), 1.0, 0.01, np.uint8, 100),
    "two_disturbances": (100, 3, mm.Box([-1.0, 0.0], [1.0, 0.5]), 0.5, 0.01,
                         np.uint8, 100),
    "over_255_steps": (100, 6, mm.Box([0.0], [2.0]), 3.0, 0.01, np.uint16, 100),
    "remainder": (100, 4, mm.Box([-1.0], [1.0]), 0.255, 0.01, np.uint8, 100),
    # chunks of 60 and 40 rows: blocks of 7 rows and a remainder in each
    "two_chunks": (100, 4, mm.Box([-1.0], [1.0]), 1.0, 0.01, np.uint8, 60),
    # chunks of 50 and 49 rows: the first ends in a one-row remainder
    "one_row_last_block": (99, 4, mm.Box([-1.0], [1.0]), 1.0, 0.01, np.uint8, 50),
    "diverging": (100, 4, mm.Box([0.0], [1.0]), 1.0, 0.01, np.uint8, 60),
}


def _draw_case_system(name, dist):
    """A planar system driven by every disturbance of ``dist``; in the
    diverging case, x1' = x1^2 + ... blows up from the larger starts."""
    w = " + ".join(f"w{k + 1}" for k in range(dist.dim))
    first = "x1*x1" if name == "diverging" else "x2"
    return mm.SystemDef.from_strings(2, dist.dim, [f"{first} + {w}", "x1 - x2"],
                                     dist.lo, dist.hi)


@pytest.mark.parametrize("name", list(_DRAW_CASES))
def test_block_draw_matches_the_one_shot_draw(name, monkeypatch):
    """Rows drawn in blocks of 7 at their stream offsets give the one-shot
    draw's levels and switch steps, in the compact step type, and leave the
    generator where the one-shot draw leaves it. Run through the trajectory
    loop in chunks, every block's signals, every endpoint, the witness set
    and the generator state after each chunk are bit for bit those of the
    one-shot loop, a one-row block's included. The block spy records in
    this process, so the blocks are integrated here."""
    _one_cpu(monkeypatch)
    count, switch_count, dist, horizon, dt, step_type, chunk = _DRAW_CASES[name]
    spec = mm.ReachSpec(horizon, dt)
    steps = len(_step_sizes(horizon, dt))
    if name == "remainder":
        assert _step_sizes(horizon, dt)[-1] < dt
    monkeypatch.setattr(oracle, "_BLOCK", 7)
    rng, ref_rng = np.random.default_rng(17), np.random.default_rng(17)
    draw = _draw_signals(rng, count, switch_count, dist, spec, steps)
    ref_levels, ref_switches = _one_shot_signals(ref_rng, count, switch_count,
                                                 dist, spec, steps)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    # any block, in any order, draws its own rows
    middle_levels, middle_switches = draw(slice(30, 44))
    assert _same_bits(middle_levels, ref_levels[30:44])
    assert np.array_equal(middle_switches, ref_switches[30:44])
    pieces = [draw(rows) for rows in _row_blocks(count)]
    levels = np.concatenate([lv for lv, _ in pieces])
    switches = np.concatenate([sw for _, sw in pieces])
    assert _same_bits(levels, ref_levels)
    assert switches.dtype == step_type and switches.shape == ref_switches.shape
    assert np.array_equal(switches, ref_switches)
    if step_type is np.uint16:
        assert switches.max() > 255
    assert ((levels == dist.lo) | (levels == dist.hi)).all(axis=2).any()

    system = _draw_case_system(name, dist)
    search = mm.Box([-1.0, -1.0], [20.0 if name == "diverging" else 1.0, 1.0])
    target = mm.Parallelotope([[1.0, -2.0], [1.0, 1.0]], mm.Box([-1.0, -1.0], [1.0, 1.0]))
    cfg = mm.SampleConfig(count=count, seed=23, switch_count=switch_count)
    ref_levels, ref_switches, ref_ends, ref_witnesses, ref_states = _one_shot_search(
        system, target, spec, cfg, search, chunk)
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    blocks, states = [], []
    integrate_block, draw_signals = oracle._integrate_block, oracle._draw_signals

    def integrate_spy(system, X, levels, switch_steps, sizes):
        blocks.append((levels, switch_steps))
        return integrate_block(system, X, levels, switch_steps, sizes)

    def draw_spy(rng, *args):
        draw = draw_signals(rng, *args)
        states.append(rng.bit_generator.state)
        return draw

    monkeypatch.setattr(oracle, "_integrate_block", integrate_spy)
    monkeypatch.setattr(oracle, "_draw_signals", draw_spy)
    witnesses = mm.backward_witnesses(system, target, spec, cfg, search)
    assert (min(len(lv) for lv, _ in blocks) == 1) == (name == "one_row_last_block")
    assert _same_bits(np.concatenate([lv for lv, _ in blocks]), ref_levels)
    assert np.array_equal(np.concatenate([sw for _, sw in blocks]), ref_switches)
    assert _same_bits(witnesses, ref_witnesses)
    assert 0 < len(witnesses) < count
    res = mm.sample_endpoints(system, search, spec, cfg)
    assert _same_bits(res.points, ref_ends)
    assert res.divergent == count - len(ref_ends)
    assert (res.divergent > 0) == (name == "diverging")
    assert states == ref_states + ref_states


def _traced_witness_search(count):
    """The witness search of backward-verify's config at ``count`` rows:
    (its ``tracemalloc`` peak, its witnesses, the system). tracemalloc
    traces numpy's buffers too."""
    path = Path(__file__).resolve().parents[1] / "perfbench/configs/backward_verify.json"
    cfg = load_config(path)
    spec = mm.ReachSpec(cfg.spec.horizon, cfg.spec.dt, "forward")
    # compile the field and touch every code path before tracing
    warm = mm.SampleConfig(count=10, seed=0)
    mm.backward_witnesses(cfg.system, cfg.initial_set, spec, warm, cfg.search_box)
    sampling = mm.SampleConfig(count=count, seed=cfg.sampling.seed,
                               switch_count=cfg.sampling.switch_count)
    tracemalloc.start()
    try:
        witnesses = mm.backward_witnesses(cfg.system, cfg.initial_set, spec,
                                          sampling, cfg.search_box)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert len(witnesses) > 0
    return peak, witnesses, cfg.system


def test_the_witness_search_holds_its_arrays_and_a_few_row_blocks():
    """The witness search of backward-verify's config (80,000 rows in one
    chunk) holds at once the chunk's starts and the arrays of one row
    block: its signals, its RK4 state, stage buffer and derivatives, and
    its event tables. The bound allows the starts plus fourteen (2^14, n)
    float blocks (twelve are measured); holding a chunk's levels or
    endpoints exceeds it."""
    count = 80_000
    peak, _, system = _traced_witness_search(count)
    block = oracle._BLOCK * system.n * 8
    assert peak < count * system.n * 8 + 14 * block, (peak, block)


def test_the_witness_search_peak_does_not_grow_with_the_chunk():
    """Three times the rows in one chunk add their starts, the one
    chunk-wide array (n doubles a row), and their few witnesses, but less
    than one more (2^14, n) float block: every other array lives for one
    row block."""
    small, _, system = _traced_witness_search(80_000)
    large, _, _ = _traced_witness_search(240_000)
    starts = (240_000 - 80_000) * system.n * 8
    assert large - starts < small + oracle._BLOCK * system.n * 8, (small, large)


@pytest.mark.parametrize("bound", [
    test_the_witness_search_holds_its_arrays_and_a_few_row_blocks,
    test_the_witness_search_peak_does_not_grow_with_the_chunk,
], ids=lambda bound: bound.__name__)
def test_the_witness_search_bounds_hold_on_one_cpu(bound, monkeypatch):
    """tracemalloc traces this process alone. On the default path forked
    workers hold each block's signals and RK4 buffers, so the bounds are
    also checked where this process integrates every block."""
    _one_cpu(monkeypatch)
    bound()


needs_fork = pytest.mark.skipif(
    not (hasattr(os, "fork") and hasattr(os, "sched_setaffinity")),
    reason="the row blocks fan out only where a process can fork and set its CPUs")


def _counted_forks(monkeypatch):
    """The pids of the processes forked from now on."""
    forks = []
    fork = os.fork

    def counted():
        pid = fork()
        if pid:
            forks.append(pid)
        return pid

    monkeypatch.setattr(os, "fork", counted)
    return forks


def _no_child_left():
    with pytest.raises(ChildProcessError):
        os.waitpid(-1, os.WNOHANG)


def _sampled_and_searched(name, monkeypatch):
    """Corner-first endpoints, their divergent count, the backward witnesses
    and the generator state after each chunk of one _DRAW_CASES case, in
    blocks of 7 rows; the 8 corner rows make a 7-row and a 1-row block."""
    count, switch_count, dist, horizon, dt, _, chunk = _DRAW_CASES[name]
    monkeypatch.setattr(oracle, "_BLOCK", 7)
    monkeypatch.setattr(oracle, "_CHUNK", chunk)
    spec = mm.ReachSpec(horizon, dt)
    system = _draw_case_system(name, dist)
    search = mm.Box([-1.0, -1.0], [20.0 if name == "diverging" else 1.0, 1.0])
    target = mm.Parallelotope([[1.0, -2.0], [1.0, 1.0]], mm.Box([-1.0, -1.0], [1.0, 1.0]))
    states = []
    draw_signals = _draw_signals

    def draw_spy(rng, *args):
        draw = draw_signals(rng, *args)
        states.append(rng.bit_generator.state)
        return draw

    monkeypatch.setattr(oracle, "_draw_signals", draw_spy)
    cfg = mm.SampleConfig(count=count, seed=23, switch_count=switch_count)
    res = mm.sample_endpoints(system, search, spec, mm.SampleConfig(
        count=count, seed=23, switch_count=switch_count,
        init_mode="corners_plus_uniform"))
    witnesses = mm.backward_witnesses(system, target, spec, cfg, search)
    return res.points, res.divergent, witnesses, states


@needs_fork
@pytest.mark.parametrize("workers", ["allowed", "three"])
@pytest.mark.parametrize("name", ["two_chunks", "one_row_last_block", "diverging",
                                  "two_disturbances", "over_255_steps"])
def test_the_fan_out_equals_the_one_cpu_path(name, workers, monkeypatch):
    """Row blocks integrated by forked workers, one per allowed CPU or three
    started on one CPU (blocks k, k + 3, ... each), give the endpoints, divergent
    count, witnesses and generator states of the blocks integrated in this
    process, bit for bit: corner rows, two chunks, a one-row last block,
    diverging rows, two disturbances and more than 255 steps included."""
    cpus = sorted(os.sched_getaffinity(0))
    if workers == "three" or len(oracle._allowed_cpus()) < 2:
        monkeypatch.setattr(oracle, "_allowed_cpus", lambda: cpus[:1] * 3)
    forks = _counted_forks(monkeypatch)
    points, divergent, witnesses, states = _sampled_and_searched(name, monkeypatch)
    assert forks
    _no_child_left()
    forks.clear()
    _one_cpu(monkeypatch)
    alone = _sampled_and_searched(name, monkeypatch)
    assert not forks
    assert _same_bits(points, alone[0])
    assert divergent == alone[1]
    assert (divergent > 0) == (name == "diverging")
    assert _same_bits(witnesses, alone[2]) and 0 < len(witnesses)
    chunks = -(-(_DRAW_CASES[name][0]) // _DRAW_CASES[name][-1])
    assert states == alone[3] and len(states) == 2 * chunks


@needs_fork
def test_a_platform_that_cannot_place_a_worker_integrates_in_process(bilinear,
                                                                     monkeypatch):
    monkeypatch.setattr(oracle, "_BLOCK", 100)
    points, witnesses = _sample_and_search(bilinear)
    monkeypatch.delattr(os, "sched_setaffinity")
    forks = _counted_forks(monkeypatch)
    assert oracle._allowed_cpus() == []
    alone_points, alone_witnesses = _sample_and_search(bilinear)
    assert not forks
    assert _same_bits(points, alone_points)
    assert _same_bits(witnesses, alone_witnesses)


@needs_fork
def test_the_oracle_forks_beside_its_caller_from_the_floor_on(monkeypatch):
    """``_beside`` calls the sample in one forked worker where its
    trajectories times their steps reach _FORK_ROW_STEPS, the trajectories
    fit in one row block and two CPUs are listed; below the floor, above
    one block, or on one CPU, in this process."""
    cpus = sorted(os.sched_getaffinity(0))
    spec = mm.ReachSpec(1.0, 0.01)  # 100 steps
    forks = _counted_forks(monkeypatch)
    floor = oracle._FORK_ROW_STEPS // 100
    assert floor <= oracle._BLOCK
    for listed, count, forked in [((cpus * 2)[:2], floor - 1, False),
                                  ((cpus * 2)[:2], floor, True),
                                  ((cpus * 2)[:2], oracle._BLOCK, True),
                                  ((cpus * 2)[:2], oracle._BLOCK + 1, False),
                                  (cpus[:1], floor, False)]:
        monkeypatch.setattr(oracle, "_allowed_cpus", lambda listed=listed: listed)
        with oracle._beside(os.getpid, spec, mm.SampleConfig(count=count)) as result:
            assert (result() != os.getpid()) == forked
        assert len(forks) == forked
        forks.clear()
    _no_child_left()


@needs_fork
def test_a_record_logged_before_a_forked_error_is_handled_before_it(monkeypatch):
    """A sample that logs a warning and then raises: the warning reaches the
    oracle logger's handlers before the error reaches the caller, from the
    forked worker as in one process. The forked run used to lose it."""
    monkeypatch.setattr(oracle, "_FORK_ROW_STEPS", 0)
    spec = mm.ReachSpec(0.1, 0.01)
    cpus = sorted(os.sched_getaffinity(0))
    forks = _counted_forks(monkeypatch)
    handled = []
    handler = logging.Handler()
    handler.emit = lambda record: handled.append(record.getMessage())

    def sample():
        oracle.log.warning("logged before the failure")
        raise GeometryError("the sample failed")

    outcomes = []
    oracle.log.addHandler(handler)
    try:
        for listed in ((cpus * 2)[:2], cpus[:1]):
            monkeypatch.setattr(oracle, "_allowed_cpus", lambda listed=listed: listed)
            try:
                with oracle._beside(sample, spec, mm.SampleConfig(count=10)) as result:
                    result()
            except GeometryError as exc:
                outcomes.append((str(exc), list(handled)))
            handled.clear()
    finally:
        oracle.log.removeHandler(handler)
    assert len(forks) == 1
    assert outcomes == [("the sample failed", ["logged before the failure"])] * 2
    _no_child_left()


def test_cgroup_cpu_quotas_are_read_up_to_the_root(tmp_path):
    """The cpu.max of this process's cgroup v2 and of each cgroup above it,
    in CPUs, where one sets a limit: "max", a missing or an unreadable file
    sets none, and a cgroup v1 line is no cgroup v2 path."""
    proc, root = tmp_path / "cgroup", tmp_path / "fs"
    proc.write_text("4:cpu,cpuacct:/ignored\n0::/a/b/c\n")
    (root / "a" / "b" / "c").mkdir(parents=True)
    (root / "cpu.max").write_text("max 100000\n")
    (root / "a" / "cpu.max").write_text("150000 100000\n")
    (root / "a" / "b" / "cpu.max").write_text("not a limit\n")
    (root / "a" / "b" / "c" / "cpu.max").write_text("300000 100000\n")
    assert oracle._cpu_quotas(proc, root) == [3.0, 1.5]
    proc.write_text("4:cpu,cpuacct:/ignored\n")
    assert oracle._cpu_quotas(proc, root) == []
    assert oracle._cpu_quotas(tmp_path / "missing", root) == []


@needs_fork
def test_a_cpu_quota_caps_the_workers(bilinear, monkeypatch):
    """A quota of 1.5 CPUs allows the first two allowed CPUs, rounded up; a
    quota of one CPU or less integrates in this process, with the same
    bits."""
    monkeypatch.setattr(oracle, "_BLOCK", 100)
    cpus = sorted(os.sched_getaffinity(0))
    monkeypatch.setattr(oracle, "_cpu_quotas", lambda: [3.0, 1.5])
    assert oracle._allowed_cpus() == cpus[:2]
    points, witnesses = _sample_and_search(bilinear)
    monkeypatch.setattr(oracle, "_cpu_quotas", lambda: [0.5])
    assert oracle._allowed_cpus() == cpus[:1]
    forks = _counted_forks(monkeypatch)
    alone_points, alone_witnesses = _sample_and_search(bilinear)
    assert not forks
    assert _same_bits(points, alone_points)
    assert _same_bits(witnesses, alone_witnesses)


@needs_fork
def test_worker_k_starts_on_the_kth_cpu_and_integrates_every_wth_block(monkeypatch):
    """Three workers over eight blocks: worker k, a process of its own, is
    moved to the k-th listed CPU and then given back every allowed CPU; it
    integrates blocks k, k + 3, ..., and the blocks come back in order."""
    monkeypatch.setattr(oracle, "_BLOCK", 7)
    allowed = os.sched_getaffinity(0)
    listed = (sorted(allowed) * 3)[:3]
    monkeypatch.setattr(oracle, "_allowed_cpus", lambda: listed)
    moves = []
    set_affinity = os.sched_setaffinity

    def recorded(pid, cpus):
        moves.append(sorted(cpus))
        set_affinity(pid, cpus)

    monkeypatch.setattr(os, "sched_setaffinity", recorded)

    def whereabouts(system, X, _levels, _switch_steps, _sizes):
        # the endpoints name the process, where the worker was moved, whether
        # it may now run on every allowed CPU, and the block's rows
        assert moves[1:] == [sorted(allowed)]
        return np.asfortranarray(np.column_stack(
            [np.full(len(X), os.getpid()), np.full(len(X), moves[0][0]),
             np.full(len(X), os.sched_getaffinity(0) == allowed), X]))

    monkeypatch.setattr(oracle, "_integrate_block", whereabouts)
    X = np.column_stack([np.arange(50.0), np.zeros(50)])
    five_columns = types.SimpleNamespace(n=5)
    blocks = list(_integrate_batch(five_columns, X, lambda rows: (None, None), ()))
    assert len(blocks) == 8
    pids = [int(ends[0, 0]) for _, ends, _ in blocks]
    assert len(set(pids[:3])) == 3 and os.getpid() not in pids
    for i, (starts, ends, _) in enumerate(blocks):
        assert pids[i] == pids[i % 3]
        assert (ends[:, 1] == listed[i % 3]).all() and (ends[:, 2] == 1).all()
        assert _same_bits(ends[:, 3:].copy(), starts.copy())
    _no_child_left()


def _fail_in_workers(monkeypatch, fail):
    """``_integrate_block`` that runs ``fail()`` at each worker's second
    block; in this process it never fails."""
    parent, calls = os.getpid(), []
    integrate_block = oracle._integrate_block

    def failing(*args):
        calls.append(None)
        if os.getpid() != parent and len(calls) == 2:
            fail()
        return integrate_block(*args)

    monkeypatch.setattr(oracle, "_integrate_block", failing)


def _raise(error):
    raise error


def _unpicklable():
    error = MmreachError("cannot travel")
    error.hook = lambda: None  # pickle refuses a lambda
    return error


@needs_fork
@pytest.mark.parametrize("case", ["killed", "raises", "unpicklable"])
def test_a_failed_worker_surfaces_at_its_block(case, bilinear, monkeypatch):
    """Two workers over eight 7-row blocks: worker 0 fails at its second
    block, block 2 (rows 14 to 20). Blocks 0 and 1 come back, then block 2
    raises the worker's own error, or a MmreachError naming its rows and
    exit status when the worker died, or could not send the error it
    raised and so left with status 1; every worker is reaped."""
    monkeypatch.setattr(oracle, "_BLOCK", 7)
    cpus = sorted(os.sched_getaffinity(0))
    monkeypatch.setattr(oracle, "_allowed_cpus", lambda: cpus[:1] * 2)
    fail, expected = {
        "killed": (lambda: os.kill(os.getpid(), signal.SIGKILL),
                   (MmreachError, r"rows 14 to 20 .* died \(exit status -9\)")),
        "raises": (lambda: _raise(DivergenceError("block failed", 0.25)),
                   (DivergenceError, "^block failed$")),
        "unpicklable": (lambda: _raise(_unpicklable()),
                        (MmreachError, r"rows 14 to 20 .* died \(exit status 1\)")),
    }[case]
    _fail_in_workers(monkeypatch, fail)
    system, X, levels, steps, sizes = _batch_case("no_switches")
    X, levels, steps = X[:50], levels[:50], steps[:50]
    got = []
    with pytest.raises(expected[0], match=expected[1]) as error:
        for _, ends, _ in _integrate_batch(system, X, lambda rows: (levels[rows], steps[rows]),
                                           sizes):
            got.append(ends)
    assert len(got) == 2
    assert type(error.value) is expected[0]
    if case == "raises":
        assert error.value.last_time == 0.25
    _no_child_left()


_FAILING_RUN = """
import os, signal, sys, threading, time
signal.signal(signal.SIGINT, signal.default_int_handler)
import numpy as np, mmreach as mm
from mmreach import oracle
from mmreach.errors import DivergenceError, MmreachError

case = sys.argv[1]
oracle._BLOCK = 7
cpus = sorted(os.sched_getaffinity(0))
oracle._allowed_cpus = lambda: cpus[:1] * 2
parent, calls = os.getpid(), []
integrate_block = oracle._integrate_block


def failing(*args):
    calls.append(None)
    if os.getpid() != parent and len(calls) == 2:  # each worker's second block
        if case == "killed":
            os.kill(os.getpid(), signal.SIGKILL)
        elif case == "raises":
            raise DivergenceError("block failed", 0.25)
        elif case == "interrupted_worker":  # as a terminal's Ctrl-C would
            os.kill(os.getpid(), signal.SIGINT)
        else:
            time.sleep(60)
    return integrate_block(*args)


def interrupt(self, X):
    raise KeyboardInterrupt


oracle._integrate_block = failing
if case == "interrupted_while_waiting":
    timer = threading.Timer(0.5, signal.pthread_kill,
                            (threading.get_ident(), signal.SIGINT))
    timer.start()
elif case == "interrupted_between_blocks":
    mm.Parallelotope.margins = interrupt
print("start")  # still in this process's buffer when the workers fork
target = mm.Parallelotope(np.eye(2), mm.Box([0.0, 0.0], [1.0, 1.0]))
try:
    mm.backward_witnesses(mm.preset_system("bilinear"), target, mm.ReachSpec(0.5, 0.01),
                          mm.SampleConfig(count=50), mm.Box([-1.0, -1.0], [1.0, 1.0]))
    print("finished")
except KeyboardInterrupt:
    print("KeyboardInterrupt")
except MmreachError as exc:
    print(type(exc).__name__, exc)
try:
    os.waitpid(-1, os.WNOHANG)
    print("a child is left")
except ChildProcessError:
    print("no child is left")
"""


@needs_fork
@pytest.mark.parametrize("case, outcome", [
    ("killed", "MmreachError the oracle worker integrating rows 14 to 20 of a "
               "chunk died (exit status -9)"),
    ("raises", "DivergenceError block failed"),
    ("interrupted_while_waiting", "KeyboardInterrupt"),
    ("interrupted_between_blocks", "KeyboardInterrupt"),
    ("interrupted_worker", "finished"),
])
def test_a_failed_or_interrupted_run_reaps_its_workers(case, outcome):
    """A run in a child process, its stdout a block-buffered pipe: a worker
    killed by SIGKILL, a worker whose block raises, and a KeyboardInterrupt
    while this process waits for a worker sleeping 60 s or while it handles
    a block, each end in the typed error or the interrupt within seconds,
    with no child left. A SIGINT sent to a worker is left to the parent:
    the run finishes. The line printed before the fork is printed once:
    the workers leave without flushing the buffer they share with the
    parent, and write nothing to stderr."""
    src = str(Path(mm.__file__).resolve().parents[1])
    env = {key: value for key, value in os.environ.items()
           if key != "PYTHONUNBUFFERED"}
    child = subprocess.run([sys.executable, "-c", _FAILING_RUN, case],
                           capture_output=True, text=True, timeout=30,
                           env={**env, "PYTHONPATH": src})
    assert child.returncode == 0, child.stderr
    assert child.stdout == f"start\n{outcome}\nno child is left\n"
    assert child.stderr == ""


@needs_fork
def test_the_fork_warning_of_python_3_12_is_not_an_error(bilinear, monkeypatch):
    """Python 3.12+ warns, in the parent and after the child exists, when a
    process with threads (BLAS's) forks. Emulated here as a warning that
    the suite's error::DeprecationWarning turns into a raise, it neither
    raises nor reaches the caller: the oracle ignores exactly that warning
    around its fork, and the run gives the one-CPU path's bits."""
    monkeypatch.setattr(oracle, "_BLOCK", 100)
    cpus = sorted(os.sched_getaffinity(0))
    monkeypatch.setattr(oracle, "_allowed_cpus", lambda: cpus[:1] * 2)
    fork = os.fork

    def warning_fork():
        pid = fork()
        if pid:
            warnings.warn(f"This process (pid={os.getpid()}) is multi-threaded, "
                          "use of fork() may lead to deadlocks in the child.",
                          DeprecationWarning, stacklevel=2)
        return pid

    monkeypatch.setattr(os, "fork", warning_fork)
    with warnings.catch_warnings(record=True) as shown:
        warnings.simplefilter("error")
        points, witnesses = _sample_and_search(bilinear)
    assert not shown
    _no_child_left()
    with pytest.raises(DeprecationWarning):
        warning_fork() or os._exit(0)
    os.waitpid(-1, 0)
    _one_cpu(monkeypatch)
    alone_points, alone_witnesses = _sample_and_search(bilinear)
    assert _same_bits(points, alone_points)
    assert _same_bits(witnesses, alone_witnesses)


def _one_shot_rejection(rng, bbox, count, accept):
    """The rejection sampler that the row-block one replaced: each round
    draws and tests all its candidates at once."""
    out = np.empty((count, bbox.dim))
    have = 0
    while have < count:
        batch = rng.uniform(bbox.lo, bbox.hi, size=(max(count, 1024), bbox.dim))
        accepted = batch[accept(batch)]
        take = min(count - have, len(accepted))
        out[have : have + take] = accepted[:take]
        have += take
    return out


@pytest.mark.parametrize("count", [1, 50, 1024, 1100, 3000])
def test_rejection_sampler_matches_the_one_shot_sampler(count, monkeypatch):
    """Candidates tested in pieces of 7 rows (and a remainder) give the
    one-shot sampler's draws and leave the generator where it leaves it,
    though the pieces after the last one needed are not drawn. A union of
    sheared parallelotopes accepts 3/8 of the candidates, so some
    counts need several rounds; 1,100 candidates end in a one-row piece."""
    monkeypatch.setattr(oracle, "_BLOCK", 7)
    shape = [[1.0, -2.0], [1.0, 1.0]]
    union = mm.UnionInitialSet((
        mm.Parallelotope(shape, mm.Box([0.0, -0.25], [0.25, 0.0])),
        mm.Parallelotope(shape, mm.Box([0.25, 0.0], [0.5, 0.25]))))
    bbox = union.bounding_box()
    tested, ref_tested = [], []

    def accept(batch, seen):
        seen.append(len(batch))
        return union.margins(batch) >= 0.0

    rng, ref_rng = np.random.default_rng(31), np.random.default_rng(31)
    points = _rejection_sample(rng, bbox, count, lambda b: accept(b, tested))
    ref = _one_shot_rejection(ref_rng, bbox, count, lambda b: accept(b, ref_tested))
    assert _same_bits(points, ref)
    assert rng.bit_generator.state == ref_rng.bit_generator.state
    assert (min(tested) == 1) == (count == 1100)
    assert sum(tested) < sum(ref_tested)  # the last round stops early


def test_the_rejection_sampler_holds_its_starts_and_a_few_row_blocks():
    """example2's 4-vertex hull fills half of its bounding box. One
    250,000-row chunk of starts (4.0 MB) was sampled at a 20.0 MB peak when
    a round's candidates were drawn and tested at once; in row-block pieces
    the peak is the starts plus a few (2^14, 2) float blocks."""
    hull = mm.convex_hull_2d([[0.5, -0.25], [0.75, 0.0], [0.25, 0.25], [0.0, 0.0]])
    assert len(hull) == 4
    count = 250_000
    _sample_initial(hull, 100, np.random.default_rng(0))
    tracemalloc.start()
    try:
        points = _sample_initial(hull, count, np.random.default_rng(0))
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert np.all(hull.margins(points) >= 0.0)
    block = oracle._BLOCK * 2 * 8
    assert peak < count * 2 * 8 + 6 * block, (peak, block)


def test_the_audit_and_the_volume_estimate_hold_a_few_row_blocks():
    """Auditing 200,000 points against ten parallelotopes, as an
    intersection and as a union, holds the margins array (8 bytes a row),
    two masks (1 byte a row each) and a few (2^14, 2) float blocks of
    member temporaries; it peaked at 11.2 MB when every member's margins
    were taken over the whole cloud at once. The Monte-Carlo volume of a
    3-D intersection holds a few (2^14, 3) float blocks at any sample
    count; it peaked at 14.4 MB for 200,000 samples drawn at once."""
    count = 200_000
    shear = np.array([[1.0, -2.0], [1.0, 1.0]])
    members = tuple(
        mm.Parallelotope(shear @ [[np.cos(t), -np.sin(t)], [np.sin(t), np.cos(t)]],
                         mm.Box([-1.0, -1.0], [1.0, 1.0]))
        for t in np.linspace(0.0, 1.5, 10))
    pts = np.random.default_rng(0).uniform(-0.3, 0.3, size=(count, 2))
    block = oracle._BLOCK * 2 * 8
    for region in (mm.RegionIntersection(members), mm.UnionInitialSet(members)):
        mm.audit_containment(pts[:10], region)
        tracemalloc.start()
        try:
            report = mm.audit_containment(pts, region)
            _, peak = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert report.total == count and report.ok
        assert peak < count * (8 + 2) + 4 * block, (peak, block)
    ptopes = [mm.Parallelotope([[1.0, 0.3, 0.1], [0.2, 1.0, -0.4], [0.0, 0.5, 1.0]],
                               mm.Box([-1.0] * 3, [1.0] * 3)),
              mm.Box([-0.5, -0.8, -1.0], [1.2, 0.9, 0.7])]
    mm.intersection_volume_mc(ptopes, samples=100)
    tracemalloc.start()
    try:
        volume, ci = mm.intersection_volume_mc(ptopes, samples=count)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert 0.0 < ci < volume
    block = oracle._BLOCK * 3 * 8
    assert peak < 4 * block, (peak, block)
