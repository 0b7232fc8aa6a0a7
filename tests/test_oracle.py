import hashlib
import logging
import math

import numpy as np
import pytest

import mmreach as mm
from mmreach import oracle
from mmreach.embed import _rk4, _step_sizes
from mmreach.errors import DimensionMismatchError
from mmreach.oracle import _draw_signals, _integrate_batch, _sample_initial


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


def test_intersection_volume_mc():
    unit = mm.Parallelotope(np.eye(2), mm.Box([0, 0], [1, 1]))
    vol, ci = mm.intersection_volume_mc([unit, unit], samples=20000, seed=6)
    assert vol == pytest.approx(1.0, abs=1e-12)
    shifted = mm.Parallelotope(np.eye(2), mm.Box([2, 2], [3, 3]))
    vol, ci = mm.intersection_volume_mc([unit, shifted], samples=1000, seed=7)
    assert vol == 0.0


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
    X, alive = _integrate_batch(system, starts, levels, steps, sizes)
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


def test_the_field_sees_every_trajectory_step_as_one_row(bilinear, monkeypatch):
    """A profiler counts trajectory steps as the rows of the field's X: every
    call gets a 2-D (rows, n) array, and the rows sum to four RK4 stages per
    step per trajectory, corner rows included."""
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
    X, alive = _integrate_batch(system, starts, levels, steps, sizes)
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
    levels, steps = _draw_signals(rng, cfg.count, cfg.switch_count,
                                  _BLOWUP.dist, spec, len(sizes))
    ref_X, ref_alive = _reference_batch(_BLOWUP, starts, levels, steps, sizes)
    assert 0 < res.divergent == int((~ref_alive).sum()) < cfg.count
    assert _same_bits(res.points, ref_X[ref_alive])

    search = mm.Box([-1.0], [20.0])
    target = mm.Parallelotope(np.eye(1), mm.Box([0.0], [1e300]))
    wit = mm.backward_witnesses(_BLOWUP, target, spec, cfg, search)
    rng = np.random.default_rng(cfg.seed)
    starts = rng.uniform(search.lo, search.hi, size=(cfg.count, 1))
    levels, steps = _draw_signals(rng, cfg.count, cfg.switch_count,
                                  _BLOWUP.dist, spec, len(sizes))
    ref_X, ref_alive = _reference_batch(_BLOWUP, starts, levels, steps, sizes)
    inside = (ref_X[:, 0] >= 0.0) & (ref_X[:, 0] <= 1e300)
    assert (inside & ~ref_alive).any()  # frozen states the audit must skip
    assert _same_bits(wit, starts[inside & ref_alive])
