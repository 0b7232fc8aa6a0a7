"""Acceptance suite: every criterion at its stated tolerance.

Each test prints one PASS line on success (run with -s to see them); a
failing assertion is the FAIL line. Shared pipeline runs are session-scoped
so the whole suite stays inside its runtime budget.
"""

import time

import numpy as np
import pytest

import mmreach as mm
from mmreach.config import load_config
from mmreach.multiorder import run_reach

CONTAINMENT_TOL = 1e-9


def _report(num, detail):
    print(f"criterion {num}: PASS - {detail}")


@pytest.fixture(scope="module")
def ex1():
    cfg = load_config("example1")
    return cfg, run_reach(cfg)


@pytest.fixture(scope="module")
def ex1_backward():
    cfg = load_config("example1_backward")
    return cfg, run_reach(cfg)


@pytest.fixture(scope="module")
def ex2():
    cfg = load_config("example2")
    return cfg, run_reach(cfg)


@pytest.fixture(scope="module")
def ex3():
    cfg = load_config("example3")
    return cfg, run_reach(cfg)


@pytest.fixture(scope="module")
def hexagons():
    out = {}
    for name in ("hexagon", "hexagon_overlap"):
        cfg = load_config(name)
        out[name] = (cfg, run_reach(cfg))
    return out


def _endpoints(cfg, count=10**4):
    sampling = mm.SampleConfig(count=count, seed=cfg.sampling.seed,
                               switch_count=cfg.sampling.switch_count,
                               init_mode=cfg.sampling.init_mode)
    init = cfg.initial_set
    if isinstance(init, list):
        # sample the polytope spanned by the vertices, not its bounding box
        if len(init) == 1:
            init = mm.Box(init[0], init[0])
        else:
            init = mm.convex_hull_2d(init)
    return mm.sample_endpoints(cfg.system, init, cfg.spec, sampling)


def test_criterion_1_soundness(ex1, ex2, ex3, hexagons):
    """10^4 sampled endpoints per preset inside the over-approximations."""
    start = time.time()
    total_checked = 0
    for name, (cfg, outcome) in (
        ("example1", ex1), ("example2", ex2), ("example3", ex3),
        ("hexagon", hexagons["hexagon"]),
        ("hexagon_overlap", hexagons["hexagon_overlap"]),
    ):
        res = _endpoints(cfg)
        assert res.divergent == 0, f"{name}: divergent trajectories"
        report = mm.audit_containment(res.points, outcome.audit_region(),
                                      tol=CONTAINMENT_TOL)
        assert report.violations == 0, (
            f"{name}: {report.violations} of {report.total} endpoints escaped "
            f"(worst margin {report.worst_margin:.3e})"
        )
        total_checked += report.total
    elapsed = time.time() - start
    assert elapsed <= 120.0, f"soundness run took {elapsed:.0f}s (limit 120s)"
    _report(1, f"{total_checked} endpoints contained, zero violations "
               f"({elapsed:.0f}s)")


def test_criterion_2_area_reproduction(ex2):
    """True-area estimate 0.67 +/- 0.05; intersection curve decays into range."""
    start = time.time()
    cfg, outcome = ex2
    areas = outcome.areas
    assert all(b <= a + 1e-12 for a, b in zip(areas, areas[1:])), (
        "cumulative areas increased"
    )
    final = areas[-1]
    assert 0.67 <= final <= 1.9, f"final intersection area {final:.3f}"
    # documented target from the 10-transform construction
    assert abs(final - 1.71) <= 0.25, f"final area {final:.3f} vs target 1.71"

    init = mm.Parallelotope(np.array([[1.0, -2.0], [1.0, 1.0]]),
                            mm.Box([0.0, -0.25], [0.25, 0.0]))
    res = mm.sample_endpoints(cfg.system, init, cfg.spec,
                              mm.SampleConfig(count=10**6, seed=11))
    assert res.divergent == 0
    estimate = mm.occupancy_area(res.points, cell=0.02)
    assert abs(estimate - 0.67) <= 0.05, f"occupancy estimate {estimate:.3f}"
    elapsed = time.time() - start
    assert elapsed <= 180.0, f"area run took {elapsed:.0f}s (limit 180s)"
    _report(2, f"true area {estimate:.3f}, final intersection {final:.3f} "
               f"({elapsed:.0f}s)")


def test_criterion_3_tight_matches_closed_form():
    """Optimizer equals the hand-derived extremal form on 1000 quadruples."""
    start = time.time()
    system = mm.preset_system("bilinear")
    d = mm.tight_decomposition(system)
    rng = np.random.default_rng(123)
    worst = 0.0
    for _ in range(1000):
        a = rng.uniform(-2, 2, 2)
        b = rng.uniform(-2, 2, 2)
        x, xh = np.minimum(a, b), np.maximum(a, b)
        u = rng.uniform(0, 0.25, 1)
        v = rng.uniform(0, 0.25, 1)
        w, wh = np.minimum(u, v), np.maximum(u, v)
        if rng.uniform() < 0.5:
            x, w, xh, wh = xh, wh, x, w
        got = d.evaluate(list(x), list(w), list(xh), list(wh))
        d1 = x[0] * x[1] + w[0] if x[0] >= 0 else x[0] * xh[1] + w[0]
        want = np.array([d1, x[0] + 1.0])
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-6, f"max abs deviation {worst:.2e}"
    elapsed = time.time() - start
    assert elapsed <= 10.0, f"took {elapsed:.1f}s (limit 10s)"
    _report(3, f"max deviation {worst:.2e} over 1000 quadruples ({elapsed:.1f}s)")


def test_criterion_4_combined_box_inside_intersection():
    """Combined-decomposition boxes sit inside the per-part intersections."""
    start = time.time()
    system = mm.preset_system("bilinear")
    d1 = mm.jacobian_sign_decomposition(
        system, mm.Box([0.0, -3.0], [3.0, 3.0]), samples=200, seed=0
    )
    d2 = mm.jacobian_sign_decomposition(
        system, mm.Box([0.0, -1.0], [1.0, 1.0]), samples=200, seed=1
    )
    both = mm.combine(d1, d2)
    x0 = mm.Box([0.0, -0.25], [0.75, 0.25])
    for horizon in (0.25, 0.5, 1.0):
        spec = mm.ReachSpec(horizon, 2e-3)
        b1 = mm.forward_reach_box(system, d1, x0, spec)
        b2 = mm.forward_reach_box(system, d2, x0, spec)
        bc = mm.forward_reach_box(system, both, x0, spec)
        inter_lo = np.maximum(b1.lo, b2.lo)
        inter_hi = np.minimum(b1.hi, b2.hi)
        assert np.all(bc.lo >= inter_lo - 1e-9), f"t={horizon}: lower face exits"
        assert np.all(bc.hi <= inter_hi + 1e-9), f"t={horizon}: upper face exits"
    elapsed = time.time() - start
    assert elapsed <= 30.0, f"took {elapsed:.1f}s (limit 30s)"
    _report(4, f"inclusion holds at t in (0.25, 0.5, 1.0) ({elapsed:.1f}s)")


def test_criterion_5_monotone_tightness(ex3):
    """Each face of the sheared-monotone parallelogram is attained; the second
    shape strictly reduces the area."""
    start = time.time()
    cfg, outcome = ex3
    t1 = np.array([[1.0, 1.0], [0.0, 1.0]])
    ptope1 = outcome.parallelotopes[0]
    assert np.allclose(ptope1.shape, t1)
    trans = mm.transform(cfg.system, t1)
    y0 = np.linalg.solve(t1, [1.0, 1.0])
    lo_end = mm.simulate(trans, y0, [-1.0], cfg.spec).final_state
    hi_end = mm.simulate(trans, y0, [1.0], cfg.spec).final_state
    for j in range(2):
        assert min(abs(lo_end[j] - ptope1.coords.lo[j]),
                   abs(hi_end[j] - ptope1.coords.lo[j])) <= 1e-3, (
            f"lower face {j + 1} not attained"
        )
        assert min(abs(lo_end[j] - ptope1.coords.hi[j]),
                   abs(hi_end[j] - ptope1.coords.hi[j])) <= 1e-3, (
            f"upper face {j + 1} not attained"
        )
    area1 = mm.ptope_polygon(ptope1).area()
    area_int = outcome.areas[-1]
    assert area_int < area1, (
        f"intersection area {area_int:.4f} not below {area1:.4f}"
    )
    elapsed = time.time() - start
    assert elapsed <= 30.0, f"took {elapsed:.1f}s (limit 30s)"
    _report(5, f"4 faces attained within 1e-3; area {area_int:.3f} < "
               f"{area1:.3f} ({elapsed:.1f}s)")


def test_criterion_6_identity_reduction():
    """The transform pipeline with the identity matches the box pipeline to
    1e-12 on every preset system and initial hull."""
    cases = []
    for name in ("example1", "example2", "example3", "hexagon",
                 "hexagon_overlap"):
        cfg = load_config(name)
        init = cfg.initial_set
        if isinstance(init, mm.Box):
            hull = init
        elif isinstance(init, mm.Parallelotope):
            verts = np.array(mm.ptope_vertices(init))
            hull = mm.Box(verts.min(axis=0), verts.max(axis=0))
        elif isinstance(init, mm.UnionInitialSet):
            hull = init.bounding_box()
        else:
            verts = np.array(init)
            hull = mm.Box(verts.min(axis=0), verts.max(axis=0))
        cases.append((name, cfg.system, hull))
    for name, system, hull in cases:
        spec = mm.ReachSpec(1.0, 5e-3)
        d = mm.tight_decomposition(system)
        box = mm.forward_reach_box(system, d, hull, spec)
        ptope = mm.reach_parallelotope(system, mm.Parallelotope(np.eye(2), hull),
                                       spec)
        assert np.max(np.abs(ptope.coords.lo - box.lo)) <= 1e-12, name
        assert np.max(np.abs(ptope.coords.hi - box.hi)) <= 1e-12, name
    _report(6, f"{len(cases)} presets reduce exactly")


def test_criterion_7_decomposition_property_suite():
    """Every constructed decomposition passes the order/consistency audit."""
    start = time.time()
    bilinear = mm.preset_system("bilinear")
    cubic = mm.preset_system("cubic")
    sheared = mm.transform(cubic, np.array([[1.0, 1.0], [0.0, 1.0]]))
    d_plus = mm.jacobian_sign_decomposition(
        bilinear, mm.Box([0.0, -3.0], [3.0, 3.0]), samples=200, seed=0
    )
    d_small = mm.jacobian_sign_decomposition(
        bilinear, mm.Box([0.0, -1.0], [1.0, 1.0]), samples=200, seed=1
    )
    presets = [
        ("tight/bilinear", mm.tight_decomposition(bilinear),
         mm.Box([-1.0, -1.0], [1.0, 1.0])),
        ("tight/sheared-cubic", mm.tight_decomposition(sheared),
         mm.Box([-1.5, -1.5], [1.5, 1.5])),
        ("jacobian_sign/bilinear", d_plus, None),
        ("monotone/sheared-cubic",
         mm.monotone_decomposition(sheared, mm.Box([-2, -2], [2, 2]),
                                   samples=200), None),
        ("combined/bilinear", mm.combine(d_plus, d_small), None),
        ("closed_form/bilinear",
         mm.closed_form_decomposition(
             bilinear,
             mm.parse_closed_form(
                 bilinear, ["max(x1, 0)*x2 + min(x1, 0)*x4 + w1", "x1 + 1"]
             ),
         ),
         mm.Box([-2.0, -2.0], [2.0, 2.0])),
    ]
    for name, d, domain in presets:
        report = mm.check_decomposition(d, probes=1000, seed=7, domain=domain)
        assert report.violations == 0, (
            f"{name}: {report.violations} sign violations, "
            f"witnesses {report.witnesses[:3]}"
        )
        assert report.consistency_residual <= 1e-6, (
            f"{name}: residual {report.consistency_residual:.2e}"
        )
    elapsed = time.time() - start
    _report(7, f"{len(presets)} decompositions clean over 1000 probes "
               f"({elapsed:.0f}s)")


def test_criterion_8_backward_reach(ex1_backward):
    """Backward witnesses from the search box land in the backward bound."""
    start = time.time()
    cfg, outcome = ex1_backward
    back = outcome.parallelotopes[0]
    forward_spec = mm.ReachSpec(cfg.spec.horizon, cfg.spec.dt, "forward")
    witnesses = mm.backward_witnesses(cfg.system, cfg.initial_set, forward_spec,
                                      cfg.sampling, cfg.search_box)
    assert len(witnesses) >= 500, f"only {len(witnesses)} witnesses found"
    report = mm.audit_containment(witnesses, back, tol=CONTAINMENT_TOL)
    assert report.violations == 0, (
        f"{report.violations} witnesses escaped (worst {report.worst_margin:.3e})"
    )
    elapsed = time.time() - start
    assert elapsed <= 60.0, f"took {elapsed:.0f}s (limit 60s)"
    _report(8, f"{len(witnesses)} witnesses contained ({elapsed:.0f}s)")
