"""Soundness properties that the code does not meet yet.

Each test states the correct property of a known defect and is a strict
xfail naming the ROADMAP item that fixes it: when the fix lands the test
passes, the strict mark fails the suite, and the fixing change removes the
mark.
"""

import math

import pytest

import mmreach as mm
from mmreach.errors import MmreachError
from mmreach.oracle import SampleConfig


def _audit(system, x0, spec, box, seed, init_mode):
    cfg = SampleConfig(2000, seed=seed, init_mode=init_mode)
    points = mm.sample_endpoints(system, x0, spec, cfg).points
    return mm.audit_containment(points, box)


@pytest.mark.xfail(strict=True, reason="item 2")
def test_tight_bounds_an_interior_extremum():
    """The probe reads signs only at lo, mid and hi of x2, where the
    partial of cos(4 pi x2) agrees, so it misses the minimum inside: the
    reach gives x1 in [0.5, 0.5], where the true range is [-0.5, 0.5]."""
    system = mm.SystemDef.from_strings(
        2, 1, ["cos(12.566370614359172*x2)", "0"], [0.0], [0.0])
    x0 = mm.Box([0.0, 0.0], [0.0, 1.0])
    spec = mm.ReachSpec(0.5, 0.01)
    box = mm.reach_box(system, x0, spec, "tight")
    assert _audit(system, x0, spec, box, 0, "corners_plus_uniform").ok


@pytest.mark.xfail(strict=True, reason="item 6")
def test_the_box_bounds_the_exact_flow():
    """x' = x from 1 reaches e at t = 1; two RK4 steps of 0.5 stop 9.4e-4
    short, and an oracle on the same RK4 cannot see it."""
    system = mm.SystemDef.from_strings(1, 1, ["x1"], [0.0], [0.0])
    box = mm.reach_box(system, mm.Box([1.0], [1.0]), mm.ReachSpec(1.0, 0.5),
                       "tight")
    assert box.hi[0] >= math.e


@pytest.mark.xfail(strict=True, reason="item 7")
def test_jacobian_sign_is_sound_past_its_domain():
    """The sign of cos(x2) is certified over [-1, 1]^2, but the initial box
    reaches x2 = 3, where it is negative. The reach must refuse with a typed
    error or return a box that holds the endpoints; today it returns a box
    that 1,889 of 2,000 endpoints escape."""
    system = mm.SystemDef.from_strings(2, 1, ["sin(x2)", "0"], [0.0], [0.0])
    x0 = mm.Box([0.0, 0.0], [0.0, 3.0])
    spec = mm.ReachSpec(1.0, 0.01)
    try:
        box = mm.reach_box(system, x0, spec, "jacobian_sign",
                           domain=mm.Box([-1.0, -1.0], [1.0, 1.0]))
    except MmreachError:
        return
    assert _audit(system, x0, spec, box, 1, "uniform").ok
