"""Soundness properties, stated against real field values.

A test of a known defect states the correct property and is a strict xfail
naming the ROADMAP item that fixes it: when the fix lands the test passes,
the strict mark fails the suite, and the fixing change removes the mark.
A decomposition that meets a property today runs it unmarked, as a
positive control of the same harness.
"""

import math
from fractions import Fraction

import numpy as np
import pytest

import mmreach as mm
from mmreach.errors import MmreachError
from mmreach.oracle import SampleConfig

GRID = 101  # points per free axis of the decomposition property


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


@pytest.mark.xfail(strict=True, reason="item 2")
def test_tight_gives_no_finite_lower_bound_to_an_unbounded_component():
    """1/x2 + w1 with x1 pinned at 0, x2 in [-1, 1] and w1 in [0, 0.1] has
    no lower bound: at x2 = -1e-9, a point of the box, it is -1e9. The
    lower value must refuse with a typed error or lie at or below that
    value; today it is -2^26 (-67,108,864), while the upper side of the
    same box raises EvalError."""
    system = mm.SystemDef.from_strings(2, 1, ["1/x2 + w1", "0"], [0.0], [0.1])
    d = mm.tight_decomposition(system)
    try:
        value = d.evaluate_component(0, [0.0, -1.0], [0.0], [0.0, 1.0], [0.1])
    except MmreachError:
        return
    assert value <= system.eval_field([0.0, -1e-9], [0.0])[0]


@pytest.mark.xfail(strict=True, reason="item 21")
def test_the_box_holds_an_extreme_that_rounding_cuts():
    """x1' = x2 + w1, x2' = 0 from [0, 0.5]^2 with w1 in [-0.2, 0.2]: the
    start (0.5, 0.5) under w1 = 0.2 (the float) reaches 0.5 + 0.5 + 0.2 at
    T = 1, and RK4 is exact on this linear flow. The box's upper x1 is
    1.1999999999999997, rounded one ulp inside that value."""
    system = mm.SystemDef.from_strings(2, 1, ["x2 + w1", "0"], [-0.2], [0.2])
    box = mm.reach_box(system, mm.Box([0.0, 0.0], [0.5, 0.5]),
                       mm.ReachSpec(1.0, 0.1), "tight")
    assert Fraction(box.hi[0]) >= Fraction(0.5) + Fraction(0.5) + Fraction(0.2)


@pytest.mark.xfail(strict=True, reason="item 6")
def test_a_flow_that_escapes_in_finite_time_is_refused():
    """x' = x^2 from 3 is 3 / (1 - 3t), which escapes at t = 1/3; no finite
    box bounds it at T = 0.5. Today the reach returns one near 3.66e70."""
    system = mm.SystemDef.from_strings(1, 1, ["x1^2"], [0.0], [0.0])
    with pytest.raises(MmreachError):
        mm.reach_box(system, mm.Box([3.0], [3.0]), mm.ReachSpec(0.5, 0.1), "tight")


def _random_field(rng):
    """A planar field with one disturbance w1 in [-0.5, 0.5]: each component
    sums three terms a*sin(f*v), a*cos(f*v)*u, a*v*u or a*v^2 over
    v, u in {x1, x2, w1}, with a in [-2, 2] and f in [0.5, 6]."""
    forms = ("{a}*sin({f}*{v})", "{a}*cos({f}*{v})*{u}", "{a}*{v}*{u}", "{a}*{v}^2")
    names = ("x1", "x2", "w1")
    sources = [" + ".join(
        forms[rng.integers(len(forms))].format(
            a=repr(float(rng.uniform(-2, 2))), f=repr(float(rng.uniform(0.5, 6))),
            v=names[rng.integers(3)], u=names[rng.integers(3)])
        for _ in range(3)) for _ in range(2)]
    return mm.SystemDef.from_strings(2, 1, sources, [-0.5], [0.5])


def _random_box(rng):
    """A state box with its centre in [-2, 2]^2 and half-widths in [0.05, 1]."""
    centre, half = rng.uniform(-2, 2, 2), rng.uniform(0.05, 1, 2)
    return mm.Box(centre - half, centre + half)


def _unsound(d, box):
    """The (component, side, decomposition value, grid value) of every bound
    of ``d`` over ``box`` that a grid value of the field lies past: the
    lower value d_i(lo, w_lo, hi, w_hi) above the least field value on a
    GRID-per-axis grid of the box with x_i pinned at lo_i, or the upper
    value d_i(hi, w_hi, lo, w_lo) below the greatest with x_i at hi_i."""
    n = d.n
    lo, hi = box.lo.tolist(), box.hi.tolist()
    axes = [np.linspace(a, b, GRID) for a, b in zip(lo + d.w_lo, hi + d.w_hi)]
    found = []
    for i in range(n):
        fi = d.system.component_batch_fn(i)
        for side, args, pick in (("lower", (lo, d.w_lo, hi, d.w_hi), np.min),
                                 ("upper", (hi, d.w_hi, lo, d.w_lo), np.max)):
            grid = np.meshgrid(*axes[:i], [args[0][i]], *axes[i + 1:], indexing="ij")
            points = np.stack(grid, -1).reshape(-1, len(axes))
            grid_value = float(pick(fi(points[:, :n], points[:, n:])))
            value = d.evaluate_component(i, *args)
            past = value - grid_value if side == "lower" else grid_value - value
            if past > 1e-9 * max(1.0, abs(grid_value)):
                found.append((i, side, value, grid_value))
    return found


@pytest.mark.xfail(strict=True, reason="item 2")
@pytest.mark.parametrize("seed", [0, 1, 2])
def test_tight_bounds_random_fields_by_their_grid_values(seed):
    """Every tight value of 20 random fields over 10 random boxes each is at
    most (lower) or at least (upper) every grid value of its component. A
    grid value is a real field value, so a failure is a proven unsound
    bound."""
    rng = np.random.default_rng(seed)
    found = []
    for _ in range(20):
        d = mm.tight_decomposition(_random_field(rng))
        for _ in range(10):
            found += _unsound(d, _random_box(rng))
    assert found == []


def test_the_closed_form_bounds_its_grid_values(bilinear):
    """The positive control: closedform-box's closed form of the bilinear
    field is exact, so no grid value lies past it, on 200 random boxes."""
    d = mm.closed_form_decomposition(bilinear, mm.parse_closed_form(
        bilinear, ["max(x1, 0)*x2 + min(x1, 0)*x4 + w1", "x1 + 1"]))
    rng = np.random.default_rng(0)
    found = []
    for _ in range(200):
        found += _unsound(d, _random_box(rng))
    assert found == []
