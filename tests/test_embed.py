import hashlib
import json
import math
from pathlib import Path

import numpy as np
import pytest

import mmreach as mm
from mmreach import embed
from mmreach.embed import _order_test, _ordered, _rk4, _step_sizes
from mmreach.errors import (
    DimensionMismatchError,
    DivergenceError,
    MmreachError,
    StepOrderError,
)
from mmreach.exprlang import ExprAst

T1 = np.array([[1.0, 1.0], [0.0, 1.0]])
ROOT = Path(__file__).resolve().parent.parent


def test_reach_spec_validation():
    with pytest.raises(DimensionMismatchError):
        mm.ReachSpec(-1.0, 1e-3)
    with pytest.raises(DimensionMismatchError):
        mm.ReachSpec(1.0, 0.0)
    with pytest.raises(DimensionMismatchError):
        mm.ReachSpec(1.0, 2.0)
    with pytest.raises(DimensionMismatchError):
        mm.ReachSpec(1.0, 1e-9 / 200)
    with pytest.raises(DimensionMismatchError):
        mm.ReachSpec(1.0, 1e-3, "sideways")
    assert mm.ReachSpec(0.0, 1e-3).horizon == 0.0


def test_trajectory_validation():
    with pytest.raises(DimensionMismatchError):
        mm.Trajectory([0.0, 0.0], [[1.0], [2.0]])
    with pytest.raises(DimensionMismatchError):
        mm.Trajectory([0.0, 1.0], [[1.0]])
    with pytest.raises(DimensionMismatchError):
        mm.Trajectory([0.0, 1.0], [[1.0], [np.inf]])


def test_embedding_function_monotone_example(cubic):
    trans = mm.transform(cubic, T1)
    d = mm.monotone_decomposition(trans, mm.Box([-2, -2], [2, 2]), samples=100)
    out = d.embedding_field([0.0, 0.0, 1.0, 1.0])
    assert np.allclose(out, [-1.0, 0.0, 2.0, 1.0])


def test_embedding_function_degenerate_disturbance():
    s = mm.SystemDef.from_strings(2, 1, ["x2 + w1", "x1 - x2"], [0.3], [0.3])
    d = mm.tight_decomposition(s)
    x = [0.4, -0.2]
    out = d.embedding_field(x + x)
    f = s.eval_field(x, [0.3])
    assert np.allclose(out[:2], f, atol=1e-12)
    assert np.allclose(out[2:], f, atol=1e-12)


def test_embedding_function_tight_bilinear(bilinear):
    d = mm.tight_decomposition(bilinear)
    out = d.embedding_field([1.0, 0.0, 2.0, 1.0])
    assert np.allclose(out[:2], [0.0, 2.0])


def test_integrate_scalar_decay():
    s = mm.SystemDef.from_strings(1, 1, ["-x1"], [0.0], [0.0])
    d = mm.monotone_decomposition(s, mm.Box([-3.0], [3.0]), samples=50)
    traj = mm.integrate(d, mm.Box([1.0], [2.0]), mm.ReachSpec(1.0, 1e-3))
    assert traj.times[-1] == 1.0
    assert traj.final_state[0] == pytest.approx(math.exp(-1), abs=1e-6)
    assert traj.final_state[1] == pytest.approx(2 * math.exp(-1), abs=1e-6)


def test_integrate_zero_horizon(bilinear):
    d = mm.tight_decomposition(bilinear)
    a0 = mm.Box([0.0, 0.0], [0.5, 0.5])
    traj = mm.integrate(d, a0, mm.ReachSpec(0.0, 1e-3))
    assert len(traj.times) == 1
    assert np.allclose(traj.states[0], np.concatenate([a0.lo, a0.hi]))


def test_integrate_preserves_order(bilinear):
    d = mm.tight_decomposition(bilinear)
    a0 = mm.Box([0.0, -0.25], [0.75, 0.25])
    traj = mm.integrate(d, a0, mm.ReachSpec(1.0, 2e-3))
    lower, upper = traj.states[:, :2], traj.states[:, 2:]
    assert np.all(lower <= upper)


def test_integrate_divergence_error():
    s = mm.SystemDef.from_strings(1, 1, ["x1^2"], [0.0], [0.0])
    d = mm.tight_decomposition(s)
    with pytest.raises(DivergenceError) as err:
        mm.integrate(d, mm.Box([3.0], [3.0]), mm.ReachSpec(1.0, 1e-3))
    assert 0.0 <= err.value.last_time < 1.0


def test_integrate_flags_order_violation():
    # deliberately broken decomposition: decreasing in the disturbance
    s = mm.SystemDef.from_strings(1, 1, ["0*x1"], [0.0], [0.1])
    d = mm.closed_form_decomposition(s, mm.parse_closed_form(s, ["0 - 5*w1"]))
    with pytest.raises(StepOrderError):
        mm.integrate(d, mm.Box([0.0], [0.1]), mm.ReachSpec(1.0, 1e-2))


def test_monotone_reach_box_equals_corner_hull(cubic):
    """For a monotone system the box is the hull of the two extreme flows."""
    trans = mm.transform(cubic, T1)
    x0 = mm.Box([0.0, 0.5], [0.2, 0.8])
    spec = mm.ReachSpec(1.0, 1e-3)
    box = mm.reach_box(trans, x0, spec, "monotone",
                       domain=mm.Box([-2, -2], [2, 2]), samples=100)
    lo_traj = mm.simulate(trans, x0.lo, [-1.0], spec).final_state
    hi_traj = mm.simulate(trans, x0.hi, [1.0], spec).final_state
    assert np.allclose(box.lo, lo_traj, atol=1e-6)
    assert np.allclose(box.hi, hi_traj, atol=1e-6)


def test_reach_box_degenerate_is_point_flow():
    s = mm.SystemDef.from_strings(2, 1, ["x1*x2 + w1", "x1 + 1"], [0.1], [0.1])
    spec = mm.ReachSpec(1.0, 1e-3)
    x = [0.3, -0.1]
    box = mm.reach_box(s, mm.Box(x, x), spec)
    endpoint = mm.simulate(s, x, [0.1], spec).final_state
    assert np.allclose(box.lo, endpoint, atol=1e-9)
    assert np.allclose(box.hi, endpoint, atol=1e-9)
    # the embedding, simulate and the batch oracle run the same RK4 loop,
    # so they agree bit for bit; dt = 0.3 leaves a remainder step
    spec = mm.ReachSpec(1.0, 0.3)
    traj = mm.simulate(s, x, [0.1], spec)
    assert len(traj.times) == 5 and traj.times[-1] == 1.0
    box = mm.reach_box(s, mm.Box(x, x), spec)
    sample = mm.sample_endpoints(s, mm.Box(x, x), spec, mm.SampleConfig(count=1))
    for got in (box.lo, box.hi, sample.points[0]):
        assert np.array_equal(got, traj.final_state)


def test_backward_reach_of_scalar_decay():
    s = mm.SystemDef.from_strings(1, 1, ["-x1"], [0.0], [0.0])
    x0 = mm.Box([math.exp(-1)], [2 * math.exp(-1)])
    box = mm.reach_box(s, x0, mm.ReachSpec(1.0, 1e-3, "backward"))
    assert box.lo[0] == pytest.approx(1.0, abs=1e-5)
    assert box.hi[0] == pytest.approx(2.0, abs=1e-5)


def test_backward_reach_at_zero_horizon(bilinear):
    x0 = mm.Box([0.0, 0.0], [0.25, 0.25])
    box = mm.reach_box(bilinear, x0, mm.ReachSpec(0.0, 1e-3, "backward"))
    assert np.allclose(box.lo, x0.lo) and np.allclose(box.hi, x0.hi)


def test_embedding_flow_is_se_monotone(bilinear, rng):
    """Nested initial boxes stay nested along the embedding flow."""
    d = mm.tight_decomposition(bilinear)
    spec = mm.ReachSpec(0.25, 5e-3)
    for _ in range(20):
        lo = rng.uniform(-0.5, 0.0, 2)
        hi = lo + rng.uniform(0.3, 0.8, 2)
        outer = mm.Box(lo, hi)
        shrink_lo = rng.uniform(0.05, 0.2, 2) * (hi - lo)
        shrink_hi = rng.uniform(0.05, 0.2, 2) * (hi - lo)
        inner = mm.Box(lo + shrink_lo, hi - shrink_hi)
        assert mm.se_leq(outer, inner)
        touter = mm.integrate(d, outer, spec)
        tinner = mm.integrate(d, inner, spec)
        for row_o, row_i in zip(touter.states, tinner.states):
            assert np.all(row_o[:2] <= row_i[:2] + 1e-7)
            assert np.all(row_i[2:] <= row_o[2:] + 1e-7)


def test_step_halving_converges(bilinear, cubic, trig):
    """Halving dt moves the final box endpoints by at most 1e-5."""
    cases = [
        (bilinear, mm.Box([0.0, -0.25], [0.75, 0.25])),
        (mm.transform(cubic, T1), mm.Box([0.0, 1.0], [0.0, 1.0])),
        (trig, mm.Box([0.5, 0.5], [1.5, 1.5])),
    ]
    for system, x0 in cases:
        coarse = mm.reach_box(system, x0, mm.ReachSpec(1.0, 1e-2))
        fine = mm.reach_box(system, x0, mm.ReachSpec(1.0, 5e-3))
        assert np.max(np.abs(coarse.lo - fine.lo)) <= 1e-5
        assert np.max(np.abs(coarse.hi - fine.hi)) <= 1e-5


def test_combined_box_inside_intersection_at_all_times(cubic):
    """Piecewise-combined decompositions bound tighter than both parts."""
    trans = mm.transform(cubic, T1)
    tight = mm.tight_decomposition(trans)
    other = mm.closed_form_decomposition(
        trans, mm.parse_closed_form(trans, ["x2^3 + w1 - 0.5*(x3 - x1)", "x1"])
    )
    both = mm.combine(tight, other)
    a0 = mm.Box([0.0, 0.5], [0.1, 0.9])
    spec = mm.ReachSpec(0.5, 2e-3)
    t_tight = mm.integrate(tight, a0, spec)
    t_other = mm.integrate(other, a0, spec)
    t_both = mm.integrate(both, a0, spec)
    for rb, r1, r2 in zip(t_both.states, t_tight.states, t_other.states):
        inter_lo = np.maximum(r1[:2], r2[:2])
        inter_hi = np.minimum(r1[2:], r2[2:])
        assert np.all(rb[:2] >= inter_lo - 1e-9)
        assert np.all(rb[2:] <= inter_hi + 1e-9)


def test_integrate_ends_at_horizon_with_remainder(bilinear):
    d = mm.tight_decomposition(bilinear)
    traj = mm.integrate(d, mm.Box([0.0, 0.0], [0.1, 0.1]),
                        mm.ReachSpec(0.0105, 1e-3))
    assert traj.times[-1] == 0.0105


def _closed_form(n, m, w_lo, w_hi, sources):
    """Closed-form decomposition over a zero field, which it never reads."""
    s = mm.SystemDef.from_strings(n, m, [f"0*x{i + 1}" for i in range(n)],
                                  w_lo, w_hi)
    return mm.closed_form_decomposition(s, mm.parse_closed_form(s, sources))


def _compiled_decompositions(bilinear, cubic):
    three = mm.SystemDef.from_strings(
        3, 2, ["-x1 + x2*w1", "-x2 + w2 - 0.1*x3", "x1 - x3 + sin(x3)"],
        [0.0, -0.1], [1.0, 0.1])
    return [  # (decomposition, an initial box)
        (mm.closed_form_decomposition(bilinear, mm.parse_closed_form(
            bilinear, ["max(x1, 0)*x2 + min(x1, 0)*x4 + w1", "x1 + 1"])),
         mm.Box([0.0, -0.25], [0.75, 0.25])),
        (mm.jacobian_sign_decomposition(
            mm.transform(cubic, [[1.0, 0.0], [0.5, 1.0]]),
            mm.Box([-0.25, -0.25], [0.25, 0.25]), samples=100, seed=3),
         mm.Box([-0.1, -0.1], [0.1, 0.1])),
        (mm.monotone_decomposition(mm.transform(cubic, T1),
                                   mm.Box([-2, -2], [2, 2]), samples=100),
         mm.Box([0.0, 0.5], [0.2, 0.8])),
        (mm.jacobian_sign_decomposition(
            three, mm.Box([-1.0, 0.2, -1.0], [1.0, 2.0, 1.0]), samples=50),
         mm.Box([0.0, 0.5, 0.0], [0.2, 0.6, 0.1])),
        (mm.jacobian_sign_decomposition(  # a backward reach's decomposition
            mm.reverse_time(bilinear), mm.Box([0.0, -3.0], [3.0, 3.0]),
            samples=50),
         mm.Box([0.5, -0.25], [0.75, 0.0])),
    ]


def test_compiled_embedding_field_equals_the_component_loop(bilinear, cubic):
    """A compiled decomposition's trees, written into the RK4 step, give the
    trajectories of the per-component loop bit for bit."""
    for d, x0 in _compiled_decompositions(bilinear, cubic):
        loop = mm.Decomposition(d.system, d.method, d.evaluate_component)
        spec = mm.ReachSpec(0.5, 0.01)
        inline, looped = mm.integrate(d, x0, spec), mm.integrate(loop, x0, spec)
        assert np.array_equal(inline.times, looped.times)
        assert np.array_equal(inline.states, looped.states)


def test_compiled_decomposition_error_paths():
    """A compiled decomposition fails and snaps exactly as the loop does."""
    # a non-finite component names the component and the point
    d = _closed_form(1, 1, [0.0], [0.1], ["-1 + 0*sqrt(x1 - 0.5) + w1"])
    with pytest.raises(DivergenceError) as err:
        mm.integrate(d, mm.Box([1.0], [1.2]), mm.ReachSpec(1.0, 0.1))
    assert str(err.value) == (
        "embedding field diverged near t=0.5: decomposition component 1 is "
        "non-finite: at x=[0.4500000000000001], w=[0.0], "
        "xh=[0.7049999999999998], wh=[0.1]")
    assert err.value.last_time == 0.5
    # an order violation above 1e-9
    d = _closed_form(2, 1, [0.0], [0.1], ["x1 - x3", "0 - 5*w1"])
    with pytest.raises(StepOrderError) as err:
        mm.integrate(d, mm.Box([0.0, 0.0], [1.0, 0.0]), mm.ReachSpec(1.0, 1e-2))
    assert str(err.value) == ("order violation 2.500e-03 inside a step near "
                              "t=0.005; retry with a smaller dt")
    # violations up to 1e-9 snap both endpoints to their midpoint
    d = _closed_form(2, 1, [0.0], [0.1], ["0 - 1e-7*w1", "x2 - x1 - 3e-8*w1"])
    traj = mm.integrate(d, mm.Box([0.0, 0.0], [0.0, 0.5]), mm.ReachSpec(1.0, 0.01))
    assert np.array_equal(traj.states[:, 0], traj.states[:, 2])
    assert traj.states[1].tolist() == [-5.000000000000001e-11, 2.508354166666667e-13,
                                       -5.000000000000001e-11, 0.505025083511767]
    assert traj.final_state.tolist() == [-5.000000000000013e-09, 3.591409141172011e-09,
                                         -5.000000000000013e-09, 1.3591409125537652]
    # x1 overflows to inf at both ends (a NaN difference) while x2 loses its
    # order: no StepOrderError, the state diverges
    d = _closed_form(2, 1, [0.0], [0.1], ["1.2e308", "0 - 5*w1"])
    with np.errstate(over="ignore", invalid="ignore"):
        with pytest.raises(DivergenceError) as err:
            mm.integrate(d, mm.Box([1.2e308, 0.0], [1.2e308, 0.0]),
                         mm.ReachSpec(1.0, 1.0))
    assert str(err.value) == "embedding state diverged near t=1"


def _sha256(a):
    return hashlib.sha256(np.ascontiguousarray(a).tobytes()).hexdigest()


def test_trajectories_are_pinned_bit_for_bit(cubic, trig):
    """sha256 of whole trajectories (states and times): a tight and a
    combined embedding, and a simulation under a switching disturbance. The
    inline-vs-loop test runs both of its paths through the one RK4 loop, so
    only pinned bits catch a change in that loop's arithmetic."""
    tight = mm.integrate(mm.tight_decomposition(trig), mm.Box([0.5, 0.5], [1.5, 1.5]),
                         mm.ReachSpec(0.255, 0.01))  # a remainder step
    trans = mm.transform(cubic, [[1.0, 0.0], [0.5, 1.0]])
    both = mm.combine(mm.tight_decomposition(trans), mm.closed_form_decomposition(
        trans, mm.parse_closed_form(trans, ["x2^3 + w1 - 0.5*(x3 - x1)", "x1"])))
    combined = mm.integrate(both, mm.Box([0.0, 0.5], [0.1, 0.9]),
                            mm.ReachSpec(0.5, 2e-3))
    s = mm.SystemDef.from_strings(2, 1, ["x1*x2 + w1", "x1 + 1"], [-0.1], [0.1])
    flow = mm.simulate(s, [0.3, -0.1], lambda t: [0.1 if t < 0.5 else -0.1],
                       mm.ReachSpec(1.0, 0.03))
    got = [(len(t.times), _sha256(t.states), _sha256(t.times))
           for t in (tight, combined, flow)]
    assert got == [
        (27, "6f5819782a28e58085a44493d8e8de6eb10290127c4b766fdfb32944506c1532",
         "117f3009ad6fe918f674c19d7bc274912daa1d2051de442cc5d209f1feed39b3"),
        (251, "8685b8cf8893e65a57cd9757fcbbed218a824199eb283edc189c4b8b789ee9ac",
         "b4e6600941d50d09cdaac2b1aa76908f249ed4e0f631ea96bc5eed989fdccc3e"),
        (35, "678ea3ec6001cc11053f674031fe3b5ef98a0637f5118038f3f4a1394586b587",
         "eced116affbb4f3bf2285db033a06e3243f3a2512a350934291f8d978550757c"),
    ]


def _reference_rk4(f, x, sizes):
    """Every state of an out-of-place classical RK4 on a list of floats, in
    the documented order: stage states ``a + c * b``, new states
    ``a + h/6 * (b1 + 2.0*b2 + 2.0*b3 + b4)``."""
    states, t = [x], 0.0
    for h in sizes:
        hh = 0.5 * h
        k1 = f(x, t)
        k2 = f([a + hh * b for a, b in zip(x, k1)], t + hh)
        k3 = f([a + hh * b for a, b in zip(x, k2)], t + hh)
        k4 = f([a + h * b for a, b in zip(x, k3)], t + h)
        t += h
        h6 = h / 6.0
        x = [a + h6 * (b1 + 2.0 * b2 + 2.0 * b3 + b4)
             for a, b1, b2, b3, b4 in zip(x, k1, k2, k3, k4)]
        states.append(x)
    return states


def _rk4_states(f, x, sizes):
    states = [x]

    def post(_x, x_new, _t, _s):
        states.append(x_new)
        return x_new

    _rk4(f, x, sizes, post)
    return states


def _bits(states):
    return np.array(states, dtype=float).tobytes()


def _mixing_field(x, t):
    p = len(x)
    return [x[i] * x[(i + 1) % p] - 0.5 * x[i - 1] + t for i in range(p)]


@pytest.mark.parametrize("special", [None, math.inf, -math.inf, math.nan])
@pytest.mark.parametrize("p", range(1, 7))
def test_float_rk4_matches_an_out_of_place_reference(p, special, rng):
    """The generated float step of every part count gives the
    reference's states bit for bit, through a shorter remainder step and
    with an inf or NaN part."""
    x0 = rng.uniform(-1.0, 1.0, p).tolist()
    if special is not None:
        x0[p // 2] = special
    sizes = [0.1] * 10 + [0.03]
    got = _rk4_states(_mixing_field, x0, sizes)
    assert len(got) == 12
    assert _bits(got) == _bits(_reference_rk4(_mixing_field, x0, sizes))


@pytest.mark.parametrize("n", [1, 3])
def test_simulate_matches_the_out_of_place_reference(n):
    s = mm.SystemDef.from_strings(
        n, 1, [f"x{i + 1}*x{(i + 1) % n + 1} - 0.5*x{(i - 1) % n + 1} + w1"
               for i in range(n)], [-0.1], [0.1])

    def w(t):
        return [0.1 if t < 0.25 else -0.1]

    x0 = [0.3, -0.2, 0.7][:n]
    spec = mm.ReachSpec(1.03, 0.1)  # ten full steps and a 0.03 remainder
    traj = mm.simulate(s, x0, w, spec)
    ref = _reference_rk4(lambda x, t: s.field_values(x, w(t)), x0,
                         _step_sizes(spec.horizon, spec.dt))
    assert len(ref) == 12
    assert traj.states.tobytes() == _bits(ref)


def test_integrate_matches_the_out_of_place_reference(bilinear):
    """An embedding that stays ordered is the reference RK4 of its field."""
    d = mm.closed_form_decomposition(bilinear, mm.parse_closed_form(
        bilinear, ["max(x1, 0)*x2 + min(x1, 0)*x4 + w1", "x1 + 1"]))
    x0, spec = mm.Box([0.0, -0.25], [0.75, 0.25]), mm.ReachSpec(0.255, 0.01)
    traj = mm.integrate(d, x0, spec)
    ref = _reference_rk4(lambda v, _t: d.embedding_field(v),
                         x0.lo.tolist() + x0.hi.tolist(),
                         _step_sizes(spec.horizon, spec.dt))
    assert len(ref) == 27
    assert traj.states.tobytes() == _bits(ref)


def _custom(component, w_lo=0.0, w_hi=1.0):
    """A one-dimensional decomposition from a Python component: the lower
    bound's field sees w = w_lo, the upper bound's w = w_hi."""
    s = mm.SystemDef.from_strings(1, 1, ["0*x1"], [w_lo], [w_hi])
    return mm.Decomposition(s, "custom", lambda i, x, w, xh, wh: component(x[0], w[0]))


@pytest.mark.parametrize("value", [1e308, -1e308])
def test_a_state_whose_sum_overflows_is_finite(value):
    """Every part is finite although their float sum is not."""
    s = mm.SystemDef.from_strings(2, 1, ["0*x1", "0*x2"], [0.0], [0.0])
    d = mm.Decomposition(s, "custom", lambda i, x, w, xh, wh: 0.0)
    assert not math.isfinite(sum([value] * 4))
    traj = mm.integrate(d, mm.Box([value] * 2, [value] * 2), mm.ReachSpec(1.0, 0.5))
    assert traj.states.tolist() == [[value] * 4] * 3


@pytest.mark.parametrize("component, time, last_time", [
    (lambda x, w: 2.5e307, "8", 7.0),  # the state grows to +inf
    (lambda x, w: -2.5e307, "8", 7.0),  # and to -inf
    # k1 + 2*k2 is -inf and 2*k3 is +inf: the new state is NaN
    (lambda x, w: 1.5e308 if x <= 0.0 else -1.5e308, "1", 0.0),
])
def test_a_state_with_an_inf_or_nan_part_diverges(component, time, last_time):
    with pytest.raises(DivergenceError) as err:
        mm.integrate(_custom(component), mm.Box([0.0], [0.0]), mm.ReachSpec(10.0, 1.0))
    assert str(err.value) == f"embedding state diverged near t={time}"
    assert err.value.last_time == last_time


def test_an_order_violation_below_the_tolerance_is_snapped():
    # the lower bound gains 5e-10 a unit of time, the upper bound nothing
    d = _custom(lambda x, w: 5e-10 * (1.0 - w))
    traj = mm.integrate(d, mm.Box([0.0], [0.0]), mm.ReachSpec(1.0, 1.0))
    lower = 0.0 + 1.0 / 6.0 * (5e-10 + 2.0 * 5e-10 + 2.0 * 5e-10 + 5e-10)
    assert lower - 0.0 == pytest.approx(5e-10)
    assert traj.states.tolist() == [[0.0, 0.0], [0.5 * lower, 0.5 * lower]]


def test_an_order_violation_above_the_tolerance_aborts():
    # a stage state: the lower bound runs 1e-6 ahead at the half step
    d = _custom(lambda x, w: 2e-6 * (1.0 - w))
    with pytest.raises(StepOrderError) as err:
        mm.integrate(d, mm.Box([0.0], [0.0]), mm.ReachSpec(1.0, 1.0))
    assert str(err.value) == ("order violation 1.000e-06 inside a step near "
                              "t=0.5; retry with a smaller dt")
    # the stage states stay ordered (k1 = k2 = k3 = 1 at both bounds) and
    # only k4 at x = 1 sets the lower bound 1e-6 ahead
    d = _custom(lambda x, w: 1.0 if x < 0.75 else 1.0 + 6e-6 * (1.0 - w))
    with pytest.raises(StepOrderError) as err:
        mm.integrate(d, mm.Box([0.0], [0.0]), mm.ReachSpec(1.0, 1.0))
    assert str(err.value) == ("order violation 1.000e-06 after the step to "
                              "t=1; retry with a smaller dt")


@pytest.mark.parametrize("n", range(1, 7))
def test_the_order_test_is_the_pairwise_comparison(n, rng):
    pool = [0.0, -0.0, 1.0, -1.0, 1e-300, math.inf, -math.inf, math.nan]
    for _ in range(300):
        v = [pool[k] for k in rng.integers(0, len(pool), 2 * n)]
        assert _order_test(n)(v) == all(a <= b for a, b in zip(v[:n], v[n:]))


@pytest.mark.parametrize("v", [
    [math.nan, 5.0, 0.0, 1.0],  # x2 out of order by 4, but x1's gap is NaN
    [math.inf, 5.0, math.inf, 1.0],  # inf - inf is NaN
])
def test_a_nan_difference_keeps_its_values(v):
    assert not _order_test(2)(v)
    assert _bits(_ordered(list(v), 2, "after the step to", 1.0)) == _bits(v)


def _called(d):
    """``d`` behind an opaque call: a plain Decomposition with ``d``'s
    embedding field, which ``integrate`` calls at every stage."""
    opaque = mm.Decomposition(d.system, d.method, d.evaluate_component)
    opaque.embedding_field = d.embedding_field
    return opaque


def _outcome(d, x0, spec):
    """The trajectory of ``integrate``, or the type, text and last time of
    the error it raises."""
    try:
        return mm.integrate(d, x0, spec)
    except MmreachError as exc:
        return type(exc), str(exc), getattr(exc, "last_time", None)


def _same_outcome(d, x0, spec, inline=None):
    """Asserts that ``d`` integrates through its inline step (the outcome
    ``inline``, if given) as it does behind an opaque call; returns the
    inline outcome."""
    inline = _outcome(d, x0, spec) if inline is None else inline
    called = _outcome(_called(d), x0, spec)
    if isinstance(called, mm.Trajectory):
        assert np.array_equal(inline.times, called.times)
        assert np.array_equal(inline.states, called.states)
    else:
        assert inline == called
    return inline


def _random_closed_form(rng):
    """Two components over (x, xh) = x1..x4 and (w, wh) = w1, w2, each the
    sum of three pieces: a term of tests/test_soundness.py's grammar, its
    abs, or a min or max of two or three terms."""
    names = ("x1", "x2", "x3", "x4", "w1", "w2")
    forms = ("{a}*sin({f}*{v})", "{a}*cos({f}*{v})*{u}", "{a}*{v}*{u}", "{a}*{v}^2")

    def term():
        return forms[rng.integers(len(forms))].format(
            a=repr(float(rng.uniform(-2, 2))), f=repr(float(rng.uniform(0.5, 6))),
            v=names[rng.integers(6)], u=names[rng.integers(6)])

    def piece():
        kind = rng.integers(4)
        if kind == 0:
            return term()
        if kind == 1:
            return f"abs({term()})"
        args = ", ".join(term() for _ in range(rng.integers(2, 4)))
        return f"{('min', 'max')[rng.integers(2)]}({args})"

    return [" + ".join(piece() for _ in range(3)) for _ in range(2)]


@pytest.mark.parametrize("seed", range(5))
def test_random_closed_forms_run_inline_as_they_run_called(seed):
    """A compiled field written into the RK4 step gives the trajectory, or
    the error, of the same field called at every stage, bit for bit."""
    rng = np.random.default_rng(seed)
    ran = 0
    for _ in range(12):
        d = _closed_form(2, 1, [-0.5], [0.5], _random_closed_form(rng))
        centre, half = rng.uniform(-1, 1, 2), rng.uniform(0.2, 0.5, 2)
        out = _same_outcome(d, mm.Box(centre - half, centre + half),
                            mm.ReachSpec(0.5, 0.01))
        ran += isinstance(out, mm.Trajectory)
    assert ran >= 6  # the rest stop on an order violation


def test_sign_certified_decompositions_run_inline_as_they_run_called(bilinear, cubic):
    spec = mm.ReachSpec(0.5, 0.005)
    x0 = mm.Box([0.0, -0.25], [0.75, 0.25])
    domain = mm.Box([0.0, -3.0], [3.0, 3.0])
    transformed = mm.transform(cubic, T1)
    for d, box in [
        (mm.jacobian_sign_decomposition(bilinear, domain), x0),
        (mm.monotone_decomposition(bilinear, domain), x0),
        (mm.jacobian_sign_decomposition(cubic, mm.Box([-0.5, -0.5], [0.5, 0.5])),
         mm.Box([-0.2, -0.2], [0.2, 0.2])),
        (mm.monotone_decomposition(transformed, mm.Box([-2, -2], [2, 2])),
         mm.Box([-0.2, -0.2], [0.2, 0.2])),
    ]:
        assert d._trees is not None
        assert isinstance(_same_outcome(d, box, spec), mm.Trajectory)


def _count_field_calls(monkeypatch):
    """The calls of ``embedding_field``, counted."""
    calls = []
    original = mm.Decomposition.embedding_field

    def counted(self, v):
        calls.append(1)
        return original(self, v)

    monkeypatch.setattr(mm.Decomposition, "embedding_field", counted)
    return calls


@pytest.mark.parametrize("sources, x0, spec, ends", [
    # an order violation under 1e-9 at a stage state, snapped
    (["0 - 1e-7*w1", "x2 - x1 - 3e-8*w1"], ([0.0, 0.0], [0.0, 0.5]), (1.0, 0.01),
     mm.Trajectory),
    # one over 1e-9 at a stage state
    (["x1 - x3", "0 - 5*w1"], ([0.0, 0.0], [1.0, 0.0]), (1.0, 1e-2), StepOrderError),
    # a non-finite component at a stage, which the error names
    (["-1 + 0*sqrt(x1 - 0.5) + w1"], ([1.0], [1.2]), (1.0, 0.1), DivergenceError),
    (["1/x1 + w1"], ([0.0], [1.0]), (1.0, 0.1), DivergenceError),
    # Python raises where numpy gives inf, which min turns into a finite value
    (["min(1/x1, 0)*0 + 1"], ([0.0], [1.0]), (1.0, 0.1), mm.Trajectory),
    (["min(exp(1000*x1), 1)"], ([0.8], [0.9]), (1.0, 0.1), mm.Trajectory),
])
def test_each_stage_fallback_runs_the_called_field(sources, x0, spec, ends, monkeypatch):
    """A stage the inline code cannot finish calls the embedding field, in
    integrate's wrapper that snaps the state first or raises the order
    violation, and that field takes the batch value or names the
    non-finite component as it always did."""
    d = _closed_form(len(sources), 1, [0.0], [0.1], sources)
    box, spec = mm.Box(*x0), mm.ReachSpec(*spec)
    calls = _count_field_calls(monkeypatch)
    ordered = embed._ordered
    monkeypatch.setattr(embed, "_ordered",
                        lambda *args: calls.append(1) or ordered(*args))
    inline = _outcome(d, box, spec)
    assert calls  # the inline run fell back
    _same_outcome(d, box, spec, inline)
    assert (type(inline) if isinstance(inline, mm.Trajectory) else inline[0]) is ends


def test_a_stage_where_one_component_raises_gets_the_component_loop_values(monkeypatch):
    """The first stage's lower x1 is 0, where Python's 1/x1 raises: that
    stage calls the component loop, so component 1's lower value is its
    batch value and the other three keep their scalar values. The batch
    code is offset by 0.5 here, which tells the two apart."""
    batch_fn = ExprAst.batch_fn
    monkeypatch.setattr(ExprAst, "batch_fn",
                        lambda self: lambda X, W: batch_fn(self)(X, W) + 0.5)
    d = _closed_form(2, 1, [0.0], [0.1], ["min(1/x1, 0)*0 + 1", "x2 + w1"])
    v = [0.0, 0.0, 1.0, 1.0]
    assert d.embedding_field(v) == [1.5, 0.0, 1.0, 1.1]
    spec = mm.ReachSpec(0.02, 0.01)
    ref = _reference_rk4(lambda v, _t: d.embedding_field(v), v,
                         _step_sizes(spec.horizon, spec.dt))
    traj = mm.integrate(d, mm.Box(v[:2], v[2:]), spec)
    assert traj.states.tobytes() == _bits(ref)


def test_closedform_box_never_calls_the_embedding_field(bilinear, monkeypatch):
    """closedform-box's 10,000 steps run inline: no stage falls back."""
    config = json.loads(
        (ROOT / "perfbench" / "configs" / "closedform_box.json").read_text())
    d = mm.closed_form_decomposition(bilinear, mm.parse_closed_form(
        bilinear, config["decomposition"]["sources"]))
    x0 = mm.Box(config["initial_set"]["lo"], config["initial_set"]["hi"])
    calls = _count_field_calls(monkeypatch)
    traj = mm.integrate(d, x0, mm.ReachSpec(config["horizon"], config["dt"]))
    assert len(traj.times) == 10_001
    assert len(calls) == 0
