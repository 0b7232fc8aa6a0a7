import hashlib
import itertools

import numpy as np
import pytest

import mmreach as mm
from mmreach import decomp
from mmreach.decomp import pair_order
from mmreach.errors import (
    DimensionMismatchError,
    NotMonotoneError,
    OrderError,
    SignIndefiniteError,
    SizeLimitError,
)

T1 = np.array([[1.0, 1.0], [0.0, 1.0]])


def brute_tight_component(f_i, i, x, w, xh, wh, points=121):
    """Independent dense-grid oracle for the extremal construction.

    ``f_i`` is a hand-coded callable(x_vec, w_vec); the own coordinate stays
    pinned at x_i while every other coordinate sweeps its interval.
    """
    sign = 1 if all(a <= b for a, b in zip(list(x) + list(w), list(xh) + list(wh))) else -1
    n, m = len(x), len(w)
    state_axes = []
    for j in range(n):
        if j == i:
            state_axes.append([x[j]])
        else:
            lo, hi = sorted((x[j], xh[j]))
            state_axes.append(np.linspace(lo, hi, points))
    dist_axes = []
    for k in range(m):
        lo, hi = sorted((w[k], wh[k]))
        dist_axes.append(np.linspace(lo, hi, points))
    best = None
    for ys in itertools.product(*state_axes):
        for zs in itertools.product(*dist_axes):
            v = f_i(list(ys), list(zs))
            if best is None or (sign > 0 and v < best) or (sign < 0 and v > best):
                best = v
    return best


def bilinear_f1(x, w):
    return x[0] * x[1] + w[0]


def bilinear_tight_closed_form(x, w, xh, wh):
    """Hand-derived extremal solution for the bilinear system (both sides)."""
    d1 = x[0] * x[1] + w[0] if x[0] >= 0 else x[0] * xh[1] + w[0]
    return np.array([d1, x[0] + 1.0])


def ordered_quadruple(rng, lo=-2.0, hi=2.0, w_lo=0.0, w_hi=0.25):
    a = rng.uniform(lo, hi, 2)
    b = rng.uniform(lo, hi, 2)
    x, xh = np.minimum(a, b), np.maximum(a, b)
    u = rng.uniform(w_lo, w_hi, 1)
    v = rng.uniform(w_lo, w_hi, 1)
    w, wh = np.minimum(u, v), np.maximum(u, v)
    if rng.uniform() < 0.5:
        return list(xh), list(wh), list(x), list(w)
    return list(x), list(w), list(xh), list(wh)


def test_pair_order():
    assert pair_order([0, 0], [0], [1, 1], [1]) == 1
    assert pair_order([1, 1], [1], [0, 0], [0]) == -1
    assert pair_order([0, 0], [0], [0, 0], [0]) == 1
    with pytest.raises(OrderError):
        pair_order([0, 1], [0], [1, 0], [0])


def test_tight_frozen_examples(bilinear):
    d = mm.tight_decomposition(bilinear)
    # dense-grid oracle over y2 in [0,1], z in [0,1/4] confirms the corner
    assert brute_tight_component(bilinear_f1, 0, [1, 0], [0], [2, 1], [0.25]) == 0.0
    assert np.allclose(d.evaluate([1, 0], [0], [2, 1], [0.25]), [0.0, 2.0])
    assert brute_tight_component(bilinear_f1, 0, [-1, 0], [0], [0, 1], [0.25]) == -1.0
    assert np.allclose(d.evaluate([-1, 0], [0], [0, 1], [0.25]), [-1.0, 0.0])


def test_tight_diagonal_is_field(bilinear, rng):
    d = mm.tight_decomposition(bilinear)
    for _ in range(50):
        x = rng.uniform(-3, 3, 2)
        w = rng.uniform(0, 0.25, 1)
        assert np.allclose(d.evaluate(x, w, x, w), bilinear.eval_field(x, w),
                           atol=1e-12)


def test_tight_matches_closed_form(bilinear, rng):
    d = mm.tight_decomposition(bilinear)
    worst = 0.0
    for _ in range(300):
        x, w, xh, wh = ordered_quadruple(rng)
        got = d.evaluate(x, w, xh, wh)
        want = bilinear_tight_closed_form(x, w, xh, wh)
        worst = max(worst, float(np.max(np.abs(got - want))))
    assert worst <= 1e-6


def test_tight_matches_brute_force_on_grid_path(cubic, rng):
    """Boxes straddling the inflection of the cubic take the search fallback."""
    d = mm.tight_decomposition(cubic)

    def f1(x, w):
        return x[0] - x[1] + x[1] ** 3 + w[0]

    for _ in range(10):
        x = [float(rng.uniform(-1, 0)), -1.0]
        xh = [x[0] + 1.0, 1.0]
        w, wh = [-1.0], [1.0]
        got = d.evaluate_component(0, x, w, xh, wh)
        want = brute_tight_component(f1, 0, x, w, xh, wh, points=701)
        assert got == pytest.approx(want, abs=5e-6)


def test_tight_rejects_unordered(bilinear):
    d = mm.tight_decomposition(bilinear)
    with pytest.raises(OrderError):
        d.evaluate([0, 1], [0], [1, 0], [0.25])


# Bit-exact values of the tight search: (name, system, component, x, w, xh,
# wh, path, float.hex). The path is "none" (no free coordinate), "corner"
# (the probe lattice certifies a corner) or "descent" (dense grid plus
# coordinate descent); the value must repeat to the last bit.
TIGHT_PINS = [
    ("k0", "bilinear", 0, [0.5, 0.25], [0.1], [0.75, 0.25], [0.1],
     "none", "0x1.ccccccccccccdp-3"),
    ("corner_k1", "bilinear", 0, [0.5, -0.25], [0.1], [0.75, 0.5], [0.1],
     "corner", "-0x1.9999999999998p-6"),
    ("corner_k2", "bilinear", 0, [-0.5, -0.25], [0.0], [0.75, 0.5], [0.25],
     "corner", "-0x1.0000000000000p-2"),
    ("corner_k3", "mono3", 0, [0.3, -0.4, 0.1], [0.0], [0.6, 0.7, 0.9], [0.5],
     "corner", "-0x1.43056d3f4060cp+1"),
    ("corner_k3_rev", "mono3", 0, [0.6, 0.7, 0.9], [0.5], [0.3, -0.4, 0.1], [0.0],
     "corner", "-0x1.d94355493055dp-2"),
    ("descent_k1", "cubic", 0, [0.2, -1.0], [0.3], [0.4, 1.0], [0.3],
     "descent", "0x1.d772e8cfeef6cp-4"),
    ("descent_k1_rev", "cubic", 0, [0.4, 1.0], [0.3], [0.2, -1.0], [0.3],
     "descent", "0x1.15bc04a63443dp+0"),
    ("descent_k2", "cubic", 0, [0.2, -1.0], [-0.5], [0.4, 1.0], [0.75],
     "descent", "-0x1.5eab3c7f9bbacp-1"),
    ("descent_k2_rev", "cubic", 0, [0.4, 1.0], [0.75], [0.2, -1.0], [-0.5],
     "descent", "0x1.88ef37d967770p+0"),
    ("rot_bilinear_descent", "rot_bilinear", 0, [0.0, -1.0], [0.0], [0.25, 1.0], [0.25],
     "descent", "-0x1.f800afcd36b2cp-5"),
    ("rot_bilinear_descent_rev", "rot_bilinear", 0, [0.25, 1.0], [0.25], [0.0, -1.0], [0.0],
     "descent", "0x1.4413d257964c2p-1"),
    ("rot_bilinear", "rot_bilinear", 0, [-0.6, -0.3], [0.0], [0.7, 0.9], [0.25],
     "corner", "-0x1.ff9bb0f9e9532p-2"),
    ("rot_bilinear_rev", "rot_bilinear", 1, [0.7, 0.9], [0.25], [-0.6, -0.3], [0.0],
     "corner", "0x1.369140356cc7ep+0"),
    ("shear_trig", "shear_trig", 0, [-1.2, -2.0], [0.0], [0.9, 2.5], [0.5],
     "descent", "-0x1.5972af785323ep-3"),
    ("shear_trig_rev", "shear_trig", 1, [0.9, 2.5], [0.5], [-1.2, -2.0], [0.0],
     "corner", "0x1.b7732825b83b2p+1"),
    # dF/dx2 = 1.1e-9 at x2 = 0 sits just above the sign tolerance (1e-9)
    ("tol_edge", "edges", 0, [0.0, 0.0], [0.0], [0.0, 1.0], [0.0],
     "descent", "-0x1.fffffff68d131p-1"),
    # the dense grid's minimum is a tie, at x1 = -1 and at x1 = 1
    ("grid_tie", "edges", 1, [-1.0, 0.0], [0.0], [1.0, 0.0], [0.0],
     "descent", "-0x1.0000000000000p+0"),
]


def _pinned_systems():
    rot = np.array([[np.cos(0.3), -np.sin(0.3)], [np.sin(0.3), np.cos(0.3)]])
    return {
        "bilinear": mm.preset_system("bilinear"),
        "cubic": mm.preset_system("cubic"),
        # component 1 is monotone in x2, x3 and w1 over the pinned boxes
        "mono3": mm.SystemDef.from_strings(
            3, 1, ["x2^3 - exp(x3) + x1 * w1", "x1", "x2"], [0.0], [0.5]),
        "rot_bilinear": mm.transform(mm.preset_system("bilinear"), rot),
        "shear_trig": mm.transform(mm.preset_system("trig"), T1),
        "edges": mm.SystemDef.from_strings(
            2, 1, ["1.1e-9 * x2 - x2^2 + x1", "-x1^2"], [0.0], [0.0]),
    }


def test_tight_values_are_pinned_bit_for_bit(monkeypatch):
    systems = _pinned_systems()
    paths = []
    for name in ("_probe_signs", "_grid_descent"):
        def spy(*args, _fn=getattr(decomp, name), _name=name):
            paths.append(_name)
            return _fn(*args)

        monkeypatch.setattr(decomp, name, spy)
    want_paths = {"none": [], "corner": ["_probe_signs"],
                  "descent": ["_probe_signs", "_grid_descent"]}
    for name, system, i, x, w, xh, wh, path, value in TIGHT_PINS:
        paths.clear()
        got = mm.tight_decomposition(systems[system]).evaluate_component(
            i, x, w, xh, wh)
        assert paths == want_paths[path], name
        assert got == float.fromhex(value), (name, got.hex(), value)


def test_tight_field_calls_are_pinned(monkeypatch):
    """Every field call of the tight search over the pinned cases, with its
    arguments and value, in order: a reordered search shows here even where
    the final value does not move."""
    calls = []
    systems = _pinned_systems()
    for system in systems.values():
        def scalar(i, _fn=system.component_fn):
            fi = _fn(i)

            def logged(y, z):
                value = fi(y, z)
                calls.append((i, tuple(y), tuple(z), value))
                return value
            return logged

        def batch(i, _fn=system.component_batch_fn):
            fb = _fn(i)

            def logged(X, W):
                values = fb(X, W)
                calls.append((i, X.tolist(), W.tolist(), values.tolist()))
                return values
            return logged

        monkeypatch.setattr(system, "component_fn", scalar)
        monkeypatch.setattr(system, "component_batch_fn", batch)
    for _, system, i, x, w, xh, wh, _, _ in TIGHT_PINS:
        mm.tight_decomposition(systems[system]).evaluate_component(i, x, w, xh, wh)
    digest = hashlib.sha256(repr(calls).encode()).hexdigest()
    assert (len(calls), digest) == (
        1286, "62b1cf7d005f6a1f668bf66f2838a84767592a96a0b9702cfea2787bdf78ba18")

def test_tight_descent_is_pinned_at_three_and_four_free_coordinates(monkeypatch):
    """The generated search at k = 3 and 4, beyond the reach of TIGHT_PINS'
    descent rows: both orientations take the probe and then the descent,
    with these values and these field calls."""
    field = "x2^2 + x3^2 - x2*x3*w1"
    systems = [
        mm.SystemDef.from_strings(3, 1, [field, "x1", "x2"], [0.0], [0.5]),
        mm.SystemDef.from_strings(3, 2, [field + " + w2^2", "x1", "x2"],
                                  [0.0, -0.5], [0.5, 0.5]),
    ]
    calls, paths = [], []
    for system in systems:
        def scalar(i, _fn=system.component_fn):
            fi = _fn(i)

            def logged(y, z):
                value = fi(y, z)
                calls.append((i, tuple(y), tuple(z), value))
                return value
            return logged

        def batch(i, _fn=system.component_batch_fn):
            fb = _fn(i)

            def logged(X, W):
                values = fb(X, W)
                calls.append((i, X.tolist(), W.tolist(), values.tolist()))
                return values
            return logged

        monkeypatch.setattr(system, "component_fn", scalar)
        monkeypatch.setattr(system, "component_batch_fn", batch)
    for name in ("_probe_signs", "_grid_descent"):
        def spy(*args, _fn=getattr(decomp, name), _name=name):
            paths.append(_name)
            return _fn(*args)

        monkeypatch.setattr(decomp, name, spy)
    x, xh = [0.3, -0.4, -0.5], [0.6, 0.7, 0.9]
    got = []
    for system, w, wh in zip(systems, ([0.0], [0.0, -0.5]), ([0.5], [0.5, 0.5])):
        d = mm.tight_decomposition(system)
        for args in ((x, w, xh, wh), (xh, wh, x, w)):
            got.append(d.evaluate_component(0, *args).hex())
    assert got == ["0x1.6999999999369p-22", "0x1.4cccccccccccdp+0",
                   "0x1.6999999999369p-22", "0x1.8cccccccccccdp+0"]
    assert paths == ["_probe_signs", "_grid_descent"] * 4
    digest = hashlib.sha256(repr(calls).encode()).hexdigest()
    assert (len(calls), digest) == (
        7251, "56508adc24e9895bc79b037e0944e78377b416dea9931e7ab15444c667259aff")


def _interpreted_probe(y, z, free, fi, minimize):
    """The probe as an interpreted loop over ``itertools.product``: the
    reference the generated one must match call for call."""
    levels = []
    for c, (target, idx, lo, hi) in enumerate(free):
        records = []
        for base in (lo, 0.5 * (lo + hi), hi):
            step = mm.exprlang.FD_STEP * max(1.0, abs(base))
            records.append((c, target, idx, base, base + step, base - step, step))
        levels.append(records)
    has_pos = [False] * len(free)
    has_neg = [False] * len(free)
    for assignment in itertools.product(*levels):
        for _, target, idx, base, _, _, _ in assignment:
            target[idx] = base
        for c, target, idx, base, plus, minus, step in assignment:
            target[idx] = plus
            f_plus = fi(y, z)
            target[idx] = minus
            f_minus = fi(y, z)
            target[idx] = base
            fd = f_plus - f_minus
            tol = decomp._sign_tol(f_plus, f_minus) * 2.0 * step
            if fd > tol:
                if has_neg[c]:
                    return None
                has_pos[c] = True
            elif fd < -tol:
                if has_pos[c]:
                    return None
                has_neg[c] = True
    corner = []
    for c, (_, _, lo, hi) in enumerate(free):
        nondecreasing = has_pos[c] or not has_neg[c]
        if minimize:
            corner.append(lo if nondecreasing else hi)
        else:
            corner.append(hi if nondecreasing else lo)
    return corner


def _interpreted_descent(y, z, free, fi, flip, point, best):
    """The coordinate descent as an interpreted loop: the reference the
    generated one must match call for call."""
    for (target, idx, _, _), value in zip(free, point):
        target[idx] = value
    steps = [(hi - lo) / 8.0 for _, _, lo, hi in free]
    for _ in range(500):
        if max(steps) < decomp.OPTIMIZER_TOL:
            break
        improved = False
        for c, (target, idx, lo, hi) in enumerate(free):
            p = point[c]
            for delta in (steps[c], -steps[c]):
                cand = min(hi, max(lo, p + delta))
                if cand == p:
                    continue
                target[idx] = cand
                g = flip * fi(y, z)
                if g < best:
                    best, p, improved = g, cand, True
            target[idx] = point[c] = p
        if not improved:
            steps = [0.5 * s for s in steps]
    return flip * best


@pytest.mark.parametrize("k", [1, 2, 3, 4, 5, 6])
def test_generated_search_loops_match_the_interpreted_ones(k, rng):
    """Random boxes, in both orientations, over a field that is monotone in
    some coordinates and not in others: each generated loop returns what the
    interpreted one does, with the same field calls in the same order, and
    leaves y and z as it does."""
    system = mm.SystemDef.from_strings(
        4, 3, ["x2^2 - x3*x4 + sin(3*w1)*w2 - w3^3", "x1", "x2", "x3"],
        [-1.0, 0.0, -1.0], [1.0, 0.5, 1.0])
    fi = system.component_fn(0)
    for case in range(6):
        y, z = rng.uniform(-1, 1, 4).tolist(), rng.uniform(-1, 1, 3).tolist()
        slots = [(y, 1), (y, 2), (y, 3), (z, 0), (z, 1), (z, 2)]
        picked = rng.choice(6, k, replace=False)
        free = []
        for s in sorted(picked):
            target, idx = slots[s]
            lo, hi = sorted(rng.uniform(-1.5, 1.5, 2))
            free.append((target, idx, float(lo), float(hi)))
        minimize = case % 2 == 0
        flip = 1.0 if minimize else -1.0
        point = [float(rng.uniform(lo, hi)) for _, _, lo, hi in free]
        runs = []
        for probe, descend in ((decomp._kernel("probe", k), decomp._kernel("descend", k)),
                               (_interpreted_probe, _interpreted_descent)):
            calls = []

            def logged(a, b):
                calls.append((tuple(a), tuple(b)))
                return fi(a, b)

            ys, zs = list(y), list(z)
            mine = [(ys if t is y else zs, i, lo, hi) for t, i, lo, hi in free]
            corner = probe(ys, zs, mine, logged, minimize)
            value = descend(ys, zs, mine, logged, flip, list(point),
                            flip * fi(ys, zs))
            runs.append((corner, value.hex(), calls, ys, zs))
        assert runs[0] == runs[1], (k, case)


def test_tight_probe_refuses_more_free_coordinates_than_it_nests():
    # 21 free disturbances: the generated probe nests one loop per coordinate
    system = mm.SystemDef.from_strings(1, 21, ["w21^2"], [-1.0] * 21, [1.0] * 21)
    d = mm.tight_decomposition(system)
    with pytest.raises(SizeLimitError, match="21 free coordinates; the probe lattice"):
        d.evaluate([0.0], [-1.0] * 21, [0.0], [1.0] * 21)


def test_tight_search_refuses_too_many_free_coordinates():
    # seven free disturbances, and w7^2 is not monotone over [-1, 1]
    system = mm.SystemDef.from_strings(1, 7, ["w7^2"], [-1.0] * 7, [1.0] * 7)
    d = mm.tight_decomposition(system)
    with pytest.raises(SizeLimitError, match="7 free coordinates"):
        d.evaluate([0.0], [-1.0] * 7, [0.0], [1.0] * 7)


def test_jacobian_sign_on_stable_domain(bilinear, rng):
    domain = mm.Box([0.0, -3.0], [0.75, 3.0])
    d = mm.jacobian_sign_decomposition(bilinear, domain, samples=100, seed=1)
    assert d.method == "jacobian_sign"
    # on this domain the corner selection reproduces the closed form
    for _ in range(100):
        x, w, xh, wh = ordered_quadruple(rng, lo=0.0, hi=3.0)
        got = d.evaluate(x, w, xh, wh)
        want = bilinear_tight_closed_form(x, w, xh, wh)
        assert np.allclose(got, want, atol=1e-12)


def test_jacobian_sign_indefinite_domain(bilinear):
    with pytest.raises(SignIndefiniteError) as err:
        mm.jacobian_sign_decomposition(
            bilinear, mm.Box([-1.0, -1.0], [1.0, 1.0]), samples=200, seed=2
        )
    assert err.value.entry == (1, 2)
    fd_a = err.value.witnesses[0][2]
    fd_b = err.value.witnesses[1][2]
    assert fd_a * fd_b < 0


def test_jacobian_sign_on_monotone_transform(cubic, rng):
    trans = mm.transform(cubic, T1)
    domain = mm.Box([-2.0, -2.0], [2.0, 2.0])
    d = mm.jacobian_sign_decomposition(trans, domain, samples=100, seed=3)
    for _ in range(50):
        x, w, xh, wh = ordered_quadruple(rng, w_lo=-1.0, w_hi=1.0)
        assert np.allclose(d.evaluate(x, w, xh, wh), trans.eval_field(x, w),
                           atol=1e-12)


def test_corner_selections_are_the_field_at_the_corner(cubic, rng):
    # on this box the sheared cubic has dF1/dx2 < 0 and dF2/dw1 < 0
    sheared = mm.transform(cubic, [[1.0, 0.0], [0.5, 1.0]])
    domain = mm.Box([-0.25, -0.25], [0.25, 0.25])
    monotone = mm.transform(cubic, T1)
    cases = [  # (decomposition, per component: hat-side state and disturbance)
        (mm.jacobian_sign_decomposition(sheared, domain, samples=100, seed=3),
         [({1}, set()), (set(), {0})]),
        (mm.monotone_decomposition(monotone, domain, samples=100),
         [(set(), set()), (set(), set())]),
    ]
    for d, hats in cases:
        for _ in range(20):
            quad = ordered_quadruple(rng, lo=-0.25, hi=0.25, w_lo=-1.0, w_hi=1.0)
            for x, w, xh, wh in (quad, quad[2:] + quad[:2]):
                for i, (x_hat, w_hat) in enumerate(hats):
                    y = [xh[j] if j in x_hat else x[j] for j in range(2)]
                    z = [wh[k] if k in w_hat else w[k] for k in range(1)]
                    assert (d.evaluate_component(i, x, w, xh, wh)
                            == d.system.component_fn(i)(y, z))


def test_monotone_accepts_transformed_cubic(cubic, rng):
    trans = mm.transform(cubic, T1)
    d = mm.monotone_decomposition(trans, mm.Box([-2, -2], [2, 2]), samples=100)
    assert d.method == "monotone"
    x, w, xh, wh = ordered_quadruple(rng, w_lo=-1.0, w_hi=1.0)
    assert np.allclose(d.evaluate(x, w, xh, wh), trans.eval_field(x, w))


def test_monotone_rejects_cubic(cubic):
    with pytest.raises(NotMonotoneError) as err:
        mm.monotone_decomposition(cubic, mm.Box([-1, -1], [1, 1]), samples=200,
                                  seed=4)
    assert err.value.witness is not None


def test_monotone_accepts_scalar_decay():
    s = mm.SystemDef.from_strings(1, 1, ["-x1"], [0.0], [0.0])
    d = mm.monotone_decomposition(s, mm.Box([-3.0], [3.0]), samples=50)
    assert d.evaluate([2.0], [0.0], [2.5], [0.0])[0] == -2.0


def test_combine_idempotent(bilinear, rng):
    d = mm.tight_decomposition(bilinear)
    dd = mm.combine(d, d)
    for _ in range(200):
        x, w, xh, wh = ordered_quadruple(rng)
        assert np.allclose(dd.evaluate(x, w, xh, wh), d.evaluate(x, w, xh, wh),
                           atol=0)


def alpha_closed_form(system):
    """Valid but non-tight decomposition of the sheared cubic system."""
    return mm.closed_form_decomposition(
        system,
        mm.parse_closed_form(system, ["x2^3 + w1 - 0.5*(x3 - x1)", "x1"]),
    )


def test_combine_with_tight_resolves_to_tight(cubic, rng):
    trans = mm.transform(cubic, T1)
    tight = mm.tight_decomposition(trans)
    other = alpha_closed_form(trans)
    both = mm.combine(tight, other)
    for _ in range(300):
        x, w, xh, wh = ordered_quadruple(rng, w_lo=-1.0, w_hi=1.0)
        assert np.allclose(both.evaluate(x, w, xh, wh),
                           tight.evaluate(x, w, xh, wh), atol=1e-9)


def test_combine_dominates_parts(bilinear, rng):
    d1 = mm.jacobian_sign_decomposition(
        bilinear, mm.Box([0.0, -3.0], [3.0, 3.0]), samples=100, seed=5
    )
    d2 = mm.jacobian_sign_decomposition(
        bilinear, mm.Box([0.0, -1.0], [0.75, 1.0]), samples=100, seed=6
    )
    both = mm.combine(d1, d2)
    for _ in range(200):
        x, w, xh, wh = ordered_quadruple(rng, lo=0.0, hi=2.0)
        v = both.evaluate(x, w, xh, wh)
        a = d1.evaluate(x, w, xh, wh)
        b = d2.evaluate(x, w, xh, wh)
        if pair_order(x, w, xh, wh) > 0:
            assert np.all(v >= np.maximum(a, b) - 1e-12)
        else:
            assert np.all(v <= np.minimum(a, b) + 1e-12)


def test_combine_rejects_mismatched_systems(bilinear, cubic):
    with pytest.raises(DimensionMismatchError):
        mm.combine(mm.tight_decomposition(bilinear), mm.tight_decomposition(cubic))


def test_closed_form_matches_tight_for_bilinear(bilinear, rng):
    sources = ["max(x1, 0)*x2 + min(x1, 0)*x4 + w1", "x1 + 1"]
    d = mm.closed_form_decomposition(bilinear,
                                     mm.parse_closed_form(bilinear, sources))
    tight = mm.tight_decomposition(bilinear)
    worst = 0.0
    for _ in range(1000):
        x, w, xh, wh = ordered_quadruple(rng)
        diff = d.evaluate(x, w, xh, wh) - tight.evaluate(x, w, xh, wh)
        worst = max(worst, float(np.max(np.abs(diff))))
    assert worst <= 1e-8


def test_closed_form_arity_mismatch(bilinear):
    with pytest.raises(DimensionMismatchError):
        mm.closed_form_decomposition(
            bilinear, mm.parse_closed_form(bilinear, ["x1"])
        )


def test_check_passes_valid_decompositions(bilinear, cubic):
    report = mm.check_decomposition(
        mm.tight_decomposition(bilinear), probes=300, seed=0,
        domain=mm.Box([-1.0, -1.0], [1.0, 1.0]),
    )
    assert report.violations == 0
    assert report.consistency_residual <= 1e-8

    trans = mm.transform(cubic, T1)
    report = mm.check_decomposition(
        mm.monotone_decomposition(trans, mm.Box([-2, -2], [2, 2]), samples=100),
        probes=300, seed=1,
    )
    assert report.violations == 0
    assert report.consistency_residual <= 1e-9


def test_check_skips_zero_width_state_axes(bilinear):
    report = mm.check_decomposition(mm.tight_decomposition(bilinear), probes=20,
                                    domain=mm.Box([0.0, -1.0], [0.0, 1.0]))
    assert report.ok()


@pytest.mark.parametrize("probes", [0, -5])
def test_check_refuses_to_pass_on_no_probe(bilinear, probes):
    """A check of no probe returned a report whose ok() was True."""
    with pytest.raises(DimensionMismatchError):
        mm.check_decomposition(mm.tight_decomposition(bilinear), probes=probes)


def test_check_flags_planted_fault(bilinear):
    # increasing dependence on the partner state: violates the sign conditions
    broken = mm.closed_form_decomposition(
        bilinear, mm.parse_closed_form(bilinear, ["x1*x2 + w1 + x4", "x3 + 1"])
    )
    report = mm.check_decomposition(broken, probes=200, seed=2,
                                    domain=mm.Box([-1, -1], [1, 1]))
    assert report.violations > 0
    assert report.witnesses
    assert not report.ok()


def test_tight_dominates_other_decompositions(cubic, rng):
    """The extremal construction bounds every valid decomposition."""
    trans = mm.transform(cubic, T1)
    tight = mm.tight_decomposition(trans)
    other = alpha_closed_form(trans)
    for _ in range(300):
        x, w, xh, wh = ordered_quadruple(rng, w_lo=-1.0, w_hi=1.0)
        t = tight.evaluate(x, w, xh, wh)
        o = other.evaluate(x, w, xh, wh)
        if pair_order(x, w, xh, wh) > 0:
            assert np.all(t >= o - 1e-7)
        else:
            assert np.all(t <= o + 1e-7)


def test_make_decomposition_factory(bilinear):
    assert mm.make_decomposition(bilinear).method == "tight"
    with pytest.raises(DimensionMismatchError):
        mm.make_decomposition(bilinear, "jacobian_sign")
    with pytest.raises(DimensionMismatchError):
        mm.make_decomposition(bilinear, "closed_form")
    with pytest.raises(DimensionMismatchError):
        mm.make_decomposition(bilinear, "nope")
