import numpy as np
import pytest

import mmreach as mm
from mmreach import exprlang
from mmreach.errors import DimensionMismatchError, EvalError, ExprError, GeometryError


def test_bilinear_field_value(bilinear):
    assert np.allclose(bilinear.eval_field([1, 0], [0]), [0.0, 2.0])


def test_cubic_field_value(cubic):
    assert np.allclose(cubic.eval_field([1, 1], [0]), [1.0, 0.0])


def test_trig_field_value(trig):
    assert np.allclose(trig.eval_field([0, 0], [0]), [0.0, 2.0])


def test_unknown_preset():
    with pytest.raises(GeometryError):
        mm.preset_system("nope")


def test_systemdef_validation(bilinear):
    exprs = [mm.parse("x1", 2, 1)]
    with pytest.raises(DimensionMismatchError):
        mm.SystemDef(2, 1, exprs, mm.Box([0.0], [1.0]))
    with pytest.raises(DimensionMismatchError):
        mm.SystemDef(1, 1, [mm.parse("x1", 1, 1)], mm.Box([0.0, 0.0], [1.0, 1.0]))


def test_eval_field_reports_nonfinite():
    s = mm.SystemDef.from_strings(1, 1, ["1/x1"], [0.0], [0.0])
    with pytest.raises(EvalError):
        s.eval_field([0.0], [0.0])


def test_transform_shear_gives_monotone_cubic(cubic, rng):
    """The sheared cubic system evaluates to (y2^3 + w, y1)."""
    t1 = np.array([[1.0, 1.0], [0.0, 1.0]])
    trans = mm.transform(cubic, t1)
    for _ in range(100):
        y = rng.uniform(-2, 2, 2)
        w = rng.uniform(-1, 1, 1)
        want = np.array([y[1] ** 3 + w[0], y[0]])
        assert np.allclose(trans.eval_field(y, w), want, atol=1e-12)


def test_transform_identity_is_exact(bilinear, rng):
    trans = mm.transform(bilinear, np.eye(2))
    for _ in range(50):
        x = rng.uniform(-3, 3, 2)
        w = rng.uniform(0, 0.25, 1)
        a = trans.eval_field(x, w)
        b = bilinear.eval_field(x, w)
        assert (a == b).all()  # bitwise: identity composition folds away


def test_transform_origin_value(bilinear, skew_shape):
    trans = mm.transform(bilinear, skew_shape)
    # T^-1 F(0, 0) = T^-1 (0, 1); hand solve with det 3: (2/3, 1/3)
    assert np.allclose(trans.eval_field([0, 0], [0]), [2 / 3, 1 / 3], atol=1e-15)


def test_transform_rejects_singular(bilinear):
    with pytest.raises(GeometryError):
        mm.transform(bilinear, np.array([[1.0, 1.0], [1.0, 1.0]]))


def test_transform_composes(cubic, rng):
    t1 = np.array([[1.0, 1.0], [0.0, 1.0]])
    t2 = np.array([[2.0, 0.0], [1.0, 1.0]])
    once = mm.transform(mm.transform(cubic, t1), t2)
    direct = mm.transform(cubic, t1 @ t2)
    for _ in range(20):
        y = rng.uniform(-1, 1, 2)
        w = rng.uniform(-1, 1, 1)
        assert np.allclose(once.eval_field(y, w), direct.eval_field(y, w),
                           atol=1e-12)


def test_composed_field_too_deep_to_compile_is_an_expr_error():
    """Substitution deepens a field that parse accepted near the nesting
    limit; building the composed system names the component."""
    s = mm.SystemDef.from_strings(2, 1, ["-" * 197 + "x1", "x2"], [0.0], [0.1])
    for build in (lambda: mm.transform(s, [[1.0, 1.0], [0.0, 1.0]]),
                  lambda: mm.reverse_time(mm.reverse_time(s))):
        with pytest.raises(ExprError) as err:
            build()
        assert str(err.value) == ("field component 1 does not compile: "
                                  "too many nested parentheses")


def test_reverse_time_negates_exactly(bilinear, rng):
    rev = mm.reverse_time(bilinear)
    for _ in range(50):
        x = rng.uniform(-3, 3, 2)
        w = rng.uniform(0, 0.25, 1)
        assert (rev.eval_field(x, w) == -bilinear.eval_field(x, w)).all()


def test_reverse_time_involution(bilinear, rng):
    twice = mm.reverse_time(mm.reverse_time(bilinear))
    for _ in range(100):
        x = rng.uniform(-3, 3, 2)
        w = rng.uniform(0, 0.25, 1)
        assert (twice.eval_field(x, w) == bilinear.eval_field(x, w)).all()


def test_reverse_time_of_transformed(bilinear, skew_shape, rng):
    trans = mm.transform(bilinear, skew_shape)
    rev = mm.reverse_time(trans)
    for _ in range(20):
        y = rng.uniform(-1, 1, 2)
        w = rng.uniform(0, 0.25, 1)
        assert np.allclose(rev.eval_field(y, w), -trans.eval_field(y, w), atol=0)


def test_trajectory_commutes_with_transform(bilinear, skew_shape, rng):
    """Flowing then mapping equals mapping then flowing the transformed system."""
    spec = mm.ReachSpec(1.0, 1e-3)
    trans = mm.transform(bilinear, skew_shape)
    inv = np.linalg.inv(skew_shape)
    for _ in range(5):
        x0 = rng.uniform(-0.5, 0.5, 2)
        w = [float(rng.uniform(0, 0.25))]
        direct = mm.simulate(bilinear, x0, w, spec).final_state
        mapped = skew_shape @ mm.simulate(trans, inv @ x0, w, spec).final_state
        assert np.allclose(direct, mapped, atol=1e-6)


def test_batch_matches_scalar(trig, rng):
    X = rng.uniform(-2, 2, (40, 2))
    W = rng.uniform(0, 0.5, (40, 1))
    batch = trig.eval_field_batch(X, W)
    for i in range(40):
        assert np.allclose(batch[i], trig.eval_field(X[i], W[i]), atol=1e-14)


def test_transformed_batch_matches_scalar(cubic, rng):
    t2 = np.array([[1.0, 4.0], [-1.0, 1.0]])
    trans = mm.transform(cubic, t2)
    Y = rng.uniform(-1, 1, (40, 2))
    W = rng.uniform(-1, 1, (40, 1))
    batch = trans.eval_field_batch(Y, W)
    for i in range(40):
        assert np.allclose(batch[i], trans.eval_field(Y[i], W[i]), atol=1e-13)


# every batch operation: sin cos tan exp sqrt abs min max ^ / and negation
_EVERY_OP = mm.SystemDef.from_strings(
    2, 2,
    ["sin(x1) + cos(x2) / tan(w1) - exp(-x1) ^ 2",
     "sqrt(abs(x2 - w2)) * min(x1, w1, x2) + max(-x2, w2) / x1"],
    [-1.0, -1.0], [1.0, 1.0])


@pytest.mark.parametrize("name", ["bilinear", "cubic", "trig", "every_op"])
def test_batch_layout_does_not_change_bits(name, rng):
    """The oracle holds its state column-major; every batch function and the
    field give the same bytes on a C-ordered (N, n) input and on its
    column-major copy, rows of +-inf and NaN included."""
    system = _EVERY_OP if name == "every_op" else mm.preset_system(name)
    X = rng.uniform(-3.0, 3.0, (501, system.n))
    W = rng.uniform(system.dist.lo, system.dist.hi, (501, system.m))
    for rows, value in ((slice(0, 500, 7), np.inf), (slice(3, 500, 11), -np.inf),
                        (slice(5, 500, 13), np.nan)):
        X[rows, rows.start % system.n] = value
        W[rows, 0] = value
    FX, FW = np.asfortranarray(X), np.asfortranarray(W)
    assert FX.flags.f_contiguous and not FX.flags.c_contiguous
    for i in range(system.n):
        fn = system.component_batch_fn(i)
        assert fn(X, W).tobytes() == fn(FX, FW).tobytes()
    c_out, f_out = system.eval_field_batch(X, W), system.eval_field_batch(FX, FW)
    assert f_out.flags.f_contiguous and c_out.tobytes() == f_out.tobytes()
    assert not np.isfinite(c_out).all() and np.isfinite(c_out).any()


# one component per kind of root: a constant, bare variables, an expression
# of constants, negation, each unary function, ^, each infix operator, and
# 3-argument min/max
_EVERY_ROOT = ["2.5", "x2", "w1", "sin(1.0) + 2", "-(x1 * w1)",
               "sin(x1 + x2)", "cos(x1 * x2)", "tan(x2)", "exp(x1)",
               "abs(x1 - w1)", "sqrt(x2)", "x1 ^ x2", "x2 ^ 3",
               "min(x1, w1, x2)", "max(-x2, x1, 0.5)", "1 + x1", "x2 - 1",
               "0.5 * x1", "w1 / x2"]


def test_field_batch_writes_the_component_values_into_its_columns(rng):
    """Each component's last operation writes into its column of the field;
    the values are those of ``component_batch_fn`` bit for bit, on either
    layout and on rows of +-inf and NaN, and no column aliases the input."""
    n = len(_EVERY_ROOT)
    system = mm.SystemDef.from_strings(n, 1, _EVERY_ROOT, [-1.0], [1.0])
    X = rng.uniform(-3.0, 3.0, (301, n))
    W = rng.uniform(-1.0, 1.0, (301, 1))
    for rows, value in ((slice(0, 300, 7), np.inf), (slice(3, 300, 11), -np.inf),
                        (slice(5, 300, 13), np.nan)):
        X[rows, rows.start % 2] = value
        W[rows, 0] = value
    for X, W in ((X, W), (np.asfortranarray(X), np.asfortranarray(W))):
        out = system.eval_field_batch(X, W)
        assert out.flags.f_contiguous and out.shape == (301, n)
        assert not np.shares_memory(out, X) and not np.shares_memory(out, W)
        for i in range(n):
            assert out[:, i].tobytes() == system.component_batch_fn(i)(X, W).tobytes()
        assert not np.isfinite(out).all() and np.isfinite(out).any()


def _lambda_batch_fn(expr):
    """The batch code as one eval'd lambda of the whole ``_BATCH_TABLE`` code,
    broadcast to one value per row: an independent reference for the
    statement code of ``batch_into_fn``."""
    fn = eval(f"lambda x, w: ({exprlang._gen(expr.root, exprlang._BATCH_TABLE)})",
              {"np": np, "__builtins__": {}})

    def batch(X, W):
        with np.errstate(all="ignore"):
            return np.broadcast_to(np.asarray(fn(X, W), dtype=float), X.shape[:1])

    return batch


def test_batch_code_matches_the_whole_tree_lambda(rng):
    """``batch_fn`` and each column of ``eval_field_batch`` give the whole-tree
    lambda's values bit for bit, for every kind of root, on either layout
    and on rows of +-inf and NaN; every ``batch_fn`` result is fresh."""
    n = len(_EVERY_ROOT)
    system = mm.SystemDef.from_strings(n, 1, _EVERY_ROOT, [-1.0], [1.0])
    X = rng.uniform(-3.0, 3.0, (301, n))
    W = rng.uniform(-1.0, 1.0, (301, 1))
    for rows, value in ((slice(0, 300, 7), np.inf), (slice(3, 300, 11), -np.inf),
                        (slice(5, 300, 13), np.nan)):
        X[rows, rows.start % 2] = value
        W[rows, 0] = value
    for X, W in ((X, W), (np.asfortranarray(X), np.asfortranarray(W))):
        field = system.eval_field_batch(X, W)
        for i, expr in enumerate(system.field):
            expected = _lambda_batch_fn(expr)(X, W).tobytes()
            out = expr.batch_fn()(X, W)
            assert out.tobytes() == expected, _EVERY_ROOT[i]
            assert field[:, i].tobytes() == expected, _EVERY_ROOT[i]
            assert out.flags.writeable and out.flags.owndata
            assert not np.shares_memory(out, X) and not np.shares_memory(out, W)


def test_field_batch_compiles_the_deepest_field_a_system_accepts():
    """The column-writing code is compiled at the first batch call. It nests
    less deeply than the batch code the system compiles when it is built,
    so the deepest field a system accepts still evaluates."""
    system = mm.SystemDef.from_strings(1, 1, ["-" * 198 + "x1"], [0.0], [0.1])
    X, W = np.array([[1.5], [-2.0]]), np.zeros((2, 1))
    out = system.eval_field_batch(X, W)
    assert out.tobytes() == system.component_batch_fn(0)(X, W).tobytes()
