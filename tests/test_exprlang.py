import math

import numpy as np
import pytest

import mmreach as mm
from mmreach import exprlang
from mmreach.errors import DimensionMismatchError, EvalError, ParseError


def test_parse_and_eval_product_plus_disturbance():
    e = mm.parse("x1*x2 + w1", 2, 1)
    assert mm.evaluate(e, [2, 3], [0.25]) == pytest.approx(6.25)


def test_parse_cube_term():
    e = mm.parse("x2^3 + w1", 2, 1)
    assert mm.evaluate(e, [0, 2], [1.0]) == pytest.approx(9.0)


def test_parse_index_out_of_range():
    with pytest.raises(ParseError) as err:
        mm.parse("x3", 2, 1)
    assert err.value.column == 1
    with pytest.raises(ParseError):
        mm.parse("x1 + w2", 2, 1)
    with pytest.raises(ParseError):
        mm.parse("x0", 2, 1)  # indices are 1-based


def test_parse_unknown_identifier_column():
    with pytest.raises(ParseError) as err:
        mm.parse("x1 + foo(x1)", 2, 1)
    assert err.value.column == 6


def test_parse_syntax_error_column():
    with pytest.raises(ParseError) as err:
        mm.parse("x1 + * x2", 2, 0)
    assert err.value.column == 6
    with pytest.raises(ParseError):
        mm.parse("", 2, 1)
    with pytest.raises(ParseError):
        mm.parse("(x1 + x2", 2, 0)


def test_precedence_and_associativity():
    assert mm.evaluate(mm.parse("2^3^2", 1, 0), [0], []) == 512.0  # right assoc
    assert mm.evaluate(mm.parse("-x1^2", 1, 0), [3], []) == -9.0  # ^ above unary -
    assert mm.evaluate(mm.parse("(-x1)^2", 1, 0), [3], []) == 9.0
    assert mm.evaluate(mm.parse("8 - 4 - 2", 1, 0), [0], []) == 2.0  # left assoc
    assert mm.evaluate(mm.parse("8 / 4 / 2", 1, 0), [0], []) == 1.0
    assert mm.evaluate(mm.parse("1 + 2 * 3", 1, 0), [0], []) == 7.0
    assert mm.evaluate(mm.parse("2 * 3 ^ 2", 1, 0), [0], []) == 18.0


def test_whitespace_insensitive():
    a = mm.parse("x1*x2+w1", 2, 1)
    b = mm.parse("  x1 * x2   +   w1 ", 2, 1)
    assert mm.evaluate(a, [1.5, -2], [0.5]) == mm.evaluate(b, [1.5, -2], [0.5])


def test_trig_field_value():
    e = mm.parse("x1 + cos(x1) + 1", 2, 1)
    assert mm.evaluate(e, [0, 5], [0]) == pytest.approx(2.0)


def test_min_max_nary():
    e = mm.parse("min(x1, x2, 0) + max(x1, x2)", 2, 0)
    assert mm.evaluate(e, [3, -1], []) == pytest.approx(-1 + 3)
    with pytest.raises(ParseError):
        mm.parse("min(x1)", 2, 0)
    with pytest.raises(ParseError):
        mm.parse("sin(x1, x2)", 2, 0)


def test_eval_division_by_zero_reports_subexpression():
    e = mm.parse("1/x1", 1, 0)
    with pytest.raises(EvalError) as err:
        mm.evaluate(e, [0.0], [])
    assert "x1" in str(err.value)
    e = mm.parse("max(x1, 1/x2, 3)", 2, 0)
    with pytest.raises(EvalError) as err:
        mm.evaluate(e, [1.0, 0.0], [])
    assert "(1.0 / x2)" in str(err.value)


def test_eval_domain_violation_reports_subexpression():
    e = mm.parse("x1 + sqrt(x2)", 2, 0)
    with pytest.raises(EvalError) as err:
        mm.evaluate(e, [1.0, -4.0], [])
    assert "sqrt" in str(err.value)


@pytest.mark.parametrize("src, x, expected", [
    ("x1 / x2", [1.0, 0.0], math.inf),
    ("x1 / x2", [1.0, -0.0], -math.inf),
    ("x1 / x2", [0.0, 0.0], math.nan),
    ("x1 ^ x2", [0.0, -1.0], math.inf),
    ("x1 ^ x2", [-0.0, -1.0], -math.inf),
    ("x1 ^ x2", [-10.0, 309.0], -math.inf),
    ("x1 ^ x2", [10.0, 309.0], math.inf),
    ("x1 ^ x2", [-8.0, 1 / 3], math.nan),
    ("sqrt(x1)", [-1.0, 0.0], math.nan),
    ("exp(x1)", [1000.0, 0.0], math.inf),
    ("sin(x1)", [math.inf, 0.0], math.nan),
    ("sin(x1)", [-math.inf, 0.0], math.nan),
    ("cos(x1)", [math.inf, 0.0], math.nan),
    ("cos(x1)", [-math.inf, 0.0], math.nan),
    ("tan(x1)", [math.inf, 0.0], math.nan),
    ("tan(x1)", [-math.inf, 0.0], math.nan),
])
def test_special_values_agree_across_backends(src, x, expected):
    """Where Python floats or math raise, the scalar code takes the batch
    code's value: signed infinities and NaNs agree bit for bit."""
    e = mm.parse(src, 2, 0)
    values = [e.scalar_fn()(x, []),
              exprlang.scalar_list_fn([e.root])(x, [])[0],
              e.batch_fn()(np.array([x]), np.zeros((1, 0)))[0]]
    np.testing.assert_array_equal(values, [expected] * 3)


def test_evaluate_sees_the_special_values_numpy_gives():
    """sqrt(-1) is NaN, which max keeps; 1/0 is inf, which min drops."""
    with pytest.raises(EvalError) as err:
        mm.evaluate(mm.parse("max(0, sqrt(x1))", 1, 0), [-1.0], [])
    assert err.value.subexpression == "sqrt(x1)"
    assert mm.evaluate(mm.parse("min(x1^(0-1), 5)", 1, 0), [0.0], []) == 5.0


def test_eval_dimension_mismatch():
    e = mm.parse("x1 + w1", 1, 1)
    with pytest.raises(DimensionMismatchError):
        mm.evaluate(e, [1.0, 2.0], [0.0])


def test_depth_limit():
    src = "(" * 300 + "x1" + ")" * 300
    with pytest.raises(ParseError):
        mm.parse(src, 1, 0)


def test_partial_bilinear():
    e = mm.parse("x1*x2", 2, 0)
    assert mm.partial(e, "state", 1, [3, 5], []) == pytest.approx(3.0, abs=1e-7)


def test_partial_linear_disturbance():
    e = mm.parse("x1 + w1", 1, 1)
    assert mm.partial(e, "disturbance", 0, [4.2], [-1.3]) == pytest.approx(
        1.0, abs=1e-9
    )


def test_partial_cube():
    e = mm.parse("x2^3", 2, 0)
    assert mm.partial(e, "state", 1, [0, 1], []) == pytest.approx(3.0, abs=1e-5)


def test_central_difference_returns_unchecked_probes():
    fd, f_plus, f_minus = exprlang.central_difference(
        lambda v: v[0] * v[1], [3.0, 5.0], 1, 1e-6
    )
    assert fd == pytest.approx(3.0, abs=1e-7)
    assert f_plus == pytest.approx(15.0 + 3 * 5e-6)
    assert f_minus == pytest.approx(15.0 - 3 * 5e-6)
    fd, f_plus, f_minus = exprlang.central_difference(
        lambda v: math.inf if v[0] > 0 else 0.0, [0.0], 0, 1e-6
    )
    assert fd == math.inf and f_plus == math.inf and f_minus == 0.0


def test_partial_validation():
    e = mm.parse("x1", 1, 0)
    with pytest.raises(ValueError):
        mm.partial(e, "state", 0, [1.0], [], h=0.0)
    with pytest.raises(ValueError):
        mm.partial(e, "foo", 0, [1.0], [])
    with pytest.raises(DimensionMismatchError):
        mm.partial(e, "state", 3, [1.0], [])
    # a probe point outside the domain of sqrt
    with pytest.raises(EvalError):
        mm.partial(mm.parse("sqrt(x1)", 1, 0), "state", 0, [0.0], [])


# hand-differentiated battery: (source, n, m, point, kind, index, derivative)
_BATTERY = [
    ("x1^2", 1, 0, ([1.7], []), "state", 0, lambda x, w: 2 * x[0]),
    ("x1^3 - x1", 1, 0, ([0.4], []), "state", 0, lambda x, w: 3 * x[0] ** 2 - 1),
    ("sin(x1)", 1, 0, ([0.9], []), "state", 0, lambda x, w: math.cos(x[0])),
    ("cos(x1)", 1, 0, ([-0.4], []), "state", 0, lambda x, w: -math.sin(x[0])),
    ("tan(x1)", 1, 0, ([0.5], []), "state", 0, lambda x, w: 1 / math.cos(x[0]) ** 2),
    ("exp(x1)", 1, 0, ([0.3], []), "state", 0, lambda x, w: math.exp(x[0])),
    ("sqrt(x1)", 1, 0, ([2.5], []), "state", 0, lambda x, w: 0.5 / math.sqrt(x[0])),
    ("abs(x1)", 1, 0, ([-1.2], []), "state", 0, lambda x, w: -1.0),
    ("1/x1", 1, 0, ([2.0], []), "state", 0, lambda x, w: -1 / x[0] ** 2),
    ("x1*x2", 2, 0, ([2.0, -3.0], []), "state", 0, lambda x, w: x[1]),
    ("x1*x2", 2, 0, ([2.0, -3.0], []), "state", 1, lambda x, w: x[0]),
    ("x1 - x2 + x2^3", 2, 0, ([0.0, 0.7], []), "state", 1,
     lambda x, w: -1 + 3 * x[1] ** 2),
    ("x2 + sin(x2)", 2, 0, ([0.0, 1.1], []), "state", 1,
     lambda x, w: 1 + math.cos(x[1])),
    ("x1 + cos(x1)", 1, 0, ([0.6], []), "state", 0, lambda x, w: 1 - math.sin(x[0])),
    ("x1^2 * w1", 1, 1, ([1.5], [0.7]), "disturbance", 0, lambda x, w: x[0] ** 2),
    ("exp(x1 * w1)", 1, 1, ([0.5], [0.8]), "state", 0,
     lambda x, w: w[0] * math.exp(x[0] * w[0])),
    ("min(x1, x2)", 2, 0, ([2.0, 1.0], []), "state", 1, lambda x, w: 1.0),
    ("max(x1, x2)", 2, 0, ([2.0, 1.0], []), "state", 1, lambda x, w: 0.0),
    ("x1 / x2", 2, 0, ([1.0, 2.0], []), "state", 1, lambda x, w: -x[0] / x[1] ** 2),
    ("2^x1", 1, 0, ([1.3], []), "state", 0, lambda x, w: math.log(2) * 2 ** x[0]),
]


@pytest.mark.parametrize("src,n,m,point,kind,index,deriv", _BATTERY)
def test_partial_matches_analytic(src, n, m, point, kind, index, deriv):
    e = mm.parse(src, n, m)
    x, w = point
    assert mm.partial(e, kind, index, x, w) == pytest.approx(
        deriv(x, w), abs=1e-5
    )


def _random_expr(rng, n, m, depth):
    """Random expression over a division-free grammar (safe to evaluate)."""
    if depth == 0 or rng.uniform() < 0.25:
        kind = rng.integers(3)
        if kind == 0 and n:
            return f"x{rng.integers(1, n + 1)}"
        if kind == 1 and m:
            return f"w{rng.integers(1, m + 1)}"
        return repr(round(float(rng.uniform(-3, 3)), 3))
    op = rng.integers(6)
    a = _random_expr(rng, n, m, depth - 1)
    b = _random_expr(rng, n, m, depth - 1)
    if op == 0:
        return f"({a} + {b})"
    if op == 1:
        return f"({a} - {b})"
    if op == 2:
        return f"({a} * {b})"
    if op == 3:
        return f"sin({a})"
    if op == 4:
        return f"min({a}, {b})"
    return f"max({a}, {b})"


def test_print_parse_round_trip(rng):
    """Re-parsing the canonical printed form evaluates identically."""
    for _ in range(30):
        src = _random_expr(rng, 2, 1, 4)
        e1 = mm.parse(src, 2, 1)
        e2 = mm.parse(e1.source, 2, 1)
        assert e2.source == e1.source
        for _ in range(100 // 30 + 3):
            x = rng.uniform(-5, 5, 2)
            w = rng.uniform(-5, 5, 1)
            v1 = mm.evaluate(e1, x, w)
            v2 = mm.evaluate(e2, x, w)
            assert v2 == pytest.approx(v1, rel=1e-15, abs=1e-300)


def test_canonical_print_forms():
    e = mm.parse("x1*x2 + w1", 2, 1)
    assert e.source == "((x1 * x2) + w1)"
    e = mm.parse("-x1^2", 1, 0)
    assert e.source == "(-(x1 ^ 2.0))"
    e = mm.parse("min(x1, 2, w1)", 1, 1)
    assert e.source == "min(x1, 2.0, w1)"
    with pytest.raises(TypeError):
        exprlang.to_source(exprlang.Unary("neg", "x1"))


def test_negated_helper():
    e = mm.parse("x1 + 2", 1, 0)
    assert mm.evaluate(e.negated(), [3], []) == -5.0


def test_batch_matches_scalar(rng):
    for src in ("x1*x2 + sin(x2) - w1^2",
                "cos(x1) + tan(x2 / 4) - exp(w1) + abs(x1 - x2) + sqrt(abs(x2))",
                "(abs(x1) + 1) ^ w1 / (x2 ^ 2 + 1)",
                "min(x1, -x2, w1) - max(x1 * x2, 2, w1 / 3)"):
        e = mm.parse(src, 2, 1)
        X = rng.uniform(-2, 2, (64, 2))
        W = rng.uniform(-1, 1, (64, 1))
        batch = e.batch_fn()(X, W)
        for i in range(64):
            assert batch[i] == pytest.approx(
                mm.evaluate(e, X[i], W[i]), rel=1e-14, abs=1e-14
            )
    # non-finite inputs: the raw scalar code gives what the batch gives, NaN
    # for the trig functions of an infinity
    X = np.array([[math.inf], [-math.inf], [math.nan], [0.5]])
    W = np.zeros((4, 0))
    for src in ("sin(x1)", "cos(x1)", "tan(x1)"):
        e = mm.parse(src, 1, 0)
        scalar = [e.scalar_fn()(list(x), []) for x in X]
        assert all(math.isnan(v) for v in scalar[:3]), src
        np.testing.assert_array_equal(e.batch_fn()(X, W), scalar)


def test_batch_results_never_alias_their_inputs(rng):
    """Every result is a fresh, writable array of one value per row: a
    constant and a bare variable (once a view of X or W) too."""
    X = rng.uniform(-2, 2, (16, 2))
    W = rng.uniform(-1, 1, (16, 1))
    for src in ("x1*x2 - w1", "2.5", "x2", "w1"):
        e = mm.parse(src, 2, 1)
        out = e.batch_fn()(X, W)
        assert out.shape == (16,) and out.dtype == np.float64
        assert out.tolist() == [e.scalar_fn()(x, w)
                                for x, w in zip(X.tolist(), W.tolist())]
        assert out.flags.writeable, src
        assert not np.shares_memory(out, X) and not np.shares_memory(out, W)


def test_substitution_and_linear_combination():
    e = mm.parse("x1 * x2", 2, 0)
    rep = [
        exprlang.linear_combination([(2.0, exprlang.Var("x", 0))]),
        exprlang.linear_combination(
            [(1.0, exprlang.Var("x", 0)), (-1.0, exprlang.Var("x", 1))]
        ),
    ]
    composed = exprlang.ExprAst(
        exprlang.substitute(e.root, {exprlang.Var("x", k): r
                                     for k, r in enumerate(rep)}), 2, 0
    )
    # 2*x1 * (x1 - x2)
    assert mm.evaluate(composed, [3.0, 1.0], []) == pytest.approx(12.0)
    # renaming reaches disturbance variables and every node type
    e = mm.parse("max(sin(x1), -w1, x2 * w2)", 2, 2)
    hats = {exprlang.Var("x", 0): exprlang.Var("x", 2),
            exprlang.Var("w", 0): exprlang.Var("w", 3)}
    renamed = exprlang.substitute(e.root, hats)
    assert exprlang.to_source(renamed) == "max(sin(x3), (-w4), (x2 * w2))"
    assert exprlang.substitute(e.root, {}) == e.root
    with pytest.raises(TypeError):
        exprlang.substitute(exprlang.Binary("+", exprlang.Var("x", 0), 1.0), {})


def test_every_accepted_tree_compiles(rng):
    """parse compiles the scalar and batch code of every tree it accepts, so
    the scalar, batch and many-expression backends compile everything it
    accepts. Generated code nests one bracket per operator (a min/max folds
    into nested calls in the batch backend), and CPython compiles at most
    200 levels; the parser's own depth limit binds the other shapes."""
    # both raised SyntaxError at compile time instead of a ParseError
    with pytest.raises(ParseError):
        mm.parse("-" * 200 + "x1", 1, 0)
    with pytest.raises(ParseError):
        mm.parse("max(" + ", ".join(["x1"] * 260) + ")", 1, 0)
    shapes = [
        (198, lambda k: "-" * k + "x1"),
        (200, lambda k: "max(" + ", ".join(["x1"] * k) + ")"),
        (63, lambda k: "min(x1, " * k + "w1" + ")" * k),
        (63, lambda k: "sin(" * k + "x1" + ")" * k),
        (126, lambda k: "x1" + "^x1" * k),
        (198, lambda k: "x1" + "/x1" * k),
    ]
    for deepest, shape in shapes:
        k = 1
        while k < 400:
            try:
                mm.parse(shape(k + 1), 1, 1)
            except ParseError:
                break
            k += 1
        assert k == deepest, shape(1)
        e = mm.parse(shape(k), 1, 1)
        X = rng.uniform(0.5, 1.5, (3, 1))
        W = rng.uniform(0.5, 1.5, (3, 1))
        batch = e.batch_fn()(X, W)
        field = mm.SystemDef(1, 1, [e], mm.Box([0.5], [1.5])).eval_field_batch(X, W)
        assert field[:, 0].tobytes() == batch.tobytes()
        both = exprlang.scalar_list_fn([e.root, e.root])
        for x, w in zip(X.tolist(), W.tolist()):
            value = e.scalar_fn()(x, w)
            assert both(x, w) == [value, value]
    # the batch code of a flat max nests one call per argument past the first
    with pytest.raises(ParseError) as err:
        mm.parse("max(" + ", ".join(["x1"] * 201) + ")", 1, 0)
    assert "does not compile: too many nested parentheses" in str(err.value)
    with pytest.raises(ParseError) as err:
        mm.parse("x1 + 1e999", 1, 0)
    assert err.value.column == 6  # its literal would compile to a bare `inf`
