"""Small arithmetic expression language for vector fields and decompositions.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative, binds above unary -
    atom   := NUMBER | VARIABLE | FUNC '(' expr (',' expr)* ')' | '(' expr ')'

Variables are ``x1..xn`` (state) and ``w1..wm`` (disturbance), 1-based in the
source text, 0-based in the API. Unary functions: sin, cos, tan, exp, abs,
sqrt. ``min``/``max`` take two or more arguments. ``derivative`` trees may
also hold sign and log, which the parser rejects. The scalar code runs on
Python floats and ``math``; where these raise (1/0, sqrt(-1), exp(1000)), it
returns the numpy batch code's value at that row, so infinities and NaNs come
from numpy alone. ``evaluate`` turns a non-finite value into an EvalError
naming the offending subexpression.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EvalError, ExprError, ParseError

MAX_DEPTH = 256

_UNARY_FUNCS = ("sin", "cos", "tan", "exp", "abs", "sqrt")
_INTERNAL_FUNCS = ("sign", "log")  # in derivative trees only
_NARY_FUNCS = ("min", "max")


@dataclass(frozen=True)
class Const:
    value: float
    op = "const"  # code-table key; a class attribute, not a field


@dataclass(frozen=True)
class Var:
    kind: str  # "x" or "w"
    index: int  # 0-based
    op = "var"  # code-table key; a class attribute, not a field


@dataclass(frozen=True)
class Unary:
    op: str  # neg, sin, cos, tan, exp, abs, sqrt; internal: sign, log
    child: object


@dataclass(frozen=True)
class Binary:
    op: str  # + - * / ^
    left: object
    right: object


@dataclass(frozen=True)
class Nary:
    op: str  # min, max
    args: tuple


_TOKEN_RE = re.compile(
    r"(?P<num>(?:\d+\.?\d*|\.\d+)(?:[eE][+-]?\d+)?)"
    r"|(?P<ident>[A-Za-z_][A-Za-z_0-9]*)"
    r"|(?P<op>[-+*/^(),])"
)


def _tokenize(src):
    tokens = []
    pos = 0
    while pos < len(src):
        if src[pos].isspace():
            pos += 1
            continue
        match = _TOKEN_RE.match(src, pos)
        if match is None:
            raise ParseError(f"unexpected character {src[pos]!r}", src, pos + 1)
        tokens.append((match.lastgroup, match.group(match.lastgroup), pos + 1))
        pos = match.end()
    tokens.append(("end", "", len(src) + 1))
    return tokens


class _Parser:
    def __init__(self, src, n, m):
        self.src = src
        self.n = n
        self.m = m
        self.tokens = _tokenize(src)
        self.pos = 0
        self.depth = 0

    def peek(self):
        return self.tokens[self.pos]

    def advance(self):
        tok = self.tokens[self.pos]
        self.pos += 1
        return tok

    def fail(self, message, tok=None):
        tok = tok if tok is not None else self.peek()
        raise ParseError(message, self.src, tok[2])

    def enter(self):
        self.depth += 1
        if self.depth > MAX_DEPTH:
            self.fail(f"expression nested deeper than {MAX_DEPTH}")

    def leave(self):
        self.depth -= 1

    def parse(self):
        node = self.expr()
        kind, text, _ = self.peek()
        if kind != "end":
            self.fail(f"unexpected token {text!r}; expected operator or end of input")
        return node

    def expr(self):
        self.enter()
        node = self.term()
        while self.peek()[:2] in (("op", "+"), ("op", "-")):
            op = self.advance()[1]
            node = Binary(op, node, self.term())
        self.leave()
        return node

    def term(self):
        self.enter()
        node = self.unary()
        while self.peek()[:2] in (("op", "*"), ("op", "/")):
            op = self.advance()[1]
            node = Binary(op, node, self.unary())
        self.leave()
        return node

    def unary(self):
        self.enter()
        if self.peek()[:2] == ("op", "-"):
            self.advance()
            node = Unary("neg", self.unary())
        else:
            node = self.power()
        self.leave()
        return node

    def power(self):
        self.enter()
        base = self.atom()
        if self.peek()[:2] == ("op", "^"):
            self.advance()
            base = Binary("^", base, self.unary())
        self.leave()
        return base

    def atom(self):
        kind, text, col = self.peek()
        if kind == "num":
            self.advance()
            value = float(text)
            if not math.isfinite(value):
                self.fail("number out of range", (kind, text, col))
            return Const(value)
        if kind == "ident":
            self.advance()
            return self.name(text, col)
        if (kind, text) == ("op", "("):
            self.advance()
            node = self.expr()
            if self.peek()[:2] != ("op", ")"):
                self.fail("expected ')'")
            self.advance()
            return node
        self.fail(
            f"unexpected token {text!r}; expected number, variable, function, or '('"
        )

    def name(self, text, col):
        var = re.fullmatch(r"([xw])(\d+)", text)
        if var is not None:
            kind, idx = var.group(1), int(var.group(2))
            limit = self.n if kind == "x" else self.m
            if idx < 1 or idx > limit:
                raise ParseError(
                    f"variable {text!r} out of range (declared {kind}1..{kind}{limit})",
                    self.src,
                    col,
                )
            return Var(kind, idx - 1)
        if text in _UNARY_FUNCS or text in _NARY_FUNCS:
            return self.call(text, col)
        raise ParseError(f"unknown identifier {text!r}", self.src, col)

    def call(self, func, col):
        if self.peek()[:2] != ("op", "("):
            self.fail(f"expected '(' after {func!r}")
        self.advance()
        args = [self.expr()]
        while self.peek()[:2] == ("op", ","):
            self.advance()
            args.append(self.expr())
        if self.peek()[:2] != ("op", ")"):
            self.fail("expected ')' or ','")
        self.advance()
        if func in _UNARY_FUNCS:
            if len(args) != 1:
                raise ParseError(f"{func} expects exactly 1 argument", self.src, col)
            return Unary(func, args[0])
        if len(args) < 2:
            raise ParseError(f"{func} expects at least 2 arguments", self.src, col)
        return Nary(func, tuple(args))


def _children(node):
    """The direct subexpressions of ``node``: the one dispatch on node type."""
    if isinstance(node, (Const, Var)):
        return ()
    if isinstance(node, Unary):
        return (node.child,)
    if isinstance(node, Binary):
        return (node.left, node.right)
    if isinstance(node, Nary):
        return node.args
    raise TypeError(f"not an expression node: {node!r}")


def _depth(node):
    stack = [(node, 1)]
    deepest = 0
    while stack:
        cur, d = stack.pop()
        deepest = max(deepest, d)
        stack.extend((child, d + 1) for child in _children(cur))
    return deepest


def _gen(node, table):
    """Code for ``node`` in the backend ``table``.

    A table maps each ``op`` to a function of the leaf node ("const", "var")
    or of the generated code of the operands (every operator).
    """
    children = _children(node)
    if not children:
        return table[node.op](node)
    return table[node.op](*(_gen(child, table) for child in children))


def _call(name):
    return lambda *args: f"{name}({', '.join(args)})"


def _infix(op):
    return lambda a, b: f"({a} {op} {b})"


def _right_fold(name):
    def fold(*args):
        out = args[-1]
        for arg in args[-2::-1]:
            out = f"{name}({arg}, {out})"
        return out

    return fold


def _table(var, ops):
    """A backend table: ``var`` writes a variable and ``ops`` the operators;
    constants and negation read the same in every backend."""
    return {"const": lambda c: repr(c.value), "var": var,
            "neg": lambda a: f"(-{a})", **ops}


# canonical source text; reparses to the same tree
_SOURCE_TABLE = _table(lambda v: f"{v.kind}{v.index + 1}", {
    **{f: _call(f) for f in _UNARY_FUNCS + _INTERNAL_FUNCS + _NARY_FUNCS},
    **{op: _infix(op) for op in "+-*/^"},
})

# float lists x, w; Python's operators and math's functions, which raise
# where IEEE arithmetic gives +-inf or NaN (see ExprAst.scalar_fn); min/max
# are comparisons that _scalar_code writes
_SCALAR_TABLE = _table(lambda v: f"{v.kind}[{v.index}]", {
    **{f: _call(f) for f in _UNARY_FUNCS + _INTERNAL_FUNCS},
    **{op: _infix(op) for op in "+-*/"},
    "^": _call("pow"),
})

# row batches x (N, n), w (N, m); min/max fold pairwise from the right
_BATCH_TABLE = _table(lambda v: f"{v.kind}[:, {v.index}]", {
    **{f: _call(f"np.{f}") for f in _UNARY_FUNCS + _INTERNAL_FUNCS},
    **{op: _infix(op) for op in "+-*/"},
    "^": _call("np.power"),
    "min": _right_fold("np.minimum"),
    "max": _right_fold("np.maximum"),
})


# the numpy ufunc of each operator of _BATCH_TABLE, which ``batch_into_fn``
# calls with ``out=``
_UFUNCS = {"neg": "negative", "+": "add", "-": "subtract", "*": "multiply",
           "/": "divide", "^": "power", "min": "minimum", "max": "maximum",
           **{f: f for f in _UNARY_FUNCS + _INTERNAL_FUNCS}}

_ZERO, _ONE = Const(0.0), Const(1.0)

# d f(u)/du of each unary function f, as a tree over u and the node f(u)
_CHAIN = {
    "sin": lambda u, f: Unary("cos", u),
    "cos": lambda u, f: Unary("neg", Unary("sin", u)),
    "tan": lambda u, f: Binary("+", _ONE, Binary("*", f, f)),
    "exp": lambda u, f: f,
    "sqrt": lambda u, f: Binary("/", Const(0.5), f),
    "abs": lambda u, f: Unary("sign", u),  # a Clarke subgradient: 0 at 0
    "sign": lambda u, f: _ZERO,
    "log": lambda u, f: Binary("/", _ONE, u),
}


def _has_var(node):
    return isinstance(node, Var) or any(map(_has_var, _children(node)))


def _batch_into_code(node):
    """A statement writing the batch value of ``node`` into the 1-D array
    ``o``: the root operator's ufunc with ``out=o`` over the ``_BATCH_TABLE``
    code of its operands, or a copy where no operator runs per row (a
    constant, a bare variable, an expression of constants)."""
    if not _has_var(node) or not _children(node):
        return f"o[...] = {_gen(node, _BATCH_TABLE)}"
    args = [_gen(child, _BATCH_TABLE) for child in _children(node)]
    if node.op in ("min", "max"):  # the outermost call of the right fold
        args = [args[0], _BATCH_TABLE[node.op](*args[1:])]
    return f"np.{_UFUNCS[node.op]}({', '.join(args)}, out=o)"


def to_source(node):
    """Canonical fully-parenthesized form; reparses to the same tree."""
    return _gen(node, _SOURCE_TABLE)


# the scalar code catches the two exception types (see ExprAst.scalar_fn)
_SCALAR_ENV = {
    **{f: getattr(math, f) for f in ("sin", "cos", "tan", "exp", "sqrt", "log", "pow")},
    "sign": lambda a: a if a != a else float((a > 0) - (a < 0)),  # as np.sign
    "abs": abs,
    "ArithmeticError": ArithmeticError,
    "ValueError": ValueError,
    "__builtins__": {},
}

_BATCH_ENV = {"np": np, "__builtins__": {}}


class ExprAst:
    """Parsed expression over x1..xn and w1..wm.

    Immutable after construction; evaluation is pure and reentrant.
    """

    __slots__ = ("root", "n", "m", "_scalar", "_into")

    def __init__(self, root, n, m):
        self.root = root
        self.n = n
        self.m = m
        self._scalar = None
        self._into = None

    @property
    def source(self):
        return to_source(self.root)

    def __repr__(self):
        return f"ExprAst({self.source!r}, n={self.n}, m={self.m})"

    def negated(self):
        return ExprAst(Unary("neg", self.root), self.n, self.m)

    def compiled(self, what):
        """Self, its scalar and batch code compiled; code that CPython refuses
        (more than 200 nested brackets) raises ExprError naming ``what``."""
        try:
            self.scalar_fn()
            self.batch_into_fn()
        except SyntaxError as exc:
            raise ExprError(f"{what} does not compile: {exc.msg}") from exc
        return self

    def scalar_fn(self):
        """Raw compiled callable(x, w) -> float: the scalar code, or the
        batch value at the row (x, w) where a float or ``math`` operation
        raises. No finiteness checks.

        A NaN made without an exception (inf - inf) still reaches the
        min/max comparisons, which drop it unless it is their first argument.
        """
        if self._scalar is None:
            lines, (expr,) = _scalar_code([self.root])
            code = ("def fn(x, w):\n"
                    "    try:\n"
                    + "".join(f"        {line}\n" for line in lines)
                    + f"        return ({expr})\n"
                    "    except (ArithmeticError, ValueError):\n"
                    "        return fallback(x, w)\n")

            def fallback(x, w):  # the batch value at the one row (x, w)
                return float(self.batch_fn()(np.array([x], dtype=float),
                                             np.array([w], dtype=float))[0])

            env = dict(_SCALAR_ENV, fallback=fallback)
            exec(code, env)
            self._scalar = env["fn"]
        return self._scalar

    def batch_fn(self):
        """Compiled callable(X, W) over (N, n) and (N, m) arrays, returning a
        fresh float64 array of one value per row (``batch_into_fn``'s)."""
        into = self.batch_into_fn()

        def fn(X, W):
            out = np.empty(X.shape[0])
            with np.errstate(all="ignore"):
                into(X, W, out)
            return out

        return fn

    def batch_into_fn(self):
        """Compiled callable(X, W, out) writing the value at each row into
        the float64 array ``out`` of one value per row. Floating-point
        warnings are the caller's to silence."""
        if self._into is None:
            code = f"def fn(x, w, o):\n    {_batch_into_code(self.root)}\n"
            env = dict(_BATCH_ENV)
            exec(code, env)
            self._into = env["fn"]
        return self._into


def _scalar_code(roots, var=_SCALAR_TABLE["var"]):
    """The scalar code of the trees ``roots``: statements binding the
    temporaries t0, t1, ..., and one expression per root. ``var`` writes a
    variable: by default ``x[i]`` or ``w[k]``, items of the two lists.

    ``min``/``max`` follow Python's builtins, so NaN placement and signed
    zeros are theirs: each argument is evaluated once, left to right, and
    the running value is kept unless the next argument compares strictly
    less (min) or greater (max). A compound argument and every running value
    but the last are temporaries, so the code nests no deeper than the batch
    code. A tree without min/max has no statements.
    """
    lines = []
    table = {**_SCALAR_TABLE, "var": var}

    def bind(code):
        name = f"t{len(lines)}"
        lines.append(f"{name} = {code}")
        return name

    def gen(node):
        children = _children(node)
        if not children:
            return table[node.op](node)
        if not isinstance(node, Nary):
            return table[node.op](*map(gen, children))
        args = [bind(gen(child)) if _children(child) else gen(child)
                for child in children]
        cmp = "<" if node.op == "min" else ">"

        def keep(running, arg):  # the running value after ``arg``
            return f"({arg} if {arg} {cmp} {running} else {running})"

        out = args[0]
        for arg in args[1:-1]:
            out = bind(keep(out, arg))
        return keep(out, args[-1])

    exprs = [gen(root) for root in roots]
    return lines, exprs


def linear_combination(pairs):
    """AST for sum of coeff * node, skipping zero and folding unit coefficients.

    ``pairs`` is a list of (coefficient, node); an empty combination is 0.
    """
    terms = []
    for coeff, node in pairs:
        if coeff == 0.0:
            continue
        if coeff == 1.0:
            terms.append(node)
        elif coeff == -1.0:
            terms.append(Unary("neg", node))
        else:
            terms.append(Binary("*", Const(float(coeff)), node))
    if not terms:
        return Const(0.0)
    out = terms[0]
    for term in terms[1:]:
        out = Binary("+", out, term)
    return out


def substitute(node, mapping):
    """Replace every leaf that is a key of ``mapping`` (``Var`` to AST node)."""
    children = _children(node)
    if not children:
        return mapping.get(node, node)
    children = tuple(substitute(child, mapping) for child in children)
    if isinstance(node, Nary):
        return Nary(node.op, children)
    return type(node)(node.op, *children)


def _fold(op, a, b):
    """``Binary(op, a, b)`` with the constants 0 and 1 folded away."""
    if a == _ZERO and op in "*/" or b == _ZERO and op == "*":
        return _ZERO
    if b == _ZERO and op in "+-" or b == _ONE and op in "*/":
        return a
    if a == _ZERO and op in "+-" or a == _ONE and op == "*":
        return b if op != "-" else Unary("neg", b)
    return Binary(op, a, b)


def derivative(node, var):
    """The tree of the partial derivative of ``node`` in the ``Var`` ``var``.

    A kink takes a Clarke subgradient: ``abs(u)`` gives ``sign(u) * du``, and
    ``min``/``max``, paired from the right as the batch code folds them, the
    partial of the argument they pick, or the mean of the two at a tie.
    """
    children = _children(node)
    if not children:
        return _ONE if node == var else _ZERO
    if isinstance(node, Nary):
        a, rest = children[0], children[1:]
        b = rest[0] if len(rest) == 1 else Nary(node.op, rest)
        # weights (1 + s)/2 and (1 - s)/2, or swapped for min: 1, 1/2 or 0
        s = Unary("sign", _fold("-", a, b))
        wa, wb = (Binary("*", Const(0.5), Binary(op, _ONE, s))
                  for op in ("+-" if node.op == "max" else "-+"))
        return _fold("+", _fold("*", derivative(a, var), wa),
                     _fold("*", derivative(b, var), wb))
    d = [derivative(child, var) for child in children]
    if node.op == "neg":
        return _fold("-", _ZERO, d[0])
    if isinstance(node, Unary):
        return _fold("*", _CHAIN[node.op](node.child, node), d[0])
    (u, v), (du, dv) = children, d
    if node.op in "+-":
        return _fold(node.op, du, dv)
    if node.op == "*":
        return _fold("+", _fold("*", du, v), _fold("*", u, dv))
    if node.op == "/":
        return _fold("/", _fold("-", du, _fold("*", node, dv)), v)
    if dv == _ZERO:  # u ^ v with v free of var
        return _fold("*", _fold("*", v, Binary("^", u, Binary("-", v, _ONE))), du)
    return _fold("*", node, _fold("+", _fold("*", dv, Unary("log", u)),
                                  _fold("/", _fold("*", v, du), u)))


def derivative_expr(expr: ExprAst, var):
    """``derivative(expr.root, var)``, compiled (see ``ExprAst.compiled``)."""
    return ExprAst(derivative(expr.root, var), expr.n, expr.m).compiled(
        f"the partial derivative in {var.kind}{var.index + 1}")


def parse(src, n, m):
    """Parse ``src`` against declared dimensions; raises ParseError with a
    1-based column on syntax errors, unknown identifiers, out-of-range
    variable indices and non-finite numbers.

    Every accepted tree compiles: code that CPython refuses (more than 200
    nested brackets) is a ParseError carrying the compiler's message.
    """
    if not src or not src.strip():
        raise ParseError("empty expression", src, 1)
    root = _Parser(src, n, m).parse()
    if _depth(root) > MAX_DEPTH:
        raise ParseError(f"expression deeper than {MAX_DEPTH}", src, 1)
    try:
        return ExprAst(root, n, m).compiled("expression")
    except ExprError as exc:
        raise ParseError(str(exc), src, 1) from exc


def _locate_nonfinite(node, x, w):
    """Return the deepest subtree whose value is non-finite, or None."""
    for child in _children(node):
        hit = _locate_nonfinite(child, x, w)
        if hit is not None:
            return hit
    value = ExprAst(node, len(x), len(w)).scalar_fn()(x, w)
    if not math.isfinite(value):
        return node
    return None


def evaluate(expr: ExprAst, x, w):
    """Evaluate at state x and disturbance w (IEEE doubles).

    Non-finite results raise EvalError carrying the offending subexpression.
    """
    x = [float(v) for v in x]
    w = [float(v) for v in w]
    if len(x) != expr.n or len(w) != expr.m:
        raise DimensionMismatchError(
            f"expected |x|={expr.n}, |w|={expr.m}; got {len(x)}, {len(w)}"
        )
    value = expr.scalar_fn()(x, w)
    if not math.isfinite(value):
        node = _locate_nonfinite(expr.root, x, w)
        raise EvalError(
            "expression produced a non-finite value",
            to_source(node if node is not None else expr.root),
        )
    return value


def partial(expr: ExprAst, kind, index, x, w):
    """The exact partial of the expression: its ``derivative`` tree,
    evaluated. ``kind`` is "state" or "disturbance"; ``index`` is 0-based."""
    if kind not in ("state", "disturbance"):
        raise ValueError(f"kind must be 'state' or 'disturbance', got {kind!r}")
    var = Var("x" if kind == "state" else "w", index)
    if index < 0 or index >= (expr.n if var.kind == "x" else expr.m):
        raise DimensionMismatchError(f"{kind} index {index} out of range")
    return evaluate(derivative_expr(expr, var), x, w)
