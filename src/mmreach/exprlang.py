"""Small arithmetic expression language for vector fields and decompositions.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative, binds above unary -
    atom   := NUMBER | VARIABLE | FUNC '(' expr (',' expr)* ')' | '(' expr ')'

Variables are ``x1..xn`` (state) and ``w1..wm`` (disturbance), 1-based in the
source text, 0-based in the API. Unary functions: sin, cos, tan, exp, abs,
sqrt. ``min``/``max`` take two or more arguments. The scalar code runs on
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

from .errors import DimensionMismatchError, EvalError, ParseError

MAX_DEPTH = 256
FD_STEP = 1e-6

_UNARY_FUNCS = ("sin", "cos", "tan", "exp", "abs", "sqrt")
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
    op: str  # neg, sin, cos, tan, exp, abs, sqrt
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
    **{f: _call(f) for f in _UNARY_FUNCS + _NARY_FUNCS},
    **{op: _infix(op) for op in "+-*/^"},
})

# float lists x, w; Python's operators and math's functions, which raise
# where IEEE arithmetic gives +-inf or NaN (see _scalar_compile)
_SCALAR_TABLE = _table(lambda v: f"{v.kind}[{v.index}]", {
    **{f: _call(f) for f in _UNARY_FUNCS + _NARY_FUNCS},
    **{op: _infix(op) for op in "+-*/"},
    "^": _call("pow"),
})

# row batches x (N, n), w (N, m); min/max fold pairwise from the right
_BATCH_TABLE = _table(lambda v: f"{v.kind}[:, {v.index}]", {
    **{f: _call(f"np.{f}") for f in _UNARY_FUNCS},
    **{op: _infix(op) for op in "+-*/"},
    "^": _call("np.power"),
    "min": _right_fold("np.minimum"),
    "max": _right_fold("np.maximum"),
})


# the numpy ufunc of each operator of _BATCH_TABLE, which ``batch_into_fn``
# calls with ``out=``
_UFUNCS = {"neg": "negative", "+": "add", "-": "subtract", "*": "multiply",
           "/": "divide", "^": "power", "abs": "absolute", "min": "minimum",
           "max": "maximum", **{f: f for f in ("sin", "cos", "tan", "exp", "sqrt")}}


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


# the scalar code catches the two exception types (see _scalar_compile)
_SCALAR_ENV = {
    **{f: getattr(math, f) for f in ("sin", "cos", "tan", "exp", "sqrt", "pow")},
    "abs": abs,
    "min": min,
    "max": max,
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

    def scalar_fn(self):
        """Raw compiled callable(x, w) -> float. No finiteness checks."""
        if self._scalar is None:
            self._scalar = _scalar_compile(
                f"({_gen(self.root, _SCALAR_TABLE)})",
                lambda x, w: _row([self], x, w)[0])
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


def _row(exprs, x, w):
    """The batch values of the ExprAsts ``exprs`` at the one row (x, w)."""
    X, W = np.array([x], dtype=float), np.array([w], dtype=float)
    return [float(e.batch_fn()(X, W)[0]) for e in exprs]


def _scalar_compile(body, fallback):
    """Callable(x, w) returning the scalar code ``body``, or ``fallback(x, w)``
    (the batch values) where a float or ``math`` operation raises.

    A NaN made without an exception (inf - inf) still reaches Python's
    ``min``/``max``, which drop it unless it is their first argument.
    """
    code = ("def fn(x, w):\n"
            "    try:\n"
            f"        return {body}\n"
            "    except (ArithmeticError, ValueError):\n"
            "        return fallback(x, w)\n")
    env = dict(_SCALAR_ENV, fallback=fallback)
    exec(code, env)
    return env["fn"]


def scalar_list_fn(roots):
    """One compiled callable(x, w) -> list of the values of the ASTs
    ``roots``, in order; the code of each is its ``scalar_fn`` code. No
    finiteness checks."""
    body = ", ".join(_gen(root, _SCALAR_TABLE) for root in roots)
    return _scalar_compile(f"[{body}]", lambda x, w: _row(
        [ExprAst(root, len(x), len(w)) for root in roots], x, w))


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


def parse(src, n, m):
    """Parse ``src`` against declared dimensions; raises ParseError with a
    1-based column on syntax errors, unknown identifiers, out-of-range
    variable indices and non-finite numbers.

    Every accepted tree compiles: ``parse`` compiles its scalar and batch
    code, and code that CPython refuses (more than 200 nested brackets) is a
    ParseError carrying the compiler's message.
    """
    if not src or not src.strip():
        raise ParseError("empty expression", src, 1)
    root = _Parser(src, n, m).parse()
    if _depth(root) > MAX_DEPTH:
        raise ParseError(f"expression deeper than {MAX_DEPTH}", src, 1)
    expr = ExprAst(root, n, m)
    try:
        expr.scalar_fn()
        expr.batch_into_fn()
    except SyntaxError as exc:
        raise ParseError(f"expression does not compile: {exc.msg}", src, 1) from exc
    return expr


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


def central_difference(f, v, index, h):
    """Central difference of ``f`` in coordinate ``index`` of the vector ``v``.

    The step is h * max(1, |v[index]|). Returns (fd, f_plus, f_minus); the
    values are not checked for finiteness.
    """
    v = list(v)
    base = v[index]
    step = h * max(1.0, abs(base))
    v[index] = base + step
    f_plus = f(v)
    v[index] = base - step
    f_minus = f(v)
    return (f_plus - f_minus) / (2.0 * step), f_plus, f_minus


def partial(expr: ExprAst, kind, index, x, w, h=FD_STEP):
    """Central finite difference of the expression.

    ``kind`` is "state" or "disturbance"; ``index`` is 0-based. The step is
    scaled by max(1, |coordinate|). Probe points that evaluate non-finite
    raise EvalError.
    """
    if h <= 0:
        raise ValueError(f"step must be positive, got {h}")
    if kind not in ("state", "disturbance"):
        raise ValueError(f"kind must be 'state' or 'disturbance', got {kind!r}")
    x = [float(v) for v in x]
    w = [float(v) for v in w]
    target = x if kind == "state" else w
    if index < 0 or index >= len(target):
        raise DimensionMismatchError(f"{kind} index {index} out of range")
    f = ((lambda v: evaluate(expr, v, w)) if kind == "state"
         else (lambda v: evaluate(expr, x, v)))
    return central_difference(f, target, index, h)[0]
