"""Small arithmetic expression language for vector fields and decompositions.

Grammar (whitespace-insensitive)::

    expr   := term (('+' | '-') term)*
    term   := unary (('*' | '/') unary)*
    unary  := '-' unary | power
    power  := atom ('^' unary)?          # right-associative, binds above unary -
    atom   := NUMBER | VARIABLE | FUNC '(' expr (',' expr)* ')' | '(' expr ')'

Variables are ``x1..xn`` (state) and ``w1..wm`` (disturbance), 1-based in the
source text, 0-based in the API. Unary functions: sin, cos, tan, exp, abs,
sqrt. ``min``/``max`` take two or more arguments. Division by zero and domain
violations surface as EvalError naming the offending subexpression.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass

import numpy as np

from .errors import DimensionMismatchError, EvalError, ParseError

MAX_DEPTH = 256
DEFAULT_FD_STEP = 1e-6

_UNARY_FUNCS = ("sin", "cos", "tan", "exp", "abs", "sqrt")
_NARY_FUNCS = ("min", "max")


@dataclass(frozen=True)
class Const:
    value: float


@dataclass(frozen=True)
class Var:
    kind: str  # "x" or "w"
    index: int  # 0-based


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
            return Const(float(text))
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


def _depth(node):
    stack = [(node, 1)]
    deepest = 0
    while stack:
        cur, d = stack.pop()
        deepest = max(deepest, d)
        if isinstance(cur, Unary):
            stack.append((cur.child, d + 1))
        elif isinstance(cur, Binary):
            stack.append((cur.left, d + 1))
            stack.append((cur.right, d + 1))
        elif isinstance(cur, Nary):
            stack.extend((a, d + 1) for a in cur.args)
    return deepest


def to_source(node):
    """Canonical fully-parenthesized form; reparses to the same tree."""
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return f"{node.kind}{node.index + 1}"
    if isinstance(node, Unary):
        if node.op == "neg":
            return f"(-{to_source(node.child)})"
        return f"{node.op}({to_source(node.child)})"
    if isinstance(node, Binary):
        return f"({to_source(node.left)} {node.op} {to_source(node.right)})"
    if isinstance(node, Nary):
        return f"{node.op}({', '.join(to_source(a) for a in node.args)})"
    raise TypeError(f"not an expression node: {node!r}")


# --- scalar evaluation helpers (IEEE semantics, no exceptions) ---------------


def _div(a, b):
    try:
        return a / b
    except ZeroDivisionError:
        if a == 0.0:
            return math.nan
        return math.copysign(math.inf, a) * math.copysign(1.0, b)


def _pow(a, b):
    try:
        return math.pow(a, b)
    except ValueError:
        return math.nan
    except OverflowError:
        return math.inf


def _sqrt(a):
    try:
        return math.sqrt(a)
    except ValueError:
        return math.nan


def _exp(a):
    try:
        return math.exp(a)
    except OverflowError:
        return math.inf


def _trig(fn, a):
    try:
        return fn(a)
    except ValueError:
        return math.nan


_SCALAR_ENV = {
    "_div": _div,
    "_pow": _pow,
    "_sqrt": _sqrt,
    "_exp": _exp,
    "_sin": lambda a: _trig(math.sin, a),
    "_cos": lambda a: _trig(math.cos, a),
    "_tan": lambda a: _trig(math.tan, a),
    "abs": abs,
    "min": min,
    "max": max,
    "__builtins__": {},
}

_BATCH_ENV = {"np": np, "__builtins__": {}}


def _gen_scalar(node):
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return f"{node.kind}[{node.index}]"
    if isinstance(node, Unary):
        c = _gen_scalar(node.child)
        if node.op == "neg":
            return f"(-{c})"
        if node.op in ("sin", "cos", "tan", "exp", "sqrt"):
            return f"_{node.op}({c})"
        return f"abs({c})"
    if isinstance(node, Binary):
        left, right = _gen_scalar(node.left), _gen_scalar(node.right)
        if node.op == "/":
            return f"_div({left}, {right})"
        if node.op == "^":
            return f"_pow({left}, {right})"
        return f"({left} {node.op} {right})"
    if isinstance(node, Nary):
        args = ", ".join(_gen_scalar(a) for a in node.args)
        return f"{node.op}({args})"
    raise TypeError(f"not an expression node: {node!r}")


def _gen_batch(node):
    if isinstance(node, Const):
        return repr(node.value)
    if isinstance(node, Var):
        return f"{node.kind}[:, {node.index}]"
    if isinstance(node, Unary):
        c = _gen_batch(node.child)
        if node.op == "neg":
            return f"(-{c})"
        return f"np.{node.op}({c})"
    if isinstance(node, Binary):
        left, right = _gen_batch(node.left), _gen_batch(node.right)
        if node.op == "^":
            return f"np.power({left}, {right})"
        return f"({left} {node.op} {right})"
    if isinstance(node, Nary):
        fn = "np.minimum" if node.op == "min" else "np.maximum"
        out = _gen_batch(node.args[-1])
        for arg in node.args[-2::-1]:
            out = f"{fn}({_gen_batch(arg)}, {out})"
        return out
    raise TypeError(f"not an expression node: {node!r}")


class ExprAst:
    """Parsed expression over x1..xn and w1..wm.

    Immutable after construction; evaluation is pure and reentrant.
    """

    __slots__ = ("root", "n", "m", "_scalar", "_batch")

    def __init__(self, root, n, m):
        self.root = root
        self.n = n
        self.m = m
        self._scalar = None
        self._batch = None

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
            code = f"lambda x, w: ({_gen_scalar(self.root)})"
            self._scalar = eval(code, dict(_SCALAR_ENV))
        return self._scalar

    def batch_fn(self):
        """Compiled callable(X, W) over (N, n) and (N, m) arrays."""
        if self._batch is None:
            code = f"lambda x, w: ({_gen_batch(self.root)})"
            fn = eval(code, dict(_BATCH_ENV))

            def wrapped(X, W, _fn=fn):
                with np.errstate(all="ignore"):
                    out = _fn(X, W)
                return np.broadcast_to(np.asarray(out, dtype=float), (X.shape[0],))

            self._batch = wrapped
        return self._batch


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


def substitute_state(node, replacements):
    """Replace every state variable x_k by ``replacements[k]`` (AST nodes)."""
    if isinstance(node, Var):
        if node.kind == "x":
            return replacements[node.index]
        return node
    if isinstance(node, Const):
        return node
    if isinstance(node, Unary):
        return Unary(node.op, substitute_state(node.child, replacements))
    if isinstance(node, Binary):
        return Binary(
            node.op,
            substitute_state(node.left, replacements),
            substitute_state(node.right, replacements),
        )
    if isinstance(node, Nary):
        return Nary(node.op, tuple(substitute_state(a, replacements) for a in node.args))
    raise TypeError(f"not an expression node: {node!r}")


def parse(src, n, m):
    """Parse ``src`` against declared dimensions; raises ParseError with a
    1-based column on syntax errors, unknown identifiers, and out-of-range
    variable indices."""
    if not src or not src.strip():
        raise ParseError("empty expression", src, 1)
    root = _Parser(src, n, m).parse()
    if _depth(root) > MAX_DEPTH:
        raise ParseError(f"expression deeper than {MAX_DEPTH}", src, 1)
    return ExprAst(root, n, m)


def _locate_nonfinite(node, x, w):
    """Return the deepest subtree whose value is non-finite, or None."""
    children = ()
    if isinstance(node, Unary):
        children = (node.child,)
    elif isinstance(node, Binary):
        children = (node.left, node.right)
    elif isinstance(node, Nary):
        children = node.args
    for child in children:
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


def partial(expr: ExprAst, kind, index, x, w, h=DEFAULT_FD_STEP):
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
