"""Disturbed ODE definitions, linear state transformations, and time reversal."""

from __future__ import annotations

import math

import numpy as np

from . import exprlang
from .errors import DimensionMismatchError, GeometryError
from .geometry import Box, invert_shape


class SystemDef:
    """System x' = F(x, w) with w ranging over a box.

    ``field`` is one expression per state component. Instances are immutable
    after construction and safe to share across threads.
    """

    def __init__(self, n, m, field, dist: Box, name=""):
        if len(field) != n:
            raise DimensionMismatchError(
                f"expected {n} field expressions, got {len(field)}"
            )
        if dist.dim != m:
            raise DimensionMismatchError(
                f"disturbance box has dimension {dist.dim}, declared m={m}"
            )
        for i, expr in enumerate(field):
            if expr.n > n or expr.m > m:
                raise DimensionMismatchError(
                    f"field component {i + 1} references undeclared variables"
                )
            # the code the embedding and the oracle run; a composed field can
            # nest too deeply to compile
            expr.compiled(f"field component {i + 1}")
        self.n = n
        self.m = m
        self.field = tuple(field)
        self.dist = dist
        self.name = name

    @classmethod
    def from_strings(cls, n, m, sources, w_lo, w_hi, name=""):
        field = [exprlang.parse(src, n, m) for src in sources]
        return cls(n, m, field, Box(w_lo, w_hi), name)

    def __repr__(self):
        srcs = ", ".join(e.source for e in self.field)
        return f"SystemDef(n={self.n}, m={self.m}, field=[{srcs}])"

    def field_sources(self):
        return [e.source for e in self.field]

    def field_values(self, x, w):
        """Raw componentwise evaluation; no finiteness checks (hot path)."""
        return [e.scalar_fn()(x, w) for e in self.field]

    def component_fn(self, i):
        """Raw compiled scalar callable for component i (hot loops)."""
        return self.field[i].scalar_fn()

    def component_batch_fn(self, i):
        """Vectorized callable for component i over (N, n), (N, m) arrays."""
        return self.field[i].batch_fn()

    def eval_field(self, x, w):
        """F(x, w) as an array; non-finite components raise EvalError."""
        x = [float(v) for v in x]
        w = [float(v) for v in w]
        if len(x) != self.n or len(w) != self.m:
            raise DimensionMismatchError(
                f"expected |x|={self.n}, |w|={self.m}; got {len(x)}, {len(w)}"
            )
        values = self.field_values(x, w)
        for i, v in enumerate(values):
            if not math.isfinite(v):
                # re-evaluate through the checking path for a precise report
                exprlang.evaluate(self.field[i], x, w)
        return np.array(values)

    def eval_field_batch(self, X, W):
        """Vectorized field over rows of X (N, n) and W (N, m), as a fresh
        column-major (N, n) array: each component is one contiguous column,
        which its last operation writes into directly."""
        X = np.asarray(X, dtype=float)
        W = np.asarray(W, dtype=float)
        out = np.empty((X.shape[0], self.n), order="F")
        with np.errstate(all="ignore"):
            for i, expr in enumerate(self.field):
                expr.batch_into_fn()(X, W, out[:, i])
        return out


def transform(system, shape):
    """Dynamics of y = shape^-1 x: y' = shape^-1 F(shape y, w).

    The field is composed symbolically (the linear map substituted into the
    system's expressions), so evaluation costs the same as a plain system.
    With the identity shape the composed expressions reduce to the original
    ones exactly. Transforming a transformed system nests the substitutions.
    """
    n = system.n
    inv = invert_shape(shape)
    mat = np.array(shape, dtype=float)
    if mat.shape[0] != n:
        raise DimensionMismatchError(
            f"shape is {mat.shape[0]}x{mat.shape[1]}, state dimension is {n}"
        )
    substituted_x = {
        exprlang.Var("x", k): exprlang.linear_combination(
            [(mat[k, l], exprlang.Var("x", l)) for l in range(n)]
        )
        for k in range(n)
    }
    inner = [exprlang.substitute(e.root, substituted_x) for e in system.field]
    field = [
        exprlang.ExprAst(
            exprlang.linear_combination([(inv[i, j], inner[j]) for j in range(n)]),
            n,
            system.m,
        )
        for i in range(n)
    ]
    name = f"{system.name}@T" if system.name else ""
    return SystemDef(n, system.m, field, system.dist, name)


def reverse_time(system):
    """System with field -F (expression-level negation); disturbance unchanged."""
    field = [e.negated() for e in system.field]
    name = f"-{system.name}" if system.name else ""
    return SystemDef(system.n, system.m, field, system.dist, name)


_PRESETS = {
    "bilinear": dict(
        n=2, m=1,
        sources=("x1*x2 + w1", "x1 + 1"),
        w_lo=(0.0,), w_hi=(0.25,),
    ),
    "cubic": dict(
        n=2, m=1,
        sources=("x1 - x2 + x2^3 + w1", "x1 - x2"),
        w_lo=(-1.0,), w_hi=(1.0,),
    ),
    "trig": dict(
        n=2, m=1,
        sources=("x2 + sin(x2) + w1", "x1 + cos(x1) + 1"),
        w_lo=(0.0,), w_hi=(0.5,),
    ),
}


def preset_system(name):
    """Named systems used by the shipped run configurations."""
    if name not in _PRESETS:
        raise GeometryError(
            f"unknown system preset {name!r}; available: {sorted(_PRESETS)}"
        )
    cfg = _PRESETS[name]
    return SystemDef.from_strings(
        cfg["n"], cfg["m"], cfg["sources"], cfg["w_lo"], cfg["w_hi"], name=name
    )
